"""Exception types shared across the library."""


class TTOLabError(Exception):
    """Base class for all library-specific errors."""


class BandwidthOverflow(TTOLabError):
    """Combined declared bandwidth does not fit on the grid; enlarge the grid."""


class UndefinedBoundaryValue(TTOLabError):
    """Inner function has no value at this boundary point (atom or zero cluster)."""


class AtomAtPoint(TTOLabError):
    """The evaluation point coincides with a singular atom; the sum is infinite."""


class UnsupportedVariant(TTOLabError):
    """Operation not defined for this inner-function variant."""


class NoAngularDerivative(TTOLabError):
    """Boundary point lacks an angular-derivative certificate."""


class BoundaryPointNotNormalizable(TTOLabError):
    """Normalized kernels exist only at interior points."""


class DegenerateMu(TTOLabError):
    """|Theta(mu)| is too small for stable symbol recovery."""


class InconsistentOracle(TTOLabError):
    """Kernel-action data is not consistent with any truncated Toeplitz operator."""


class NoConvergence(TTOLabError):
    """Grid doubling / iteration budget exhausted before reaching tolerance."""


class SupportOverflow(TTOLabError):
    """Fourier support exceeds the declared band."""


class DivisibilityViolated(TTOLabError):
    """Required inner-function divisibility relation does not hold."""


class SymbolsDiffer(TTOLabError):
    """Two alleged symbols of the same operator build different operators."""
