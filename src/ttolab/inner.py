"""Symbolic inner functions on the unit disk.

Supported variants: z^N, finite Blaschke products, atomic singular inner
functions, finite products of these, and fractional powers of singular
factors.  Blaschke zeros are stored as (delta, angle) with delta = 1 - |a|
so that zeros exponentially close to the circle (the counterexample
families need 1 - |a| far below machine epsilon) keep full precision in
the Ahern-Clark sums.
"""

from __future__ import annotations

import cmath
import math
import weakref

import numpy as np

from .errors import AtomAtPoint, NoAngularDerivative, UndefinedBoundaryValue, UnsupportedVariant

_MATCH_TOL = 1e-12
EDGE = 1e-12  # a point with 1 - EDGE < |z| <= 1 + EDGE is the boundary point z/|z|


class BoundaryPoint:
    """e^{i angle} on the unit circle, kept as an exact angle: how an angle names a point."""

    __slots__ = ("angle",)

    def __init__(self, angle: float):
        self.angle = float(angle) % (2.0 * math.pi)

    @property
    def value(self) -> complex:
        return cmath.exp(1j * self.angle)

    def __repr__(self):
        return f"BoundaryPoint(angle={self.angle!r})"


def _point(pt):
    """(value, is_boundary) of a point argument: |z| <= 1 - EDGE, z/|z| for z within
    EDGE of the circle, or a BoundaryPoint.  Any other point, NaN included, raises ValueError."""
    z = pt.value if isinstance(pt, BoundaryPoint) else complex(pt)
    if not abs(z) <= 1.0 + EDGE:  # False for NaN too
        raise ValueError(f"points must satisfy |z| < 1 or |z| = 1, got {z}")
    if isinstance(pt, BoundaryPoint):
        return z, True
    return (z / abs(z), True) if abs(z) > 1.0 - EDGE else (z, False)


class BlaschkeZero:
    """A zero a = (1 - delta) e^{i angle} with multiplicity."""

    __slots__ = ("delta", "angle", "mult")

    def __init__(self, delta: float, angle: float, mult: int = 1):
        if not (0 < delta <= 1 and math.isfinite(angle)):  # NaN fails too
            raise ValueError(f"zero needs 0 < delta <= 1 and a finite angle, got {delta}, {angle}")
        if mult < 1:
            raise ValueError("multiplicity must be >= 1")
        self.delta = float(delta)
        self.angle = float(angle) % (2.0 * math.pi)
        self.mult = int(mult)

    @classmethod
    def from_complex(cls, a: complex, mult: int = 1):
        a = complex(a)
        return cls(1.0 - abs(a), cmath.phase(a), mult)

    @property
    def value(self) -> complex:
        return (1.0 - self.delta) * cmath.exp(1j * self.angle)


class Atom:
    """A point mass of the singular measure: mass c > 0 at e^{i angle}."""

    __slots__ = ("angle", "mass")

    def __init__(self, angle: float, mass: float):
        if not (math.isfinite(angle) and 0 < mass < math.inf):  # NaN fails too
            raise ValueError(f"atom needs a finite angle and 0 < mass < inf, got {angle}, {mass}")
        self.angle = float(angle) % (2.0 * math.pi)
        self.mass = float(mass)


class InnerFunction:
    """Base class: Theta = u B S, with u the constant ``unimodular``, B the
    Blaschke product of ``zeros()`` and S the singular function of
    ``atoms()``.  Instances are immutable, so data derived from them is
    computed once: grid samples (``samples_at``) and the factors as arrays
    (``_zero_data``, ``_atom_data``), which every formula in the factors
    reads."""

    truncated = False  # True when the spec is a truncation of an infinite family
    unimodular = 1  # u: Theta / (B S)

    # combinatorial data -------------------------------------------------

    def zeros(self) -> list[BlaschkeZero]:
        return []

    def atoms(self) -> list[Atom]:
        return []

    def degree(self) -> int:
        return sum(z.mult for z in self.zeros())

    def has_singular_part(self) -> bool:
        return bool(self.atoms())

    def is_finite_blaschke(self) -> bool:
        return not self.has_singular_part() and not self.truncated

    # evaluation ---------------------------------------------------------

    def eval(self, z):
        """Evaluate at interior points or admissible boundary points.

        Raises UndefinedBoundaryValue for boundary points (``_point``'s rule)
        sitting on a singular atom (within matching tolerance).
        """
        z = np.asarray(z, dtype=complex)
        scalar = z.ndim == 0
        z = np.atleast_1d(z)
        mod = np.abs(z)
        on_t = (mod > 1.0 - EDGE) & (mod <= 1.0 + EDGE)
        if np.any(on_t):
            zeta, angle, _ = self._atom_data
            near = np.abs(np.exp(1j * np.angle(z[on_t]))[:, None] - zeta).min(axis=0) < 1e-9
            if near.any():
                raise UndefinedBoundaryValue(
                    f"boundary evaluation at a singular atom (angle {angle[near][0]})")
        w = self._eval_impl(z)
        return complex(w[0]) if scalar else w

    def _eval_impl(self, z):
        """S, then each b_a multiplied in out of place, then u: numpy's in-place
        complex product rounds a one-point array apart from a longer one, which
        would make Theta(lam) depend on how many points are evaluated."""
        zeta, _, mass = self._atom_data
        if mass.size:  # expo + term reuses the buffer of the temporary term
            expo = np.zeros_like(z)
            for c, m in zip(zeta.tolist(), mass.tolist()):
                with np.errstate(divide="ignore", invalid="ignore"):
                    expo = expo + m * (z + c) / (z - c)
            out = np.exp(expo)
            out[~np.isfinite(out)] = 0.0  # radial limit at the atoms themselves
        else:
            out = np.ones_like(z)
        a, _, _, mult = self._zero_data
        for c, m in zip(a.tolist(), mult.tolist()):
            factor = c - z  # divided in place: one grid-sized temporary fewer
            factor /= 1.0 - c.conjugate() * z
            out = out * (factor if m == 1 else factor ** m)  # ** 1 is slow
        return out if self.unimodular == 1 else self.unimodular * out

    def samples_at(self, grid, radius: float = 1.0):
        """Samples on the circle of the given radius over a BoundaryGrid's
        angles, cached per (grid, radius); at grid points on a singular atom
        of the unit circle the radial limit 0 (elsewhere there |Theta| = 1)."""
        if not hasattr(self, "_sample_cache"):  # not via __dict__, as in _zero_data
            self._sample_cache = {}
        cache = self._sample_cache
        key = (grid.n, float(radius))
        if key not in cache:
            z = grid.points if radius == 1.0 else radius * grid.points
            cache[key] = self._eval_impl(z)
        return cache[key]

    @property
    def _zero_data(self):
        """The zeros in order as arrays (a, delta, angle, mult), a = ``BlaschkeZero.value``."""
        if not hasattr(self, "_zero_arrays"):  # not via __dict__, whose read slows attribute loads
            zs = self.zeros()
            self._zero_arrays = (np.array([z.value for z in zs], dtype=complex),
                                 np.array([z.delta for z in zs], dtype=float),
                                 np.array([z.angle for z in zs], dtype=float),
                                 np.array([z.mult for z in zs], dtype=int))
        return self._zero_arrays

    @property
    def _atom_data(self):
        """The atoms in order as arrays (zeta, angle, mass), zeta = e^{i angle}."""
        if not hasattr(self, "_atom_arrays"):
            ats = self.atoms()
            self._atom_arrays = (np.array([cmath.exp(1j * a.angle) for a in ats], dtype=complex),
                                 np.array([a.angle for a in ats], dtype=float),
                                 np.array([a.mass for a in ats], dtype=float))
        return self._atom_arrays

    # serialization --------------------------------------------------------

    def to_json(self) -> dict:
        raise NotImplementedError


class Monomial(InnerFunction):
    """Theta(z) = z^N, N >= 1."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("monomial degree must be >= 1 (nonconstant)")
        self.n = int(n)

    def zeros(self):
        return [BlaschkeZero(1.0, 0.0, self.n)]

    @property
    def unimodular(self):  # z^N = (-1)^N b_0^N
        return (-1) ** self.n

    def _eval_impl(self, z):
        return z ** self.n

    def to_json(self):
        return {"type": "monomial", "degree": self.n}


class BlaschkeProduct(InnerFunction):
    """Finite Blaschke product with factors b_a(z) = (a - z)/(1 - conj(a) z)."""

    def __init__(self, zeros, truncated: bool = False):
        zs = []
        for item in zeros:
            if isinstance(item, BlaschkeZero):
                zs.append(item)
            elif isinstance(item, tuple) and len(item) == 2:
                zs.append(BlaschkeZero.from_complex(item[0], item[1]))
            else:
                zs.append(BlaschkeZero.from_complex(item))
        if not zs:
            raise ValueError("a Blaschke product needs at least one zero")
        self._zeros = zs
        self.truncated = bool(truncated)

    def zeros(self):
        return list(self._zeros)

    def to_json(self):
        out = {"type": "blaschke",
               "zeros": [{"delta": z.delta, "angle": z.angle, "mult": z.mult}
                         for z in self._zeros]}
        if self.truncated:
            out["truncated"] = True
        return out


class SingularAtomic(InnerFunction):
    """exp(sum_k c_k (z + zeta_k)/(z - zeta_k)) with atoms (zeta_k, c_k)."""

    def __init__(self, atoms, truncated: bool = False):
        ats = [a if isinstance(a, Atom) else Atom(*a) for a in atoms]
        if not ats:
            raise ValueError("a singular inner function needs at least one atom")
        self._atoms = ats
        self.truncated = bool(truncated)

    def atoms(self):
        return list(self._atoms)

    def to_json(self):
        out = {"type": "singular",
               "atoms": [{"angle": a.angle, "mass": a.mass} for a in self._atoms]}
        if self.truncated:
            out["truncated"] = True
        return out


class ProductInner(InnerFunction):
    """Product of inner functions."""

    def __init__(self, factors):
        factors = list(factors)
        if not factors:
            raise ValueError("empty product")
        self.factors = factors

    @property
    def truncated(self):
        return any(f.truncated for f in self.factors)

    def zeros(self):
        return [z for f in self.factors for z in f.zeros()]

    def atoms(self):
        return [a for f in self.factors for a in f.atoms()]

    @property
    def unimodular(self):
        return math.prod(f.unimodular for f in self.factors)

    def to_json(self):
        return {"type": "product", "factors": [f.to_json() for f in self.factors]}


class PowerInner(SingularAtomic):
    """Fractional power Theta^s of an atomic singular inner function."""

    def __init__(self, base: SingularAtomic, s: float):
        if not isinstance(base, SingularAtomic):
            raise UnsupportedVariant("fractional powers exist only for singular factors")
        if not 0 < s <= 1:
            raise ValueError("exponent must lie in (0, 1]")
        super().__init__([Atom(a.angle, s * a.mass) for a in base.atoms()],
                         truncated=base.truncated)
        self.base = base
        self.s = float(s)
        # samples live on the base, which refers to no power back: no cycle keeps them
        if not hasattr(base, "_power_samples"):
            base._power_samples = {}
        self._sample_cache = base._power_samples.setdefault(self.s, {})

    def to_json(self):
        return {"type": "power", "base": self.base.to_json(), "s": self.s}


def power(theta: InnerFunction, s: float) -> InnerFunction:
    """Theta^s for atomic singular Theta; scales every atom mass by s.  At most
    one PowerInner per (base, s) lives, known to the base weakly."""
    if not isinstance(theta, SingularAtomic):
        raise UnsupportedVariant("fractional powers of Blaschke factors are not inner")
    if s == 1:
        return theta
    if isinstance(theta, PowerInner):
        theta, s = theta.base, s * theta.s
    if not hasattr(theta, "_powers"):
        theta._powers = weakref.WeakValueDictionary()
    powers = theta._powers
    out = powers.get(s)
    if out is None:
        out = powers[s] = PowerInner(theta, s)
    return out


# -- JSON -----------------------------------------------------------------

def from_json(obj: dict) -> InnerFunction:
    """The inner function of a JSON spec; ValueError on a malformed one."""
    if not isinstance(obj, dict):
        raise ValueError(f"an inner-function spec is a JSON object, got {obj!r}")
    kind = obj.get("type")
    if kind == "monomial":
        return Monomial(_number(obj, "degree", int))
    if kind == "blaschke":
        zeros = []
        for z in _objects(obj["zeros"], "zeros"):
            mult = _number(z, "mult", int) if "mult" in z else 1
            if "delta" in z:
                zeros.append(BlaschkeZero(_number(z, "delta"), _number(z, "angle"), mult))
            else:
                zeros.append(BlaschkeZero.from_complex(
                    complex(_number(z, "re"), _number(z, "im")), mult))
        return BlaschkeProduct(zeros, truncated=_truncated(obj))
    if kind == "singular":
        return SingularAtomic(atoms_from_json(obj["atoms"]), truncated=_truncated(obj))
    if kind == "product":
        return ProductInner([from_json(f) for f in _objects(obj["factors"], "factors")])
    if kind == "power":
        base = from_json(obj["base"])
        return PowerInner(base, _number(obj, "s"))
    raise ValueError(f"unknown inner-function type: {kind!r}")


def atoms_from_json(items) -> list[tuple[float, float]]:
    """(angle, mass) of each {"angle", "mass"} object of a JSON list; ValueError else."""
    return [(_number(a, "angle"), _number(a, "mass")) for a in _objects(items, "atoms")]


def _objects(items, what: str) -> list:
    if not (isinstance(items, list) and all(isinstance(x, dict) for x in items)):
        raise ValueError(f"{what} must be a list of JSON objects, got {items!r}")
    return items


def _truncated(obj: dict) -> bool:
    """The spec's "truncated" flag: JSON true or false, false when absent; ValueError else."""
    if isinstance(flag := obj.get("truncated", False), bool):
        return flag
    raise ValueError(f"truncated must be true or false, got {flag!r}")


def _is_number(x) -> bool:
    """Whether x is a JSON number: an int or a float, not a bool."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _number(obj: dict, key: str, cast=float):
    """obj[key] (a JSON number or its text) as a finite float, or a whole int; ValueError else."""
    value = obj[key]
    try:  # OverflowError: int() of an infinity or an int beyond the floats; ValueError: bad text
        if ((_is_number(value) or isinstance(value, str))
                and math.isfinite(out := cast(value)) and out == float(value)):
            return out
    except (OverflowError, ValueError):
        pass
    whole = " with no fraction" if cast is int else ""
    raise ValueError(f"{key} must be a finite number{whole}, got {value!r}")


# -- Ahern-Clark / Cohn sums ----------------------------------------------

def one_minus_mod_sq(theta: InnerFunction, lam):
    """1 - |Theta(lam)|^2 without cancellation: a float at a point, an array
    of lam's shape at an array of points; 0 on and outside the circle.

    Each zero a contributes u = 1 - |b_a(lam)|^2 =
    (1-|lam|^2)(1-|a|^2)/|1 - conj(a) lam|^2 (raised to its multiplicity
    through log1p/expm1), and q = 1 - prod(1 - u) accumulates as
    q += u (1 - q), a sum of nonnegative terms.  The u of every zero at
    every point is one (zeros, points) array, with the complex steps on
    real and imaginary parts as Python's complex arithmetic takes them and
    |.| by hypot.  Singular factors add their exponent
    L = -sum 2 mass (1-|lam|^2)/|lam - zeta|^2 = sum 2 mass Re((lam+zeta)/(lam-zeta)),
    joined as 1 - (1 - q) e^L = q - (1 - q) expm1(L).  At a single point of
    z^N this is the closed form 1 - |lam|^{2N}, with the same operations as
    the general formula.
    """
    if isinstance(lam, (complex, float, int)) and isinstance(theta, Monomial):
        mod = abs(complex(lam))
        if mod >= 1.0:
            return 0.0
        u = (1.0 - mod) * (1.0 + mod)
        if theta.n > 1 and u < 1.0:  # u = 1 at lam = 0, where log1p(-u) raises
            u = -math.expm1(theta.n * math.log1p(-u))
        return u  # <= 1 already: 1 - mod^2, or -expm1 of a number <= 0
    pts = np.asarray(lam, dtype=complex)
    mod = np.hypot(pts.real, pts.imag)
    inside = ~(mod >= 1.0)  # NaN goes through as NaN
    lr, li, mod = pts.real[inside], pts.imag[inside], mod[inside]
    one_minus_lam2 = (1.0 - mod) * (1.0 + mod)
    a, delta, _, mult = theta._zero_data
    br, bi = a.real[:, None], -a.imag[:, None]  # conj(a), one row per zero
    d = np.hypot(1.0 - (br * lr - bi * li), -(br * li + bi * lr))  # |1 - conj(a) lam|
    u = one_minus_lam2 * (delta * (2.0 - delta))[:, None] / (d * d)
    many = mult > 1
    if many.any():
        with np.errstate(divide="ignore"):  # u = 1 on the zero: log1p(-1) = -inf
            u[many] = -np.expm1(mult[many, None] * np.log1p(-np.minimum(u[many], 1.0)))
    q = np.zeros_like(mod)
    for u_zero in u:
        q += u_zero * (1.0 - q)
    zeta, _, mass = theta._atom_data
    if mass.size:
        dist = np.hypot(lr - zeta.real[:, None], li - zeta.imag[:, None])
        twice_mass = 2.0 * mass[:, None]
        q -= (1.0 - q) * np.expm1(-np.sum(twice_mass * one_minus_lam2 / (dist * dist), axis=0))
    out = np.zeros(pts.shape)
    out[inside] = np.minimum(q, 1.0)  # q >= 1: lam on a zero
    return float(out) if out.ndim == 0 else out


def kernel_scale(theta: InnerFunction, lam):
    """sqrt((1-|lam|^2)/(1-|Theta(lam)|^2)), which makes k_lam a unit vector: a
    float at an interior point, an array of lam's shape at an array of them.
    |lam| is taken by hypot and 1-|Theta(lam)|^2 by one ``one_minus_mod_sq``
    call for all points, except on z^N: there each point takes the scalar
    closed form, one call per point, as the benchmark's traced run counts."""
    pts = np.asarray(lam, dtype=complex)
    mod = np.hypot(pts.real, pts.imag)
    if isinstance(theta, Monomial):
        q = np.reshape([one_minus_mod_sq(theta, w) for w in pts.ravel().tolist()], pts.shape)
    else:
        q = one_minus_mod_sq(theta, pts)
    out = np.sqrt((1.0 - mod) * (1.0 + mod) / q)
    return float(out) if out.ndim == 0 else out


def _wrap(x):
    """x reduced to [-pi, pi)."""
    return np.remainder(x + math.pi, 2.0 * math.pi) - math.pi


def phase_increment(theta: InnerFunction, tau: float, anchors, offsets):
    """Delta(t) = arg Theta(e^{it}) - arg Theta(e^{i tau}) at t = anchors + offsets,
    for Theta without singular part, from the zeros' (delta, angle) alone.

    Zero a = (1 - delta) e^{i angle} has the boundary phase
    2 atan(c tan((t - angle)/2)), c = (2 - delta)/delta, and contributes
    Delta_k = 2 atan2(sin(w/2), cos(u/2) cos(v/2)/c + c sin(u/2) sin(v/2))
    with w = t - tau, u = t - angle and v = tau - angle: no difference of
    two phases cancels, and for w in (-2 pi, 2 pi) the sum is the
    continuous increment from tau (0 at w = 0, increasing, 2 pi per zero
    over a turn).  u is taken as (anchor - angle) + offset, so an offset
    from a zero's own angle keeps its full precision (Theta's samples would
    round a zero with delta below 1e-16 onto the circle).  Returns
    (Delta, w) at the nodes.
    """
    _, delta, angle, mult = theta._zero_data
    offsets = np.asarray(offsets, dtype=float)
    anchors, where = np.unique(np.broadcast_to(anchors, offsets.shape), return_inverse=True)
    c = (2.0 - delta) / delta
    v = _wrap(tau - angle)
    a, b = np.cos(0.5 * v) / c, c * np.sin(0.5 * v)
    w_anchor = _wrap(anchors - tau)
    u_anchor = _wrap(anchors[:, None] - angle[None, :])  # (anchor, zero)
    # u is v + w up to whole turns; an odd count flips the signs of cos(u/2), sin(u/2)
    sign = 1.0 - 2.0 * np.remainder(np.rint((v + w_anchor[:, None] - u_anchor)
                                            / (2.0 * math.pi)), 2.0)
    cu, su = sign * np.cos(0.5 * u_anchor), sign * np.sin(0.5 * u_anchor)
    cos_part, sin_part = (cu * a + su * b).T, (cu * b - su * a).T  # (zero, anchor)
    cs, ss = np.cos(0.5 * offsets), np.sin(0.5 * offsets)
    w = w_anchor[where] + offsets
    y = np.sin(0.5 * w)
    out = np.zeros(offsets.shape)
    for k in range(len(angle)):  # den = cos(u/2) a + sin(u/2) b, by angle addition
        den = cs * cos_part[k][where]
        den += ss * sin_part[k][where]
        out += mult[k] * np.arctan2(y, den)
    return 2.0 * out, w


def _boundary_dist2(delta, angle, t):
    """|e^{it} - a|^2 = delta^2 + 4 (1 - delta) sin^2((t - angle)/2) for a =
    (1 - delta) e^{i angle}, without cancellation; delta = 0 for an atom."""
    s = np.sin(0.5 * (t - angle))
    return delta * delta + 4.0 * (1.0 - delta) * s * s


def cohn_terms(theta: InnerFunction, zeta, p: float):
    """Termwise Ahern-Clark data at zeta = e^{it}: Blaschke terms then atom terms.

    zeta is a point ``_point`` puts on the circle (t: a number's phase as given, a
    BoundaryPoint's angle).  Blaschke term k: (1-|a_k|^2)/|zeta-a_k|^p from (delta,
    angle); atom term k: c_k/|zeta-zeta_k|^p.  ValueError unless p is finite and
    zeta is on the circle; AtomAtPoint when zeta sits on an atom."""
    if not math.isfinite(p):
        raise ValueError(f"the Ahern-Clark sums need a finite p, got {p}")
    if not _point(zeta)[1]:
        raise ValueError(f"the Ahern-Clark sums need a point of the circle, got {zeta}")
    t = zeta.angle if isinstance(zeta, BoundaryPoint) else cmath.phase(zeta)
    _, delta, angle, mult = theta._zero_data
    bl = delta * (2.0 - delta) / _boundary_dist2(delta, angle, t) ** (p / 2.0)
    _, angle, mass = theta._atom_data
    d2 = _boundary_dist2(0.0, angle, t)
    hit = d2 < _MATCH_TOL ** 2
    if hit.any():
        raise AtomAtPoint(f"point at angle {t} coincides with atom at {angle[hit][0]}")
    return np.repeat(bl, mult), mass / d2 ** (p / 2.0)


def cohn_sum(theta: InnerFunction, zeta, p: float, terms: int) -> float:
    """Partial Ahern-Clark sum at zeta (as in ``cohn_terms``): first ``terms`` zeros and atoms."""
    return cohn_sums(theta, zeta, p, [terms])[0]


def cohn_sums(theta: InnerFunction, zeta, p: float, counts) -> list[float]:
    """``cohn_sum`` for each term count in ``counts``, from one pass over the terms."""
    if min(counts) < 1:
        raise ValueError("term count must be >= 1")
    bl, at = cohn_terms(theta, zeta, p)
    return [float(bl[:k].sum() + at[:k].sum()) for k in counts]


class AngularDerivative:
    """Verdict of the angular-derivative test."""

    __slots__ = ("verdict", "value")

    def __init__(self, verdict: str, value: float | None = None):
        self.verdict = verdict
        self.value = value

    def __bool__(self):
        return self.verdict == "yes"

    def __repr__(self):
        if self.verdict == "yes":
            return f"AngularDerivative(yes, |Theta'|={self.value:.6g})"
        return f"AngularDerivative({self.verdict})"


ANGULAR_BUDGET = 4096  # most terms a truncated spec's verdict reads, largest first
ANGULAR_CAUCHY_TOL = 1e-10  # tail sum at or below which that verdict is "yes"


def has_angular_derivative(theta: InnerFunction, zeta) -> AngularDerivative:
    """Carathéodory angular-derivative test at a boundary point zeta, as ``cohn_terms`` reads it.

    For exact finite data the answer is yes, with |Theta'(zeta)| equal to
    the Blaschke p=2 sum plus twice the atomic p=2 sum.  For specs flagged
    ``truncated`` (stand-ins for infinite families) the verdict comes from
    sequence diagnostics on the ANGULAR_BUDGET largest terms: a Cauchy
    criterion on partial sums (ANGULAR_CAUCHY_TOL) says yes, a positive
    termwise floor on the tail says no, anything else is inconclusive.
    """
    try:
        bl, at = cohn_terms(theta, zeta, 2.0)
    except AtomAtPoint:
        return AngularDerivative("no")
    if not theta.truncated:
        return AngularDerivative("yes", float(bl.sum() + 2.0 * at.sum()))

    seq = np.concatenate([bl, at]) if at.size else bl
    seq = np.sort(seq)[::-1][:ANGULAR_BUDGET]  # positive terms; order-free sum
    k = len(seq)  # at least 1: a truncated spec has a zero or an atom
    tail = seq[max(1, (3 * k) // 4):]
    if tail.sum() <= ANGULAR_CAUCHY_TOL:
        return AngularDerivative("yes", float(bl[:k].sum() + 2.0 * at[:k].sum()))
    if k >= 8 and tail.min() >= 1e-8:
        return AngularDerivative("no")
    return AngularDerivative("inconclusive")


def _kernel_point(theta: InnerFunction, pt):
    """(``_point``'s value, ||k_pt||_2^2) for a kernel at pt: None inside the disk, on the
    circle |Theta'| certified by ``has_angular_derivative`` at pt itself or NoAngularDerivative."""
    z, boundary = _point(pt)
    if not boundary:
        return z, None
    cert = has_angular_derivative(theta, pt)
    if not cert:
        raise NoAngularDerivative(f"no angular-derivative certificate at {z} ({cert.verdict})")
    return z, cert.value


# -- divisibility -----------------------------------------------------------

def _zero_multiset(theta: InnerFunction):
    out = []
    for z in theta.zeros():
        out.extend([z] * z.mult)
    return out


def _atom_masses(theta: InnerFunction):
    masses: dict[float, float] = {}
    for a in theta.atoms():
        for angle in masses:
            if abs(math.remainder(angle - a.angle, 2.0 * math.pi)) < _MATCH_TOL:
                masses[angle] += a.mass
                break
        else:
            masses[a.angle] = a.mass
    return masses


def divides(theta: InnerFunction, big: InnerFunction) -> bool:
    """True iff theta divides big (zero multiset and atom masses dominated)."""
    if isinstance(theta, PowerInner) and isinstance(big, PowerInner):
        a1 = {round(a.angle, 9) for a in theta.base.atoms()}
        a2 = {round(a.angle, 9) for a in big.base.atoms()}
        if a1 != a2:
            raise UnsupportedVariant("powers with non-matching bases")
    need = _zero_multiset(theta)
    have = _zero_multiset(big)
    used = [False] * len(have)
    for z in need:
        for i, w in enumerate(have):
            if used[i]:
                continue
            if (abs(z.delta - w.delta) < _MATCH_TOL
                    and abs(math.remainder(z.angle - w.angle, 2.0 * math.pi)) < _MATCH_TOL):
                used[i] = True
                break
        else:
            return False
    masses = _atom_masses(big)
    for angle, mass in _atom_masses(theta).items():
        for bangle, bmass in masses.items():
            if abs(math.remainder(angle - bangle, 2.0 * math.pi)) < _MATCH_TOL:
                if mass <= bmass + 1e-14:
                    break
                return False
        else:
            return False
    return True
