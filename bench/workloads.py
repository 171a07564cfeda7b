"""The benchmark's four workloads.

Each workload is a class whose constructor is the one-time set-up (it runs
before the first timed operation and counts towards ``setup_s``) and whose
``cycle(rng)`` returns the next list of operations.  A run executes whole
cycles, so every run sees the same mix of operation kinds.  An operation is
an ``Op``: a callable that drives ttolab through ``Outcome.call`` (the only
time that counts as the operation's latency) and then checks the results
against the independent references in ``refs``.

Inputs come from the workload seed; ttolab only ever sees generated inputs.
``Op.known`` names the documented library defect an operation is expected
to hit, as a ``Known``: the checks it breaks, each up to the worst deviation
the defect explains, and the errors it raises.  Such failures still count as
failures; they only keep ``correct`` true, which reports whether anything
failed *unexpectedly*.  Any other failure of the same operation (another
check, a larger deviation, another exception) is unexpected.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import time

import numpy as np

import refs


class Outcome:
    """Latency, errors and check results of one operation."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.lib_s = 0.0
        self.errors: list[tuple[str, str, str]] = []  # (stage, exception name, message)
        self.checks: dict[str, tuple[bool, float | None]] = {}
        self.max_rel_err = 0.0

    def call(self, stage, fn, *args, **kwargs):
        """Run one ttolab call, timed (and traced when tracing); None if it raised."""
        t0 = time.perf_counter()
        if self.tracer is not None:
            self.tracer.active = True
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # any library error is an operation failure
            self.errors.append((stage, type(exc).__name__, str(exc)))
            return None
        finally:
            if self.tracer is not None:
                self.tracer.active = False
            self.lib_s += time.perf_counter() - t0

    def compare(self, name, value, ref, tol, absolute=False):
        """Deviation of a result from an independent reference; counts in max_rel_err."""
        err = refs.rel_err(value, ref)
        self.max_rel_err = max(self.max_rel_err, err)
        dev = float(np.max(np.abs(np.asarray(value) - np.asarray(ref)))) if absolute else err
        self._record(name, dev <= tol, err)

    def require(self, name, ok, dev=None):
        """A property or identity check (pass/fail, not a reference deviation)."""
        self._record(name, bool(ok), dev)

    def _record(self, name, ok, dev):
        prev_ok, prev_dev = self.checks.get(name, (True, None))
        devs = [d for d in (dev, prev_dev) if d is not None]
        self.checks[name] = (prev_ok and ok, max(devs) if devs else None)

    @property
    def passed(self):
        return not self.errors and all(ok for ok, _ in self.checks.values())

    def failure_reasons(self):
        return ([f"{stage}: {exc}: {msg}" for stage, exc, msg in self.errors]
                + [name for name, (ok, _) in self.checks.items() if not ok])


class Known:
    """A documented library defect, and exactly which failures it explains.

    ``checks`` maps each check the defect breaks to the worst deviation it
    explains (None: whatever the deviation); ``errors`` holds
    the "stage: ExceptionName" pairs it raises.
    """

    def __init__(self, reason, checks, errors=()):
        self.reason = reason
        self.checks = dict(checks)
        self.errors = frozenset(errors)

    def unexplained(self, out):
        """The failures of ``out`` that this defect does not explain."""
        bad = [f"{stage}: {exc}: {msg}" for stage, exc, msg in out.errors
               if f"{stage}: {exc}" not in self.errors]
        for name, (ok, dev) in out.checks.items():
            if ok:
                continue
            if name not in self.checks:
                bad.append(name)
            elif self.checks[name] is not None and (dev is None or dev > self.checks[name]):
                bad.append(f"{name} (deviation {dev} beyond the known {self.checks[name]})")
        return bad


class Op:
    def __init__(self, kind, fn, known=None):
        self.kind = kind
        self.fn = fn
        self.known = known

    def __call__(self, tracer=None):
        out = Outcome(tracer)
        self.fn(out)
        return out

    def unexpected(self, out):
        """Failures of ``out`` that no documented defect of this op explains."""
        if out.passed:
            return []
        return out.failure_reasons() if self.known is None else self.known.unexplained(out)


# ---------------------------------------------------------------------------
# toeplitz_assembly

class ToeplitzAssembly:
    """Random Toeplitz matrices on K_{z^N}, N in {16, 64, 256}.

    Why: boundedsym (Fejer split, CF extension) and operators (rho over a
    rotation-closed sample set, the operator norm) do the work; one
    ModelSpace and one SampleSet per N are built in set-up and reused, as
    acceptance criterion 5 does, so modelspace stays in setup_s.
    """

    SIZES = (16, 64, 256)
    CONTRACTION_SIZES = (16, 64)  # these ops also run the Fejer rho-contraction check
    CHECK_GRID = 8192

    def __init__(self, tt):
        self.tt = tt
        self.frames = {}
        for N in self.SIZES:
            space = tt.ModelSpace(tt.Monomial(N))
            ws = tt.FejerWindowSet(N)
            J = min(ws.closure_angles(), 512)
            self.frames[N] = (space, tt.SampleSet.rotation_closed(J), ws.l1_norms(J))
        self.grid = tt.BoundaryGrid(self.CHECK_GRID)

    def cycle(self, rng):
        return [Op(f"assemble_N{N}", self._op(N, refs.random_toeplitz(rng, N)))
                for N in self.SIZES]

    def _op(self, N, M):
        tt = self.tt
        space, samples, l1 = self.frames[N]

        def run(o):
            op = tt.TTOperator(space, matrix=M)
            res = o.call("assemble", tt.assemble_bounded_symbol, op, samples=samples)
            nrm = o.call("operator_norm", tt.operator_norm, op)
            parts = None
            if N in self.CONTRACTION_SIZES:
                parts = o.call("fejer_split", tt.fejer_split,
                               tt.boundedsym.symbol_from_matrix(M), N)
                rhos = []
                for part in parts or ():
                    cp = tt.FourierPolynomial({k: complex(v) for k, v in part.coeffs.items()})
                    p_op = o.call("build_part", tt.build, space,
                                  tt.operators.BoundarySymbol(cp.to_circle(space.grid)))
                    rhos.append(o.call("rho_part", tt.rho, p_op, samples)
                                if p_op is not None else None)
            ref_norm = refs.spectral_norm(M)
            if nrm is not None:
                o.compare("operator_norm_vs_svd", nrm, ref_norm, 1e-10)
            if res is None:
                return
            o.require("build_residual", res.build_residual <= 1e-8, res.build_residual)
            o.require("rho_le_norm", res.rho_hat <= ref_norm * (1 + 1e-12))
            o.require("sup_dominates_norm", res.sup_norm >= ref_norm * (1 - 1e-9))
            # the assembled symbol's Fourier data on |k| < N must reproduce M
            plus = refs.taylor_quotient(res.cf2.num, res.cf2.den, N)
            minus = refs.taylor_quotient(res.cf3.num, res.cf3.den, N)
            hat = np.array([complex(res.phi1.coeff(k)) for k in range(-(N - 1), N)])
            hat[N - 1:] += plus
            hat[:N] += np.conj(minus[::-1])
            o.compare("symbol_vs_matrix", hat, refs.toeplitz_diagonals(M), 1e-8)
            for name, cf, taylor in (("cf_plus", res.cf2, plus), ("cf_minus", res.cf3, minus)):
                o.compare(f"{name}_taylor", taylor, cf.data,
                          1e-8 * max(1.0, float(np.max(np.abs(cf.data)))), absolute=True)
                if not cf.suboptimal:
                    dev = float(np.max(np.abs(np.abs(cf.boundary(self.grid).samples) - cf.norm)))
                    o.require(f"{name}_modulus", dev <= 1e-6 * max(1.0, cf.norm), dev)
            if parts is not None:
                for i, (r, w) in enumerate(zip(rhos, l1)):
                    o.require(f"rho_contraction_{i + 1}",
                              r is not None and r <= w * res.rho_hat + 1e-9)

        return run


# ---------------------------------------------------------------------------
# blaschke_recovery

class BlaschkeRecovery:
    """A fresh exact Blaschke space per operation, degree 4..48.

    Why: exercises modelspace construction and recovery on spaces that are
    never reused (so a per-space cache must show no gain here), and ops
    with a zero at 1-|a| in {1e-2, 1e-3, 1e-4} (4 of 15) drive peak
    memory.  Each cycle has one op per degree in DEGREES (zeros,
    coefficients and order random).  Degrees 10..15 are dense around the
    median and the fourth-costliest op (degree 16 with a zero at 1e-3, on
    a 2^16-point grid) sits apart from its neighbours, so the median and
    the p75 tail each come from one kind of op rather than a boundary
    between two.  Near-circle zeros sit at dyadic angles 2 pi j/1024,
    where uniform-grid quadrature errs most, so that defect shows in full
    on every run rather than averaging away.
    """

    DEGREES = (4, 5, 6, 8, 10, 11, 12, 13, 14, 15, 16, 24, 28, 40, 48)
    NEAR = {5: 1e-2, 8: 1e-2, 16: 1e-3, 24: 1e-4}
    # the Gram defect also breaks omega^2 = I and lets rho exceed ||A||
    KNOWN = {1e-4: Known("exact mode near the circle: quadrature grid capped at 2^16 "
                         "(Gram residual ~3e-3, recovery rejects the oracle)",
                         {"gram_identity": 1e-2, "omega_squared": 1e-2, "rho_le_norm": 1e-2},
                         ("recover: InconsistentOracle", "recover_via_k0: InconsistentOracle"))}

    def __init__(self, tt):
        self.tt = tt

    def cycle(self, rng):
        ops = []
        for degree in rng.permutation(self.DEGREES):
            degree = int(degree)
            delta = rng.uniform(0.3, 0.9, degree)
            angle = rng.uniform(0.0, 2.0 * math.pi, degree)
            near = self.NEAR.get(degree)
            if near is not None:
                delta[0] = near
                angle[0] = 2.0 * math.pi * rng.integers(1024) / 1024
            coeffs = [rng.standard_normal(degree) + 1j * rng.standard_normal(degree)
                      for _ in range(3)]
            kind = f"recover_deg{degree}" + (f"_near{near:.0e}" if near else "")
            ops.append(Op(kind, self._op(list(zip(delta, angle)), coeffs),
                          self.KNOWN.get(near)))
        return ops

    def _op(self, zeros, coeffs):
        tt = self.tt
        c_plus, c_minus, c_test = coeffs

        def run(o):
            theta = tt.BlaschkeProduct([tt.BlaschkeZero(d, a) for d, a in zeros])
            space = o.call("ModelSpace", tt.ModelSpace, theta)
            if space is None:
                return
            pp, pm = space.from_coeffs(c_plus), space.from_coeffs(c_minus)
            op = o.call("build", tt.build, space, tt.PairSymbol(pp, pm))
            if op is None:
                return
            oracle = o.call("oracle", tt.KernelActionOracle.from_operator, op)
            rec = o.call("recover", tt.recover, oracle)
            rec0 = o.call("recover_via_k0", tt.recover_via_k0, oracle)
            samples = o.call("sample_set", tt.SampleSet.default, space)
            r = o.call("rho", tt.rho, op, samples) if samples is not None else None

            B = space.basis_samples
            gram = B.conj().T @ B / space.grid.n
            o.compare("gram_identity", gram, np.eye(space.dim), 1e-9, absolute=True)
            f = space.from_coeffs(c_test)
            w2 = space.omega(space.omega(f))
            o.require("omega_squared", (w2 - f).norm() <= 1e-9 * f.norm(),
                      (w2 - f).norm() / f.norm())
            ref_norm = refs.spectral_norm(op.matrix)
            if r is not None:
                o.require("rho_le_norm", r <= ref_norm * (1 + 1e-12), r / ref_norm - 1.0)
            if rec is None:
                return
            # align the truth to the recovered gauge, as acceptance criterion 4
            k0 = space.kernel(0.0)
            cbar = pm.eval(rec.mu) / k0.eval(rec.mu)
            o.compare("roundtrip_plus", rec.phi_plus.coeffs,
                      (pp + np.conj(cbar) * k0).coeffs, 1e-7, absolute=True)
            o.compare("roundtrip_minus", rec.phi_minus.coeffs,
                      (pm - cbar * k0).coeffs, 1e-7, absolute=True)
            if rec0 is not None:
                cbar0 = rec0.phi_minus.eval(rec.mu) / k0.eval(rec.mu)
                o.compare("cross_method_plus", (rec0.phi_plus + np.conj(cbar0) * k0).coeffs,
                          rec.phi_plus.coeffs, 1e-7, absolute=True)
                o.compare("cross_method_minus", (rec0.phi_minus - cbar0 * k0).coeffs,
                          rec.phi_minus.coeffs, 1e-7, absolute=True)

        return run


# ---------------------------------------------------------------------------
# kernel_scans

GROWTH_RADII = (1 - 2.0 ** -5.3, 1 - 2.0 ** -7.3, 1 - 2.0 ** -11.3)  # criterion 9
RKT_LAMBDAS = (0.0, 0.3, 0.2 + 0.4j, -0.5, 0.6j)  # criterion 8
ATOM = ((0.0, 1.0),)  # exp((z+1)/(z-1)): one atom of mass 1 at angle 0


class KernelScans:
    """The shipped counterexample family and the singular-atom studies.

    Why: counterex (kernel_lp, scans), circle (FFT, Riesz projections) and
    inner (Blaschke evaluation on grids up to 2^21 points) carry the load,
    with little boundedsym or recovery.  The inputs are the fixed criterion
    8/9 configurations; the seed only orders the operations of each cycle.
    Each item of the scan list is one operation: a growth-scan row, a
    kernel_lp column, one CLS scan, one RKT scan, one truncated-mode step.
    The growth diagonal alone takes about 7.6 s, eight times as long as
    everything else together, so a cycle runs it once and every other item
    REPEATS times; each latency percentile is then the median of several
    like-cost samples rather than one sample.  The median is the RKT scan
    at 2^13 points and the p75 tail the RKT scan at 2^15 points or the
    singular-atom CLS scan, which cost about the same.  The growth rows
    take most of the wall time, so they set throughput_ops_s.

    Quadrature results are checked against their closed forms with the
    tolerance the call itself declared.  Known defects, each waived only
    for the check it breaks and up to about 1.5x the deviation seen
    (the inputs are fixed, so the deviations are too):
    growth-scan and kernel_lp columns converge falsely (up to 7% off at tol
    5e-3), the RKT norms miss the closed form beyond criterion 8's 1e-4 (an
    xfail there), the singular-atom CLS norms miss theirs by up to 0.6%,
    and truncated mode's standard symbol changes the operator, because
    uniform grids cannot resolve the atom's boundary point.
    """

    FALSE_CONVERGENCE = ("uniform-grid quadrature converges falsely "
                         "(Cauchy test passes, closed form missed)")
    KERNEL_LP_FALSE = Known(FALSE_CONVERGENCE, {"norm_sq_vs_ahern_clark": 0.1})
    GROWTH_FALSE = Known(FALSE_CONVERGENCE, {"norm_sq_vs_closed_form": 0.1})
    GRID_SINGULARITY = "uniform grid cannot resolve the singular atom (acceptance criterion 8 xfails)"
    RKT_GRID = Known(GRID_SINGULARITY, {"norm_sq_vs_closed_form": 0.1})
    CLS_ATOM_GRID = Known(GRID_SINGULARITY, {"norm_sq_vs_closed_form": 0.01})
    STANDARD_GRID = Known(GRID_SINGULARITY, {"same_operator": 0.12})
    CLS_Z8_POINTS = [r * np.exp(2j * np.pi * j / 16)
                     for r in np.linspace(0.0, 0.99, 8) for j in range(16)]
    CLS_ATOM_POINTS = [0.5 * np.exp(2j * np.pi * (j + 0.5) / 24) for j in range(24)]
    SYMBOL = {k: complex(np.exp(1j * k)) / (1 + abs(k)) for k in range(-4, 5)}  # truncated mode
    REPEATS = 4

    def __init__(self, tt):
        self.tt = tt
        self.family = tt.gen_blaschke_counterexample(3.0, 32)
        self.atom = tt.SingularAtomic([tt.Atom(a, m) for a, m in ATOM])
        self.trunc = tt.ModelSpace(self.atom)
        self.zeros = [(z.delta, z.angle, z.mult) for z in self.family.theta.zeros()]

    def cycle(self, rng):
        ops = [Op(f"growth_row_deg{d}", self._growth_row(d, r), self.GROWTH_FALSE)
               for d, r in zip((8, 16, 32), GROWTH_RADII)]
        for _ in range(self.REPEATS):
            ops += [Op(f"kernel_lp_zeta1_deg{d}", self._kernel_lp_at_one(d),
                       self.KERNEL_LP_FALSE) for d in (8, 16, 24)]
            ops += [Op("cls_scan_z8", self._cls_z8),
                    Op("cls_scan_atom", self._cls_atom, self.CLS_ATOM_GRID),
                    Op("rkt_scan_2^13", self._rkt(2 ** 13), self.RKT_GRID),
                    Op("rkt_scan_2^15", self._rkt(2 ** 15), self.RKT_GRID),
                    Op("theorem_check", self._theorem_check)]
        order = list(rng.permutation(len(ops)))
        # each run of the truncated-mode operations shares one operator, built first
        return [ops[i] for i in order] + [op for _ in range(self.REPEATS)
                                          for op in self._truncated_ops()]

    def _kernel_lp_at_one(self, degree):
        tt = self.tt

        def run(o):
            theta = o.call("truncate", tt.counterex.blaschke_truncation, self.family, degree)
            got = o.call("kernel_lp", tt.counterex.kernel_lp, theta, 1.0, 2.0,
                         tol=5e-3, max_n=2 ** 17, strict=False)
            if got is not None:
                o.compare("norm_sq_vs_ahern_clark", got[0] ** 2,
                          refs.ahern_clark_sum(self.zeros[:degree], 0.0), 5e-3)

        return run

    def _growth_row(self, degree, radius):
        tt = self.tt

        def run(o):
            rep = o.call("growth_scan", tt.counterex.growth_scan, self.family,
                         (degree,), (radius,), 3.0)
            if rep is None:
                return
            row = rep.rows[0]
            ref = refs.blaschke_kernel_norm_sq(self.zeros[:degree], radius)
            o.compare("norm_sq_vs_closed_form", row["kernel_2_sq"], ref, 5e-3)

        return run

    def _cls_z8(self, o):
        tt = self.tt
        rep = o.call("cls_ratio_scan", tt.cls_ratio_scan, tt.Monomial(8), self.CLS_Z8_POINTS)
        if rep is None:
            return
        o.require("cls_le_2", rep.max_ratio <= 2.0 + 1e-9, rep.max_ratio)
        for lam, _, two, _ in rep.rows:
            o.compare("norm_sq_vs_closed_form", two, refs.monomial_kernel_norm_sq(8, lam), 1e-8)

    def _cls_atom(self, o):
        tt = self.tt
        theta = tt.SingularAtomic([tt.Atom(a, m) for a, m in ATOM])
        rep = o.call("cls_ratio_scan", tt.cls_ratio_scan, theta, self.CLS_ATOM_POINTS)
        if rep is None:
            return
        for lam, _, two, ratio in rep.rows:
            o.require("cls_finite", math.isfinite(ratio), ratio)
            o.compare("norm_sq_vs_closed_form", two, refs.atom_kernel_norm_sq(ATOM, lam), 1e-8)

    def _rkt(self, grid_n):
        tt = self.tt

        def run(o):
            rep = o.call("rkt_failure_scan", tt.rkt_failure_scan, self.atom, 0.5,
                         list(RKT_LAMBDAS), grid_n=grid_n)
            if rep is None:
                return
            o.require("rkt_sup_bound", rep["all_sup_ok"])
            for row in rep["rows"]:
                ref = refs.rkt_closed_form(ATOM, 0.5, row["lambda"])
                o.compare("closed_form", row["closed_form"], ref, 1e-12)
                o.compare("norm_sq_vs_closed_form", row["norm_sq_grid"], ref, 1e-4,
                          absolute=True)

        return run

    def _theorem_check(self, o):
        tt = self.tt
        chk = o.call("counterex_theorem_check", tt.counterex_theorem_check,
                     self.family, 3.0, degrees=(8, 16, 32))
        if chk is None:
            return
        o.require("p_verdict_diverging", chk["p_verdict"] == "diverging")
        o.require("two_verdict_stable", chk["two_verdict"] == "stable")
        o.require("square_comparison", chk["square_comparison_ok"])
        for d, s2, sp in zip((8, 16, 32), chk["cohn_2_sums"], chk["cohn_p_sums"]):
            o.compare("ahern_clark_2", s2, refs.ahern_clark_sum(self.zeros[:d], 0.0), 1e-12)
            o.compare("ahern_clark_p", sp, refs.ahern_clark_sum(self.zeros[:d], 0.0, 3.0), 1e-12)

    def _truncated_ops(self):
        tt = self.tt
        space = self.trunc
        phi = tt.CircleFunction.from_coeffs(space.grid, self.SYMBOL)
        sup = float(np.max(np.abs(phi.samples)))
        probe_points = (0.0, 0.3, 0.5j)
        state = {}

        def build(o):
            op = o.call("build", tt.build, space, tt.operators.BoundarySymbol(phi))
            if op is None:
                return
            state["op"] = op
            for lam in probe_points:
                # P_Theta(phi k) from numpy FFTs on the same grid
                k = space.kernel(lam)
                o.compare("apply_vs_numpy_projection", op.apply(k).samples(),
                          _numpy_projection(space.theta_samples, phi.samples * k.samples()),
                          1e-10)

        def built(o):
            if "op" not in state:
                o.errors.append(("operator", "Missing", "trunc_build failed"))
            return state.get("op")

        def opnorm(o):
            op = built(o)
            nrm = o.call("operator_norm", tt.operator_norm, op) if op else None
            if nrm is not None:
                state["norm"] = nrm
                o.require("norm_le_sup", nrm <= sup * (1 + 1e-9), nrm / sup)

        def rho(o):
            op = built(o)
            samples = tt.SampleSet.rotation_closed(16, radii=(0.0, 0.5, 0.75, 0.9))
            r = o.call("rho", tt.rho, op, samples) if op else None
            if r is not None and "norm" in state:
                o.require("rho_le_norm", r <= state["norm"] * (1 + 1e-6))

        def standard(o):
            std = o.call("standard_symbol", tt.standard_symbol, space, phi)
            if std is None:
                return
            a = tt.build(space, tt.operators.BoundarySymbol(phi))
            b = tt.build(space, tt.operators.BoundarySymbol(std))
            worst = 0.0
            for lam in probe_points:
                f = space.kernel(lam)
                fa = a.apply(f)
                worst = max(worst, (fa - b.apply(f)).norm() / fa.norm())
            # same operator, acceptance criterion 2's tolerance
            o.require("same_operator", worst <= 1e-9, worst)

        return [Op("trunc_build", build), Op("trunc_operator_norm", opnorm),
                Op("trunc_rho", rho),
                Op("trunc_standard_symbol", standard, self.STANDARD_GRID)]


def _numpy_projection(theta_samples, f):
    """P_Theta f = P_+ f - Theta P_+(conj(Theta) f) with numpy FFTs."""
    n = len(f)
    freqs = np.fft.fftfreq(n, d=1.0 / n)

    def plus(g):
        c = np.fft.fft(g)
        c[freqs < 0] = 0.0
        return np.fft.ifft(c)

    return plus(f) - theta_samples * plus(np.conj(theta_samples) * f)


# ---------------------------------------------------------------------------
# cli_commands

MONO3 = '{"type":"monomial","degree":3}'
BLASCHKE3 = '{"type":"blaschke","zeros":[{"re":0.3,"im":0.1},{"re":-0.2,"im":0.4},{"re":0.0,"im":-0.5}]}'
SINGULAR = '{"type":"singular","atoms":[{"angle":0,"mass":1}]}'
TOEPLITZ4 = [[[1, 0], [2, 1], [0, 1], [1, -1]],
             [[3, 0], [1, 0], [2, 1], [0, 1]],
             [[0, 2], [3, 0], [1, 0], [2, 1]],
             [[1, 1], [0, 2], [3, 0], [1, 0]]]


class CliCommands:
    """All 13 commands in-process through ttolab.cli.main on fixed small configs.

    21 operations per cycle, an odd count, so the median latency falls
    inside one kind of operation rather than between two.

    Why: the cli layer (config validation, codecs, deterministic output)
    is measured nowhere else.  Each command runs twice and both outputs
    must be byte-identical (criterion 10); malformed inputs must exit 2, 3
    or 4 without raising; one operation feeds counterex output back in as
    --inner.  The configs are fixed; the seed only shuffles their order.
    """

    EXIT_CODE = "CLI error contract: an exception escapes main instead of an exit code"
    ROUNDTRIP = Known("JSON round trip: BlaschkeProduct.to_json drops delta",
                      {"roundtrip_exit_code": None})

    def __init__(self, tt):
        import ttolab.cli  # noqa: F401  (the cli module is not imported by the package)
        self.tt = tt
        self.table = self._recover_table()

    def _recover_table(self):
        """Kernel-action rows of a known pair-symbol operator on K_{z^3}."""
        tt = self.tt
        space = tt.ModelSpace(tt.Monomial(3))
        self.pair = (np.array([1.0, 0.5j, -0.25]), np.array([0.0, 0.3, 0.2 - 0.1j]))
        op = tt.build(space, tt.PairSymbol(space.from_coeffs(self.pair[0]),
                                           space.from_coeffs(self.pair[1])))
        rows = []
        for j in range(12):
            lam = (0.2 + 0.15 * (j % 4)) * np.exp(2j * np.pi * j / 12)
            act = op.apply(space.kernel(lam)).coeffs
            rows.append({"lambda": [lam.real, lam.imag],
                         "coefficients": [[z.real, z.imag] for z in act]})
        self.space3 = space
        return json.dumps(rows)

    def cycle(self, rng):
        ops = [
            Op("kernels", self._cmd(["kernels", "--inner", MONO3, "--lambda", "0.3,0.1"],
                                    self._check_kernels)),
            Op("build", self._cmd(["build", "--inner", BLASCHKE3, "--symbol",
                                   '{"0":1,"1":[0.5,0.2],"-2":[0,0.3]}'],
                                  self._check_build)),
            Op("recover", self._cmd(["recover", "--inner", MONO3, "--table", self.table,
                                     "--mu", "0.2"], self._check_recover)),
            Op("rank-one", self._cmd(["rank-one", "--inner", MONO3, "--lambda", "0.2,0.1"],
                                     self._check_rank_one(complex(0.2, 0.1), 1e-8))),
            Op("rank-one_boundary", self._cmd(["rank-one", "--inner", MONO3, "--zeta", "0.7"],
                                              self._check_rank_one(cmath.exp(0.7j), 1e-7))),
            Op("fejer-split", self._cmd(["fejer-split", "--N", "8", "--symbol",
                                         '{"-5":1,"-1":[0,2],"0":3,"2":[1,1],"7":-1}'],
                                        self._check_fejer)),
            Op("cf-extend", self._cmd(["cf-extend", "--coeffs", "[1,1]"], self._check_cf)),
            Op("assemble", self._cmd(["assemble", "--matrix", json.dumps(TOEPLITZ4)],
                                     self._check_assemble)),
            Op("transport", self._cmd(["transport", "--matrix", json.dumps(TOEPLITZ4),
                                       "--alpha", "0.3,0.2"], self._check_transport)),
            Op("cohn-growth", self._cmd(["cohn-growth", "--inner", BLASCHKE3, "--zeta", "0.5",
                                         "--p", "3", "--terms", "3"], self._check_cohn)),
            Op("cls-scan", self._cmd(["cls-scan", "--inner", '{"type":"monomial","degree":4}',
                                      "--radii", "0,0.5,0.9", "--angles", "4",
                                      "--format", "csv"], self._check_cls)),
            Op("rkt-scan", self._cmd(["rkt-scan", "--inner", SINGULAR, "--s", "0.5",
                                      "--lambda", "0.3"], self._check_rkt)),
            Op("counterex", self._cmd(["counterex", "gen", "--kind", "blaschke", "--p", "3",
                                       "--count", "20"], self._check_counterex)),
            Op("carleson", self._cmd(["carleson", "--inner", MONO3, "--atoms",
                                      '[{"angle":0.5,"mass":2}]'], self._check_carleson)),
            Op("counterex_roundtrip", self._roundtrip, self.ROUNDTRIP),
            Op("malformed_unknown_inner", self._cmd(
                ["kernels", "--inner", '{"type":"nope"}', "--lambda", "0"], expect=(2,))),
            Op("malformed_empty_coeffs", self._cmd(["cf-extend", "--coeffs", "[]"], expect=(2,))),
            Op("malformed_outside_disk", self._cmd(
                ["rank-one", "--inner", MONO3, "--lambda", "1.5"], expect=(2,))),
            Op("malformed_no_angular_derivative", self._cmd(
                ["kernels", "--inner", SINGULAR, "--lambda", "1,0"], expect=(4,))),
            Op("malformed_support_overflow", self._cmd(
                ["fejer-split", "--N", "4", "--symbol", '{"9":1}'], expect=(2, 3, 4)),
               self._escapes("SupportOverflow")),
            Op("malformed_scalar_matrix", self._cmd(
                ["transport", "--matrix", "[[1,2],[3,1]]", "--alpha", "0.3"], expect=(2, 3, 4)),
               self._escapes("TypeError")),
        ]
        return [ops[i] for i in rng.permutation(len(ops))]

    def _escapes(self, exc):
        return Known(self.EXIT_CODE, {}, (f"run_1: {exc}", f"run_2: {exc}"))

    def _main(self, o, args, stage):
        """(exit code, stdout) of one in-process call; None if main raised."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = o.call(stage, self.tt.cli.main, list(args))
        return None if code is None else (code, out.getvalue())

    def _cmd(self, args, check=None, expect=(0,)):
        def run(o):
            first = self._main(o, args, "run_1")
            second = self._main(o, args, "run_2")
            if first is None or second is None:
                return
            o.require("exit_code", first[0] in expect and second[0] in expect, first[0])
            o.require("byte_identical", first[1] == second[1])
            if check is not None and first[0] == 0:
                payload = first[1] if "csv" in args else json.loads(first[1])
                check(o, payload)

        return run

    def _roundtrip(self, o):
        got = self._main(o, ["counterex", "gen", "--kind", "blaschke", "--count", "20"], "counterex")
        if got is None:
            return
        inner = json.dumps(json.loads(got[1])["theta"])
        back = self._main(o, ["kernels", "--inner", inner, "--lambda", "0.5"], "kernels")
        if back is not None:
            o.require("roundtrip_exit_code", back[0] == 0, back[0])

    # -- payload checks against independent references -------------------------

    @staticmethod
    def _vec(pairs):
        return np.array([complex(a, b) for a, b in pairs])

    def _check_kernels(self, o, p):
        lam = complex(0.3, 0.1)
        o.compare("kernel_coeffs", self._vec(p["coefficients"]),
                  np.conj(lam) ** np.arange(3), 1e-12)

    def _check_build(self, o, p):
        M = np.array([[complex(a, b) for a, b in row] for row in p["matrix"]])
        o.compare("operator_norm_vs_svd", p["operator_norm"], refs.spectral_norm(M), 1e-10)

    def _check_recover(self, o, p):
        # on K_{z^3}, k_0 = 1 and the gauge is fixed by phi_minus(mu) = 0
        plus, minus = self.pair
        shift = np.polyval(minus[::-1], complex(*p["mu"]))
        o.compare("phi_plus", self._vec(p["phi_plus"]),
                  plus + np.conj(shift) * np.eye(3)[0], 1e-7, absolute=True)
        o.compare("phi_minus", self._vec(p["phi_minus"]),
                  minus - shift * np.eye(3)[0], 1e-7, absolute=True)

    def _check_rank_one(self, pt, tol):
        def check(o, p):
            k = np.conj(pt) ** np.arange(3)
            kt = pt ** np.arange(2, -1, -1)  # omega k_pt on K_{z^3}
            M = np.array([[complex(a, b) for a, b in row] for row in p["matrix"]])
            o.compare("rank_one_matrix", M, np.outer(kt, np.conj(k)), 1e-12)
            # acceptance criterion 3: 1e-8 inside the disk, 1e-7 on the circle
            o.require("symbol_builds_operator", p["max_matrix_residual"] <= tol,
                      p["max_matrix_residual"])

        return check

    def _check_fejer(self, o, p):
        total = {}
        for part in ("phi1", "phi2", "phi3"):
            for k, (a, b) in p[part].items():
                total[int(k)] = total.get(int(k), 0) + complex(a, b)
        want = {-5: 1, -1: 2j, 0: 3, 2: 1 + 1j, 7: -1}
        o.compare("partition_sum", np.array([total.get(k, 0) for k in range(-8, 9)]),
                  np.array([want.get(k, 0) for k in range(-8, 9)]), 1e-12)

    def _check_cf(self, o, p):
        o.compare("golden_ratio", p["norm"], (1 + math.sqrt(5)) / 2, 1e-8)

    def _check_assemble(self, o, p):
        M = np.array([[complex(a, b) for a, b in row] for row in TOEPLITZ4])
        o.require("build_residual", p["build_residual"] <= 1e-8, p["build_residual"])
        o.require("sup_dominates_norm", p["sup_norm"] >= refs.spectral_norm(M) * (1 - 1e-9))

    def _check_transport(self, o, p):
        M = np.array([[complex(a, b) for a, b in row] for row in TOEPLITZ4])
        D = np.diag((-1.0) ** np.arange(4))
        got = np.array([[complex(a, b) for a, b in row] for row in p["matrix"]])
        o.compare("unitary_conjugation", got, D @ M @ D, 1e-12)

    def _check_cohn(self, o, p):
        spec = json.loads(BLASCHKE3)["zeros"]
        zeros = []
        for z in spec:
            a = complex(z["re"], z["im"])
            zeros.append((1.0 - abs(a), math.atan2(a.imag, a.real), 1))
        want = [refs.ahern_clark_sum(zeros[:k], 0.5, 3.0) for k in range(1, 4)]
        o.compare("partial_sums", np.array(p["partial_sums"]), np.array(want), 1e-12)

    def _check_cls(self, o, csv):
        rows = [line.split(",") for line in csv.splitlines() if line and line[0] not in "#r"]
        ratio = max(float(r[4]) for r in rows)
        o.require("cls_le_2", ratio <= 2.0 + 1e-9, ratio)
        for r in rows:
            lam = complex(float(r[0]), float(r[1]))
            o.compare("norm_sq_vs_closed_form", float(r[3]),
                      refs.monomial_kernel_norm_sq(4, lam), 1e-8)

    def _check_rkt(self, o, p):
        o.require("rkt_sup_bound", p["all_sup_ok"])
        row = p["rows"][0]
        o.compare("closed_form", row["closed_form"], refs.rkt_closed_form(ATOM, 0.5, 0.3), 1e-12)

    def _check_counterex(self, o, p):
        o.require("certificates_pass", p["all_pass"])

    def _check_carleson(self, o, p):
        # one atom of mass m on K_{z^N}: m * outer(v, conj v), |v|^2 = N
        o.compare("carleson_constant", p["carleson_constant"], 2.0 * 3, 1e-12)


WORKLOADS = {
    "toeplitz_assembly": ToeplitzAssembly,
    "blaschke_recovery": BlaschkeRecovery,
    "kernel_scans": KernelScans,
    "cli_commands": CliCommands,
}
