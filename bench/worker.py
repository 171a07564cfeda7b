"""One workload in one process: set-up, a closed loop of whole cycles, stats.

Run by ``run.py`` as a subprocess (one per workload run, so process-wide
caches such as BoundaryGrid's never leak between workloads) and imported
by the benchmark's tests.  Prints one JSON object as its last stdout line.

A run holds whole cycles of its workload, so every kind of operation is
sampled equally often, and ends at the first cycle boundary after
``--seconds`` but never before MIN_CYCLES cycles.  Three cycles put ten
samples beyond p75 in blaschke_recovery (15 operations a cycle) and
kernel_scans (39), so they report the same tail percentile (see
``tail_latency``) in every run, however fast the host is.

Times are reported at a reference host speed.  On a shared 2-core host
the speed of the same code drifts by up to half over tens of seconds,
which would swamp any regression bound, so every run also times a fixed
kernel that does not touch ttolab (dense SVD, FFT, a large elementwise
exp, a Python loop) every CAL_EVERY_S seconds between operations.  Each
operation's time is scaled by CAL_REF_S / (median of the CAL_NEAREST
kernel times taken closest to it), which follows the drift within a run.
The raw times stay in the run record.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                            [--setup-only] [--spans PATH]
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
CAL_REF_S = 0.025  # kernel time at the reference speed
CAL_EVERY_S = 0.5
CAL_NEAREST = 5
MIN_CYCLES = 3
_CAL_RNG = np.random.default_rng(0)
_CAL_MATRIX = _CAL_RNG.standard_normal((96, 96)) + 1j * _CAL_RNG.standard_normal((96, 96))
_CAL_SIGNAL = _CAL_RNG.standard_normal(1 << 14) + 0j
_CAL_PHASES = _CAL_RNG.uniform(0.0, 2.0 * math.pi, 1 << 18)  # 4 MB out: memory-bound


def calibration_sample():
    """Seconds the fixed calibration kernel takes right now."""
    t0 = time.perf_counter()
    for _ in range(3):
        np.linalg.svd(_CAL_MATRIX)
        np.fft.ifft(np.fft.fft(_CAL_SIGNAL))
        acc = 0
        for k in range(20000):
            acc += k * k
    np.exp(1j * _CAL_PHASES)
    return time.perf_counter() - t0


def speed_scale(cal_samples):
    """Factor taking times measured alongside these kernel times to the reference speed."""
    return CAL_REF_S / statistics.median(cal_samples)


def local_scales(cal, op_starts):
    """speed_scale of the CAL_NEAREST calibration samples nearest each op start.

    ``cal`` holds (monotonic time, kernel seconds) pairs.
    """
    when = np.array([t for t, _ in cal])
    took = np.array([d for _, d in cal])
    return [speed_scale(took[np.argsort(np.abs(when - t))[:CAL_NEAREST]])
            for t in op_starts]


def import_ttolab():
    """Import ttolab from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ttolab
    if Path(ttolab.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"ttolab resolved outside {src}: {ttolab.__file__}")
    return ttolab


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 75.0, 50.0)


def tail_latency(lat_ms):
    """(value, percentile, n) of the latency tail.

    The tail is the highest of the percentiles above with at least ten
    samples beyond it (nearest rank).  Each is chosen over a four- to
    tenfold range of sample counts, so the percentile reported stays the
    same when the host's speed changes how many operations a run completes.
    Runs with fewer than 20 samples report the maximum.
    """
    xs = sorted(lat_ms)
    n = len(xs)
    for pct in TAIL_PERCENTILES:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return xs[rank - 1], pct, n
    return xs[-1], 100.0, n


def error_digits(max_rel_err):
    """Correct significant digits of the worst operation: -log10(max_rel_err).

    A double carries at most 17 digits, so an exact match reads 17.
    """
    return -math.log10(max(max_rel_err, 1e-17))


def run_workload(tt, name, seed, seconds, trace=False, max_ops=None):
    """Run whole cycles of ``name`` until ``seconds`` have passed (or max_ops ran).

    Returns the raw record: latencies, pass/fail tallies, failures by kind,
    worst deviation per check and, when tracing, the per-layer metrics.
    """
    rng = np.random.default_rng(seed)
    wl = workloads.WORKLOADS[name](tt)
    tracer = tracing.Tracer() if trace else None
    t_first = time.monotonic()
    record = {"t_first": t_first, "latencies_ms": [], "untraced_latencies_ms": [],
              "attempted": 0, "passed": 0, "failed": 0, "max_rel_err": 0.0,
              "failures": {}, "unexpected": [], "check_worst": {}, "kind_ms": {},
              "cal": [], "op_walls": []}
    ops_done = cycles = 0
    done = False
    last_cal = -math.inf
    while not done:
        for op in wl.cycle(rng):
            if time.monotonic() - last_cal >= CAL_EVERY_S:
                record["cal"].append((time.monotonic(), calibration_sample()))
                last_cal = time.monotonic()
            t_op = time.monotonic()
            if tracer is None:
                outcomes = [(op(), record["latencies_ms"])]
            else:
                # each input runs untraced and traced, alternating which goes first
                outcomes = []
                traced_first = ops_done % 2 == 1
                for traced in (traced_first, not traced_first):
                    if traced:
                        tracer.op_index = ops_done
                        tracer.install()
                        try:
                            outcomes.append((op(tracer), record["latencies_ms"]))
                        finally:
                            tracer.uninstall()
                    else:
                        outcomes.append((op(), record["untraced_latencies_ms"]))
            for out, lat in outcomes:
                _tally(record, op, out)
                lat.append(out.lib_s * 1e3)
                record["kind_ms"].setdefault(op.kind, []).append(out.lib_s * 1e3)
            record["op_walls"].append((t_op, time.monotonic() - t_op))
            ops_done += 1
            if max_ops is not None and ops_done >= max_ops:
                done = True
                break
        cycles += 1
        if time.monotonic() - t_first >= seconds and cycles >= MIN_CYCLES:
            done = True
    record["cycles"] = cycles
    record["timed_s"] = time.monotonic() - t_first - sum(d for _, d in record["cal"])
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        record["layers"] = tracer.layer_metrics()
        record["tracer"] = tracer
    return record


def _tally(record, op, out):
    record["attempted"] += 1
    record["max_rel_err"] = max(record["max_rel_err"], out.max_rel_err)
    for check, (_, dev) in out.checks.items():
        if dev is not None:
            key = f"{op.kind.split('_deg')[0]}:{check}"
            record["check_worst"][key] = max(record["check_worst"].get(key, 0.0), dev)
    if out.passed:
        record["passed"] += 1
        return
    record["failed"] += 1
    reasons = "; ".join(out.failure_reasons())
    known = op.known.reason if op.known is not None else None
    entry = record["failures"].setdefault(op.kind, {"count": 0, "reasons": reasons,
                                                    "known_defect": known, "unexpected": 0})
    entry["count"] += 1
    unexpected = op.unexpected(out)
    if unexpected:
        entry["unexpected"] += 1
        record["unexpected"].append(f"{op.kind}: {'; '.join(unexpected)}")


def summarize(record, trace):
    """Metrics of a finished run, as {name: (value, unit)} plus details.

    End-to-end times are scaled to the reference host speed; the per-layer
    times of a traced run are raw, like the spans they come from.
    """
    lat = record["latencies_ms"]
    raw_tail, _, _ = tail_latency(lat)
    starts = [t for t, _ in record["op_walls"]]
    scales = local_scales(record["cal"], starts)
    lat_ref = [x * f for x, f in zip(lat, scales)]
    wall_ref = sum(w * f for (_, w), f in zip(record["op_walls"], scales))
    tail, pct, n = tail_latency(lat_ref)
    details = {"latency_samples": n, "latency_tail_percentile": pct,
               "fail_frac": record["failed"] / record["attempted"],
               "max_rel_err": record["max_rel_err"],
               "timed_s": record["timed_s"],
               "cycles": record["cycles"],
               "speed_scale": speed_scale([d for _, d in record["cal"]]),
               "speed_scale_range": [min(scales), max(scales)],
               "calibration_samples": len(record["cal"]),
               "raw_latency_p50_ms": statistics.median(lat), "raw_latency_tail_ms": raw_tail,
               "raw_throughput_ops_s": record["passed"] / record["timed_s"],
               "latency_ms_by_kind": {k: statistics.median(v)
                                      for k, v in sorted(record["kind_ms"].items())}}
    if not trace:
        metrics = {
            "throughput_ops_s": (record["passed"] / wall_ref, "1/s"),
            "latency_p50_ms": (statistics.median(lat_ref), "ms"),
            "latency_tail_ms": (tail, "ms"),
            "peak_rss_mb": (record["peak_rss_mb"], "MB"),
            "pass_frac": (record["passed"] / record["attempted"], "ratio"),
            "rel_err_digits": (error_digits(record["max_rel_err"]), "digits"),
        }
        return metrics, details
    metrics = dict(record["layers"])
    traced = statistics.median(lat)
    plain = statistics.median(record["untraced_latencies_ms"])
    metrics["trace.latency_p50_ms"] = (traced, "ms")
    metrics["trace.untraced_latency_p50_ms"] = (plain, "ms")
    metrics["trace.overhead_ratio"] = (traced / plain if plain > 0 else math.inf, "ratio")
    return metrics, details


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="exit after set-up, reporting only its end time")
    ap.add_argument("--spans", help="write the traced run's spans to this .npz")
    args = ap.parse_args(argv)
    tt = import_ttolab()
    if args.setup_only:
        workloads.WORKLOADS[args.workload](tt)
        t_first = time.monotonic()
        cal = [calibration_sample() for _ in range(CAL_NEAREST)]
        print(json.dumps({"t_first": t_first, "speed_scale": speed_scale(cal)}))
        return 0
    record = run_workload(tt, args.workload, args.seed, args.seconds, bool(args.trace))
    metrics, details = summarize(record, bool(args.trace))
    if args.spans and "tracer" in record:
        record["tracer"].write_spans(args.spans)
        details["spans"] = len(record["tracer"].spans) // 6
        details["spans_dropped"] = record["tracer"].dropped
    out = {k: record[k] for k in ("t_first", "attempted", "passed", "failed",
                                  "failures", "unexpected", "check_worst")}
    # set-up ran just before the first calibration samples
    out["speed_scale"] = speed_scale([d for _, d in record["cal"][:CAL_NEAREST]])
    out["metrics"] = {k: [v, u] for k, (v, u) in metrics.items()}
    out["details"] = details
    sys.stdout.flush()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
