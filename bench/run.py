"""ttolab benchmark: one workload per call, end-to-end or traced per layer.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see bench/workloads.py for why each exists):
  toeplitz_assembly   bounded-symbol assembly on K_{z^N}, N in {16, 64, 256}
  blaschke_recovery   fresh exact Blaschke spaces, build + recover + rho
  kernel_scans        counterexample family scans, RKT study, truncated mode
  cli_commands        all 13 CLI commands in-process, plus malformed inputs
  all                 each of the above in turn (for a person reading numbers)

Each workload runs in its own subprocess: one closed-loop caller that
starts the next operation when the previous one returns, with BLAS/OpenMP
threads pinned to 1.  End-to-end times are scaled to a reference host
speed by a calibration kernel timed within the same run (see worker.py);
the raw figures are printed beside them and kept in the run record.
--trace 0 prints the end-to-end metrics (tracing off); --trace 1 prints the per-layer metrics of a run that executes every
input twice, untraced and traced, and reports the tracing overhead.

The default seed is 1.  Confirm any claimed gain on seed 20261017 as well,
which no change should be tuned on.  Every run writes its full record
(environment, metrics, failures, worst deviation per check) to
bench/results/BENCH_<workload>_seed<N>_trace<T>.json.  The last stdout line
is a JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = tuple(workloads.WORKLOADS)
DEFAULT_SEED = 1
DEFAULT_SECONDS = 20  # BENCHMARK.json's run_seconds, which the bounds were set on
CONFIRM_SEED = 20261017
SETUP_REPEATS = 5  # set-ups per run; setup_s is their median
DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
               "NUMEXPR_NUM_THREADS": "1"}


def _worker(args, timeout):
    """Run bench/worker.py; (launch time, parsed last stdout line)."""
    env = dict(os.environ, **THREAD_PINS)
    env.pop("PYTHONPATH", None)
    t_launch = time.monotonic()
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(timeout, 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    return t_launch, json.loads(lines[-1])


def environment(seed):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = "unknown"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "thread_pins": THREAD_PINS, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "seed": seed,
            "src_lines": src_lines, "machine": platform.machine()}


def run_one(workload, seed, seconds, trace):
    """One workload run; returns (result line, full record)."""
    t0 = time.monotonic()
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []  # (raw seconds, speed scale) per set-up
    if not trace:
        for _ in range(SETUP_REPEATS - 1):
            t_launch, probe = _worker(common + ["--setup-only"], DEADLINE_S)
            setups.append((probe["t_first"] - t_launch, probe["speed_scale"]))
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = f"BENCH_{workload}_seed{seed}_trace{int(trace)}"
    extra = ["--spans", str(results / f"{stem}_spans.npz")] if trace else []
    t_launch, rec = _worker(common + ["--seconds", str(seconds), "--trace", str(int(trace))]
                            + extra, DEADLINE_S - (time.monotonic() - t0))
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in rec["metrics"].items()}
    if not trace:
        setups.append((rec["t_first"] - t_launch, rec["speed_scale"]))
        scaled = [raw * scale for raw, scale in setups]
        metrics = {"setup_s": {"value": statistics.median(scaled), "unit": "s"}, **metrics}
        rec["details"]["setup_runs_s"] = scaled
        rec["details"]["raw_setup_runs_s"] = [raw for raw, _ in setups]
    line = {"correct": not rec["unexpected"], "attempted": rec["attempted"],
            "failed": rec["failed"], "metrics": metrics}
    full = {"workload": workload, "trace": int(trace), "seconds": seconds,
            "environment": environment(seed), **line,
            **{k: rec[k] for k in ("details", "failures", "unexpected", "check_worst")}}
    (results / f"{stem}.json").write_text(json.dumps(full, indent=1, sort_keys=True) + "\n")
    return line, full


def report(full):
    """Human-readable lines: every metric with its unit, then failures."""
    d = full["details"]
    print(f"== {full['workload']}  seed {full['environment']['seed']}  trace {full['trace']}"
          f"  ({d['timed_s']:.1f} s timed, {full['attempted']} ops)")
    for name, m in full["metrics"].items():
        note = ""
        if name == "latency_tail_ms":
            note = (f"  (p{d['latency_tail_percentile']:.1f} of n={d['latency_samples']};"
                    f" raw {d['raw_latency_tail_ms']:.4g} ms)")
        elif name == "pass_frac":
            note = f"  (fail_frac {d['fail_frac']:.4f}: {full['failed']} of {full['attempted']})"
        elif name == "rel_err_digits":
            note = f"  (max_rel_err {d['max_rel_err']:.4g})"
        elif name == "setup_s":
            note = "  (median of " + ", ".join(f"{s:.3f}" for s in d["setup_runs_s"]) + ")"
        elif name == "latency_p50_ms":
            note = f"  (raw {d['raw_latency_p50_ms']:.4g} ms)"
        elif name == "throughput_ops_s":
            note = f"  (raw {d['raw_throughput_ops_s']:.4g} 1/s)"
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}{note}")
    if "speed_scale_range" in d:
        lo, hi = d["speed_scale_range"]
        warn = "  WARNING: host speed moved by more than half; compare raw figures" \
            if hi > 1.5 * lo else ""
        print(f"  times scaled to the reference speed by {d['speed_scale']:.3f}"
              f" (per op {lo:.3f}..{hi:.3f}){warn}")
    for kind, f in sorted(full["failures"].items()):
        tag = "UNEXPECTED" if f["unexpected"] else "known"
        print(f"  failed {kind} x{f['count']} [{tag}]: {f['reasons'][:160]}")
    env = full["environment"]
    print(f"  env: python {env['python']}, numpy {env['numpy']}, blas {env['blas']}, "
          f"nproc {env['nproc']}, src lines {env['src_lines']}, threads pinned to 1")


def main(argv=None):
    ap = argparse.ArgumentParser(description="ttolab benchmark (see module docstring)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}; confirm claims on {CONFIRM_SEED})")
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ttolab" / "__init__.py").is_file():
        print(f"error: no ttolab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        for name in names:
            line, full = run_one(name, args.seed, args.seconds, bool(args.trace))
            report(full)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    if args.workload != "all":
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
