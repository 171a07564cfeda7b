"""Tests of the benchmark itself: its checker, tracer and output contract.

They test the benchmark, not the library: a short pass of each workload,
an injected wrong answer that the checker must count as a failure, the
traced run's per-layer metrics, and the refusal to run without sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SLOW_KINDS = ("growth_row_deg16", "growth_row_deg32")


@pytest.fixture(scope="module")
def tt():
    return worker.import_ttolab()


def test_benchmark_json_matches_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert run.DEFAULT_SECONDS == SPEC["run_seconds"]
    record = {"latencies_ms": [1.0, 2.0], "passed": 2, "attempted": 2, "failed": 0,
              "cycles": 1,
              "timed_s": 1.0, "peak_rss_mb": 1.0, "max_rel_err": 0.0, "kind_ms": {},
              "cal": [(0.0, worker.CAL_REF_S)], "op_walls": [(0.0, 0.5), (0.5, 0.5)]}
    metrics, _ = worker.summarize(record, trace=False)
    assert [m["name"] for m in SPEC["end_to_end"]] == ["setup_s", *metrics]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        "setup_s": "s", **{k: u for k, (_, u) in metrics.items()}}


@pytest.mark.parametrize("name,max_ops", [("toeplitz_assembly", 2),
                                          ("blaschke_recovery", 2),
                                          ("cli_commands", 20)])
def test_short_pass(tt, name, max_ops):
    rec = worker.run_workload(tt, name, seed=3, seconds=0, max_ops=max_ops)
    assert rec["attempted"] == max_ops
    assert rec["unexpected"] == []
    assert all(lat > 0 for lat in rec["latencies_ms"])
    metrics, details = worker.summarize(rec, trace=False)
    assert metrics["pass_frac"][0] == 1 - details["fail_frac"]


def test_short_pass_kernel_scans(tt):
    wl = workloads.KernelScans(tt)
    ops = [op for op in wl.cycle(np.random.default_rng(3)) if op.kind not in SLOW_KINDS]
    seen = set()
    for op in ops:
        if op.kind in seen:
            continue  # one row of each kind is enough here
        seen.add(op.kind)
        out = op()
        assert op.unexpected(out) == [], (op.kind, out.failure_reasons())
    assert out.lib_s > 0


def test_injected_wrong_answer_is_counted(tt, monkeypatch):
    wl = workloads.BlaschkeRecovery(tt)
    zeros = [(0.5, 0.1), (0.4, 2.0), (0.7, 4.0), (0.6, 5.5), (0.35, 3.1)]
    coeffs = [np.ones(5) * (1 + 0.5j), np.arange(5) - 2.0j, np.linspace(-1, 1, 5) + 0j]
    op = workloads.Op("recover_deg5", wl._op(zeros, coeffs))
    record = {"attempted": 0, "passed": 0, "failed": 0, "max_rel_err": 0.0,
              "failures": {}, "unexpected": [], "check_worst": {}}
    worker._tally(record, op, op())
    assert record["passed"] == 1 and record["max_rel_err"] < 1e-7

    true_recover = tt.recover

    def perturbed(oracle, *args, **kwargs):
        rec = true_recover(oracle, *args, **kwargs)
        rec.phi_plus.coeffs[0] += 1e-3
        return rec

    monkeypatch.setattr(tt, "recover", perturbed)
    out = op()
    worker._tally(record, op, out)
    assert "roundtrip_plus" in out.failure_reasons()
    assert record["failed"] == 1 and len(record["unexpected"]) == 1
    assert record["max_rel_err"] >= 1e-4


def _tally_one(op):
    record = {"attempted": 0, "passed": 0, "failed": 0, "max_rel_err": 0.0,
              "failures": {}, "unexpected": [], "check_worst": {}}
    worker._tally(record, op, op())
    return record


def test_known_defect_waives_only_its_own_checks():
    known = workloads.Known("quadrature gap", {"closed_form": 0.1})

    def checks(**devs):
        def run(o):
            for name, dev in devs.items():
                o.compare(name, 1.0 + dev, 1.0, 1e-8)
        return run

    # the documented failure, within its documented size, is expected
    assert _tally_one(workloads.Op("k", checks(closed_form=0.05), known))["unexpected"] == []
    # the same check failing by more than the defect explains is not
    assert _tally_one(workloads.Op("k", checks(closed_form=0.5), known))["unexpected"]
    # nor is another check of the same operation
    assert _tally_one(workloads.Op("k", checks(closed_form=0.05, sup_bound=0.5),
                                   known))["unexpected"]


def test_known_defect_op_that_starts_raising_makes_run_incorrect(tt, monkeypatch):
    """A growth row fails by a known quadrature gap; raising instead is not that gap."""
    wl = workloads.KernelScans(tt)
    op = next(op for op in wl.cycle(np.random.default_rng(3)) if op.kind == "growth_row_deg8")

    def broken(*args, **kwargs):
        raise RuntimeError("broken")

    monkeypatch.setattr(tt.counterex, "growth_scan", broken)
    record = _tally_one(op)
    assert record["unexpected"] == ["growth_row_deg8: growth_scan: RuntimeError: broken"]
    assert record["failures"]["growth_row_deg8"]["unexpected"] == 1


def test_traced_run_reports_every_layer_metric(tt):
    rec = worker.run_workload(tt, "toeplitz_assembly", seed=3, seconds=0,
                              trace=True, max_ops=1)
    metrics, _ = worker.summarize(rec, trace=True)
    assert {k: u for k, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(v >= 0 for v, _ in metrics.values())
    # the N=16 op evaluates 1 - |Theta|^2 once per rho sample point
    assert metrics["inner.one_minus_mod_sq_calls"][0] == metrics["operators.rho_points"][0] > 0
    assert metrics["boundedsym.cf_calls"][0] == 2
    assert metrics["trace.overhead_ratio"][0] > 0
    # wrappers are gone after the run
    assert not hasattr(tt.rho, "__wrapped__")
    assert not hasattr(tt.boundedsym.rho, "__wrapped__")
    assert not hasattr(tt.ModelSpace.__init__, "__wrapped__")


def test_tail_latency_has_ten_samples_beyond():
    for n, pct in ((30, 50.0), (40, 75.0), (199, 75.0), (200, 95.0), (1000, 99.0)):
        xs = list(range(1, n + 1))
        value, got, count = worker.tail_latency(xs)
        assert (got, count) == (pct, n)
        assert sum(x > value for x in xs) >= 10
    assert worker.tail_latency([3.0, 1.0])[:2] == (3.0, 100.0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli_commands",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
