"""Opt-in tracing of ttolab's public functions for the benchmark's traced run.

``Tracer.install()`` replaces every public module-level function of the
layers in ``LAYERS`` (plus the class methods in ``METHODS`` that the layer
counters need) with a wrapper, both at the defining module's attribute and
at every name another ttolab module imported it under, so nested calls are
attributed to the right layer.  ``uninstall()`` restores the originals.

Spans (id, parent id, function, start ns, end ns, operation index) are kept
in memory and written by ``write_spans`` when the run ends.  Self time of a
span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("circle", "inner", "modelspace", "operators", "recovery",
          "boundedsym", "counterex", "cli")

# Class methods wrapped in addition to module-level public functions: the
# ones that construct spaces, evaluate inner functions, issue transforms or
# query the kernel-action oracle, which the per-layer counters measure.
METHODS = {
    "circle": {"CircleFunction": ("from_coeffs", "on_grid")},
    "inner": {"InnerFunction": ("eval", "samples_at")},
    "modelspace": {"ModelSpace": ("__init__", "project", "kernel",
                                  "normalized_kernel", "omega",
                                  "difference_quotient", "backward_shift")},
    "recovery": {"KernelActionOracle": ("act",)},
}

MAX_SPANS = 1_000_000  # raw span records kept; aggregates never stop
_FIELDS = 6  # id, parent id, function index, start ns, end ns, op index


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _fft_points(tracer, args, kwargs, result):
    # riesz_plus/riesz_minus/analyze/multiply take a CircleFunction first
    tracer.count("circle.fft_points", args[0].grid.n)


def _fft_points_synthesize(tracer, args, kwargs, result):
    tracer.count("circle.fft_points", args[0].n)  # synthesize(grid, ...)


def _fft_points_from_coeffs(tracer, args, kwargs, result):
    tracer.count("circle.fft_points", args[1].n)  # from_coeffs(cls, grid, ...)


def _fft_points_on_grid(tracer, args, kwargs, result):
    if result is not args[0]:
        tracer.count("circle.fft_points", args[0].grid.n + result.grid.n)


def _eval_points(tracer, args, kwargs, result):
    tracer.count("inner.eval_points", int(np.size(args[1])))


def _samples_at_pre(tracer, args, kwargs):
    theta, grid = args[0], args[1]
    radius = float(_arg(args, kwargs, 2, "radius", 1.0))
    if (grid.n, radius) not in theta.__dict__.get("_sample_cache", {}):
        tracer.count("inner.eval_points", grid.n)


def _space_built(tracer, args, kwargs, result):
    space = args[0]
    tracer.count("modelspace.spaces", 1)
    if space.mode == "exact":
        tracer.count("modelspace.basis_entries", space.grid.n * space.dim)


def _rho_points(tracer, args, kwargs, result):
    tracer.count("operators.rho_points", int(args[1].points.size))


def _kernel_lp_done(tracer, args, kwargs, result):
    _, resid, n = result
    start = int(_arg(args, kwargs, 3, "start_n", 4096))
    tol = float(_arg(args, kwargs, 4, "tol", 1e-6))
    # compute(n) ran on start, 2 start, ..., n points
    tracer.count("counterex.quad_points", 2 * n - start)
    tracer.count("counterex.kernel_lp_converged", int(resid <= tol))


def _cf_done(tracer, args, kwargs, result):
    tracer.count("boundedsym.cf_suboptimal", int(result.suboptimal))


PROBES = {  # qualified name -> (pre hook, post hook)
    "circle.riesz_plus": (None, _fft_points),
    "circle.riesz_minus": (None, _fft_points),
    "circle.analyze": (None, _fft_points),
    "circle.multiply": (None, _fft_points),
    "circle.synthesize": (None, _fft_points_synthesize),
    "circle.CircleFunction.from_coeffs": (None, _fft_points_from_coeffs),
    "circle.CircleFunction.on_grid": (None, _fft_points_on_grid),
    "inner.InnerFunction.eval": (None, _eval_points),
    "inner.InnerFunction.samples_at": (_samples_at_pre, None),
    "modelspace.ModelSpace.__init__": (None, _space_built),
    "operators.rho_r": (None, _rho_points),
    "operators.rho_d": (None, _rho_points),
    "counterex.kernel_lp": (None, _kernel_lp_done),
    "boundedsym.minimal_analytic_extension": (None, _cf_done),
}

# Groups whose outermost spans are summed into one duration metric.
GROUPS = {
    "operators.rho_s": ("operators.rho", "operators.rho_r", "operators.rho_d"),
    "operators.build_s": ("operators.build",),
    "operators.opnorm_s": ("operators.operator_norm",),
    "boundedsym.cf_s": ("boundedsym.minimal_analytic_extension",),
    "boundedsym.fejer_split_s": ("boundedsym.fejer_split",),
    "modelspace.construct_s": ("modelspace.ModelSpace.__init__",),
    "recovery.recover_s": ("recovery.recover", "recovery.recover_via_k0"),
    "counterex.kernel_lp_s": ("counterex.kernel_lp",),
}


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


class Tracer:
    """Span recorder over ttolab's layers; inactive until ``install()``."""

    def __init__(self):
        self.modules = {layer: importlib.import_module(f"ttolab.{layer}")
                        for layer in LAYERS}
        self.active = False  # spans are recorded only while True
        self.op_index = -1
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.counters: dict[str, float] = {}
        self.group_ns = {g: 0 for g in GROUPS}
        self._group_of: list[tuple[str, ...]] = []
        self._group_depth = {g: 0 for g in GROUPS}
        self.spans = array("q")
        self.dropped = 0
        self._next_id = 0
        self._stack: list[list[int]] = []
        self._patches = self._plan()

    # -- patch plan ---------------------------------------------------------

    def _register(self, qualname, layer):
        fid = len(self.names)
        self.names.append(qualname)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.self_ns.append(0)
        self._group_of.append(tuple(g for g, members in GROUPS.items()
                                    if qualname in members))
        return fid

    def _plan(self):
        namespaces = [importlib.import_module("ttolab")]
        namespaces += list(self.modules.values())
        patches = []
        for layer, module in self.modules.items():
            for name, fn in _public_functions(module):
                qual = f"{layer}.{name}"
                wrapper = self._wrap(self._register(qual, layer), fn, qual)
                for ns in namespaces:
                    for alias, obj in vars(ns).items():
                        if obj is fn:
                            patches.append((ns, alias, fn, wrapper))
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    qual = f"{layer}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(
                            self._register(qual, layer), raw.__func__, qual))
                    else:
                        wrapped = self._wrap(self._register(qual, layer), raw, qual)
                    patches.append((cls, meth, raw, wrapped))
        return patches

    def _wrap(self, fid, fn, qual):
        pre, post = PROBES.get(qual, (None, None))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if pre is not None:
                pre(tracer, args, kwargs)
            tracer._enter(fid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(fid)
            if post is not None:
                post(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- span bookkeeping -----------------------------------------------------

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def _enter(self, fid):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][1] if self._stack else -1
        for g in self._group_of[fid]:
            self._group_depth[g] += 1
        # [function, id, parent id, start ns, child ns]
        self._stack.append([fid, span_id, parent, time.perf_counter_ns(), 0])

    def _exit(self, fid):
        end = time.perf_counter_ns()
        _, span_id, parent, start, child = self._stack.pop()
        dur = end - start
        self.calls[fid] += 1
        self.self_ns[fid] += dur - child
        if self._stack:
            self._stack[-1][4] += dur
        for g in self._group_of[fid]:
            self._group_depth[g] -= 1
            if self._group_depth[g] == 0:
                self.group_ns[g] += dur
        if len(self.spans) < MAX_SPANS * _FIELDS:
            self.spans.extend((span_id, parent, fid, start, end, self.op_index))
        else:
            self.dropped += 1

    # -- results ------------------------------------------------------------------

    def calls_of(self, qualname):
        return self.calls[self.names.index(qualname)]

    def layer_metrics(self):
        """Per-layer metrics, named and unit-tagged as in BENCHMARK.json."""
        layer_self = {layer: 0 for layer in LAYERS}
        layer_calls = {layer: 0 for layer in LAYERS}
        for fid, layer in enumerate(self.layer_of):
            layer_self[layer] += self.self_ns[fid]
            layer_calls[layer] += self.calls[fid]
        c = self.counters.get
        cf_calls = self.calls_of("boundedsym.minimal_analytic_extension")
        lp_calls = self.calls_of("counterex.kernel_lp")
        out = {f"{layer}.self_s": (layer_self[layer] / 1e9, "s") for layer in LAYERS}
        out.update({g: (ns / 1e9, "s") for g, ns in self.group_ns.items()})
        entries = c("modelspace.basis_entries", 0)
        out.update({
            "operators.rho_points": (c("operators.rho_points", 0), "count"),
            "inner.one_minus_mod_sq_calls": (self.calls_of("inner.one_minus_mod_sq"), "count"),
            "inner.eval_points": (c("inner.eval_points", 0), "count"),
            "boundedsym.cf_calls": (cf_calls, "count"),
            "boundedsym.cf_suboptimal_ratio": (
                c("boundedsym.cf_suboptimal", 0) / cf_calls if cf_calls else 0.0, "ratio"),
            "modelspace.spaces": (c("modelspace.spaces", 0), "count"),
            "modelspace.basis_entries": (entries, "count"),
            "modelspace.basis_bytes": (16 * entries, "B"),
            "recovery.recover_calls": (self.calls_of("recovery.recover")
                                       + self.calls_of("recovery.recover_via_k0"), "count"),
            "recovery.oracle_actions": (self.calls_of("recovery.KernelActionOracle.act"), "count"),
            "counterex.kernel_lp_calls": (lp_calls, "count"),
            "counterex.quad_points": (c("counterex.quad_points", 0), "count"),
            "counterex.kernel_lp_converged_ratio": (
                c("counterex.kernel_lp_converged", 0) / lp_calls if lp_calls else 0.0, "ratio"),
            "circle.calls": (layer_calls["circle"], "count"),
            "circle.fft_points": (c("circle.fft_points", 0), "count"),
            "cli.commands": (self.calls_of("cli.main"), "count"),
        })
        return out

    def write_spans(self, path):
        """Write the recorded spans as a compressed npz next to the result."""
        data = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, _FIELDS)
        np.savez_compressed(path, spans=data, names=np.array(self.names),
                            columns=np.array(["id", "parent", "function",
                                              "start_ns", "end_ns", "op"]),
                            dropped=np.array(self.dropped))
