"""Command-line entry point.

Every run validates its effective configuration (flags overridden by an
optional JSON config file; unknown keys rejected), executes one
experiment, and writes deterministic JSON or CSV: floats are formatted
%.12e in CSV, rows are emitted in a fixed order, and each output embeds
the config hash and library version.

Exit codes: 0 success, 2 validation error, 3 numerical failure
(non-convergence, a failed factorization or overflow), 4 every other
library error (missing angular derivative, degenerate recovery point,
support or bandwidth overflow, and the rest of the TTOLabError family).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .circle import FourierPolynomial
from .errors import NoConvergence, TTOLabError
from .inner import BoundaryPoint, Monomial, cohn_sum, from_json
from .modelspace import ModelSpace
from .operators import (BoundarySymbol, MeasureSymbol, TTOperator, build,
                        measure_operator, operator_norm, rank_one_operator)
from .recovery import KernelActionOracle, rank_one_symbol, recover
from .boundedsym import (assemble_bounded_symbol, blaschke_transport,
                         fejer_split, minimal_analytic_extension)
from .counterex import (cls_ratio_scan, counterex_theorem_check,
                        gen_blaschke_counterexample,
                        gen_singular_counterexample, rkt_failure_scan)

GLOBAL_KEYS = ("tol", "budget")


class ValidationError(Exception):
    pass


# ---------------------------------------------------------------------------
# small codecs

def _cplx(text) -> complex:
    """Parse 're' or 're,im' into a complex number."""
    if isinstance(text, (int, float)):
        return complex(text)
    if isinstance(text, (list, tuple)):
        return complex(text[0], text[1])
    parts = str(text).split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise ValidationError(f"cannot parse complex number from {text!r}")


def _pairs(a):
    """[re, im] pairs of a complex scalar or array, nested like the array."""
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _pairs2vec(rows):
    try:
        return np.array([complex(a, b) for a, b in rows], dtype=complex)
    except TypeError as exc:
        raise ValidationError(f"expected a list of [re, im] pairs: {exc}") from exc


def _pairs2mat(rows):
    try:
        return np.array([_pairs2vec(row) for row in rows], dtype=complex)
    except TypeError as exc:
        raise ValidationError(f"expected rows of [re, im] pairs: {exc}") from exc


def _load_json_arg(text):
    """Read an existing file path as JSON; otherwise parse the text as inline JSON."""
    s = str(text).strip()
    if os.path.isfile(s):
        with open(s, "r", encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(s)


def _fourier_from_json(obj) -> FourierPolynomial:
    coeffs = {}
    for k, v in obj.items():
        coeffs[int(k)] = complex(v[0], v[1]) if isinstance(v, (list, tuple)) \
            else complex(v)
    return FourierPolynomial(coeffs)


def _fourier_to_json(poly: FourierPolynomial):
    return {str(k): _pairs(complex(v)) for k, v in sorted(poly.coeffs.items())}


def _fmt(x: float) -> str:
    return "%.12e" % float(x)


# ---------------------------------------------------------------------------
# command implementations (each returns payload dict and optional csv rows)

def _cmd_kernels(cfg):
    space = ModelSpace(from_json(cfg["inner"]), n=cfg.get("grid"))
    lam = _cplx(cfg["lambda"])
    k = space.normalized_kernel(lam) if cfg.get("normalized") else space.kernel(lam)
    if k.coeffs is not None:
        return {"mode": "exact", "coefficients": _pairs(k.coeffs)}
    return {"mode": "truncated", "samples": _pairs(k.samples())}


def _exact_space(cfg) -> ModelSpace:
    space = ModelSpace(from_json(cfg["inner"]), n=cfg.get("grid"))
    if space.mode != "exact":
        raise ValidationError("build emits matrices only in exact mode")
    return space


def _cmd_build(cfg):
    space = _exact_space(cfg)
    poly = _fourier_from_json(_load_json_arg(cfg["symbol"]))
    op = build(space, BoundarySymbol(poly.to_circle(space.grid)))
    return {"dimension": space.dim, "matrix": _pairs(op.matrix),
            "operator_norm": float(operator_norm(op))}


def _cmd_recover(cfg):
    space = ModelSpace(from_json(cfg["inner"]), n=cfg.get("grid"))
    rows = _load_json_arg(cfg["table"])
    table = [(_cplx(r["lambda"]), _pairs2vec(r["coefficients"])) for r in rows]
    oracle = KernelActionOracle.from_table(space, table)
    mu = _cplx(cfg["mu"]) if "mu" in cfg and cfg["mu"] is not None else None
    rec = recover(oracle, mu=mu)
    return {"mu": _pairs(rec.mu),
            "phi_plus": _pairs(rec.phi_plus.coeffs),
            "phi_minus": _pairs(rec.phi_minus.coeffs),
            "residual": rec.residual,
            "rho_ratio": rec.rho_ratio}


def _cmd_rank_one(cfg):
    space = _exact_space(cfg)
    pt = BoundaryPoint(float(cfg["zeta"])) if "zeta" in cfg and cfg["zeta"] is not None \
        else _cplx(cfg["lambda"])
    sym = rank_one_symbol(space, pt)
    op = build(space, sym)
    direct = rank_one_operator(space, pt)
    resid = float(np.max(np.abs(op.matrix - direct.matrix)))
    return {"dimension": space.dim,
            "symbol_sup": float(np.max(np.abs(sym.f.samples))),
            "max_matrix_residual": resid,
            "matrix": _pairs(direct.matrix)}


def _cmd_fejer_split(cfg):
    poly = _fourier_from_json(_load_json_arg(cfg["symbol"]))
    p1, p2, p3 = fejer_split(poly, int(cfg["N"]))
    return {"N": int(cfg["N"]),
            "phi1": _fourier_to_json(p1),
            "phi2": _fourier_to_json(p2),
            "phi3": _fourier_to_json(p3)}


def _cmd_cf_extend(cfg):
    data = _load_json_arg(cfg["coeffs"])
    coeffs = [complex(v[0], v[1]) if isinstance(v, (list, tuple)) else complex(v)
              for v in data]
    ext = minimal_analytic_extension(coeffs)
    return {"norm": ext.norm,
            "taylor": _pairs(ext.taylor[:max(len(coeffs), 8)]),
            "taylor_defect": ext.taylor_defect,
            "modulus_defect": (None if np.isnan(ext.modulus_defect)
                               else ext.modulus_defect),
            "suboptimal": ext.suboptimal}


def _one_assembly(M):
    space = ModelSpace(Monomial(M.shape[0]))
    return assemble_bounded_symbol(TTOperator(space, matrix=M))


def _cmd_assemble(cfg):
    if cfg.get("batch"):
        mats = [_pairs2mat(m) for m in _load_json_arg(cfg["batch"])]
        rows = [("index", "N", "sup_norm", "rho_hat", "measured_constant",
                 "build_residual", "suboptimal")]
        payload_rows = []
        for i, M in enumerate(mats):
            res = _one_assembly(M)
            rows.append((str(i), str(M.shape[0]), _fmt(res.sup_norm),
                         _fmt(res.rho_hat), _fmt(res.measured_constant),
                         _fmt(res.build_residual), str(int(res.suboptimal))))
            payload_rows.append({"index": i, "sup_norm": res.sup_norm,
                                 "rho_hat": res.rho_hat,
                                 "measured_constant": res.measured_constant,
                                 "build_residual": res.build_residual,
                                 "suboptimal": res.suboptimal})
        return {"batch": payload_rows}, rows
    if "matrix" not in cfg:
        raise ValidationError("assemble needs --matrix or --batch")
    M = _pairs2mat(_load_json_arg(cfg["matrix"]))
    res = _one_assembly(M)
    return {"sup_norm": res.sup_norm,
            "rho_hat": res.rho_hat,
            "measured_constant": res.measured_constant,
            "build_residual": res.build_residual,
            "suboptimal": res.suboptimal,
            "phi1": _fourier_to_json(res.phi1),
            "cf2_norm": res.cf2.norm,
            "cf3_norm": res.cf3.norm}


def _cmd_transport(cfg):
    M = _pairs2mat(_load_json_arg(cfg["matrix"]))
    space = ModelSpace(Monomial(M.shape[0]))
    out = blaschke_transport(TTOperator(space, matrix=M), _cplx(cfg["alpha"]))
    return {"matrix": _pairs(out.matrix)}


def _cmd_cohn_growth(cfg):
    theta = from_json(cfg["inner"])
    zeta = float(cfg["zeta"])
    p = float(cfg.get("p", 2.0))
    terms = int(cfg.get("terms", 32))
    rows = []
    for k in range(1, terms + 1):
        rows.append((k, cohn_sum(theta, zeta, p, k)))
    csv_rows = [f"# inner={json.dumps(cfg['inner'], sort_keys=True)} "
                f"zeta={zeta!r} p={p!r} terms={terms}",
                ("k", "partial_sum")] + [(str(k), _fmt(s)) for k, s in rows]
    return {"p": p, "zeta": zeta,
            "partial_sums": [s for _, s in rows]}, csv_rows


def _listify(val, cast=float):
    if val is None:
        return None
    if isinstance(val, str):
        return [cast(x) for x in val.split(",") if x.strip()]
    return [cast(x) for x in val]


def _cmd_cls_scan(cfg):
    theta = from_json(cfg["inner"])
    radii = _listify(cfg.get("radii")) or [0.0, 0.5, 0.75, 0.9]
    angles = int(cfg.get("angles", 8))
    tol = float(cfg.get("tol") or 1e-8)
    max_n = int(cfg.get("budget") or 2 ** 17)
    pts = [r * np.exp(2j * np.pi * j / angles)
           for r in radii for j in range(angles)]
    rep = cls_ratio_scan(theta, pts, tol=tol, max_n=max_n)
    csv_rows = [f"# inner={json.dumps(cfg['inner'], sort_keys=True)} tol={tol!r}",
                ("re_lambda", "im_lambda", "sup_norm", "l2_norm_sq", "ratio")]
    for lam, sup, two, ratio in rep.rows:
        csv_rows.append((_fmt(lam.real), _fmt(lam.imag), _fmt(sup),
                         _fmt(two), _fmt(ratio)))
    return {"max_ratio": rep.max_ratio,
            "rows": [[_pairs(l), s, t, r] for l, s, t, r in rep.rows]}, csv_rows


def _cmd_rkt_scan(cfg):
    theta = from_json(cfg["inner"])
    s = float(cfg["s"])
    lams = cfg.get("lambda", [0.0])
    if not isinstance(lams, list):
        lams = [lams]
    lams = [_cplx(x) for x in lams]
    rep = rkt_failure_scan(theta, s, lams, grid_n=int(cfg.get("grid", 2 ** 13)))
    csv_rows = [f"# inner={json.dumps(cfg['inner'], sort_keys=True)} "
                f"s={s!r} grid={rep['grid']}",
                ("re_lambda", "im_lambda", "closed_form", "identity_err",
                 "identity_err_doubled", "norm_sq_grid", "norm_sq_err",
                 "isometry_ratio")]
    for r in rep["rows"]:
        csv_rows.append((_fmt(r["lambda"].real), _fmt(r["lambda"].imag),
                         _fmt(r["closed_form"]), _fmt(r["identity_err"]),
                         _fmt(r["identity_err_doubled"]),
                         _fmt(r["norm_sq_grid"]), _fmt(r["norm_sq_err"]),
                         _fmt(r["isometry_ratio"])))
    return {"s": rep["s"], "grid": rep["grid"],
            "sup_bound": rep["sup_bound"], "all_sup_ok": rep["all_sup_ok"],
            "rows": [{"lambda": _pairs(r["lambda"]),
                      "closed_form": r["closed_form"],
                      "identity_err": r["identity_err"],
                      "identity_err_doubled": r["identity_err_doubled"],
                      "norm_sq_grid": r["norm_sq_grid"],
                      "norm_sq_err": r["norm_sq_err"],
                      "isometry_ratio": r["isometry_ratio"]}
                     for r in rep["rows"]]}, csv_rows


def _cmd_counterex(cfg):
    kind = cfg.get("kind", "blaschke")
    p = float(cfg.get("p", 3.0))
    count = int(cfg.get("count", 20))
    fam = (gen_blaschke_counterexample(p, count) if kind == "blaschke"
           else gen_singular_counterexample(p, count))
    out = {"kind": fam.kind, "p": p, "count": count,
           "theta": fam.theta.to_json(),
           "certificates": {name: {"value": c.value, "threshold": c.threshold,
                                   "passed": c.passed}
                            for name, c in sorted(fam.certificates.items())},
           "all_pass": fam.all_pass()}
    csv_rows = [f"# kind={kind} p={p!r} truncation={count}",
                ("certificate", "value", "threshold", "passed")]
    for name, c in sorted(fam.certificates.items()):
        csv_rows.append((name, _fmt(c.value), _fmt(c.threshold),
                         str(int(c.passed))))
    if cfg.get("degrees"):
        chk = counterex_theorem_check(fam, p,
                                      degrees=tuple(_listify(cfg["degrees"], int)))
        out["theorem_check"] = {k: (list(v) if isinstance(v, (list, tuple)) else v)
                                for k, v in chk.items()}
    return out, csv_rows


def _cmd_carleson(cfg):
    space = ModelSpace(from_json(cfg["inner"]), n=cfg.get("grid"))
    atoms = [(float(a["angle"]), float(a["mass"]))
             for a in cfg.get("atoms", [])]
    density = None
    if cfg.get("density") is not None:
        density = _fourier_from_json(_load_json_arg(cfg["density"])).to_circle(space.grid)
    op = measure_operator(space, MeasureSymbol(atoms=atoms, density=density))
    evals = np.linalg.eigvalsh(op.matrix)
    return {"carleson_constant": float(evals[-1]),
            "min_eigenvalue": float(evals[0]),
            "dimension": space.dim}


# name -> (implementation, (flag, argparse keywords) pairs).  A flag "--key" is
# also the config key "key"; argparse defaults enter the config hash.
COMMANDS = {
    "kernels": (_cmd_kernels, (
        ("--inner", {"required": True}), ("--lambda", {"dest": "lam"}),
        ("--normalized", {"action": "store_true"}), ("--grid", {"type": int}))),
    "build": (_cmd_build, (
        ("--inner", {"required": True}), ("--symbol", {"required": True}),
        ("--grid", {"type": int}))),
    "recover": (_cmd_recover, (
        ("--inner", {"required": True}), ("--table", {"required": True}),
        ("--mu", {}), ("--grid", {"type": int}))),
    "rank-one": (_cmd_rank_one, (
        ("--inner", {"required": True}), ("--lambda", {"dest": "lam"}),
        ("--zeta", {"type": float}), ("--grid", {"type": int}))),
    "fejer-split": (_cmd_fejer_split, (
        ("--N", {"type": int, "required": True}), ("--symbol", {"required": True}))),
    "cf-extend": (_cmd_cf_extend, (("--coeffs", {"required": True}),)),
    "assemble": (_cmd_assemble, (
        ("--matrix", {}), ("--batch", {}), ("--grid", {"type": int}))),
    "transport": (_cmd_transport, (
        ("--matrix", {"required": True}), ("--alpha", {"required": True}))),
    "cohn-growth": (_cmd_cohn_growth, (
        ("--inner", {"required": True}),
        ("--zeta", {"type": float, "required": True}),
        ("--p", {"type": float, "default": 2.0}),
        ("--terms", {"type": int, "default": 32}))),
    "cls-scan": (_cmd_cls_scan, (
        ("--inner", {"required": True}),
        ("--radii", {}), ("--angles", {"type": int, "default": 8}))),
    "rkt-scan": (_cmd_rkt_scan, (
        ("--inner", {"required": True}),
        ("--s", {"type": float, "required": True}),
        ("--lambda", {"dest": "lam"}), ("--grid", {"type": int, "default": 2 ** 13}))),
    "counterex": (_cmd_counterex, (
        ("gen", {"nargs": "?", "default": "gen"}),
        ("--kind", {"choices": ("blaschke", "singular"), "default": "blaschke"}),
        ("--p", {"type": float, "default": 3.0}),
        ("--count", {"type": int, "default": 20}),
        ("--degrees", {}))),
    "carleson": (_cmd_carleson, (
        ("--inner", {"required": True}), ("--atoms", {}),
        ("--density", {}), ("--grid", {"type": int}))),
}


@functools.cache  # argparse parsers are not changed by parsing; build once
def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file overriding flags")
    common.add_argument("--output", help="output path (default: stdout)")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument("--tol", type=float, help="numerical tolerance override")
    common.add_argument("--budget", type=int, help="grid/iteration budget override")
    ap = argparse.ArgumentParser(prog="ttolab", parents=[common],
                                 description="truncated Toeplitz operator laboratory")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        p = sub.add_parser(name, parents=[common])
        for flag, kw in flags:
            p.add_argument(flag, **kw)
    return ap


def _effective_config(args) -> dict:
    keys = {key: key for key in GLOBAL_KEYS}  # config key -> argparse dest
    keys.update((flag[2:], kw.get("dest", flag[2:]))
                for flag, kw in COMMANDS[args.command][1] if flag.startswith("--"))
    cfg = {key: getattr(args, dest) for key, dest in keys.items()
           if getattr(args, dest) is not None}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        cfg.update(file_cfg)
    unknown = set(cfg) - set(keys)
    if unknown:
        raise ValidationError(
            f"unknown keys for {args.command}: {sorted(unknown)}")
    # parse JSON-valued string flags
    for key in ("inner", "atoms", "radii", "degrees", "lambda"):
        if key in cfg and isinstance(cfg[key], str) and cfg[key].strip()[:1] in "[{":
            cfg[key] = json.loads(cfg[key])
    return cfg


def _config_hash(command: str, cfg: dict) -> str:
    canon = json.dumps({"command": command, "config": cfg}, sort_keys=True,
                       default=str)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _emit(payload, csv_rows, args, digest: str):
    if args.format == "csv":
        if csv_rows is None:
            raise ValidationError(f"{args.command} has no CSV representation")
        lines = [f"# config_hash={digest} version={__version__}"]
        lines += [row if isinstance(row, str) else ",".join(row)
                  for row in csv_rows]
        text = "\n".join(lines) + "\n"
    else:
        payload = {"config_hash": digest, "version": __version__, **payload}
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _effective_config(args)
        digest = _config_hash(args.command, cfg)
        result = COMMANDS[args.command][0](cfg)
        payload, csv_rows = result if isinstance(result, tuple) else (result, None)
        _emit(payload, csv_rows, args, digest)
        return 0
    except (np.linalg.LinAlgError, OverflowError) as exc:
        # before ValueError, which LinAlgError subclasses
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NoConvergence as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return 3
    except TTOLabError as exc:
        print(f"domain error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
