"""Command-line entry point.

Every run validates its effective configuration (flags overridden by an
optional JSON config file; unknown keys rejected; each value decoded once,
by its flag's rule, before it is hashed), executes one experiment, and
writes deterministic JSON or CSV: floats are formatted %.12e in CSV, rows
are emitted in a fixed order, and each output embeds the config hash and
library version.

Every number read or written must be finite (strict JSON).  Exit codes: 0
success, 2 validation error, 3 numerical failure (non-convergence, a failed
factorization, overflow or a result that is not finite), 4 every other
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
from .inner import BoundaryPoint, Monomial, _is_number, atoms_from_json, cohn_sums, from_json
from .modelspace import ModelSpace
from .operators import (BoundarySymbol, MeasureSymbol, TTOperator, _polar_grid, build,
                        measure_operator, operator_norm, rank_one_operator)
from .recovery import KernelActionOracle, rank_one_symbol, recover
from .boundedsym import (assemble_bounded_symbol, blaschke_transport,
                         fejer_split, minimal_analytic_extension)
from .counterex import (CLS_TOL, MAX_NODES, RKT_GRID, cls_ratio_scan,
                        counterex_theorem_check, gen_blaschke_counterexample,
                        gen_singular_counterexample, rkt_failure_scan)


class ValidationError(Exception):
    pass


# ---------------------------------------------------------------------------
# small codecs

def _complex(obj, shape: str = "value"):
    """Decode complex data from a flag or JSON, by its expected shape.

    A "value" is a real number, an [re, im] pair or a string 're' or
    're,im'.  A "list" holds values, and "points" are a list or one value
    (a list of one).  A "dict" maps integer indices to values (the Fourier
    coefficients of a symbol), and a "matrix" is a square list of rows of
    [re, im] pairs: pairs only, so that it is never read as a list of pairs.
    Anything else raises ValidationError.
    """
    if shape == "value":
        if isinstance(obj, str) and obj.count(",") <= 1:
            return complex(*map(float, obj.split(",")))  # ValueError if not numbers
        if _is_number(obj):
            return complex(obj)
        if _is_pair(obj):
            return complex(obj[0], obj[1])
    elif shape == "list" and isinstance(obj, list):
        return np.array([_complex(v) for v in obj], dtype=complex)
    elif shape == "points":
        return _complex(obj if isinstance(obj, list) and not _is_pair(obj) else [obj], "list")
    elif shape == "dict" and isinstance(obj, dict):
        return {int(k): _complex(v) for k, v in obj.items()}
    elif shape == "matrix" and isinstance(obj, list) and obj and all(
            isinstance(row, list) and len(row) == len(obj) and all(map(_is_pair, row))
            for row in obj):
        return np.array([[complex(a, b) for a, b in row] for row in obj], dtype=complex)
    raise ValidationError(f"expected a complex {shape}, got {obj!r}")


def _shaped(shape: str):
    """The complex codec of one shape, as a flag's decoder."""
    return functools.partial(_complex, shape=shape)


def _table(obj):
    """A kernel-action table: a list of objects, each a "lambda" value and its
    "coefficients" list, as (lambda, coefficients) pairs."""
    if not (isinstance(obj, list) and all(isinstance(r, dict) for r in obj)):
        raise ValidationError("a kernel-action table is a list of objects")
    return [(_complex(r["lambda"]), _complex(r["coefficients"], "list")) for r in obj]


def _batch(obj):
    """A list of matrices."""
    if not isinstance(obj, list):
        raise ValidationError("a batch is a list of matrices")
    return [_complex(m, "matrix") for m in obj]


def _is_pair(obj) -> bool:
    return isinstance(obj, (list, tuple)) and len(obj) == 2 and all(map(_is_number, obj))


def _pairs(a):
    """[re, im] pairs of a complex scalar or array: a float view shaped like it
    with a last axis of 2, which ``_json_text`` writes as nested lists."""
    return np.asarray(a, dtype=complex)[..., None].view(float)


def _nonfinite(obj, key):
    """The key of a number in obj, nested in dicts, lists, tuples and arrays,
    that is not finite (``key`` for obj itself); None when all are finite."""
    if not isinstance(obj, (dict, list, tuple)):
        finite = not isinstance(obj, (float, complex, np.ndarray)) or np.isfinite(obj).all()
        return None if finite else key
    items = obj.items() if isinstance(obj, dict) else ((key, v) for v in obj)
    return next((bad for k, v in items if (bad := _nonfinite(v, k)) is not None), None)


def _json_text(obj, indent: str = "\n") -> str:
    """json.dumps(obj, sort_keys=True, indent=1, allow_nan=False), byte for byte, with
    each float array (``_pairs``) as its nested list, written by one format string
    of its shape and float.__repr__; ValueError if a number is not finite."""
    if isinstance(obj, (float, np.ndarray)):
        text = (float.__repr__(obj) if isinstance(obj, float)
                else _array_format(obj.shape, indent) % tuple(obj.ravel().tolist()))
        if "n" in text:  # "nan", "inf" or "-inf": no finite repr and no format holds an n
            raise ValueError("Out of range float values are not JSON compliant")
        return text
    if isinstance(obj, dict):
        return _nested([json.dumps(k if isinstance(k, str) else _json_text(k)) + ": "
                        + _json_text(v, indent + " ") for k, v in sorted(obj.items())],
                       "{}", indent)
    if isinstance(obj, (list, tuple)):
        return _nested([_json_text(v, indent + " ") for v in obj], "[]", indent)
    return json.dumps(obj)


def _array_format(shape, indent: str) -> str:
    """The %-format of an array of this shape, nested as json.dumps nests lists."""
    if not shape:
        return "%r"
    return _nested([_array_format(shape[1:], indent + " ")] * shape[0], "[]", indent)


def _nested(items, ends: str, indent: str) -> str:  # as json.dumps brackets them
    inner = indent + " "
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1] if items else ends


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


def _fourier_to_json(poly: FourierPolynomial):
    return {str(k): _pairs(complex(v)) for k, v in sorted(poly.coeffs.items())}


def _fmt(x) -> str:
    """A CSV cell: a flag as 0 or 1, a number as %.12e."""
    return str(int(x)) if isinstance(x, bool) else "%.12e" % float(x)


# ---------------------------------------------------------------------------
# command implementations (each returns payload dict and optional csv rows)

def _cmd_kernels(cfg):
    space = ModelSpace(from_json(cfg["inner"]), n=cfg.get("grid"))
    lam = cfg["lambda"]
    k = space.normalized_kernel(lam) if cfg.get("normalized") else space.kernel(lam)
    # an element is one vector: coefficients on an exact space, samples on a grid
    field = "coefficients" if k.coeffs is not None else "samples"
    return {"mode": space.mode, field: _pairs(k.vec)}


def _exact_space(cfg, command: str) -> ModelSpace:
    space = ModelSpace(from_json(cfg["inner"]), n=cfg.get("grid"))
    if space.mode != "exact":
        raise ValidationError(f"{command} needs an exact model space "
                              "(a finite Blaschke product)")
    return space


def _cmd_build(cfg):
    space = _exact_space(cfg, "build")
    poly = FourierPolynomial(cfg["symbol"])
    op = build(space, BoundarySymbol(poly.to_circle(space.grid)))
    return {"dimension": space.dim, "matrix": _pairs(op.matrix),
            "operator_norm": float(operator_norm(op))}


def _cmd_recover(cfg):
    space = _exact_space(cfg, "recover")
    oracle = KernelActionOracle.from_table(space, cfg["table"])
    rec = recover(oracle, mu=cfg.get("mu"))
    return {"mu": _pairs(rec.mu),
            "phi_plus": _pairs(rec.phi_plus.coeffs),
            "phi_minus": _pairs(rec.phi_minus.coeffs),
            "residual": rec.residual,
            "rho_ratio": rec.rho_ratio}


def _cmd_rank_one(cfg):
    space = _exact_space(cfg, "rank-one")
    if "zeta" in cfg and "lambda" in cfg:
        raise ValidationError("rank-one takes --lambda or --zeta, not both")
    if "zeta" in cfg:
        pt = BoundaryPoint(cfg["zeta"])
    elif "lambda" in cfg:
        pt = cfg["lambda"]
    else:
        raise ValidationError("rank-one needs --lambda or --zeta")
    sym = rank_one_symbol(space, pt)
    op = build(space, sym)
    direct = rank_one_operator(space, pt)
    resid = float(np.max(np.abs(op.matrix - direct.matrix)))
    return {"dimension": space.dim,
            "symbol_sup": float(np.max(np.abs(sym.f.samples))),
            "max_matrix_residual": resid,
            "matrix": _pairs(direct.matrix)}


def _cmd_fejer_split(cfg):
    p1, p2, p3 = fejer_split(FourierPolynomial(cfg["symbol"]), cfg["N"])
    return {"N": cfg["N"],
            "phi1": _fourier_to_json(p1),
            "phi2": _fourier_to_json(p2),
            "phi3": _fourier_to_json(p3)}


def _cmd_cf_extend(cfg):
    ext = minimal_analytic_extension(cfg["coeffs"])
    return {"norm": ext.norm,
            "taylor": _pairs(ext.taylor),
            "taylor_defect": ext.taylor_defect,
            "modulus_defect": (None if np.isnan(ext.modulus_defect)
                               else ext.modulus_defect),
            "suboptimal": ext.suboptimal}


ASSEMBLY_COLUMNS = ("sup_norm", "rho_hat", "measured_constant", "build_residual",
                    "suboptimal")


def _one_assembly(M):
    """The bounded-symbol assembly of M and its ASSEMBLY_COLUMNS, by name."""
    space = ModelSpace(Monomial(M.shape[0]))
    res = assemble_bounded_symbol(TTOperator(space, matrix=M))
    return res, {c: getattr(res, c) for c in ASSEMBLY_COLUMNS}


def _cmd_assemble(cfg):
    if "batch" in cfg:
        rows = [("index", "N") + ASSEMBLY_COLUMNS]
        payload_rows = []
        for i, M in enumerate(cfg["batch"]):
            _, fields = _one_assembly(M)
            rows.append((str(i), str(M.shape[0])) + tuple(map(_fmt, fields.values())))
            payload_rows.append({"index": i, **fields})
        return {"batch": payload_rows}, rows
    if "matrix" not in cfg:
        raise ValidationError("assemble needs --matrix or --batch")
    res, fields = _one_assembly(cfg["matrix"])
    return {**fields,
            "phi1": _fourier_to_json(res.phi1),
            "cf2_norm": res.cf2.norm,
            "cf3_norm": res.cf3.norm}


def _cmd_transport(cfg):
    M = cfg["matrix"]
    space = ModelSpace(Monomial(M.shape[0]))
    out = blaschke_transport(TTOperator(space, matrix=M), cfg["alpha"])
    return {"matrix": _pairs(out.matrix)}


def _cmd_cohn_growth(cfg):
    theta = from_json(cfg["inner"])
    zeta, p, terms = cfg["zeta"], cfg["p"], cfg["terms"]
    if terms < 1:
        raise ValidationError(f"--terms must be at least 1, got {terms}")
    sums = cohn_sums(theta, BoundaryPoint(zeta), p, range(1, terms + 1))
    csv_rows = [f"# inner={json.dumps(cfg['inner'], sort_keys=True)} "
                f"zeta={zeta!r} p={p!r} terms={terms}",
                ("k", "partial_sum")] + [(str(k), _fmt(s)) for k, s in enumerate(sums, 1)]
    return {"p": p, "zeta": zeta, "partial_sums": sums}, csv_rows


def _listify(val, cast=float):
    """A list of numbers that cast keeps (int refuses a fraction), or a string of
    them separated by commas, cast each."""
    items = [x for x in val.split(",") if x.strip()] if isinstance(val, str) else val
    if not (isinstance(items, list)
            and all(isinstance(x, str) or _is_number(x) and cast(x) == x for x in items)):
        raise ValidationError(f"expected a list of {cast.__name__}s, got {val!r}")
    return [cast(x) for x in items]


def _cmd_cls_scan(cfg):
    theta = from_json(cfg["inner"])
    radii = cfg.get("radii", [0.0, 0.5, 0.75, 0.9])
    if not radii:
        raise ValidationError("--radii needs at least one radius")
    angles = cfg["angles"]
    if angles < 1:
        raise ValidationError(f"--angles must be at least 1, got {angles}")
    tol = cfg.get("tol", CLS_TOL)
    rep = cls_ratio_scan(theta, _polar_grid(radii, angles), tol=tol,
                         max_n=cfg.get("budget", MAX_NODES))
    csv_rows = [f"# inner={json.dumps(cfg['inner'], sort_keys=True)} tol={tol!r}",
                ("re_lambda", "im_lambda", "sup_norm", "l2_norm_sq", "ratio")]
    for lam, sup, two, ratio in rep.rows:
        csv_rows.append((_fmt(lam.real), _fmt(lam.imag), _fmt(sup),
                         _fmt(two), _fmt(ratio)))
    return {"max_ratio": rep.max_ratio,
            "rows": [[_pairs(l), s, t, r] for l, s, t, r in rep.rows]}, csv_rows


RKT_COLUMNS = ("closed_form", "identity_err", "identity_err_doubled", "norm_sq_grid",
               "norm_sq_err", "isometry_ratio")


def _cmd_rkt_scan(cfg):
    theta = from_json(cfg["inner"])
    s = cfg["s"]
    lams = cfg.get("lambda", [0.0])
    if len(lams) == 0:
        raise ValidationError("--lambda needs at least one point")
    rep = rkt_failure_scan(theta, s, lams, grid_n=cfg["grid"])
    csv_rows = [f"# inner={json.dumps(cfg['inner'], sort_keys=True)} "
                f"s={s!r} grid={rep['grid']}",
                ("re_lambda", "im_lambda") + RKT_COLUMNS]
    for r in rep["rows"]:
        csv_rows.append(tuple(_fmt(v) for v in (r["lambda"].real, r["lambda"].imag,
                                                *(r[c] for c in RKT_COLUMNS))))
    return {"s": rep["s"], "grid": rep["grid"],
            "sup_bound": rep["sup_bound"], "all_sup_ok": rep["all_sup_ok"],
            "rows": [{"lambda": _pairs(r["lambda"]), **{c: r[c] for c in RKT_COLUMNS}}
                     for r in rep["rows"]]}, csv_rows


def _cmd_counterex(cfg):
    kind, p, count = cfg["kind"], cfg["p"], cfg["count"]
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
        csv_rows.append((name, _fmt(c.value), _fmt(c.threshold), _fmt(c.passed)))
    if cfg.get("degrees"):
        out["theorem_check"] = counterex_theorem_check(fam, p, degrees=tuple(cfg["degrees"]))
    return out, csv_rows


def _cmd_carleson(cfg):
    space = _exact_space(cfg, "carleson")
    density = (FourierPolynomial(cfg["density"]).to_circle(space.grid)
               if "density" in cfg else None)
    atoms = [(BoundaryPoint(angle), mass) for angle, mass in atoms_from_json(cfg.get("atoms", []))]
    op = measure_operator(space, MeasureSymbol(atoms, density))
    evals = np.linalg.eigvalsh(op.matrix)
    return {"carleson_constant": float(evals[-1]),
            "min_eigenvalue": float(evals[0]),
            "dimension": space.dim}


# name -> (implementation, (flag, argparse keywords) pairs).  A flag "--key" is
# also the config key "key"; argparse defaults enter the config hash.  A
# "codec" keyword (not argparse's) decodes the flag's value (``_decode``).
COMMANDS = {
    "kernels": (_cmd_kernels, (
        ("--inner", {"required": True}),
        ("--lambda", {"dest": "lam", "required": True, "codec": _complex}),
        ("--normalized", {"action": "store_true"}), ("--grid", {"type": int}))),
    "build": (_cmd_build, (
        ("--inner", {"required": True}),
        ("--symbol", {"required": True, "codec": _shaped("dict")}),
        ("--grid", {"type": int}))),
    "recover": (_cmd_recover, (
        ("--inner", {"required": True}), ("--table", {"required": True, "codec": _table}),
        ("--mu", {"codec": _complex}))),
    "rank-one": (_cmd_rank_one, (
        ("--inner", {"required": True}), ("--lambda", {"dest": "lam", "codec": _complex}),
        ("--zeta", {"type": float}), ("--grid", {"type": int}))),
    "fejer-split": (_cmd_fejer_split, (
        ("--N", {"type": int, "required": True}),
        ("--symbol", {"required": True, "codec": _shaped("dict")}))),
    "cf-extend": (_cmd_cf_extend, (("--coeffs", {"required": True, "codec": _shaped("list")}),)),
    "assemble": (_cmd_assemble, (
        ("--matrix", {"codec": _shaped("matrix")}), ("--batch", {"codec": _batch}))),
    "transport": (_cmd_transport, (
        ("--matrix", {"required": True, "codec": _shaped("matrix")}),
        ("--alpha", {"required": True, "codec": _complex}))),
    "cohn-growth": (_cmd_cohn_growth, (
        ("--inner", {"required": True}),
        ("--zeta", {"type": float, "required": True}),
        ("--p", {"type": float, "default": 2.0}),
        ("--terms", {"type": int, "default": 32}))),
    "cls-scan": (_cmd_cls_scan, (
        ("--inner", {"required": True}),
        ("--radii", {"codec": _listify}), ("--angles", {"type": int, "default": 8}),
        ("--tol", {"type": float}), ("--budget", {"type": int}))),
    "rkt-scan": (_cmd_rkt_scan, (
        ("--inner", {"required": True}),
        ("--s", {"type": float, "required": True}),
        ("--lambda", {"dest": "lam", "codec": _shaped("points")}),
        ("--grid", {"type": int, "default": RKT_GRID}))),
    "counterex": (_cmd_counterex, (
        ("gen", {"nargs": "?", "default": "gen", "choices": ("gen",)}),
        ("--kind", {"choices": ("blaschke", "singular"), "default": "blaschke"}),
        ("--p", {"type": float, "default": 3.0}),
        ("--count", {"type": int, "default": 20}),
        ("--degrees", {"codec": functools.partial(_listify, cast=int)}))),
    "carleson": (_cmd_carleson, (
        ("--inner", {"required": True}), ("--atoms", {}),
        ("--density", {"codec": _shaped("dict")}), ("--grid", {"type": int}))),
}


@functools.cache  # argparse parsers are not changed by parsing; build once
def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file overriding flags")
    common.add_argument("--output", help="output path (default: stdout)")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    ap = argparse.ArgumentParser(prog="ttolab", parents=[common],
                                 description="truncated Toeplitz operator laboratory")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        p = sub.add_parser(name, parents=[common])
        for flag, kw in flags:  # required flags are checked after the config file is read
            p.add_argument(flag, **{k: v for k, v in kw.items()
                                    if k not in ("required", "codec")})
    return ap


def _effective_config(args) -> dict:
    """The flags overridden by the config file, nulls dropped, each value decoded
    (ValidationError where a number is not finite)."""
    flags = {flag[2:]: kw  # config key -> argparse keywords
             for flag, kw in COMMANDS[args.command][1] if flag.startswith("--")}
    cfg = {key: getattr(args, kw.get("dest", key)) for key, kw in flags.items()}
    if args.config:
        file_cfg = _read_json(args.config)
        if not isinstance(file_cfg, dict):
            raise ValidationError("a config file holds a JSON object")
        unknown = set(file_cfg) - set(flags)
        if unknown:
            raise ValidationError(f"unknown keys for {args.command}: {sorted(unknown)}")
        bad = {k: v for k, v in file_cfg.items() if _impossible(v, flags[k])}
        if bad:
            raise ValidationError(f"config values that no flag gives: {json.dumps(bad)}")
        cfg.update(file_cfg)
    missing = [f"--{key}" for key, kw in flags.items() if kw.get("required") and cfg[key] is None]
    if missing:
        raise ValidationError(f"the following arguments are required: {', '.join(missing)}")
    try:
        cfg = {key: _decode(key, value, flags[key])
               for key, value in cfg.items() if value is not None}
    except OverflowError as exc:  # a JSON integer beyond the floats
        raise ValidationError(f"numbers must be finite: {exc}") from None
    bad = [f"--{key}" for key, value in cfg.items() if _nonfinite(value, key) is not None]
    if bad:
        raise ValidationError(f"numbers must be finite: {', '.join(bad)} holds one that is not")
    return cfg


def _decode(key: str, value, kw: dict):
    """A flag's value by the flag's own rule, from the command line or a config file.

    A typed flag applies its type to the value's text, as argparse does; a choice
    or a switch is taken as given.  Other text is the JSON of the file it names,
    else inline JSON if it starts with '[' or '{', else the text itself; a flag's
    codec then turns that into the data its command computes with.
    """
    if "type" in kw:
        try:
            return kw["type"](str(value))
        except ValueError:
            raise ValidationError(f"argument --{key}: invalid {kw['type'].__name__} "
                                  f"value: {value!r}") from None
    if "choices" in kw or "action" in kw:
        return value
    if isinstance(value, str):
        text = value.strip()
        if os.path.isfile(text):
            value = _read_json(text)
        elif text.startswith(("[", "{")):
            value = json.loads(text)
    return kw["codec"](value) if "codec" in kw else value


def _impossible(value, kw: dict) -> bool:
    """Whether no use of the flag gives this config-file value."""
    if value is None:  # argparse fills a flag that has a default
        return "default" in kw
    return value not in kw.get("choices", [value])


def _config_hash(command: str, cfg: dict) -> str:
    """Hash of the decoded config, complex data as [re, im] float pairs: the
    values a command computes with, however they were spelled."""
    canon = json.dumps({"command": command, "config": cfg}, sort_keys=True,
                       default=lambda a: _pairs(a).tolist())
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _emit(payload, csv_rows, args, digest: str):
    if args.format == "csv" and csv_rows is None:
        raise ValidationError(f"{args.command} has no CSV representation")
    payload = {"config_hash": digest, "version": __version__, **payload}
    try:  # strict JSON, in either format: the CSV rows hold the payload's numbers
        text = _json_text(payload) + "\n"
    except ValueError:
        raise OverflowError(f"{_nonfinite(payload, None)} is not finite") from None
    if args.format == "csv":
        lines = [f"# config_hash={digest} version={__version__}"]
        lines += [row if isinstance(row, str) else ",".join(row)
                  for row in csv_rows]
        text = "\n".join(lines) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write {args.output}: {exc}") from exc
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
