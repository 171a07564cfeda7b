import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from ttolab import cli
from ttolab.cli import main
from ttolab.counterex import gen_blaschke_counterexample
from ttolab.inner import BoundaryPoint, cohn_sum, from_json


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_kernels_monomial(capsys):
    code, out = run_cli(["kernels", "--inner", '{"type":"monomial","degree":2}',
                         "--lambda", "0"], capsys)
    assert code == 0
    data = json.loads(out)
    co = [complex(a, b) for a, b in data["coefficients"]]
    assert abs(co[0] - 1.0) < 1e-12 and abs(co[1]) < 1e-12
    assert "config_hash" in data and "version" in data


def test_cf_extend_inline_coeffs(capsys):
    code, out = run_cli(["cf-extend", "--coeffs", "[1,1]"], capsys)
    assert code == 0
    data = json.loads(out)
    assert abs(data["norm"] - 1.6180339887) < 1e-9
    assert not data["suboptimal"]


def test_rkt_scan_closed_form_field(capsys):
    code, out = run_cli(["rkt-scan", "--inner",
                         '{"type":"singular","atoms":[{"angle":0,"mass":1}]}',
                         "--s", "0.5", "--lambda", "0", "--grid", "4096"], capsys)
    assert code == 0
    data = json.loads(out)
    assert abs(data["rows"][0]["closed_form"] - 0.2689414) < 1e-7


def test_rkt_scan_lambda_reads_points_like_every_command(capsys):
    # an [re, im] pair is one point, as in `kernels`; a list of values is several
    inner = '{"type":"singular","atoms":[{"angle":0,"mass":1}]}'
    points = {"[0.3,0.1]": [[0.3, 0.1]], "0.3,0.1": [[0.3, 0.1]], "0.3": [[0.3, 0.0]],
              "[0.3]": [[0.3, 0.0]], "[[0.3,0.1],0.5]": [[0.3, 0.1], [0.5, 0.0]],
              "[0.3,0.1,0.5]": [[0.3, 0.0], [0.1, 0.0], [0.5, 0.0]]}
    for text, want in points.items():
        code, out = run_cli(["rkt-scan", "--inner", inner, "--s", "0.5",
                             "--lambda", text, "--grid", "1024"], capsys)
        assert code == 0, text
        assert [r["lambda"] for r in json.loads(out)["rows"]] == want, text
    code, out = run_cli(["kernels", "--inner", '{"type":"monomial","degree":2}',
                         "--lambda", "[0.3,0.1]"], capsys)
    assert code == 0
    co = [complex(a, b) for a, b in json.loads(out)["coefficients"]]
    assert abs(co[1] - complex(0.3, -0.1)) < 1e-12  # k_lambda = 1 + conj(lambda) z


def test_build_and_transport(capsys, tmp_path):
    code, out = run_cli(["build", "--inner", '{"type":"monomial","degree":2}',
                         "--symbol", '{"1": [1, 0]}'], capsys)
    assert code == 0
    mat = json.loads(out)["matrix"]
    assert abs(complex(*mat[1][0]) - 1.0) < 1e-12
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps(mat))
    code, out = run_cli(["transport", "--matrix", str(mfile), "--alpha", "0,0"],
                        capsys)
    assert code == 0
    moved = json.loads(out)["matrix"]
    assert abs(complex(*moved[1][0]) + 1.0) < 1e-12  # DAD flips the sign


def test_fejer_split_cli(capsys):
    code, out = run_cli(["fejer-split", "--N", "8",
                         "--symbol", '{"0": [1, 0], "3": [0, 1]}'], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["phi1"]["0"] == [1.0, 0.0]
    total = complex(*data["phi1"].get("3", [0, 0])) \
        + complex(*data["phi2"].get("3", [0, 0])) \
        + complex(*data["phi3"].get("3", [0, 0]))
    assert abs(total - 1j) < 1e-15


def test_cohn_growth_csv(capsys):
    code, out = run_cli(["cohn-growth", "--inner",
                         '{"type":"blaschke","zeros":[{"re":0,"im":0,"mult":1}]}',
                         "--zeta", "0", "--p", "2", "--terms", "1",
                         "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1].startswith("# inner=")  # scan header documents the spec
    assert lines[2] == "k,partial_sum"
    assert lines[3] == "1,1.000000000000e+00"


def test_cohn_growth_partial_sums_are_cohn_sum_bit_for_bit(capsys):
    theta = gen_blaschke_counterexample(3.0, 20).theta
    code, out = run_cli(["cohn-growth", "--inner", json.dumps(theta.to_json()),
                         "--zeta", "0", "--p", "3", "--terms", "20"], capsys)
    assert code == 0
    want = [cohn_sum(theta, BoundaryPoint(0.0), 3.0, k) for k in range(1, 21)]
    assert json.loads(out)["partial_sums"] == want


def test_the_truncated_flag_is_a_json_boolean(capsys):
    # true marks a truncation of an infinite family (a grid space); false or no key
    # an exact spec, which is how to_json writes it back
    specs = {"blaschke": '{"type":"blaschke","zeros":[{"re":0.5,"im":0}]%s}',
             "singular": '{"type":"singular","atoms":[{"angle":0,"mass":1}]%s}'}
    for kind, spec in specs.items():
        for flag, truncated in ((',"truncated":true', True), (',"truncated":false', False),
                                ("", False)):
            theta = from_json(json.loads(spec % flag))
            assert theta.truncated is truncated
            assert from_json(theta.to_json()).to_json() == theta.to_json()
            code, out = run_cli(["kernels", "--inner", spec % flag, "--lambda", "0.5"], capsys)
            assert code == 0
            if kind == "blaschke":
                assert json.loads(out)["mode"] == ("truncated" if truncated else "exact")
        for bad in ('"false"', "0.5", "1", "0", '"no"', "[]", "null"):
            assert main(["kernels", "--inner", spec % f',"truncated":{bad}',
                         "--lambda", "0.5"]) == 2, (kind, bad)
            assert "truncated must be true or false" in capsys.readouterr().err


def test_recover_cli(capsys, tmp_path):
    import ttolab as t
    rng = np.random.default_rng(5)
    space = t.ModelSpace(t.BlaschkeProduct([0.3, -0.2 + 0.4j, 0.5j]))
    pp = space.from_coeffs(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    pm = space.from_coeffs(rng.standard_normal(3) + 1j * rng.standard_normal(3))
    op = t.build(space, t.PairSymbol(pp, pm))
    lams = [0.1, 0.3 + 0.2j, -0.4, 0.5j, -0.2 - 0.3j, 0.55, 0.15 - 0.55j,
            -0.62j, 0.44 + 0.1j, -0.33 + 0.41j, 0.05, 0.7]
    rows = []
    for lam in lams:
        coeffs = op.apply(space.kernel(lam)).coeffs
        rows.append({"lambda": [lam.real, lam.imag] if isinstance(lam, complex)
                     else [float(lam), 0.0],
                     "coefficients": [[z.real, z.imag] for z in coeffs]})
    table = tmp_path / "table.json"
    table.write_text(json.dumps(rows))
    inner = json.dumps(space.theta.to_json())
    code, out = run_cli(["recover", "--inner", inner, "--table", str(table),
                         "--mu", "0.1"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["residual"] < 1e-7


MONO3_PAIR = (np.array([1.0, 0.5j, -0.25]), np.array([0.0, 0.3, 0.2 - 0.1j]))


def _mono3_table():
    """Kernel-action rows of the pair-symbol operator MONO3_PAIR on K_{z^3}."""
    import ttolab as t
    space = t.ModelSpace(t.Monomial(3))
    op = t.build(space, t.PairSymbol(*(space.from_coeffs(c) for c in MONO3_PAIR)))
    rows = []
    for j in range(12):
        lam = (0.2 + 0.15 * (j % 4)) * np.exp(2j * np.pi * j / 12)
        rows.append({"lambda": [lam.real, lam.imag],
                     "coefficients": [[z.real, z.imag]
                                      for z in op.apply(space.kernel(lam)).coeffs]})
    return json.dumps(rows)


def test_recover_table_relative_path(capsys, tmp_path, monkeypatch):
    # a path starting with '.' or a digit is read as a file, not inline JSON
    table = _mono3_table()
    monkeypatch.chdir(tmp_path)
    for path in ("./table.json", "1.json"):
        (tmp_path / path).write_text(table)
        code, out = run_cli(["recover", "--inner", '{"type":"monomial","degree":3}',
                             "--table", path, "--mu", "0.2"], capsys)
        assert code == 0
        assert json.loads(out)["residual"] < 1e-7


def test_recover_cli_accuracy(capsys):
    # on K_{z^3}, k_0 = 1, so the gauge phi_minus(mu) = 0 moves only coefficient 0
    code, out = run_cli(["recover", "--inner", '{"type":"monomial","degree":3}',
                         "--table", _mono3_table(), "--mu", "0.2"], capsys)
    assert code == 0
    data = json.loads(out)
    minus = MONO3_PAIR[1]
    want = minus - np.polyval(minus[::-1], complex(*data["mu"])) * np.eye(3)[0]
    got = np.array([complex(a, b) for a, b in data["phi_minus"]])
    assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want))


def test_recover_table_default_mu(capsys):
    # without --mu, mu maximizes |Theta(mu)| dist(mu, zeros) over the table's own
    # points: 0.5 on README's identity table, as --mu 0.5 gives
    table = '[{"lambda":0,"coefficients":[1,0]},{"lambda":0.5,"coefficients":[1,0.5]}]'
    args = ["recover", "--inner", '{"type":"monomial","degree":2}', "--table", table]
    code, out = run_cli(args, capsys)
    assert code == 0
    code, given = run_cli(args + ["--mu", "0.5"], capsys)
    assert code == 0
    out, given = json.loads(out), json.loads(given)
    assert out.pop("config_hash") != given.pop("config_hash")
    assert out == given and out["mu"] == [0.5, 0.0]


def test_recover_rejects_an_underdetermined_table(capsys):
    # one row cannot fix three coefficients per component; it used to exit 0
    # with "residual": 0.0
    code = main(["recover", "--inner", '{"type":"monomial","degree":3}', "--mu", "0.2",
                 "--table", '[{"lambda":[0.2,0],"coefficients":[[1,0],[0.5,0],[0,0.3]]}]'])
    assert code == 2
    assert "1 distinct lambda" in capsys.readouterr().err


def test_rank_one_at_a_grid_point(capsys):
    # zeta = 1 is a grid point of the symbol's quadrature
    code, out = run_cli(["rank-one", "--inner", '{"type":"monomial","degree":3}',
                         "--zeta", "0"], capsys)
    assert code == 0
    data = json.loads(out)
    assert np.all(np.isfinite(data["matrix"])) and np.isfinite(data["symbol_sup"])
    assert data["max_matrix_residual"] <= 1e-7


def test_counterex_output_feeds_back_as_inner(capsys):
    code, out = run_cli(["counterex", "gen", "--kind", "blaschke", "--count", "20"],
                        capsys)
    assert code == 0
    inner = json.dumps(json.loads(out)["theta"])
    code, _ = run_cli(["kernels", "--inner", inner, "--lambda", "0.5"], capsys)
    assert code == 0


def test_counterex_cli(capsys):
    code, out = run_cli(["counterex", "gen", "--kind", "singular",
                         "--p", "3", "--count", "12"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["all_pass"]


def test_counterex_theorem_check_cli(capsys):
    code, out = run_cli(["counterex", "gen", "--count", "20", "--degrees", "4,8"], capsys)
    assert code == 0
    chk = json.loads(out)["theorem_check"]
    assert chk["degrees"] == [4, 8] and chk["p_verdict"] == "diverging"
    # degrees beyond the 20 zeros are named, not silently capped
    assert main(["counterex", "gen", "--count", "20", "--degrees", "24,32"]) == 2
    assert "[24, 32]" in capsys.readouterr().err


def test_commands_on_K_z(capsys):
    # every operator on K_z is c I, and c is a bounded symbol for it
    code, out = run_cli(["assemble", "--matrix", "[[[2,1]]]"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["sup_norm"] == data["rho_hat"] == pytest.approx(5 ** 0.5, abs=1e-15)
    assert data["measured_constant"] == 1.0 and data["build_residual"] == 0.0
    code, out = run_cli(["fejer-split", "--N", "1", "--symbol", '{"0":[2,1],"1":[1,0]}'],
                        capsys)
    assert code == 0
    data = json.loads(out)
    assert (data["phi1"], data["phi2"], data["phi3"]) == ({"0": [2.0, 1.0]}, {"1": [1.0, 0.0]}, {})


def test_carleson_cli(capsys):
    code, out = run_cli(["carleson", "--inner", '{"type":"monomial","degree":3}',
                         "--density", '{"0": [1, 0]}'], capsys)
    assert code == 0
    data = json.loads(out)
    assert abs(data["carleson_constant"] - 1.0) < 1e-10


def test_exit_codes(capsys, tmp_path):
    # validation error
    assert main(["kernels", "--inner", "{bad", "--lambda", "0"]) == 2
    capsys.readouterr()
    # domain error: kernel at an atom of the singular part
    assert main(["kernels", "--inner",
                 '{"type":"singular","atoms":[{"angle":0,"mass":1}]}',
                 "--lambda", "1,0"]) == 4
    capsys.readouterr()
    # unknown config keys rejected
    assert main(["cf-extend", "--coeffs", "[1,1]", "--config", "/dev/null"]) == 2
    capsys.readouterr()
    # a matrix of scalars instead of [re, im] pairs is a validation error
    assert main(["transport", "--matrix", "[[1,2],[3,1]]", "--alpha", "0.3"]) == 2
    capsys.readouterr()
    # every other library error exits 4 (here SupportOverflow), also for support
    # within N but beyond the windows' partition range (|n| <= 3 on N = 4)
    assert main(["fejer-split", "--N", "4", "--symbol", '{"9":1}']) == 4
    capsys.readouterr()
    assert main(["fejer-split", "--N", "4", "--symbol", '{"4":[1,0],"0":[1,0]}']) == 4
    assert "partition range |n| <= 3" in capsys.readouterr().err
    # numerical failures exit 3: a failed SVD (numpy's LinAlgError is a
    # ValueError) and an overflow in the diagonal means of a matrix
    assert main(["build", "--inner", '{"type":"monomial","degree":3}',
                 "--symbol", '{"0":1e307,"1":1e307}']) == 3
    capsys.readouterr()
    assert main(["assemble", "--matrix",
                 "[[[1e308,0],[1e308,0]],[[1e308,0],[1e308,0]]]"]) == 3
    capsys.readouterr()
    # and so does a result that is not finite, which strict JSON cannot hold:
    # an overflowing rho-hat, and the 0/0 measured constant of the zero operator
    assert main(["assemble", "--matrix", "[[[1,0],[0,0]],[[0,0],[1e308,0]]]"]) == 3
    assert "not finite" in capsys.readouterr().err
    assert main(["assemble", "--matrix", "[[[0,0],[0,0]],[[0,0],[0,0]]]"]) == 3
    assert "measured_constant is not finite" in capsys.readouterr().err
    # so does quadrature on an exact space whose grid does not resolve the basis
    blaschke = ('{"type":"blaschke","zeros":[{"re":0.3,"im":0.1},{"re":-0.2,"im":0.4},'
                '{"re":0,"im":-0.95}]}')
    assert main(["build", "--inner", blaschke, "--symbol", '{"0":1,"3":[0.5,0.2]}',
                 "--grid", "16"]) == 3
    assert "n = 16 points" in capsys.readouterr().err
    # commands that need an exact space say so, by name
    singular = '{"type":"singular","atoms":[{"angle":0,"mass":1}]}'
    for args in (["rank-one", "--inner", singular, "--lambda", "0.2"],
                 ["build", "--inner", singular, "--symbol", '{"0":1}'],
                 ["recover", "--inner", singular, "--table", "[]"],
                 ["carleson", "--inner", singular]):
        assert main(args) == 2, args
        assert f"{args[0]} needs an exact model space" in capsys.readouterr().err
    # argparse refuses a counterex word other than gen, and --grid on recover,
    # which reads no grid (closed forms throughout)
    for args in (["counterex", "banana", "--count", "4"],
                 ["recover", "--inner", '{"type":"monomial","degree":3}', "--table", "[]",
                  "--grid", "4096"]):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2, args
        capsys.readouterr()
    # argument checks stay validation errors
    assert main(["rank-one", "--inner", '{"type":"monomial","degree":3}',
                 "--lambda", "1.5"]) == 2
    assert main(["cf-extend", "--coeffs", "[]"]) == 2
    capsys.readouterr()
    # malformed shapes and files are validation errors, not tracebacks
    mono3 = '{"type":"monomial","degree":3}'
    malformed = [
        ["kernels", "--inner", "[1]", "--lambda", "0"],
        ["build", "--inner", mono3, "--symbol", "[1]"],
        ["fejer-split", "--N", "4", "--symbol", "[1]"],
        ["carleson", "--inner", mono3, "--density", "[1]"],
        ["cf-extend", "--coeffs", "5"],
        ["cf-extend", "--coeffs", "[[1]]"],
        ["kernels", "--inner", mono3, "--lambda", "[0.3]"],
        ["cls-scan", "--inner", mono3, "--radii", "[[1]]"],
        ["recover", "--inner", mono3, "--table", "[1]"],
        # a kernel-action table point outside the closed disk
        ["recover", "--inner", mono3, "--mu", "0.3", "--table", json.dumps(
            [{"lambda": lam, "coefficients": [1, 0, 0]} for lam in (0.3, [0, -0.4], 1.5)])],
        ["carleson", "--inner", mono3, "--atoms", "[1]"],
        ["assemble", "--batch", "5"],
        ["cf-extend", "--coeffs", "[1]", "--config", "/nonexistent/cfg.json"],
        ["cf-extend", "--coeffs", "[1]", "--output", "/nonexistent/dir/out.json"],
        # points that are not finite or lie outside the closed disk
        ["kernels", "--inner", mono3, "--lambda", "nan"],
        ["cls-scan", "--inner", mono3, "--radii", "1.5"],
        # an empty scan is not a result
        ["cls-scan", "--inner", mono3, "--angles", "0"],
        ["cls-scan", "--inner", mono3, "--angles", "-3"],
        ["cohn-growth", "--inner", mono3, "--zeta", "0.5", "--terms", "0"],
        ["rkt-scan", "--inner", '{"type":"singular","atoms":[{"angle":0,"mass":1}]}',
         "--s", "0.5", "--lambda", "[]"],
        ["cls-scan", "--inner", mono3, "--radii", "[]"],
        ["cls-scan", "--inner", mono3, "--radii", ""],
        # normalized kernels exist only inside the disk
        ["rkt-scan", "--inner", '{"type":"singular","atoms":[{"angle":0,"mass":1}]}',
         "--s", "0.5", "--lambda", "-1"],
        # JSON values of the wrong type inside a spec or an atom list
        ["kernels", "--inner", '{"type":"blaschke","zeros":5}', "--lambda", "0"],
        ["kernels", "--inner", '{"type":"blaschke","zeros":[5]}', "--lambda", "0"],
        ["kernels", "--inner", '{"type":"monomial","degree":[3]}', "--lambda", "0"],
        ["kernels", "--inner", '{"type":"product","factors":null}', "--lambda", "0"],
        ["carleson", "--inner", mono3, "--atoms", '[{"angle":0,"mass":null}]'],
        # a measure's density is real and nonnegative
        ["carleson", "--inner", mono3, "--density", '{"0":[-5,0]}'],
        ["carleson", "--inner", mono3, "--density", '{"1":[1,0]}'],
        # a grid past the largest size is refused before it is allocated
        ["kernels", "--inner", mono3, "--lambda", "0", "--grid", str(2 ** 40)],
        # the family exponent must be a finite number above 2
        ["counterex", "--p", "inf", "--degrees", "4,8"],
        ["counterex", "--p", "nan"],
        # the Ahern-Clark sums need a finite exponent
        ["cohn-growth", "--inner", mono3, "--zeta", "0.5", "--p", "inf"],
        ["cohn-growth", "--inner", mono3, "--zeta", "0.5", "--p", "nan"],
        # every number a flag, a config value or an inner spec decodes to is finite
        ["cf-extend", "--coeffs", '["nan"]'],
        ["cohn-growth", "--inner", mono3, "--zeta", "nan"],
        ["kernels", "--inner", '{"type":"blaschke","zeros":[{"delta":0.5,"angle":"nan"}]}',
         "--lambda", "0.2"],
        ["cf-extend", "--coeffs", "[1" + "0" * 400 + "]"],  # an integer beyond the floats
        # a negative tolerance or a budget below one node is malformed, not unconverged
        ["cls-scan", "--inner", mono3, "--tol", "-1"],
        ["cls-scan", "--inner", mono3, "--budget", "0"],
        ["cls-scan", "--inner", mono3, "--budget", "-5"],
        # family sizes are refused before any array: 8^-count underflows past 358,
        # and the singular family's last atom meets the base point past 39
        ["counterex", "--count", "359"],
        ["counterex", "--kind", "singular", "--count", "40"],
        # the theorem check truncates a Blaschke family
        ["counterex", "--kind", "singular", "--degrees", "8,16"],
        # a JSON number is not a bool, and an integer field takes no fraction
        ["kernels", "--inner", '{"type":"monomial","degree":true}', "--lambda", "0"],
        ["kernels", "--inner", '{"type":"monomial","degree":3.9}', "--lambda", "0"],
        ["kernels", "--inner", '{"type":"blaschke","zeros":[{"re":0.5,"im":0,"mult":2.7}]}',
         "--lambda", "0"],
        ["cf-extend", "--coeffs", "[true, 1]"],
        ["cls-scan", "--inner", mono3, "--radii", "[true]"],
        ["counterex", "--degrees", "[8.5, 16]"],
        # a kernel-action table gives each lambda one row
        ["recover", "--inner", mono3, "--mu", "0.3", "--table", json.dumps(
            [{"lambda": lam, "coefficients": c}
             for lam, c in ((0.3, [9, 9, 9]), (0.3, [1, 0, 0]), (0.5, [0, 1, 0]),
                            (0.1, [0, 0, 1]))])],
    ]
    # a config file must hold an object of values that the flags could give:
    # no null for a flag with a default, a typed flag's value as its text would
    # read, a choice
    for i, (command, text) in enumerate((("cf-extend", "[1,2]"), ("cf-extend", "3"),
                                         ("counterex", '{"p": null}'),
                                         ("rkt-scan", '{"grid": null}'),
                                         ("counterex", '{"count": [20]}'),
                                         ("counterex", '{"kind": "bogus"}'),
                                         ("cls-scan", '{"radii": []}'),
                                         ("kernels", '{"lambda": true}'))):
        cfg = tmp_path / f"cfg{i}.json"
        cfg.write_text(text)
        flags = {"cf-extend": ["--coeffs", "[1]"], "counterex": [],
                 "rkt-scan": ["--inner", '{"type":"singular","atoms":[{"angle":0,"mass":1}]}',
                              "--s", "0.5"], "cls-scan": ["--inner", mono3],
                 "kernels": ["--inner", mono3]}[command]
        malformed.append([command, *flags, "--config", str(cfg)])
    for args in malformed:
        assert main(args) == 2, args
        assert "Traceback" not in capsys.readouterr().err


def test_config_null_is_an_absent_flag(tmp_path, capsys):
    # for a flag without a default, null in a config file means the flag is
    # absent, in the config hash too
    cfg = tmp_path / "cfg.json"
    outs = []
    for text in ('{"grid": null}', "{}"):
        cfg.write_text(text)
        assert main(["kernels", "--inner", '{"type":"monomial","degree":2}',
                     "--lambda", "0.1", "--config", str(cfg)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


def test_config_gives_a_required_flag(tmp_path, capsys):
    # a required flag may come from the config file alone (a typed one read
    # as its flag's text); one missing from both exits 2 naming the flag,
    # with no SystemExit out of main
    symbol = json.dumps({"0": [1, 0], "3": [0, 1]})
    code, ref = run_cli(["fejer-split", "--N", "8", "--symbol", symbol], capsys)
    assert code == 0
    cfg = tmp_path / "cfg.json"
    for flags, doc in ((["--N", "8"], {"symbol": json.loads(symbol)}),
                       (["--symbol", symbol], {"N": 8}),
                       (["--symbol", symbol], {"N": "8"})):
        cfg.write_text(json.dumps(doc))
        assert run_cli(["fejer-split", *flags, "--config", str(cfg)], capsys) == (0, ref)
    for flags, text, missing in ((["--N", "8"], "{}", "--symbol"),
                                 (["--N", "8", "--symbol", symbol], '{"symbol": null}', "--symbol"),
                                 ([], "{}", "--N, --symbol")):
        cfg.write_text(text)
        assert main(["fejer-split", *flags, "--config", str(cfg)]) == 2
        assert f"required: {missing}" in capsys.readouterr().err
    assert main(["fejer-split", "--N", "8"]) == 2
    assert "required: --symbol" in capsys.readouterr().err


def test_a_missing_kernel_point_names_its_flag(capsys):
    # kernels needs --lambda; rank-one needs --lambda or --zeta
    mono = '{"type":"monomial","degree":2}'
    assert main(["kernels", "--inner", mono]) == 2
    assert "required: --lambda" in capsys.readouterr().err
    assert main(["rank-one", "--inner", mono]) == 2
    assert "rank-one needs --lambda or --zeta" in capsys.readouterr().err


def test_rank_one_refuses_both_kernel_points(capsys):
    # --zeta and --lambda name two operators; neither is dropped in silence
    assert main(["rank-one", "--inner", MONO2, "--zeta", "0.7", "--lambda", "0.3"]) == 2
    err = capsys.readouterr().err
    assert "--lambda" in err and "--zeta" in err and "Traceback" not in err


def test_unknown_config_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"coeffs": [1, 1], "bogus": 3}))
    assert main(["cf-extend", "--coeffs", "[1,1]", "--config", str(cfg)]) == 2
    capsys.readouterr()


def test_determinism(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for path in (out1, out2):
        code = main(["cf-extend", "--coeffs", "[1,1,0.5]",
                     "--output", str(path)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    csv1, csv2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (csv1, csv2):
        main(["cls-scan", "--inner", '{"type":"monomial","degree":4}',
              "--radii", "0,0.5,0.9", "--angles", "4",
              "--format", "csv", "--output", str(path)])
    assert csv1.read_bytes() == csv2.read_bytes()


def test_exit_code_no_convergence(capsys):
    # an unreachable tolerance within a tiny budget exits 3
    code = main(["cls-scan", "--inner",
                 '{"type":"singular","atoms":[{"angle":0,"mass":1}]}',
                 "--radii", "0.5", "--angles", "2",
                 "--tol", "1e-12", "--budget", "8192"])
    assert code == 3
    capsys.readouterr()


def test_assemble_batch_csv(capsys, tmp_path):
    import numpy as np
    rng = np.random.default_rng(2)
    mats = []
    for _ in range(2):
        col = rng.standard_normal(4)
        mat = [[[float(col[abs(i - j)]), 0.0] for j in range(4)] for i in range(4)]
        mats.append(mat)
    batch = tmp_path / "batch.json"
    batch.write_text(json.dumps(mats))
    code = main(["assemble", "--batch", str(batch),
                 "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].startswith("index,N,sup_norm")
    assert len(lines) == 4


MONO2 = '{"type":"monomial","degree":2}'
MATRIX2 = [[[1, 0], [2, 0]], [[3, 0], [1, 0]]]


def test_complex_flags_take_pairs(capsys):
    # every complex flag reads re, "re,im" and [re, im] alike
    outs = []
    for alpha in ("0.3,0.2", "[0.3,0.2]"):
        code, out = run_cli(["transport", "--matrix", json.dumps(MATRIX2),
                             "--alpha", alpha], capsys)
        assert code == 0, alpha
        outs.append(json.loads(out)["matrix"])
    assert outs[0] == outs[1]
    mono3, table = '{"type":"monomial","degree":3}', _mono3_table()
    code, out = run_cli(["recover", "--inner", mono3, "--table", table,
                         "--mu", "[0.2,0]"], capsys)
    assert code == 0
    first = json.loads(out)
    assert first["mu"] == [0.2, 0.0]
    # the printed mu reads back in and gives the same recovery, and every
    # spelling of one value gives the same output, config hash included
    for mu in (json.dumps(first["mu"]), "0.2", "0.2,0", "[0.2, 0.0]"):
        code, again = run_cli(["recover", "--inner", mono3, "--table", table,
                               "--mu", mu], capsys)
        assert code == 0 and json.loads(again) == first, mu


def test_config_numbers_read_as_their_flag_text(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    base = ["kernels", "--inner", MONO2, "--lambda", "0.1", "--config", str(cfg)]
    cfg.write_text('{"grid": "4096"}')
    code, from_text = run_cli(base, capsys)
    assert code == 0
    code, from_flag = run_cli(base[:-2] + ["--grid", "4096"], capsys)
    assert code == 0 and from_text == from_flag
    for text in ('{"grid": 4096.5}', '{"grid": "4096.5"}', '{"grid": true}'):
        cfg.write_text(text)
        assert main(base) == 2, text
        err = capsys.readouterr().err
        assert "argument --grid: invalid int value" in err and "Traceback" not in err
    cfg.write_text('{"zeta": "0.7"}')
    code, out = run_cli(["rank-one", "--inner", MONO2, "--config", str(cfg)], capsys)
    assert code == 0
    code, ref = run_cli(["rank-one", "--inner", MONO2, "--zeta", "0.7"], capsys)
    assert out == ref


def test_config_documents_are_json_objects(tmp_path, capsys):
    # a document flag's value in a config file is the JSON itself
    cfg = tmp_path / "cfg.json"
    mono3 = '{"type":"monomial","degree":3}'
    cases = [
        (["fejer-split", "--N", "8", "--symbol", '{"0": [1, 0], "3": [0, 1]}'],
         {"symbol": {"0": [1, 0], "3": [0, 1]}}),
        (["carleson", "--inner", mono3, "--density", '{"0": [1, 0]}'],
         {"density": {"0": [1, 0]}}),
        (["recover", "--inner", mono3, "--mu", "0.2", "--table", _mono3_table()],
         {"table": json.loads(_mono3_table())}),
    ]
    for flags, doc in cases:
        code, ref = run_cli(flags, capsys)
        assert code == 0, flags
        key = next(iter(doc))
        placeholder = flags[:flags.index("--" + key) + 1] + ["null"] \
            + flags[flags.index("--" + key) + 2:]
        cfg.write_text(json.dumps(doc))
        code, out = run_cli(placeholder + ["--config", str(cfg)], capsys)
        assert code == 0, flags
        assert out == ref  # the same values read, so the same hash too


def test_inner_names_a_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "spec.json").write_text(MONO2)
    code, from_file = run_cli(["kernels", "--inner", "spec.json", "--lambda", "0.2"], capsys)
    assert code == 0
    code, inline = run_cli(["kernels", "--inner", MONO2, "--lambda", "0.2"], capsys)
    assert code == 0 and from_file == inline


def test_config_hash_covers_what_was_read(tmp_path, capsys):
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps(MATRIX2))

    def digest(matrix):
        code, out = run_cli(["transport", "--matrix", matrix, "--alpha", "0.3"], capsys)
        assert code == 0
        return json.loads(out)["config_hash"]

    by_file = digest(str(mfile))
    assert by_file == digest(json.dumps(MATRIX2))
    mfile.write_text(json.dumps([[[1, 0], [2, 0]], [[3, 0], [1, 1]]]))
    assert digest(str(mfile)) != by_file


def test_cf_extend_of_zero_data_is_pinned(capsys):
    # zero data take the constant-data exit: the zero function, 8 Taylor zeros
    pair = "  [\n   0.0,\n   0.0\n  ]"
    want = ('{\n "config_hash": "8c515ab65a7725e8",\n "modulus_defect": 0.0,\n'
            ' "norm": 0.0,\n "suboptimal": false,\n "taylor": [\n'
            + ",\n".join([pair] * 8)
            + '\n ],\n "taylor_defect": 0.0,\n "version": "0.1.0"\n}\n')
    assert run_cli(["cf-extend", "--coeffs", "[0,0,0]"], capsys) == (0, want)



def test_kernels_prints_a_grid_kernel_as_json_dumps_does(capsys):
    # a 4096-sample GridSpace kernel: the large array path of the JSON writer
    code, out = run_cli(["kernels", "--inner", '{"type":"singular","atoms":[{"angle":0,"mass":1}]}',
                         "--lambda", "0.5"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["mode"] == "truncated" and len(data["samples"]) == 4096
    assert out == json.dumps(data, sort_keys=True, indent=1) + "\n"


_EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, 1e16, 1e-7])
_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | _EDGE_FLOATS
_TEXT = st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7fa\u00e9\u20ac\U0001d11e\ud800')
                | st.characters(), max_size=6)
_SHAPES = st.sampled_from([(), (0,)]) | hnp.array_shapes(min_dims=1, max_dims=2, max_side=4)
_COMPLEX = st.complex_numbers(allow_nan=False, allow_infinity=False) | st.builds(
    complex, _EDGE_FLOATS, _EDGE_FLOATS)
_PAIRS = _SHAPES.flatmap(lambda shape: hnp.arrays(complex, shape, elements=_COMPLEX)).map(cli._pairs)
_PAYLOADS = st.recursive(
    st.none() | st.booleans() | st.integers() | _FLOATS | _TEXT | _PAIRS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=12)


def _as_lists(x):
    """x with each array replaced by its nested list."""
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, dict):
        return {k: _as_lists(v) for k, v in x.items()}
    return type(x)(map(_as_lists, x)) if isinstance(x, (list, tuple)) else x


@settings(max_examples=300, deadline=None)
@given(_PAYLOADS)
def test_json_text_is_json_dumps_byte_for_byte(x):
    want = json.dumps(_as_lists(x), sort_keys=True, indent=1, allow_nan=False)
    assert cli._json_text(x) == want


@settings(max_examples=100, deadline=None)
@given(_PAYLOADS, st.sampled_from([math.nan, math.inf, -math.inf]), st.booleans())
def test_json_text_refuses_numbers_that_are_not_finite(x, bad, in_array):
    bad = cli._pairs([1.0, complex(0.5, bad)]) if in_array else bad
    for obj in ({"x": x, "bad": bad}, [x, [bad]]):
        with pytest.raises(ValueError):
            cli._json_text(obj)
