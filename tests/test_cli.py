import json
import math

import numpy as np
import pytest

from phi4local import cli, equation
from phi4local.cli import RunConfig, build_parser, main
from phi4local.field import save_field


def test_enumerate_exit_codes(tmp_path):
    assert main(["enumerate", "--delta", "2/5", "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "universe.json").read_text())
    ws = [r["tree"] for r in data["trees"] if "W" in r["sets"]]
    assert ws == ["Xi"]
    assert main(["enumerate", "--delta", "1/3"]) == 2


def test_enumerate_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["enumerate", "--delta", "3/10", "--out", str(a)])
    main(["enumerate", "--delta", "3/10", "--out", str(b)])
    assert (a / "universe.json").read_bytes() == (b / "universe.json").read_bytes()


def test_verify_algebra(tmp_path):
    rc = main(["verify", "--suite", "algebra", "--delta", "2/5",
               "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "verify-algebra.json").read_text())
    assert report["failures"] == []
    assert report["config"]["delta"] == "2/5"


def test_verify_path_zero_noise(tmp_path):
    rc = main(["verify", "--suite", "path", "--delta", "9/20",
               "--noise", "zero:0:0", "--grid", "1/16,1/32,3",
               "--out", str(tmp_path)])
    assert rc == 0


def test_bad_lift_file(tmp_path):
    bad = tmp_path / "r.json"
    bad.write_text("{\"NotATree\": 1.0}")
    rc = main(["verify", "--suite", "path", "--delta", "9/20",
               "--lift", "counterterm:%s" % bad, "--grid", "1/16,1/32,3"])
    assert rc == 2


def test_config_file_roundtrip(tmp_path):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("delta = 9/20\nseed = 3\nnoise = trig:1:0\n")
    cfg = RunConfig.from_file(str(cfgfile))
    assert cfg.delta == "9/20" and cfg.seed == 3
    jfile = tmp_path / "run.json"
    jfile.write_text(json.dumps({"delta": "9/20", "seed": 3}))
    cfg2 = RunConfig.from_file(str(jfile))
    assert cfg2.delta == cfg.delta and cfg2.seed == cfg.seed
    with pytest.raises(ValueError):
        RunConfig.from_file(str(_write(tmp_path, "bad.cfg", "nope = 1\n")))


def _write(base, name, text):
    p = base / name
    p.write_text(text)
    return p


def test_scan_order_smoke(tmp_path):
    rc = main(["scan", "--kind", "order", "--delta", "9/20",
               "--noise", "trig:0:0", "--grid", "1/16,1/32,3",
               "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "scan-order.json").read_text())
    assert data["rows"] and all("slope" in r for r in data["rows"])


def test_solve_smoke(tmp_path):
    rc = main(["solve", "--delta", "9/20", "--noise", "trig:0:0",
               "--grid", "1/16,1/32,3", "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "solve.json").read_text())
    assert "norms" in data["run"]


SMALL = ["--delta", "9/20", "--grid", "1/16,1/32,3"]
# JSON config values whose type cannot be their field's
JSON_TYPE_ERRORS = {
    "tol-number": {"tol": 5}, "tol-string-value": {"tol": {"chen": "small"}},
    "noise-number": {"noise": 7}, "lift-list": {"lift": ["x"]},
    "delta-float": {"delta": 0.45}, "dim-float": {"dim": 1.7},
    "seed-bool": {"seed": True}, "max-m-xi-list": {"max_m_xi": [3]},
}


def _custom_manifest(base, name):
    p = base / "manifest.json"
    p.write_text(json.dumps({name: "field"}))
    return "custom:%s" % p


def _nan_manifest(base):
    grid = RunConfig(grid=SMALL[3]).make_grid()
    save_field(base / "field", grid, np.full((grid.nt, grid.nx), np.nan))
    return _custom_manifest(base, "[I(One) I(Xi) I(Xi)]")


@pytest.mark.parametrize("argv", [
    lambda d: ["verify", "--suite", "path", "--lift",
               "custom:%s" % (d / "missing.json")],
    lambda d: ["verify", "--suite", "path", "--lift",
               "counterterm:%s" % (d / "missing.json")],
    lambda d: ["--config", str(d / "missing.cfg"), "verify", "--suite", "path"],
    lambda d: ["verify", "--suite", "path", "--lift",
               _custom_manifest(d, "I(I(Xi)")],
    lambda d: ["verify", "--suite", "path", "--lift",
               _custom_manifest(d, "Im1(One)")],
    lambda d: ["verify", "--suite", "path", "--lift",
               _custom_manifest(d, "[I(Xi) I(Xi) I(Xi)]")],
    lambda d: ["verify", "--suite", "path", "--dim", "2"],
    lambda d: ["verify", "--suite", "products", "--dim", "2"],
    lambda d: ["verify", "--suite", "all", "--dim", "2"],
    lambda d: ["solve", "--dim", "2"],
    lambda d: ["scan", "--kind", "apriori", "--dim", "2"],
    lambda d: ["enumerate", "--out", str(_write(d, "taken", ""))],
    lambda d: ["--config", str(_write(d, "list.json", '["x"]')),
               "verify", "--suite", "path"],
    lambda d: ["verify", "--suite", "path", "--lift",
               "counterterm:%s" % _write(d, "list.json", '["x"]')],
    lambda d: ["verify", "--suite", "path", "--lift",
               "custom:%s" % _write(d, "list.json", '["x"]')],
    lambda d: ["verify", "--suite", "path", "--lift", _nan_manifest(d)],
    *[lambda d, v=v: ["--config", str(_write(d, "typed.json", json.dumps(v))),
                      "verify", "--suite", "products"]
      for v in JSON_TYPE_ERRORS.values()],
    lambda d: ["verify", "--suite", "path", "--grid", "0,1/256,3"],
    lambda d: ["verify", "--suite", "path", "--grid", "nan,1/256,3"],
    lambda d: ["verify", "--suite", "path", "--grid", "1/16,1/0,3"],
    lambda d: ["verify", "--suite", "path", "--delta", "1/0"],
    lambda d: ["scan", "--kind", "apriori", "--radii", "0,0.2"],
    lambda d: ["scan", "--kind", "apriori", "--radii", "1.5,2"],
], ids=["custom-missing", "counterterm-missing", "config-missing",
        "custom-malformed-name", "custom-vanishing-name", "custom-missing-field",
        "dim2-path", "dim2-products", "dim2-all", "dim2-solve", "dim2-scan",
        "out-is-a-file", "config-not-object", "counterterm-not-object",
        "custom-not-object", "custom-nan-field",
        *["config-" + name for name in JSON_TYPE_ERRORS],
        "grid-zero-step", "grid-nan-step", "grid-zero-denominator",
        "delta-zero-denominator", "radii-zero", "radii-above-one"])
def test_bad_config_exit_code(tmp_path, capsys, argv):
    args = argv(tmp_path)
    for flag, value in zip(SMALL[::2], SMALL[1::2]):
        if flag not in args:
            args += [flag, value]
    if "--out" not in args:
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_numerical_abort_sidecar(tmp_path, monkeypatch, capsys):
    diagnostics = {"t": 0.5, "max": 2e6, "trace": {"kind": "smooth"}}

    def abort(*args, **kwargs):
        raise equation.NumericalAbort("cap exceeded", diagnostics)
    monkeypatch.setattr(equation, "solve_remainder", abort)
    out = tmp_path / "out"
    assert main(["solve", *SMALL, "--out", str(out)]) == 3
    assert sorted(p.name for p in out.iterdir()) == ["numerical-abort.json"]
    data = json.loads((out / "numerical-abort.json").read_text())
    assert data == {"message": "cap exceeded", "diagnostics": diagnostics}
    assert str(out / "numerical-abort.json") in capsys.readouterr().err
    # without --out nothing is written, not even to stdout
    assert main(["solve", *SMALL]) == 3
    assert capsys.readouterr().out == ""


def test_internal_error_exit_code(monkeypatch, capsys):
    def boom(cfg):
        raise KeyError("lost")
    monkeypatch.setattr(cli, "cmd_enumerate", boom)
    assert main(["enumerate"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: KeyError: 'lost'\nTraceback")


def test_summary_row_fails_on_nan():
    assert cli._summary_row("chen", [0.0, 1e-12], 1e-8)["status"] == "pass"
    assert cli._summary_row("chen", [], 1e-8)["status"] == "pass"
    for bad in ([0.0, math.nan, 1e-12], [math.nan], [math.inf]):
        row = cli._summary_row("chen", bad, 1e-8)
        assert row["status"] == "FAIL" and not math.isfinite(row["residual"])


def _strict_loads(text):
    def reject(token):
        raise ValueError("bare %s token" % token)
    return json.loads(text, parse_constant=reject)


def test_emit_writes_nonfinite_floats_as_strings(tmp_path, monkeypatch, capsys):
    finite = {"rows": [cli._summary_row("chen", [0.0, 1e-12], 1e-8)],
              "x": np.arange(3.0), "c": np.float32(0.5)}
    cli._emit(RunConfig(), "report", finite)
    # finite reports keep the bytes of a plain dump
    assert capsys.readouterr().out == json.dumps(
        finite, indent=1, sort_keys=True, default=cli._json_default) + "\n"
    row = cli._summary_row("chen", [0.0, math.nan], 1e-8)
    cli._emit(RunConfig(), "report", {"rows": [row], "x": np.array([-math.inf])})
    data = _strict_loads(capsys.readouterr().out)
    assert data["rows"][0]["residual"] == "NaN" and data["x"] == ["-Infinity"]
    assert data["rows"][0]["status"] == "FAIL"

    diagnostics = {"t": 0.5, "max": math.inf}

    def abort(*args, **kwargs):
        raise equation.NumericalAbort("cap exceeded", diagnostics)
    monkeypatch.setattr(equation, "solve_remainder", abort)
    out = tmp_path / "out"
    assert main(["solve", *SMALL, "--out", str(out)]) == 3
    data = _strict_loads((out / "numerical-abort.json").read_text())
    assert data["diagnostics"] == {"t": 0.5, "max": "Infinity"}


def test_dim2_stays_valid_for_algebra():
    for argv in (["verify", "--suite", "algebra", "--dim", "2"],
                 ["enumerate", "--dim", "2"]):
        assert RunConfig.from_args(build_parser().parse_args(argv)).dim == 2
