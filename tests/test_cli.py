import json
import math

import numpy as np
import pytest

from phi4local import cli
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
], ids=["custom-missing", "counterterm-missing", "config-missing",
        "custom-malformed-name", "custom-vanishing-name", "custom-missing-field",
        "dim2-path", "dim2-products", "dim2-all", "dim2-solve", "dim2-scan",
        "out-is-a-file", "config-not-object", "counterterm-not-object",
        "custom-not-object", "custom-nan-field"])
def test_bad_config_exit_code(tmp_path, capsys, argv):
    args = argv(tmp_path) + SMALL
    if "--out" not in args:
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


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


def test_dim2_stays_valid_for_algebra():
    for argv in (["verify", "--suite", "algebra", "--dim", "2"],
                 ["enumerate", "--dim", "2"]):
        assert RunConfig.from_args(build_parser().parse_args(argv)).dim == 2
