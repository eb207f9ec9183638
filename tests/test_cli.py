import contextlib
import functools
import io
import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phi4local import cli, equation, field as fieldmod, lift as liftmod, symtree
from phi4local.cli import RunConfig, build_parser, main
from phi4local.field import COARSE_GRID, save_field
from phi4local.lift import standard_families
from phi4local.symtree import canon, enumerate_universe, tree_name


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


def _write(base, name, text, encoding=None):
    p = base / name
    p.write_text(text, encoding=encoding)
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


def _custom_manifest(base, name, value="field"):
    p = base / "manifest.json"
    p.write_text(json.dumps({name: value}))
    return "custom:%s" % p


def _counterterms(base, values):
    """A counterterm lift of the given tree name -> JSON value map."""
    return "counterterm:%s" % _write(base, "ct.json", json.dumps(values))


def _nan_manifest(base):
    grid = RunConfig(grid=SMALL[3]).make_grid()
    save_field(base / "field", grid, np.full((grid.nt, grid.nx), np.nan))
    return _custom_manifest(base, "[I(One) I(Xi) I(Xi)]")


def _grid_manifest(base, grid, name="[I(One) I(Xi) I(Xi)]"):
    """A custom lift whose one field, keyed by `name`, is stored on `grid`."""
    save_field(base / "field", grid, grid.zeros())
    return _custom_manifest(base, name)


def _sidecar_manifest(base, key, value=None):
    """A custom lift whose one field's sidecar lacks `key`, or holds `value`
    there if one is given."""
    manifest = _grid_manifest(base, RunConfig(grid=SMALL[3]).make_grid())
    sidecar = json.loads((base / "field.json").read_text())
    if value is None:
        del sidecar[key]
    else:
        sidecar[key] = value
    (base / "field.json").write_text(json.dumps(sidecar))
    return manifest


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
    lambda d: ["verify", "--suite", "path", "--grid", "1/32,1/256,3",
               "--lift", _grid_manifest(d, COARSE_GRID)],
    # the run grid (SMALL) has the shape of the stored one
    lambda d: ["verify", "--suite", "path", "--lift",
               _grid_manifest(d, replace(COARSE_GRID, substeps=64))],
    *[lambda d, v=v: ["--config", str(_write(d, "typed.json", json.dumps(v))),
                      "verify", "--suite", "products"]
      for v in JSON_TYPE_ERRORS.values()],
    lambda d: ["verify", "--suite", "path", "--grid", "0,1/256,3"],
    lambda d: ["verify", "--suite", "path", "--grid", "nan,1/256,3"],
    lambda d: ["verify", "--suite", "path", "--grid", "1/16,1/0,3"],
    lambda d: ["verify", "--suite", "path", "--delta", "1/0"],
    lambda d: ["scan", "--kind", "apriori", "--radii", "0,0.2"],
    lambda d: ["scan", "--kind", "apriori", "--radii", "1.5,2"],
    lambda d: ["solve", "--noise", "trig:0:-1"],
    lambda d: ["solve", "--noise", "trig:abc:0"],
    lambda d: ["solve", "--grid", "1/32,1/256,1e9"],
    lambda d: ["solve", "--grid", "1/8,1/64,2"],
    lambda d: ["solve", "--grid", "1/8,1/64,0.5"],
    lambda d: ["verify", "--suite", "path", "--lift", _sidecar_manifest(d, "grid")],
    lambda d: ["verify", "--suite", "path", "--lift", _sidecar_manifest(d, "shape")],
    lambda d: ["verify", "--suite", "path", "--lift",
               _sidecar_manifest(d, "grid", [1, 2])],
    lambda d: ["verify", "--suite", "path", "--lift",
               _sidecar_manifest(d, "dtype", "no-such-type")],
    lambda d: ["verify", "--suite", "path", "--tol", "foo=1"],
    lambda d: ["--config", str(_write(d, "neg.json", '{"max_m_xi": -1}')),
               "verify", "--suite", "algebra"],
    # these exited 2 before only through main's ValueError handler
    lambda d: ["verify", "--suite", "path", "--noise", "foo:0:0"],
    lambda d: ["verify", "--suite", "algebra", "--seed", "-1"],
    lambda d: ["enumerate", "--dim", "0"],
    lambda d: ["verify", "--suite", "path", "--lift",
               _counterterms(d, {"[I(One) I(Xi) I(Xi)]": "big"})],
    lambda d: ["scan", "--kind", "order", "--grid", "1/8,1/64,3"],
    lambda d: ["verify", "--suite", "path", "--tol", "chen"],
    lambda d: ["enumerate", "--delta", "3/2"],
    # values of the wrong JSON type in a counterterm file or a manifest
    *[lambda d, v=v: ["verify", "--suite", "path", "--lift",
                      _counterterms(d, {"[I(One) I(Xi) I(Xi)]": v})]
      for v in (None, True, [1], "1/7")],
    lambda d: ["verify", "--suite", "path", "--lift",
               _custom_manifest(d, "[I(One) I(Xi) I(Xi)]", 5)],
    # keys off Q or in conflict, unparsable values, and inputs a library call rejects
    lambda d: ["verify", "--suite", "path", "--lift",
               _counterterms(d, {"[I(X1) I(Xi) I(Xi)]": 1})],
    lambda d: ["verify", "--suite", "path", "--lift", _counterterms(
        d, {"[I(One) I(Xi) I(Xi)]": 1, "[I(Xi) I(One) I(Xi)]": 2})],
    lambda d: ["verify", "--suite", "path", "--lift", _grid_manifest(
        d, RunConfig(grid=SMALL[3]).make_grid(), "[I(X1) I(Xi) I(Xi)]")],
    lambda d: ["--config", str(_write(d, "s.cfg", "seed = abc\n")),
               "verify", "--suite", "algebra"],
    lambda d: ["--config", str(_write(d, "t.cfg", "tol = chen:x\n")),
               "verify", "--suite", "path"],
    lambda d: ["verify", "--suite", "algebra", "--delta", "abc"],
    lambda d: ["verify", "--suite", "path", "--tol", "chen=abc"],
    lambda d: ["verify", "--suite", "path", "--noise", "gauss:0:1/1000"],
    lambda d: ["scan", "--kind", "reconstruction", "--grid", "1/8,1/64,3"],
    lambda d: ["scan", "--kind", "apriori", "--grid", "1/8,1/64,3"],
    lambda d: ["--config", str(_write(d, "latin1.cfg", "seed = 1 # \xe9\n", "latin-1")),
               "verify", "--suite", "algebra"],
    # a phi43 lift over a universe without its counterterm trees
    lambda d: ["verify", "--suite", "path", "--lift", "phi43", "--delta", "11/20"],
    lambda d: ["--config", str(_write(d, "m3.json", '{"max_m_xi": 3}')),
               "verify", "--suite", "path", "--lift", "phi43"],
    # tolerances that are not finite or are negative, from each source
    lambda d: ["verify", "--suite", "path", "--tol", "chen=nan"],
    lambda d: ["verify", "--suite", "path", "--tol", "chen=-1"],
    lambda d: ["verify", "--suite", "path", "--tol", "chen=inf"],
    lambda d: ["--config", str(_write(d, "nan.json", '{"tol": {"cube": NaN}}')),
               "verify", "--suite", "products"],
    lambda d: ["--config", str(_write(d, "neg.json", '{"tol": {"utau": -1}}')),
               "verify", "--suite", "products"],
    lambda d: ["--config", str(_write(d, "inf.cfg", "tol = chen:inf\n")),
               "verify", "--suite", "path"],
    lambda d: ["--config", str(_write(d, "neg.cfg", "tol = chen:-1e-9\n")),
               "verify", "--suite", "path"],
], ids=["custom-missing", "counterterm-missing", "config-missing",
        "custom-malformed-name", "custom-vanishing-name", "custom-missing-field",
        "dim2-path", "dim2-products", "dim2-all", "dim2-solve", "dim2-scan",
        "out-is-a-file", "config-not-object", "counterterm-not-object",
        "custom-not-object", "custom-nan-field", "custom-other-grid",
        "custom-other-grid-same-shape",
        *["config-" + name for name in JSON_TYPE_ERRORS],
        "grid-zero-step", "grid-nan-step", "grid-zero-denominator",
        "delta-zero-denominator", "radii-zero", "radii-above-one",
        "noise-negative-eps", "noise-seed-not-integer", "grid-too-many-nodes",
        "grid-narrow", "grid-narrow-below-one", "custom-sidecar-no-grid",
        "custom-sidecar-no-shape", "custom-sidecar-grid-list",
        "custom-sidecar-bad-dtype", "tol-unknown-name", "config-max-m-xi-negative",
        "noise-unknown-kind", "seed-negative", "dim-zero",
        "counterterm-string-value", "scan-order-few-scales", "tol-no-value",
        "delta-above-one", "counterterm-null-value", "counterterm-bool-value",
        "counterterm-list-value", "counterterm-fraction-string",
        "custom-number-value", "counterterm-key-off-q",
        "counterterm-conflicting-permutations", "custom-key-off-q",
        "config-seed-not-integer", "config-tol-not-number", "delta-not-number",
        "tol-not-number", "noise-eps-below-resolution",
        "scan-reconstruction-few-scales", "scan-apriori-few-scales",
        "config-not-utf8", "phi43-families-off-q", "phi43-families-restricted",
        "tol-nan", "tol-negative", "tol-infinite", "config-tol-nan",
        "config-tol-negative", "config-cfg-tol-infinite", "config-cfg-tol-negative"])
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


@pytest.mark.parametrize("argv, module, name", [
    (["verify", "--suite", "path", "--grid", "1/1000,1,3"], liftmod, "heat_solve"),
    (["verify", "--suite", "path", "--noise", "gauss:0:100"], fieldmod, "noise_field"),
    (["enumerate", "--delta", "1/1000000000"], symtree, "check_delta_admissible"),
    (["enumerate", "--dim", "100001"], symtree, "check_delta_admissible"),
], ids=["grid-substeps", "noise-gauss-kernel-too-wide", "delta-tiny", "dim-huge"])
def test_inputs_that_size_work_are_bounded(monkeypatch, capsys, argv, module, name):
    # each is refused before the patched call would allocate: 4 million
    # substeps of 6,001 nodes, 640,001 x 3,201 kernel weights, ~24/delta
    # lattice points or 100,001 generators; a missed check exits 4 at once
    monkeypatch.setattr(module, name, None)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_counterterm_key_in_any_child_order(tmp_path):
    # a sunset tree, its children and its inner product's reordered
    u = enumerate_universe(symtree.parse_delta(SMALL[1]))
    t = canon(standard_families(u)[1][0])
    a, b, c = (tree_name(k) for k in t.children)
    inner = next(k.child for k in t.children if k.child.kind == "prod")
    x, y, z = (tree_name(k) for k in inner.children)
    spelt = " [ %s\t%s  %s ] " % (c, b, a)
    spelt = spelt.replace(tree_name(inner), "[ %s %s\n%s ]" % (z, y, x))
    assert tree_name(inner) not in spelt and tree_name(t) not in spelt
    reports = []
    for n, key in enumerate((tree_name(t), spelt)):
        lift = _counterterms(tmp_path, {key: 0.5})
        out = tmp_path / str(n)
        assert main(["verify", "--suite", "path", *SMALL, "--lift", lift,
                     "--out", str(out)]) == 0
        reports.append((out / "verify-path.json").read_bytes())
    assert reports[0] == reports[1]


def test_enumeration_cap_is_a_config_error(monkeypatch, capsys):
    # 2/21 reaches the real cap only after ~10 s of enumeration
    monkeypatch.setattr(cli, "enumerate_universe",
                        functools.partial(enumerate_universe, cap=50))
    assert main(["enumerate", "--delta", "13/50"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: universe exceeds cap 50") and "Traceback" not in err


def test_noise_and_grid_errors_name_their_field(monkeypatch):
    # each is a ConfigError raised before any field is allocated
    monkeypatch.setattr(cli.fieldmod, "noise_field", None)
    grid = RunConfig(grid=SMALL[3]).make_grid()
    for noise, field in (("trig:abc:0", "seed"), ("trig:0:-1", "eps"),
                         ("trig:0:nan", "eps"), ("gauss:1:inf", "eps")):
        with pytest.raises(cli.ConfigError, match="noise " + field):
            RunConfig(noise=noise).make_noise(grid)
    with pytest.raises(cli.ConfigError, match="stored nodes"):
        RunConfig(grid="1/32,1/256,1e9").make_grid()
    # the fine grid of the order-bound acceptance scan stays admitted
    assert RunConfig(grid="1/64,1/1024,3").make_grid() == cli.fieldmod.FINE_GRID


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
    # a ValueError raised inside the program is a bug, not bad input
    for exc, head in ((KeyError("lost"), "KeyError: 'lost'"),
                      (ValueError("bug"), "ValueError: bug")):
        def boom(cfg, exc=exc):
            raise exc
        monkeypatch.setattr(cli, "cmd_enumerate", boom)
        assert main(["enumerate"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("internal error: %s\nTraceback" % head)


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


# Inputs for the property tests below.  Their ranges stay where one example
# runs in milliseconds: no delta below 1/1000 (its leaf-count lattice grows as
# 3/delta), no dim above 4, grids of at most ~2*10^4 nodes and no noise eps
# above 1 (a mollifier kernel grows as eps^3 / (k h)).
_WORDS = st.sampled_from(["9/20", "2/5", "1/3", "3/2", "0", "1/0", "-1", "2",
                          "x", "", " 3 "])
_TEXT = st.one_of(_WORDS, st.text("ab/-. ", max_size=4))
_DELTAS = st.one_of(_WORDS, st.text("0123456789/.-", max_size=5))
_TOLS = st.tuples(st.sampled_from(["chen", "cube", "utau", "foo", ""]),
                  st.sampled_from(["=", ":", ""]),
                  st.one_of(st.sampled_from(["1e-8", "0", "-1", "nan", "1/2"]),
                            _TEXT)).map("".join)
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 4), st.floats(), _TEXT,
    st.lists(st.integers(-3, 4), max_size=2),
    st.dictionaries(st.sampled_from(["chen", "cube", "foo"]),
                    st.one_of(st.integers(-3, 4), st.floats(), _TEXT), max_size=2))
_CONFIG_KEYS = st.sampled_from(["delta", "dim", "seed", "max_m_xi", "tol",
                                "noise", "out", "bogus"])


@st.composite
def _config_files(draw):
    """(file name, text) of a JSON or a `key = value` config file."""
    if draw(st.booleans()):
        data = draw(st.dictionaries(_CONFIG_KEYS, _JSON_VALUES, max_size=4))
        return "run.json", json.dumps(data)
    lines = draw(st.lists(st.tuples(_CONFIG_KEYS, st.one_of(_TEXT, _TOLS)),
                          max_size=4))
    return "run.cfg", "".join("%s = %s\n" % kv for kv in lines)


@settings(max_examples=120, deadline=None)
@given(delta=st.none() | _DELTAS, dim=st.none() | st.integers(-3, 4),
       seed=st.none() | st.integers(-3, 2 ** 64), tols=st.lists(_TOLS, max_size=2),
       config=st.none() | _config_files())
def test_enumerate_inputs_exit_0_or_2(delta, dim, seed, tols, config):
    """Bad enumerate input exits 2 with an error line, never 4."""
    with tempfile.TemporaryDirectory() as d, contextlib.redirect_stderr(
            io.StringIO()) as err, mock.patch.object(
            cli, "enumerate_universe", functools.partial(enumerate_universe, cap=50)):
        argv = []
        if config is not None:
            argv += ["--config", str(_write(Path(d), *config))]
        argv += ["enumerate", "--out=" + str(Path(d) / "out")]
        for flag, value in (("delta", delta), ("dim", dim), ("seed", seed)):
            if value is not None:
                argv.append("--%s=%s" % (flag, value))
        argv += ["--tol=" + t for t in tols]
        rc = main(argv)
    assert rc in (0, 2), err.getvalue()
    assert err.getvalue().startswith("error: ") if rc else not err.getvalue()


_NUMBERS = st.sampled_from(["1/4", "1/8", "1/16", "0.1", "1", "5/2", "3", "0",
                            "-1/8", "nan", "inf", "1/0", "abc", ""])
_GRIDS = st.one_of(st.none(), st.lists(_NUMBERS, min_size=2, max_size=4).map(",".join),
                   st.sampled_from(["1/16,1/32,3", "1/8,1/64,3", "1,1/16,5/2"]))
_NOISES = st.tuples(
    st.sampled_from(["trig", "gauss", "bump", "zero", "foo", ""]),
    st.one_of(st.integers(-3, 10 ** 6).map(str), st.sampled_from(["", "x", "1.5"])),
    st.sampled_from(["", "0", "1/4", "1", "1/1000", "-1", "nan", "inf", "1/0", "x"]),
).map(":".join)
_RADII = st.one_of(st.sampled_from(["0.1,0.2,0.4", "1/4", "0,0.2", "1.5"]),
                   st.text("0123456789/.,-", max_size=8))


@settings(max_examples=120, deadline=None)
@given(grid=_GRIDS, noise=_NOISES, radii=_RADII)
def test_grid_noise_and_radii_raise_only_config_errors(grid, noise, radii):
    """Bad --grid, --noise or --radii text raises ConfigError, nothing else."""
    argv = ["verify", "--suite", "path", "--noise=" + noise]
    if grid is not None:
        argv.append("--grid=" + grid)
    with contextlib.suppress(cli.ConfigError):
        cfg = RunConfig.from_args(build_parser().parse_args(argv))
        g = cfg.make_grid()
        assert cfg.make_noise(g).shape == (g.nt, g.nx)
    with contextlib.suppress(cli.ConfigError):
        assert all(0 < R < 1 for R in cli._parse_radii(radii))
