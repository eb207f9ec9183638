"""The benchmark tracer (perfbench/tracing.py) wraps package names by their
qualified strings; a renamed or deleted one would silently read 0.  These
checks load the tracer's tables without installing it."""

import importlib
import importlib.util
import inspect
import re
from pathlib import Path

from phi4local.coalgebra import Coalgebra
from phi4local.field import Mollifier

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _resolve(qual):
    layer, *attrs = qual.split(".")
    obj = importlib.import_module("phi4local." + layer)
    for name in attrs:
        obj = getattr(obj, name)
    return obj


def test_traced_names_resolve():
    tr = _tracing()
    for qual in sorted(tr.COUNTED | tr.TIMED | set(tr.HOOKS)):
        assert qual.split(".")[0] in tr.LAYERS, qual
        assert callable(_resolve(qual)), qual
    # the counting wrapper passes exactly two arguments after self
    for qual in tr.COUNTED:
        assert list(inspect.signature(_resolve(qual)).parameters) == ["self", "tb", "t"]


def test_metric_names_resolve():
    # layer_metrics reads these call counts by name; a name that install
    # does not wrap would read 0
    tr = _tracing()
    read = set(re.findall(r'c\["([\w.]+)"\]', inspect.getsource(tr.Tracer.layer_metrics)))
    assert {"path.Path.value_at", "equation.u_tau_at", "field.Mollifier.kernel",
            "field.Grid.zeros", "field.Grid.ones", "coalgebra.Coalgebra.delta",
            "coalgebra.Coalgebra.renorm_expand", "lift.build_local_product"} <= read
    for qual in sorted(read):
        assert qual.split(".")[0] in tr.LAYERS, qual
        assert qual not in tr.UNWRAPPED, qual
        assert callable(_resolve(qual)), qual


def test_hooks_read_a_real_path(coarse_path):
    # the hooks and end_job run on the objects a traced job hands them
    tr = _tracing()
    t = tr.Tracer()
    p, grid = coarse_path, coarse_path.grid
    mol = Mollifier(grid)
    mol.kernel(0.25, 1)
    t.coalgebras.append(p.cg)
    t.mollifiers.append(mol)
    tr._on_enumerate(t, (p.u.delta,), p.u)
    tr._on_build(t, (grid, p.u, p.lp.xi), p.lp)
    tr._on_path(t, (p,), None)
    tr._on_heat_solve(t, (grid, p.lp.xi), None)
    t.end_job()
    x = t.extra
    assert x["universe_trees"] == len(p.u.T) and x["interned_trees"] > 0
    assert x["lift_fields"] > 0 and x["lift_bytes"] > 0 and x["path_bytes"] > 0
    assert x["march_steps"] == (grid.nt - 1) * grid.substeps and x["march_bytes"] > 0
    assert x["cut_misses"] == len(p.cg._cminus) + len(p.cg._cplus)
    assert x["kernel_misses"] == 1
    assert t.coalgebras == [] and t.mollifiers == []


def test_fresh_coalgebra_has_the_cut_memos(u920):
    # Tracer.end_job reads the memo sizes as the cut misses of a job
    cg = Coalgebra(u920)
    assert cg._cplus == {} and cg._cminus == {}
    xi, tq = cg.u.W[0], cg.u.Q[0]           # Xi, [I(One) I(Xi) I(Xi)]
    cg.cplus(xi, xi)
    cg.cminus(tq, tq)
    # one miss per pair evaluated: the product, One on One and Xi on Xi
    assert list(cg._cplus) == [(xi.uid, xi.uid)]
    assert len(cg._cminus) == 3 and (tq.uid, tq.uid) in cg._cminus
