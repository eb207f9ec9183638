"""The benchmark tracer (perfbench/tracing.py) wraps package names by their
qualified strings; a renamed or deleted one would silently read 0.  These
checks load the tracer's tables without installing it."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from phi4local.coalgebra import Coalgebra

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
