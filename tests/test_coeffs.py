from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from phi4local.coalgebra import Coalgebra, report_failures
from phi4local.coeffs import (
    check_coherence, check_cube_identity, classify_utau, classification_table,
    is_resonant, monomial_product, pick_gamma, upsilon_monomial,
)
from phi4local.symtree import GEN, ONE, PLANTED, XI, I, X, prod3, sign_of, tree_name

D310 = Fraction(3, 10)


# -- oracles: the coefficient map evaluated numerically and by recursion ------

class UpsilonParams:
    def __init__(self, v1: float, vX: tuple):
        self.v1 = v1
        self.vX = vX


def upsilon(t, params: UpsilonParams) -> float:
    """Numeric coefficient through the closed-form monomial."""
    c, p, mxb = upsilon_monomial(t)
    out = float(c) * params.v1 ** p
    for i, e in mxb:
        out *= params.vX[i - 1] ** e
    return out


def upsilon_recursive(t, params: UpsilonParams) -> float:
    if t.kind == PLANTED:
        return upsilon_recursive(t.child, params)
    if t is XI:
        return 1.0
    if t is ONE:
        return params.v1
    if t.kind == GEN:
        return params.vX[t.index - 1]
    out = -1.0
    for k in t.children:
        out *= upsilon_recursive(k.child, params)
    return out


def upsilon_monomial_recursive(t):
    if t.kind == PLANTED:
        return upsilon_monomial_recursive(t.child)
    if t is XI:
        return (Fraction(1), 0, ())
    if t is ONE:
        return (Fraction(1), 1, ())
    if t.kind == GEN:
        return (Fraction(1), 0, ((t.index, 1),))
    parts = [upsilon_monomial_recursive(k.child) for k in t.children]
    return monomial_product(parts, extra_coeff=Fraction(-1))


def cube():
    return prod3(I(XI), I(XI), I(XI), D310)


def test_upsilon_values():
    p = UpsilonParams(2.5, (0.7,))
    assert upsilon(XI, p) == 1.0
    assert upsilon(ONE, p) == 2.5
    assert upsilon(X(1), p) == 0.7
    assert upsilon(cube(), p) == -1.0
    assert upsilon(I(cube()), p) == -1.0
    t = prod3(I(ONE), I(ONE), I(XI), D310)
    assert upsilon(t, p) == -2.5 ** 2


def test_sign_rule():
    assert sign_of(XI) == 1
    assert sign_of(cube()) == -1
    deep = prod3(I(cube()), I(XI), I(XI), D310)
    assert sign_of(deep) == 1      # five leaves


@settings(max_examples=40, deadline=None)
@given(a=st.integers(-5, 5), b=st.integers(-5, 5))
def test_recursive_equals_closed(a, b):
    # compare on the enumerated universe at rational parameter points
    from phi4local.symtree import enumerate_universe
    u = enumerate_universe(D310)
    p = UpsilonParams(float(a) / 3, (float(b) / 7,))
    for t in u.N + tuple(u.W):
        assert abs(upsilon(t, p) - upsilon_recursive(t, p)) < 1e-12


def test_monomial_recursive_equals_closed(u310):
    for t in u310.N + tuple(u310.W):
        assert upsilon_monomial(t) == upsilon_monomial_recursive(t)


def test_cube_identity(u310, u920):
    assert not report_failures(check_cube_identity(u310))
    assert not report_failures(check_cube_identity(u920))


def test_coherence(u310, u920, cg920):
    assert not report_failures(check_coherence(u310))
    assert not report_failures(check_coherence(u920, cg920))


def test_coherence_identity_for_one(u920, cg920):
    # cutting at the trivial tree leaves the full planted tree
    for tb in u920.N_ring:
        f = cg920.cplus(ONE, tb)
        assert f is not None and len(f) == 1


def test_classification(u920):
    rows = {r["tree"]: r for r in classification_table(u920)}
    assert rows["One"]["class"] == "V" and rows["One"]["sign"] == 1
    assert rows["X1"]["class"] == "Vi" and rows["X1"]["index"] == 1
    t = prod3(I(ONE), I(XI), I(XI), u920.delta)
    assert rows[tree_name(t)]["class"] == "V" and rows[tree_name(t)]["sign"] == -1
    w = prod3(I(XI), I(XI), I(XI), u920.delta)
    assert rows[tree_name(w)]["class"] == "zero"
    t2 = prod3(I(ONE), I(ONE), I(XI), u920.delta)
    assert rows[tree_name(t2)]["class"] == "V2"
    t3 = prod3(I(ONE), I(ONE), I(ONE), u920.delta)
    assert rows[tree_name(t3)]["class"] == "V3"


def test_classify_rejects_outside_n(u920):
    with pytest.raises(ValueError):
        classify_utau(XI, u920)


def order_gaps(universe) -> list:
    """Sorted distinct orders of N with the midpoints of consecutive gaps."""
    u = universe
    xs = sorted({u.order(t) for t in u.N})
    out = []
    for a, b in zip(xs, xs[1:]):
        out.append({"low": a, "high": b, "mid": (a + b) / 2})
    return out


def test_gamma_helpers(u920):
    g = pick_gamma(u920, Fraction(3, 2))
    assert not is_resonant(u920, g)
    # a resonant value: |I(One)| + 2 = 0 + 2
    assert is_resonant(u920, Fraction(2) + u920.order(ONE))
    gaps = order_gaps(u920)
    assert all(g["low"] < g["mid"] < g["high"] for g in gaps)


def test_index_set_partition(u920):
    # truncation windows partition exactly at rational cuts
    gamma = pick_gamma(u920, Fraction(3, 2))
    beta = Fraction(1, 3)
    full = {t for t in u920.N if u920.order(t) < gamma - 2}
    low = {t for t in u920.N if u920.order(t) < gamma - beta - 2}
    band = {t for t in u920.N
            if gamma - beta - 2 <= u920.order(t) < gamma - 2}
    assert full == low | band and not (low & band)
