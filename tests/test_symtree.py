import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import phi4local
from phi4local.symtree import (
    ONE, XI, EnumerationCapExceeded, I, InadmissibleDelta, Im, Ip, X, canon,
    PLANTED, PROD, check_delta_admissible, enumerate_universe, leq, order,
    prod3, tree_name,
)

D25 = Fraction(2, 5)
D310 = Fraction(3, 10)


def cube(delta=D310):
    return prod3(I(XI), I(XI), I(XI), delta)


def subset(a, b):
    """True iff a == b or I(a) occurs somewhere inside b's expression."""
    if a.kind == PLANTED or b.kind == PLANTED:
        raise ValueError("subset compares unplanted trees")
    if a is b:
        return True
    if b.kind != PROD:
        return False
    return any(k.child is a or subset(a, k.child) for k in b.children)


def test_generator_orders():
    assert order(XI, D25) == Fraction(-13, 5)
    assert order(ONE, D25) == -2
    assert order(X(1), D310) == -1
    assert order(I(ONE), D25) == 0
    assert order(I(ONE), D310) == 0
    assert order(I(X(1)), D25) == 1


def test_cube_order_closed_formula():
    t = cube()
    assert order(t, D310) == Fraction(-21, 10)
    assert t.m_xi == 3 and t.m_one == 0 and t.m_x == 0
    # closed formula -3 + m_xi*delta + m_one + 2*m_x
    assert order(t, D310) == -3 + 3 * D310


def test_order_memo_is_keyed_by_delta(u310, u25):
    # one interned tree, read at two deltas in one process: a memo keyed by
    # the tree alone would return the first delta's order at the second
    t = cube(D310)
    for _ in range(2):
        for delta in (D310, D25):
            assert order(t, delta) == -3 + 3 * delta
            assert order(I(t), delta) == -1 + 3 * delta
    shared = [s for s in u310.T_r if u25.member("T_r", s) and s.m_xi]
    assert shared
    for s in shared:
        assert u310.order(s) == order(s, D310) != order(s, D25) == u25.order(s)
        assert u310.order(s) - u25.order(s) == s.m_xi * (D310 - D25)


def test_order_recursion_equals_closed(u310):
    # product order = sum of planted-child orders, exactly
    for t in u310.T_r:
        if t.kind == "prod":
            rec = sum(order(k, D310) for k in t.children)
            assert rec == order(t, D310)
            assert order(t, D310) == -3 + t.m_xi * D310 + t.m_one + 2 * t.m_x
    for t in u310.T_r:
        assert order(I(t), D310) == order(t, D310) + 2
        im = Im(1, t)
        assert im is not None and order(im, D310) == order(t, D310) + 1


def test_dw_equals_truncation_filter(u310):
    # two readings of the boundary set agree: children in W versus the
    # truncation rule plus the order window
    direct = set()
    for w1 in u310.W:
        for w2 in u310.W:
            for w3 in u310.W:
                t = prod3(I(w1), I(w2), I(w3), D310)
                if t is not None and Fraction(-2) < order(t, D310) <= 0:
                    direct.add(t.uid)
    assert direct == {t.uid for t in u310.dW}


def test_product_truncation():
    kept = prod3(I(ONE), I(ONE), I(ONE), D25)
    assert kept is not None and order(kept, D25) == 0
    assert prod3(I(X(1)), I(ONE), I(ONE), D25) is None
    assert cube(D310) is not None


def test_product_rejects_unplanted():
    with pytest.raises(ValueError):
        prod3(XI, I(XI), I(XI), D25)


def test_interning_identity():
    a = prod3(I(XI), I(ONE), I(XI), D310)
    b = prod3(I(XI), I(ONE), I(XI), D310)
    assert a is b
    c = prod3(I(ONE), I(XI), I(XI), D310)
    assert a is not c
    assert canon(a) is canon(c)


def test_vanishing_conventions():
    assert Ip(1, X(2), D25) is None
    assert Ip(1, X(1), D25) is not None
    assert Im(1, ONE) is None
    assert Im(1, X(2)) is None
    assert Im(1, X(1)) is Ip(1, X(1), D25)
    # Ip only on product trees of order in (-1, 0]
    assert Ip(1, cube(D310), D310) is None          # order -21/10
    t = prod3(I(ONE), I(ONE), I(ONE), D310)
    assert Ip(1, t, D310) is not None               # order 0


def test_admissibility():
    assert not check_delta_admissible(Fraction(1, 3))
    assert check_delta_admissible(D25)
    assert not check_delta_admissible(Fraction(1, 2))
    assert not check_delta_admissible(Fraction(1, 4))
    assert check_delta_admissible(Fraction(26, 100))
    assert check_delta_admissible(Fraction(9, 20))


def test_enumerate_w_sets():
    u = enumerate_universe(D25)
    assert [tree_name(t) for t in u.W] == ["Xi"]
    u = enumerate_universe(D310)
    assert sorted(tree_name(t) for t in u.W) == ["Xi", "[I(Xi) I(Xi) I(Xi)]"]
    assert sorted(tree_name(t) for t in u.poly) == ["One", "X1"]
    for p in u.poly:
        assert u.member("N", p)


def test_enumerate_rejects_inadmissible():
    with pytest.raises(InadmissibleDelta):
        enumerate_universe(Fraction(1, 3))


def test_enumeration_cap():
    with pytest.raises(EnumerationCapExceeded):
        enumerate_universe(Fraction(26, 100), cap=50)


def test_w_ring_decomposition(u310):
    # every product tree of W factors through three W trees
    for w in u310.W_ring:
        for k in w.children:
            assert u310.member("W", k.child)


def test_q_membership(u310):
    for t in u310.Q:
        kids = [k.child for k in t.children]
        assert all(not (k.kind == "gen" and k.label == "X") for k in kids)
        assert sum(1 for k in kids if k is ONE) <= 1
    for w in u310.W_ring:
        assert u310.member("Q", w)


def test_dw_set(u920):
    assert [tree_name(t) for t in u920.dW] == ["[I(Xi) I(Xi) I(Xi)]"]


def test_leq_examples(u310):
    assert leq(XI, XI)
    small = prod3(I(ONE), I(XI), I(XI), D310)
    big = prod3(I(cube()), I(XI), I(XI), D310)
    assert leq(small, big)
    assert not leq(big, small)
    assert subset(XI, cube())
    assert subset(cube(), big)
    assert not subset(big, cube())


def test_leq_reflexive_antisymmetric(u310):
    pool = u310.T_r[:40]
    for a in pool:
        assert leq(a, a) and subset(a, a)
    for a in pool:
        for b in pool:
            if a is not b:
                assert not (leq(a, b) and leq(b, a))
                assert not (subset(a, b) and subset(b, a))


def test_names_unique_without_whitespace(u25, u310, u920):
    # the CLI looks counterterm and manifest keys up by these names
    for u in (u25, u310, u920):
        names = {"".join(tree_name(t).split()) for t in u.T_plus}
        assert len(names) == len(u.T_plus)


def test_universe_json(u310):
    data = u310.to_json()
    assert data["delta"] == "3/10"
    names = {row["tree"] for row in data["trees"]}
    assert "Xi" in names and "I(One)" in names
    row = next(r for r in data["trees"] if r["tree"] == "Xi")
    assert row["order"] == "-27/10"
    assert "W" in row["sets"]


# enumerates the universes named in argv[1:] first, then prints the 3/10
# universe and the seed-0 counterterm draws in the order of its Q
ORDER_CODE = """
import json, sys
from fractions import Fraction
import numpy as np
from phi4local.lift import random_counterterm_map
from phi4local.symtree import enumerate_universe, tree_name
for d in sys.argv[1:]:
    enumerate_universe(Fraction(d))
u = enumerate_universe(Fraction(3, 10))
rm = random_counterterm_map(u, np.random.default_rng(0))
print(json.dumps([u.to_json(), [[tree_name(t), str(rm.value(t))] for t in u.Q]]))
"""


def _universe_in_process(*before):
    src = os.path.dirname(os.path.dirname(phi4local.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", ORDER_CODE, *before], env=env,
                         check=True, capture_output=True, text=True, timeout=120)
    return json.loads(out.stdout)


def test_universe_order_ignores_earlier_universes():
    # every set follows the universe's own enumeration, not the interning
    # order of the process: the trees listed and the random counterterm map
    # drawn in Q order are those of a fresh process
    fresh = _universe_in_process()
    after = _universe_in_process("2/5", "9/20")
    assert after == fresh


def test_restrict_closure(u920):
    sub = u920.restrict(3)
    assert all(t.m_xi <= 3 for t in sub.T_plus)
    # closed under the cut relation: the count identities keep m_xi monotone
    for t in sub.N_ring:
        for k in t.children:
            assert k.child.m_xi <= 3


@st.composite
def small_trees(draw, delta=D310, depth=0):
    kind = draw(st.integers(0, 3 if depth < 2 else 2))
    if kind == 0:
        return XI
    if kind == 1:
        return ONE
    if kind == 2:
        return X(1)
    kids = [draw(small_trees(delta=delta, depth=depth + 1)) for _ in range(3)]
    t = draw(st.just(prod3(I(kids[0]), I(kids[1]), I(kids[2]), delta)))
    return t if t is not None else XI


@settings(max_examples=80, deadline=None)
@given(small_trees())
def test_counts_match_recomputation(t):
    def recount(s):
        if s.kind == "gen":
            return (1 if s.label == "Xi" else 0,
                    1 if s.label == "One" else 0,
                    1 if s.label == "X" else 0)
        if s.kind == "planted":
            return recount(s.child)
        a = [recount(k) for k in s.children]
        return tuple(sum(v) for v in zip(*a))
    assert recount(t) == (t.m_xi, t.m_one, t.m_x)
    assert order(t, D310) == -3 + t.m_xi * D310 + t.m_one + 2 * t.m_x


@settings(max_examples=60, deadline=None)
@given(small_trees(), small_trees())
def test_interning_equality_is_structural(a, b):
    assert (tree_name(a) == tree_name(b)) == (a is b)
