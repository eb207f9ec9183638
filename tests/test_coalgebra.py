from fractions import Fraction

import numpy as np
import pytest

from phi4local.coalgebra import Coalgebra, UNIT, report_failures
from phi4local.lift import random_counterterm_map
from phi4local.symtree import ONE, XI, I, Im, Ip, X, prod3, tree_name

D310 = Fraction(3, 10)


def cube(delta=D310):
    return prod3(I(XI), I(XI), I(XI), delta)


def names(forest):
    return tuple(tree_name(t) for t in forest)


def as_names(ts):
    return {(tree_name(l), names(f)): c for (l, f), c in ts.items()}


def test_delta_base_cases(u310, u920):
    cg = Coalgebra(u310)
    assert as_names(cg.delta(I(ONE))) == {("I(One)", ("I(One)",)): 1}
    assert as_names(cg.delta(I(X(1)))) == {
        ("I(One)", ("I(X1)",)): 1, ("I(X1)", ("Ip1(X1)",)): 1}
    ip = Ip(1, X(1), D310)
    assert as_names(cg.delta(ip)) == {("Ip1(X1)", ("Ip1(X1)",)): 1}
    for w in u310.W:
        assert as_names(cg.delta(w)) == {(tree_name(w), ()): 1}
        assert as_names(cg.delta(I(w))) == {("I(%s)" % tree_name(w), ()): 1}


def test_delta_rejects_outside_domain(u310):
    cg = Coalgebra(u310)
    with pytest.raises(ValueError):
        cg.delta(ONE)


def test_cplus_table_entries(u310):
    cg = Coalgebra(u310)
    assert cg.cplus(XI, XI) == UNIT
    assert names(cg.cplus(ONE, ONE)) == ("I(One)",)
    assert names(cg.cplus(ONE, X(1))) == ("I(X1)",)
    assert cg.cplus(X(1), ONE) is None
    assert cg.cplus(XI, ONE) is None
    # positive-order projection: planting a rough tree is projected away
    assert cg.cplus(ONE, cube()) is None
    assert cg.cplus(XI, cube()) is None
    mid = prod3(I(ONE), I(XI), I(XI), D310)
    assert names(cg.cplus(ONE, mid)) == ("I([I(One) I(Xi) I(Xi)])",)
    # the self-cut leaves one trivial planted tree per coefficient leaf
    assert names(cg.cplus(mid, mid)) == ("I(One)",)
    assert cg.cplus(cube(), cube()) == UNIT


def test_cminus_table_entries(u310):
    cg = Coalgebra(u310)
    assert cg.cminus(XI, XI) == UNIT
    assert names(cg.cminus(ONE, XI)) == ("I(Xi)",)
    assert names(cg.cminus(X(1), XI)) == ("Im1(Xi)",)
    t = prod3(I(ONE), I(XI), I(XI), D310)
    assert names(cg.cminus(X(1), t)) == ("Im1([I(One) I(Xi) I(Xi)])",)
    # no positive-order projection on this side
    w = cube()
    assert names(cg.cminus(ONE, w)) == ("I([I(Xi) I(Xi) I(Xi)])",)


def test_coassoc_hand_cases(u310):
    cg = Coalgebra(u310)
    rep = cg.verify_coassoc([I(ONE), I(X(1))] + list(u310.W))
    assert not report_failures(rep)


def test_coassoc_full(u310, u920, cg920):
    assert not report_failures(Coalgebra(u310).verify_coassoc())
    assert not report_failures(cg920.verify_coassoc())


def test_coassoc_on_derivative_edges(u920, cg920):
    # not required downstream, but the stored-identification convention
    # makes it hold; keep it observed
    im_trees = [t for t in (Im(1, tr) for tr in u920.T_r) if t is not None]
    assert not report_failures(cg920.verify_coassoc(im_trees))


def test_explicit_formula_full(u310):
    cg = Coalgebra(u310)
    assert not report_failures(cg.verify_explicit_formula())


def test_delta_ranges(u310):
    assert not report_failures(Coalgebra(u310).verify_delta_ranges())


def test_cut_implies_leq(u310):
    from phi4local.symtree import leq
    cg = Coalgebra(u310)
    pool = u310.N + tuple(u310.W)
    for t in pool:
        for tb in pool:
            if cg.cplus(tb, t) is not None:
                assert leq(tb, t)


def test_renorm_commute_random_maps(u310):
    cg = Coalgebra(u310)
    rng = np.random.default_rng(11)
    for _ in range(5):
        rmap = random_counterterm_map(u310, rng)
        rep = cg.verify_renorm_commute(rmap.as_uid_map())
        assert not report_failures(rep)


def test_two_dimensional_symbolic_layer():
    # the index sums are expanded explicitly, so d > 1 works symbolically
    import phi4local as pl
    u = pl.enumerate_universe(Fraction(9, 20), d=2)
    assert len(u.poly) == 3
    assert any(dict(t.mx_by).get(2) == 1 for t in u.N_ring)
    cg = Coalgebra(u)
    assert not report_failures(cg.verify_coassoc())
    assert not report_failures(cg.verify_explicit_formula())


def test_renorm_expand_triangular(u310):
    cg = Coalgebra(u310)
    rng = np.random.default_rng(3)
    rmap = random_counterterm_map(u310, rng)
    for t in u310.N_ring:
        for forest in cg.renorm_expand(rmap.as_uid_map(), t):
            for p in forest:
                if p.child.kind != "gen":
                    assert p.child.edges < t.edges
