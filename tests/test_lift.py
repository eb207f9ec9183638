import re
from fractions import Fraction

import numpy as np
import pytest

from phi4local.coalgebra import Coalgebra
from phi4local.field import COARSE_GRID, DEFAULT_GRID, heat_solve, noise_field
from phi4local.lift import (
    CountertermMap, EnsembleTooSmall, build_local_product,
    extension_consistency_report, phi43_counterterms, random_counterterm_map,
    standard_families,
)
from phi4local.symtree import (
    ONE, XI, I, X, canon, enumerate_universe, prod3, tree_name,
)

D = Fraction(9, 20)


@pytest.fixture(scope="module")
def setup():
    import phi4local as pl
    u = pl.enumerate_universe(D)
    cg = Coalgebra(u)
    grid = COARSE_GRID
    xi = noise_field(grid, "trig", seed=0)
    return u, cg, grid, xi


def test_planted_base_values(setup):
    u, cg, grid, xi = setup
    lp = build_local_product(grid, u, xi, coalg=cg)
    assert np.all(lp.planted_field(I(ONE)) == 1.0)
    assert np.array_equal(lp.planted_field(I(X(1))), grid.x_field)
    assert np.array_equal(lp.value(XI), xi)


def test_multiplicative_products(setup):
    u, cg, grid, xi = setup
    lp = build_local_product(grid, u, xi, coalg=cg)
    w = prod3(I(XI), I(XI), I(XI), D)
    ell = heat_solve(grid, xi)
    assert np.max(np.abs(lp.value(w) - ell ** 3)) < 1e-14
    for t in u.Q:
        ct = canon(t)
        direct = lp.planted_field(ct.children[0]).copy()
        direct *= lp.planted_field(ct.children[1])
        direct *= lp.planted_field(ct.children[2])
        assert np.array_equal(lp.value(t), direct)
        # any ordering agrees up to float reassociation
        loose = (lp.planted_field(t.children[0])
                 * lp.planted_field(t.children[1])
                 * lp.planted_field(t.children[2]))
        scale = max(1.0, float(np.max(np.abs(loose))))
        assert np.max(np.abs(lp.value(t) - loose)) < 1e-13 * scale


def test_rebuild_bit_identical(setup):
    u, cg, grid, xi = setup
    a = build_local_product(grid, u, xi, coalg=cg)
    b = build_local_product(grid, u, xi, coalg=cg)
    for t in u.T_r:
        assert np.array_equal(a.value(t), b.value(t))
        assert np.array_equal(a.ell(t), b.ell(t))


def test_extension_rules(setup):
    u, cg, grid, xi = setup
    lp = build_local_product(grid, u, xi, coalg=cg)
    tx = prod3(I(X(1)), I(XI), I(XI), D)
    t1 = prod3(I(ONE), I(XI), I(XI), D)
    assert np.array_equal(lp.value(tx), grid.x_field * lp.value(t1))
    double = prod3(I(ONE), I(ONE), I(XI), D)
    assert np.array_equal(lp.value(double), lp.ell(XI))
    triple = prod3(I(ONE), I(ONE), I(ONE), D)
    assert np.all(lp.value(triple) == 1.0)


def test_zero_counterterms_equal_multiplicative(setup):
    u, cg, grid, xi = setup
    mult = build_local_product(grid, u, xi, coalg=cg)
    rm = CountertermMap(u, {})
    built = build_local_product(grid, u, xi, rmap=rm, coalg=cg)
    for t in u.T_r:
        assert np.max(np.abs(mult.value(t) - built.value(t))) < 1e-12


def test_standard_families(setup):
    u, cg, grid, xi = setup
    wick, sunset = standard_families(u)
    assert len(wick) == 3 and len(sunset) == 9
    assert len({canon(t).uid for t in wick}) == 1
    assert len({canon(t).uid for t in sunset}) == 1
    for t in wick + sunset:
        assert u.member("Q", t)


def test_counterterm_cube_field(setup):
    # the rewriting of the rough cube subtracts the constant times the solve
    u, cg, grid, xi = setup
    wick, sunset = standard_families(u)
    cw = 0.23
    rm = CountertermMap(u, {**{t: -cw for t in wick},
                            **{t: -0.01 for t in sunset}})
    lp = build_local_product(grid, u, xi, rmap=rm, coalg=cg)
    w = prod3(I(XI), I(XI), I(XI), D)
    ell = heat_solve(grid, xi)
    assert np.max(np.abs(lp.value(w) - (ell ** 3 - 3 * cw * ell))) < 1e-12


def test_permutation_insensitivity(setup):
    u, cg, grid, xi = setup
    rng = np.random.default_rng(4)
    rm = random_counterterm_map(u, rng, exact=False)
    lp = build_local_product(grid, u, xi, rmap=rm, coalg=cg)
    for t in u.T_r:
        if t.kind == "prod":
            perm = prod3(t.children[1], t.children[2], t.children[0], D)
            assert perm is not None
            assert np.array_equal(lp.value(t), lp.value(perm))


def test_extension_rewrite_identity(setup):
    u, cg, grid, xi = setup
    rng = np.random.default_rng(6)
    rm = random_counterterm_map(u, rng, exact=False)
    lp = build_local_product(grid, u, xi, rmap=rm, coalg=cg)
    rows = extension_consistency_report(lp)
    assert rows and all(r["status"] == "pass" for r in rows)


def test_counterterm_validation(setup):
    u, cg, grid, xi = setup
    with pytest.raises(ValueError):
        CountertermMap(u, {XI: 1.0})
    wick, _ = standard_families(u)
    with pytest.raises(ValueError):
        CountertermMap(u, {wick[0]: 1.0, wick[1]: 2.0})
    rm = CountertermMap(u, {wick[0]: 1.5})
    assert rm.value(wick[2]) == 1.5


def test_numerical_layer_takes_d_1_only(setup):
    _u, _cg, grid, xi = setup
    # it would store the x-gradient as grad(2, t) too
    with pytest.raises(ValueError, match="d = 1 only"):
        build_local_product(grid, enumerate_universe(D, 2), xi)


def test_custom_lift(setup):
    u, cg, grid, xi = setup
    w = prod3(I(XI), I(XI), I(XI), D)
    funny = noise_field(grid, "bump")
    lp = build_local_product(grid, u, xi, custom={w: funny}, coalg=cg)
    assert np.array_equal(lp.value(w), funny)
    # untouched trees fall back to the multiplicative rule
    t1 = prod3(I(ONE), I(XI), I(XI), D)
    assert np.max(np.abs(lp.value(t1) - heat_solve(grid, xi) ** 2)) < 1e-12


def test_phi43_deterministic_oracle(setup):
    u, cg, grid, xi = setup
    rm, rep = phi43_counterterms(grid, u, seeds=[0], eps=0.25, kind="trig")
    uu = heat_solve(grid, noise_field(grid, "trig", seed=0))
    tt, xx = grid.t_field, grid.x_field
    probe = (tt >= 0.2) & (tt <= 1.0) & (np.abs(xx) <= 1.5)
    assert rep["c_wick"] == pytest.approx(float(np.mean(uu[probe] ** 2)), abs=1e-14)
    wick, sunset = standard_families(u)
    assert rm.value(wick[0]) == -rep["c_wick"]
    assert rm.value(sunset[0]) == -rep["c_sunset"]


def test_phi43_zero_noise(setup):
    u, cg, grid, xi = setup
    rm, rep = phi43_counterterms(grid, u, seeds=[0, 1], eps=0.25, kind="zero")
    assert rep["c_wick"] == 0.0 and rep["c_sunset"] == 0.0


def test_phi43_ensemble_too_small(setup):
    u, cg, grid, xi = setup
    with pytest.raises(EnsembleTooSmall):
        phi43_counterterms(grid, u, seeds=[1, 2], eps=0.25, kind="gauss",
                           rel_se_tol=1e-6)


def test_phi43_scaling_report():
    # the first constant grows as the mollification scale shrinks
    import phi4local as pl
    u = pl.enumerate_universe(D)
    grid = DEFAULT_GRID
    vals = []
    for eps in (0.5, 0.25, 0.125):
        _rm, rep = phi43_counterterms(grid, u, seeds=range(4), eps=eps,
                                      rel_se_tol=10.0)
        vals.append(rep["c_wick"])
    assert vals[2] > vals[0]


def test_fields_off_the_grid_are_refused(setup):
    u, cg, grid, xi = setup
    with pytest.raises(ValueError, match=r"field of Xi has shape \(97, 52\)"):
        build_local_product(grid, u, xi.T, coalg=cg)
    # a row-by-row build would broadcast a one-row field silently
    w = prod3(I(XI), I(XI), I(XI), D)
    with pytest.raises(ValueError, match=r"field of %s has shape \(1, 97\)"
                       % re.escape(tree_name(w))):
        build_local_product(grid, u, xi, custom={w: xi[:1]}, coalg=cg)
