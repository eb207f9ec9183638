from fractions import Fraction

import numpy as np
import pytest

from phi4local.field import COARSE_GRID, noise_field
from phi4local.lift import build_local_product, random_counterterm_map
from phi4local.path import ALL, Path, fit_slope, order_scan, sample_nodes
from phi4local.symtree import (
    EDGE_I, ONE, PLANTED, PROD, XI, I, Im, Ip, X, enumerate_universe, prod3, tree_name,
)

D = Fraction(9, 20)


def _batch(*nodes):
    """The batch (rows, cols) of the given (row, col) nodes."""
    rows, cols = zip(*nodes)
    return np.array(rows), np.array(cols)


def _strided(nodes, k, n):
    """Batches of the nodes k*j + i below n, for i < k: the sample's runs of
    k consecutive nodes."""
    rows, cols = nodes
    return [(rows[i:n:k], cols[i:n:k]) for i in range(k)]


def test_polynomial_paths(coarse_path):
    p = coarse_path
    grid = p.grid
    z, x = _batch((10, 40), (0, grid.nx - 1)), _batch((20, 88), (3, 0))
    assert np.all(p.value_at(I(ONE), z, x) == 1.0)
    assert p.value_at(I(X(1)), z, x) == pytest.approx(
        grid.xs[z[1]] - grid.xs[x[1]], abs=0)
    assert np.all(p.value_at(Ip(1, X(1), D), z, x) == 1.0)


def test_centering_base_values(coarse_path):
    p = coarse_path
    x = _batch((15, 50), (0, p.grid.nx - 1))
    assert np.all(p.cen_at(I(ONE), x) == 1.0)
    assert np.all(p.cen_at(Ip(1, X(1), D), x) == 1.0)
    assert np.array_equal(p.cen_at(I(X(1)), x), -p.grid.xs[x[1]])


def test_shared_fields_are_read_only(coarse_path):
    # the grid's fields are cached on module-global grids, and the constant
    # fields are shared by every lookup of a lift and its path
    p = coarse_path
    grid = p.grid
    shared = [grid.x_field, grid.t_field, grid.cutoff,
              p.lp.planted_field(I(ONE)), p.lp.planted_field(Ip(1, X(1), D)),
              p.cen_I[ONE.uid], p.cen_I[X(1).uid]]
    for f in shared:
        with pytest.raises(ValueError, match="read-only"):
            f[0, 0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            f *= 2.0
    # the empty forest's centering is the number 1.0
    assert p.cen_forest_at((), ALL) == 1.0


def test_constant_fields_hold_no_grid_buffer(coarse_path):
    # x, t, the cutoff, the lift's 1 and the centering -x each depend on x
    # alone or on t alone: a read-only broadcast view of one row or column
    p = coarse_path
    grid = p.grid
    shared = [grid.x_field, grid.t_field, grid.cutoff,
              p.lp.planted_field(I(ONE)), p.lp.planted_field(Ip(1, X(1), D)),
              p.cen_I[ONE.uid], p.cen_I[X(1).uid]]
    for f in shared:
        lo, hi = np.lib.array_utils.byte_bounds(f)
        assert f.shape == (grid.nt, grid.nx) and not f.flags.writeable
        assert hi - lo <= max(grid.nt, grid.nx) * f.itemsize


def test_rough_paths_basepoint_free(coarse_path, u920):
    p = coarse_path
    z, x1, x2 = _batch((12, 30)), _batch((30, 80)), _batch((5, 92))
    for w in u920.W:
        assert np.array_equal(p.value_at(w, z, x1), p.value_at(w, z, x2))
        assert np.array_equal(p.value_at(I(w), z, x1), p.value_at(I(w), z, x2))


def test_diagonal_vanishing(coarse_path, u920):
    # centered planted trees vanish at the base point; positive-order
    # derivative trees vanish there too
    p = coarse_path
    x = _batch((12, 40), (25, 88))
    for t in u920.N:
        if t is not ONE:
            assert np.all(np.abs(p.value_at(I(t), x, x)) < 1e-12)
    for t in u920.N_tilde:
        assert np.all(np.abs(p.value_at(Im(1, t), x, x)) < 1e-10)


def test_pathcopro_identity(coarse_path, u920):
    # the defining formula for the centered planted tree (solve increment
    # minus diagonal and first-order terms) agrees with the coproduct route
    p = coarse_path
    grid = p.grid
    z, x = (18, 70), (30, 95)
    zb, xb = _batch(z), _batch(x)
    for t in u920.N_ring:
        solve_at = {}
        for pt, node in (("z", z), ("x", x)):
            acc = 0.0
            for (l, f), c in p.cg.delta(t).items():
                acc += c * float(p.lp.ell(l)[node]) * p.cen_forest_at(f, xb)
            solve_at[pt] = acc
        defn = solve_at["z"] - solve_at["x"]
        # the stored centering is minus the solve at the base point, plus the
        # first-order term on N_tilde
        cen = float(p.cen_I[t.uid][x])
        if u920.member("N_tilde", t):
            nu_x = float(p.nu[t.uid][x])
            defn -= (grid.xs[z[1]] - grid.xs[x[1]]) * nu_x
            cen -= grid.xs[x[1]] * nu_x
        assert p.value_at(I(t), zb, xb) == pytest.approx(defn, abs=1e-10)
        assert -cen == pytest.approx(solve_at["x"], abs=1e-12)


def test_chen_exact_on_rough(coarse_path, u920):
    p = coarse_path
    z, uu, x = _batch((10, 30)), _batch((20, 60)), _batch((30, 90))
    for w in u920.W:
        assert np.all(p.chen_residual(w, z, uu, x) == 0.0)


def test_chen_degenerate_triple(coarse_path, u920):
    p = coarse_path
    z, x = _batch((10, 30)), _batch((25, 80))
    for s in u920.T:
        assert np.all(p.chen_residual(s, z, x, x) < 1e-12)


def test_chen_sampled(coarse_path, u920):
    p = coarse_path
    rng = np.random.default_rng(1)
    nodes = sample_nodes(p.grid, p.grid.probe_mask(), rng, 60)
    worst = 0.0
    for s in u920.T:
        rel = p.chen_residual(s, *_strided(nodes, 3, 57))
        worst = max(worst, np.max(rel))
    assert worst <= 1e-8


def test_strong_chen(coarse_path, u920):
    p = coarse_path
    rng = np.random.default_rng(2)
    nodes = sample_nodes(p.grid, p.grid.probe_mask(), rng, 40)
    worst = 0.0
    for t in u920.N:
        rel = p.strong_chen_residual(I(t), *_strided(nodes, 2, 38))
        worst = max(worst, np.max(rel))
    assert worst <= 1e-8
    # degenerate pairs
    for t in u920.N:
        assert np.all(p.strong_chen_residual(I(t), nodes, nodes) < 1e-12)


def test_derivative_consistency(coarse_path, u920):
    p = coarse_path
    z, x = _batch((14, 60), (3, 1)), _batch((28, 85), (0, 0))
    for t in u920.T_r:
        assert np.all(p.derivative_residual(t, z, x) <= 1e-10)


def test_renorm_path_identity(u920, cg920):
    grid = COARSE_GRID
    xi = noise_field(grid, "trig", seed=0)
    rng = np.random.default_rng(8)
    rm = random_counterterm_map(u920, rng, exact=False)
    lp = build_local_product(grid, u920, xi, rmap=rm, coalg=cg920)
    p = Path(lp)
    ruid = rm.as_uid_map()
    nodes = sample_nodes(grid, grid.probe_mask(), np.random.default_rng(3), 20)
    for t in u920.T_r:
        if t.kind != "prod":
            continue
        rel = p.renorm_path_residual(ruid, t, *_strided(nodes, 2, 18))
        assert np.all(rel <= 1e-10)


def test_order_scan_polynomial_rows(coarse_path):
    p = coarse_path
    scales = [1 / 8, 1 / 4, 1 / 2]
    rows = order_scan(p, [I(X(1)), I(ONE)], scales, n_pairs=60, seed=4)
    by = {r.sigma: r for r in rows}
    assert by["I(X1)"].slope == pytest.approx(1.0, abs=0.05)
    for L, v in zip(scales, by["I(X1)"].values):
        assert v == pytest.approx(L, rel=0.01)
    assert by["I(One)"].slope == pytest.approx(0.0, abs=0.01)


def test_order_scan_smooth_fixture(default_path_trig, u920):
    # smooth fields clear their order targets
    rows = order_scan(default_path_trig,
                      [s for s in u920.T_r if s.m_xi <= 3],
                      [1 / 8, 1 / 4, 1 / 2], n_pairs=50, seed=5)
    for r in rows:
        assert r.slope >= r.target - 0.25


def test_fit_slope_zero_values():
    assert fit_slope([0.25, 0.5], [0.0, 0.0]) == float("inf")
    assert fit_slope([0.25, 0.5], [1.0, 2.0]) == pytest.approx(1.0)


def test_order_scan_needs_scales(coarse_path):
    with pytest.raises(ValueError):
        order_scan(coarse_path, [I(ONE)], [0.25, 0.5])


@pytest.mark.parametrize("delta", ["9/20", "2/5", "3/10", "13/50"])
def test_smoothable_is_t_r_and_planted_w(delta):
    # the trees order_scan smooths at the base point: T_r and I(W), over
    # T_cen and every tree of T_plus (T_r, T_l and the Ip trees)
    u = enumerate_universe(Fraction(delta))
    grid = COARSE_GRID
    p = Path(build_local_product(grid, u, grid.zeros()))
    want = {t.uid for t in u.T_r} | {s.uid for s in u.T_l
                                     if s.edge == EDGE_I and u.member("W", s.child)}
    smoothable = {s.uid for s in u.T_cen + u.T_plus if p.smoothable(s)}
    assert smoothable == want
    assert any(s.kind == PLANTED and s.uid in smoothable for s in u.T_l)


def test_a_build_keeps_the_entries_already_present(u920, cg920):
    # a table entry set before its tree is built is not overwritten by the
    # build that a read of another entry of the tree triggers
    grid = COARSE_GRID
    p = Path(build_local_product(grid, u920, noise_field(grid, "trig", seed=0),
                                 coalg=cg920))
    t = next(t for t in u920.N_tilde if t.kind == PROD)
    mine, yours = grid.ones(), grid.ones()
    p.diag[t.uid] = mine
    p.cen_I[t.uid] = yours
    assert p.nu[t.uid].shape == mine.shape
    assert p.cen_I[t.uid] is yours
    assert p.diag[t.uid] is mine
