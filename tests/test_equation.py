import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from phi4local.coeffs import classify_utau, pick_gamma
from phi4local import equation
from phi4local.field import (
    COARSE_GRID, DEFAULT_GRID, Grid, Mollifier, grad_x, noise_field,
)
from phi4local.lift import (
    CountertermMap, build_local_product, phi43_counterterms, standard_families,
)
from phi4local.path import Path
from phi4local.equation import (
    BoundaryTrace, NumericalAbort, ResonantLevel, SolveConfig, TreeExpansion,
    _lower_order, cube_formula_check, dx_map, modelled_norms,
    reconstruction_check, remainder_coeffs, renorm_constants, renorm_product,
    seminorm_scale, solve_remainder, three_point_residual, u_tau_at,
)
from phi4local.symtree import (
    ONE, XI, I, X, enumerate_universe, prod3, sign_of, tree_name,
)

D = Fraction(9, 20)


def test_dx_map_sign_convention(u920, cg920):
    # with a zero lift the corrected diagonal gradients vanish and the map
    # reduces to the negative plain gradient, as the defining formula reads
    grid = COARSE_GRID
    lp = build_local_product(grid, u920, grid.zeros(), coalg=cg920)
    p = Path(lp)
    v1 = np.sin(1.1 * grid.x_field) * np.cos(0.7 * grid.t_field)
    vX = dx_map(p, v1)
    ref = -grad_x(grid, v1)
    assert np.max(np.abs(vX - ref)) < 1e-12


def test_dx_map_correction_fields(coarse_path, u920):
    p = coarse_path
    grid = p.grid
    v1 = 0.5 * grid.ones()
    vX = dx_map(p, v1)
    direct = grid.zeros()
    from phi4local.coeffs import upsilon_monomial
    for t in u920.N_ring:
        if u920.order(t) < -1:
            c, pw, _ = upsilon_monomial(t)
            direct = direct + float(c) * 0.5 ** pw * p.diag_im[t.uid]
    assert np.max(np.abs(vX - direct)) < 1e-12


def test_renorm_product_multiplicative(coarse_path, smooth_v1=None):
    p = coarse_path
    grid = p.grid
    v1 = 0.5 + 0.3 * np.sin(2.0 * grid.x_field) * np.cos(1.5 * grid.t_field)
    e = TreeExpansion(p, v1)
    out = renorm_product(p, e, e, e)
    phi = e.pointwise()
    probe = grid.probe_mask()
    scale = max(1.0, float(np.max(np.abs(phi ** 3))))
    assert np.max(np.abs((out - phi ** 3)[probe])) / scale < 1e-10
    # the precondition: X_{z,z} applied to the expansion term by term, which
    # leaves One and the W trees, is its pointwise value
    direct = grid.zeros()
    for t in p.u.N + tuple(p.u.W):
        if t is ONE:
            direct += e.theta(t)
        elif p.u.member("W", t):
            direct += e.theta(t) * p.lp.ell(t)
    scale = max(1.0, float(np.max(np.abs(phi))))
    assert float(np.max(np.abs(direct - phi))) / scale < 1e-12


def test_renorm_product_constant_expansion(u920, cg920):
    # constant coefficient over a vanishing lift: the product collapses to
    # the cube of the constant
    grid = COARSE_GRID
    lp = build_local_product(grid, u920, grid.zeros(), coalg=cg920)
    p = Path(lp)
    c = 1.7
    e = TreeExpansion(p, c * grid.ones())
    out = renorm_product(p, e, e, e)
    assert np.max(np.abs(out - c ** 3)) < 1e-12
    t = prod3(I(ONE), I(ONE), I(ONE), D)
    assert np.max(np.abs(p.diag[t.uid] - 1.0)) < 1e-12


def test_renorm_constants_sign_rule(u920):
    wick, sunset = standard_families(u920)
    rm = CountertermMap(u920, {**{t: Fraction(-37, 100) for t in wick},
                               **{t: Fraction(-13, 250) for t in sunset}})
    c = renorm_constants(u920, rm)
    assert c.r_phi == 3 * Fraction(37, 100) - 9 * Fraction(13, 250)
    assert c.r1 == 0 and c.r_phi2 == 0 and all(x == 0 for x in c.r_dphi)
    assert renorm_constants(u920, None).r_phi == 0


def test_renorm_constants_two_leaf_class(u310):
    # a map supported on one permutation class with a squared coefficient
    # (exists at the smaller regularity): the signed value lands in the
    # quadratic constant once per ordering, as in the 3x / 9x factors of the
    # standard families
    from phi4local.symtree import canon
    t2 = next(t for t in u310.Q if t.m_one == 2)
    rm2 = CountertermMap(u310, {t2: Fraction(5, 7)})
    n_orderings = sum(1 for t in u310.Q if canon(t) is canon(t2))
    c2 = renorm_constants(u310, rm2)
    assert c2.r_phi2 == n_orderings * sign_of(t2) * Fraction(5, 7)
    assert c2.r_phi == 0 and c2.r1 == 0


def test_cube_formula_all_lifts(u920, cg920, smooth_v1):
    grid = DEFAULT_GRID
    xi = noise_field(grid, "trig", seed=0)
    mult = build_local_product(grid, u920, xi, coalg=cg920)
    assert cube_formula_check(Path(mult), None, smooth_v1) <= 1e-10
    wick, sunset = standard_families(u920)
    rm = CountertermMap(u920, {**{t: -0.4 for t in wick},
                               **{t: -0.03 for t in sunset}})
    built = build_local_product(grid, u920, xi, rmap=rm, coalg=cg920)
    assert cube_formula_check(Path(built), rm, smooth_v1) <= 1e-8


def test_cube_formula_zero_base(u920, cg920):
    grid = COARSE_GRID
    xi = noise_field(grid, "trig", seed=0)
    lp = build_local_product(grid, u920, xi, coalg=cg920)
    assert cube_formula_check(Path(lp), None, grid.zeros()) <= 1e-12


def test_prefactor_three_is_permutation_multiplicity(default_path_trig, u920):
    # the combinatorial prefactor of the mixed groups equals the number of
    # slot placements of the distinguished factor, at the level of stored
    # diagonal fields
    p = default_path_trig
    w = u920.W[0]
    for t1 in u920.N[:6]:
        for t2 in u920.N[:6]:
            base = prod3(I(t1), I(t2), I(w), D)
            if base is None:
                continue
            placements = [prod3(I(t1), I(t2), I(w), D),
                          prod3(I(t1), I(w), I(t2), D),
                          prod3(I(w), I(t1), I(t2), D)]
            total = sum(p.diag[t.uid] for t in placements)
            assert np.max(np.abs(total - 3.0 * p.diag[base.uid])) < 1e-12


def remainder_rhs(coeffs, v):
    """Right-hand side of the remainder equation for a field v on the grid,
    the formula solve_remainder marches."""
    return -v ** 3 + _lower_order(coeffs.K0, coeffs.K, v)


def test_remainder_correspondence(default_path_trig, u920):
    # the assembled right-hand side equals the classical expansion for the
    # multiplicative lift wherever the cutoff is one
    p = default_path_trig
    grid = p.grid
    co = remainder_coeffs(p)
    v = 0.3 * np.sin(1.3 * grid.x_field) * np.cos(0.8 * grid.t_field)
    rhs = remainder_rhs(co, v)
    uu = grid.zeros()
    for w in u920.W:
        uu += sign_of(w) * p.lp.ell(w)
    classical = -(v + uu) ** 3 + p.lp.xi
    for w in u920.W:
        classical -= sign_of(w) * grid.cutoff * p.lp.value(w)
    inner = (grid.cutoff > 1.0 - 1e-12) & grid.probe_mask()
    assert np.max(np.abs((rhs - classical)[inner])) < 1e-10


def test_remainder_coeffs_keyed_by_power(coarse_path, u920, u25, u310, cg920):
    # the right-hand side is a polynomial in v alone, on every universe and
    # lift kind: no coefficient multiplies the generalized derivative
    grid = COARSE_GRID
    xi = noise_field(grid, "trig", seed=0)
    rmap, _ = phi43_counterterms(grid, u920, seeds=[0], eps=0.25, kind="trig")
    w = prod3(I(XI), I(XI), I(XI), D)
    paths = [coarse_path,
             Path(build_local_product(grid, u25, xi)),
             Path(build_local_product(grid, u310, xi)),
             Path(build_local_product(grid, u920, xi, rmap=rmap, coalg=cg920)),
             Path(build_local_product(grid, u920, xi, coalg=cg920,
                                      custom={w: noise_field(grid, "bump")}))]
    for p in paths:
        co = remainder_coeffs(p)
        assert co.K and all(type(key) is int for key in co.K)


def test_remainder_coeffs_rejects_vx_term(coarse_path, monkeypatch):
    # the one product carrying vX has a vanishing diagonal field; were it not
    # zero, dropping the term would change the equation
    t = prod3(I(X(1)), I(XI), I(XI), D)
    assert not np.any(coarse_path.diag[t.uid])
    monkeypatch.setitem(coarse_path.diag, t.uid, coarse_path.grid.ones())
    with pytest.raises(AssertionError):
        remainder_coeffs(coarse_path)


def test_solver_zero_case(u920, cg920):
    grid = COARSE_GRID
    lp = build_local_product(grid, u920, grid.zeros(), coalg=cg920)
    p = Path(lp)
    co = remainder_coeffs(p)
    run, = solve_remainder(p, co, [BoundaryTrace("zero", 0.0)])["runs"]
    assert all(v == 0.0 for v in run["norms"].values())


def test_solver_small_noise_stays_small(u920, cg920):
    grid = COARSE_GRID
    xi = noise_field(grid, "trig", seed=0, amp=0.05)
    lp = build_local_product(grid, u920, xi, coalg=cg920)
    p = Path(lp)
    co = remainder_coeffs(p)
    run, = solve_remainder(p, co, [BoundaryTrace("zero", 0.0)])["runs"]
    assert run["norms"]["0.1"] < 0.05


def test_solver_blowup_cap(default_path_trig):
    co = remainder_coeffs(default_path_trig)
    with pytest.raises(NumericalAbort):
        solve_remainder(default_path_trig, co,
                        [BoundaryTrace("const", 50.0)],
                        SolveConfig(cap=10.0))


def test_solver_resolution_consistency(u920):
    # halving both steps moves the interior norm by a small fraction
    from phi4local.coalgebra import Coalgebra
    cg = Coalgebra(u920)
    norms = {}
    for h, k, sub in ((1 / 16, 1 / 32, 32), (1 / 32, 1 / 128, 32)):
        grid = Grid(h=h, k_store=k, substeps=sub)
        xi = noise_field(grid, "trig", seed=0, amp=0.5)
        lp = build_local_product(grid, u920, xi, coalg=cg)
        p = Path(lp)
        co = remainder_coeffs(p)
        run, = solve_remainder(p, co, [BoundaryTrace("const", 2.0)],
                               SolveConfig(radii=(0.25,)))["runs"]
        norms[h] = run["norms"]["0.25"]
    assert abs(norms[1 / 16] - norms[1 / 32]) <= 0.05 * abs(norms[1 / 32])


def test_modelled_norms_rejects_resonant(coarse_path):
    e = TreeExpansion(coarse_path, coarse_path.grid.ones())
    with pytest.raises(ResonantLevel):
        modelled_norms(coarse_path, e, Fraction(2) + coarse_path.u.order(ONE))


def test_modelled_norms_rejects_gamma_above_two(coarse_path, u920):
    # above 2 the classified form is not an exact rewriting any more
    e = TreeExpansion(coarse_path, coarse_path.grid.ones())
    with pytest.raises(ValueError, match="not below 2"):
        modelled_norms(coarse_path, e, pick_gamma(u920, Fraction(201, 100)))


@pytest.mark.parametrize("delta", ["9/20", "2/5", "3/10", "13/50"])
def test_v3_sum_empty_below_gamma_two(delta):
    # classified_u_tau_at leaves out the V3 sum.  Its one tree has order 0,
    # so below gamma = 2 its level is negative, and a term would need three
    # orders of N adding up to less than level - 6 < -6, three times the
    # least order in N
    u = enumerate_universe(Fraction(delta))
    v3 = [t for t in u.N if classify_utau(t, u).kind == "V3"]
    assert len(v3) == 1 and u.order(v3[0]) == 0
    assert min(u.order(t) for t in u.N) == -2


def test_utau_special_cases(coarse_path, u920):
    p = coarse_path
    grid = p.grid
    v1 = 0.5 + 0.3 * np.sin(2.0 * grid.x_field) * np.cos(1.5 * grid.t_field)
    e = TreeExpansion(p, v1)
    y, x = (20, 60), (30, 90)
    # low level: only the unit tree enters, the error is the plain increment
    gamma = pick_gamma(u920, Fraction(1, 20))
    got = u_tau_at(p, e, ONE, gamma - 2, y, x)
    assert got == pytest.approx(float(v1[y] - v1[x]), abs=1e-12)
    # pure-noise trees have identically vanishing errors at high level
    gamma = pick_gamma(u920, Fraction(3, 2))
    for t in u920.N_ring:
        if t.m_one == 0 and t.m_x == 0:
            assert abs(u_tau_at(p, e, t, gamma - 2, y, x)) < 1e-12


def test_utau_classified_crosscheck(coarse_path, u920):
    p = coarse_path
    grid = p.grid
    v1 = 0.5 + 0.3 * np.sin(2.0 * grid.x_field) * np.cos(1.5 * grid.t_field)
    e = TreeExpansion(p, v1)
    for target in (Fraction(1, 2), Fraction(3, 2)):
        mn = modelled_norms(p, e, pick_gamma(u920, target), n_pairs=40, seed=3)
        assert mn.max_rel_mismatch <= 1e-8


def test_modelled_norms_keeps_nan(coarse_path, u920):
    e = TreeExpansion(coarse_path, np.full_like(coarse_path.grid.ones(), np.nan))
    mn = modelled_norms(coarse_path, e, pick_gamma(u920, Fraction(3, 2)),
                        n_pairs=5, seed=3)
    assert math.isnan(mn.max_rel_mismatch)


def test_three_point_identity(coarse_path, u920):
    p = coarse_path
    grid = p.grid
    v1 = 0.5 + 0.3 * np.sin(2.0 * grid.x_field) * np.cos(1.5 * grid.t_field)
    e = TreeExpansion(p, v1)
    rep = three_point_residual(p, e, pick_gamma(u920, Fraction(3, 2)),
                               n_triples=30, seed=5)
    assert rep["max_rel_residual"] <= 1e-8


def test_reconstruction_consistency(default_path_trig):
    p = default_path_trig
    grid = p.grid
    v1 = 0.4 + 0.2 * np.sin(1.7 * grid.x_field) * np.cos(2.1 * grid.t_field)
    e = TreeExpansion(p, v1)
    rep = reconstruction_check(p, e, XI, XI, [1 / 8, 1 / 4, 1 / 2])
    assert abs(rep["measured_exponent"] - rep["predicted_exponent"]) <= 0.3
    assert rep["values"][0] < rep["values"][-1]


def test_reconstruction_requires_scales(default_path_trig):
    e = TreeExpansion(default_path_trig, default_path_trig.grid.ones())
    with pytest.raises(ValueError):
        reconstruction_check(default_path_trig, e, XI, XI, [0.5, 0.25])


def test_scans_smooth_each_field_once_per_scale(monkeypatch, default_path_trig,
                                                default_path_gauss):
    # the CLI's scales on the default grid at delta 9/20, on fresh Paths (a
    # Path keeps its smoothed tables): 8 canonical trees per scale in the
    # seminorm scan; per scale in the reconstruction scan, the 4 canonical
    # trees the composites expand into, f_diag and the 7 distinct running
    # fields of the nonzero channels
    scales = [1 / 16, 1 / 8, 1 / 4, 1 / 2]
    calls = []
    smooth = Mollifier.smooth

    def counted(self, f, L, n=None):
        calls.append((hashlib.sha256(f.tobytes()).hexdigest(), f.shape, L))
        return smooth(self, f, L, n)

    monkeypatch.setattr(Mollifier, "smooth", counted)
    p = Path(default_path_trig.lp)
    seminorm_scale(p, scales)
    assert len(calls) == 32
    assert len(set(calls)) == len(calls)
    calls.clear()
    for _ in range(2):       # the I(w) heat solves share the memo
        p.smoothed_centered_at_base(I(XI), 1 / 8)
    assert len(calls) == 1
    calls.clear()
    p = Path(default_path_gauss.lp)
    grid = p.grid
    v1 = 0.4 + 0.2 * np.sin(1.7 * grid.x_field) * np.cos(2.1 * grid.t_field)
    reconstruction_check(p, TreeExpansion(p, v1), XI, XI, scales)
    assert len(calls) == 48


def _has_field_value(lp, planted) -> bool:
    try:
        lp.planted_field(planted)
    except KeyError:
        return False
    return True


@pytest.mark.parametrize("delta", ["9/20", "2/5", "3/10", "13/50"])
def test_channels_without_field_values_have_zero_diagonal(monkeypatch, delta):
    # below 2/5 a running forest of the reconstruction channels may reach
    # Ip(tau) for a product tau, which has no field value; every such
    # channel has an identically zero diagonal and is skipped, and with a
    # nonzero diagonal it raises instead of reading 0
    u = enumerate_universe(Fraction(delta))
    grid = COARSE_GRID
    p = Path(build_local_product(grid, u, noise_field(grid, "trig", seed=0)))
    e = TreeExpansion(p, grid.ones())
    channel_pairs = equation._channel_pairs
    seen = []

    def record(path, e, t, composite, cutoff):
        seen.append((t, composite, cutoff))
        return channel_pairs(path, e, t, composite, cutoff)

    monkeypatch.setattr(equation, "_channel_pairs", record)
    reconstruction_check(p, e, XI, XI, [1 / 8, 1 / 4, 1 / 2])
    missing = 0
    for t, tt, cutoff in seen:
        lefts = {q for _tb, f in equation._support(p, equation._cut_terms, t, cutoff)
                 for (lf, _gf) in p.cg.delta_forest(f) for q in lf}
        if all(_has_field_value(p.lp, q) for q in lefts):
            continue
        missing += 1
        assert not p.diag[tt.uid].any()
        assert channel_pairs(p, e, t, tt, cutoff) == ([], [])
        monkeypatch.setitem(p.diag, tt.uid, grid.ones())
        with pytest.raises(KeyError, match="no field value"):
            channel_pairs(p, e, t, tt, cutoff)
    assert bool(missing) == (delta in ("3/10", "13/50"))


def telescoping_residual(path, f, L, depth, probe=None):
    """Dyadic telescoping of the smoothing operator, by the exact semigroup
    property of the discrete kernels."""
    grid = path.grid
    probe = grid.probe_mask() if probe is None else probe
    mol = path.mol
    gL, mL_ = mol.smooth(f, L)
    inner, mi = mol.smooth(f, L / 2 ** depth)
    comp, mc = mol.smooth(inner, L, n=depth)
    total = comp.copy()
    mask = mL_ & mc & mi
    for n in range(depth):
        a, ma = mol.smooth(f, L / 2 ** n)
        b0, mb = mol.smooth(f, L / 2 ** (n + 1))
        b, mb2 = mol.smooth(b0, L / 2 ** n, n=1)
        diff = a - b
        if n:
            diff, md = mol.smooth(diff, L, n=n)
            mask &= md
        total = total + diff
        mask &= ma & mb & mb2
    mask &= probe
    if not mask.any():
        raise ValueError("no admissible nodes for the telescoping check")
    return float(np.max(np.abs((gL - total)[mask])))


def test_telescoping(default_path_trig):
    f = noise_field(default_path_trig.grid, "trig", seed=3)
    assert telescoping_residual(default_path_trig, f, 0.5, 3) < 1e-12
