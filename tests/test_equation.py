import hashlib
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

from phi4local.coeffs import classify_utau, pick_gamma
from phi4local import equation, field
from phi4local.field import (
    COARSE_GRID, DEFAULT_GRID, Grid, Mollifier, grad_x, noise_field,
)
from phi4local.lift import (
    CountertermMap, build_local_product, phi43_counterterms,
    random_counterterm_map, standard_families,
)
from phi4local.path import Path
from phi4local.equation import (
    BoundaryTrace, NumericalAbort, ResonantLevel, SolveConfig, TreeExpansion,
    _lower_order, cube_formula_check, dx_map, modelled_norms,
    reconstruction_check, remainder_coeffs, renorm_constants, renorm_product,
    seminorm_scale, solve_remainder, three_point_residual, u_tau_at,
)
from phi4local.symtree import (
    ONE, PROD, XI, I, X, canon, enumerate_universe, prod3, sign_of, tree_name,
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
            direct = direct + float(c) * 0.5 ** pw * p.nu[t.uid]
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
    t2 = next(t for t in u310.Q if t.m_one == 2)
    rm2 = CountertermMap(u310, {t2: Fraction(5, 7)})
    n_orderings = sum(1 for t in u310.Q if canon(t) is canon(t2))
    c2 = renorm_constants(u310, rm2)
    assert c2.r_phi2 == n_orderings * sign_of(t2) * Fraction(5, 7)
    assert c2.r_phi == 0 and c2.r1 == 0


def test_renorm_constants_derivative_class():
    # Q holds trees with an X leaf only at small delta: at 4/17 the nine
    # child orders of [I(Xi) I(Xi) I([I(X1) I(Xi) I(Xi)])], whose signed
    # values make the derivative constant and nothing else.  The random
    # draws follow Q's order, which is the universe's own, so the seed fixes
    # the X class's draw whatever the process enumerated before.
    u = enumerate_universe(Fraction(4, 17))
    with_x = [t for t in u.Q if t.m_x]
    assert len(with_x) == 9 and all(t.m_x == 1 for t in with_x)
    rm = random_counterterm_map(u, np.random.default_rng(0))
    rest = {t: rm.value(t) for t in u.Q if not t.m_x}
    c_rest = renorm_constants(u, CountertermMap(u, rest))
    assert c_rest.r_dphi == (0,)
    c = renorm_constants(u, rm)
    assert c.r_dphi == (sum(sign_of(t) * rm.value(t) for t in with_x),)
    assert c.r_dphi == (Fraction(-36, 7),)
    assert (c.r1, c.r_phi, c.r_phi2) == (c_rest.r1, c_rest.r_phi, c_rest.r_phi2)


def test_cube_formula_all_lifts(u920, cg920, smooth_v1):
    grid = DEFAULT_GRID
    xi = noise_field(grid, "trig", seed=0)
    mult = build_local_product(grid, u920, xi, coalg=cg920)
    p = Path(mult)
    assert p.lp.rmap is None
    assert cube_formula_check(p, TreeExpansion(p, smooth_v1)) <= 1e-10
    wick, sunset = standard_families(u920)
    rm = CountertermMap(u920, {**{t: -0.4 for t in wick},
                               **{t: -0.03 for t in sunset}})
    built = build_local_product(grid, u920, xi, rmap=rm, coalg=cg920)
    p = Path(built)
    assert p.lp.rmap is rm
    assert cube_formula_check(p, TreeExpansion(p, smooth_v1)) <= 1e-8


def test_cube_formula_zero_base(u920, cg920):
    grid = COARSE_GRID
    xi = noise_field(grid, "trig", seed=0)
    lp = build_local_product(grid, u920, xi, coalg=cg920)
    p = Path(lp)
    assert cube_formula_check(p, TreeExpansion(p, grid.zeros())) <= 1e-12


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
    for h, k in ((1 / 16, 1 / 32), (1 / 32, 1 / 128)):
        grid = Grid(h=h, k_store=k)
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
    y, x = (np.array([20, 0]), np.array([60, 5])), (np.array([30, 40]),
                                                       np.array([90, grid.nx - 1]))
    # low level: only the unit tree enters, the error is the plain increment
    gamma = pick_gamma(u920, Fraction(1, 20))
    got = u_tau_at(p, e, ONE, gamma - 2, y, x)
    assert got == pytest.approx(v1[y] - v1[x], abs=1e-12)
    # pure-noise trees have identically vanishing errors at high level
    gamma = pick_gamma(u920, Fraction(3, 2))
    for t in u920.N_ring:
        if t.m_one == 0 and t.m_x == 0:
            assert np.all(np.abs(u_tau_at(p, e, t, gamma - 2, y, x)) < 1e-12)


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
    assert three_point_residual(p, e, pick_gamma(u920, Fraction(3, 2)),
                                n_triples=30, seed=5) <= 1e-8


def test_reconstruction_consistency(default_path_trig):
    p = default_path_trig
    grid = p.grid
    v1 = 0.4 + 0.2 * np.sin(1.7 * grid.x_field) * np.cos(2.1 * grid.t_field)
    e = TreeExpansion(p, v1)
    rep = reconstruction_check(p, e, [1 / 8, 1 / 4, 1 / 2])
    assert abs(rep["measured_exponent"] - rep["predicted_exponent"]) <= 0.3
    assert rep["values"][0] < rep["values"][-1]


def test_reconstruction_requires_scales(default_path_trig):
    e = TreeExpansion(default_path_trig, default_path_trig.grid.ones())
    with pytest.raises(ValueError):
        reconstruction_check(default_path_trig, e, [0.5, 0.25])


def test_scans_smooth_each_field_once_per_scale(monkeypatch, default_path_trig,
                                                default_path_gauss):
    # the CLI's scales on the default grid at delta 9/20: 8 canonical trees
    # per scale in the seminorm scan; per scale in the reconstruction scan,
    # the 4 canonical trees the composites expand into, f_diag and the 7
    # distinct running fields of the nonzero channels
    scales = [1 / 16, 1 / 8, 1 / 4, 1 / 2]
    calls = []
    smooth = Mollifier.smooth

    def counted(self, f, L, n=None):
        calls.append((hashlib.sha256(f.tobytes()).hexdigest(), f.shape, L))
        return smooth(self, f, L, n)

    monkeypatch.setattr(Mollifier, "smooth", counted)
    p = default_path_trig
    seminorm_scale(p, scales)
    assert len(calls) == 32
    assert len(set(calls)) == len(calls)
    calls.clear()
    memo: dict = {}
    for _ in range(2):       # the I(w) heat solves share the memo
        p.smoothed_centered_at_base(I(XI), 1 / 8, memo)
    assert len(calls) == 1
    calls.clear()
    p = default_path_gauss
    grid = p.grid
    v1 = 0.4 + 0.2 * np.sin(1.7 * grid.x_field) * np.cos(2.1 * grid.t_field)
    reconstruction_check(p, TreeExpansion(p, v1), scales)
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
    # channel has an identically zero diagonal and reads 0 at every scale,
    # and with a nonzero diagonal it raises instead of reading 0
    u = enumerate_universe(Fraction(delta))
    grid = COARSE_GRID
    p = Path(build_local_product(grid, u, noise_field(grid, "trig", seed=0)))
    e = TreeExpansion(p, grid.ones())
    channel = equation._channel
    scales = [1 / 8, 1 / 4, 1 / 2]
    seen = []

    def record(*args):
        seen.append(args)
        return channel(*args)

    def channel_values(*args):
        ch = channel(*args)
        return [equation._channel_value(p, e, ch, L, grid.probe_mask())
                for L in scales]

    monkeypatch.setattr(equation, "_channel", record)
    reconstruction_check(p, e, scales)
    missing = 0
    for args in seen:
        _p, _e, t, tt, cutoff = args
        lefts = {q for _tb, f in equation._cut_terms(p, t, cutoff)
                 for (lf, _gf) in p.cg.delta_forest(f) for q in lf}
        if all(_has_field_value(p.lp, q) for q in lefts):
            continue
        missing += 1
        assert not p.diag[tt.uid].any()
        assert channel_values(*args) == [0.0] * len(scales)
        monkeypatch.setitem(p.diag, tt.uid, grid.ones())
        with pytest.raises(KeyError, match="no field value"):
            channel_values(*args)
    assert bool(missing) == (delta in ("3/10", "13/50"))


def test_reconstruction_holds_one_channel_at_a_time(monkeypatch, u310):
    # at each scale each channel builds, smooths and drops its own fields:
    # as a channel's value at a scale starts, and once the check returns,
    # no field that an earlier channel value smoothed, nor any of its
    # smoothings, is alive.  Arrays are counted through weak references,
    # not read off the RSS
    grid = COARSE_GRID
    p = Path(build_local_product(grid, u310,
                                 noise_field(grid, "trig", seed=0, amp=2.0)))
    v1 = 0.4 + 0.2 * np.sin(1.7 * grid.x_field) * np.cos(2.1 * grid.t_field)
    refs, inside, checked = [], [], []
    smooth = Mollifier.smooth
    channel_value = equation._channel_value

    def tracked(self, f, L, n=None):
        g, mask = smooth(self, f, L, n)
        if inside:
            refs.extend((weakref.ref(f), weakref.ref(g)))
        return g, mask

    def one_channel(*args):
        assert all(r() is None for r in refs)
        checked.append(len(refs))
        inside.append(True)
        try:
            return channel_value(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(Mollifier, "smooth", tracked)
    monkeypatch.setattr(equation, "_channel_value", one_channel)
    reconstruction_check(p, TreeExpansion(p, v1), [1 / 8, 1 / 4, 1 / 2])
    assert refs and all(r() is None for r in refs)
    # some channel starts after another one has smoothed its fields
    assert any(checked)


def test_seminorm_scan_holds_one_scale_of_smoothings(monkeypatch,
                                                     default_path_trig):
    # each smoothing is read at its own scale only: once the scan smooths
    # at a scale, no smoothing made at another scale is alive
    made = []               # (scale, weak reference to the smoothing)
    smooth = Mollifier.smooth

    def tracked(self, f, L, n=None):
        assert all(r() is None for at, r in made if at != L)
        g, mask = smooth(self, f, L, n)
        made.append((L, weakref.ref(g)))
        return g, mask

    monkeypatch.setattr(Mollifier, "smooth", tracked)
    scales = [1 / 16, 1 / 8, 1 / 4, 1 / 2]
    seminorm_scale(Path(default_path_trig.lp), scales)
    assert {at for at, _r in made} == set(scales)


def test_seminorm_scan_keeps_no_smoothing(monkeypatch, default_path_trig):
    # the scan owns its smoothings: none is alive once it returns, and the
    # Path holds none of them
    made = []
    smooth = Mollifier.smooth

    def tracked(self, f, L, n=None):
        g, mask = smooth(self, f, L, n)
        made.append(weakref.ref(g))
        return g, mask

    monkeypatch.setattr(Mollifier, "smooth", tracked)
    seminorm_scale(default_path_trig, [1 / 16, 1 / 8, 1 / 4, 1 / 2])
    assert made and all(r() is None for r in made)


def _reconstruction_path(u):
    grid = COARSE_GRID
    p = Path(build_local_product(grid, u,
                                 noise_field(grid, "trig", seed=0, amp=2.0)))
    v1 = 0.4 + 0.2 * np.sin(1.7 * grid.x_field) * np.cos(2.1 * grid.t_field)
    return p, TreeExpansion(p, v1)


def test_reconstruction_channels_hold_no_path_smoothing(monkeypatch, u310):
    # the channels smooth their own fields: every smoothing of the total at
    # a scale, its memo's included, is dropped before the first channel
    # starts at that scale
    p, e = _reconstruction_path(u310)
    refs, calls, inside = [], [], []
    smooth = Mollifier.smooth
    channel_value = equation._channel_value

    def tracked(self, f, L, n=None):
        g, mask = smooth(self, f, L, n)
        if not inside:
            refs.append(weakref.ref(g))
        return g, mask

    def one_channel(*args):
        assert all(r() is None for r in refs)
        calls.append(args)
        inside.append(True)
        try:
            return channel_value(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(Mollifier, "smooth", tracked)
    monkeypatch.setattr(equation, "_channel_value", one_channel)
    reconstruction_check(p, e, [1 / 8, 1 / 4, 1 / 2])
    assert refs and calls


class _BaseFactor(np.ndarray):
    """A field that records, by weak reference, each array formed from it,
    and finds none formed before it alive: a centering field marks the base
    fields of a reconstruction channel, and a diagonal its running fields."""

    made: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        out = getattr(ufunc, method)(
            *(np.asarray(a) if isinstance(a, _BaseFactor) else a
              for a in inputs), **kwargs)
        if isinstance(out, np.ndarray):     # not the scalar of diag.any()
            assert all(r() is None for r in _BaseFactor.made)
            _BaseFactor.made.append(weakref.ref(out))
        return out


def test_reconstruction_channel_holds_one_base_field_at_a_time(monkeypatch, u310):
    # a channel forms each base field where its scale's sum reads it: no
    # two base fields are alive together
    p, e = _reconstruction_path(u310)
    cen_forest_at = Path.cen_forest_at
    channel_value = equation._channel_value
    inside = []

    def marked(self, forest, x):
        out = cen_forest_at(self, forest, x)
        if inside and isinstance(out, np.ndarray):
            out = out.view(_BaseFactor)
        return out

    def one_channel(*args):
        inside.append(True)
        try:
            return channel_value(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(_BaseFactor, "made", [])
    monkeypatch.setattr(Path, "cen_forest_at", marked)
    monkeypatch.setattr(equation, "_channel_value", one_channel)
    reconstruction_check(p, e, [1 / 8, 1 / 4, 1 / 2])
    assert len(_BaseFactor.made) > 3


def test_reconstruction_channel_holds_one_running_field_at_a_time(monkeypatch,
                                                                  u310):
    # a channel builds each running field, diag times theta(t) or times a
    # left forest, just before its first smoothing at a scale, and keeps
    # only the smoothing: no two running fields are alive together.  The
    # diagonals mark every array formed from them, the total's too
    diag_entry = Path._diag_entry
    monkeypatch.setattr(Path, "_diag_entry",
                        lambda self, t: diag_entry(self, t).view(_BaseFactor))
    monkeypatch.setattr(_BaseFactor, "made", [])
    p, e = _reconstruction_path(u310)
    scales = [1 / 8, 1 / 4, 1 / 2]
    rep = reconstruction_check(p, e, scales)
    nonzero = sum(1 for term in rep["terms"] if any(term["values"]))
    assert len(_BaseFactor.made) > 2 * nonzero * len(scales)


def test_reconstruction_transforms_each_kernel_once_per_scale(
        monkeypatch, default_path_gauss):
    # the total and every channel smooth scale by scale, so the Mollifier,
    # which keeps the spectrum of one scale, transforms each scale's kernel
    # once
    p = Path(default_path_gauss.lp)
    rfft2 = field._rfft2
    kernels = []

    def counted(a, fshape):
        if any(a is k for k in p.mol._kernels.values()):
            kernels.append(a.shape)
        return rfft2(a, fshape)

    monkeypatch.setattr(field, "_rfft2", counted)
    scales = [1 / 16, 1 / 8, 1 / 4, 1 / 2]
    grid = p.grid
    v1 = 0.4 + 0.2 * np.sin(1.7 * grid.x_field) * np.cos(2.1 * grid.t_field)
    reconstruction_check(p, TreeExpansion(p, v1), scales)
    assert len(kernels) == len(scales)


def test_reconstruction_reports_a_nan_channel(monkeypatch, coarse_path):
    # a channel whose values read NaN makes the predicted exponent NaN,
    # also when it is not the first channel, where Python's min dropped it
    p = coarse_path
    grid = p.grid
    tt = prod3(I(X(1)), I(XI), I(XI), p.u.delta)
    poisoned = p.diag[tt.uid].copy()
    poisoned[grid.nt // 2, grid.nx // 2] = np.nan
    monkeypatch.setitem(p.diag, tt.uid, poisoned)
    v1 = 0.4 + 0.2 * np.sin(1.7 * grid.x_field) * np.cos(2.1 * grid.t_field)
    rep = reconstruction_check(p, TreeExpansion(p, v1), [1 / 8, 1 / 4, 1 / 2])
    gammas = {term["tree"]: term["gamma"] for term in rep["terms"]}
    assert list(gammas).index(tree_name(tt)) > 0
    assert math.isnan(gammas[tree_name(tt)])
    assert math.isnan(rep["predicted_exponent"])


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


def test_scans_build_only_the_trees_they_read(u920, cg920, u310):
    # each table builds a product tree's entry on the first read of that
    # entry: the a priori seminorms read the cen_I entries of some trees,
    # no nu entry, no lift gradient and no diagonal, and the reconstruction
    # check reads the diagonals of fewer trees than exist.  A permuted
    # product tree builds nothing: every child order of a product holds
    # the arrays of its canonical tree
    grid = COARSE_GRID
    xi = noise_field(grid, "gauss", seed=1, eps=1 / 8)
    prods = [t for t in u920.T_r if t.kind == PROD]
    scales = [1 / 8, 1 / 4, 1 / 2]
    p = Path(build_local_product(grid, u920, xi, coalg=cg920))
    assert not p.diag and not p.nu
    seminorm_scale(p, scales)
    assert not p.diag and not p.nu and not p.lp._grad
    assert 0 < len({t.uid for t in prods} & set(p.cen_I)) < len(prods)
    p = Path(build_local_product(grid, u920, xi, coalg=cg920))
    v1 = 0.4 + 0.2 * np.sin(1.7 * grid.x_field) * np.cos(2.1 * grid.t_field)
    reconstruction_check(p, TreeExpansion(p, v1), scales)
    assert 0 < len(p.diag) < len(prods)
    p = Path(build_local_product(grid, u310, xi))
    prods = [t for t in u310.T_r if t.kind == PROD]
    off_w = [t for t in prods if not u310.member("W", t)]
    for t in prods:
        p.diag[t.uid]
    for t in off_w:
        p.nu[t.uid]
    classes = {canon(t) for t in prods}
    assert len(classes) == 22
    assert len({id(a) for a in p.diag.values()}) == len(classes)
    assert len({id(a) for a in p.nu.values()}) == len({canon(t) for t in off_w})
