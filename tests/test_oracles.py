"""Loop forms of the point evaluators, truncated sums, heat march, diagonal
derivative tables, remainder march and renormalization operator, and the
case-by-case forms of the centering and planted-field lookups, kept as
reference oracles.

The package versions read precomputed tree supports, scalar table entries,
shared tables, one right-hand side and an index of the C- cuts; they must
agree with these direct forms bit for bit, since they perform the same float
operations in the same order.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from phi4local import equation
from phi4local.coalgebra import Coalgebra, _add
from phi4local.coeffs import pick_gamma
from phi4local.equation import BoundaryTrace, SolveConfig, TreeExpansion
from phi4local.field import COARSE_GRID, DEFAULT_GRID, heat_solve, noise_field
from phi4local.lift import random_counterterm_map
from phi4local.path import sample_nodes
from phi4local.symtree import (
    EDGE_I, EDGE_IP, GEN, ONE, PLANTED, PROD, XI, I, Im, canon, tree_name,
)

# -- oracles --------------------------------------------------------------------


def heat_solve_loop(grid, f):
    rf = grid.cutoff * f
    u = np.zeros(grid.nx)
    out = np.empty((grid.nt, grid.nx))
    out[0] = u
    k = grid.k_march
    lam = k / grid.h ** 2
    ns = grid.substeps
    for j in range(grid.nt - 1):
        a, b = rf[j], rf[j + 1]
        for s in range(ns):
            theta = s / ns
            rhs = (1.0 - theta) * a + theta * b
            u[1:-1] = (u[1:-1]
                       + lam * (u[2:] - 2 * u[1:-1] + u[:-2])
                       + k * rhs[1:-1])
            u[0] = 0.0
            u[-1] = 0.0
        out[j + 1] = u
    return out


def cen_at_field(path, p, x):
    """cen_at through a whole-field lookup."""
    grid, ch = path.grid, p.child
    if p.edge == EDGE_I:
        if ch is ONE:
            field = grid.ones()
        elif ch.kind == GEN and ch.label == "X":
            field = -grid.x_field
        else:
            field = path.cen_I[ch.uid]
    else:
        assert p.edge == EDGE_IP
        field = grid.ones() if ch.kind == GEN else -path.nu[(p.index, ch.uid)]
    return float(field[x])


def left_at_scalar(path, l, z):
    """X_z on a left coproduct factor, case by case in scalar form."""
    lp = path.lp
    if l.kind == PLANTED:
        ch = l.child
        if l.edge == EDGE_I:
            if ch is ONE:
                return 1.0
            if ch.kind == GEN and ch.label == "X":
                return float(path.grid.xs[z[1]])
            return float(lp.ell(ch)[z])
        if l.edge == EDGE_IP:
            if ch.kind == GEN:
                return 1.0
            raise KeyError("unexpected left factor %s" % tree_name(l))
        if ch.kind == GEN and ch.label == "X":
            return 1.0
        return float(lp.grad(l.index, ch)[z])
    raise KeyError("unexpected left factor %s" % tree_name(l))


def u_tau_loop(path, e, t, cutoff, y, x):
    u = path.u
    acc = e.theta_at(t, y)
    for tb in u.N:
        if u.order(tb) >= cutoff:
            continue
        f = path.cg.cplus(t, tb)
        if f is None:
            continue
        acc -= e.theta_at(tb, x) * path.forest_at(f, y, x)
    return acc


def v_loop(path, e, level, y, x):
    u = path.u
    acc = 0.0
    for t in u.N:
        if u.order(t) < level - 2:
            acc += e.theta_at(t, x) * path.value_at(I(t), y, x)
    return acc


def v2_loop(path, e, level, y, x):
    u = path.u
    acc = 0.0
    for t1 in u.N:
        o1 = u.order(t1)
        for t2 in u.N:
            if o1 + u.order(t2) < level - 4:
                acc += (e.theta_at(t1, x) * e.theta_at(t2, x)
                        * path.value_at(I(t1), y, x) * path.value_at(I(t2), y, x))
    return acc


def v3_loop(path, e, level, y, x):
    u = path.u
    acc = 0.0
    for t1 in u.N:
        o1 = u.order(t1)
        for t2 in u.N:
            o2 = u.order(t2)
            if o1 + o2 + 2 >= level - 4:
                continue
            for t3 in u.N:
                if o1 + o2 + u.order(t3) < level - 6:
                    acc += (e.theta_at(t1, x) * e.theta_at(t2, x)
                            * e.theta_at(t3, x)
                            * path.value_at(I(t1), y, x)
                            * path.value_at(I(t2), y, x)
                            * path.value_at(I(t3), y, x))
    return acc


def im_diag_loop(path, i, t):
    """X_{z,z} Im_i(t) summed again over the coproduct, plus the Ip centering."""
    u, lp = path.u, path.lp
    out = path.grid.zeros()
    if t.kind == PROD and not u.member("W", t):
        for (l, f), c in path.pairs[t.uid]:
            out += float(c) * lp.grad(i, l) * path.cen_forest_field(f)
    else:
        out += lp.grad(i, t)
    if u.member("N_tilde", t):
        out = out + -path.nu[(i, t.uid)]
    return out


def solve_remainder_loop(path, coeffs, trace, radii):
    """The remainder march with its right-hand side K0 + sum_p K[p] v^p
    written inline."""
    grid = path.grid
    h = grid.h
    k = h * h / 4
    mL = int(round((-1.0 + grid.S) / h))
    mR = int(round((1.0 + grid.S) / h))
    cols = slice(mL, mR + 1)
    xs = grid.xs[cols]
    K0row = coeffs.K0[:, cols]
    Krows = {p: arr[:, cols] for p, arr in coeffs.K.items()}

    def at_time(arr2, t):
        j = (t - grid.t0) / grid.k_store
        j0 = min(int(j), grid.nt - 2)
        frac = j - j0
        return (1 - frac) * arr2[j0] + frac * arr2[j0 + 1]

    v = trace.initial(xs)
    sup = {R: 0.0 for R in radii}
    col_masks = {R: np.abs(xs) < 1.0 - R for R in radii}
    t = 0.0
    for _step in range(int(round(1.0 / k))):
        rhs = at_time(K0row, t).copy()
        for p, arr in Krows.items():
            term = at_time(arr, t)
            if p:
                term = term * v ** p
            rhs += term
        lap = np.zeros_like(v)
        lap[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / (h * h)
        vh = v + k * (lap + rhs)
        v = vh / np.sqrt(1.0 + 2.0 * k * vh ** 2)
        t += k
        v[0] = trace.side(t, -1)
        v[-1] = trace.side(t, +1)
        assert math.isfinite(float(np.max(np.abs(v))))
        for R, msk in col_masks.items():
            if t > R * R and msk.any():
                sup[R] = max(sup[R], float(np.max(np.abs(v[msk]))))
    return {("%g" % R): sup[R] for R in radii}


def renorm_expand_loop(cg, rmap, tau):
    """R(tau) with a scan over all of Q on every call."""
    acc: dict = {}
    _add(acc, tuple(tau.children), 1)
    for tq in cg.u.Q:
        c = rmap.get(canon(tq).uid)
        if not c:
            continue
        f = cg.cminus(tq, tau)
        if f is not None:
            _add(acc, f, c)
    return acc


# -- comparisons ------------------------------------------------------------------

FIXTURES = ["default_path_trig", "default_path_gauss"]


def _pairs(path, n, seed):
    rng = np.random.default_rng(seed)
    probe = path.grid.probe_mask()
    return list(zip(sample_nodes(path.grid, probe, rng, n),
                    sample_nodes(path.grid, probe, rng, n)))


def _levels(u):
    """Every level the products suite reaches from pick_gamma, plus two
    above it where the two- and three-fold supports are not empty."""
    gamma = pick_gamma(u, Fraction(3, 2))
    cutoff = gamma - 2
    levels = {gamma, gamma + 1, gamma + 2}
    levels |= {cutoff - u.order(t) for t in u.N}
    return gamma, sorted(levels)


@pytest.mark.parametrize("grid", [COARSE_GRID, DEFAULT_GRID],
                         ids=["coarse", "default"])
def test_heat_solve_matches_loop(grid):
    for f in (noise_field(grid, "trig", seed=1),
              noise_field(grid, "gauss", seed=2, eps=1 / 8)):
        assert np.array_equal(heat_solve(grid, f), heat_solve_loop(grid, f))


@pytest.mark.parametrize("name", FIXTURES)
def test_cen_at_matches_field_lookup(request, name):
    p = request.getfixturevalue(name)
    nodes = [x for pair in _pairs(p, 20, 3) for x in pair]
    for s in p.u.T_cen:
        for x in nodes:
            assert p.cen_at(s, x) == cen_at_field(p, s, x)


@pytest.mark.parametrize("name", FIXTURES)
def test_planted_field_matches_scalar_cases(request, name):
    p = request.getfixturevalue(name)
    u = p.u
    planted = list(u.T_l) + [Im(1, t) for t in u.T_r]
    lefts = {l for s in planted for (l, _f) in p.cg.delta(s)}
    assert {l.edge for l in lefts} == {"I", "Ip", "Im"}
    nodes = [x for pair in _pairs(p, 10, 6) for x in pair]
    for l in lefts:
        for z in nodes:
            assert float(p.lp.planted_field(l)[z]) == left_at_scalar(p, l, z)


@pytest.mark.parametrize("name", FIXTURES)
def test_truncated_sums_match_loops(request, name, smooth_v1):
    p = request.getfixturevalue(name)
    u = p.u
    e = TreeExpansion(p, smooth_v1)
    gamma, levels = _levels(u)
    pairs = _pairs(p, 6, 4)
    for level in levels:
        for y, x in pairs:
            assert equation._v_level(p, e, level, y, x) == v_loop(p, e, level, y, x)
            assert equation._v2_level(p, e, level, y, x) == v2_loop(p, e, level, y, x)
            assert equation._v3_level(p, e, level, y, x) == v3_loop(p, e, level, y, x)
    assert equation._support(p, equation._v2_terms, gamma + 1)
    assert equation._support(p, equation._v3_terms, gamma + 2)
    cutoff = gamma - 2
    for t in u.N:
        for y, x in pairs:
            assert (equation.u_tau_at(p, e, t, cutoff, y, x)
                    == u_tau_loop(p, e, t, cutoff, y, x))


@pytest.mark.parametrize("name", FIXTURES)
def test_diag_im_matches_loop(request, name):
    p = request.getfixturevalue(name)
    u = p.u
    keys = [(i, t) for t in u.T_r if t.kind == PROD for i in range(1, u.d + 1)]
    keys.append((1, XI))
    assert sorted(p.diag_im) == sorted((i, t.uid) for i, t in keys)
    for i, t in keys:
        assert np.array_equal(p.diag_im[(i, t.uid)], im_diag_loop(p, i, t))


def test_remainder_march_matches_inline_rhs(coarse_path):
    co = equation.remainder_coeffs(coarse_path)
    assert co.K
    radii = (0.1, 0.2, 0.25, 0.4, 0.5)
    for trace in (BoundaryTrace("smooth", 100.0, seed=3),
                  BoundaryTrace("const", 2.0)):
        rec = equation.solve_remainder(coarse_path, co, trace,
                                       SolveConfig(radii=radii))
        assert rec["norms"] == solve_remainder_loop(coarse_path, co, trace, radii)


def test_renorm_expand_matches_loop(u310):
    # one Coalgebra for all three maps: the cut index is built for the first
    # map and must serve the others unchanged
    cg = Coalgebra(u310)
    rng = np.random.default_rng(5)
    maps = [random_counterterm_map(u310, rng).as_uid_map(),
            random_counterterm_map(u310, rng).as_uid_map(),
            random_counterterm_map(u310, rng, exact=False).as_uid_map()]
    taus = [t for t in u310.T_r if t.kind == PROD]
    for rmap in maps:
        for t in taus:
            for tau in (t, *(l for (l, _f) in cg.delta(t))):
                assert (list(cg.renorm_expand(rmap, tau).items())
                        == list(renorm_expand_loop(cg, rmap, tau).items()))
