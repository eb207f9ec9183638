"""Loop forms of the point evaluators, truncated sums and heat march, kept as
reference oracles.

The package versions read precomputed tree supports, scalar table entries and
an in-place march; they must agree with these direct forms bit for bit, since
they perform the same float operations in the same order.
"""

from fractions import Fraction

import numpy as np
import pytest

from phi4local import equation
from phi4local.coeffs import pick_gamma
from phi4local.equation import TreeExpansion
from phi4local.field import COARSE_GRID, DEFAULT_GRID, heat_solve, noise_field
from phi4local.path import sample_nodes
from phi4local.symtree import EDGE_I, EDGE_IP, GEN, ONE, I

# -- oracles --------------------------------------------------------------------


def heat_solve_loop(grid, f, cutoff=None):
    rho = grid.cutoff if cutoff is None else cutoff
    rf = rho * f
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
        field = grid.ones() if ch.kind == GEN else path.cen_Ip[(p.index, ch.uid)]
    return float(field[x])


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
    bump = noise_field(grid, "bump")
    rho = 0.5 + 0.5 * grid.t_field
    assert np.array_equal(heat_solve(grid, bump, rho),
                          heat_solve_loop(grid, bump, rho))


@pytest.mark.parametrize("name", FIXTURES)
def test_cen_at_matches_field_lookup(request, name):
    p = request.getfixturevalue(name)
    nodes = [x for pair in _pairs(p, 20, 3) for x in pair]
    for s in p.u.T_cen:
        for x in nodes:
            assert p.cen_at(s, x) == cen_at_field(p, s, x)


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
