"""One-node forms of the point evaluators and of the rows and scans that
read them, loop forms of the truncated sums, resonance values, heat march,
diagonal derivative tables, remainder march and renormalization operator, the
Fraction form of the renormalization identity and the unmemoised tree
names, the
case-by-case forms of the centering and planted-field lookups, the
whole-field centering and forest lookups, the
all-candidate scans for the cut maps, the one-solve-per-tree lift and
phi43 rounds, the Path tables built all at once, the order scan tree by
tree, and the scans smoothing per tree uid and per channel pair, kept as
reference oracles.

The package versions build each truncated sum's tree support once per
call, read batches of nodes
(a whole-field lookup is the batch of every node),
shared tables, one right-hand side and an index of the C- cuts, generate
the cuts from the children's cuts, march all boundary traces as one array,
solve stacks of fields and smooth each distinct field once per scale; they
must agree with these direct forms bit for bit, since they perform the same
float operations in the same order.
"""

import copy
import functools
import json
import math
import types
from fractions import Fraction

import numpy as np
import pytest

from phi4local import cli, equation
from phi4local import path as pathmod
from phi4local import lift as liftmod
from phi4local.coalgebra import UNIT, Coalgebra, _add, _row, forest_key, report_failures
from phi4local.coeffs import (
    check_coherence, classify_utau, pick_gamma, resonance_values, upsilon_monomial,
)
from phi4local.equation import (
    BoundaryTrace, NumericalAbort, SolveConfig, TreeExpansion,
    reconstruction_check, seminorm_scale,
)
from phi4local.field import (
    COARSE_GRID, DEFAULT_GRID, Grid, check_row, grad_x, heat_solve, noise_field,
    sup,
)
from phi4local.lift import (
    LocalProduct, _check_triangular, _substitute_first_x, build_local_product,
    phi43_counterterms, random_counterterm_map,
)
from phi4local.path import ALL, Path, fit_slope, order_scan, sample_nodes
from phi4local.symtree import (
    EDGE_I, EDGE_IM, EDGE_IP, GEN, ONE, PLANTED, PROD, XI, I, Im, Ip, X, _leaf_counts,
    _raw_planted, _raw_prod, canon, check_delta_admissible, enumerate_universe,
    prod3, tree_name,
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


def build_local_product_serial(grid, universe, xi, rmap, custom, cg):
    """The lift of build_local_product with one heat solve per tree, made
    as soon as the tree's value is."""
    lp = LocalProduct(grid, universe, cg, xi, rmap)
    ruid = rmap.as_uid_map() if rmap is not None else None
    custom_by_uid = {canon(t).uid: f for t, f in (custom or {}).items()}

    def finish(t, val):
        cu = canon(t).uid
        lp._X[cu] = val
        lp._ell[cu] = heat_solve(grid, val)
        lp._grad[cu] = grad_x(grid, lp._ell[cu])

    finish(XI, xi)
    unplanted = [t for t in universe.T_r if t.kind == PROD]
    unplanted.sort(key=lambda t: (t.edges + t.m_x, t.edges, t.uid))
    for t in unplanted:
        if canon(t).uid in lp._X:
            continue
        kids = [k.child for k in t.children]
        if universe.member("Q", t):
            if canon(t).uid in custom_by_uid:
                val = custom_by_uid[canon(t).uid]
            elif ruid is not None:
                val = grid.zeros()
                for forest, c in cg.renorm_expand(ruid, canon(t)).items():
                    _check_triangular(t, forest)
                    val += forest_value(lp, forest, coeff=float(c))
            else:
                ct = canon(t)
                val = lp.planted_field(ct.children[0]).copy()
                val *= lp.planted_field(ct.children[1])
                val *= lp.planted_field(ct.children[2])
        elif any(k.kind == GEN and k.label == "X" for k in kids):
            sub = _substitute_first_x(t, universe.delta)
            val = grid.x_field * lp._X[canon(sub).uid]
        else:
            rest = [k for k in kids if k is not ONE]
            val = lp.planted_field(I(rest[0])).copy() if rest else grid.ones()
        finish(t, val)
    return lp


def phi43_constants_serial(grid, seeds, eps, kind):
    """(c_wick, c_sunset) of phi43_counterterms, one heat solve at a time."""
    tt, xx = grid.t_field, grid.x_field
    probe = (tt >= 0.2) & (tt <= 1.0) & (np.abs(xx) <= 1.5)
    solves = [heat_solve(grid, noise_field(grid, kind, seed=s, eps=eps))
              for s in seeds]
    c_wick = float(np.array([float(np.mean(u[probe] ** 2)) for u in solves]).mean())
    sunset = []
    for u in solves:
        theta = u ** 2 - c_wick
        sunset.append(float(np.mean((theta * heat_solve(grid, theta))[probe])))
    return c_wick, float(np.array(sunset).mean())


def cen_planted_field(path, p):
    """Centering field of a planted tree: the cen_I entry of I(tau), 1 on
    Ip(X_i) and -nu on Ip(tau) for a product tau."""
    ch = p.child
    if p.edge == EDGE_I:
        return path.cen_I[ch.uid]
    if p.edge == EDGE_IP:
        if ch.kind == GEN:
            return path.cen_I[ONE.uid]
        return -path.nu[ch.uid]
    raise KeyError("no centering value on %s" % tree_name(p))


def cen_forest_field(path, forest):
    out = path.cen_I[ONE.uid]
    for p in forest:
        out = out * cen_planted_field(path, p)
    return out


class EagerTables:
    """The tables of Path(lp), every product tree built at once in order of
    size: the Path constructor before its tables were built on first read,
    with its centering lookups."""

    def __init__(self, lp):
        u, cg, grid = lp.universe, lp.coalg, lp.grid
        self.nu: dict = {}
        self.cen_I: dict = {}
        self.diag: dict = {}

        self.cen_I[ONE.uid] = lp.planted_field(I(ONE))
        neg_x = -grid.x_field
        neg_x.flags.writeable = False
        self.cen_I[X(1).uid] = neg_x     # build_local_product takes d = 1 only

        prods = sorted((t for t in u.T_r if t.kind == PROD),
                       key=lambda t: (t.edges, t.uid))
        for t in prods:
            if u.member("W", t):
                self.diag[t.uid] = lp.value(t)
                continue
            a = grid.zeros()     # heat solve of the centered tree, on the diagonal
            nu = grid.zeros()
            dg = grid.zeros()
            for (l, f), c in cg.delta(t).items():
                cf = float(c) * self.cen_forest_at(f, ALL)
                a += lp.ell(l) * cf
                dg += lp.value(l) * cf
                nu += lp.grad(l) * cf
            self.diag[t.uid] = dg
            tilde = u.member("N_tilde", t)
            self.nu[t.uid] = nu
            self.cen_I[t.uid] = -a + grid.x_field * nu if tilde else -a

    def cen_at(self, p, x):
        ch = p.child
        if p.edge == EDGE_I:
            return self.cen_I[ch.uid][x]
        if p.edge == EDGE_IP:
            if ch.kind == GEN:
                return self.cen_I[ONE.uid][x]
            return -self.nu[ch.uid][x]
        raise KeyError("no centering value on %s" % tree_name(p))

    def cen_forest_at(self, forest, x):
        out = 1.0
        for p in forest:
            out *= self.cen_at(p, x)
        return out


def build_all(path):
    """Read every table entry of the path and every gradient of its lift, so
    that none is built later."""
    prods = [t for t in path.u.T_r if t.kind == PROD]
    for t in prods:
        path.diag[t.uid]
        if not path.u.member("W", t):
            path.nu[t.uid]
            path.cen_I[t.uid]
    for t in [XI, *prods]:
        path.lp.grad(t)


def forest_value(lp, forest, coeff=1.0):
    return lp.forest_rows(forest, coeff, slice(0, lp.grid.nt))


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
        field = grid.ones() if ch.kind == GEN else -path.nu[ch.uid]
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
        return float(lp.grad(ch)[z])
    raise KeyError("unexpected left factor %s" % tree_name(l))


# The point evaluators at one node: z, x, ... are (row, col) pairs of ints
# and every value is a Python float.  The package evaluators take batches of
# nodes and must give these floats node by node.

def residual_scalar(lhs, rhs):
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def cen_at_scalar(path, p, x):
    if p.edge == EDGE_IP and p.child.kind != GEN:
        return -float(path.nu[p.child.uid][x])
    return float(cen_planted_field(path, p)[x])


def cen_forest_at_scalar(path, forest, x):
    out = 1.0
    for p in forest:
        out *= cen_at_scalar(path, p, x)
    return out


def value_at_scalar(path, s, z, x):
    u, lp, cg = path.u, path.lp, path.cg
    if s.kind == PROD or s is XI:
        if u.member("W", s):
            return float(lp.value(s)[z])
        acc = 0.0
        for (l, f), c in cg.delta(s).items():
            acc += (float(c) * float(lp.value(l)[z])
                    * cen_forest_at_scalar(path, f, x))
        return acc
    if s.kind != PLANTED:
        raise ValueError("path undefined on generator %s" % tree_name(s))
    ch = s.child
    if s.edge == EDGE_I:
        if ch is ONE:
            return 1.0
        if ch.kind == GEN and ch.label == "X":
            return float(path.grid.xs[z[1]] - path.grid.xs[x[1]])
        if u.member("W", ch):
            return float(lp.ell(ch)[z])
    elif s.edge == EDGE_IP:
        if ch.kind == GEN:
            return 1.0
        acc = cen_at_scalar(path, s, x)
        for (l, f), c in cg.delta(ch).items():
            if not u.member("N_tilde", l):
                continue
            acc += (float(c) * float(path.nu[l.uid][z])
                    * forest_at_scalar(path, f, z, x))
        return acc
    acc = 0.0
    for (l, f), c in cg.delta(s).items():
        acc += (float(c) * float(lp.planted_field(l)[z])
                * cen_forest_at_scalar(path, f, x))
    return acc


def forest_at_scalar(path, forest, z, x):
    out = 1.0
    for p in forest:
        out *= value_at_scalar(path, p, z, x)
    return out


def chen_residual_scalar(path, s, z, uu, x):
    lhs = 0.0
    for (l, f), c in path.cg.delta(s).items():
        lhs += (float(c) * value_at_scalar(path, l, z, uu)
                * forest_at_scalar(path, f, uu, x))
    return residual_scalar(lhs, value_at_scalar(path, s, z, x))


def strong_chen_residual_scalar(path, s, x, y):
    rhs = 0.0
    for (l, f), c in path.cg.delta(s).items():
        rhs += (float(c) * cen_at_scalar(path, l, x)
                * forest_at_scalar(path, f, x, y))
    return residual_scalar(cen_at_scalar(path, s, y), rhs)


def derivative_residual_scalar(path, t, z, x):
    j, m = z
    s = I(t)
    fd = (value_at_scalar(path, s, (j, m + 1), x)
          - value_at_scalar(path, s, (j, m - 1), x)) / (2 * path.grid.h)
    return residual_scalar(fd, value_at_scalar(path, Im(1, t), z, x))


def renorm_path_residual_scalar(path, rmap_uid, t, z, x):
    lhs = value_at_scalar(path, t, z, x)
    rhs = 0.0
    for forest, c in path.cg.renorm_expand(rmap_uid, t).items():
        rhs += float(c) * forest_at_scalar(path, forest, z, x)
    return residual_scalar(lhs, rhs)


def theta_at_scalar(e, t, node):
    return float(e.theta(t)[node])


def theta_per_tree(e, t):
    """theta_z(t) built from the monomial of t alone, one field per tree."""
    c, p, mxb = upsilon_monomial(t)
    arr = float(c) * np.ones_like(e.v1)
    if p:
        arr = arr * e.v1 ** p
    for _i, ex in mxb:
        arr = arr * e.vX ** ex
    return arr


def u_tau_loop(path, e, t, cutoff, y, x):
    u = path.u
    acc = theta_at_scalar(e, t, y)
    for tb in u.N:
        if u.order(tb) >= cutoff:
            continue
        f = path.cg.cplus(t, tb)
        if f is None:
            continue
        acc -= theta_at_scalar(e, tb, x) * forest_at_scalar(path, f, y, x)
    return acc


def v_loop(path, e, level, y, x):
    u = path.u
    acc = 0.0
    for t in u.N:
        if u.order(t) < level - 2:
            acc += theta_at_scalar(e, t, x) * value_at_scalar(path, I(t), y, x)
    return acc


def v2_loop(path, e, level, y, x):
    u = path.u
    acc = 0.0
    for t1 in u.N:
        o1 = u.order(t1)
        for t2 in u.N:
            if o1 + u.order(t2) < level - 4:
                acc += (theta_at_scalar(e, t1, x) * theta_at_scalar(e, t2, x)
                        * value_at_scalar(path, I(t1), y, x)
                        * value_at_scalar(path, I(t2), y, x))
    return acc


def vi_loop(path, e, i, level, y, x):
    u = path.u
    acc = 0.0
    pool = u.N_tilde + (X(i),)
    for t in pool:
        if u.order(t) < level - 1:
            p = Ip(i, t, u.delta)
            if p is None:
                continue
            acc += theta_at_scalar(e, t, x) * value_at_scalar(path, p, y, x)
    return acc


def classified_u_tau_loop(path, e, t, cutoff, y, x):
    u = path.u
    c = classify_utau(t, u)
    level = cutoff - u.order(t)
    if c.kind == "V":
        return c.sign * (float(e.v1[y]) - v_loop(path, e, level, y, x))
    if c.kind == "V2":
        return c.sign * (float(e.v1[y]) ** 2 - v2_loop(path, e, level, y, x))
    if c.kind == "V3":
        return c.sign * float(e.v1[y]) ** 3
    if c.kind == "Vi":
        return c.sign * (float(e.vX[y]) - vi_loop(path, e, 1, level, y, x))
    return 0.0 if u.order(t) < cutoff else float(c.sign)


def node_list(nodes):
    """A batch (rows, cols) as a list of (row, col) pairs of ints."""
    return list(zip(nodes[0].tolist(), nodes[1].tolist()))


def modelled_norms_loop(path, e, gamma, n_pairs, seed):
    """The rows and worst mismatch of equation.modelled_norms, pair by pair."""
    u, grid = path.u, path.grid
    cutoff = gamma - 2
    rng = np.random.default_rng(seed)
    xs_nodes = node_list(sample_nodes(grid, grid.probe_mask(), rng, n_pairs))
    ys_nodes = node_list(sample_nodes(grid, grid.probe_mask(), rng, n_pairs))
    rows = []
    for t in u.N:
        vals, cls_vals, dists = [], [], []
        for y, x in zip(ys_nodes, xs_nodes):
            vals.append(u_tau_loop(path, e, t, cutoff, y, x))
            cls_vals.append(classified_u_tau_loop(path, e, t, cutoff, y, x))
            dists.append(grid.pdist(grid.node(*y), grid.node(*x)))
        rel = float(np.max([residual_scalar(a, b)
                            for a, b in zip(vals, cls_vals)]))
        expo = float(cutoff - u.order(t))
        semi = max((abs(v) / d ** expo) for v, d in zip(vals, dists) if d > 0)
        rows.append({"tree": tree_name(t), "mismatch": rel,
                     "seminorm": semi, "exponent": expo})
    return rows, float(np.max([0.0] + [r["mismatch"] for r in rows]))


def three_point_loop(path, e, gamma, n_triples, seed):
    """equation.three_point_residual, triple by triple."""
    u, grid = path.u, path.grid
    cutoff = gamma - 2
    rng = np.random.default_rng(seed)
    zs, ys, xs = (node_list(sample_nodes(grid, grid.probe_mask(), rng, n_triples))
                  for _ in range(3))
    residuals = [0.0]
    for z, y, x in zip(zs, ys, xs):
        lhs = (v_loop(path, e, gamma, z, x) - v_loop(path, e, gamma, z, y)
               + v_loop(path, e, gamma, y, y) - v_loop(path, e, gamma, y, x))
        rhs = 0.0
        for t in u.N:
            if t is not ONE and u.order(t) < cutoff:
                rhs -= (u_tau_loop(path, e, t, cutoff, y, x)
                        * value_at_scalar(path, I(t), z, y))
        residuals.append(residual_scalar(lhs, rhs))
    return float(np.max(residuals))


def pair_sup_loop(path, s, L, probe, rng, n_pairs):
    """path._pair_sup with a running max over one pair and offset at a time."""
    grid = path.grid
    jj, mm = np.where(probe)
    if jj.size == 0:
        return 0.0
    pick = rng.integers(0, jj.size, size=n_pairs)
    oj = max(1, int(round(L ** 2 / grid.k_store)))
    om = max(1, int(round(L / grid.h)))
    best = 0.0
    for n in pick:
        x = (int(jj[n]), int(mm[n]))
        for off in ((0, om), (0, -om), (oj, 0), (-oj, 0)):
            z = (x[0] + off[0], x[1] + off[1])
            if not (0 <= z[0] < grid.nt and 0 <= z[1] < grid.nx):
                continue
            best = max(best, abs(value_at_scalar(path, s, z, x)))
    return best


def order_scan_loop(path, sigmas, scales, n_pairs=400, seed=5):
    """path.order_scan tree by tree, each over every scale: the smoothed
    values and the pair samples in one loop, in the order of its draws.
    Each smoothed value reads a memo of its own."""
    probe = path.grid.probe_mask()
    rng = np.random.default_rng(seed)
    rows = []
    for s in sigmas:
        vals = []
        for L in scales:
            if path.smoothable(s):
                g, mask = path.smoothed_centered_at_base(s, L, {})
                vals.append(sup(g[mask & probe]))
            else:
                vals.append(pathmod._pair_sup(path, s, L, probe, rng, n_pairs))
        rows.append(pathmod.OrderRow(tree_name(s), float(path.u.order(s)),
                                     list(scales), vals, fit_slope(scales, vals)))
    return rows


def path_rows_loop(path, seed, tol):
    """The rows of the CLI's path suite, node by node (its extension rows
    read no point evaluator and are left out)."""
    u, grid = path.u, path.grid
    rng = np.random.default_rng(seed)
    nodes = node_list(sample_nodes(grid, grid.probe_mask(), rng, 3 * 50))
    triples = [nodes[n:n + 3] for n in range(0, len(nodes) - 2, 3)]
    pairs = [nodes[n:n + 2] for n in range(0, len(nodes) - 1, 2)]
    rows = [
        check_row("chen", "*", [chen_residual_scalar(path, s, z, uu, x)
                                for s in u.T for z, uu, x in triples], tol),
        check_row("strong-chen", "*", [
            strong_chen_residual_scalar(path, I(t), x, y)
            for t in u.N for x, y in pairs], tol),
        check_row("derivative-edge", "*", [
            derivative_residual_scalar(path, t, z, x)
            for t in u.T_r for z, x in pairs if 0 < z[1] < grid.nx - 1], tol),
    ]
    if path.lp.rmap is not None:
        ruid = path.lp.rmap.as_uid_map()
        rows.append(check_row("path-rewrite", "*", [
            renorm_path_residual_scalar(path, ruid, t, z, x)
            for t in u.T_r if t.kind == PROD for z, x in pairs], tol))
    return rows


def chen_spot_loop(path, seed):
    """The chen_spot of the CLI's solve report, triple by triple; np.max
    ranks a NaN first."""
    grid = path.grid
    rng = np.random.default_rng(seed)
    nodes = node_list(sample_nodes(grid, grid.probe_mask(), rng, 9))
    return float(np.max([chen_residual_scalar(path, s, *nodes[n:n + 3])
                         for s in path.u.T_r[:4] for n in range(0, 7, 3)]))


def v2_terms_pairs(universe, level):
    """The support of equation._v2_terms with one exact order sum per pair
    of trees."""
    u = universe
    return tuple(((t1, I(t1)), (t2, I(t2))) for t1 in u.N for t2 in u.N
                 if u.order(t1) + u.order(t2) < level - 4)


def resonance_values_pairs(universe):
    """coeffs.resonance_values over every tree and pair of trees of N."""
    u = universe
    vals = set()
    singles = [u.order(t) for t in u.N]
    for o in singles:
        vals.add(o + 2)
        vals.add(o + 1)
    for o1 in singles:
        for o2 in singles:
            vals.add(o1 + o2 + 4)
    return vals


def im_diag_loop(path, t):
    """X_{z,z} Im(t) summed again over the coproduct, plus the Ip centering."""
    u, lp = path.u, path.lp
    out = path.grid.zeros()
    if t.kind == PROD and not u.member("W", t):
        for (l, f), c in path.cg.delta(t).items():
            out += float(c) * lp.grad(l) * cen_forest_field(path, f)
    else:
        out += lp.grad(t)
    if u.member("N_tilde", t):
        out = out + -path.nu[t.uid]
    return out


def smoothed_centered_at_base_uid(path, s, L, memo):
    """Path.smoothed_centered_at_base with the smoothed values memoised in
    memo per tree uid and scale, so each child permutation of a product is
    smoothed again, and the heat solve of I(w) smoothed on every call."""
    u, lp = path.u, path.lp

    def mollified(t):
        key = (t.uid, round(L, 12))
        if key not in memo:
            memo[key] = path.mol.smooth(lp.value(t), L)
        return memo[key]

    if s.kind == PLANTED:
        return path.mol.smooth(lp.ell(s.child), L)
    if u.member("W", s):
        return mollified(s)
    acc = path.grid.zeros()
    mask = None
    for (l, f), c in path.cg.delta(s).items():
        g, msk = mollified(l)
        acc = acc + float(c) * g * cen_forest_field(path, f)
        mask = msk if mask is None else (mask & msk)
    return acc, mask


def channel_pairs_loop(path, e, t, composite, cutoff):
    """(running field, base field) pairs of a reconstruction channel, one
    running field built per pair, zero-diagonal channels included."""
    cg, lp = path.cg, path.lp
    dg = path.diag[composite.uid]
    pairs = [(dg * e.theta(t), np.ones_like(dg))]
    for tb, f in equation._cut_terms(path, t, cutoff):
        for (lf, gf), c in cg.delta_forest(f).items():
            yf = dg * forest_value(lp, lf)
            xf = -float(c) * e.theta(tb) * cen_forest_field(path, gf)
            pairs.append((yf, xf))
    return pairs


def reconstruction_check_pairs(path, e, scales, channel_pairs=channel_pairs_loop):
    """equation.reconstruction_check smoothing the running field of each
    pair on its own at every scale, and the composites through the per-uid
    memo."""
    u, grid = path.u, path.grid
    probe = grid.probe_mask()
    kept = [(t, prod3(I(t), I(XI), I(XI), u.delta)) for t in u.N]
    kept = [(t, tt) for t, tt in kept if tt is not None]
    cutoff = Fraction(-6) - u.order(XI) - u.order(XI)
    while any(u.order(t) == cutoff for t in u.N):
        cutoff += Fraction(1, 997)
    f_diag = grid.zeros()
    for t, tt in kept:
        f_diag += e.theta(t) * path.diag[tt.uid]
    channels = {tree_name(tt): channel_pairs(path, e, t, tt, cutoff)
                for t, tt in kept}
    memo: dict = {}
    values = []
    channel_values = {name: [] for name in channels}
    for L in scales:
        acc = grid.zeros()
        mask = None
        for t, tt in kept:
            g, msk = smoothed_centered_at_base_uid(path, tt, L, memo)
            acc = acc + e.theta(t) * g
            mask = msk if mask is None else (mask & msk)
        g0, msk0 = path.mol.smooth(f_diag, L)
        acc = acc - g0
        mask = mask & msk0 & probe
        values.append(float(np.abs(acc[mask]).max()) if mask.any() else 0.0)
        for name, pairs in channels.items():
            ch = grid.zeros()
            for yf, xf in pairs:
                g, msk = path.mol.smooth(yf, L)
                ch = ch + g * xf
                mask = mask & msk
            channel_values[name].append(
                float(np.abs(ch[mask]).max()) if mask.any() else 0.0)
    terms = [{"tree": name, "values": vals, "gamma": fit_slope(scales, vals)}
             for name, vals in channel_values.items()]
    return {"scales": list(scales), "values": values,
            "measured_exponent": fit_slope(scales, values),
            "predicted_exponent": min(p["gamma"] for p in terms),
            "terms": terms}


def solve_remainder_loop(path, coeffs, trace, config=None):
    """The remainder march of one boundary trace, with its right-hand side
    K0 + sum_p K[p] v^p written inline and its cap check."""
    config = config or SolveConfig()
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
    nsteps = int(round(1.0 / k))
    sup = {R: 0.0 for R in config.radii}
    col_masks = {R: np.abs(xs) < 1.0 - R for R in config.radii}
    t = 0.0
    for _step in range(nsteps):
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
        amax = float(np.max(np.abs(v)))
        if not math.isfinite(amax) or amax > config.cap:
            raise NumericalAbort(
                "remainder solve exceeded cap %g at t=%.4f" % (config.cap, t),
                {"t": t, "max": amax, "trace": trace.__dict__})
        for R, msk in col_masks.items():
            if t > R * R and msk.any():
                sup[R] = max(sup[R], float(np.max(np.abs(v[msk]))))
    return {
        "trace": {"kind": trace.kind, "magnitude": trace.magnitude,
                  "seed": trace.seed},
        "k": k, "h": h, "steps": nsteps,
        "norms": {("%g" % R): sup[R] for R in config.radii},
    }


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


def verify_renorm_commute_fractions(cg, rmap):
    """delta R == (R x id) delta on the map's own coefficients, Fractions
    for an exact map."""
    report = []
    for t in cg.u.T_r:
        if t.kind != PROD:
            continue
        lhs: dict = {}
        for f, c in cg.renorm_expand(rmap, t).items():
            for (fl, fr), c2 in cg.delta_forest(f).items():
                _add(lhs, (fl, fr), c * c2)
        rhs: dict = {}
        for (l, f), c in cg.delta(t).items():
            for f2, c2 in cg.renorm_expand(rmap, l).items():
                _add(rhs, (f2, f), c * c2)
        ordered_equal = lhs == rhs
        norm_l: dict = {}
        norm_r: dict = {}
        for (fl, fr), c in lhs.items():
            _add(norm_l, (forest_key(fl), forest_key(fr)), c)
        for (fl, fr), c in rhs.items():
            _add(norm_r, (forest_key(fl), forest_key(fr)), c)
        row = _row("renorm-commute", t, norm_l == norm_r, lhs, rhs)
        row["ordered_equal"] = ordered_equal
        report.append(row)
    return report


def tree_name_loop(t):
    """The printed name of t by recursion, with no memo."""
    if t.kind == GEN:
        if t.label == "Xi":
            return "Xi"
        if t.label == "One":
            return "One"
        return "X%d" % t.index
    if t.kind == PLANTED:
        if t.edge == EDGE_I:
            return "I(%s)" % tree_name_loop(t.child)
        return "%s%d(%s)" % (t.edge, t.index, tree_name_loop(t.child))
    return "[%s %s %s]" % tuple(tree_name_loop(k) for k in t.children)


def cplus_cuts_scan(cg, t):
    """(tb, C_+(tb, t)) by testing every tb in N + W."""
    return tuple((tb, f) for tb in cg.u.N + cg.u.W
                 for f in (cg.cplus(tb, t),) if f is not None)


def cminus_cuts_scan(cg, tau):
    """(tq, C_-(tq, tau)) by testing every tq in Q."""
    return tuple((tq, f) for tq in cg.u.Q
                 for f in (cg.cminus(tq, tau),) if f is not None)


class CutOracle:
    """C_+ and C_- written case by case, one evaluator per map, each
    recursing into its own memoised map."""

    def __init__(self, u):
        self.u = u
        self._cplus = {}
        self._cminus = {}

    def cplus(self, tb, t):
        key = (tb.uid, t.uid)
        if key not in self._cplus:
            self._cplus[key] = self._cplus_eval(tb, t)
        return self._cplus[key]

    def cminus(self, tb, t):
        key = (tb.uid, t.uid)
        if key not in self._cminus:
            self._cminus[key] = self._cminus_eval(tb, t)
        return self._cminus[key]

    def _cplus_eval(self, tb, t):
        u, dl = self.u, self.u.delta
        if t is ONE:
            return (I(ONE),) if tb is ONE else None
        if t.kind == GEN and t.label == "X":
            if tb is ONE:
                return (I(t),)
            if tb.kind == GEN and tb.label == "X":
                ip = Ip(tb.index, t, dl)
                return (ip,) if ip is not None else None
            return None
        if t is XI:
            return UNIT if tb is XI else None
        # t is a product tree
        if tb is ONE:
            return (I(t),) if u.order(t) > -2 else None
        if tb.kind == GEN and tb.label == "X":
            ip = Ip(tb.index, t, dl)
            return (ip,) if ip is not None else None
        if tb is XI:
            return None
        if tb.kind != PROD:
            return None
        parts = []
        for kb, k in zip(tb.children, t.children):
            p = self.cplus(kb.child, k.child)
            if p is None:
                return None
            parts.append(p)
        return parts[0] + parts[1] + parts[2]

    def _cminus_eval(self, tb, t):
        if t is ONE:
            return (I(ONE),) if tb is ONE else None
        if t.kind == GEN and t.label == "X":
            if tb is ONE:
                return (I(t),)
            if tb.kind == GEN and tb.label == "X":
                im = Im(tb.index, t)
                return (im,) if im is not None else None
            return None
        if t is XI:
            if tb is ONE:
                return (I(XI),)
            if tb.kind == GEN and tb.label == "X":
                return (Im(tb.index, XI),)
            return UNIT if tb is XI else None
        if tb is ONE:
            return (I(t),)
        if tb.kind == GEN and tb.label == "X":
            return (Im(tb.index, t),)
        if tb is XI:
            return None
        if tb.kind != PROD:
            return None
        parts = []
        for kb, k in zip(tb.children, t.children):
            p = self.cminus(kb.child, k.child)
            if p is None:
                return None
            parts.append(p)
        return parts[0] + parts[1] + parts[2]


def admissible_loop(delta):
    """check_delta_admissible over its own loop of the leaf-count lattice."""
    a_max = int(Fraction(3) / delta) + 1
    for a in range(1, a_max + 1):
        for b in range(0, 4):
            for c in range(0, 2):
                m = a + b + c
                if m % 2 == 0:
                    continue
                if m == 1 and (a, b, c) != (1, 0, 0):
                    continue
                o = Fraction(-3) + a * delta + b + 2 * c
                if o == -2 or o == 0:
                    return False
    return True


def neg_tuples_loop(delta):
    """Realizable (m_xi, m_one, m_x) count tuples of strictly negative order."""
    out = []
    a_max = int(Fraction(3) / delta) + 1
    for a in range(0, a_max + 1):
        for b in range(0, 4):
            for c in range(0, 2):
                m = a + b + c
                if m == 0 or m % 2 == 0:
                    continue
                if m == 1 and (a, b, c) not in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                    continue
                o = Fraction(-3) + a * delta + b + 2 * c
                if o < 0:
                    out.append((a, b, c))
    return out


def universe_tuples_loop(delta, neg):
    """The count tuples TreeUniverse enumerates products for, in its order,
    from the negative tuples neg."""
    all_tuples = set(neg)
    a_max = int(Fraction(3) / delta) + 1
    for a in range(0, a_max + 1):
        for b in range(0, 4):
            for c in range(0, 2):
                m = a + b + c
                if m < 3 or m % 2 == 0:
                    continue
                if Fraction(-3) + a * delta + b + 2 * c <= 0:
                    all_tuples.add((a, b, c))
    return [t for t in sorted(all_tuples, key=lambda t: (sum(t), t))
            if sum(t) >= 3]


# -- comparisons ------------------------------------------------------------------

FIXTURES = ["default_path_trig", "default_path_gauss"]


def _pairs(path, n, seed):
    rng = np.random.default_rng(seed)
    probe = path.grid.probe_mask()
    return list(zip(node_list(sample_nodes(path.grid, probe, rng, n)),
                    node_list(sample_nodes(path.grid, probe, rng, n))))


def same_bits(got, want) -> bool:
    """Whether the batch result got holds the floats want node by node:
    equal values, NaN at the same nodes, and equal sign bits."""
    want = np.array(want, dtype=float)
    got = np.broadcast_to(np.asarray(got, dtype=float), want.shape)
    return (np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got), np.signbit(want)))


def _oracle_nodes(path, n, seed):
    """n probe nodes, then four nodes on the first and last row and column."""
    grid = path.grid
    rows, cols = sample_nodes(grid, grid.probe_mask(),
                              np.random.default_rng(seed), n)
    return (np.concatenate([rows, [0, grid.nt - 1, 3, grid.nt // 2]]),
            np.concatenate([cols, [0, grid.nx - 1, grid.nx - 1, 0]]))


def _rolled(nodes, k):
    return np.roll(nodes[0], k), np.roll(nodes[1], k)


def _levels(u):
    """Every level the products suite reaches from pick_gamma, plus two
    above it (the two-fold support is not empty at gamma + 1)."""
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


@pytest.mark.parametrize("grid", [COARSE_GRID, DEFAULT_GRID],
                         ids=["coarse", "default"])
def test_stacked_heat_solve_matches_loop(grid):
    fields = [noise_field(grid, "trig", seed=1), noise_field(grid, "bump"),
              noise_field(grid, "gauss", seed=2, eps=1 / 8),
              noise_field(grid, "gauss", seed=3, eps=1 / 4)]
    loops = [heat_solve_loop(grid, f) for f in fields]
    for n in (1, 2, 4):
        stack = heat_solve(grid, np.stack(fields[:n]))
        assert stack.shape == (n, grid.nt, grid.nx)
        for u, want in zip(stack, loops):
            assert np.array_equal(u, want)


# the level sizes of a lift's one heat solve: a level closes when a later
# tree reads one of its solves
LEVEL_SIZES = {"u920": [2, 4, 3], "u25": [2, 4, 3, 2], "u310": [2, 4, 6, 7, 4],
               "u1350": [2, 4, 6, 7, 4, 8]}
# a custom field reads no solve, so it stays in the level it comes in
CUSTOM_LEVEL_SIZES = {"u920": [2, 4, 3], "u25": [2, 4, 5], "u310": [2, 4, 6, 8, 3]}
# nt = 4, shorter than the lag of one level behind the one before
SHORT_GRID = Grid(h=1 / 4, k_store=1 / 2)


@pytest.fixture(scope="module")
def u1350():
    return enumerate_universe(Fraction(13, 50))


class ImCoalgebra(Coalgebra):
    """renorm_expand with one more forest, reading the gradient of the solve
    of a child, so that a level reads gradients while the march still
    writes them (no universe at d = 1 gives such a forest)."""

    added = 0

    def renorm_expand(self, rmap, tau, unit=1):
        acc = dict(super().renorm_expand(rmap, tau, unit))
        kids = [k.child for k in tau.children if k.child.kind != GEN]
        if kids:
            acc[(Im(1, kids[0]), I(XI))] = Fraction(1, 3)
            self.added += 1
        return acc


GRIDS = {"coarse": COARSE_GRID, "default": DEFAULT_GRID, "short": SHORT_GRID}


@pytest.mark.parametrize("case", [
    "multiplicative-u920", "multiplicative-u25", "multiplicative-u310",
    "counterterm-u920", "counterterm-u25", "counterterm-u310",
    "custom-u920", "custom-u25", "custom-u310",
    "imforest-u920", "imforest-u310",
    "multiplicative-u920-default",
    "multiplicative-u920-short", "multiplicative-u1350-short",
    "counterterm-u1350-short",
])
def test_lift_by_levels_matches_serial(request, monkeypatch, case):
    lift, universe, name = (case + "-coarse").split("-")[:3]
    grid, u = GRIDS[name], request.getfixturevalue(universe)
    # trig is not zero on the first stored level, where each level starts
    xi = (noise_field(grid, "gauss", seed=4, eps=1 / 4) if name == "coarse"
          else noise_field(grid, "trig", seed=4))
    rmap = custom = None
    if lift in ("counterterm", "imforest"):
        rmap = random_counterterm_map(u, np.random.default_rng(9))
    if lift == "custom":
        custom = {u.Q[0]: noise_field(grid, "bump"),
                  u.Q[-1]: noise_field(grid, "trig", seed=2)}
    cg = ImCoalgebra(u) if lift == "imforest" else Coalgebra(u)
    calls = []

    def solve(grid, f):
        calls.append([len(out) for out, _forcing in f])
        return heat_solve(grid, f)
    monkeypatch.setattr(liftmod, "heat_solve", solve)
    lp = build_local_product(grid, u, xi, rmap=rmap, custom=custom, coalg=cg)
    monkeypatch.undo()
    # one march per lift, its levels as the trees' dependencies order them
    sizes = CUSTOM_LEVEL_SIZES if lift == "custom" else LEVEL_SIZES
    assert calls == [sizes[universe]]
    if lift == "imforest":
        assert cg.added > 0
    want = build_local_product_serial(grid, u, xi, rmap, custom, cg)
    for got, ref in ((lp._X, want._X), (lp._ell, want._ell)):
        assert got.keys() == ref.keys()
        for key, arr in ref.items():
            assert np.array_equal(got[key], arr)
    # a gradient the march does not write is taken on its first read
    trees = [XI, *(t for t in u.T_r if t.kind == PROD)]
    assert {canon(t).uid for t in trees} == want._grad.keys()
    for t in trees:
        assert same_bits(lp.grad(t), want.grad(t))


def test_phi43_stacked_rounds_match_serial(u920):
    grid, seeds, eps = COARSE_GRID, range(6), 4 * COARSE_GRID.h
    _rmap, report = phi43_counterterms(grid, u920, seeds, eps,
                                       rel_se_tol=math.inf)
    assert (report["c_wick"], report["c_sunset"]) == phi43_constants_serial(
        grid, seeds, eps, "gauss")


@pytest.mark.parametrize("name", FIXTURES)
def test_cen_at_matches_field_lookup(request, name):
    p = request.getfixturevalue(name)
    nodes = _oracle_nodes(p, 40, 3)
    for s in p.u.T_cen:
        assert same_bits(p.cen_at(s, nodes),
                         [cen_at_field(p, s, x) for x in node_list(nodes)])
        assert same_bits(p.cen_at(s, ALL), cen_planted_field(p, s))
    # every right forest the path and the scans read, the empty one included
    forests = dict.fromkeys(f for s in p.u.T_cen + p.u.T_r
                            for (_l, f) in p.cg.delta(s))
    assert () in forests
    for f in forests:
        assert same_bits(p.cen_forest_at(f, ALL), cen_forest_field(p, f))


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
    y = _oracle_nodes(p, 6, 4)
    x = _rolled(y, 1)
    pairs = list(zip(node_list(y), node_list(x)))
    loops = ((equation._v_terms, v_loop), (equation._v2_terms, v2_loop),
             (equation._vi_terms,
              lambda p, e, level, y, x: vi_loop(p, e, 1, level, y, x)))
    for level in levels:
        for terms, loop in loops:
            assert same_bits(equation._level_sum(p, e, terms, level, y, x),
                             [loop(p, e, level, *pair) for pair in pairs])
    assert equation._v2_terms(p, gamma + 1)
    assert equation._vi_terms(p, max(levels))
    cutoff = gamma - 2
    for t in u.N:
        assert same_bits(equation.u_tau_at(p, e, t, cutoff, y, x),
                         [u_tau_loop(p, e, t, cutoff, *pair) for pair in pairs])
        assert same_bits(equation.classified_u_tau_at(p, e, t, cutoff, y, x),
                         [classified_u_tau_loop(p, e, t, cutoff, *pair)
                          for pair in pairs])


LIFTS = ("multiplicative", "counterterm", "custom")


@pytest.fixture(scope="module", params=[
    (universe, lift) for universe in ("u920", "u25", "u310", "u1350")
    for lift in LIFTS], ids="-".join)
def lift_path(request):
    """A path on the coarse grid over each universe, of each lift kind."""
    universe, lift = request.param
    return _coarse_lift_path(request.getfixturevalue(universe), lift)


def _coarse_lift_path(u, lift):
    grid = COARSE_GRID
    rmap = custom = None
    if lift == "counterterm":
        rmap = random_counterterm_map(u, np.random.default_rng(9))
    if lift == "custom":
        custom = {u.Q[0]: noise_field(grid, "bump"),
                  u.Q[-1]: noise_field(grid, "trig", seed=2)}
    xi = noise_field(grid, "trig", seed=4)
    return Path(build_local_product(grid, u, xi, rmap=rmap, custom=custom))


def test_point_path_matches_scalar(lift_path):
    # every evaluator of a batch gives the floats of the evaluation at each
    # node alone, sign bits included, on every branch of the path domain
    p, u = lift_path, lift_path.u
    z = _oracle_nodes(p, 6, 5)
    uu, x = _rolled(z, 1), _rolled(z, 2)
    zs, us, xs = node_list(z), node_list(uu), node_list(x)
    trees = {s.uid: s for s in (*u.T, *u.T_plus, *u.T_cen,
                                *(Im(1, t) for t in u.T_r))}
    branches = set()
    for base in (x, z):          # off and on the diagonal
        bs = node_list(base)
        for s in trees.values():
            try:
                want = [value_at_scalar(p, s, a, b) for a, b in zip(zs, bs)]
            except (KeyError, ValueError) as exc:
                with pytest.raises(type(exc)):
                    p.value_at(s, z, base)
                continue
            assert same_bits(p.value_at(s, z, base), want), tree_name(s)
            if s.kind == PLANTED:
                branches.add(s.edge)
    assert branches == {EDGE_I, EDGE_IP, EDGE_IM}
    # on the diagonal I(X1) reads +0.0, I(One) and Ip(X1) read 1 and the
    # trees of W and I(W) their stored fields
    assert same_bits(p.value_at(I(X(1)), z, z), np.zeros(len(zs)))
    for s in (I(ONE), Ip(1, X(1), u.delta)):
        assert same_bits(p.value_at(s, z, z), np.ones(len(zs)))
    for w in u.W:
        assert same_bits(p.value_at(w, z, z), p.lp.value(w)[z])
        assert same_bits(p.value_at(I(w), z, z), p.lp.ell(w)[z])
    for s in u.T_cen:
        assert same_bits(p.cen_at(s, x), [cen_at_scalar(p, s, b) for b in xs])
    for s in u.T:
        assert same_bits(p.chen_residual(s, z, uu, x), [
            chen_residual_scalar(p, s, *n) for n in zip(zs, us, xs)]), tree_name(s)
    for t in u.N:
        assert same_bits(p.strong_chen_residual(I(t), z, x), [
            strong_chen_residual_scalar(p, I(t), *n) for n in zip(zs, xs)])
    # the differences at columns 1 and nx - 2 read the boundary columns
    inner = [n for n, (_j, m) in enumerate(zs) if 0 < m < p.grid.nx - 1]
    zi = (z[0][inner], z[1][inner])
    zi = (np.append(zi[0], [2, 5]), np.append(zi[1], [1, p.grid.nx - 2]))
    xi = (np.resize(x[0], zi[0].size), np.resize(x[1], zi[0].size))
    for t in u.T_r:
        assert same_bits(p.derivative_residual(t, zi, xi), [
            derivative_residual_scalar(p, t, *n)
            for n in zip(node_list(zi), node_list(xi))])
    if p.lp.rmap is not None:
        ruid = p.lp.rmap.as_uid_map()
        for t in u.T_r:
            if t.kind == PROD:
                assert same_bits(p.renorm_path_residual(ruid, t, z, x), [
                    renorm_path_residual_scalar(p, ruid, t, *n)
                    for n in zip(zs, xs)])


@pytest.mark.parametrize("name", ["coarse_path"] + FIXTURES)
def test_order_scan_pairs_match_loop(request, monkeypatch, name):
    # the sampled pairs of the centering trees, as one batch per tree and
    # scale, give the running max of the pair-by-pair scan
    p = request.getfixturevalue(name)
    sigmas = [s for s in p.u.T_cen + p.u.T_r if s.m_xi <= 3]
    scales = [1 / 8, 1 / 4, 1 / 2]
    got = order_scan(p, sigmas, scales, n_pairs=80, seed=6)
    monkeypatch.setattr(pathmod, "_pair_sup", pair_sup_loop)
    assert got == order_scan(p, sigmas, scales, n_pairs=80, seed=6)


@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("name", ["coarse_path", "coarse_path_trig_310"],
                         ids=["9/20", "3/10"])
def test_order_scan_matches_sigma_outer_loop(request, name, seed):
    # the smoothed trees go scale by scale and the sampled pairs tree by
    # tree: every row is that of one loop over the trees, each over every
    # scale, which draws the pairs in the same order
    p = request.getfixturevalue(name)
    sigmas = [s for s in p.u.T_cen + p.u.T_r if s.m_xi <= 3]   # scan --kind order
    assert any(p.smoothable(s) for s in sigmas)
    assert not all(p.smoothable(s) for s in sigmas)
    scales = [1 / 8, 1 / 4, 1 / 2]
    assert (order_scan(p, sigmas, scales, seed=seed)
            == order_scan_loop(p, sigmas, scales, seed=seed))


def test_batched_residuals_keep_their_errors(coarse_path, u920):
    p = coarse_path
    z = _oracle_nodes(p, 6, 5)         # its last four are on the boundary
    with pytest.raises(ValueError, match="interior"):
        p.derivative_residual(u920.T_r[0], z, z)
    with pytest.raises(ValueError, match="I-planted"):
        p.strong_chen_residual(XI, z, z)


# The loop oracle of the V2 sums scans every pair of trees of N, which takes
# about a minute at delta 3/10; the products suite runs at 9/20 and 2/5.
@pytest.mark.parametrize("lift", LIFTS)
@pytest.mark.parametrize("universe", ["u920", "u25"])
def test_products_rows_match_loops(request, universe, lift):
    u = request.getfixturevalue(universe)
    p = _coarse_lift_path(u, lift)
    grid = p.grid
    v1 = 0.5 + 0.3 * np.sin(2.0 * grid.x_field) * np.cos(1.5 * grid.t_field)
    e = TreeExpansion(p, v1)
    gamma = pick_gamma(u, Fraction(3, 2))
    mn = equation.modelled_norms(p, e, gamma, n_pairs=8, seed=2)
    assert (mn.rows, mn.max_rel_mismatch) == modelled_norms_loop(p, e, gamma, 8, 2)
    assert (equation.three_point_residual(p, e, gamma, n_triples=6, seed=3)
            == three_point_loop(p, e, gamma, 6, 3))


@pytest.mark.parametrize("name", ["coarse_path", "coarse_counterterm_path"])
def test_cli_point_rows_match_loops(request, monkeypatch, tmp_path, name):
    # the path, products and solve reports read the batched evaluators; each
    # of their point rows is the row of the node-by-node loops
    p = request.getfixturevalue(name)
    monkeypatch.setattr(cli, "_build_path", lambda cfg, grid, cg: (p, None))
    seed = 4
    common = ["--delta", "9/20", "--seed", str(seed), "--out", str(tmp_path)]
    cli.main(["verify", "--suite", "path", *common])
    cli.main(["verify", "--suite", "products", *common])
    assert cli.main(["solve", *common]) == 0
    path_rows = json.loads((tmp_path / "verify-path.json").read_text())
    want = path_rows_loop(p, seed, 1e-8)
    assert path_rows["reports"]["path"][:len(want)] == want
    products = json.loads((tmp_path / "verify-products.json").read_text())
    e = TreeExpansion(p, cli._smooth_v1(p.grid))
    gamma = pick_gamma(p.u, Fraction(3, 2))
    _rows, worst = modelled_norms_loop(p, e, gamma, 60, seed)
    three = three_point_loop(p, e, gamma, 40, seed)
    assert products["reports"]["products"][1:] == [
        check_row("utau-classified", "*", worst, 1e-8),
        check_row("three-point", "*", three, 1e-8)]
    solve = json.loads((tmp_path / "solve.json").read_text())
    assert solve["run"]["residuals"]["chen_spot"] == chen_spot_loop(p, seed)


@pytest.fixture(scope="module")
def coarse_counterterm_path(u920, cg920):
    grid = COARSE_GRID
    rmap = random_counterterm_map(u920, np.random.default_rng(9))
    lp = build_local_product(grid, u920, noise_field(grid, "trig", seed=0),
                             rmap=rmap, coalg=cg920)
    return Path(lp)


def _with_nan(path, table, t, node):
    """A copy of the path whose lift holds NaN at one node of one stored
    field of the tree t; the path and its lift are left as they are.  The
    copies share the tables of the path and its lift, so these are built
    first, from the lift without the NaN."""
    build_all(path)
    lp = copy.copy(path.lp)
    fields = dict(getattr(lp, table))
    poisoned = fields[canon(t).uid].copy()
    poisoned[node] = np.nan
    fields[canon(t).uid] = poisoned
    setattr(lp, table, fields)
    out = copy.copy(path)
    out.lp = lp
    return out


def _nth_node(grid, seed, n, k=0, skip=0):
    """Node k of the n-node sample the CLI draws after skip n-node ones."""
    rng = np.random.default_rng(seed)
    for _ in range(skip):
        sample_nodes(grid, grid.probe_mask(), rng, n)
    rows, cols = sample_nodes(grid, grid.probe_mask(), rng, n)
    return int(rows[k]), int(cols[k])


def _run_with_nan(monkeypatch, tmp_path, path, table, t, node, argv):
    """(exit code, report, path) of a CLI call on a copy of path with NaN at
    one node of the stored field of t."""
    poisoned = _with_nan(path, table, t, node)
    monkeypatch.setattr(cli, "_build_path", lambda cfg, grid, cg: (poisoned, None))
    out = tmp_path / "out"
    code = cli.main([*argv, "--delta", "9/20", "--seed", "0", "--out", str(out)])
    name = "solve" if argv[0] == "solve" else "verify-" + argv[2]
    return code, json.loads((out / (name + ".json")).read_text()), poisoned


def test_nan_in_a_lift_value_fails_the_rows(monkeypatch, tmp_path, coarse_path):
    # a NaN in one stored value keeps the chen and utau-classified rows at
    # FAIL, written as "NaN", whether the first triple or a later one reads it
    grid = coarse_path.grid
    for k in (0, 3):
        code, report, _p = _run_with_nan(
            monkeypatch, tmp_path, coarse_path, "_X", XI,
            _nth_node(grid, 0, 150, k), ["verify", "--suite", "path"])
        chen = report["reports"]["path"][0]
        assert code == 1 and chen["identity"] == "chen"
        assert chen["status"] == "FAIL" and chen["residual"] == "NaN"
    # the continuity errors read the solve of [I(Xi) I(Xi) I(Xi)] at the
    # first y node
    xi3 = prod3(I(XI), I(XI), I(XI), coarse_path.u.delta)
    code, report, _p = _run_with_nan(
        monkeypatch, tmp_path, coarse_path, "_ell", xi3,
        _nth_node(grid, 0, 60, skip=1), ["verify", "--suite", "products"])
    utau, = (r for r in report["reports"]["products"]
             if r["identity"] == "utau-classified")
    assert code == 1 and utau["status"] == "FAIL" and utau["residual"] == "NaN"


def test_order_scan_ranks_a_nan_pair_first(coarse_path):
    # NaN in the solve of [I(Xi) I(Xi) I(Xi)] at the z node of the second
    # sampled pair at the first scale: that value and the slope read NaN
    p, grid = coarse_path, coarse_path.grid
    xi3 = prod3(I(XI), I(XI), I(XI), p.u.delta)
    scales, seed = [1 / 8, 1 / 4, 1 / 2], 6
    xj, xm = _nth_node(grid, seed, 20, k=1)
    z = (xj, xm + max(1, int(round(scales[0] / grid.h))))
    row, = order_scan(_with_nan(p, "_ell", xi3, z), [I(xi3)], scales,
                      n_pairs=20, seed=seed)
    assert math.isnan(row.values[0]) and math.isnan(row.slope)


@pytest.mark.parametrize("k", [0, 3], ids=["first", "later"])
def test_chen_spot_ranks_a_nan_first(monkeypatch, tmp_path, coarse_path, k):
    # Xi at z node k makes the chen residual of Xi NaN on triple k / 3, and
    # no other residual of chen_spot: the sup reads NaN wherever it sits
    code, report, poisoned = _run_with_nan(
        monkeypatch, tmp_path, coarse_path, "_X", XI,
        _nth_node(coarse_path.grid, 0, 9, k), ["solve"])
    assert math.isnan(chen_spot_loop(poisoned, 0))
    assert code == 0 and report["run"]["residuals"]["chen_spot"] == "NaN"


@pytest.mark.parametrize("delta", ["9/20", "2/5", "3/10", "13/50"])
def test_resonance_values_over_orders_match_pairs(delta):
    u = enumerate_universe(Fraction(delta))
    assert resonance_values(u) == resonance_values_pairs(u)


@pytest.mark.parametrize("universe", ["u920", "u25", "u310", "u1350"])
def test_v2_terms_over_orders_match_pairs(request, universe):
    # above the products suite's level, and at a level that one pair's
    # orders reach exactly, where the strict comparison leaves the pair out
    u = request.getfixturevalue(universe)
    gamma = pick_gamma(u, Fraction(3, 2))
    hit = u.order(u.N[1]) + u.order(u.N[-1]) + 4
    path = types.SimpleNamespace(u=u)      # _v2_terms reads path.u alone
    for level in (gamma + 2, hit):
        assert equation._v2_terms(path, level) == v2_terms_pairs(u, level)


@pytest.fixture(scope="module")
def default_path_trig_25(u25):
    xi = noise_field(DEFAULT_GRID, "trig", seed=0, amp=2.0)
    return Path(build_local_product(DEFAULT_GRID, u25, xi))


@pytest.fixture(scope="module")
def default_path_gauss_25(u25):
    xi = noise_field(DEFAULT_GRID, "gauss", seed=21, eps=1 / 8, amp=0.1)
    return Path(build_local_product(DEFAULT_GRID, u25, xi))


@pytest.mark.parametrize("name", FIXTURES + ["default_path_trig_25",
                                             "default_path_gauss_25"])
def test_scans_smooth_as_per_pair_loops(request, monkeypatch, name):
    # one smoothing per canonical tree, running field and scale gives the
    # scan values of one smoothing per tree uid and pair, float for float
    p = request.getfixturevalue(name)
    u, grid = p.u, p.grid
    scales = [1 / 16, 1 / 8, 1 / 4, 1 / 2]
    sigmas = list(u.T_r) + [s for s in u.T_l
                            if s.edge == EDGE_I and u.member("W", s.child)]
    v1 = 0.4 + 0.2 * np.sin(1.7 * grid.x_field) * np.cos(2.1 * grid.t_field)
    e = TreeExpansion(p, v1)
    got = (order_scan(p, sigmas, scales), seminorm_scale(p, scales),
           reconstruction_check(p, e, scales))
    monkeypatch.setattr(p, "smoothed_centered_at_base",
                        functools.partial(smoothed_centered_at_base_uid, p))
    assert got == (order_scan(p, sigmas, scales), seminorm_scale(p, scales),
                   reconstruction_check_pairs(p, e, scales))


@pytest.mark.parametrize("universe", ["u310", "u1350"], ids=["3/10", "13/50"])
def test_reconstruction_sums_pairs_in_order(request, universe):
    # at delta 3/10 and 13/50 channels sum more than two pairs, so the order
    # of the sum shows in the floats (at 13/50 one channel sums 358 pairs);
    # the per-pair form cannot build the zero-diagonal channels there (an
    # Ip(tau) running factor has no field value), so it skips them too
    grid = COARSE_GRID
    p = Path(build_local_product(grid, request.getfixturevalue(universe),
                                 noise_field(grid, "trig", seed=0, amp=2.0)))
    v1 = 0.4 + 0.2 * np.sin(1.7 * grid.x_field) * np.cos(2.1 * grid.t_field)
    e = TreeExpansion(p, v1)
    scales = [1 / 8, 1 / 4, 1 / 2]

    def nonzero_channel_pairs(path, e, t, composite, cutoff):
        if not path.diag[composite.uid].any():
            return []
        return channel_pairs_loop(path, e, t, composite, cutoff)

    assert (reconstruction_check(p, e, scales)
            == reconstruction_check_pairs(p, e, scales, nonzero_channel_pairs))


@pytest.mark.parametrize("name", FIXTURES)
def test_diag_im_matches_loop(request, name):
    # X_{z,z} Im(t) is nu on the trees dx_map reads, and 0 on N_tilde,
    # where the Ip centering cancels it
    p = request.getfixturevalue(name)
    u = p.u
    read = [t for t in u.N_ring if u.order(t) < -1]
    assert read
    for t in read:
        assert np.array_equal(p.nu[t.uid], im_diag_loop(p, t))
    tilde = [t for t in u.N_tilde if t.kind == PROD]
    assert tilde
    for t in tilde:
        assert np.array_equal(im_diag_loop(p, t), p.grid.zeros())


@pytest.mark.parametrize("lift", ["multiplicative", "counterterm", "custom"])
@pytest.mark.parametrize("universe", ["u920", "u25", "u310", "u1350"])
def test_tables_built_on_read_match_eager_loop(request, universe, lift):
    # each table builds a tree's entry on its first read, by its own rule;
    # with each table read first on one path, each builds some entries
    # before the others, and every entry keeps the bits of the eager loop.
    # The custom field is -0.0 off its bump, so a sum that does not start
    # from +0.0 shows.
    # The eager loop weighs field * (c * forest) and the path forms
    # (c * field) * forest: the two agree only while every coefficient is 1.
    # A permuted product tree holds its canonical tree's arrays, while the
    # eager loop builds each child order on its own; some permutations sum
    # their terms, or multiply their forest, in another order, so this is
    # the check that the order does not move a bit.
    u, grid = request.getfixturevalue(universe), COARSE_GRID
    xi = noise_field(grid, "trig", seed=0, amp=2.0)
    rmap = (random_counterterm_map(u, np.random.default_rng(3), exact=False)
            if lift == "counterterm" else None)
    bump = noise_field(grid, "bump")
    custom = ({u.Q[0]: np.where(bump > 0.5, bump, -0.0)} if lift == "custom"
              else None)
    lp = build_local_product(grid, u, xi, rmap=rmap, custom=custom)
    coeffs = {c for t in u.T_r if t.kind == PROD
              for c in lp.coalg.delta(t).values()}
    assert coeffs == {1}, "a coefficient other than 1 weighs the two loops apart"
    want = EagerTables(lp)
    permuted = [t for t in u.T_r if t.kind == PROD and canon(t) is not t]
    assert permuted
    for order in (("nu", "cen_I", "diag"), ("diag", "nu", "cen_I"),
                  ("cen_I", "diag", "nu")):
        p = Path(build_local_product(grid, u, xi, rmap=rmap, custom=custom))
        assert p.nu.keys() == set() and p.diag.keys() == set()
        assert p.cen_I.keys() == {ONE.uid, X(1).uid}
        for name in order:
            got, ref = getattr(p, name), getattr(want, name)
            # largest trees first, so each read builds the trees it depends on
            for uid in reversed(ref):
                assert same_bits(got[uid], ref[uid])
            assert sorted(got) == sorted(ref)
            for t in permuted:
                if t.uid in ref:
                    assert got[t.uid] is got[canon(t).uid]
    # a uid with no entry in a table reads as a missing key; a product
    # tree of W has a diagonal and no centerings
    for table in (p.nu, p.cen_I, p.diag):
        with pytest.raises(KeyError):
            table[XI.uid]
    for t in u.W:
        if t.kind == PROD:
            for table in (p.nu, p.cen_I):
                with pytest.raises(KeyError):
                    table[t.uid]


@pytest.fixture(scope="module")
def coarse_path_trig_310(u310):
    xi = noise_field(COARSE_GRID, "trig", seed=0, amp=2.0)
    return Path(build_local_product(COARSE_GRID, u310, xi))


@pytest.fixture(scope="module")
def coarse_path_gauss_310(u310):
    xi = noise_field(COARSE_GRID, "gauss", seed=21, eps=1 / 8, amp=0.1)
    return Path(build_local_product(COARSE_GRID, u310, xi))


PATHS_BY_DELTA = {
    ("9/20", "trig"): "default_path_trig", ("9/20", "gauss"): "default_path_gauss",
    ("2/5", "trig"): "default_path_trig_25", ("2/5", "gauss"): "default_path_gauss_25",
    ("3/10", "trig"): "coarse_path_trig_310", ("3/10", "gauss"): "coarse_path_gauss_310",
}


@pytest.mark.parametrize("delta, noise", list(PATHS_BY_DELTA),
                         ids=["-".join(k) for k in PATHS_BY_DELTA])
def test_theta_by_monomial_matches_per_tree(request, delta, noise):
    # trees of one monomial read one shared read-only field, which holds
    # the floats of a field built for each tree from its own monomial
    p = request.getfixturevalue(PATHS_BY_DELTA[delta, noise])
    grid = p.grid
    v1 = 0.4 + 0.2 * np.sin(1.7 * grid.x_field) * np.cos(2.1 * grid.t_field)
    e = TreeExpansion(p, v1)
    trees = list(dict.fromkeys([*p.u.T, *p.u.N, *p.u.W]))
    read = {}
    for t in trees:
        got = e.theta(t)
        assert same_bits(got, theta_per_tree(e, t))
        assert e.theta(t) is got and not got.flags.writeable
        read.setdefault(upsilon_monomial(t), set()).add(id(got))
    assert all(len(ids) == 1 for ids in read.values())
    assert len({i for ids in read.values() for i in ids}) == len(read) < len(trees)


@pytest.mark.parametrize("delta, noise", list(PATHS_BY_DELTA),
                         ids=["-".join(k) for k in PATHS_BY_DELTA])
def test_point_path_on_the_diagonal_is_the_diag_table(request, delta, noise):
    # value_at and the diagonal table sum one coproduct expansion, at a
    # batch of nodes and over the whole field, so they agree bit for bit
    p = request.getfixturevalue(PATHS_BY_DELTA[delta, noise])
    grid = p.grid
    rng = np.random.default_rng(7)
    batches = [sample_nodes(grid, grid.probe_mask(), rng, 64),
               sample_nodes(grid, np.ones((grid.nt, grid.nx), bool), rng, 64)]
    prods = [t for t in p.u.T_r if t.kind == PROD]
    assert prods
    for z in batches:
        for t in prods:
            assert same_bits(p.value_at(t, z, z), p.diag[t.uid][z])


@pytest.mark.parametrize("universe", ["u920", "u310"])
def test_tracer_only_tables_stay_empty(request, universe):
    # A, cen_Ip and diag_im are kept, empty, only for the benchmark tracer
    u, grid = request.getfixturevalue(universe), COARSE_GRID
    p = Path(build_local_product(grid, u, noise_field(grid, "trig", seed=0)))
    build_all(p)
    assert p.diag and p.nu and p.cen_I
    assert p.A == {} and p.cen_Ip == {} and p.diag_im == {}


def _batch_records(path, coeffs, traces, config):
    """The batch march's records in the oracle's one-trace shape."""
    batch = equation.solve_remainder(path, coeffs, traces, config)
    assert len(batch["runs"]) == len(traces)
    return [{"trace": r["trace"], "k": batch["k"], "h": batch["h"],
             "steps": batch["steps"], "norms": r["norms"]}
            for r in batch["runs"]]


def test_remainder_march_matches_inline_rhs(request):
    # the CLI and acceptance traces all have side_scale 0; the last trace
    # here drives the boundary columns with data of its own
    traces = [BoundaryTrace("zero", 0.0),
              BoundaryTrace("const", 2.0),
              BoundaryTrace("const", 10.0),
              BoundaryTrace("const", -10.0, seed=1),
              BoundaryTrace("smooth", 1.0, seed=2),
              BoundaryTrace("smooth", 100.0, seed=3),
              BoundaryTrace("smooth", 3.0, seed=5, side_scale=0.5)]
    # the CLI's radii, then unsorted radii with a duplicate: the norms are
    # read off running maxima between the sorted R^2 thresholds
    configs = [SolveConfig(radii=(0.1, 0.2, 0.25, 0.4, 0.5)),
               SolveConfig(radii=(0.4, 0.1, 0.5, 0.25, 0.1, 0.2))]
    for name, n_configs in (("coarse_path", 2), ("default_path_trig", 1)):
        p = request.getfixturevalue(name)
        co = equation.remainder_coeffs(p)
        assert co.K
        for config in configs[:n_configs]:
            assert _batch_records(p, co, traces, config) == [
                solve_remainder_loop(p, co, trace, config) for trace in traces]


def _loop_abort(path, coeffs, trace, config):
    with pytest.raises(NumericalAbort) as info:
        solve_remainder_loop(path, coeffs, trace, config)
    return info.value


def _assert_same_abort(path, coeffs, traces, config, expected):
    with pytest.raises(NumericalAbort) as info:
        equation.solve_remainder(path, coeffs, traces, config)
    assert str(info.value) == str(expected)
    assert info.value.diagnostics == expected.diagnostics


# On the coarse path at cap 10, the first trace crosses the cap only once its
# wall data does, at t ~ 0.26, and a constant 50 crosses it at the first step.
LATE = BoundaryTrace("smooth", 6.0, seed=0, side_scale=2.0)
EARLY = BoundaryTrace("const", 50.0)


def test_batch_abort_is_the_first_trace_in_order(coarse_path):
    co = equation.remainder_coeffs(coarse_path)
    config = SolveConfig(cap=10.0)
    late = _loop_abort(coarse_path, co, LATE, config)
    early = _loop_abort(coarse_path, co, EARLY, config)
    assert early.diagnostics["t"] < late.diagnostics["t"]
    traces = [BoundaryTrace("zero", 0.0), LATE, EARLY, BoundaryTrace("const", 2.0)]
    _assert_same_abort(coarse_path, co, traces, config, late)


def test_batch_abort_of_a_later_trace(coarse_path):
    co = equation.remainder_coeffs(coarse_path)
    config = SolveConfig(cap=10.0)
    good = [BoundaryTrace("zero", 0.0), BoundaryTrace("const", 2.0)]
    for trace in good:
        solve_remainder_loop(coarse_path, co, trace, config)
    for bad in (LATE, EARLY):
        _assert_same_abort(coarse_path, co, good + [bad], config,
                           _loop_abort(coarse_path, co, bad, config))


def test_batch_abort_before_a_sided_trace(coarse_path):
    # the only sided trace comes after the first bad one: the unsided zero
    # trace before it is marched again on its own, with walls at 0
    co = equation.remainder_coeffs(coarse_path)
    config = SolveConfig(cap=10.0)
    _assert_same_abort(coarse_path, co, [BoundaryTrace("zero", 0.0), EARLY, LATE],
                       config, _loop_abort(coarse_path, co, EARLY, config))


def test_renorm_expand_matches_loop(u310):
    # one Coalgebra for all four maps: the cut index is built for the first
    # map and must serve the others unchanged.  This is the check of R
    # against Q: about half of the single C_- cuts R could lose move both
    # sides of the renorm-commute rows alike, e.g. one (I(Xi),) cut of
    # [I(Xi) I(Xi) I(Xi)] under the seed-2 map, and leave them passing.
    cg = Coalgebra(u310)
    rng = np.random.default_rng(5)
    maps = [random_counterterm_map(u310, rng).as_uid_map(),
            random_counterterm_map(u310, rng).as_uid_map(),
            random_counterterm_map(u310, rng, exact=False).as_uid_map(),
            random_counterterm_map(u310, np.random.default_rng(2)).as_uid_map()]
    taus = [t for t in u310.T_r if t.kind == PROD]
    for rmap in maps:
        for t in taus:
            for tau in (t, *(l for (l, _f) in cg.delta(t))):
                assert (list(cg.renorm_expand(rmap, tau).items())
                        == list(renorm_expand_loop(cg, rmap, tau).items()))
    t, = (t for t in u310.T_r if tree_name(t) == "[I(Xi) I(Xi) I(Xi)]")
    cut = cg._rcuts[t.uid][0]
    assert cut[1] == (I(XI),) and maps[3][cut[0]]
    cg._rcuts[t.uid] = cg._rcuts[t.uid][1:]
    assert cg.renorm_expand(maps[3], t) != renorm_expand_loop(cg, maps[3], t)


# (delta, dimension, max_m_xi): the acceptance deltas, the two-dimensional
# universe and restricted universes
CUT_UNIVERSES = [
    (Fraction(9, 20), 1, None), (Fraction(2, 5), 1, None),
    (Fraction(3, 10), 1, None), (Fraction(13, 50), 1, None),
    (Fraction(9, 20), 2, None), (Fraction(3, 10), 1, 2),
    (Fraction(13, 50), 1, 3), (Fraction(13, 50), 1, 6),
]


@pytest.mark.parametrize("delta,d,max_m_xi", CUT_UNIVERSES, ids=[
    "%s-d%d-m%s" % (delta, d, m) for delta, d, m in CUT_UNIVERSES])
def test_generated_cuts_match_scans(delta, d, max_m_xi):
    u = enumerate_universe(delta, d)
    if max_m_xi is not None:
        u = u.restrict(max_m_xi)
    cg = Coalgebra(u)
    for t in u.N + u.W:
        assert cg.cplus_cuts(t) == cplus_cuts_scan(cg, t)
    # every tau that verify_renorm_commute passes to renorm_expand
    for t in u.T_r:
        if t.kind == PROD:
            for tau in (t, *(l for (l, _f) in cg.delta(t))):
                assert cg.cminus_cuts(tau) == cminus_cuts_scan(cg, tau)
    rows = (cg.verify_explicit_formula(), check_coherence(u, cg))
    cg.cplus_cuts = functools.partial(cplus_cuts_scan, cg)
    assert (cg.verify_explicit_formula(), check_coherence(u, cg)) == rows


@pytest.mark.parametrize("delta,d", [
    (Fraction(9, 20), 1), (Fraction(2, 5), 1), (Fraction(3, 10), 1),
    (Fraction(13, 50), 1), (Fraction(9, 20), 2)],
    ids=["9/20", "2/5", "3/10", "13/50", "9/20-d2"])
def test_cut_recursion_matches_case_by_case(delta, d):
    u = enumerate_universe(delta, d)
    cg, oracle = Coalgebra(u), CutOracle(u)
    trees = (ONE, *(X(i) for i in range(1, d + 1)), *u.T_r)
    for tb in trees:
        for t in trees:
            assert cg.cplus(tb, t) == oracle.cplus(tb, t)
            assert cg.cminus(tb, t) == oracle.cminus(tb, t)
    # the recursion evaluates (memoises) the same pairs as the case forms
    assert cg._cplus.keys() == oracle._cplus.keys()
    assert cg._cminus.keys() == oracle._cminus.keys()


def test_leaf_count_lattice_matches_loops():
    deltas = {Fraction(p, q) for q in range(2, 61) for p in range(1, q)}
    for delta in deltas:
        assert check_delta_admissible(delta) == admissible_loop(delta)
        lattice = list(_leaf_counts(delta))
        neg = neg_tuples_loop(delta)
        assert [tup for tup, o in lattice if o < 0] == neg
        assert sorted((tup for tup, o in lattice if o <= 0 and sum(tup) >= 3),
                      key=lambda t: (sum(t), t)) == universe_tuples_loop(delta, neg)


@pytest.mark.parametrize("name", ["u310", "u1350"])
def test_renorm_commute_on_integers_matches_fractions(request, name):
    # the integer rows equal the Fraction rows; a float map runs unscaled,
    # so its rows (rounding failures included) are today's too
    u = request.getfixturevalue(name)
    cg = Coalgebra(u)
    maps = [random_counterterm_map(u, np.random.default_rng(seed)).as_uid_map()
            for seed in (0, 1, 7)]
    maps.append(random_counterterm_map(u, np.random.default_rng(3),
                                       exact=False).as_uid_map())
    for rmap in maps:
        rows = cg.verify_renorm_commute(rmap)
        assert rows == verify_renorm_commute_fractions(cg, rmap)
        assert len(rows) > 100
    assert all(row["status"] == "pass" for row in cg.verify_renorm_commute(maps[0]))
    # the map scaled by 7 with q_F weighted by 7 gives 7 R: a passing row
    # would not show a q_F weight left at 1 (any map satisfies the identity)
    scaled = {uid: 7 * c for uid, c in maps[0].items()}
    for t in u.T_r:
        if t.kind == PROD:
            assert cg.renorm_expand(scaled, t, 7) == {
                f: 7 * c for f, c in cg.renorm_expand(maps[0], t).items()}


def test_failing_renorm_rows_keep_their_bytes(u310):
    # drop the one C_- cut of R's index at [I(X1) I(Xi) I(Xi)], (I(X1),) with
    # r = k/7 (the draw follows the interning order of Q): the rows that
    # read it fail, and render the same coefficients (Fractions with
    # denominator 7) as the oracle's
    cg = Coalgebra(u310)
    rmap = random_counterterm_map(u310, np.random.default_rng(2)).as_uid_map()
    t, = (t for t in u310.T_r if tree_name(t) == "[I(X1) I(Xi) I(Xi)]")
    cg.renorm_expand(rmap, t)
    (uid, f), = cg._rcuts[t.uid]
    assert rmap[uid].denominator == 7 and f == (I(X(1)),)
    cg._rcuts[t.uid] = ()
    failing = report_failures(cg.verify_renorm_commute(rmap))
    want = report_failures(verify_renorm_commute_fractions(cg, rmap))
    assert failing and any("/7 * " in row["lhs"] + row["rhs"] for row in failing)
    assert json.dumps(failing) == json.dumps(want)


def _permuted(t, rng):
    """t rebuilt with the children of every product in a random order."""
    if t.kind == GEN:
        return t
    if t.kind == PLANTED:
        return _raw_planted(t.edge, t.index, _permuted(t.child, rng))
    kids = [_permuted(k, rng) for k in t.children]
    return _raw_prod(*(kids[i] for i in rng.permutation(3)))


def test_memoised_tree_names_match_recursion(u1350):
    # names read first on the permuted trees, top-down, then on the universe
    rng = np.random.default_rng(4)
    permuted = [_permuted(t, rng) for t in u1350.T_plus]
    assert any(p is not t for p, t in zip(permuted, u1350.T_plus))
    for t in permuted + list(u1350.T_plus):
        assert tree_name(t) == tree_name_loop(t)
