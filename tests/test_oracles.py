"""Loop forms of the point evaluators, truncated sums, heat march, diagonal
derivative tables, remainder march and renormalization operator, the
Fraction form of the renormalization identity and the unmemoised tree
names, the
case-by-case forms of the centering and planted-field lookups, the
all-candidate scans for the cut maps, the one-solve-per-tree lift and
phi43 rounds, and the scans smoothing per tree uid and per channel pair,
kept as reference oracles.

The package versions read precomputed tree supports, scalar table entries,
shared tables, one right-hand side and an index of the C- cuts, generate
the cuts from the children's cuts, march all boundary traces as one array,
solve stacks of fields and smooth each distinct field once per scale; they
must agree with these direct forms bit for bit, since they perform the same
float operations in the same order.
"""

import functools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from phi4local import equation
from phi4local import lift as liftmod
from phi4local.coalgebra import UNIT, Coalgebra, _add, _row, forest_key, report_failures
from phi4local.coeffs import check_coherence, pick_gamma
from phi4local.equation import (
    BoundaryTrace, NumericalAbort, SolveConfig, TreeExpansion,
    reconstruction_check, seminorm_scale,
)
from phi4local.field import COARSE_GRID, DEFAULT_GRID, grad_x, heat_solve, noise_field
from phi4local.lift import (
    LocalProduct, _check_triangular, _substitute_first_x, build_local_product,
    phi43_counterterms, random_counterterm_map,
)
from phi4local.path import Path, fit_slope, order_scan, sample_nodes
from phi4local.symtree import (
    EDGE_I, EDGE_IP, GEN, ONE, PLANTED, PROD, XI, I, Im, Ip, X, _leaf_counts,
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


def build_local_product_serial(grid, universe, xi, rmap=None, coalg=None):
    """The lift of build_local_product with one heat solve per tree, made
    as soon as the tree's value is (no custom fields)."""
    cg = coalg or Coalgebra(universe)
    lp = LocalProduct(grid, universe, cg, xi, rmap)
    ruid = rmap.as_uid_map() if rmap is not None else None

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
            if ruid is not None:
                val = grid.zeros()
                for forest, c in cg.renorm_expand(ruid, canon(t)).items():
                    _check_triangular(t, forest)
                    val += lp.forest_value(forest, coeff=float(c))
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


def vi_loop(path, e, i, level, y, x):
    u = path.u
    acc = 0.0
    pool = u.N_tilde + (X(i),)
    for t in pool:
        if u.order(t) < level - 1:
            p = Ip(i, t, u.delta)
            if p is None:
                continue
            acc += e.theta_at(t, x) * path.value_at(p, y, x)
    return acc


def im_diag_loop(path, t):
    """X_{z,z} Im(t) summed again over the coproduct, plus the Ip centering."""
    u, lp = path.u, path.lp
    out = path.grid.zeros()
    if t.kind == PROD and not u.member("W", t):
        for (l, f), c in path.cg.delta(t).items():
            out += float(c) * lp.grad(l) * path.cen_forest_field(f)
    else:
        out += lp.grad(t)
    if u.member("N_tilde", t):
        out = out + -path.nu[t.uid]
    return out


def smoothed_centered_at_base_uid(path, memo, s, L):
    """Path.smoothed_centered_at_base with the smoothed values memoised per
    tree uid, so each child permutation of a product is smoothed again, and
    the heat solve of I(w) smoothed on every call."""
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
        acc = acc + float(c) * g * path.cen_forest_field(f)
        mask = msk if mask is None else (mask & msk)
    return acc, mask


def channel_pairs_loop(path, e, t, composite, cutoff):
    """(running field, base field) pairs of a reconstruction channel, one
    running field built per pair, zero-diagonal channels included."""
    cg, lp = path.cg, path.lp
    dg = path.diag[composite.uid]
    pairs = [(dg * e.theta(t), np.ones_like(dg))]
    for tb, f in equation._support(path, equation._cut_terms, t, cutoff):
        for (lf, gf), c in cg.delta_forest(f).items():
            yf = dg * lp.forest_value(lf)
            xf = -float(c) * e.theta(tb) * path.cen_forest_field(gf)
            pairs.append((yf, xf))
    return pairs


def reconstruction_check_pairs(path, e, w1, w2, scales,
                               channel_pairs=channel_pairs_loop):
    """equation.reconstruction_check smoothing the running field of each
    pair on its own at every scale, and the composites through the per-uid
    memo."""
    u, grid = path.u, path.grid
    probe = grid.probe_mask()
    kept = [(t, prod3(I(t), I(w1), I(w2), u.delta)) for t in u.N]
    kept = [(t, tt) for t, tt in kept if tt is not None]
    cutoff = Fraction(-6) - u.order(w1) - u.order(w2)
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
            g, msk = smoothed_centered_at_base_uid(path, memo, tt, L)
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
    return list(zip(sample_nodes(path.grid, probe, rng, n),
                    sample_nodes(path.grid, probe, rng, n)))


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


# the fields of each stacked solve: one level of the lift, closed when a
# later tree reads one of its solves
LEVEL_SIZES = {"u920": [2, 4, 3], "u25": [2, 4, 3, 2], "u310": [2, 4, 6, 7, 4]}


@pytest.mark.parametrize("universe", ["u920", "u25", "u310"])
@pytest.mark.parametrize("lift", ["multiplicative", "counterterm"])
def test_lift_by_levels_matches_serial(request, monkeypatch, universe, lift):
    u = request.getfixturevalue(universe)
    grid = COARSE_GRID
    xi = noise_field(grid, "gauss", seed=4, eps=1 / 4)
    rmap = None
    if lift == "counterterm":
        rmap = random_counterterm_map(u, np.random.default_rng(9))
    cg = Coalgebra(u)
    sizes = []

    def solve(grid, f):
        sizes.append(len(f))
        return heat_solve(grid, f)
    monkeypatch.setattr(liftmod, "heat_solve", solve)
    lp = build_local_product(grid, u, xi, rmap=rmap, coalg=cg)
    assert sizes == LEVEL_SIZES[universe]
    monkeypatch.undo()
    want = build_local_product_serial(grid, u, xi, rmap=rmap, coalg=cg)
    for got, ref in ((lp._X, want._X), (lp._ell, want._ell), (lp._grad, want._grad)):
        assert got.keys() == ref.keys()
        for key, arr in ref.items():
            assert np.array_equal(got[key], arr)


def test_phi43_stacked_rounds_match_serial(u920):
    grid, seeds, eps = COARSE_GRID, range(6), 4 * COARSE_GRID.h
    _rmap, report = phi43_counterterms(grid, u920, seeds, eps,
                                       rel_se_tol=math.inf)
    assert (report["c_wick"], report["c_sunset"]) == phi43_constants_serial(
        grid, seeds, eps, "gauss")


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
    loops = ((equation._v_terms, v_loop), (equation._v2_terms, v2_loop),
             (equation._vi_terms,
              lambda p, e, level, y, x: vi_loop(p, e, 1, level, y, x)))
    for level in levels:
        for y, x in pairs:
            for terms, loop in loops:
                assert (equation._level_sum(p, e, terms, level, y, x)
                        == loop(p, e, level, y, x))
    assert equation._support(p, equation._v2_terms, gamma + 1)
    assert equation._support(p, equation._vi_terms, max(levels))
    cutoff = gamma - 2
    for t in u.N:
        for y, x in pairs:
            assert (equation.u_tau_at(p, e, t, cutoff, y, x)
                    == u_tau_loop(p, e, t, cutoff, y, x))


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
           reconstruction_check(p, e, XI, XI, scales))
    monkeypatch.setattr(p, "smoothed_centered_at_base",
                        functools.partial(smoothed_centered_at_base_uid, p, {}))
    assert got == (order_scan(p, sigmas, scales), seminorm_scale(p, scales),
                   reconstruction_check_pairs(p, e, XI, XI, scales))


def test_reconstruction_sums_pairs_in_order(u310):
    # at delta 3/10 channels sum more than two pairs, so the order of the sum
    # shows in the floats; the per-pair form cannot build the zero-diagonal
    # channels there (an Ip(tau) running factor has no field value), so it
    # skips them too
    grid = COARSE_GRID
    p = Path(build_local_product(grid, u310,
                                 noise_field(grid, "trig", seed=0, amp=2.0)))
    v1 = 0.4 + 0.2 * np.sin(1.7 * grid.x_field) * np.cos(2.1 * grid.t_field)
    e = TreeExpansion(p, v1)
    scales = [1 / 8, 1 / 4, 1 / 2]

    def nonzero_channel_pairs(path, e, t, composite, cutoff):
        if not path.diag[composite.uid].any():
            return []
        return channel_pairs_loop(path, e, t, composite, cutoff)

    assert (reconstruction_check(p, e, XI, XI, scales)
            == reconstruction_check_pairs(p, e, XI, XI, scales,
                                          nonzero_channel_pairs))


@pytest.mark.parametrize("name", FIXTURES)
def test_diag_im_matches_loop(request, name):
    p = request.getfixturevalue(name)
    u = p.u
    trees = [t for t in u.T_r if t.kind == PROD] + [XI]
    assert sorted(p.diag_im) == sorted(t.uid for t in trees)
    for t in trees:
        assert np.array_equal(p.diag_im[t.uid], im_diag_loop(p, t))


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


@pytest.fixture(scope="module")
def u1350():
    return enumerate_universe(Fraction(13, 50))


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
