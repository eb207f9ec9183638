"""Centered paths and centerings built over a local product.

The two-argument quantities are never materialized: every base-point
dependent value is expanded through the coproduct into sums of global fields
evaluated at the running point times centering constants evaluated at the
base point, so all identities downstream are linear algebra over one-argument
stored tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import Mollifier
from .lift import LocalProduct
from .symtree import (
    EDGE_I, EDGE_IP, GEN, ONE, PLANTED, PROD, XI,
    I, Im, Tree, X, canon, tree_name,
)


class Path:
    """Evaluators for the centered local product and the centering tables."""

    def __init__(self, lp: LocalProduct):
        self.lp = lp
        self.u = lp.universe
        self.cg = lp.coalg
        self.grid = lp.grid
        u, cg, grid = self.u, self.cg, self.grid

        # coproduct expansions of the unplanted product trees, reused throughout
        self.pairs = {}
        for t in u.T_r:
            if t.kind == PROD:
                self.pairs[t.uid] = list(cg.delta(t).items())

        self.nu: dict = {}       # (i, uid) -> gradient of the centered solve
                                 # at the diagonal; the Ip centering is -nu
        self.cen_I: dict = {}    # uid -> centering field of I(tau) over N_ring,
                                 # One and X (1 and -x, shared and read-only)
        self.diag: dict = {}     # X_{z,z} tau for product trees
        self.diag_im: dict = {}  # (i, uid) -> X_{z,z} Im_i(tau), tau in T_r
        self.A: dict = {}        # not stored: kept empty for the benchmark
        self.cen_Ip: dict = {}   # tracer (perfbench/tracing.py) reading them

        self.cen_I[ONE.uid] = lp.planted_field(I(ONE))
        neg_x = -grid.x_field
        neg_x.flags.writeable = False
        self.cen_I[X(1).uid] = neg_x     # build_local_product takes d = 1 only

        # X_{z,z} Im_i(tau) is the lift gradient on W and Xi; off W it is nu,
        # which the Ip centering -nu cancels on N_tilde.  Entries share the
        # arrays of nu and the lift, so nothing may write to them.
        zero = grid.zeros()
        zero.flags.writeable = False
        prods = sorted((t for t in u.T_r if t.kind == PROD),
                       key=lambda t: (t.edges, t.uid))
        for t in prods:
            if u.member("W", t):
                self.diag[t.uid] = lp.value(t)
                self.diag_im[(1, t.uid)] = lp.grad(1, t)
                continue
            a = grid.zeros()     # heat solve of the centered tree, on the diagonal
            nu = grid.zeros()
            dg = grid.zeros()
            for (l, f), c in self.pairs[t.uid]:
                cf = float(c) * self.cen_forest_field(f)
                a += lp.ell(l) * cf
                dg += lp.value(l) * cf
                nu += lp.grad(1, l) * cf
            self.diag[t.uid] = dg
            tilde = u.member("N_tilde", t)
            self.nu[(1, t.uid)] = nu
            self.diag_im[(1, t.uid)] = zero if tilde else nu
            self.cen_I[t.uid] = -a + grid.x_field * nu if tilde else -a
        self.diag_im[(1, XI.uid)] = lp.grad(1, XI)
        self.mol = Mollifier(grid)
        self._moll_cache: dict = {}
        # tree supports of the truncated sums in the equation module, built
        # once per (builder, level) instead of at every point evaluation
        self.supports: dict = {}

    # centering tables -------------------------------------------------------

    def cen_planted_field(self, p: Tree) -> np.ndarray:
        """Centering field of a planted tree: the cen_I entry of I(tau), 1 on
        Ip(X_i) and -nu on Ip(tau) for a product tau."""
        ch = p.child
        if p.edge == EDGE_I:
            return self.cen_I[ch.uid]
        if p.edge == EDGE_IP:
            if ch.kind == GEN:
                return self.cen_I[ONE.uid]
            return -self.nu[(p.index, ch.uid)]
        raise KeyError("no centering value on %s" % tree_name(p))

    def cen_forest_field(self, forest) -> np.ndarray:
        out = self.cen_I[ONE.uid]
        for p in forest:
            out = out * self.cen_planted_field(p)
        return out

    def cen_at(self, p: Tree, x) -> float:
        """cen_planted_field(p)[x], read without building a whole field."""
        if p.edge == EDGE_IP and p.child.kind != GEN:
            return -float(self.nu[(p.index, p.child.uid)][x])
        return float(self.cen_planted_field(p)[x])

    def cen_forest_at(self, forest, x) -> float:
        out = 1.0
        for p in forest:
            out *= self.cen_at(p, x)
        return out

    # point evaluators --------------------------------------------------------

    def value_at(self, s: Tree, z, x) -> float:
        """X_{z,x} s for s in the path domain; z, x are (row, col) nodes."""
        u, lp = self.u, self.lp
        if s.kind == PROD or s is XI:
            if u.member("W", s):
                return float(lp.value(s)[z])
            acc = 0.0
            for (l, f), c in self.pairs[s.uid]:
                acc += float(c) * float(lp.value(l)[z]) * self.cen_forest_at(f, x)
            return acc
        if s.kind != PLANTED:
            raise ValueError("path undefined on generator %s" % tree_name(s))
        ch = s.child
        if s.edge == EDGE_I:
            if ch is ONE:
                return 1.0
            if ch.kind == GEN and ch.label == "X":
                return float(self.grid.xs[z[1]] - self.grid.xs[x[1]])
            if u.member("W", ch):
                return float(lp.ell(ch)[z])
        elif s.edge == EDGE_IP:
            if ch.kind == GEN:
                return 1.0
            acc = float(-self.nu[(s.index, ch.uid)][x])
            for (l, f), c in self.pairs[ch.uid]:
                if not self.u.member("N_tilde", l):
                    continue
                acc += (float(c) * float(self.nu[(s.index, l.uid)][z])
                        * self.forest_at(f, z, x))
            return acc
        # EDGE_I off W and EDGE_IM
        acc = 0.0
        for (l, f), c in self.cg.delta(s).items():
            acc += (float(c) * float(lp.planted_field(l)[z])
                    * self.cen_forest_at(f, x))
        return acc

    def forest_at(self, forest, z, x) -> float:
        out = 1.0
        for p in forest:
            out *= self.value_at(p, z, x)
        return out

    # identity residuals -------------------------------------------------------

    def chen_residual(self, s: Tree, z, uu, x) -> tuple:
        lhs = 0.0
        for (l, f), c in self.cg.delta(s).items():
            lhs += float(c) * self.value_at(l, z, uu) * self.forest_at(f, uu, x)
        rhs = self.value_at(s, z, x)
        scale = max(1.0, abs(lhs), abs(rhs))
        return abs(lhs - rhs), abs(lhs - rhs) / scale

    def strong_chen_residual(self, s: Tree, x, y) -> tuple:
        """Centering change of base point on a planted tree s = I(tau)."""
        if s.kind != PLANTED or s.edge != EDGE_I:
            raise ValueError("strong form applies to I-planted trees")
        lhs = self.cen_at(s, y) if self._has_cen(s) else None
        if lhs is None:
            raise ValueError("no centering for %s" % tree_name(s))
        rhs = 0.0
        for (l, f), c in self.cg.delta(s).items():
            rhs += float(c) * self.cen_at(l, x) * self.forest_at(f, x, y)
        scale = max(1.0, abs(lhs), abs(rhs))
        return abs(lhs - rhs), abs(lhs - rhs) / scale

    def _has_cen(self, p: Tree) -> bool:
        return p.child.uid in self.cen_I

    def derivative_residual(self, i: int, t: Tree, z, x) -> tuple:
        """Spatial difference of the centered planted tree against the
        derivative-edge evaluator; exact for interior z by construction."""
        j, m = z
        if not (0 < m < self.grid.nx - 1):
            raise ValueError("needs an interior node")
        s = I(t)
        fd = (self.value_at(s, (j, m + 1), x) - self.value_at(s, (j, m - 1), x)) \
            / (2 * self.grid.h)
        sm = Im(i, t)
        direct = self.value_at(sm, z, x)
        scale = max(1.0, abs(fd), abs(direct))
        return abs(fd - direct), abs(fd - direct) / scale

    def renorm_path_residual(self, rmap_uid: dict, t: Tree, z, x) -> tuple:
        """X_{z,x} tau against X_{z,x} R tau for counterterm-built lifts."""
        lhs = self.value_at(t, z, x)
        rhs = 0.0
        for forest, c in self.cg.renorm_expand(rmap_uid, t).items():
            rhs += float(c) * self.forest_at(forest, z, x)
        scale = max(1.0, abs(lhs), abs(rhs))
        return abs(lhs - rhs), abs(lhs - rhs) / scale

    # order scans ---------------------------------------------------------------

    def _mollified(self, t: Tree, L: float):
        """(g, mask) of the stored field of t smoothed at scale L: the value
        of an unplanted t, the heat solve of its child for t = I(w).  One
        smoothing per canonical tree and scale, as permuted trees read one
        stored array."""
        key = (canon(t).uid, round(L, 12))
        out = self._moll_cache.get(key)
        if out is None:
            f = self.lp.ell(t.child) if t.kind == PLANTED else self.lp.value(t)
            out = self._moll_cache[key] = self.mol.smooth(f, L)
            for arr in out:          # shared by every caller
                arr.flags.writeable = False
        return out

    def smoothed_centered_at_base(self, s: Tree, L: float):
        """Field x -> (X_{.,x} s)_L(x) with its validity mask."""
        u = self.u
        if s.kind == PLANTED:
            if s.edge != EDGE_I or not u.member("W", s.child):
                raise ValueError("smoothed branch covers T_r and I(W) only")
            return self._mollified(s, L)
        if u.member("W", s):
            return self._mollified(s, L)
        acc = self.grid.zeros()
        mask = None
        for (l, f), c in self.pairs[s.uid]:
            g, msk = self._mollified(l, L)
            acc = acc + float(c) * g * self.cen_forest_field(f)
            mask = msk if mask is None else (mask & msk)
        return acc, mask


@dataclass
class OrderRow:
    sigma: str
    target: float
    scales: list
    values: list
    slope: float


def fit_slope(scales, values) -> float:
    floor = 1e-13 * max(values, default=0.0)
    xs, ys = [], []
    for L, v in zip(scales, values):
        if v > floor and v > 0:
            xs.append(math.log2(L))
            ys.append(math.log2(v))
    if len(xs) < 2:
        return float("inf")   # identically zero: better than any target
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    den = sum((a - mx) ** 2 for a in xs)
    if den == 0:
        return 0.0
    return sum((a - mx) * (b - my) for a, b in zip(xs, ys)) / den


def order_scan(path: Path, sigmas, scales, n_pairs: int = 400,
               seed: int = 5) -> list:
    """Measured magnitudes per scale with a log-log slope fit.

    Trees carrying a global field are measured through the smoothed centered
    field at the base point; centering trees are measured on sampled node
    pairs at each separation scale.
    """
    if len(scales) < 3:
        raise ValueError("need at least 3 usable scales")
    grid = path.grid
    u = path.u
    probe = grid.probe_mask()
    rng = np.random.default_rng(seed)
    rows = []
    smoothable = set(t.uid for t in u.T_r) | set(
        s.uid for s in u.T_l
        if s.edge == EDGE_I and u.member("W", s.child))
    for s in sigmas:
        vals = []
        for L in scales:
            if s.uid in smoothable:
                g, mask = path.smoothed_centered_at_base(s, L)
                mm = mask & probe
                vals.append(float(np.abs(g[mm]).max()) if mm.any() else 0.0)
            else:
                vals.append(_pair_sup(path, s, L, probe, rng, n_pairs))
        target = float(u.order(s))
        rows.append(OrderRow(tree_name(s), target, list(scales), vals,
                             fit_slope(scales, vals)))
    return rows


def _pair_sup(path: Path, s: Tree, L: float, probe, rng, n_pairs: int) -> float:
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
            best = max(best, abs(path.value_at(s, z, x)))
    return best


def sample_nodes(grid, probe, rng, n: int) -> list:
    jj, mm = np.where(probe)
    idx = rng.integers(0, jj.size, size=n)
    return [(int(jj[k]), int(mm[k])) for k in idx]
