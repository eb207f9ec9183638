"""Centered paths and centerings built over a local product.

The two-argument quantities are never materialized: every base-point
dependent value is expanded through the coproduct into sums of global fields
evaluated at the running point times centering constants evaluated at the
base point, so all identities downstream are linear algebra over one-argument
stored tables.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .field import Mollifier, sup
from .lift import LocalProduct
from .symtree import (
    EDGE_I, EDGE_IP, GEN, ONE, PLANTED, PROD, XI,
    I, Im, Tree, X, canon, tree_name,
)


# The batch of every node: cen_at and cen_forest_at read whole fields there.
ALL = (slice(None), slice(None))


class _Table(dict):
    """A table of a Path, keyed by tree uid, whose entries are built on
    their first read: a canonical tree's entry is entry(path, t), and a
    permuted product tree's entry is its canonical tree's array, built first
    if missing.  A uid that is not among the table's trees, such as a tree
    of W in the centerings, raises KeyError.

    The table holds its Path through a weak reference: a strong one would
    make a reference cycle, and so leave every table to the cyclic garbage
    collector once the Path is dropped."""

    def __init__(self, path: "Path", trees: dict, entry):
        super().__init__()
        self._path = weakref.ref(path)
        self._trees = trees
        self._entry = entry

    def __missing__(self, uid):
        t = self._trees.get(uid)
        if t is None:
            raise KeyError(uid)
        c = canon(t)
        out = self[uid] = (self[c.uid] if c is not t
                           else self._entry(self._path(), t))
        return out


class Path:
    """Evaluators for the centered local product and the centering tables.

    Each table builds a product tree's entry on its first read, after the
    centerings of the smaller trees that entry reads, by its own rule: a
    coproduct sum of a lift table over the whole field (_expand).  Every
    child order of a product shares the arrays of its canonical tree, and
    entries share arrays with the lift, so nothing may write to them."""

    def __init__(self, lp: LocalProduct):
        self.lp = lp
        self.u = lp.universe
        self.cg = lp.coalg
        self.grid = lp.grid
        grid = self.grid

        prods = {t.uid: t for t in self.u.T_r if t.kind == PROD}
        # the trees of W have no centerings
        cen = {uid: t for uid, t in prods.items() if not self.u.member("W", t)}
        # uid -> the gradient of the centered solve at the diagonal (the Ip
        # centering is -nu); the centering field of I(tau) over N_ring, One
        # and X (1 and -x, shared and read-only); X_{z,z} tau
        self.nu = _Table(self, cen, Path._nu_entry)
        self.cen_I = _Table(self, cen, Path._cen_I_entry)
        self.diag = _Table(self, prods, Path._diag_entry)
        self.A: dict = {}        # not stored: kept empty for the benchmark
        self.cen_Ip: dict = {}   # tracer (perfbench/tracing.py) reading them
        self.diag_im: dict = {}

        self.cen_I[ONE.uid] = lp.planted_field(I(ONE))
        neg_x = -grid.x_field
        neg_x.flags.writeable = False
        self.cen_I[X(1).uid] = neg_x     # build_local_product takes d = 1 only
        self.mol = Mollifier(grid)

    # entry rules of the tables, one canonical product tree each ------------

    def _diag_entry(self, t: Tree) -> np.ndarray:
        """X_{z,z} t: the lift's value on W, else the sum of the values."""
        if self.u.member("W", t):
            return self.lp.value(t)
        return self._expand(t, self.lp.value, ALL, ALL)

    def _nu_entry(self, t: Tree) -> np.ndarray:
        """The sum of the gradients of the heat solves."""
        return self._expand(t, self.lp.grad, ALL, ALL)

    def _cen_I_entry(self, t: Tree) -> np.ndarray:
        """Minus the sum of the heat solves, plus x nu on N_tilde."""
        a = -self._expand(t, self.lp.ell, ALL, ALL)
        if self.u.member("N_tilde", t):
            a += self.grid.x_field * self.nu[t.uid]
        return a

    # point evaluators --------------------------------------------------------
    # The nodes z, x, ... are batches: (rows, cols) pairs of equal-length int
    # arrays.  An evaluator returns one value per node, and every node sums
    # the same coproduct terms in the same order, so each entry has the bits
    # of the evaluation at that node alone.

    def cen_at(self, p: Tree, x) -> np.ndarray:
        """Centering of a planted tree at the nodes x: the cen_I entry of
        I(tau), 1 on Ip(X_i) and -nu on Ip(tau) for a product tau."""
        ch = p.child
        if p.edge == EDGE_I:
            return self.cen_I[ch.uid][x]
        if p.edge == EDGE_IP:
            if ch.kind == GEN:
                return self.cen_I[ONE.uid][x]
            return -self.nu[ch.uid][x]
        raise KeyError("no centering value on %s" % tree_name(p))

    def cen_forest_at(self, forest, x):
        """1.0 times the forest's centerings at x, left to right, in place."""
        out = 1.0
        for p in forest:
            out *= self.cen_at(p, x)
        return out

    def value_at(self, s: Tree, z, x) -> np.ndarray:
        """X_{z,x} s: the coproduct expansion, left fields at z times right
        centerings at x, except on Ip(tau) for a product tau."""
        if s.kind == PLANTED and s.edge == EDGE_IP and s.child.kind == PROD:
            acc = self.cen_at(s, x)
            for (l, f), c in self.cg.delta(s.child).items():
                if self.u.member("N_tilde", l):
                    acc += float(c) * self.nu[l.uid][z] * self.forest_at(f, z, x)
            return acc
        if s.kind == PLANTED:
            look = self.lp.planted_field
        elif s.kind == PROD or s is XI:
            look = self.lp.value
        else:
            raise ValueError("path undefined on generator %s" % tree_name(s))
        return self._expand(s, look, z, x)

    def _expand(self, s: Tree, look, z, x):
        """Sum over the coproduct of s of c times the field look(l) at the
        nodes z times the centerings of the forest f at the nodes x, each
        term formed in place, starting from +0.0."""
        acc = 0.0
        for (l, f), c in self.cg.delta(s).items():
            term = float(c) * look(l)[z]
            term *= self.cen_forest_at(f, x)
            acc += term
        return acc

    def forest_at(self, forest, z, x):
        return math.prod((self.value_at(p, z, x) for p in forest), start=1.0)

    # identity residuals -------------------------------------------------------

    def chen_residual(self, s: Tree, z, uu, x) -> np.ndarray:
        lhs = 0.0
        for (l, f), c in self.cg.delta(s).items():
            lhs += float(c) * self.value_at(l, z, uu) * self.forest_at(f, uu, x)
        return residual(lhs, self.value_at(s, z, x))

    def strong_chen_residual(self, s: Tree, x, y) -> np.ndarray:
        """Centering change of base point on a planted tree s = I(tau)."""
        if s.kind != PLANTED or s.edge != EDGE_I:
            raise ValueError("strong form applies to I-planted trees")
        try:                 # builds the centering if s.child has one
            self.cen_I[s.child.uid]
        except KeyError:
            raise ValueError("no centering for %s" % tree_name(s)) from None
        rhs = 0.0
        for (l, f), c in self.cg.delta(s).items():
            rhs += float(c) * self.cen_at(l, x) * self.forest_at(f, x, y)
        return residual(self.cen_at(s, y), rhs)

    def derivative_residual(self, t: Tree, z, x) -> np.ndarray:
        """Spatial difference of the centered planted tree against the
        derivative-edge evaluator; exact for interior z by construction."""
        j, m = z
        if not np.all((0 < m) & (m < self.grid.nx - 1)):
            raise ValueError("needs interior nodes")
        s = I(t)
        fd = (self.value_at(s, (j, m + 1), x) - self.value_at(s, (j, m - 1), x)) \
            / (2 * self.grid.h)
        return residual(fd, self.value_at(Im(1, t), z, x))

    def renorm_path_residual(self, rmap_uid: dict, t: Tree, z, x) -> np.ndarray:
        """X_{z,x} tau against X_{z,x} R tau for counterterm-built lifts."""
        lhs = self.value_at(t, z, x)
        rhs = 0.0
        for forest, c in self.cg.renorm_expand(rmap_uid, t).items():
            rhs += float(c) * self.forest_at(forest, z, x)
        return residual(lhs, rhs)

    # order scans ---------------------------------------------------------------

    def smoothable(self, s: Tree) -> bool:
        """Whether s carries a global field, smoothed at the base point: s
        in T_r, or s = I(w) with w in W."""
        u = self.u
        return u.member("T_r", s) or (s.kind == PLANTED and s.edge == EDGE_I
                                      and u.member("W", s.child))

    def smoothed_centered_at_base(self, s: Tree, L: float, memo: dict):
        """Field x -> (X_{.,x} s)_L(x) with its validity mask, the one mask
        of every smoothing at scale L.  memo is the caller's dict of (g, mask)
        at scale L by canonical uid (of the value, or of the heat solve of w
        for I(w)); a tree missing from it is smoothed and added, read-only."""
        if not self.smoothable(s):
            raise ValueError("smoothed branch covers T_r and I(W) only")

        def smoothed(t: Tree):
            uid = canon(t).uid
            out = memo.get(uid)
            if out is None:
                f = self.lp.ell(t.child) if t.kind == PLANTED else self.lp.value(t)
                out = memo[uid] = self.mol.smooth(f, L)
                out[0].flags.writeable = False   # shared, as the mask is
            return out

        return (self._expand(s, lambda l: smoothed(l)[0], ALL, ALL),
                smoothed(s)[1])


def residual(lhs, rhs) -> np.ndarray:
    """The difference of the two sides of an identity relative to the larger
    side floored at 1, node by node.  fmax skips a NaN side as max(1.0, ...)
    over floats does; the difference is NaN then."""
    return np.abs(lhs - rhs) / np.fmax(np.fmax(1.0, np.abs(lhs)), np.abs(rhs))


@dataclass
class OrderRow:
    sigma: str
    target: float
    scales: list
    values: list
    slope: float


def fit_slope(scales, values) -> float:
    top = sup(values)
    if math.isnan(top):
        return math.nan
    floor = 1e-13 * top
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
    vals = [[] for _ in sigmas]
    smoothed = [n for n, s in enumerate(sigmas) if path.smoothable(s)]
    # the smoothed values draw no samples, so they go scale by scale, each
    # scale with a memo of its own smoothings; the sampled pairs keep the
    # sigma-outer order of their draws
    for L in scales:
        memo: dict = {}
        for n in smoothed:
            g, mask = path.smoothed_centered_at_base(sigmas[n], L, memo)
            vals[n].append(sup(g[mask & probe]))
    for n, s in enumerate(sigmas):
        if not path.smoothable(s):
            vals[n] = [_pair_sup(path, s, L, probe, rng, n_pairs) for L in scales]
    return [OrderRow(tree_name(s), float(u.order(s)), list(scales), v,
                     fit_slope(scales, v)) for s, v in zip(sigmas, vals)]


def _pair_sup(path: Path, s: Tree, L: float, probe, rng, n_pairs: int) -> float:
    """max |X_{z,x} s| over sampled base points x and their four neighbours
    z at separation L that lie on the grid, in the order (pair, offset)."""
    grid = path.grid
    if not probe.any():
        return 0.0
    xj, xm = (np.repeat(a, 4) for a in sample_nodes(grid, probe, rng, n_pairs))
    oj = max(1, int(round(L ** 2 / grid.k_store)))
    om = max(1, int(round(L / grid.h)))
    zj = xj + np.tile([0, 0, oj, -oj], n_pairs)
    zm = xm + np.tile([om, -om, 0, 0], n_pairs)
    on = (0 <= zj) & (zj < grid.nt) & (0 <= zm) & (zm < grid.nx)
    return sup(path.value_at(s, (zj[on], zm[on]), (xj[on], xm[on])))


def sample_nodes(grid, probe, rng, n: int) -> tuple:
    """n nodes drawn from the probe region, as a batch (rows, cols)."""
    jj, mm = np.where(probe)
    idx = rng.integers(0, jj.size, size=n)
    return jj[idx], mm[idx]
