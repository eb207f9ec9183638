"""Local products: assignments of concrete space-time fields to trees.

A local product stores one field per unplanted tree (keyed by the canonical
representative, so permuted trees share a field), together with the derived
tables used everywhere downstream: the cut-off heat solves of those fields
and their spatial gradients.  All solves of a lift are one heat solve: each
dependency level marches field.LEVEL_LAG stored levels behind the one
before, and its values are computed a block of rows at a time from the
solve rows the march has written.

Three construction routes are provided: the unique multiplicative lift of a
noise field, lifts built from a permutation-invariant counterterm map through
the triangular rewriting R, and fully custom tables.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .coalgebra import Coalgebra
from .field import Grid, check_row, grad_x, heat_solve, noise_field, sup
from .symtree import (
    EDGE_I, EDGE_IM, EDGE_IP, GEN, ONE, PROD, XI,
    I, Tree, canon, prod3, tree_name,
)


class CountertermMap:
    """Real constants on the non-trivial product trees, permutation invariant.

    Values may be floats or Fractions; keys may be given in any child order
    and are canonicalized.  Anything outside Q is rejected.
    """

    def __init__(self, universe, values: dict):
        q_canon = {canon(t).uid for t in universe.Q}
        table: dict = {}
        for t, v in values.items():
            cu = canon(t).uid
            if cu not in q_canon:
                raise ValueError("counterterm off Q: %s" % tree_name(t))
            if cu in table and table[cu] != v:
                raise ValueError("conflicting values for permutations of %s"
                                 % tree_name(t))
            table[cu] = v
        self.table = table

    def value(self, t: Tree):
        return self.table.get(canon(t).uid, 0)

    def as_uid_map(self) -> dict:
        return dict(self.table)



class LocalProduct:
    """Tree -> field table with the derived heat-solve and gradient tables."""

    def __init__(self, grid: Grid, universe, coalg: Coalgebra, xi: np.ndarray,
                 rmap: CountertermMap | None = None):
        self.grid = grid
        self.universe = universe
        self.coalg = coalg
        self.xi = xi
        self.rmap = rmap
        self._X: dict = {}
        self._ell: dict = {}
        self._grad: dict = {}
        self._one = grid.ones()
        self._one.flags.writeable = False

    # table access ----------------------------------------------------------

    def value(self, t: Tree) -> np.ndarray:
        """X_z tau for an unplanted tree of the universe."""
        return self._X[canon(t).uid]

    def planted_field(self, pt: Tree) -> np.ndarray:
        """X_z sigma for a planted tree: monomial fields for the polynomial
        generators, heat solves otherwise, gradients for the Im edge.  Every
        tree whose value is 1 reads one shared read-only field."""
        ch = pt.child
        if pt.edge == EDGE_I:
            if ch is ONE:
                return self._one
            if ch.kind == GEN and ch.label == "X":
                return self.grid.x_field
            return self._ell[canon(ch).uid]
        if pt.edge == EDGE_IP:
            if ch.kind == GEN and ch.label == "X":
                return self._one
            raise KeyError("no field value on %s" % tree_name(pt))
        # EDGE_IM: never on X, since Im(X) is stored as Ip(X)
        return self.grad(ch)

    def ell(self, t: Tree) -> np.ndarray:
        """Heat solve of the stored field of an unplanted tree."""
        return self._ell[canon(t).uid]

    def grad(self, t: Tree) -> np.ndarray:
        """Spatial gradient of the heat solve of an unplanted tree, taken on
        its first read unless the march wrote it."""
        cu = canon(t).uid
        out = self._grad.get(cu)
        if out is None:
            out = self._grad[cu] = grad_x(self.grid, self._ell[cu])
        return out

    def forest_rows(self, forest, coeff=1.0,
                    rows: slice = slice(None)) -> np.ndarray:
        """The forest's value, times coeff, on a slice of stored levels
        (all of them by default)."""
        out = np.full((self.grid.ts[rows].size, self.grid.nx), float(coeff))
        for p in forest:
            out *= self.planted_field(p)[rows]
        return out


def _substitute_first_x(t: Tree, delta) -> Tree:
    """The tree t with its first X child replaced by One."""
    kids = list(t.children)
    for n, k in enumerate(kids):
        ch = k.child
        if ch.kind == GEN and ch.label == "X":
            kids[n] = I(ONE)
            sub = prod3(kids[0], kids[1], kids[2], delta)
            assert sub is not None
            return sub
    raise ValueError("no X child in %s" % tree_name(t))


def build_local_product(grid: Grid, universe, xi: np.ndarray,
                        rmap: CountertermMap | None = None,
                        custom: dict | None = None,
                        coalg: Coalgebra | None = None) -> LocalProduct:
    """Construct a local product over the universe.

    rmap None and custom None: the multiplicative lift of xi.
    rmap given: the lift built from the counterterm map (triangular rewriting).
    custom given: fields for trees in Q keyed by Tree; remaining trees follow
    the extension rules.

    xi and every custom field must be one field on the grid.  The trees fall
    into dependency levels in tree order: a tree opens a new level when it
    reads the solve (or gradient) of a tree of the current one.  Every value
    is a rule on rows (products of planted fields, x times a value, forest
    sums), so one heat solve marches all levels and asks each for its values
    a block of stored levels at a time, once the solves they read are
    written.  A gradient that a forest reads (an Im edge) is written on
    those rows just before, by the level above its tree; every other
    gradient is taken on its first read (LocalProduct.grad).
    """
    if universe.d != 1:
        raise ValueError("the numerical layer supports d = 1 only, got a "
                         "universe of d = %d" % universe.d)
    _check_field(grid, XI, xi)
    cg = coalg or Coalgebra(universe)
    lp = LocalProduct(grid, universe, cg, xi, rmap)
    delta = universe.delta
    ruid = rmap.as_uid_map() if rmap is not None else None
    custom_by_uid = {}
    if custom:
        q_canon = {canon(t).uid for t in universe.Q}
        for t, f in custom.items():
            cu = canon(t).uid
            if cu not in q_canon:
                raise ValueError("custom field off Q: %s" % tree_name(t))
            custom_by_uid[cu] = _check_field(grid, t, np.asarray(f, dtype=float))

    # uid -> the rule writing the rows of its value (None: given whole), by
    # dependency level
    levels: list = [{}]

    def add(t: Tree, val: np.ndarray, rule, planted) -> None:
        cu = canon(t).uid
        if any(canon(p.child).uid in levels[-1] for p in planted):
            levels.append({})
        levels[-1][cu] = rule
        lp._X[cu] = val
        lp._ell[cu] = np.empty((grid.nt, grid.nx))
        for p in planted:
            if p.edge == EDGE_IM:
                lp._grad.setdefault(canon(p.child).uid,
                                    np.empty((grid.nt, grid.nx)))

    def product(fields: list) -> tuple:
        val = np.empty((grid.nt, grid.nx))

        def rule(rows: slice) -> None:
            v = val[rows]
            v[...] = fields[0][rows]
            for g in fields[1:]:
                v *= g[rows]
        return val, rule

    def forest_sum(terms: list) -> tuple:
        val = np.empty((grid.nt, grid.nx))

        def rule(rows: slice) -> None:
            v = val[rows]
            v[...] = 0.0
            for forest, c in terms:
                v += lp.forest_rows(forest, c, rows)
        return val, rule

    add(XI, xi, None, ())
    unplanted = [t for t in universe.T_r if t.kind == PROD]
    unplanted.sort(key=lambda t: (t.edges + t.m_x, t.edges))
    for t in unplanted:
        cu = canon(t).uid
        if cu in lp._X:
            continue
        kids = [k.child for k in t.children]
        if universe.member("Q", t):
            if cu in custom_by_uid:
                add(t, custom_by_uid[cu], None, ())
            elif ruid is not None:
                terms = list(cg.renorm_expand(ruid, canon(t)).items())
                for forest, _c in terms:
                    _check_triangular(t, forest)
                add(t, *forest_sum(terms), [p for f, _c in terms for p in f])
            else:
                planted = canon(t).children
                add(t, *product([lp.planted_field(p) for p in planted]), planted)
        elif any(k.kind == GEN and k.label == "X" for k in kids):
            sub = lp._X[canon(_substitute_first_x(t, delta)).uid]
            add(t, *product([grid.x_field, sub]), ())
        elif sum(1 for k in kids if k is ONE) >= 2:
            rest = [I(k) for k in kids if k is not ONE]
            add(t, *product([lp.planted_field(rest[0]) if rest else lp._one]),
                rest)
        else:
            raise AssertionError("unreachable extension case %s" % tree_name(t))

    def forcing(level: dict, below: dict):
        read = [cu for cu in below if cu in lp._grad]

        def rows_of(rows: slice) -> list:
            for cu in read:
                lp._grad[cu][rows] = grad_x(grid, lp._ell[cu][rows])
            for rule in level.values():
                if rule is not None:
                    rule(rows)
            return [lp._X[cu][rows] for cu in level]
        return rows_of

    heat_solve(grid, [([lp._ell[cu] for cu in level], forcing(level, below))
                      for level, below in zip(levels, [{}] + levels)])
    return lp


def _check_field(grid: Grid, t: Tree, f: np.ndarray) -> np.ndarray:
    if np.shape(f) != (grid.nt, grid.nx):
        raise ValueError("the field of %s has shape %s, not the grid's (%d, %d)"
                         % (tree_name(t), np.shape(f), grid.nt, grid.nx))
    return f


def _check_triangular(t: Tree, forest) -> None:
    for p in forest:
        if p.child.kind != GEN and p.child.edges >= t.edges:
            raise ValueError("non-triangular rewriting at %s" % tree_name(t))


def extension_consistency_report(lp: LocalProduct) -> list:
    """For counterterm-built lifts the rewriting identity also holds on the
    extension trees outside Q; checks exact field equality there."""
    u, cg = lp.universe, lp.coalg
    rows = []
    if lp.rmap is None:
        return rows
    ruid = lp.rmap.as_uid_map()
    for t in u.N_ring:
        if u.member("Q", t):
            continue
        val = np.zeros_like(lp.xi)
        for forest, c in cg.renorm_expand(ruid, canon(t)).items():
            val += lp.forest_rows(forest, float(c))
        rows.append(check_row("extension-rewrite", tree_name(t),
                              val - lp.value(t), 1e-10 * max(1.0, sup(val))))
    return rows


# -- the standard third-order example ------------------------------------------

class EnsembleTooSmall(RuntimeError):
    def __init__(self, msg, report):
        super().__init__(msg)
        self.report = report


def standard_families(universe) -> tuple:
    """The 3 first-order and 9 second-order counterterm trees (all orderings)."""
    delta = universe.delta
    wick = []
    for kids in _arrangements((I(ONE), I(XI), I(XI))):
        t = prod3(*kids, delta)
        if t is None or not universe.member("Q", t):
            raise ValueError("first-order family outside Q at delta=%s" % delta)
        if t not in wick:
            wick.append(t)
    inners = []
    for kids in _arrangements((I(XI), I(ONE), I(XI))):
        s = prod3(*kids, delta)
        if s is not None and s not in inners:
            inners.append(s)
    sunset = []
    for s in inners:
        for kids in _arrangements((I(XI), I(s), I(XI))):
            t = prod3(*kids, delta)
            if t is None or not universe.member("Q", t):
                raise ValueError("second-order family outside Q at delta=%s" % delta)
            if t not in sunset:
                sunset.append(t)
    if len(wick) != 3 or len(sunset) != 9:
        raise AssertionError("family sizes %d/%d" % (len(wick), len(sunset)))
    return tuple(wick), tuple(sunset)


def _arrangements(kids) -> list:
    return list(dict.fromkeys(itertools.permutations(kids)))


def phi43_counterterms(grid: Grid, universe, seeds, eps: float,
                       amp: float = 1.0, kind: str = "gauss",
                       rel_se_tol: float = 0.5):
    """Estimate the two renormalization constants by ensemble plus space-time
    averaging over a probe region where the cutoff equals one, and assign them
    (negated) to the two standard families.

    Returns (CountertermMap, report).  The expectation of the squared solve is
    replaced by an empirical average; the report carries the standard errors.
    """
    tt, xx = grid.t_field, grid.x_field
    probe = (tt >= 0.2) & (tt <= 1.0) & (np.abs(xx) <= 1.5)
    solves = heat_solve(grid, np.stack(
        [noise_field(grid, kind, seed=s, eps=eps, amp=amp) for s in seeds]))
    wick_samples = np.array([float(np.mean(u[probe] ** 2)) for u in solves])
    c_wick = float(wick_samples.mean())
    thetas = solves ** 2 - c_wick
    sunset_samples = np.array([float(np.mean((theta * v)[probe]))
                               for theta, v in zip(thetas, heat_solve(grid, thetas))])
    c_sunset = float(sunset_samples.mean())
    n = len(seeds)
    report = {
        "c_wick": c_wick,
        "c_sunset": c_sunset,
        "n_samples": n,
        "se_wick": float(wick_samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
        "se_sunset": float(sunset_samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0,
        "eps": eps, "kind": kind, "seeds": list(seeds),
    }
    for name, c, se in (("wick", c_wick, report["se_wick"]),
                        ("sunset", c_sunset, report["se_sunset"])):
        if c != 0.0 and se > rel_se_tol * abs(c):
            raise EnsembleTooSmall(
                "standard error of %s constant above %.0f%% of its value"
                % (name, 100 * rel_se_tol), report)
    wick, sunset = standard_families(universe)
    values: dict = {}
    for t in wick:
        values[t] = -c_wick
    for t in sunset:
        values[t] = -c_sunset
    return CountertermMap(universe, values), report


def random_counterterm_map(universe, rng, exact: bool = True) -> CountertermMap:
    """Random permutation-invariant map on Q, one draw per canonical class."""
    classes: dict = {}
    for t in universe.Q:
        cu = canon(t)
        if cu.uid not in classes:
            if exact:
                classes[cu.uid] = (cu, Fraction(int(rng.integers(-9, 10)), 7))
            else:
                classes[cu.uid] = (cu, float(rng.normal()))
    return CountertermMap(universe, {t: v for (t, v) in classes.values()})
