"""Coproduct, cut maps and the forest algebra.

Tensor sums are plain dicts mapping (left, right-forest) pairs to exact
coefficients.  The left slot holds a Tree for the coproduct of a single tree
and a forest (tuple of planted trees) once a renormalization operator has been
applied.  Forests are ordered tuples; the empty tuple is the algebra unit.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .symtree import (
    EDGE_I, EDGE_IP, GEN, ONE, PLANTED, PROD, XI,
    Tree, I, Im, Ip, X, canon, leq, prod3, tree_name,
)

Forest = Tuple[Tree, ...]
UNIT: Forest = ()


def forest_m_xi(f: Forest) -> int:
    return sum(t.m_xi for t in f)


def forest_m_one(f: Forest) -> int:
    return sum(t.m_one for t in f)


def forest_m_x(f: Forest) -> int:
    return sum(t.m_x for t in f)


def forest_key(f: Forest) -> Tuple[int, ...]:
    """Multiset normal form under forest commutativity."""
    return tuple(sorted(t.uid for t in f))


def _add(acc: dict, key, coeff) -> None:
    c = acc.get(key)
    c = coeff if c is None else c + coeff
    if c:
        acc[key] = c
    elif key in acc:
        del acc[key]


def _cut(memo: dict, leaves: tuple, tb: Tree, t: Tree) -> Optional[Forest]:
    """The cut of t along tb, or None where it is undefined, memoised in memo.

    C_+ and C_- follow one rule and differ only at the leaves, which
    ``leaves`` gives as (cut, edge, one_cuts): One cuts t into I(t) where
    one_cuts(t) holds, X_i cuts t into edge(i, t) where that is not zero,
    Xi cuts only Xi, and a product cuts a product child by child through
    ``cut``, the public map, so that every child cut is counted and memoised.
    """
    key = (tb.uid, t.uid)
    if key in memo:
        return memo[key]
    cut, edge, one_cuts = leaves
    out = None
    if tb is ONE:
        if one_cuts(t):
            out = (I(t),)
    elif tb.kind == GEN and tb.label == "X":
        e = edge(tb.index, t)
        if e is not None:
            out = (e,)
    elif tb is XI:
        if t is XI:
            out = UNIT
    elif tb.kind == PROD and t.kind == PROD:
        out = UNIT
        for kb, k in zip(tb.children, t.children):
            p = cut(kb.child, k.child)
            if p is None:
                out = None
                break
            out += p
    memo[key] = out
    return out


class _CutSets:
    """The left factors of each tree with a defined cut, generated from the
    factors of its children instead of testing every candidate.

    ``cut`` is Coalgebra.cplus or Coalgebra.cminus.  Both test generators
    case by case, give no product a cut on a generator, and cut a product
    from a product child by child, in order.  So the product factors of a
    product t are the products whose ordered child trees come from the
    factor sets of t's child trees; being interned by their children, they
    are found in an index keyed by the uids of their child trees.  The index
    covers the pool, the roots and every tree reachable from them as a
    product child, which makes each factor set exact within the pool.
    """

    def __init__(self, cut, roots, d: int):
        self.cut = cut
        self.gens = (ONE,) + tuple(X(i) for i in range(1, d + 1)) + (XI,)
        self.rank = {t.uid: r for r, t in enumerate(roots)}
        self.prods: Dict[Tuple[int, int, int], Tree] = {}
        stack = [t for t in roots if t.kind == PROD]
        while stack:
            t = stack.pop()
            key = tuple(k.child.uid for k in t.children)
            if key not in self.prods:
                self.prods[key] = t
                stack.extend(k.child for k in t.children if k.child.kind == PROD)
        self._factors: Dict[int, list] = {}

    def factors(self, t: Tree) -> list:
        """Every pool tree tb with a defined cut(tb, t)."""
        out = self._factors.get(t.uid)
        if out is None:
            out = [g for g in self.gens if self.cut(g, t) is not None]
            if t.kind == PROD:
                a, b, c = (self.factors(k.child) for k in t.children)
                prods = self.prods
                for ta in a:
                    for tb in b:
                        for tc in c:
                            p = prods.get((ta.uid, tb.uid, tc.uid))
                            if p is not None:
                                out.append(p)
            self._factors[t.uid] = out
        return out

    def rows(self, t: Tree) -> Tuple[Tuple[Tree, Forest], ...]:
        """(tb, cut(tb, t)) for the roots tb with a defined cut, in root order."""
        rank = self.rank
        tbs = sorted((tb for tb in self.factors(t) if tb.uid in rank),
                     key=lambda tb: rank[tb.uid])
        return tuple((tb, self.cut(tb, t)) for tb in tbs)


class Coalgebra:
    """Coproduct machinery scoped to one TreeUniverse (delta fixed)."""

    def __init__(self, universe):
        self.u = universe
        self._delta: Dict[int, dict] = {}
        self._cplus: Dict[Tuple[int, int], Optional[Forest]] = {}
        self._cminus: Dict[Tuple[int, int], Optional[Forest]] = {}
        self._rcuts: Dict[int, Tuple[Tuple[int, Forest], ...]] = {}
        # The leaf rules of each cut map (see _cut): the public map the
        # product case recurses through, the edge X_i cuts through, and the
        # trees One cuts: every tree in C_-, and in C_+ every tree but Xi
        # and the products of order <= -2.
        order = universe.order
        self._plus_leaves = (
            self.cplus, functools.partial(Ip, delta=universe.delta),
            lambda t: t is not XI and (t.kind == GEN or order(t) > -2))
        self._minus_leaves = (self.cminus, Im, lambda t: True)
        self._cplus_sets = _CutSets(self.cplus, universe.N + universe.W, universe.d)
        self._cminus_sets = _CutSets(self.cminus, universe.Q, universe.d)

    # -- coproduct ---------------------------------------------------------

    def delta(self, s: Tree) -> dict:
        out = self._delta.get(s.uid)
        if out is not None:
            return out
        u, dl = self.u, self.u.delta
        acc: dict = {}
        if s.kind == PLANTED:
            ch = s.child
            if s.edge == EDGE_I:
                if ch is ONE:
                    _add(acc, (s, (s,)), 1)
                elif ch.kind == GEN and ch.label == "X":
                    ip = Ip(ch.index, ch, dl)
                    _add(acc, (I(ONE), (s,)), 1)
                    _add(acc, (s, (ip,)), 1)
                elif u.member("W", ch):
                    _add(acc, (s, UNIT), 1)
                elif u.member("N_ring", ch):
                    _add(acc, (I(ONE), (s,)), 1)
                    for i in range(1, u.d + 1):
                        ip = Ip(i, ch, dl)
                        if ip is not None:
                            _add(acc, (I(X(i)), (ip,)), 1)
                    for (l, f), c in self.delta(ch).items():
                        _add(acc, (I(l), f), c)
                else:
                    raise ValueError("delta: %s outside domain" % tree_name(s))
            elif s.edge == EDGE_IP:
                if ch.kind == GEN:
                    _add(acc, (s, (s,)), 1)
                else:
                    _add(acc, (Ip(s.index, X(s.index), dl), (s,)), 1)
                    for (l, f), c in self.delta(ch).items():
                        ip = Ip(s.index, l, dl)
                        if ip is not None:
                            _add(acc, (ip, f), c)
            else:  # EDGE_IM
                for (l, f), c in self.delta(ch).items():
                    im = Im(s.index, l)
                    if im is not None:
                        _add(acc, (im, f), c)
                ip = Ip(s.index, ch, dl)
                if ip is not None:
                    _add(acc, (Ip(s.index, X(s.index), dl), (ip,)), 1)
        elif s.kind == PROD:
            if u.member("W", s):
                _add(acc, (s, UNIT), 1)
            else:
                d1, d2, d3 = (self.delta(k) for k in s.children)
                for (l1, f1), c1 in d1.items():
                    for (l2, f2), c2 in d2.items():
                        for (l3, f3), c3 in d3.items():
                            l = prod3(l1, l2, l3, dl)
                            if l is None:
                                continue
                            _add(acc, (l, f1 + f2 + f3), c1 * c2 * c3)
        elif s is XI:
            _add(acc, (s, UNIT), 1)
        else:
            raise ValueError("delta: %s outside domain" % tree_name(s))
        self._delta[s.uid] = acc
        return acc

    def delta_forest(self, forest: Forest) -> dict:
        acc = {(UNIT, UNIT): 1}
        for comp in forest:
            nxt: dict = {}
            for (l, f), c in self.delta(comp).items():
                for (fl, fr), c0 in acc.items():
                    _add(nxt, (fl + (l,), fr + f), c0 * c)
            acc = nxt
        return acc

    # -- cut maps ----------------------------------------------------------

    def cplus(self, tb: Tree, t: Tree) -> Optional[Forest]:
        """The forest C_+(tb, t), or None where the cut is undefined."""
        return _cut(self._cplus, self._plus_leaves, tb, t)

    def cminus(self, tb: Tree, t: Tree) -> Optional[Forest]:
        """The forest C_-(tb, t), or None where the cut is undefined."""
        return _cut(self._cminus, self._minus_leaves, tb, t)

    def cplus_cuts(self, t: Tree) -> Tuple[Tuple[Tree, Forest], ...]:
        """(tb, C_+(tb, t)) for tb in N + W where the cut is defined, in that
        order."""
        return self._cplus_sets.rows(t)

    def cminus_cuts(self, t: Tree) -> Tuple[Tuple[Tree, Forest], ...]:
        """(tq, C_-(tq, t)) for tq in Q where the cut is defined, in Q order."""
        return self._cminus_sets.rows(t)

    # -- renormalization operator -------------------------------------------

    def renorm_expand(self, rmap: dict, tau: Tree, unit=1) -> dict:
        """R(tau) = q_F(tau) + sum r(tau') C_-(tau', tau) as {forest: coeff}.

        rmap maps canonical uids to coefficients; it must vanish off Q.
        q_F(tau) is weighted by unit: with rmap scaled by D and unit=D, the
        result is D R(tau).  The cuts come from an index keyed by tau.uid:
        the pairs (canon(tq).uid, C_-(tq, tau)) of cminus_cuts(tau).  It is
        built on first use, does not depend on rmap, and lasts as long as
        this instance.
        """
        cuts = self._rcuts.get(tau.uid)
        if cuts is None:
            cuts = self._rcuts[tau.uid] = tuple(
                (canon(tq).uid, f) for tq, f in self.cminus_cuts(tau))
        acc: dict = {}
        _add(acc, tuple(tau.children), unit)
        for uid, f in cuts:
            c = rmap.get(uid)
            if c:
                _add(acc, f, c)
        return acc

    # -- verification scans --------------------------------------------------

    def verify_coassoc(self, trees=None) -> list:
        """(delta x id) delta == (id x delta) delta, exact."""
        report = []
        for s in (trees if trees is not None else self.u.T):
            lhs: dict = {}
            rhs: dict = {}
            for (l, f), c in self.delta(s).items():
                for (l2, f2), c2 in self.delta(l).items():
                    _add(lhs, (l2, f2, f), c * c2)
                for (f1, f2), c2 in self.delta_forest(f).items():
                    _add(rhs, (l, f1, f2), c * c2)
            report.append(_row("coassoc", s, lhs == rhs, lhs, rhs))
        return report

    def verify_explicit_formula(self) -> list:
        """delta against the cut-map table, plus the leaf-count identities."""
        u = self.u
        report = []
        for t in u.N + u.W:
            cuts = self.cplus_cuts(t)
            rhs_planted: dict = {}
            for tb, f in cuts:
                _add(rhs_planted, (I(tb), f), 1)
                ok = (
                    leq(tb, t)
                    and t.m_xi == tb.m_xi + forest_m_xi(f)
                    and tb.m_one + tb.m_x == len(f)
                    and t.m_one == forest_m_one(f)
                    and t.m_x == forest_m_x(f)
                    and u.order(tb) + sum(u.order(p) for p in f) == u.order(t)
                )
                report.append(_row("cut-counts", t, ok, tree_name(tb), f))
            lhs_planted = self.delta(I(t))
            report.append(_row("explicit-planted", t,
                               lhs_planted == rhs_planted, lhs_planted, rhs_planted))
            if u.member("T_r", t):
                # left factors of the unplanted coproduct live in T_r, so the
                # polynomial generators drop out of this sum
                rhs_flat = {}
                for tb, f in cuts:
                    if u.member("T_r", tb):
                        _add(rhs_flat, (tb, f), 1)
                lhs_flat = self.delta(t)
                report.append(_row("explicit-unplanted", t,
                                   lhs_flat == rhs_flat, lhs_flat, rhs_flat))
        return report

    def verify_delta_ranges(self) -> list:
        u = self.u
        report = []
        checks = (("T_l", u.T_l), ("N_ring", u.N_ring), ("T_cen", u.T_cen))
        for name, trees in checks:
            for s in trees:
                ok = all(u.member(name, l) for (l, _f) in self.delta(s))
                report.append(_row("range-" + name, s, ok, None, None))
        return report

    def verify_renorm_commute(self, rmap: dict) -> list:
        """delta R == (R x id) delta on product trees; compared after multiset
        normalization of forests (the raw ordered comparison is reported too).

        Both sides are affine in rmap with integer coproduct coefficients.  So
        an exact map (int or Fraction values) is scaled by the lcm D of its
        denominators and both sides run on ints as D times themselves: equal
        exactly when the unscaled sides are.  A failing row divides its
        coefficients by D again, so it reads as the unscaled sides would.
        """
        u = self.u
        exact = all(isinstance(c, (int, Fraction)) for c in rmap.values())
        unit = math.lcm(*(c.denominator for c in rmap.values())) if exact else 1
        if exact:
            rmap = {uid: int(c * unit) for uid, c in rmap.items()}
        report = []
        for t in u.T_r:
            if t.kind != PROD:
                continue
            lhs: dict = {}
            for f, c in self.renorm_expand(rmap, t, unit).items():
                for (fl, fr), c2 in self.delta_forest(f).items():
                    _add(lhs, (fl, fr), c * c2)
            rhs: dict = {}
            for (l, f), c in self.delta(t).items():
                for f2, c2 in self.renorm_expand(rmap, l, unit).items():
                    _add(rhs, (f2, f), c * c2)
            ordered_equal = lhs == rhs
            norm_l: dict = {}
            norm_r: dict = {}
            for (fl, fr), c in lhs.items():
                _add(norm_l, (forest_key(fl), forest_key(fr)), c)
            for (fl, fr), c in rhs.items():
                _add(norm_r, (forest_key(fl), forest_key(fr)), c)
            ok = norm_l == norm_r
            if not ok and exact:
                lhs = {k: Fraction(c, unit) for k, c in lhs.items()}
                rhs = {k: Fraction(c, unit) for k, c in rhs.items()}
            row = _row("renorm-commute", t, ok, lhs, rhs)
            row["ordered_equal"] = ordered_equal
            report.append(row)
        return report


def _row(identity: str, t: Tree, ok: bool, lhs, rhs) -> dict:
    row = {"identity": identity, "tree": tree_name(t),
           "status": "pass" if ok else "FAIL"}
    if not ok:
        row["lhs"] = _render(lhs)
        row["rhs"] = _render(rhs)
    return row


def _render(obj):
    if isinstance(obj, dict):
        parts = []
        for key, c in sorted(obj.items(), key=lambda kv: str(kv[0])):
            parts.append("%s * %s" % (c, _render_key(key)))
        return " + ".join(parts) if parts else "0"
    return str(obj)


def _render_key(key):
    if isinstance(key, tuple):
        return " (x) ".join(_render_factor(k) for k in key)
    return _render_factor(key)


def _render_factor(k):
    if isinstance(k, Tree):
        return tree_name(k)
    if isinstance(k, tuple):
        return "[" + " . ".join(
            tree_name(t) if isinstance(t, Tree) else str(t) for t in k) + "]" \
            if k else "1"
    return str(k)


def report_failures(report: list) -> list:
    return [row for row in report if row["status"] != "pass"]
