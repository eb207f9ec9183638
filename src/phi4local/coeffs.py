"""Coefficient map for tree expansions and its coherence identities.

The map assigns to each tree a signed monomial in the scalar ``v1`` and the
vector ``vX``; all solution expansions factor through it.  Identities are
checked as formal monomials with exact coefficients, never by sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .coalgebra import Coalgebra, _row
from .symtree import PLANTED, I, Tree, prod3, sign_of, tree_name

# A formal monomial: (coefficient, exponent of v1, sorted tuple of (i, exponent)).
Monomial = tuple


def upsilon_monomial(t: Tree) -> Monomial:
    """Closed form: (-1)^((m-1)/2) * v1^m_one * prod_i vX_i^m_x_i."""
    if t.kind == PLANTED:
        return upsilon_monomial(t.child)
    return (Fraction(sign_of(t)), t.m_one, t.mx_by)


def monomial_product(monos: Sequence[Monomial], extra_coeff=Fraction(1)) -> Monomial:
    coeff = Fraction(extra_coeff)
    p = 0
    mx: dict = {}
    for c, q, mxb in monos:
        coeff *= c
        p += q
        for i, e in mxb:
            mx[i] = mx.get(i, 0) + e
    return (coeff, p, tuple(sorted(mx.items())))


def upsilon_forest_monomial(forest) -> Monomial:
    return monomial_product([upsilon_monomial(t) for t in forest])


# -- identity scans ----------------------------------------------------------

def check_cube_identity(universe) -> list:
    """Expand the truncated triple product of the planted expansion and match
    it term by term against the coefficient-weighted sum of product trees.
    """
    u = universe
    report = []
    target = {t.uid: t for t in u.N_ring + u.W_ring}
    pool = sorted(u.N + u.W, key=u.order)
    orders = [u.order(t) for t in pool]
    generated = {}
    for i1, t1 in enumerate(pool):
        if orders[i1] + orders[0] + orders[0] > -6:
            break
        for i2, t2 in enumerate(pool):
            if orders[i1] + orders[i2] + orders[0] > -6:
                break
            for i3, t3 in enumerate(pool):
                if orders[i1] + orders[i2] + orders[i3] > -6:
                    break
                t = prod3(I(t1), I(t2), I(t3), u.delta)
                assert t is not None
                lhs = monomial_product(
                    [upsilon_monomial(t1), upsilon_monomial(t2),
                     upsilon_monomial(t3)], extra_coeff=Fraction(-1))
                rhs = upsilon_monomial(t)
                generated[t.uid] = t
                report.append(_row("cube-term", t, lhs == rhs, lhs, rhs))
    missing = [tree_name(t) for uid, t in target.items() if uid not in generated]
    extra = [tree_name(t) for uid, t in generated.items() if uid not in target]
    report.append(_row("cube-support", "*", not missing and not extra,
                       "missing: %s" % missing, "extra: %s" % extra))
    return report


def check_coherence(universe, coalg: Optional[Coalgebra] = None) -> list:
    """For every cut pair, the coefficient of the big tree factors through the
    cut forest with the sign carried by the small tree."""
    u = universe
    cg = coalg or Coalgebra(u)
    report = []
    for tbig in u.N_ring:
        for tsmall, f in cg.cplus_cuts(tbig):
            if not u.member("N", tsmall):
                continue
            lhs = upsilon_monomial(tbig)
            rhs = monomial_product([upsilon_forest_monomial(f)],
                                   extra_coeff=Fraction(sign_of(tsmall)))
            report.append(_row("coherence", "%s | %s" % (
                tree_name(tsmall), tree_name(tbig)), lhs == rhs, lhs, rhs))
    return report


# -- classification of the continuity errors ---------------------------------

@dataclass(frozen=True)
class UtauClass:
    kind: str           # 'V' | 'V2' | 'V3' | 'Vi' | 'zero'
    index: int          # spatial index for 'Vi'
    sign: int


def classify_utau(t: Tree, universe) -> UtauClass:
    if not universe.member("N", t):
        raise ValueError("%s is not in N" % tree_name(t))
    s = sign_of(t)
    if t.m_one == 1 and t.m_x == 0:
        return UtauClass("V", 0, s)
    if t.m_one == 2 and t.m_x == 0:
        return UtauClass("V2", 0, s)
    if t.m_x == 1 and t.m_one == 0:
        (i, _e), = t.mx_by
        return UtauClass("Vi", i, s)
    if t.m_one == 0 and t.m_x == 0:
        return UtauClass("zero", 0, s)
    if t.m_one == 3 and t.m_x == 0:
        # the unique order-0 tree: the truncated-cube analogue of the V / V2
        # cases (its cuts replace all three One leaves at once)
        return UtauClass("V3", 0, s)
    raise ValueError("unclassifiable leaf counts on %s" % tree_name(t))


def classification_table(universe) -> list:
    rows = []
    for t in universe.N:
        c = classify_utau(t, universe)
        rows.append({"tree": tree_name(t), "class": c.kind, "index": c.index,
                     "sign": c.sign,
                     "m_counts": [t.m_xi, t.m_one, t.m_x]})
    return rows


# -- truncation level helpers -------------------------------------------------

def resonance_values(universe) -> set:
    """Exact cut values a truncation level must avoid."""
    u = universe
    vals = set()
    orders = {u.order(t) for t in u.N}     # the sums depend on orders alone
    for o in orders:
        vals.add(o + 2)       # level gamma with |tau| == gamma - 2
        vals.add(o + 1)       # derivative cutoffs
    for o1 in orders:
        for o2 in orders:
            vals.add(o1 + o2 + 4)
    return vals


def is_resonant(universe, gamma: Fraction) -> bool:
    return gamma in resonance_values(universe)


def pick_gamma(universe, target: Fraction) -> Fraction:
    """A non-resonant rational level near target (exact comparisons downstream)."""
    g = Fraction(target)
    step = Fraction(1, 997)
    for _ in range(2000):
        if not is_resonant(universe, g):
            return g
        g += step
    raise RuntimeError("could not find non-resonant level near %s" % target)
