"""Non-commutative tree grammar with exact rational orders.

Trees are built from the generators ``One``, ``X(i)`` and ``Xi`` (the noise
symbol), planted edges ``I``, ``Ip(i, .)``, ``Im(i, .)`` and a ternary,
non-commutative product of planted trees.  All trees are interned: structural
equality is identity of the ``uid`` field.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

GEN = "gen"
PLANTED = "planted"
PROD = "prod"

EDGE_I = "I"
EDGE_IP = "Ip"
EDGE_IM = "Im"

ENUMERATION_CAP = 100_000       # products a TreeUniverse may list

_intern_table: dict = {}
_next_uid = 0
_orders: dict = {}              # (uid, delta) -> order, see order()


class Tree:
    """Immutable interned tree.  Construct through the factory functions."""

    __slots__ = (
        "kind", "label", "edge", "index", "child", "children",
        "m_xi", "m_one", "mx_by", "edges", "uid", "_canon", "_name",
    )

    def __init__(self, kind, label, edge, index, child, children,
                 m_xi, m_one, mx_by, edges, uid):
        self.kind = kind
        self.label = label          # 'Xi' | 'One' | 'X' for generators
        self.edge = edge            # 'I' | 'Ip' | 'Im' for planted trees
        self.index = index          # spatial index for X / Ip / Im
        self.child = child
        self.children = children    # 3-tuple of planted trees for products
        self.m_xi = m_xi
        self.m_one = m_one
        self.mx_by = mx_by          # sorted tuple of (i, count)
        self.edges = edges
        self.uid = uid
        self._canon = None
        self._name = None

    @property
    def m_x(self) -> int:
        return sum(c for _, c in self.mx_by)

    @property
    def m(self) -> int:
        return self.m_xi + self.m_one + self.m_x

    def __repr__(self):
        return tree_name(self)

    def __hash__(self):
        return self.uid

    def __eq__(self, other):
        return self is other


def _intern(key, builder) -> Tree:
    global _next_uid
    t = _intern_table.get(key)
    if t is None:
        t = builder(_next_uid)
        _intern_table[key] = t
        _next_uid += 1
    return t


def _merge_mx(*parts: Iterable[tuple]) -> tuple:
    acc: dict = {}
    for part in parts:
        for i, c in part:
            acc[i] = acc.get(i, 0) + c
    return tuple(sorted(acc.items()))


def _gen(label: str, index: int = 0) -> Tree:
    key = (GEN, label, index)
    if label == "Xi":
        counts = (1, 0, ())
    elif label == "One":
        counts = (0, 1, ())
    else:
        counts = (0, 0, ((index, 1),))
    return _intern(key, lambda uid: Tree(
        GEN, label, None, index, None, None,
        counts[0], counts[1], counts[2], 0, uid))


XI = _gen("Xi")
ONE = _gen("One")


def X(i: int) -> Tree:
    if i < 1:
        raise ValueError("spatial index starts at 1")
    return _gen("X", i)


def _raw_planted(edge: str, index: int, child: Tree) -> Tree:
    key = (PLANTED, edge, index, child.uid)
    return _intern(key, lambda uid: Tree(
        PLANTED, None, edge, index, child, None,
        child.m_xi, child.m_one, child.mx_by, child.edges + 1, uid))


def I(child: Tree) -> Tree:
    if child.kind == PLANTED:
        raise ValueError("I applies to unplanted trees")
    return _raw_planted(EDGE_I, 0, child)


def order(t: Tree, delta: Fraction) -> Fraction:
    """Order |t|.  On unplanted trees this equals -3 + m_xi*delta + m_one + 2*m_x.

    Memoised by (uid, delta): a tree keeps one order per delta it is read at.
    """
    key = (t.uid, delta)
    o = _orders.get(key)
    if o is None:
        if t.kind == PLANTED:
            o = order(t.child, delta) + (2 if t.edge == EDGE_I else 1)
        else:
            o = Fraction(-3) + t.m_xi * delta + t.m_one + 2 * t.m_x
        _orders[key] = o
    return o


def Ip(i: int, child: Tree, delta: Fraction) -> Optional[Tree]:
    """Derivative edge for centering.  Zero (None) off its admissible domain:
    kept only on X_i and on product trees of order in (-1, 0]."""
    if child.kind == GEN:
        if child.label == "X" and child.index == i:
            return _raw_planted(EDGE_IP, i, child)
        return None
    if child.kind != PROD:
        return None
    o = order(child, delta)
    if Fraction(-1) < o <= 0:
        return _raw_planted(EDGE_IP, i, child)
    return None


def Im(i: int, child: Tree) -> Optional[Tree]:
    """Derivative edge for counterterms.  Im_i(X_i) is stored as Ip_i(X_i);
    Im_i(One) and Im_i(X_j), j != i, vanish."""
    if child.kind == GEN:
        if child.label == "One":
            return None
        if child.label == "X":
            if child.index == i:
                return _raw_planted(EDGE_IP, i, child)
            return None
    if child.kind == PLANTED:
        raise ValueError("Im applies to unplanted trees")
    return _raw_planted(EDGE_IM, i, child)


def _raw_prod(a: Tree, b: Tree, c: Tree) -> Tree:
    key = (PROD, a.uid, b.uid, c.uid)
    return _intern(key, lambda uid: Tree(
        PROD, None, None, 0, None, (a, b, c),
        a.m_xi + b.m_xi + c.m_xi,
        a.m_one + b.m_one + c.m_one,
        _merge_mx(a.mx_by, b.mx_by, c.mx_by),
        a.edges + b.edges + c.edges, uid))


def prod3(a: Tree, b: Tree, c: Tree, delta: Fraction) -> Optional[Tree]:
    """Ternary tree product; zero (None) when the orders sum above 0."""
    for t in (a, b, c):
        if t.kind != PLANTED or t.edge != EDGE_I:
            raise ValueError("product children must be I-planted trees")
    if order(a, delta) + order(b, delta) + order(c, delta) > 0:
        return None
    return _raw_prod(a, b, c)


def sign_of(t: Tree) -> int:
    """(-1)^((m-1)/2); every unplanted tree has an odd number of leaves."""
    return -1 if ((t.m - 1) // 2) % 2 else 1


def canon(t: Tree) -> Tree:
    """Canonical representative under permutations of the tree product."""
    if t._canon is not None:
        return t._canon
    if t.kind == GEN:
        c = t
    elif t.kind == PLANTED:
        c = _raw_planted(t.edge, t.index, canon(t.child))
    else:
        c = _raw_prod(*sorted((canon(k) for k in t.children),
                              key=lambda s: s.uid))
    t._canon = c
    return c


def tree_name(t: Tree) -> str:
    """The printed name of t, memoised on the tree."""
    name = t._name
    if name is None:
        if t.kind == GEN:
            name = t.label if t.label != "X" else "X%d" % t.index
        elif t.kind == PLANTED:
            edge = "I" if t.edge == EDGE_I else "%s%d" % (t.edge, t.index)
            name = "%s(%s)" % (edge, tree_name(t.child))
        else:
            name = "[%s %s %s]" % tuple(tree_name(k) for k in t.children)
        t._name = name
    return name


def parse_delta(text: str) -> Fraction:
    d = Fraction(text)
    if not (0 < d < 1):
        raise ValueError("delta must lie in (0,1), got %s" % text)
    return d


def _leaf_counts(delta: Fraction):
    """(m_xi, m_one, m_x) leaf counts of an odd number of leaves, with at
    most 3/delta + 1 noises, three Ones and one X, and their order
    -3 + m_xi*delta + m_one + 2*m_x: the lattice of W and the product part
    of N, and of the generators."""
    a_max = int(Fraction(3) / delta) + 1
    for a in range(a_max + 1):
        for b in range(4):
            for c in range(2):
                if (a + b + c) % 2:
                    yield (a, b, c), Fraction(-3) + a * delta + b + 2 * c


def check_delta_admissible(delta: Fraction) -> bool:
    """True iff the leaf-count lattice of W and the product part of N hits no
    order -2 tree and no order 0 tree besides [I(One) I(One) I(One)].

    These are the two boundaries the construction relies on: the W / N split
    at order -2 and the uniqueness of the order-0 tree (which drives the
    positive-order projection and the epsilon-gap above every product sum).
    """
    if not (0 < delta < 1):
        raise ValueError("delta must lie in (0,1)")
    return not any(tup[0] >= 1 and o in (-2, 0) for tup, o in _leaf_counts(delta))


class EnumerationCapExceeded(RuntimeError):
    pass


class InadmissibleDelta(ValueError):
    pass


# The tree sets of a universe, in the order a report lists a tree's sets.
_SETS = ("poly", "W", "W_ring", "N", "N_ring", "N_tilde", "Q", "dW", "T_r",
         "T_l", "T", "T_plus", "T_cen")


class TreeUniverse:
    """All tree sets for a fixed delta and spatial dimension.

    Sets follow the build contract's naming: poly, W, W_ring, N, N_ring,
    N_tilde, Q, dW, T_r, T_l, T, T_plus, T_cen.  Each is a tuple ordered by
    edge count, then by first touch in this enumeration (the interning order
    of a fresh process).  The centering set N_tilde is taken as the
    product trees of order in (-1, 0]: the unique order-0 tree needs the
    same first-order centering as the rest of the set, so it is included.
    """

    def __init__(self, delta: Fraction, d: int, cap: int = ENUMERATION_CAP):
        if not check_delta_admissible(delta):
            raise InadmissibleDelta("inadmissible delta %s" % delta)
        if d < 1:
            raise ValueError("dimension must be >= 1")
        self.delta = delta
        self.d = d
        rank = {XI.uid: 0, ONE.uid: 1}

        def touch(t):
            rank.setdefault(t.uid, len(rank))
            return t

        by_tuple: dict = {
            (1, 0, 0): [XI],
            (0, 1, 0): [ONE],
            (0, 0, 1): [touch(X(i)) for i in range(1, d + 1)],
        }
        lattice = list(_leaf_counts(delta))
        neg = {tup for tup, o in lattice if o < 0}
        total = 0
        for tup in sorted((tup for tup, o in lattice if o <= 0 and sum(tup) >= 3),
                          key=lambda t: (sum(t), t)):
            trees = []
            for part in _ordered_partitions(tup):
                if any(p not in neg for p in part):
                    continue
                pools = [by_tuple.get(p, ()) for p in part]
                for ta in pools[0]:
                    for tb in pools[1]:
                        for tc in pools[2]:
                            t = prod3(touch(I(ta)), touch(I(tb)),
                                      touch(I(tc)), delta)
                            if t is not None:
                                trees.append(touch(t))
            total += len(trees)
            if total > cap:
                raise EnumerationCapExceeded(
                    "universe exceeds cap %d at delta=%s" % (cap, delta))
            if trees:
                by_tuple[tup] = trees

        products = [t for tup, ts in by_tuple.items() if sum(tup) >= 3 for t in ts]

        def key(t):
            return (t.edges, rank[t.uid])

        self.poly = tuple([X(i) for i in range(1, d + 1)] + [ONE])
        self.W_ring = tuple(sorted((t for t in products if self.order(t) < -2), key=key))
        self.W = tuple(sorted((XI,) + self.W_ring, key=key))
        self.N_ring = tuple(sorted(
            (t for t in products if Fraction(-2) <= self.order(t) <= 0), key=key))
        self.N = tuple(sorted(self.poly + self.N_ring, key=key))
        self.N_tilde = tuple(sorted(
            (t for t in self.N_ring if Fraction(-1) < self.order(t) <= 0), key=key))
        self.Q = tuple(sorted((t for t in products if self._in_Q(t)), key=key))
        self.dW = tuple(sorted(
            (t for t in self.N_ring
             if all(self.order(k.child) < -2 for k in t.children)), key=key))
        self.T_r = tuple(sorted(self.W + self.N_ring, key=key))
        self.T_l = tuple(sorted([touch(I(t)) for t in self.T_r] +
                                [touch(I(p)) for p in self.poly], key=key))
        self.T = tuple(sorted(self.T_r + self.T_l, key=key))
        ip_trees = [touch(Ip(i, X(i), delta)) for i in range(1, d + 1)]
        for t in self.N_tilde:
            for i in range(1, d + 1):
                p = Ip(i, t, delta)
                if p is not None:
                    ip_trees.append(touch(p))
        self.T_plus = tuple(sorted(self.T + tuple(ip_trees), key=key))
        self.T_cen = tuple(sorted([I(t) for t in self.N] + ip_trees, key=key))

        self._index()

    def _index(self) -> None:
        self._ids = {name: frozenset(t.uid for t in getattr(self, name))
                     for name in _SETS}

    def _in_Q(self, t: Tree) -> bool:
        kids = [k.child for k in t.children]
        if any(k.kind == GEN and k.label == "X" for k in kids):
            return False
        return sum(1 for k in kids if k is ONE) <= 1

    def order(self, t: Tree) -> Fraction:
        return order(t, self.delta)

    def member(self, setname: str, t: Tree) -> bool:
        return t.uid in self._ids[setname]

    def restrict(self, max_m_xi: int) -> "TreeUniverse":
        """Sub-universe with m_xi <= max_m_xi; closed under cuts and subtrees."""
        sub = TreeUniverse.__new__(TreeUniverse)
        sub.delta = self.delta
        sub.d = self.d
        for name in _SETS:
            setattr(sub, name, tuple(t for t in getattr(self, name)
                                     if t.m_xi <= max_m_xi))
        sub._index()
        return sub

    def to_json(self) -> dict:
        rows = []
        for t in self.T_plus:
            rows.append({
                "tree": tree_name(t),
                "order": str(self.order(t)),
                "m_xi": t.m_xi, "m_one": t.m_one, "m_x": t.m_x,
                "edges": t.edges,
                "sets": [name for name in _SETS if t.uid in self._ids[name]],
            })
        return {"delta": str(self.delta), "d": self.d, "trees": rows}


def _ordered_partitions(tup):
    """All ordered triples of count tuples summing to tup (odd leaf counts)."""
    a, b, c = tup
    out = []
    for a1 in range(a + 1):
        for b1 in range(b + 1):
            for c1 in range(c + 1):
                if (a1 + b1 + c1) % 2 == 0:
                    continue
                for a2 in range(a - a1 + 1):
                    for b2 in range(b - b1 + 1):
                        for c2 in range(c - c1 + 1):
                            if (a2 + b2 + c2) % 2 == 0:
                                continue
                            a3, b3, c3 = a - a1 - a2, b - b1 - b2, c - c1 - c2
                            if (a3 + b3 + c3) % 2 == 0 or a3 + b3 + c3 < 0:
                                continue
                            out.append(((a1, b1, c1), (a2, b2, c2), (a3, b3, c3)))
    return out


def enumerate_universe(delta: Fraction, d: int = 1,
                       cap: int = ENUMERATION_CAP) -> TreeUniverse:
    return TreeUniverse(delta, d, cap=cap)


def leq(a: Tree, b: Tree) -> bool:
    """Substitution order: b arises from a by replacing One leaves with trees
    and X_i leaves with trees other than One and X_j (j != i)."""
    if a.kind == PLANTED or b.kind == PLANTED:
        raise ValueError("leq compares unplanted trees")
    if a is ONE:
        return True
    if a.kind == GEN and a.label == "X":
        if b is ONE:
            return False
        if b.kind == GEN and b.label == "X":
            return b.index == a.index
        return b.kind != GEN or b.label == "Xi"
    if a is XI:
        return b is XI
    if b.kind != PROD:
        return False
    return all(leq(ka.child, kb.child) for ka, kb in zip(a.children, b.children))
