"""Renormalized products, the remainder equation and its diagnostics.

Everything here consumes a Path (centered tables over a local product) and
the coefficient map of the coeffs module; coefficient maps enter only through
that map, evaluated at the pointwise values of the base function and its
generalized derivative.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coeffs import classify_utau, is_resonant, monomial_product, upsilon_monomial
from .field import grad_x
from .lift import CountertermMap
from .path import Path, fit_slope, order_scan, residual, sample_nodes, sup_on
from .symtree import ONE, PROD, I, Ip, Tree, X, prod3, sign_of, tree_name


class NumericalAbort(RuntimeError):
    def __init__(self, msg, diagnostics=None):
        super().__init__(msg)
        self.diagnostics = diagnostics or {}


class ResonantLevel(ValueError):
    pass


# -- tree expansions -----------------------------------------------------------

class TreeExpansion:
    """Coefficient table z -> theta_z over N (constants over W), produced
    through the closed-form coefficient map from v1 and its generalized
    derivative vX = dx_map(path, v1)."""

    def __init__(self, path: Path, v1: np.ndarray):
        self.path = path
        self.u = path.u
        self.v1 = v1
        self.vX = dx_map(path, v1)
        self._cache: dict = {}

    def theta(self, t: Tree) -> np.ndarray:
        arr = self._cache.get(t.uid)
        if arr is None:
            c, p, mxb = upsilon_monomial(t)
            arr = float(c) * np.ones_like(self.v1)
            if p:
                arr = arr * self.v1 ** p
            for _i, e in mxb:
                arr = arr * self.vX ** e
            self._cache[t.uid] = arr
        return arr

    def theta_at(self, t: Tree, node) -> float:
        return float(self.theta(t)[node])

    def pointwise(self) -> np.ndarray:
        """X_{z,z} applied to the expansion: v1 plus the rough-tree solves."""
        out = self.v1.copy()
        for w in self.u.W:
            out += sign_of(w) * self.path.lp.ell(w)
        return out


def dx_map(path: Path, v1: np.ndarray) -> np.ndarray:
    """Generalized derivative map, as printed in the defining formula:
    the counterterm-corrected diagonal gradients minus the plain gradient.
    One field, the single component of vX at d = 1."""
    u = path.u
    acc = -grad_x(path.grid, v1)
    for t in u.N_ring:
        if u.order(t) < -1:
            c, p, _mx = upsilon_monomial(t)
            if p not in (0, 1):
                raise AssertionError("unexpected coefficient power")
            term = float(c) * path.diag_im[t.uid]
            acc = acc + (term * v1 ** p if p else term)
    return acc


# -- renormalized products -------------------------------------------------------

def renorm_product(path: Path, e1, e2, e3) -> np.ndarray:
    """Pointwise product of three tree expansions defined through the diagonal
    path values."""
    u = path.u
    out = path.grid.zeros()
    for t in u.T_r:
        if t.kind != PROD:
            continue
        k1, k2, k3 = (k.child for k in t.children)
        out += e1.theta(k1) * e2.theta(k2) * e3.theta(k3) * path.diag[t.uid]
    return out


@dataclass(frozen=True)
class RenormConstants:
    r1: Fraction
    r_phi: Fraction
    r_phi2: Fraction
    r_dphi: tuple


def renorm_constants(universe, rmap: CountertermMap | None) -> RenormConstants:
    """The four signed counterterm sums, exact over the map's values."""
    r1 = rphi = rphi2 = Fraction(0)
    rdphi = [Fraction(0)] * universe.d
    if rmap is not None:
        for t in universe.Q:
            v = rmap.value(t)
            if not v:
                continue
            v = v if isinstance(v, Fraction) else Fraction(v)
            s = sign_of(t)
            if t.m_one == 0 and t.m_x == 0:
                r1 += s * v
            elif t.m_one == 1 and t.m_x == 0:
                rphi += s * v
            elif t.m_one == 2 and t.m_x == 0:
                rphi2 += s * v
            elif t.m_x == 1:
                (i, _e), = t.mx_by
                rdphi[i - 1] += s * v
            else:
                raise AssertionError("unexpected counterterm support %s"
                                     % tree_name(t))
    return RenormConstants(r1, rphi, rphi2, tuple(rdphi))


def cube_formula_check(path: Path, rmap: CountertermMap | None,
                       v1: np.ndarray) -> float:
    """Relative residual of the renormalized cube against the polynomial
    formula in the function and its derivatives, on the probe region; exact
    over stored tables for counterterm-built lifts."""
    grid = path.grid
    probe = grid.probe_mask()
    e = TreeExpansion(path, v1)
    lhs = renorm_product(path, e, e, e)
    phi = e.pointwise()
    c = renorm_constants(path.u, rmap)
    rhs = phi ** 3 - float(c.r1) - float(c.r_phi) * phi - float(c.r_phi2) * phi ** 2
    coef = float(c.r_dphi[0])     # a Path has d = 1
    if coef:
        rhs = rhs - coef * grad_x(grid, phi)
    scale = max(1.0, float(np.max(np.abs(rhs[probe]))))
    return float(np.max(np.abs((lhs - rhs)[probe]))) / scale


# -- remainder equation ----------------------------------------------------------

@dataclass
class RemainderCoeffs:
    """Coefficient fields of the remainder right-hand side
    -v^3 + K0 + sum_p K[p] * v^p, a local polynomial in the unknown alone.

    A coefficient carrying the generalized derivative comes only with a
    planted polynomial factor, and the diagonal field X_{z,z} of such a
    product vanishes identically (I(X) reads x - x = 0 at its base point), so
    no term reads vX."""
    K0: np.ndarray
    K: dict                     # p -> field, multiplying v^p


def remainder_coeffs(path: Path) -> RemainderCoeffs:
    u = path.u
    grid = path.grid
    delta = u.delta
    K0 = grid.zeros()
    for t in u.dW:
        K0 += sign_of(t) * path.lp.value(t)
    K: dict = {}

    def add(mono, pref, t):
        c, p, mxb = mono
        arr = path.diag[t.uid]
        if mxb:
            if np.any(arr):
                raise AssertionError("vX term on non-zero %s" % tree_name(t))
            return
        if p not in K:
            K[p] = grid.zeros()
        K[p] += pref * float(c) * arr

    for w in u.W:
        pref = -3.0 * sign_of(w)
        for t1 in u.N:
            for t2 in u.N:
                t = prod3(I(t1), I(t2), I(w), delta)
                if t is None:
                    continue
                add(monomial_product([upsilon_monomial(t1), upsilon_monomial(t2)]),
                    pref, t)
    for w1 in u.W:
        for w2 in u.W:
            pref = -3.0 * sign_of(w1) * sign_of(w2)
            for t1 in u.N:
                t = prod3(I(t1), I(w1), I(w2), delta)
                if t is None:
                    continue
                add(upsilon_monomial(t1), pref, t)
    return RemainderCoeffs(K0, {p: arr for p, arr in K.items() if np.any(arr)})


def _lower_order(K0, K: dict, v):
    """K0 + sum of K[p] * v^p: the remainder right-hand side without its
    cubic damping, on whole fields or on a stack of time rows."""
    out = np.empty(v.shape)
    out[...] = K0
    for p, arr in K.items():
        out += arr * v ** p if p else arr
    return out


@dataclass
class BoundaryTrace:
    """Dirichlet data on the parabolic boundary of the unit cylinder.

    The magnitude scales the initial slice; lateral data is scaled separately
    (a wall held at a large constant value keeps an order-one boundary layer
    whose depth-1/2 value retains a genuine magnitude dependence, so the
    magnitude families used for boundary-independence scans keep it small).
    """
    kind: str
    magnitude: float
    seed: int = 0
    side_scale: float = 0.0

    def initial(self, xs: np.ndarray) -> np.ndarray:
        if self.kind == "zero":
            return np.zeros_like(xs)
        if self.kind == "const":
            return np.full_like(xs, self.magnitude)
        rng = np.random.default_rng(self.seed)
        coef = rng.normal(size=4)
        out = np.zeros_like(xs)
        for n, cn in enumerate(coef):
            out += cn * np.cos((n + 1) * math.pi * xs / 2 + 0.3 * n)
        out *= self.magnitude / max(1e-9, float(np.max(np.abs(out))))
        return out

    def side(self, t: float, which: int) -> float:
        if self.kind == "zero" or not self.side_scale:
            return 0.0
        return (self.side_scale * self.magnitude
                * math.cos(2.0 * t + 1.1 * which + 0.7 * self.seed))


@dataclass
class SolveConfig:
    radii: tuple = (0.1, 0.2, 0.25, 0.4, 0.5)
    cap: float = 1e6


def solve_remainder(path: Path, coeffs: RemainderCoeffs, traces,
                    config: SolveConfig | None = None) -> dict:
    """Explicit march of the remainder equation on the unit cylinder, for a
    sequence of boundary traces at once.

    Diffusion and the coefficient fields are stepped explicitly; the cubic
    damping is integrated exactly each step, so large boundary data stays
    stable.  The right-hand side is the polynomial of RemainderCoeffs.  Its
    coefficient rows are interpolated linearly in time for a block of steps
    at once (the steps of one stored level), at the times of the march's
    t += k sequence, and shared by all traces.  Every step acts on each
    trace's row alone, so a trace's record does not depend on the rest of
    the batch.

    Each step reduces |v| once for the cap check, and raises a running
    maximum of |v| for the time segment between two sorted R^2 thresholds
    that it falls in; the norm of each radius is read off those maxima after
    the march.  A maximum is exact in any order, so the norms equal those of
    a per-step, per-radius sup.

    A trace whose row exceeds the cap or stops being finite leaves the batch,
    and so does every later trace.  The abort raised is that of the first
    such trace in trace order, at its own first bad step: the abort a march
    of one trace after another would raise.
    """
    config = config or SolveConfig()
    traces = list(traces)
    grid = path.grid
    h = grid.h
    k = h * h / 4
    mL = int(round((-1.0 + grid.S) / h))
    mR = int(round((1.0 + grid.S) / h))
    cols = slice(mL, mR + 1)
    xs = grid.xs[cols]

    K0row = coeffs.K0[:, cols]
    Krows = {p: arr[:, cols] for p, arr in coeffs.K.items()}

    def at_times(arr2, ts):
        j = (ts - grid.t0) / grid.k_store
        j0 = np.minimum(j.astype(int), grid.nt - 2)
        frac = (j - j0)[:, None]
        return (1 - frac) * arr2[j0] + frac * arr2[j0 + 1]

    nsteps = int(round(1.0 / k))
    times = list(itertools.accumulate(itertools.repeat(k, nsteps), initial=0.0))
    block = max(1, int(round(grid.k_store / k)))
    live = traces                   # the traces of v's rows, in trace order
    v = np.array([tr.initial(xs) for tr in traces])
    # seg[i] is the running maximum of |v| over the steps that end after
    # thresholds[i] and not after the next threshold
    thresholds = sorted({R * R for R in config.radii})
    seg = np.zeros((len(thresholds), len(traces), xs.size))
    passed = 0                      # thresholds the march has passed
    abort = None
    for b0 in range(0, nsteps, block):
        starts = np.array(times[b0: b0 + block])
        K0b = at_times(K0row, starts)
        Kb = {p: at_times(arr, starts) for p, arr in Krows.items()}
        for i, t in enumerate(times[b0 + 1: b0 + block + 1]):
            rhs = _lower_order(K0b[i], {p: rows[i] for p, rows in Kb.items()}, v)
            lap = np.zeros_like(v)
            lap[:, 1:-1] = (v[:, 2:] - 2 * v[:, 1:-1] + v[:, :-2]) / (h * h)
            vh = v + k * (lap + rhs)
            v = vh / np.sqrt(1.0 + 2.0 * k * vh ** 2)
            v[:, 0] = [tr.side(t, -1) for tr in live]
            v[:, -1] = [tr.side(t, +1) for tr in live]
            av = np.abs(v)
            top = av.max()
            if top > config.cap or not math.isfinite(top):
                amax = np.max(av, axis=1)
                bad = ~np.isfinite(amax) | (amax > config.cap)
                n = int(np.argmax(bad))
                abort = NumericalAbort(
                    "remainder solve exceeded cap %g at t=%.4f" % (config.cap, t),
                    {"t": t, "max": float(amax[n]), "trace": live[n].__dict__})
                if n == 0:
                    raise abort
                live, v, av, seg = live[:n], v[:n], av[:n], seg[:, :n]
            while passed < len(thresholds) and t > thresholds[passed]:
                passed += 1
            if passed:
                np.maximum(seg[passed - 1], av, out=seg[passed - 1])
    if abort is not None:
        raise abort
    sup = np.zeros((len(config.radii), len(traces)))
    for j, R in enumerate(config.radii):
        msk = np.abs(xs) < 1.0 - R
        if msk.any():
            for r2, m in zip(thresholds, seg):
                if r2 >= R * R:
                    sup[j] = np.maximum(sup[j], np.max(m[:, msk], axis=1))
    return {
        "k": k, "h": h, "steps": nsteps,
        "runs": [{"trace": {"kind": tr.kind, "magnitude": tr.magnitude,
                            "seed": tr.seed},
                  "norms": {("%g" % R): float(sup[j, i])
                            for j, R in enumerate(config.radii)}}
                 for i, tr in enumerate(traces)],
    }


# -- modelled-distribution norms ---------------------------------------------------

def _support(path: Path, build, *key) -> tuple:
    """build(path, *key), computed once per path.

    The truncated sums below run over a fixed tuple of trees for each level,
    so their exact order comparisons and cut lookups are made once, not at
    every point evaluation.  Each tuple keeps the order of the loop over N it
    replaces, so the float sums over it are unchanged.
    """
    sup = path.supports.get((build, *key))
    if sup is None:
        sup = path.supports[(build, *key)] = build(path, *key)
    return sup


def _cut_terms(path: Path, t: Tree, cutoff: Fraction) -> tuple:
    """(tb, C+(t, tb)) for tb in N below the cutoff with a non-empty cut."""
    u, cg = path.u, path.cg
    cuts = ((tb, cg.cplus(t, tb)) for tb in u.N if u.order(tb) < cutoff)
    return tuple((tb, f) for tb, f in cuts if f is not None)


def u_tau_at(path: Path, e, t: Tree, cutoff: Fraction, y, x) -> float:
    """Continuity error of the coefficient of t between base points y and x,
    truncated to trees of order below the cutoff."""
    acc = e.theta_at(t, y)
    for tb, f in _support(path, _cut_terms, t, cutoff):
        acc -= e.theta_at(tb, x) * path.forest_at(f, y, x)
    return acc


# Supports of the truncated sums: each term a tuple of (t, planted) factors,
# read by _level_sum as theta_x(t) times X_{y,x}(planted) over its factors.

def _v_terms(path: Path, level: Fraction) -> tuple:
    u = path.u
    return tuple(((t, I(t)),) for t in u.N if u.order(t) < level - 2)


def _v2_terms(path: Path, level: Fraction) -> tuple:
    u = path.u
    return tuple(((t1, I(t1)), (t2, I(t2))) for t1 in u.N for t2 in u.N
                 if u.order(t1) + u.order(t2) < level - 4)


def _vi_terms(path: Path, level: Fraction) -> tuple:
    u = path.u
    terms = ((t, Ip(1, t, u.delta)) for t in u.N_tilde + (X(1),)
             if u.order(t) < level - 1)
    return tuple(((t, p),) for t, p in terms if p is not None)


def _level_sum(path: Path, e, terms, level: Fraction, y, x) -> float:
    """The truncated sum over the support terms(path, level).  A term is
    the product of its thetas first, then of its path values, left to right
    (so a two-factor term reads ((theta1 theta2) v1) v2)."""
    acc = 0.0
    for term in _support(path, terms, level):
        acc += math.prod([*(e.theta_at(t, x) for t, _p in term),
                          *(path.value_at(p, y, x) for _t, p in term)])
    return acc


def classified_u_tau_at(path: Path, e, t: Tree, cutoff: Fraction, y, x) -> float:
    """The continuity error through its classified form (an exact rewriting
    at the levels gamma < 2 that modelled_norms admits)."""
    u = path.u
    c = classify_utau(t, u)
    level = cutoff - u.order(t)
    if c.kind == "V":
        return c.sign * (float(e.v1[y]) - _level_sum(path, e, _v_terms, level, y, x))
    if c.kind == "V2":
        return c.sign * (float(e.v1[y]) ** 2
                         - _level_sum(path, e, _v2_terms, level, y, x))
    if c.kind == "V3":
        # The V3 tree [I(One) I(One) I(One)] has order 0, so its level is
        # gamma - 2 < 0, and its sum would run over triples with an order sum
        # below level - 6 < -6.  Every order in N is at least -2, so the sum
        # is empty below gamma = 2, the only levels admitted here.
        return c.sign * float(e.v1[y]) ** 3
    if c.kind == "Vi":
        return c.sign * (float(e.vX[y]) - _level_sum(path, e, _vi_terms, level, y, x))
    # pure-noise trees: zero once the tree itself clears the cutoff
    return 0.0 if u.order(t) < cutoff else float(c.sign)


@dataclass
class ModelledNorms:
    gamma: Fraction
    rows: list
    max_rel_mismatch: float


def modelled_norms(path: Path, e, gamma: Fraction, n_pairs: int = 100,
                   seed: int = 11) -> ModelledNorms:
    """Sampled continuity errors per tree, their classified forms and the
    seminorm estimates.

    Rejects levels that hit a tree order and levels gamma >= 2, where the
    classified form stops being exact (on the coarse trig path at delta 9/20
    and 2/5 it agrees to ~1e-15 below 2 and is off by 0.4-0.7 above)."""
    u = path.u
    gamma = Fraction(gamma)
    if is_resonant(u, gamma):
        raise ResonantLevel("level %s hits a tree-order cut" % gamma)
    if gamma >= 2:
        raise ValueError("level %s is not below 2, where the classified "
                         "continuity errors stop being exact" % gamma)
    cutoff = gamma - 2
    grid = path.grid
    probe = grid.probe_mask()
    rng = np.random.default_rng(seed)
    xs_nodes = sample_nodes(grid, probe, rng, n_pairs)
    ys_nodes = sample_nodes(grid, probe, rng, n_pairs)
    rows = []
    for t in u.N:
        vals, cls_vals, dists = [], [], []
        for y, x in zip(ys_nodes, xs_nodes):
            uv = u_tau_at(path, e, t, cutoff, y, x)
            cv = classified_u_tau_at(path, e, t, cutoff, y, x)
            vals.append(uv)
            cls_vals.append(cv)
            dists.append(grid.pdist(grid.node(*y), grid.node(*x)))
        rel = float(np.max([residual(a, b)[1] for a, b in zip(vals, cls_vals)]))
        expo = float(cutoff - u.order(t))
        semi = max((abs(v) / d ** expo) for v, d in zip(vals, dists) if d > 0)
        rows.append({"tree": tree_name(t), "mismatch": rel,
                     "seminorm": semi, "exponent": expo})
    # np.max, unlike max, keeps a NaN mismatch
    worst = float(np.max([0.0] + [r["mismatch"] for r in rows]))
    return ModelledNorms(gamma, rows, worst)


def _three_point_terms(path: Path, cutoff: Fraction) -> tuple:
    """The trees of N other than One below the cutoff."""
    u = path.u
    return tuple(t for t in u.N if t is not ONE and u.order(t) < cutoff)


def three_point_residual(path: Path, e, gamma: Fraction, n_triples: int = 50,
                         seed: int = 12) -> dict:
    """The change-of-base-point identity for the truncated expansion."""
    u = path.u
    gamma = Fraction(gamma)
    if is_resonant(u, gamma):
        raise ResonantLevel("level %s hits a tree-order cut" % gamma)
    cutoff = gamma - 2
    grid = path.grid
    probe = grid.probe_mask()
    rng = np.random.default_rng(seed)
    zs = sample_nodes(grid, probe, rng, n_triples)
    ys = sample_nodes(grid, probe, rng, n_triples)
    xs = sample_nodes(grid, probe, rng, n_triples)
    residuals = [0.0]
    for z, y, x in zip(zs, ys, xs):
        lhs = (_level_sum(path, e, _v_terms, gamma, z, x)
               - _level_sum(path, e, _v_terms, gamma, z, y)
               + _level_sum(path, e, _v_terms, gamma, y, y)
               - _level_sum(path, e, _v_terms, gamma, y, x))
        rhs = 0.0
        for t in _support(path, _three_point_terms, cutoff):
            rhs -= u_tau_at(path, e, t, cutoff, y, x) * path.value_at(I(t), z, y)
        residuals.append(residual(lhs, rhs)[1])
    return {"max_rel_residual": float(np.max(residuals)), "gamma": str(gamma)}


# -- reconstruction ---------------------------------------------------------------

def _channel_pairs(path: Path, e, t: Tree, composite: Tree, cutoff: Fraction):
    """Factorize y -> diag(y) * U^t(y, x) into (running field, base field)
    pairs so its smoothing against the scaled kernel becomes a finite sum of
    smoothed global fields times base-point coefficients.

    Returns (fields, pairs): the distinct running fields, one per left
    forest, and the pairs (n, base field) of the sum in its order, each
    reading fields[n].  A channel whose composite diagonal is identically
    zero has no pairs, since each of its terms is exactly +-0; its running
    forests may hold trees with no field value.
    """
    cg, lp = path.cg, path.lp
    dg = path.diag[composite.uid]
    if not dg.any():
        return [], []
    fields = [dg * e.theta(t)]
    pairs = [(0, np.ones_like(dg))]
    index: dict = {}
    for tb, f in _support(path, _cut_terms, t, cutoff):
        for (lf, gf), c in cg.delta_forest(f).items():
            key = tuple(p.uid for p in lf)
            if key not in index:
                index[key] = len(fields)
                fields.append(dg * lp.forest_value(lf))
            xf = -float(c) * e.theta(tb) * path.cen_forest_field(gf)
            pairs.append((index[key], xf))
    return fields, pairs


def reconstruction_check(path: Path, e, w1: Tree, w2: Tree, scales) -> dict:
    """Decay of the reconstruction integral for the two-argument family built
    on a pair of rough factors.

    The integrand splits exactly, tree by tree, into the diagonal field of a
    composite tree times a continuity error; the total decay exponent is
    compared against the smallest fitted per-channel exponent.
    """
    u = path.u
    grid = path.grid
    probe = grid.probe_mask()
    kept = []
    for t in u.N:
        tt = prod3(I(t), I(w1), I(w2), u.delta)
        if tt is not None:
            kept.append((t, tt))
    if not kept:
        raise ValueError("family is empty for the given rough factors")
    if len(scales) < 3:
        raise ValueError("need at least 3 scales")
    cutoff = Fraction(-6) - u.order(w1) - u.order(w2)
    while any(u.order(t) == cutoff for t in u.N):
        cutoff += Fraction(1, 997)

    f_diag = grid.zeros()
    for t, tt in kept:
        f_diag += e.theta(t) * path.diag[tt.uid]
    channels = {tree_name(tt): _channel_pairs(path, e, t, tt, cutoff)
                for t, tt in kept}
    values = []
    channel_values = {name: [] for name in channels}
    for L in scales:
        acc = grid.zeros()
        mask = None
        for t, tt in kept:
            g, msk = path.smoothed_centered_at_base(tt, L)
            acc = acc + e.theta(t) * g
            mask = msk if mask is None else (mask & msk)
        g0, msk0 = path.mol.smooth(f_diag, L)
        acc = acc - g0
        mask = mask & msk0 & probe
        values.append(sup_on(acc, mask))
        for name, (fields, pairs) in channels.items():
            smoothed = []
            for yf in fields:
                g, msk = path.mol.smooth(yf, L)
                smoothed.append(g)
                mask = mask & msk
            ch = grid.zeros()
            for n, xf in pairs:
                ch = ch + smoothed[n] * xf
            channel_values[name].append(sup_on(ch, mask))
    measured = fit_slope(scales, values)
    terms = []
    for name, vals in channel_values.items():
        terms.append({"tree": name, "values": vals,
                      "gamma": fit_slope(scales, vals)})
    prediction = min(p["gamma"] for p in terms)
    return {"scales": list(scales), "values": values,
            "measured_exponent": measured, "predicted_exponent": prediction,
            "terms": terms}


# -- a priori scan -----------------------------------------------------------------

def seminorm_scale(path: Path, scales) -> dict:
    """max over noise-carrying trees of the measured order seminorm raised to
    1/(delta * m_xi)."""
    u = path.u
    trees = [t for t in u.T_r if t.m_xi >= 1 and u.order(t) < 0]
    rows = order_scan(path, trees, scales)
    delta = float(u.delta)
    powers = {}
    for t, row in zip(trees, rows):
        semi = max(v * L ** (-row.target) for v, L in zip(row.values, row.scales))
        powers[tree_name(t)] = semi ** (1.0 / (delta * t.m_xi))
    return {"powers": powers, "scale": max(powers.values())}


def apriori_scan(path: Path, coeffs: RemainderCoeffs, traces, radii,
                 scales=(1 / 16, 1 / 8, 1 / 4, 1 / 2)) -> dict:
    """Solve across boundary traces and fit the single constant dominating
    the measured norm curves by max(1/R, seminorm powers)."""
    sem = seminorm_scale(path, scales)
    S = sem["scale"]
    runs = solve_remainder(path, coeffs, traces,
                           SolveConfig(radii=tuple(radii)))["runs"]
    c_hat = 0.0
    for rec in runs:
        for R in radii:
            bound = max(1.0 / R, S)
            c_hat = max(c_hat, rec["norms"]["%g" % R] / bound)
    by_mag = {}
    for rec in runs:
        key = (rec["trace"]["kind"], rec["trace"]["seed"],
               rec["trace"]["magnitude"] >= 0)
        by_mag.setdefault(key, {})[rec["trace"]["magnitude"]] = rec
    half_variation = 0.0
    for key, group in by_mag.items():
        mags = sorted(group, key=abs)
        if len(mags) >= 2 and "0.5" in group[mags[-1]]["norms"]:
            hi = group[mags[-1]]["norms"]["0.5"]
            lo = group[mags[-2]]["norms"]["0.5"]
            if hi > 0:
                half_variation = max(half_variation, abs(hi - lo) / hi)
    return {"seminorm_scale": S, "powers": sem["powers"], "c_hat": c_hat,
            "half_cylinder_variation": half_variation, "runs": runs}
