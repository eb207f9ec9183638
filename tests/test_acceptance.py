"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import phi4local as pl
from phi4local.coalgebra import Coalgebra, report_failures
from phi4local.coeffs import check_coherence, check_cube_identity, pick_gamma
from phi4local.field import DEFAULT_GRID, FINE_GRID, Mollifier, noise_field
from phi4local.lift import (
    CountertermMap, build_local_product, phi43_counterterms,
    random_counterterm_map, standard_families,
)
from phi4local.path import Path, order_scan, sample_nodes
from phi4local.equation import (
    BoundaryTrace, TreeExpansion, apriori_scan, cube_formula_check,
    modelled_norms, reconstruction_check, remainder_coeffs,
    renorm_constants,
)
from phi4local.symtree import XI, enumerate_universe, tree_name

DELTAS = [Fraction(2, 5), Fraction(3, 10), Fraction(9, 20), Fraction(26, 100)]


def _report(num, name, ok, detail=""):
    print("ACCEPTANCE %d %-28s %s %s" % (num, name, "PASS" if ok else "FAIL",
                                         detail))
    assert ok, "criterion %d (%s): %s" % (num, name, detail)


def test_criterion_1_exact_algebra():
    t0 = time.time()
    total_fail = 0
    rows = 0
    for delta in DELTAS:
        u = enumerate_universe(delta)
        cg = Coalgebra(u)
        reports = [cg.verify_coassoc(), cg.verify_explicit_formula(),
                   cg.verify_delta_ranges(), check_cube_identity(u),
                   check_coherence(u, cg)]
        rng = np.random.default_rng(17)
        for _ in range(5):
            rmap = random_counterterm_map(u, rng)
            reports.append(cg.verify_renorm_commute(rmap.as_uid_map()))
        for rep in reports:
            rows += len(rep)
            total_fail += len(report_failures(rep))
    elapsed = time.time() - t0
    _report(1, "exact-algebra", total_fail == 0 and elapsed < 60.0,
            "%d rows, %d mismatches, %.1fs" % (rows, total_fail, elapsed))


# -- criterion 2: independent enumeration oracle --------------------------------

def _oracle_sets(delta, d=1):
    """Brute-force generator: grow products of negative-order trees to a
    fixpoint, filtering by the order alone.  Independent representation."""
    def order(t):
        if t[0] == "Xi":
            return delta - 3
        if t[0] == "One":
            return Fraction(-2)
        if t[0] == "X":
            return Fraction(-1)
        return Fraction(6) + order(t[1]) + order(t[2]) + order(t[3])

    def name(t):
        if t[0] == "Xi":
            return "Xi"
        if t[0] == "One":
            return "One"
        if t[0] == "X":
            return "X%d" % t[1]
        return "[%s]" % " ".join("I(%s)" % name(k) for k in t[1:])

    pool = [("Xi",), ("One",)] + [("X", i) for i in range(1, d + 1)]
    kept = set(), set()
    kept_all = {}
    seen = set(pool)
    while True:
        neg = sorted((t for t in seen if order(t) < 0), key=lambda t: (order(t), name(t)))
        o = [order(t) for t in neg]
        new = []
        n = len(neg)
        for i1 in range(n):
            if o[i1] + 2 * o[0] > -6:
                break
            for i2 in range(n):
                if o[i1] + o[i2] + o[0] > -6:
                    break
                for i3 in range(n):
                    if o[i1] + o[i2] + o[i3] > -6:
                        break
                    t = ("P", neg[i1], neg[i2], neg[i3])
                    kept_all[t] = order(t)
                    if t not in seen and order(t) < 0:
                        new.append(t)
        if not new:
            break
        seen.update(new)
    W = {name(t) for t in seen if t[0] in ("Xi", "P") and order(t) < -2}
    N_ring = {name(t) for t, ot in kept_all.items() if -2 <= ot <= 0}
    W_ring = {name(t) for t, ot in kept_all.items() if ot < -2}
    return W, W_ring, N_ring


def test_criterion_2_oracle_equivalence():
    ok = True
    detail = []
    for delta in DELTAS:
        u = enumerate_universe(delta)
        W, W_ring, N_ring = _oracle_sets(delta)
        got_W = {tree_name(t) for t in u.W}
        got_Wr = {tree_name(t) for t in u.W_ring}
        got_Nr = {tree_name(t) for t in u.N_ring}
        same = (W == got_W and W_ring == got_Wr and N_ring == got_Nr)
        ok = ok and same
        detail.append("%s:%s(%d)" % (delta, "ok" if same else "MISMATCH",
                                     len(got_Nr)))
    _report(2, "enumeration-oracle", ok, " ".join(detail))


def test_criterion_3_chen(u920, default_path_trig, default_path_gauss):
    worst = 0.0
    for p in (default_path_trig, default_path_gauss):
        rng = np.random.default_rng(23)
        rows, cols = sample_nodes(p.grid, p.grid.probe_mask(), rng, 600)
        z, uu, x = [(rows[i::3], cols[i::3]) for i in range(3)]
        for s in u920.T:
            worst = max(worst, np.max(p.chen_residual(s, z, uu, x)))
    _report(3, "chen-relation", worst <= 1e-8,
            "max rel residual %.2e over %d trees x 200 triples x 2 fixtures"
            % (worst, len(u920.T)))


def test_criterion_4_cube_formula(u920, cg920, default_path_trig, smooth_v1):
    p = default_path_trig
    rel = cube_formula_check(p, TreeExpansion(p, smooth_v1))
    ok1 = rel <= 1e-10
    grid = DEFAULT_GRID
    rmap, est = phi43_counterterms(grid, u920, seeds=range(6), eps=1 / 8,
                                   amp=0.3)
    xi = noise_field(grid, "gauss", seed=31, eps=1 / 8, amp=0.3)
    lp = build_local_product(grid, u920, xi, rmap=rmap, coalg=cg920)
    # cube_formula_check compares on the probe region
    assert int(grid.probe_mask().sum()) >= 100
    p = Path(lp)
    assert p.lp.rmap is rmap
    rel2 = cube_formula_check(p, TreeExpansion(p, smooth_v1))
    ok2 = rel2 <= 1e-8
    c = renorm_constants(u920, rmap)
    ok3 = (c.r_phi == 3 * Fraction(est["c_wick"]) - 9 * Fraction(est["c_sunset"])
           and c.r1 == 0 and c.r_phi2 == 0 and all(x == 0 for x in c.r_dphi))
    _report(4, "renormalized-cube", ok1 and ok2 and ok3,
            "mult %.1e, counterterm %.1e, constants exact=%s"
            % (rel, rel2, ok3))


def test_criterion_5_utau_crosscheck(u920, default_path_gauss):
    p = default_path_gauss
    grid = p.grid
    v1 = (0.4 + 0.2 * np.sin(1.7 * grid.x_field) * np.cos(2.1 * grid.t_field)
          + 0.3 * p.lp.ell(XI))
    e = TreeExpansion(p, v1)
    gamma = pick_gamma(u920, Fraction(3, 2))
    mn = modelled_norms(p, e, gamma, n_pairs=100, seed=29)
    _report(5, "continuity-classification", mn.max_rel_mismatch <= 1e-8,
            "max rel mismatch %.2e over %d trees x 100 pairs"
            % (mn.max_rel_mismatch, len(mn.rows)))


def test_criterion_6_order_scan(u920):
    sub = u920.restrict(3)
    cg = Coalgebra(sub)
    grid = FINE_GRID
    xi = noise_field(grid, "gauss", seed=42, eps=1 / 32)
    lp = build_local_product(grid, sub, xi, coalg=cg)
    p = Path(lp)
    sigmas = list(dict.fromkeys(sub.T_cen + sub.T_r))
    scales = [1 / 16, 1 / 8, 1 / 4, 1 / 2]
    rows = order_scan(p, sigmas, scales, seed=7)
    bad = [(r.sigma, r.target, r.slope) for r in rows
           if r.slope < r.target - 0.25]
    _report(6, "order-bound-scan", not bad,
            "%d trees, worst margin %.2f" % (
                len(rows),
                min((r.slope - r.target for r in rows
                     if math.isfinite(r.slope)), default=float("nan"))))


def test_criterion_7_kernel_and_reconstruction(default_path_gauss):
    grid = DEFAULT_GRID
    mol = Mollifier(grid)
    f = noise_field(grid, "trig", seed=1)
    worst = 0.0
    gL, mL = mol.smooth(f, 0.5)
    for n in (1, 2, 3):
        inner, mi = mol.smooth(f, 0.5 / 2 ** n)
        comp, mc = mol.smooth(inner, 0.5, n=n)
        m = mL & mi & mc
        worst = max(worst, float(np.max(np.abs((gL - comp)[m]))))
    ok1 = worst <= 1e-3
    p = default_path_gauss
    v1 = (0.4 + 0.2 * np.sin(1.7 * grid.x_field) * np.cos(2.1 * grid.t_field)
          + 0.3 * p.lp.ell(XI))
    e = TreeExpansion(p, v1)
    rep = reconstruction_check(p, e, [1 / 8, 1 / 4, 1 / 2])
    gap = abs(rep["measured_exponent"] - rep["predicted_exponent"])
    ok2 = gap <= 0.3
    _report(7, "kernel-and-reconstruction", ok1 and ok2,
            "semigroup %.1e, decay measured %.2f vs predicted %.2f"
            % (worst, rep["measured_exponent"], rep["predicted_exponent"]))


def test_criterion_8_apriori(default_path_trig):
    t0 = time.time()
    p = default_path_trig
    co = remainder_coeffs(p)
    traces = [BoundaryTrace("zero", 0.0)]
    for mag in (1.0, 10.0, 100.0):
        traces.append(BoundaryTrace("const", mag))
        traces.append(BoundaryTrace("const", -mag, seed=1))
    traces += [BoundaryTrace("smooth", 1.0, seed=1),
               BoundaryTrace("smooth", 10.0, seed=2),
               BoundaryTrace("smooth", 100.0, seed=3)]
    assert len(traces) == 10
    rep = apriori_scan(p, co, traces, (0.1, 0.2, 0.25, 0.4, 0.5))
    elapsed = time.time() - t0
    ok = (math.isfinite(rep["c_hat"]) and rep["c_hat"] < 100.0
          and rep["half_cylinder_variation"] < 0.10 and elapsed <= 600.0)
    _report(8, "apriori-scan", ok,
            "c_hat %.2f, half-cylinder variation %.1f%%, %.0fs"
            % (rep["c_hat"], 100 * rep["half_cylinder_variation"], elapsed))
