import math

import numpy as np
import pytest

from phi4local.field import (
    COARSE_GRID, DEFAULT_GRID, Grid, Mollifier, ResolutionError,
    StabilityError, grad_x, heat_solve, load_field, noise_field, save_field,
)

G = DEFAULT_GRID


def index_of(grid, t, x):
    j = int(round((t - grid.t0) / grid.k_store))
    m = int(round((x + grid.S) / grid.h))
    if not (0 <= j < grid.nt and 0 <= m < grid.nx):
        raise IndexError("point (%g, %g) off grid" % (t, x))
    return j, m


def heat_residual(grid: Grid, u: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Discrete residual (d_t - Lap) u - cutoff*f on interior stored nodes."""
    rf = grid.cutoff * f
    dt = (u[1:] - u[:-1]) / grid.k_store
    lap = np.zeros_like(u)
    lap[:, 1:-1] = (u[:, 2:] - 2 * u[:, 1:-1] + u[:, :-2]) / grid.h ** 2
    mid = 0.5 * (lap[1:] + lap[:-1])
    rfm = 0.5 * (rf[1:] + rf[:-1])
    return dt - mid - rfm


def neg_holder_seminorm(grid: Grid, f: np.ndarray, alpha: float,
                        scales, probe: np.ndarray | None = None) -> float:
    """sup over the given scales of ||(f)_L|| * L^(-alpha), alpha < 0."""
    if alpha >= 0:
        raise ValueError("alpha must be negative")
    mol = Mollifier(grid)
    best = 0.0
    seen = False
    for L in scales:
        g, mask = mol.smooth(f, L)
        if probe is not None:
            mask = mask & probe
        if not mask.any():
            continue
        seen = True
        best = max(best, float(np.abs(g[mask]).max()) * L ** (-alpha))
    if not seen:
        raise ValueError("no admissible nodes at any requested scale")
    return best


def _pair_offsets(grid: Grid, sep: float):
    """Node offsets realizing parabolic separations close to `sep`."""
    out = []
    mj = int(round(sep ** 2 / grid.k_store))
    mm = int(round(sep / grid.h))
    if mm >= 1:
        out.append((0, mm))
        out.append((0, -mm))
    if mj >= 1:
        out.append((mj, 0))
        out.append((-mj, 0))
    if mm >= 1 and mj >= 1:
        out.append((mj, mm))
        out.append((-mj, -mm))
    return out


def holder_seminorm(grid: Grid, f: np.ndarray, alpha: float,
                    seps=None, probe: np.ndarray | None = None) -> float:
    """Sampled Hoelder seminorm at dyadic separations; for alpha in (1,2) the
    first-order spatial term at the base node is subtracted."""
    if not (0 < alpha < 2) or alpha == 1:
        raise ValueError("alpha must lie in (0,1) or (1,2)")
    if seps is None:
        seps = [2 ** -j for j in range(0, 6)]
    probe = grid.domain_mask(0.05) if probe is None else probe
    g = grad_x(grid, f) if alpha > 1 else None
    best = 0.0
    jj, mm = np.where(probe)
    for sep in seps:
        for (oj, om) in _pair_offsets(grid, sep):
            j2 = jj + oj
            m2 = mm + om
            ok = (j2 >= 0) & (j2 < grid.nt) & (m2 >= 0) & (m2 < grid.nx)
            if not ok.any():
                continue
            a = f[jj[ok], mm[ok]]
            b = f[j2[ok], m2[ok]]
            dist = max(math.sqrt(abs(oj * grid.k_store)), abs(om * grid.h))
            if dist == 0:
                continue
            inc = b - a
            if alpha > 1:
                inc = inc - g[jj[ok], mm[ok]] * (om * grid.h)
            best = max(best, float(np.abs(inc).max()) / dist ** alpha)
    return best


def test_stability_guard():
    with pytest.raises(StabilityError):
        Grid(h=1 / 32, k_store=1 / 4, substeps=1)


def test_grid_geometry():
    assert G.xs[0] == -G.S and G.xs[-1] == G.S
    assert abs(G.ts[0] - G.t0) < 1e-12
    j, m = index_of(G, 0.0, 1.0)
    assert abs(G.ts[j]) < 1e-9 and abs(G.xs[m] - 1.0) < 1e-9
    assert G.pdist((0.0, 0.0), (0.25, 0.1)) == 0.5


def test_cutoff_profile():
    rho = G.cutoff
    j, m = index_of(G, 0.5, 0.0)
    assert rho[j, m] == 1.0
    j, m = index_of(G, 0.5, 2.96875)
    assert rho[j, m] == 0.0


def test_heat_zero_and_linearity():
    z = heat_solve(G, G.zeros())
    assert np.all(z == 0)
    f = noise_field(G, "trig", seed=1)
    g = noise_field(G, "bump")
    lhs = heat_solve(G, 2.0 * f - 0.5 * g)
    rhs = 2.0 * heat_solve(G, f) - 0.5 * heat_solve(G, g)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_heat_constant_forcing_reference():
    u = heat_solve(G, G.ones())
    j, m = index_of(G, -0.3, 0.0)
    # du/dt = 1 at the center before boundary effects arrive
    assert abs(u[j, m] - 0.2) < 2e-3


def test_heat_residual_scheme_order():
    f = noise_field(G, "trig", seed=1)
    u = heat_solve(G, f)
    r = heat_residual(G, u, f)
    probe = G.probe_mask()[:-1, :]
    assert np.max(np.abs(r[probe])) < 1e-3


def test_mollify_constant_and_mass():
    mol = Mollifier(G)
    out, mask = mol.smooth(5.0 * G.ones(), 0.25)
    assert mask.any()
    assert np.max(np.abs(out[mask] - 5.0)) < 1e-12
    k = mol.kernel(0.25, 2)
    assert abs(k.sum() - 1.0) < 1e-12
    assert np.all(k >= 0)


def test_kernel_support_radius():
    mol = Mollifier(G)
    L = 0.5
    k = mol.kernel(L, 3)
    # parabolic support within the scale: time rows below L^2, columns below L
    assert (k.shape[0] - 1) * G.k_store <= L * L + G.k_store
    assert ((k.shape[1] - 1) // 2) * G.h <= L + G.h


def test_mollify_spatial_symmetry():
    out, mask = Mollifier(G).smooth(G.x_field.copy(), 0.25)
    assert np.max(np.abs((out - G.x_field)[mask])) < 1e-12


def test_mollify_below_resolution():
    with pytest.raises(ResolutionError):
        Mollifier(G).smooth(G.ones(), G.h)


def test_semigroup_residuals():
    mol = Mollifier(G)
    f = noise_field(G, "trig", seed=1)
    gL, mL = mol.smooth(f, 0.5)
    for n in (1, 2, 3):
        inner, mi = mol.smooth(f, 0.5 / 2 ** n)
        comp, mc = mol.smooth(inner, 0.5, n=n)
        m = mL & mi & mc
        assert np.max(np.abs((gL - comp)[m])) <= 1e-3


def test_neg_holder_seminorm():
    assert neg_holder_seminorm(G, G.zeros(), -1.0, [0.25, 0.5]) == 0.0
    val = neg_holder_seminorm(G, 2.0 * G.ones(), -1.0, [0.25, 0.5])
    assert abs(val - 2.0 * 0.5) < 1e-12   # largest scale wins for constants


def test_holder_seminorm_linear():
    f = G.x_field.copy()
    v = holder_seminorm(G, f, 0.5)
    # realized at the largest sampled separation
    assert v == pytest.approx(1.0, rel=0.2)
    assert holder_seminorm(G, f, 1.5) < 1e-10


def test_neg_holder_stabilizes_above_cutoff():
    # for ruffled noise mollified at eps the estimator at scales well above
    # eps moves slowly with the scale pair chosen
    f = noise_field(G, "gauss", seed=3, eps=1 / 16, amp=1.0)
    a = neg_holder_seminorm(G, f, -1.0, [0.25])
    b = neg_holder_seminorm(G, f, -1.0, [0.5])
    assert 0.2 < a / b < 5.0


def test_holder_grows_as_mollification_shrinks():
    base = noise_field(G, "gauss", seed=5, eps=0.5, amp=1.0)
    fine = noise_field(G, "gauss", seed=5, eps=0.125, amp=1.0)
    a = holder_seminorm(G, base, 0.5)
    b = holder_seminorm(G, fine, 0.5)
    assert b > a


def test_smooth_multiplier_property():
    # seminorm of a smooth multiple stays within a fixed margin of the
    # seminorm itself, across mollification scales of the rough factor
    g = 1.0 + 0.5 * np.sin(1.3 * G.x_field)
    bound = 1.0 + float(np.max(np.abs(grad_x(G, grad_x(G, g)))))
    for eps in (0.5, 0.25, 0.125):
        h = noise_field(G, "gauss", seed=9, eps=eps, amp=1.0)
        ratio = holder_seminorm(G, g * h, 0.5) / max(1e-12, holder_seminorm(G, h, 0.5))
        assert ratio <= 4.0 * bound


def test_noise_determinism():
    a = noise_field(G, "gauss", seed=7, eps=0.25)
    b = noise_field(G, "gauss", seed=7, eps=0.25)
    c = noise_field(G, "gauss", seed=8, eps=0.25)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_field_io_roundtrip(tmp_path):
    f = noise_field(G, "trig", seed=2)
    save_field(tmp_path / "f", G, f, meta={"seed": 2})
    g2, f2 = load_field(tmp_path / "f")
    assert g2 == G
    assert np.array_equal(f, f2)
    raw = (tmp_path / "f.bin").read_bytes()
    (tmp_path / "f.bin").write_bytes(raw[:-8] + b"corrupted")
    with pytest.raises(IOError):
        load_field(tmp_path / "f")
