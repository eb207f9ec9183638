import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.fft import irfftn, next_fast_len, rfftn
from scipy.signal import fftconvolve

import phi4local
from phi4local.cli import RunConfig
from phi4local.field import (
    COARSE_GRID, DEFAULT_GRID, DEFAULT_NOISE_EPS_CELLS, FINE_GRID, Grid,
    Mollifier, ResolutionError, _fast_len, _fftconvolve,
    _profile_weights, grad_x, heat_solve, load_field, max_depth, noise_field,
    save_field,
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


@pytest.mark.parametrize("spec", [
    "", "1/16,1/32,3", "1/64,1/1024,3", "1/20,1/60,3", "1/24,1/100,5/2",
    "1/8,1/16,3", "0.1,0.07,3", "1/32,1/4,3",
], ids=lambda spec: spec or "default")
def test_march_step_is_at_most_a_quarter_h_squared(spec):
    grid = RunConfig(grid=spec).make_grid()
    assert grid.k_march <= grid.h ** 2 / 4
    assert grid.substeps == max(1, math.ceil(grid.k_store / (grid.h * grid.h / 4)))


def test_preset_substeps():
    presets = [DEFAULT_GRID, COARSE_GRID, FINE_GRID]
    assert [g.substeps for g in presets] == [16, 32, 16]
    specs = ("", "1/16,1/32,3", "1/64,1/1024,3")
    assert [RunConfig(grid=s).make_grid() for s in specs] == presets


def test_grid_geometry():
    # the march is derived from S, h and k_store; a new knob must change this
    assert [f.name for f in dataclasses.fields(Grid)] == ["S", "h", "k_store"]
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


@pytest.mark.parametrize("shape", ["transposed", "two-fields-flat", "one-row",
                                   "flat", "stack-of-stacks"])
def test_heat_solve_refuses_misshapen_forcing(shape):
    grid = COARSE_GRID
    f = noise_field(grid, "trig", seed=1)
    bad = {"transposed": f.T,                     # (97, 52): the same size
           "two-fields-flat": np.vstack([f, f]),  # (104, 97)
           "one-row": f[:1],
           "flat": f.ravel(),
           "stack-of-stacks": f[None, None]}[shape]
    with pytest.raises(ValueError, match="neither"):
        heat_solve(grid, bad)


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


def test_smoothings_at_one_scale_share_one_mask():
    # the mask depends on the scale, the depth and the field's shape alone
    mol = Mollifier(COARSE_GRID)
    fields = [noise_field(COARSE_GRID, "trig", seed=1),
              noise_field(COARSE_GRID, "bump"), COARSE_GRID.x_field,
              COARSE_GRID.zeros()]
    for L in (1 / 8, 1 / 4, 1 / 2):
        masks = [mol.smooth(f, L)[1] for f in fields]
        assert masks[0].any() and not masks[0].all()
        for mask in masks[1:]:
            assert np.array_equal(mask, masks[0])


def test_gauss_noise_is_the_smoothed_white_noise():
    # smooth already writes +0.0 outside its mask
    grid, eps = COARSE_GRID, 1 / 4
    white = np.random.default_rng(3).standard_normal((grid.nt, grid.nx))
    white *= 1.0 / math.sqrt(grid.k_store * grid.h)
    g, mask = Mollifier(grid).smooth(white, eps)
    assert not np.signbit(g[~mask]).any() and not g[~mask].any()
    assert np.array_equal(noise_field(grid, "gauss", seed=3, eps=eps), g)


def test_field_io_roundtrip(tmp_path):
    f = noise_field(G, "trig", seed=2)
    save_field(tmp_path / "f", G, f, meta={"seed": 2})
    g2, f2 = load_field(tmp_path / "f")
    assert g2 == G
    assert np.array_equal(f, f2)
    # a sidecar from when the grid also stored t0, t1, substeps and d
    sidecar = json.loads((tmp_path / "f.json").read_text())
    sidecar["grid"] = {"S": 3.0, "d": 1, "h": 0.03125, "k_store": 0.00390625,
                       "substeps": 16, "t0": -0.5, "t1": 1.1}
    (tmp_path / "f.json").write_text(json.dumps(sidecar, indent=1, sort_keys=True))
    g3, f3 = load_field(tmp_path / "f")
    assert g3 == DEFAULT_GRID
    assert np.array_equal(f, f3)
    raw = (tmp_path / "f.bin").read_bytes()
    (tmp_path / "f.bin").write_bytes(raw[:-8] + b"corrupted")
    with pytest.raises(IOError):
        load_field(tmp_path / "f")


@pytest.mark.parametrize("grid", [COARSE_GRID, DEFAULT_GRID],
                         ids=["coarse", "default"])
def test_fftconvolve_matches_scipy_signal(grid):
    f = noise_field(grid, "trig", seed=1)
    cases = 0
    for L in (1 / 16, 1 / 8, 1 / 4, 1 / 2):
        if L < 2 * grid.h:
            continue
        n = max(max_depth(grid, L), 1)
        k = _profile_weights(grid, L / 2)
        # one step past the default depth, so that every L has a kernel step
        for j in range(2, n + 2):
            w = _profile_weights(grid, L / 2 ** j)
            assert np.array_equal(_fftconvolve(k, w), fftconvolve(k, w))
            k = fftconvolve(k, w)
            cases += 1
        ker = Mollifier(grid).kernel(L, n)
        assert np.array_equal(_fftconvolve(f, ker), fftconvolve(f, ker, mode="full"))
        cases += 1
    assert cases >= 6


@pytest.mark.parametrize("grid", [COARSE_GRID, DEFAULT_GRID, FINE_GRID],
                         ids=["coarse", "default", "fine"])
def test_smooth_matches_scipy_fft(grid):
    # field.py transforms with numpy.fft; every smoothing, at each dyadic
    # scale from 2h to 1/2 and at the gauss fixture's eps, is the scipy.fft
    # convolution masked as smooth masks it, to the bit
    white = np.random.default_rng(0).standard_normal((grid.nt, grid.nx))
    scales = {DEFAULT_NOISE_EPS_CELLS * grid.h}
    L = 2 * grid.h
    while L <= 0.5:
        scales.add(L)
        L *= 2
    mol = Mollifier(grid)
    for f in (white, white[40:, 30:]):
        for L in sorted(scales):
            g, mask = mol.smooth(f, L)
            ker = mol.kernel(L, max(max_depth(grid, L), 1))
            fshape = [next_fast_len(n + m - 1, True)
                      for n, m in zip(f.shape, ker.shape)]
            full = irfftn(rfftn(f, fshape, axes=(0, 1))
                          * rfftn(ker, fshape, axes=(0, 1)), fshape, axes=(0, 1))
            nb = (ker.shape[1] - 1) // 2
            want = np.where(mask, full[: f.shape[0], nb: nb + f.shape[1]], 0.0)
            assert mask.any()
            assert np.array_equal(g, want), (L, f.shape)


def test_fast_len_matches_scipy_next_fast_len():
    got = [_fast_len(n) for n in range(1, 20000)]
    assert got == [next_fast_len(n, True) for n in range(1, 20000)]


def smooth_uncached(mol, f, L):
    """Mollifier.smooth through _fftconvolve, which transforms the kernel
    again on every call."""
    ker = mol.kernel(L, max(max_depth(mol.grid, L), 1))
    na, nb = ker.shape[0] - 1, (ker.shape[1] - 1) // 2
    nt, nx = f.shape
    mask = np.zeros(f.shape, dtype=bool)
    mask[na:, nb: nx - nb] = True
    return np.where(mask, _fftconvolve(f, ker)[:nt, nb: nb + nx], 0.0), mask


def test_smooth_reads_a_spectrum_per_field_shape():
    # two shapes through one Mollifier, each twice: a spectrum keyed without
    # the shape would be read at the other shape's padding
    mol = Mollifier(G)
    f = noise_field(G, "trig", seed=1)
    fields = [f, f[40:, 30:].copy()]
    for g in fields + fields:
        got, mask = mol.smooth(g, 0.25)
        want, want_mask = smooth_uncached(mol, g, 0.25)
        assert np.array_equal(mask, want_mask) and mask.any()
        assert np.array_equal(got, want)



def test_smooth_returns_one_read_only_mask_per_scale_and_shape():
    # the mask depends on the scale, the depth and the field's shape alone:
    # every smoothing of them returns the one mask, and no caller may write it
    mol = Mollifier(G)
    f = noise_field(G, "trig", seed=1)
    _g, mask = mol.smooth(f, 0.25)
    assert mol.smooth(2.0 * f, 0.25)[1] is mask
    with pytest.raises(ValueError, match="read-only"):
        mask[0, 0] = True
    with pytest.raises(ValueError, match="read-only"):
        mask &= False
    assert mol.smooth(f, 0.5)[1] is not mask
    assert mol.smooth(f, 0.25, n=1)[1] is not mask
    assert mol.smooth(f[40:, 30:].copy(), 0.25)[1] is not mask

SCIPY_FREE = """
import json, sys
import numpy as np
from phi4local import cli
from phi4local.field import COARSE_GRID, Mollifier, noise_field
out = sys.argv[1]
assert cli.main(["verify", "--suite", "algebra", "--delta", "2/5", "--out", out]) == 0
assert cli.main(["enumerate", "--delta", "2/5", "--out", out]) == 0
assert cli.main(["scan", "--kind", "apriori", "--grid", "1/16,1/32,3",
                 "--noise", "gauss:1:0", "--out", out]) == 0
g, mask = Mollifier(COARSE_GRID).smooth(noise_field(COARSE_GRID, "trig", seed=1), 0.25)
np.save(out + "/smoothed.npy", np.where(mask, g, np.nan))
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_algebra_and_enumerate_leave_out_scipy(tmp_path):
    # field.py transforms with numpy.fft, so no command loads scipy: not the
    # algebra suite and enumerate, which smooth nothing, nor a scan that
    # smooths, nor a smoothing made afterwards, which reads as in this process
    src = os.path.dirname(os.path.dirname(phi4local.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", SCIPY_FREE, str(tmp_path)], env=env,
                         check=True, capture_output=True, text=True, timeout=120)
    assert out.stdout.strip().splitlines()[-1] == "[]"
    f = noise_field(COARSE_GRID, "trig", seed=1)
    g, mask = Mollifier(COARSE_GRID).smooth(f, 0.25)
    assert mask.any()
    assert np.array_equal(np.load(tmp_path / "smoothed.npy"),
                          np.where(mask, g, np.nan), equal_nan=True)
