"""Parabolic space-time grid, cut-off heat solves, mollifiers and norms.

Fields are float64 numpy arrays of shape (nt, nx) sampled on a stored grid
with time step ``k_store``.  The heat solver marches one field or a stack of
them at a finer internal step (``k_store / substeps``) to satisfy the
explicit-scheme stability bound and writes back on the stored levels; the
right-hand side is interpolated linearly in time between stored levels.  All
algebraic identities downstream are exact over the stored values by
construction, independent of resolution.

The spatial dimension is fixed to 1 for the numerical layer.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from functools import cached_property
from pathlib import Path as FSPath
from typing import ClassVar

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Space-time grid over [t0, t1] x [-S, S] with sup-norm parabolic metric."""

    S: float = 3.0
    t0: float = -0.5
    t1: float = 1.1
    h: float = 1 / 32
    k_store: float = 1 / 128
    substeps: int = 32
    d: int = 1

    # The cutoff is 1 for |x| <= CUTOFF_FLAT and ramps to 0 at S - CUTOFF_GAP.
    # For S <= MIN_S there is no ramp: the cutoff is 0 on the unit cylinder
    # and every heat solve's forcing vanishes.
    CUTOFF_FLAT: ClassVar[float] = 2.0
    CUTOFF_GAP: ClassVar[float] = 0.05
    MIN_S: ClassVar[float] = CUTOFF_FLAT + CUTOFF_GAP

    def __post_init__(self):
        if self.d != 1:
            raise ValueError("numerical layer supports d=1 only")
        k_march = self.k_store / self.substeps
        if k_march > self.h ** 2 / (2 * self.d) + 1e-15:
            raise StabilityError(
                "march step %.3g violates k <= h^2/2 (h=%.3g)" % (k_march, self.h))

    @cached_property
    def xs(self) -> np.ndarray:
        n = round(2 * self.S / self.h)
        return np.linspace(-self.S, self.S, n + 1)

    @cached_property
    def ts(self) -> np.ndarray:
        n = round((self.t1 - self.t0) / self.k_store)
        return self.t0 + self.k_store * np.arange(n + 1)

    @property
    def nx(self) -> int:
        return self.xs.size

    @property
    def nt(self) -> int:
        return self.ts.size

    @property
    def k_march(self) -> float:
        return self.k_store / self.substeps

    def zeros(self) -> np.ndarray:
        return np.zeros((self.nt, self.nx))

    def ones(self) -> np.ndarray:
        return np.ones((self.nt, self.nx))

    # The whole-grid fields below are cached on the grid and shared by every
    # caller (the default grids are module globals), so they are read-only.

    @cached_property
    def x_field(self) -> np.ndarray:
        return _read_only(np.broadcast_to(self.xs, (self.nt, self.nx)).copy())

    @cached_property
    def t_field(self) -> np.ndarray:
        return _read_only(
            np.broadcast_to(self.ts[:, None], (self.nt, self.nx)).copy())

    @cached_property
    def cutoff(self) -> np.ndarray:
        """Smooth spatial bump: 1 on the 1-enlargement of the unit cylinder,
        0 from just inside the grid boundary."""
        lo, hi = self.CUTOFF_FLAT, self.S - self.CUTOFF_GAP
        r = (np.abs(self.xs) - lo) / (hi - lo)
        r = np.clip(r, 0.0, 1.0)
        ramp = 1.0 - r * r * r * (r * (6 * r - 15) + 10)   # quintic smoothstep
        return _read_only(np.broadcast_to(ramp, (self.nt, self.nx)).copy())

    def node(self, j: int, m: int) -> tuple:
        return float(self.ts[j]), float(self.xs[m])

    def pdist(self, z1: tuple, z2: tuple) -> float:
        return max(math.sqrt(abs(z1[0] - z2[0])), abs(z1[1] - z2[1]))

    def domain_mask(self, R: float = 0.0) -> np.ndarray:
        """Nodes of the shrunken unit cylinder (R^2, 1) x {|x| < 1-R}."""
        tt = self.t_field
        xx = self.x_field
        return (tt > R * R) & (tt <= 1.0) & (np.abs(xx) < 1.0 - R)

    def probe_mask(self) -> np.ndarray:
        """The unit cylinder shrunk by 0.1, where identities are probed."""
        return self.domain_mask(0.1)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class StabilityError(RuntimeError):
    pass


class ResolutionError(ValueError):
    pass


DEFAULT_GRID = Grid(k_store=1 / 256, substeps=16)
COARSE_GRID = Grid(h=1 / 16, k_store=1 / 32, substeps=32)
FINE_GRID = Grid(h=1 / 64, k_store=1 / 1024, substeps=16)


def heat_solve(grid: Grid, f: np.ndarray) -> np.ndarray:
    """March (d_t - Lap) u = cutoff * f forward from zero data at t0 with zero
    spatial boundary values; returns u on the stored levels.

    f is one field of shape (nt, nx), or a stack of n fields of shape
    (n, nt, nx) marched together and returned as a stack.  A stack is laid
    out as one row per level with the field index fastest, so a node's left
    and right neighbours sit n entries away and each substep acts on the
    whole stack with the ufunc calls of one field; every field is equal to
    its own solve.

    The forcing k * rhs of all substeps between two stored levels is formed
    as one block; each substep then updates the interior in place, with the
    elementwise operations of u + lam * (u[2:] - 2u + u[:-2]) + k * rhs in
    that order, so no row is allocated inside the march."""
    stack = f.reshape(-1, grid.nt, grid.nx)
    n = len(stack)
    rf = np.ascontiguousarray((grid.cutoff * stack).transpose(1, 2, 0))
    rf = rf.reshape(grid.nt, grid.nx * n)
    u = np.zeros(grid.nx * n)
    out = np.empty((grid.nt, grid.nx * n))
    out[0] = u
    k = grid.k_march
    lam = np.float64(k / grid.h ** 2)
    ns = grid.substeps
    theta = (np.arange(ns) / ns)[:, None]
    left, inner, right = u[:-2 * n], u[n:-n], u[2 * n:]
    lap = np.empty_like(inner)
    # bound once: the loop body is call overhead on rows of a few hundred nodes
    add, subtract, multiply = np.add, np.subtract, np.multiply
    for j in range(grid.nt - 1):
        forcing = k * ((1.0 - theta) * rf[j, n:-n] + theta * rf[j + 1, n:-n])
        for row in forcing:
            add(inner, inner, out=lap)
            subtract(right, lap, out=lap)
            add(lap, left, out=lap)
            multiply(lap, lam, out=lap)
            add(inner, lap, out=lap)
            add(lap, row, out=inner)
        out[j + 1] = u
    out = out.reshape(grid.nt, grid.nx, n).transpose(2, 0, 1)
    return np.ascontiguousarray(out if f.ndim == 3 else out[0])


def grad_x(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Centered spatial differences (one-sided at the box boundary)."""
    return np.gradient(f, grid.h, axis=1)


# -- mollification kernels ----------------------------------------------------

def _profile_weights(grid: Grid, scale: float) -> np.ndarray:
    """Discrete weights of the base profile at a given scale: (1-q)^4 on the
    past parabolic ball of radius `scale`, spatially symmetric, sum 1.

    Each node weight samples the profile over its grid cell (half-cell
    shrinkage), so a scale at the resolution limit still smooths instead of
    degenerating to the identity kernel.
    """
    na, nb = _profile_extent(grid, scale)
    tt = np.maximum(grid.k_store * np.arange(na + 1) - grid.k_store / 2, 0.0)
    xx = np.maximum(np.abs(grid.h * np.arange(-nb, nb + 1)) - grid.h / 2, 0.0)
    q = np.maximum(np.sqrt(tt)[:, None] / scale, xx[None, :] / scale)
    w = np.maximum(1.0 - q, 0.0) ** 4
    tot = w.sum()
    if tot <= 0:
        raise ResolutionError("profile scale %g below grid resolution" % scale)
    return w / tot


def _profile_extent(grid: Grid, scale: float) -> tuple:
    """Stored levels back and nodes to each side of the profile at `scale`."""
    return (max(1, int(math.floor(scale ** 2 / grid.k_store))),
            max(1, int(math.floor(scale / grid.h))))


def kernel_fits(grid: Grid, L: float) -> bool:
    """Whether Mollifier.smooth(f, L) leaves any node unmasked, decided
    without building its kernel: a kernel of convolved profiles reaches as
    far as theirs added up."""
    if L / 2 >= grid.h * grid.nx:   # its first profile alone is wider
        return False
    n = max(max_depth(grid, L), 1)
    na, nb = map(sum, zip(*(_profile_extent(grid, L / 2 ** j)
                            for j in range(1, n + 1))))
    return na < grid.nt and 2 * nb < grid.nx


def max_depth(grid: Grid, L: float) -> int:
    if L >= 2 * grid.h:
        return max(int(math.floor(math.log2(L / (2 * grid.h)))), 0)
    return -1


# scipy.fft is imported by the functions that transform, not at module load:
# a command that smooths no field (enumerate, the algebra suite) never pays
# for it, in start-up time or in memory.

def _fft_shapes(a_shape, b_shape) -> tuple:
    """(full, padded) shapes of the 2-d convolution of two real arrays."""
    from scipy.fft import next_fast_len
    shape = [n + m - 1 for n, m in zip(a_shape, b_shape)]
    return shape, [next_fast_len(n, True) for n in shape]


def _fftconvolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full 2-d convolution of two real arrays: the padding and real FFTs of
    scipy.signal.fftconvolve, so the result is the same to the bit, without
    importing scipy.signal (about a second of every process start)."""
    from scipy.fft import irfftn, rfftn
    shape, fshape = _fft_shapes(a.shape, b.shape)
    out = irfftn(rfftn(a, fshape, axes=(0, 1)) * rfftn(b, fshape, axes=(0, 1)),
                 fshape, axes=(0, 1))
    return out[: shape[0], : shape[1]]


class Mollifier:
    """Iterated-profile kernels; the scale-L kernel of depth n is the discrete
    convolution of profiles at L/2, L/4, ..., L/2^n, so the dyadic semigroup
    identity holds exactly at the level of discrete kernels."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self._kernels: dict = {}
        self._spectra: dict = {}

    def kernel(self, L: float, n: int) -> np.ndarray:
        key = (round(L, 12), n)
        k = self._kernels.get(key)
        if k is None:
            if n < 1:
                raise ValueError("depth must be >= 1")
            k = _profile_weights(self.grid, L / 2)
            for j in range(2, n + 1):
                k = _fftconvolve(k, _profile_weights(self.grid, L / 2 ** j))
            k = np.maximum(k, 0.0)
            k /= k.sum()
            self._kernels[key] = k
        return k

    def smooth(self, f: np.ndarray, L: float, n: int | None = None):
        """(f)_L with depth n (default: maximal resolvable depth).

        Returns (g, mask): g is the smoothed field, valid where mask is True
        (nodes whose backward kernel window stays inside the field).  The
        field may have any (levels, nodes) shape on the grid's spacing.  The
        kernel's spectrum is computed once per (L, n, field shape), so a
        smoothing is one forward and one inverse transform; the result is
        that of _fftconvolve(f, kernel) to the bit.
        """
        from scipy.fft import irfftn, rfftn
        grid = self.grid
        if L < 2 * grid.h:
            raise ResolutionError("scale %g below resolution 2h=%g" % (L, 2 * grid.h))
        if n is None:
            n = max(max_depth(grid, L), 1)
        ker = self.kernel(L, n)
        na = ker.shape[0] - 1
        nb = (ker.shape[1] - 1) // 2
        key = (round(L, 12), n, f.shape)
        if key not in self._spectra:
            _full, fshape = _fft_shapes(f.shape, ker.shape)
            self._spectra[key] = fshape, rfftn(ker, fshape, axes=(0, 1))
        fshape, spec = self._spectra[key]
        full = irfftn(rfftn(f, fshape, axes=(0, 1)) * spec, fshape, axes=(0, 1))
        nt, nx = f.shape
        g = full[:nt, nb: nb + nx]
        mask = np.zeros(f.shape, dtype=bool)
        if nt > na and nx > 2 * nb:
            mask[na:, nb: nx - nb] = True
        g = np.where(mask, g, 0.0)
        return g, mask


# -- noise fixtures -------------------------------------------------------------

# A gauss fixture without an explicit eps is mollified at this many cells h.
DEFAULT_NOISE_EPS_CELLS = 4


def noise_field(grid: Grid, kind: str, seed: int = 0, eps: float | None = None,
                amp: float = 1.0) -> np.ndarray:
    """Reproducible noise fixtures.

    kind 'trig': fixed smooth deterministic field (seed shifts the phases).
    kind 'gauss': per-node white noise mollified at scale eps (default
    DEFAULT_NOISE_EPS_CELLS * h).
    kind 'bump': a single smooth space-time bump.
    kind 'zero': zeros.
    """
    if kind == "zero":
        return grid.zeros()
    tt, xx = grid.t_field, grid.x_field
    if kind == "trig":
        p = 0.37 * seed
        return amp * (np.sin(2.1 * xx + 0.7 + p) * np.cos(3.0 * tt + 0.2)
                      + 0.45 * np.sin(4.3 * xx - 1.1 - p) * np.sin(5.0 * tt)
                      + 0.3 * np.cos(1.3 * xx + 0.5 * p) * np.cos(1.7 * tt + 1.0))
    if kind == "bump":
        r2 = (xx / 1.5) ** 2 + ((tt - 0.3) / 0.6) ** 2
        return amp * np.exp(-np.clip(r2, 0, 50.0)) * np.cos(3 * xx + 2 * tt)
    if kind == "gauss":
        if eps is None:
            eps = DEFAULT_NOISE_EPS_CELLS * grid.h
        rng = np.random.default_rng(seed)
        white = rng.standard_normal((grid.nt, grid.nx))
        white *= amp / math.sqrt(grid.k_store * grid.h)
        g, mask = Mollifier(grid).smooth(white, eps)
        return np.where(mask, g, 0.0)
    raise ValueError("unknown noise kind %r" % kind)


# -- persistence ---------------------------------------------------------------

def grid_descriptor(grid: Grid) -> dict:
    return asdict(grid)


def grid_from_descriptor(desc: dict) -> Grid:
    return Grid(**desc)


def save_field(path, grid: Grid, f: np.ndarray, meta: dict | None = None) -> None:
    path = FSPath(path)
    raw = np.ascontiguousarray(f, dtype="<f8").tobytes()
    path.with_suffix(".bin").write_bytes(raw)
    sidecar = {
        "grid": grid_descriptor(grid),
        "shape": list(f.shape),
        "dtype": "<f8",
        "sha256": hashlib.sha256(raw).hexdigest(),
    }
    if meta:
        sidecar["meta"] = meta
    path.with_suffix(".json").write_text(json.dumps(sidecar, indent=1, sort_keys=True))


def load_field(path) -> tuple:
    """(grid, field) as save_field stored them; an IOError also when the
    sidecar lacks a key or holds a value of the wrong type."""
    path = FSPath(path)
    text = path.with_suffix(".json").read_text()
    raw = path.with_suffix(".bin").read_bytes()
    try:
        sidecar = json.loads(text)
        if hashlib.sha256(raw).hexdigest() != sidecar["sha256"]:
            raise IOError("checksum mismatch for %s" % path)
        f = np.frombuffer(raw, dtype=sidecar["dtype"]).reshape(sidecar["shape"]).copy()
        return grid_from_descriptor(sidecar["grid"]), f
    except (KeyError, TypeError, ValueError, StabilityError) as exc:
        raise IOError("malformed sidecar of %s: %s: %s"
                      % (path, type(exc).__name__, exc)) from exc
