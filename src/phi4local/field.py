"""Parabolic space-time grid, cut-off heat solves, mollifiers and norms.

Fields are float64 numpy arrays of shape (nt, nx) sampled on a stored grid
with time step ``k_store``.  A grid is its half-width ``S``, its spacing ``h``
and ``k_store``.  The heat solver marches one field or a stack of them at the
internal step ``k_store / substeps``, where ``substeps`` is the fewest that
keep the step at most h^2/4, inside the explicit scheme's stability bound
h^2/2; it writes back on the stored levels, and the right-hand side is
interpolated linearly in time between stored levels.  All algebraic
identities downstream are exact over the stored values by construction,
independent of resolution.

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
    h: float = 1 / 32
    k_store: float = 1 / 128

    # Every grid stores its levels from t0 to t1, k_store apart.
    t0: ClassVar[float] = -0.5
    t1: ClassVar[float] = 1.1

    # The cutoff is 1 for |x| <= CUTOFF_FLAT and ramps to 0 at S - CUTOFF_GAP.
    # For S <= MIN_S there is no ramp: the cutoff is 0 on the unit cylinder
    # and every heat solve's forcing vanishes.
    CUTOFF_FLAT: ClassVar[float] = 2.0
    CUTOFF_GAP: ClassVar[float] = 0.05
    MIN_S: ClassVar[float] = CUTOFF_FLAT + CUTOFF_GAP

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
    def substeps(self) -> int:
        """March steps per stored step, the fewest of at most h^2/4 each; inf
        where k_store / (h^2/4) overflows, so that a bound can read it."""
        n = self.k_store / (self.h * self.h / 4)
        return max(1, math.ceil(n)) if n < math.inf else n

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


class ResolutionError(ValueError):
    pass


DEFAULT_GRID = Grid(k_store=1 / 256)
COARSE_GRID = Grid(h=1 / 16, k_store=1 / 32)
FINE_GRID = Grid(h=1 / 64, k_store=1 / 1024)


# Stored levels each dependency level of a march runs behind the one before,
# which is also how many forcing rows a level is asked for at once: of 1, 4,
# 8, 16 and 32, 8 built the default-grid lifts at delta = 9/20, 3/10 and
# 13/50 fastest on a 2-core Xeon.
LEVEL_LAG = 8


def heat_solve(grid: Grid, f) -> np.ndarray | None:
    """March (d_t - Lap) u = cutoff * f forward from zero data at t0 with zero
    spatial boundary values; returns u on the stored levels.

    f is one field of shape (nt, nx), or a stack of n fields of shape
    (n, nt, nx) returned as a stack; any other shape is refused.  f may also
    be the dependency levels of a lift, in order: pairs (out, forcing), where
    out is a sequence of the level's (nt, nx) solve arrays, which the march
    fills, and forcing(rows) returns the level's forcing, shape
    (len(out), len(rows), nx), on a slice of stored levels.  An array is the
    one-level case.

    All fields are marched as one row per level with the field index
    fastest, so a node's left and right neighbours sit n entries away and
    each substep acts on every field with the ufunc calls of one field.
    Level l runs l * LEVEL_LAG stored levels behind level 0, and a level's
    forcing is asked for LEVEL_LAG rows at a time, when the march is about
    to reach them; so forcing(rows) may read the rows of earlier levels'
    solves below rows.stop, which are written by then.  A field that has not
    started marches exact zeros, and no node reads another field's column,
    so every field is equal to its own solve bit for bit; a finished field
    marches on unread.

    The forcing k * rhs of all substeps between two stored levels is formed
    as one block; each substep then updates the interior in place, with the
    elementwise operations of u + lam * (u[2:] - 2u + u[:-2]) + k * rhs in
    that order, so no row is allocated inside the march.  A lift's levels
    are written to their out arrays, and None is returned."""
    if not isinstance(f, np.ndarray):
        _march(grid, f)
        return None
    if f.ndim not in (2, 3) or f.shape[-2:] != (grid.nt, grid.nx):
        raise ValueError("forcing of shape %s is neither (nt, nx) = (%d, %d) "
                         "nor a stack of such fields"
                         % (f.shape, grid.nt, grid.nx))
    stack = f.reshape(-1, grid.nt, grid.nx)
    out = np.empty(stack.shape)
    _march(grid, [(out, lambda rows: stack[:, rows])])
    return out if f.ndim == 3 else out[0]


def _march(grid: Grid, levels) -> None:
    """The loop of heat_solve over its levels."""
    nt, nx, lag = grid.nt, grid.nx, LEVEL_LAG
    widths = [len(out) for out, _forcing in levels]
    n = sum(widths)
    starts = np.cumsum([0] + widths[:-1])
    cols = [slice(a, a + w) for a, w in zip(starts, widths)]
    behind = [l * lag for l in range(len(levels))]
    for out, _forcing in levels:
        for u_f in out:
            u_f[0] = 0.0
    u = np.zeros(nx * n)
    nodes = u.reshape(nx, n)
    rf = np.zeros((lag + 1, nx, n))     # cutoff * forcing, march rows J0 .. J0 + lag
    rf_rows = rf.reshape(lag + 1, nx * n)
    done = np.empty((lag, nx, n))       # u on march rows J0 + 1 .. J0 + lag
    k = grid.k_march
    lam = np.float64(k / grid.h ** 2)
    ns = grid.substeps
    theta = (np.arange(ns) / ns)[:, None]
    left, inner, right = u[:-2 * n], u[n:-n], u[2 * n:]
    lap = np.empty_like(inner)
    # bound once: the loop body is call overhead on rows of a few hundred nodes
    add, subtract, multiply = np.add, np.subtract, np.multiply
    steps = nt - 1 + behind[-1]
    for J0 in range(0, steps, lag):
        J1 = min(J0 + lag, steps)
        if J0:
            rf[0] = rf[lag]
            rf[1:] = 0.0
        # a level's stored level j is march row j + d; its row 0 enters at
        # the first row of its first block, so the step before reads zeros
        for (out, forcing), d, c in zip(levels, behind, cols):
            a, b = J0 - d + (J0 > d), min(J1 + 1 - d, nt)
            if J0 >= d and a < b:
                rows = grid.cutoff[a:b] * forcing(slice(a, b))
                rf[a + d - J0: b + d - J0, :, c] = rows.transpose(1, 2, 0)
        for J in range(J0, J1):
            i = J - J0
            block = k * ((1.0 - theta) * rf_rows[i, n:-n]
                         + theta * rf_rows[i + 1, n:-n])
            for row in block:
                add(inner, inner, out=lap)
                subtract(right, lap, out=lap)
                add(lap, left, out=lap)
                multiply(lap, lam, out=lap)
                add(inner, lap, out=lap)
                add(lap, row, out=inner)
            done[i] = nodes
        for (out, _forcing), d, c in zip(levels, behind, cols):
            a, b = max(J0 + 1 - d, 1), min(J1 + 1 - d, nt)
            if a < b:
                for u_f, col in zip(out, range(c.start, c.stop)):
                    u_f[a:b] = done[a + d - J0 - 1: b + d - J0 - 1, :, col]


def grad_x(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Centered spatial differences (one-sided at the box boundary)."""
    return np.gradient(f, grid.h, axis=1)


# -- norms and the rows of numeric checks --------------------------------------

def sup(a) -> float:
    """max |a|, 0.0 when a is empty and NaN when any entry is NaN: the one
    reduction of every numeric check, so a NaN residual ranks first."""
    return float(np.max(np.abs(a), initial=0.0))


def check_row(identity: str, tree: str, residual, tol: float) -> dict:
    """The report row of a numeric check from the sup of its residual: a
    non-finite sup reads FAIL."""
    worst = sup(residual)
    ok = math.isfinite(worst) and worst <= tol
    return {"identity": identity, "tree": tree,
            "status": "pass" if ok else "FAIL", "residual": worst}


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


def _fast_len(n: int) -> int:
    """The least 2^a 3^b 5^c >= n: a padded length the real FFT is fast on."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def _fft_shapes(a_shape, b_shape) -> tuple:
    """(full, padded) shapes of the 2-d convolution of two real arrays."""
    shape = [n + m - 1 for n, m in zip(a_shape, b_shape)]
    return shape, [_fast_len(n) for n in shape]


def _rfft2(a: np.ndarray, fshape) -> np.ndarray:
    """Real 2-d transform of a zero-padded to fshape: the real pass along
    axis 1, then the complex one along axis 0, in one complex buffer."""
    spec = np.empty((fshape[0], fshape[1] // 2 + 1), dtype=complex)
    np.fft.rfft(a, fshape[1], axis=1, out=spec[: a.shape[0]])
    spec[a.shape[0]:] = 0.0
    return np.fft.fft(spec, axis=0, out=spec)


def _irfft2(spec: np.ndarray, fshape) -> np.ndarray:
    """Inverse of _rfft2 at fshape; spec is overwritten.  Both passes are
    unscaled and the result is multiplied once by 1 / (fshape[0] * fshape[1]):
    numpy's default scales each pass by its own length, which rounds
    differently, and tests/test_field.py holds every smoothing to the one
    factor bit for bit."""
    np.fft.ifft(spec, axis=0, norm="forward", out=spec)
    out = np.fft.irfft(spec, fshape[1], axis=1, norm="forward")
    out *= 1.0 / (fshape[0] * fshape[1])
    return out


def _fftconvolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full 2-d convolution of two real arrays by real FFTs at fast padded
    lengths; tests/test_field.py checks it bit for bit against a reference
    FFT convolution."""
    shape, fshape = _fft_shapes(a.shape, b.shape)
    spec = _rfft2(a, fshape)
    spec *= _rfft2(b, fshape)
    return _irfft2(spec, fshape)[: shape[0], : shape[1]]


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
        (nodes whose backward kernel window stays inside the field) and 0
        elsewhere.  The field may have any (levels, nodes) shape on the
        grid's spacing; the mask depends on L, n and that shape alone, so
        every smoothing of an (nt, nx) field at one scale, as the scans make,
        returns one read-only mask.  The mask and the kernel's spectrum are
        computed once per (L, n, field shape), so a smoothing is one forward
        and one inverse transform; the result is that of
        _fftconvolve(f, kernel) to the bit.
        """
        grid = self.grid
        if L < 2 * grid.h:
            raise ResolutionError("scale %g below resolution 2h=%g" % (L, 2 * grid.h))
        if n is None:
            n = max(max_depth(grid, L), 1)
        ker = self.kernel(L, n)
        na = ker.shape[0] - 1
        nb = (ker.shape[1] - 1) // 2
        nt, nx = f.shape
        key = (round(L, 12), n, f.shape)
        if key not in self._spectra:
            _full, fshape = _fft_shapes(f.shape, ker.shape)
            mask = np.zeros(f.shape, dtype=bool)
            if nt > na and nx > 2 * nb:
                mask[na:, nb: nx - nb] = True
            mask.flags.writeable = False     # shared by every caller
            self._spectra[key] = fshape, _rfft2(ker, fshape), mask
        fshape, spec, mask = self._spectra[key]
        buf = _rfft2(f, fshape)
        buf *= spec
        full = _irfft2(buf, fshape)
        g = np.where(mask, full[:nt, nb: nb + nx], 0.0)
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
        try:
            p = 0.37 * seed
        except OverflowError:
            raise ValueError("a trig seed of %d digits overflows a float"
                             % len(str(seed))) from None
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
        return Mollifier(grid).smooth(white, eps)[0]
    raise ValueError("unknown noise kind %r" % kind)


# -- persistence ---------------------------------------------------------------

def save_field(path, grid: Grid, f: np.ndarray, meta: dict | None = None) -> None:
    path = FSPath(path)
    raw = np.ascontiguousarray(f, dtype="<f8").tobytes()
    path.with_suffix(".bin").write_bytes(raw)
    sidecar = {
        "grid": asdict(grid),
        "shape": list(f.shape),
        "dtype": "<f8",
        "sha256": hashlib.sha256(raw).hexdigest(),
    }
    if meta:
        sidecar["meta"] = meta
    path.with_suffix(".json").write_text(json.dumps(sidecar, indent=1, sort_keys=True))


def load_field(path) -> tuple:
    """(grid, field) as save_field stored them; an IOError also when the
    sidecar lacks a key or holds a value of the wrong type.  The grid is read
    from its keys S, h and k_store, so a sidecar that also records t0, t1,
    substeps and d (as save_field once wrote) loads too."""
    path = FSPath(path)
    text = path.with_suffix(".json").read_text()
    raw = path.with_suffix(".bin").read_bytes()
    try:
        sidecar = json.loads(text)
        if hashlib.sha256(raw).hexdigest() != sidecar["sha256"]:
            raise IOError("checksum mismatch for %s" % path)
        f = np.frombuffer(raw, dtype=sidecar["dtype"]).reshape(sidecar["shape"]).copy()
        g = sidecar["grid"]
        grid = Grid(S=float(g["S"]), h=float(g["h"]), k_store=float(g["k_store"]))
        return grid, f
    except (KeyError, TypeError, ValueError) as exc:
        raise IOError("malformed sidecar of %s: %s: %s"
                      % (path, type(exc).__name__, exc)) from exc
