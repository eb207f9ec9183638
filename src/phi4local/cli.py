"""Command-line harness: enumeration, identity suites, solves and scans.

Exit codes: 0 pass, 1 identity failure, 2 configuration error (a ConfigError,
raised where an outside input is read), 3 numerical abort (with --out, its
diagnostics go to numerical-abort.json there, never into a report), 4 internal
error (any other exception, ValueError included; its type, message and
traceback go to stderr).  All randomness is derived from the configured
seed, so identical configurations produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import traceback
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from pathlib import Path as FSPath

import numpy as np

from . import coalgebra, coeffs, equation, field as fieldmod, lift as liftmod, path as pathmod
from .symtree import (
    ENUMERATION_CAP, PROD, EnumerationCapExceeded, I, InadmissibleDelta,
    enumerate_universe, parse_delta, tree_name,
)


# Stored nodes (nt x nx), and nodes (substeps x nx) of a heat solve's forcing
# block, a --grid may ask for.  A whole-grid field takes 8 B a node, and a
# path's tables hold at most 26 fields at delta 9/20 and 89 at 13/50 (16.5
# and 56.5 MB on the default grid's 79,323 nodes), one per canonical tree.
# FINE_GRID has 1,639 x 385 = 631,015 stored nodes and a 16 x 385 block.
MAX_GRID_NODES = 10 ** 6

# The characters of an input that an error message quotes: a seed of 400
# digits is refused in one short line.
_SHOWN_CHARS = 24


@dataclass
class RunConfig:
    delta: str = "9/20"
    dim: int = 1
    grid: str = ""
    noise: str = "trig:0:0"
    lift: str = "multiplicative"
    out: str = ""
    suite: str = "all"
    seed: int = 0
    tol: dict = field(default_factory=dict)
    max_m_xi: int = 0            # 0: no restriction

    @classmethod
    def from_args(cls, ns) -> "RunConfig":
        cfg = cls()
        if ns.config:
            cfg = cls.from_file(ns.config)
        for name in ("delta", "dim", "grid", "noise", "lift", "out", "suite",
                     "seed"):
            v = getattr(ns, name, None)
            if v is not None:
                if isinstance(getattr(cfg, name), int):
                    v = _parse_as(int, v, "--%s" % name)
                setattr(cfg, name, v)
        for item in (getattr(ns, "tol", None) or []):
            name, _, val = item.partition("=")
            cfg.tol[name] = _parse_as(float, val, "tolerance %s" % _shown(name))
        unknown = sorted(set(cfg.tol) - {"chen", "cube", "utau"})
        if unknown:
            raise ConfigError("unknown tolerance %s (the suites read chen, "
                              "cube and utau)" % ", ".join(map(_shown, unknown)))
        for name, val in sorted(cfg.tol.items()):
            if not 0 <= val < math.inf:     # NaN fails both comparisons
                raise ConfigError("tolerance %s must be finite and >= 0, got %r"
                                  % (_shown(name), val))
        for name, low in (("dim", 1), ("seed", 0), ("max_m_xi", 0)):
            if getattr(cfg, name) < low:
                raise ConfigError("%s must be >= %d, got %s"
                                  % (name, low, _shown(getattr(cfg, name))))
        numeric = ns.cmd in ("solve", "scan") or (
            ns.cmd == "verify" and cfg.suite != "algebra")
        if numeric and cfg.dim != 1:
            raise ConfigError("the numerical layer supports --dim 1 only (got "
                              "%d); enumerate and verify --suite algebra take "
                              "any dim" % cfg.dim)
        # the other commands read trees that a restricted universe leaves out
        restrictable = ns.cmd == "enumerate" or (
            ns.cmd == "verify" and cfg.suite == "path") or (
            ns.cmd == "scan" and ns.kind == "order")
        if cfg.max_m_xi and not restrictable:
            raise ConfigError("max_m_xi applies to enumerate, verify --suite "
                              "path and scan --kind order only (got %d)"
                              % cfg.max_m_xi)
        return cfg

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        as_json = path.endswith(".json")
        if as_json:
            data = _read_json_object(path)
        else:
            data = {}
            for line in _read_config_file(path).splitlines():
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                key, _, val = line.partition("=")
                key, val = key.strip(), val.strip()
                if key == "tol":
                    sub = {}
                    for part in val.split(","):
                        n, _, v = part.partition(":")
                        sub[n.strip()] = _parse_as(float, v, "tolerance %s"
                                                   % _shown(n.strip()))
                    data[key] = sub
                else:
                    data[key] = val
        cfg = cls()
        for key, val in data.items():
            if not hasattr(cfg, key):
                raise ConfigError("unknown config key %s" % _shown(key))
            cur = getattr(cfg, key)
            if as_json and not _json_type_fits(cur, val):
                raise ConfigError("config key %r cannot take the JSON value %s"
                                  % (key, json.dumps(val)))
            if isinstance(cur, int):
                val = _parse_as(int, val, "config key %s" % _shown(key))
            setattr(cfg, key, val)
        return cfg

    def make_grid(self) -> fieldmod.Grid:
        if not self.grid:
            return fieldmod.DEFAULT_GRID
        shown = _shown(self.grid)
        parts = self.grid.split(",")
        if len(parts) != 3:
            raise ConfigError("grid takes h,k,S, got %s" % shown)
        h, k, S = (_parse_number(x) for x in parts)
        if not all(math.isfinite(v) and v > 0 for v in (h, k, S)):
            raise ConfigError("grid h, k and S must be positive and finite, "
                              "got %s" % shown)
        if S <= fieldmod.Grid.MIN_S:
            raise ConfigError("grid S must exceed %g, or the cutoff vanishes "
                              "on the unit cylinder, got %s"
                              % (fieldmod.Grid.MIN_S, shown))
        # both node bounds read the float counts, which may be inf, before
        # any round, and before the grid makes an array
        grid = fieldmod.Grid(S=S, h=h, k_store=k)
        cells = 2 * S / h
        nx = cells + 1
        nodes = nx * ((grid.t1 - grid.t0) / k + 1)
        if nodes > MAX_GRID_NODES:
            raise ConfigError("grid %s has ~%.3g stored nodes, above the bound "
                              "of %d" % (shown, nodes, MAX_GRID_NODES))
        if grid.substeps * nx > MAX_GRID_NODES:
            raise ConfigError("grid %s marches %g substeps of ~%d nodes, above "
                              "the bound of %d"
                              % (shown, grid.substeps, nx, MAX_GRID_NODES))
        if abs(cells - round(cells)) > 1e-9 * cells:
            raise ConfigError("grid %s: 2S/h = %.6g is not a whole number, so "
                              "its nodes would not be h apart" % (shown, cells))
        if grid.ts[-1] < 1.0:
            raise ConfigError("grid %s stores levels up to t = %g only; they "
                              "must reach t = 1" % (shown, grid.ts[-1]))
        probe = int(grid.probe_mask().sum())
        if probe < 2:
            raise ConfigError("grid %s has %d node(s) in the probe region (the "
                              "unit cylinder shrunk by 0.1), where the checks "
                              "sample pairs of nodes; it needs 2"
                              % (shown, probe))
        return grid

    def make_noise(self, grid) -> np.ndarray:
        kind, _, rest = self.noise.partition(":")
        seed_s, _, eps_s = rest.partition(":")
        try:
            seed = int(seed_s or 0)
        except ValueError:
            raise ConfigError("noise seed must be an integer, got %s"
                              % _shown(seed_s)) from None
        eps = _parse_number(eps_s) if eps_s else 0.0
        if not (math.isfinite(eps) and eps >= 0):
            raise ConfigError("noise eps must be finite and >= 0 (0 for the "
                              "default), got %s" % _shown(eps_s))
        if kind == "gauss":
            eps = eps or fieldmod.DEFAULT_NOISE_EPS_CELLS * grid.h
            if not fieldmod.kernel_fits(grid, eps):
                raise ConfigError("noise eps %g: its kernel does not fit the "
                                  "grid, so the noise would be 0 everywhere" % eps)
        try:
            return fieldmod.noise_field(grid, kind, seed=seed, eps=eps or None)
        except ValueError as exc:
            raise ConfigError("noise %s: %s" % (_shown(self.noise), exc)) from exc

    def descriptor(self) -> dict:
        """The config a report echoes: every field but the output path."""
        return {k: v for k, v in asdict(self).items() if k != "out"}


class ConfigError(ValueError):
    """A bad outside input, raised where it is read: main's only exit 2."""


def _read_config_file(path: str) -> str:
    try:
        return FSPath(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("cannot read %s: %s" % (path, exc)) from exc


def _read_json_object(path: str) -> dict:
    try:
        data = json.loads(_read_config_file(path))
    except json.JSONDecodeError as exc:
        raise ConfigError("%s is not valid JSON: %s" % (path, exc)) from exc
    if not isinstance(data, dict):
        raise ConfigError("%s must hold a JSON object, not a %s"
                          % (path, type(data).__name__))
    return data


def _json_type_fits(cur, val) -> bool:
    """Whether a JSON value can stand for a field whose default is cur (a
    float cannot carry 9/20, so string fields take strings only)."""
    if isinstance(cur, str):
        return isinstance(val, str)
    if isinstance(cur, int):
        return isinstance(val, (int, str)) and not isinstance(val, bool)
    return isinstance(val, dict) and all(
        isinstance(x, (int, float)) and not isinstance(x, bool)
        for x in val.values())


def _shown(value) -> str:
    """An input as an error message quotes it: the repr of a string, the
    digits of a number, cut after _SHOWN_CHARS characters of the input with
    "…" and its full length."""
    text = str(value)
    cut = text[:_SHOWN_CHARS]
    shown = repr(cut) if isinstance(value, str) else cut
    if cut == text:
        return shown
    return "%s… (%d characters)" % (shown, len(text))


def _parse_number(s: str) -> float:
    s = s.strip()
    try:
        return float(Fraction(s)) if "/" in s else float(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError("not a number: %s" % _shown(s)) from exc


def _parse_as(kind, text, what: str):
    try:
        return kind(text)
    except ValueError:
        raise ConfigError("%s takes a number (%s), got %s"
                          % (what, kind.__name__, _shown(text))) from None


def _parse_radii(text: str) -> tuple:
    radii = tuple(_parse_number(x) for x in text.split(","))
    if not all(0 < R < 1 for R in radii):
        raise ConfigError("radii must lie in (0, 1), got %s" % _shown(text))
    return radii


def _emit(cfg: RunConfig, name: str, payload: dict) -> None:
    """Write payload as strict JSON: a non-finite float is written as the
    string "NaN", "Infinity" or "-Infinity", never as a bare token."""
    try:
        text = _dumps(payload)
    except ValueError:
        text = _dumps(_nonfinite_as_str(payload))
    if cfg.out:
        out = FSPath(cfg.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
            (out / (name + ".json")).write_text(text)
        except OSError as exc:
            raise ConfigError("cannot write the report to %s: %s"
                              % (cfg.out, exc)) from exc
    else:
        print(text)


def _dumps(payload) -> str:
    return json.dumps(payload, indent=1, sort_keys=True, default=_json_default,
                      allow_nan=False)


def _json_default(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(type(obj))


def _nonfinite_as_str(obj):
    """A copy of obj with each non-finite float replaced by its JSON name."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _nonfinite_as_str(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_nonfinite_as_str(v) for v in obj]
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        return "NaN" if math.isnan(obj) else "Infinity" if obj > 0 else "-Infinity"
    return obj


def _universe(cfg: RunConfig):
    try:
        delta = parse_delta(cfg.delta)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError("delta must be p/q in (0, 1), got %s"
                          % _shown(cfg.delta)) from exc
    # Each odd leaf count below 3/delta has a pure-noise product: a small delta
    # is over the cap before check_delta_admissible walks ~24/delta points.
    if (3 / delta - 3) / 2 > ENUMERATION_CAP or cfg.dim > ENUMERATION_CAP:
        raise ConfigError("delta %s with dim %s is over the enumeration cap of "
                          "%d trees" % (_shown(cfg.delta), _shown(cfg.dim),
                                        ENUMERATION_CAP))
    try:
        u = enumerate_universe(delta, cfg.dim)
    except (InadmissibleDelta, EnumerationCapExceeded) as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.max_m_xi:
        u = u.restrict(cfg.max_m_xi)
    return u


def _q_entries(u, path: str, what: str) -> list:
    """(name, tree, value) for each entry of a counterterm or custom-lift
    file.  A key is the name `enumerate` prints for a tree of Q, whitespace
    ignored; Q holds every child order of its trees, so any order loads."""
    by_name = {"".join(tree_name(t).split()): t for t in u.Q}
    entries = []
    for name, val in _read_json_object(path).items():
        t = by_name.get("".join(name.split()))
        if t is None:
            raise ConfigError("%s key %r is not the name of a tree of Q"
                              % (what, name))
        entries.append((name, t, val))
    return entries


def _build_lift(cfg: RunConfig, grid, u, cg):
    xi = cfg.make_noise(grid)
    kind, _, arg = cfg.lift.partition(":")
    if kind == "multiplicative":
        return liftmod.build_local_product(grid, u, xi, coalg=cg), None
    if kind == "phi43":
        try:    # its constants are fitted on these trees, which u must hold
            liftmod.standard_families(u)
        except ValueError as exc:
            raise ConfigError("lift phi43: %s" % exc) from exc
        seeds = [cfg.seed + j for j in range(6)]
        eps = fieldmod.DEFAULT_NOISE_EPS_CELLS * grid.h
        if not fieldmod.kernel_fits(grid, eps):
            raise ConfigError("lift phi43: the ensemble's noise kernel (eps %g) "
                              "does not fit the grid, so its constants would "
                              "be 0" % eps)
        noise_kind = cfg.noise.split(":")[0]
        try:    # trig noise reads its seeds as floats
            rmap, rep = liftmod.phi43_counterterms(
                grid, u, seeds, eps, kind=noise_kind if noise_kind != "zero" else "gauss")
        except ValueError as exc:
            raise ConfigError("lift phi43: %s" % exc) from exc
        except liftmod.EnsembleTooSmall as exc:
            raise equation.NumericalAbort("lift phi43: %s" % exc, exc.report) from exc
        return liftmod.build_local_product(grid, u, xi, rmap=rmap, coalg=cg), rep
    if kind == "counterterm":
        values = {}
        for name, t, val in _q_entries(u, arg, "counterterm"):
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                raise ConfigError("counterterm %r: %r is not a number" % (name, val))
            values[t] = val
        try:
            rmap = liftmod.CountertermMap(u, values)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        c = equation.renorm_constants(u, rmap)
        for name, v in (("r1", c.r1), ("r_phi", c.r_phi), ("r_phi2", c.r_phi2),
                        *(("r_dphi", v) for v in c.r_dphi)):
            try:        # the products suite and the remainder read them as floats
                float(v)
            except OverflowError:
                raise ConfigError("counterterm map: its renormalisation constant "
                                  "%s does not fit a float" % name) from None
        return liftmod.build_local_product(grid, u, xi, rmap=rmap, coalg=cg), None
    if kind == "custom":
        custom = {}
        for name, t, relpath in _q_entries(u, arg, "custom lift"):
            if not isinstance(relpath, str):
                raise ConfigError("custom lift %r: %r is not a path" % (name, relpath))
            try:
                g, f = fieldmod.load_field(FSPath(arg).parent / relpath)
            except OSError as exc:
                raise ConfigError("cannot load custom field %r: %s"
                                  % (name, exc)) from exc
            if g != grid:
                raise ConfigError("custom field %r is stored on grid %s, not on "
                                  "the run grid %s" % (name, g, grid))
            if f.shape != (grid.nt, grid.nx):
                raise ConfigError("custom field %r has shape %s, not the run "
                                  "grid's %s" % (name, f.shape, (grid.nt, grid.nx)))
            if not np.all(np.isfinite(f)):
                raise ConfigError("custom field %r has non-finite values" % name)
            custom[t] = f
        return liftmod.build_local_product(grid, u, xi, custom=custom, coalg=cg), None
    raise ConfigError("unknown lift kind %s" % _shown(cfg.lift))


def _build_path(cfg: RunConfig, grid, cg):
    """The Path of a numeric command on grid over cg's universe, and the
    lift's ensemble report (None unless the lift is phi43)."""
    lp, lift_rep = _build_lift(cfg, grid, cg.u, cg)
    return pathmod.Path(lp), lift_rep


def _strided(nodes, k: int) -> list:
    """The batch of nodes split into k batches of every k-th node, so that
    entry n of batch i is node k*n + i: its runs of k consecutive nodes."""
    rows, cols = nodes
    n = len(rows) // k * k
    return [(rows[i:n:k], cols[i:n:k]) for i in range(k)]


def _smooth_v1(grid) -> np.ndarray:
    """The smooth base function of the cube-formula checks."""
    return 0.5 + 0.3 * np.sin(2.0 * grid.x_field) * np.cos(1.5 * grid.t_field)


# -- commands -------------------------------------------------------------------

def cmd_enumerate(cfg: RunConfig) -> int:
    u = _universe(cfg)
    payload = u.to_json()
    payload["classification"] = coeffs.classification_table(u)
    _emit(cfg, "universe", payload)
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    u = _universe(cfg)
    cg = coalgebra.Coalgebra(u)
    failures = []
    reports = {}

    def run_algebra():
        rows = []
        rows += cg.verify_coassoc()
        rows += cg.verify_explicit_formula()
        rows += cg.verify_delta_ranges()
        rows += coeffs.check_cube_identity(u)
        rows += coeffs.check_coherence(u, cg)
        rng = np.random.default_rng(cfg.seed)
        for j in range(5):
            rmap = liftmod.random_counterterm_map(u, rng)
            rows += cg.verify_renorm_commute(rmap.as_uid_map())
        reports["algebra"] = rows
        failures.extend(coalgebra.report_failures(rows))

    @functools.cache
    def path():
        return _build_path(cfg, cfg.make_grid(), cg)[0]

    def run_path():
        p = path()
        grid, lp = p.grid, p.lp
        rng = np.random.default_rng(cfg.seed)
        probe = grid.probe_mask()
        nodes = pathmod.sample_nodes(grid, probe, rng, 3 * 50)
        tol = cfg.tol.get("chen", 1e-8)
        # consecutive triples and pairs of the sample, as batches
        z3, u3, x3 = _strided(nodes, 3)
        z2, x2 = _strided(nodes, 2)
        inner = (0 < z2[1]) & (z2[1] < grid.nx - 1)
        zi, xi = (z2[0][inner], z2[1][inner]), (x2[0][inner], x2[1][inner])
        rows = [
            fieldmod.check_row("chen", "*", np.concatenate([
                p.chen_residual(s, z3, u3, x3) for s in u.T]), tol),
            fieldmod.check_row("strong-chen", "*", np.concatenate([
                p.strong_chen_residual(I(t), z2, x2) for t in u.N]), tol),
            fieldmod.check_row("derivative-edge", "*", np.concatenate([
                p.derivative_residual(t, zi, xi) for t in u.T_r]), tol),
        ]
        if lp.rmap is not None:
            ruid = lp.rmap.as_uid_map()
            rows.append(fieldmod.check_row("path-rewrite", "*", np.concatenate([
                p.renorm_path_residual(ruid, t, z2, x2)
                for t in u.T_r if t.kind == PROD]), tol))
            rows += liftmod.extension_consistency_report(lp)
        reports["path"] = rows
        failures.extend(coalgebra.report_failures(rows))

    def run_products():
        p = path()
        e = equation.TreeExpansion(p, _smooth_v1(p.grid))
        rel = equation.cube_formula_check(p, e)
        tol = cfg.tol.get("cube", 1e-8 if p.lp.rmap is not None else 1e-10)
        rows = [fieldmod.check_row("cube-formula", "*", rel, tol)]
        gamma = coeffs.pick_gamma(u, Fraction(3, 2))
        mn = equation.modelled_norms(p, e, gamma, n_pairs=60, seed=cfg.seed)
        tol = cfg.tol.get("utau", 1e-8)
        rows.append(fieldmod.check_row("utau-classified", "*",
                                       mn.max_rel_mismatch, tol))
        tp = equation.three_point_residual(p, e, gamma, n_triples=40, seed=cfg.seed)
        rows.append(fieldmod.check_row("three-point", "*", tp, tol))
        reports["products"] = rows
        failures.extend(coalgebra.report_failures(rows))

    suites = {"algebra": run_algebra, "path": run_path, "products": run_products}
    if cfg.suite == "all":
        for fn in suites.values():
            fn()
    elif cfg.suite in suites:
        suites[cfg.suite]()
    else:
        raise ConfigError("unknown suite %s" % _shown(cfg.suite))
    _emit(cfg, "verify-%s" % cfg.suite, {
        "config": cfg.descriptor(),
        "reports": reports,
        "failures": failures,
    })
    return 1 if failures else 0


def cmd_solve(cfg: RunConfig) -> int:
    cg = coalgebra.Coalgebra(_universe(cfg))
    p, lift_rep = _build_path(cfg, cfg.make_grid(), cg)
    u, grid = p.u, p.grid
    co = equation.remainder_coeffs(p)
    trace = equation.BoundaryTrace("smooth", 1.0, seed=cfg.seed)
    batch = equation.solve_remainder(p, co, [trace])
    run, = batch["runs"]
    rec = {"trace": run["trace"], "k": batch["k"], "h": batch["h"],
           "steps": batch["steps"], "norms": run["norms"]}
    cube = equation.cube_formula_check(
        p, equation.TreeExpansion(p, _smooth_v1(grid)))
    rng = np.random.default_rng(cfg.seed)
    nodes = pathmod.sample_nodes(grid, grid.probe_mask(), rng, 9)
    chen = fieldmod.sup(np.concatenate([p.chen_residual(s, *_strided(nodes, 3))
                                        for s in u.T_r[:4]]))
    rec["residuals"] = {"cube_formula": cube, "chen_spot": chen}
    _emit(cfg, "solve", {"config": cfg.descriptor(), "run": rec,
                         "lift": lift_rep})
    return 0


def cmd_scan(cfg: RunConfig, kind: str, radii) -> int:
    grid = cfg.make_grid()
    scales = [L for L in (1 / 16, 1 / 8, 1 / 4, 1 / 2) if L >= 2 * grid.h]
    if len(scales) < 3:     # each scan fits a slope or a decay over the scales
        raise ConfigError("a scan needs 3 scales L >= 2h among 1/16, 1/8, 1/4 "
                          "and 1/2; grid h = %g leaves %d" % (grid.h, len(scales)))
    p, _ = _build_path(cfg, grid, coalgebra.Coalgebra(_universe(cfg)))
    if kind == "order":
        sigmas = [s for s in (p.u.T_cen + p.u.T_r) if s.m_xi <= 3]
        rows = pathmod.order_scan(p, sigmas, scales, seed=cfg.seed)
        _emit(cfg, "scan-order", {
            "config": cfg.descriptor(),
            "rows": [{"sigma": r.sigma, "target": r.target, "L": r.scales,
                      "value": r.values, "slope": r.slope} for r in rows]})
        return 0
    if kind == "apriori":
        co = equation.remainder_coeffs(p)
        traces = []
        for mag in (1.0, 10.0, 100.0):
            for seed in (1, 2, 3):
                traces.append(equation.BoundaryTrace("smooth", mag, seed=seed))
        traces.append(equation.BoundaryTrace("zero", 0.0))
        rep = equation.apriori_scan(p, co, traces, radii, scales=tuple(scales))
        _emit(cfg, "scan-apriori", {"config": cfg.descriptor(), **rep})
        return 0
    if kind == "reconstruction":
        v1 = 0.4 + 0.2 * np.sin(1.7 * grid.x_field) * np.cos(2.1 * grid.t_field)
        e = equation.TreeExpansion(p, v1)
        rep = equation.reconstruction_check(p, e, scales)
        _emit(cfg, "scan-reconstruction", {"config": cfg.descriptor(), **rep})
        return 0
    raise ConfigError("unknown scan kind %s" % _shown(kind))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="phi4local")
    ap.add_argument("--config", default=None)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--delta", default=None)
        p.add_argument("--dim", default=None)
        p.add_argument("--grid", default=None, help="h,k,S")
        p.add_argument("--noise", default=None, help="kind:seed:eps")
        p.add_argument("--lift", default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", default=None)
        p.add_argument("--tol", action="append", default=None,
                       help="name=value (repeatable)")

    p = sub.add_parser("enumerate")
    common(p)

    p = sub.add_parser("verify")
    common(p)
    p.add_argument("--suite", default=None,
                   choices=["algebra", "path", "products", "all"])

    p = sub.add_parser("solve")
    common(p)

    p = sub.add_parser("scan")
    common(p)
    p.add_argument("--kind", default="order",
                   choices=["order", "apriori", "reconstruction"])
    p.add_argument("--radii", default=",".join(
        map(str, equation.SolveConfig.radii)))
    return ap


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        cfg = RunConfig.from_args(ns)
        if ns.cmd == "enumerate":
            return cmd_enumerate(cfg)
        if ns.cmd == "verify":
            return cmd_verify(cfg)
        if ns.cmd == "solve":
            return cmd_solve(cfg)
        if ns.cmd == "scan":
            return cmd_scan(cfg, ns.kind, _parse_radii(ns.radii))
        raise ConfigError("unknown command")
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except equation.NumericalAbort as exc:
        print("numerical abort: %s" % exc, file=sys.stderr)
        if cfg.out:     # a file of its own: diagnostics never enter a report
            try:
                _emit(cfg, "numerical-abort", {"message": str(exc),
                                               "diagnostics": exc.diagnostics})
                print("diagnostics written to %s"
                      % FSPath(cfg.out, "numerical-abort.json"), file=sys.stderr)
            except ConfigError as err:
                print("error: %s" % err, file=sys.stderr)
        return 3
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
