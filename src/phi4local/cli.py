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
    ENUMERATION_CAP, PROD, XI, EnumerationCapExceeded, I, InadmissibleDelta,
    enumerate_universe, parse_delta, tree_name,
)


# Stored nodes (nt x nx), and nodes (substeps x nx) of a heat solve's forcing
# block, a --grid may ask for.  A whole-grid field takes 8 B a node, and a
# path's tables hold ~180 fields (114 MB on the default grid's 79,323 nodes).
# FINE_GRID has 1,639 x 385 = 631,015 stored nodes and a 16 x 385 block.
MAX_GRID_NODES = 10 ** 6


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
        for name in ("delta", "dim", "grid", "noise", "lift", "out", "seed"):
            v = getattr(ns, name, None)
            if v is not None:
                setattr(cfg, name, v)
        if getattr(ns, "suite", None):
            cfg.suite = ns.suite
        for item in (getattr(ns, "tol", None) or []):
            name, _, val = item.partition("=")
            cfg.tol[name] = _parse_as(float, val, "tolerance %r" % name)
        unknown = sorted(set(cfg.tol) - {"chen", "cube", "utau"})
        if unknown:
            raise ConfigError("unknown tolerance %s (the suites read chen, "
                              "cube and utau)" % ", ".join(map(repr, unknown)))
        for name, val in sorted(cfg.tol.items()):
            if not 0 <= val < math.inf:     # NaN fails both comparisons
                raise ConfigError("tolerance %r must be finite and >= 0, got %r"
                                  % (name, val))
        for name, low in (("dim", 1), ("seed", 0), ("max_m_xi", 0)):
            if getattr(cfg, name) < low:
                raise ConfigError("%s must be >= %d, got %d"
                                  % (name, low, getattr(cfg, name)))
        numeric = ns.cmd in ("solve", "scan") or (
            ns.cmd == "verify" and cfg.suite != "algebra")
        if numeric and cfg.dim != 1:
            raise ConfigError("the numerical layer supports --dim 1 only (got "
                              "%d); enumerate and verify --suite algebra take "
                              "any dim" % cfg.dim)
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
                        sub[n.strip()] = _parse_as(float, v, "tolerance %r" % n.strip())
                    data[key] = sub
                else:
                    data[key] = val
        cfg = cls()
        for key, val in data.items():
            if not hasattr(cfg, key):
                raise ConfigError("unknown config key %r" % key)
            cur = getattr(cfg, key)
            if as_json and not _json_type_fits(cur, val):
                raise ConfigError("config key %r cannot take the JSON value %s"
                                  % (key, json.dumps(val)))
            if isinstance(cur, int) and key != "tol":
                val = _parse_as(int, val, "config key %r" % key)
            setattr(cfg, key, val)
        return cfg

    def make_grid(self) -> fieldmod.Grid:
        if not self.grid:
            return fieldmod.DEFAULT_GRID
        parts = self.grid.split(",")
        if len(parts) != 3:
            raise ConfigError("grid takes h,k,S, got %r" % self.grid)
        h, k, S = (_parse_number(x) for x in parts)
        if not all(math.isfinite(v) and v > 0 for v in (h, k, S)):
            raise ConfigError("grid h, k and S must be positive and finite, "
                              "got %r" % self.grid)
        if S <= fieldmod.Grid.MIN_S:
            raise ConfigError("grid S must exceed %g, or the cutoff vanishes "
                              "on the unit cylinder, got %r"
                              % (fieldmod.Grid.MIN_S, self.grid))
        nx = 2 * S / h + 1
        nodes = nx * ((fieldmod.Grid.t1 - fieldmod.Grid.t0) / k + 1)
        if nodes > MAX_GRID_NODES:
            raise ConfigError("grid %r has ~%.3g stored nodes, above the bound "
                              "of %d" % (self.grid, nodes, MAX_GRID_NODES))
        sub = max(1, int(math.ceil(k / (h * h / 4))))
        if sub * nx > MAX_GRID_NODES:
            raise ConfigError("grid %r marches %d substeps of ~%d nodes, above "
                              "the bound of %d" % (self.grid, sub, nx, MAX_GRID_NODES))
        return fieldmod.Grid(S=S, h=h, k_store=k, substeps=sub)

    def make_noise(self, grid) -> np.ndarray:
        kind, _, rest = self.noise.partition(":")
        seed_s, _, eps_s = rest.partition(":")
        try:
            seed = int(seed_s or 0)
        except ValueError:
            raise ConfigError("noise seed must be an integer, got %r"
                              % seed_s) from None
        eps = _parse_number(eps_s) if eps_s else 0.0
        if not (math.isfinite(eps) and eps >= 0):
            raise ConfigError("noise eps must be finite and >= 0 (0 for the "
                              "default), got %r" % eps_s)
        if kind == "gauss":
            eps = eps or fieldmod.DEFAULT_NOISE_EPS_CELLS * grid.h
            if not fieldmod.kernel_fits(grid, eps):
                raise ConfigError("noise eps %g: its kernel does not fit the "
                                  "grid, so the noise would be 0 everywhere" % eps)
        try:
            return fieldmod.noise_field(grid, kind, seed=seed, eps=eps or None)
        except ValueError as exc:
            raise ConfigError("noise %r: %s" % (self.noise, exc)) from exc

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


def _parse_number(s: str) -> float:
    s = s.strip()
    try:
        return float(Fraction(s)) if "/" in s else float(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError("not a number: %r" % s) from exc


def _parse_as(kind, text, what: str):
    try:
        return kind(text)
    except ValueError:
        raise ConfigError("%s takes a number (%s), got %r"
                          % (what, kind.__name__, text)) from None


def _parse_radii(text: str) -> tuple:
    radii = tuple(_parse_number(x) for x in text.split(","))
    if not all(0 < R < 1 for R in radii):
        raise ConfigError("radii must lie in (0, 1), got %r" % text)
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
        raise ConfigError("delta must be p/q in (0, 1), got %r" % cfg.delta) from exc
    # Each odd leaf count below 3/delta has a pure-noise product: a small delta
    # is over the cap before check_delta_admissible walks ~24/delta points.
    if (3 / delta - 3) / 2 > ENUMERATION_CAP or cfg.dim > ENUMERATION_CAP:
        raise ConfigError("delta %s with dim %d is over the enumeration cap of "
                          "%d trees" % (cfg.delta, cfg.dim, ENUMERATION_CAP))
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
        rmap, rep = liftmod.phi43_counterterms(
            grid, u, seeds, eps, kind=noise_kind if noise_kind != "zero" else "gauss")
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
            if not np.all(np.isfinite(f)):
                raise ConfigError("custom field %r has non-finite values" % name)
            custom[t] = f
        return liftmod.build_local_product(grid, u, xi, custom=custom, coalg=cg), None
    raise ConfigError("unknown lift kind %r" % cfg.lift)


def _build_path(cfg: RunConfig, cg):
    """The Path of a numeric command over cg's universe, and the lift's
    ensemble report (None unless the lift is phi43)."""
    lp, lift_rep = _build_lift(cfg, cfg.make_grid(), cg.u, cg)
    return pathmod.Path(lp), lift_rep


def _smooth_v1(grid) -> np.ndarray:
    """The smooth base function of the cube-formula checks."""
    return 0.5 + 0.3 * np.sin(2.0 * grid.x_field) * np.cos(1.5 * grid.t_field)


def _summary_row(identity: str, residuals, tol: float) -> dict:
    """The report row of an identity from its largest residual.  np.max keeps
    a NaN that max() would drop, and a non-finite maximum reads FAIL."""
    worst = float(np.max(residuals)) if len(residuals) else 0.0
    ok = math.isfinite(worst) and worst <= tol
    return {"identity": identity, "tree": "*", "status": "pass" if ok else "FAIL",
            "residual": worst}


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
        return _build_path(cfg, cg)[0]

    def run_path():
        p = path()
        grid, lp = p.grid, p.lp
        rng = np.random.default_rng(cfg.seed)
        probe = grid.probe_mask()
        nodes = pathmod.sample_nodes(grid, probe, rng, 3 * 50)
        tol = cfg.tol.get("chen", 1e-8)
        triples = [nodes[n:n + 3] for n in range(0, len(nodes) - 2, 3)]
        pairs = [nodes[n:n + 2] for n in range(0, len(nodes) - 1, 2)]
        rows = [
            _summary_row("chen", [p.chen_residual(s, z, uu, x)[1]
                                  for s in u.T for z, uu, x in triples], tol),
            _summary_row("strong-chen", [p.strong_chen_residual(I(t), x, y)[1]
                                         for t in u.N for x, y in pairs], tol),
            _summary_row("derivative-edge", [
                p.derivative_residual(t, z, x)[1]
                for t in u.T_r for z, x in pairs if 0 < z[1] < grid.nx - 1], tol),
        ]
        if lp.rmap is not None:
            ruid = lp.rmap.as_uid_map()
            rows.append(_summary_row("path-rewrite", [
                p.renorm_path_residual(ruid, t, z, x)[1]
                for t in u.T_r if t.kind == PROD for z, x in pairs], tol))
            rows += liftmod.extension_consistency_report(lp)
        reports["path"] = rows
        failures.extend(coalgebra.report_failures(rows))

    def run_products():
        p = path()
        lp = p.lp
        v1 = _smooth_v1(p.grid)
        rel = equation.cube_formula_check(p, lp.rmap, v1)
        tol = cfg.tol.get("cube", 1e-8 if lp.rmap is not None else 1e-10)
        rows = [_summary_row("cube-formula", [rel], tol)]
        e = equation.TreeExpansion(p, v1)
        gamma = coeffs.pick_gamma(u, Fraction(3, 2))
        mn = equation.modelled_norms(p, e, gamma, n_pairs=60, seed=cfg.seed)
        tol = cfg.tol.get("utau", 1e-8)
        rows.append(_summary_row("utau-classified", [mn.max_rel_mismatch], tol))
        tp = equation.three_point_residual(p, e, gamma, n_triples=40, seed=cfg.seed)
        rows.append(_summary_row("three-point", [tp["max_rel_residual"]], tol))
        reports["products"] = rows
        failures.extend(coalgebra.report_failures(rows))

    suites = {"algebra": run_algebra, "path": run_path, "products": run_products}
    if cfg.suite == "all":
        for fn in suites.values():
            fn()
    elif cfg.suite in suites:
        suites[cfg.suite]()
    else:
        raise ConfigError("unknown suite %r" % cfg.suite)
    _emit(cfg, "verify-%s" % cfg.suite, {
        "config": cfg.descriptor(),
        "reports": reports,
        "failures": failures,
    })
    return 1 if failures else 0


def cmd_solve(cfg: RunConfig) -> int:
    p, lift_rep = _build_path(cfg, coalgebra.Coalgebra(_universe(cfg)))
    u, grid = p.u, p.grid
    co = equation.remainder_coeffs(p)
    trace = equation.BoundaryTrace("smooth", 1.0, seed=cfg.seed)
    batch = equation.solve_remainder(p, co, [trace])
    run, = batch["runs"]
    rec = {"trace": run["trace"], "k": batch["k"], "h": batch["h"],
           "steps": batch["steps"], "norms": run["norms"]}
    cube = equation.cube_formula_check(p, p.lp.rmap, _smooth_v1(grid))
    rng = np.random.default_rng(cfg.seed)
    nodes = pathmod.sample_nodes(grid, grid.probe_mask(), rng, 9)
    chen = max(p.chen_residual(s, nodes[n], nodes[n + 1], nodes[n + 2])[1]
               for s in u.T_r[:4] for n in range(0, 7, 3))
    rec["residuals"] = {"cube_formula": cube,
                        "chen_spot": chen}
    _emit(cfg, "solve", {"config": cfg.descriptor(), "run": rec,
                         "lift": lift_rep})
    return 0


def cmd_scan(cfg: RunConfig, kind: str, radii) -> int:
    h = cfg.make_grid().h
    scales = [L for L in (1 / 16, 1 / 8, 1 / 4, 1 / 2) if L >= 2 * h]
    if len(scales) < 3:     # each scan fits a slope or a decay over the scales
        raise ConfigError("a scan needs 3 scales L >= 2h among 1/16, 1/8, 1/4 "
                          "and 1/2; grid h = %g leaves %d" % (h, len(scales)))
    p, _ = _build_path(cfg, coalgebra.Coalgebra(_universe(cfg)))
    u, grid = p.u, p.grid
    if kind == "order":
        sigmas = [s for s in (u.T_cen + u.T_r) if s.m_xi <= 3]
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
        rep = equation.reconstruction_check(p, e, XI, XI, scales)
        _emit(cfg, "scan-reconstruction", {"config": cfg.descriptor(), **rep})
        return 0
    raise ConfigError("unknown scan kind %r" % kind)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="phi4local")
    ap.add_argument("--config", default=None)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--delta", default=None)
        p.add_argument("--dim", type=int, default=None)
        p.add_argument("--grid", default=None, help="h,k,S")
        p.add_argument("--noise", default=None, help="kind:seed:eps")
        p.add_argument("--lift", default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tol", action="append", default=None,
                       help="name=value (repeatable)")

    p = sub.add_parser("enumerate")
    common(p)

    p = sub.add_parser("verify")
    common(p)
    p.add_argument("--suite", default="all",
                   choices=["algebra", "path", "products", "all"])

    p = sub.add_parser("solve")
    common(p)

    p = sub.add_parser("scan")
    common(p)
    p.add_argument("--kind", default="order",
                   choices=["order", "apriori", "reconstruction"])
    p.add_argument("--radii", default="0.1,0.2,0.4")
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
