"""Per-layer tracing, installed at run time around phi4local's public API.

Each layer is one module of the package.  ``install`` replaces the public
functions, constructors and methods of those modules with wrappers, also
where other modules imported them by name (``lift.heat_solve``), and leaves
the source untouched.

A wrapper opens a span only when the call crosses into another layer, or for
the few functions in ``TIMED`` whose own time is reported.  Calls inside one
layer are only counted, which keeps the traced run close to the untraced one.
A layer's self time is the time of its spans minus the time of the spans
opened inside them.  Spans are aggregated in memory as they close and turned
into per-layer metrics when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

LAYERS = ("symtree", "coalgebra", "coeffs", "field", "lift", "path",
          "equation", "cli")

# Tree-construction primitives run millions of times per job (canon alone
# ~5.6M on algebra); even a counting wrapper would dominate, so they stay
# unwrapped and their time counts towards the layer that calls them.
UNWRAPPED = {
    "symtree.Tree", "symtree.I", "symtree.Ip", "symtree.Im", "symtree.X",
    "symtree.prod3", "symtree.canon", "symtree.sign_of", "symtree.tree_name",
    "symtree.order", "symtree.leq", "symtree.subset",
    "symtree.TreeUniverse.order", "symtree.TreeUniverse.member",
}
# The memoised cut maps (~6.9M calls per algebra job): a bare call counter,
# never a span.
COUNTED = {"coalgebra.Coalgebra.cminus", "coalgebra.Coalgebra.cplus"}
# Always spanned, also when called from their own layer, so that their
# inclusive time is known.
TIMED = {"field.heat_solve", "field.Mollifier.smooth", "path.Path.__init__",
         "equation.solve_remainder", "cli._emit"}
# Private names wrapped in addition to the public API.
EXTRA = {"cli": ("_emit",)}


class Tracer:
    """Span stack and aggregates of one traced process."""

    def __init__(self):
        self.stack = []                     # open spans: [layer, child seconds]
        self.calls = defaultdict(int)       # qualified name -> calls
        self.incl = defaultdict(float)      # qualified name -> span seconds
        self.self_s = defaultdict(float)    # layer -> self seconds
        self.fn_self = defaultdict(float)   # qualified name -> self seconds
        self.extra = defaultdict(float)     # counts read from arguments/results
        self.coalgebras = []                # instances created in this job
        self.mollifiers = []
        self.flushers = []                  # push counted() cells into calls

    def reset(self) -> None:
        """Forget everything recorded so far (used after the warm-up job).
        The wrappers hold the dicts, so they are cleared in place."""
        self.flush()
        for table in (self.calls, self.incl, self.self_s,
                      self.fn_self, self.extra):
            table.clear()
        self.coalgebras = []
        self.mollifiers = []

    def flush(self) -> None:
        for flush in self.flushers:
            flush()

    def end_job(self) -> None:
        """Read the memo sizes of the job's instances, then drop them."""
        for cg in self.coalgebras:
            self.extra["cut_misses"] += len(cg._cminus) + len(cg._cplus)
        for mol in self.mollifiers:
            self.extra["kernel_misses"] += len(mol._kernels)
        self.coalgebras = []
        self.mollifiers = []

    # -- wrappers -----------------------------------------------------------

    def counted(self, fn, qual):
        """Counter for a two-argument method; a closure cell is the cheapest
        counter CPython has, flushed into ``calls`` when results are read."""
        n = 0
        calls = self.calls

        def wrapper(obj, a, b):
            nonlocal n
            n += 1
            return fn(obj, a, b)

        def flush():
            nonlocal n
            calls[qual] += n
            n = 0
        self.flushers.append(flush)
        return functools.wraps(fn)(wrapper)

    def spanned(self, fn, qual, layer):
        calls, incl, fn_self = self.calls, self.incl, self.fn_self
        self_s, stack, perf = self.self_s, self.stack, time.perf_counter
        timed = qual in TIMED
        hook = HOOKS.get(qual)
        tracer = self

        def wrapper(*args, **kwargs):
            calls[qual] += 1
            if not timed and stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = [layer, 0.0]
                stack.append(frame)
                t0 = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = perf() - t0
                    stack.pop()
                    own = dur - frame[1]
                    self_s[layer] += own
                    fn_self[qual] += own
                    incl[qual] += dur
                    if stack:
                        stack[-1][1] += dur
            if hook is not None:
                hook(tracer, args, result)
            return result
        return functools.wraps(fn)(wrapper)

    # -- results --------------------------------------------------------------

    def layer_metrics(self, jobs: int) -> dict:
        """Per-layer metrics as per-job means over ``jobs`` traced jobs."""
        self.flush()
        c, x = self.calls, self.extra
        per = 1.0 / jobs
        metrics = {}

        def put(name, value, unit):
            metrics[name] = (value, unit)

        for layer in LAYERS:
            put(layer + ".self_s", self.self_s[layer] * per, "s")

        put("symtree.enumerate_calls", c["symtree.enumerate_universe"] * per, "count")
        put("symtree.universe_trees", x["universe_trees"] * per, "count")
        put("symtree.interned_trees", x["interned_trees"], "count")

        cut_calls = c["coalgebra.Coalgebra.cminus"] + c["coalgebra.Coalgebra.cplus"]
        put("coalgebra.renorm_expand_calls",
            c["coalgebra.Coalgebra.renorm_expand"] * per, "count")
        put("coalgebra.cminus_calls", c["coalgebra.Coalgebra.cminus"] * per, "count")
        put("coalgebra.cplus_calls", c["coalgebra.Coalgebra.cplus"] * per, "count")
        put("coalgebra.delta_calls", c["coalgebra.Coalgebra.delta"] * per, "count")
        put("coalgebra.cut_memo_hit_ratio",
            _ratio(cut_calls - x["cut_misses"], cut_calls), "ratio")
        put("coalgebra.identity_rows", x["rows.coalgebra"] * per, "count")

        put("coeffs.identity_rows", x["rows.coeffs"] * per, "count")

        kernel_calls = c["field.Mollifier.kernel"]
        put("field.heat_solve_calls", c["field.heat_solve"] * per, "count")
        put("field.heat_solve_s", self.incl["field.heat_solve"] * per, "s")
        put("field.march_steps", x["march_steps"] * per, "count")
        put("field.march_bytes_computed", x["march_bytes"] * per, "B")
        put("field.smooth_calls", c["field.Mollifier.smooth"] * per, "count")
        put("field.smooth_s", self.incl["field.Mollifier.smooth"] * per, "s")
        put("field.kernel_memo_hit_ratio",
            _ratio(kernel_calls - x["kernel_misses"], kernel_calls), "ratio")
        put("field.grid_alloc_calls",
            (c["field.Grid.zeros"] + c["field.Grid.ones"]) * per, "count")

        put("lift.build_calls", c["lift.build_local_product"] * per, "count")
        put("lift.stored_fields", x["lift_fields"] * per, "count")
        put("lift.table_mb", x["lift_bytes"] * per / 1e6, "MB")

        evals = c["path.Path.value_at"]
        eval_s = self.self_s["path"] - self.fn_self["path.Path.__init__"]
        put("path.build_s", self.incl["path.Path.__init__"] * per, "s")
        put("path.point_evals", evals * per, "count")
        put("path.point_eval_us", 1e6 * eval_s / evals if evals else 0.0, "us")
        put("path.table_mb", x["path_bytes"] * per / 1e6, "MB")

        steps = x["solve_steps"]
        solve_s = self.incl["equation.solve_remainder"]
        put("equation.solve_calls", c["equation.solve_remainder"] * per, "count")
        put("equation.solve_steps", steps * per, "count")
        put("equation.solve_step_us", 1e6 * solve_s / steps if steps else 0.0, "us")
        put("equation.utau_evals", c["equation.u_tau_at"] * per, "count")

        put("cli.emit_s", self.incl["cli._emit"] * per, "s")
        return metrics



def _ratio(hits, lookups) -> float:
    """Hit ratio; 1.0 when there were no lookups, since nothing missed."""
    return hits / lookups if lookups else 1.0


# -- hooks: counts read off arguments and results ------------------------------

def _nbytes(tables, skip=frozenset()) -> tuple:
    """(number, bytes) of distinct arrays held in the given dicts."""
    seen = {}
    for table in tables:
        for arr in table.values():
            if hasattr(arr, "nbytes") and id(arr) not in skip:
                seen[id(arr)] = arr.nbytes
    return len(seen), sum(seen.values())


def _lift_tables(lp) -> list:
    return [lp._X, lp._ell, lp._grad]


def _on_enumerate(tr, args, u):
    from phi4local import symtree
    tr.extra["universe_trees"] += len(u.T)
    tr.extra["interned_trees"] = len(symtree._intern_table)


def _on_heat_solve(tr, args, out):
    grid = args[0]
    n_levels = grid.nt - 1
    tr.extra["march_steps"] += n_levels * grid.substeps
    # per march step: read the two bracketing right-hand-side rows and u,
    # write u; per stored level: write one output row; up front: read
    # cutoff and f, write their product
    tr.extra["march_bytes"] += 8 * grid.nx * (
        4 * n_levels * grid.substeps + n_levels + 3 * grid.nt)


def _on_build(tr, args, lp):
    n, b = _nbytes(_lift_tables(lp))
    tr.extra["lift_fields"] += n
    tr.extra["lift_bytes"] += b


def _on_path(tr, args, _none):
    p = args[0]
    shared = {id(a) for t in _lift_tables(p.lp) for a in t.values()}
    _n, b = _nbytes([p.A, p.nu, p.cen_I, p.cen_Ip, p.diag, p.diag_im], shared)
    tr.extra["path_bytes"] += b


def _on_solve(tr, args, rec):
    tr.extra["solve_steps"] += rec["steps"]


def _rows(layer):
    def hook(tr, args, rows):
        tr.extra["rows." + layer] += len(rows)
    return hook


HOOKS = {
    "symtree.enumerate_universe": _on_enumerate,
    "coalgebra.Coalgebra.__init__": lambda tr, args, _: tr.coalgebras.append(args[0]),
    "field.Mollifier.__init__": lambda tr, args, _: tr.mollifiers.append(args[0]),
    "field.heat_solve": _on_heat_solve,
    "lift.build_local_product": _on_build,
    "path.Path.__init__": _on_path,
    "equation.solve_remainder": _on_solve,
}
HOOKS.update({"coalgebra.Coalgebra." + name: _rows("coalgebra") for name in (
    "verify_coassoc", "verify_explicit_formula", "verify_delta_ranges",
    "verify_renorm_commute")})
HOOKS.update({"coeffs." + name: _rows("coeffs")
              for name in ("check_cube_identity", "check_coherence")})


# -- installation ---------------------------------------------------------------

def install() -> Tracer:
    """Wrap the layers' public API in place and return the recording tracer."""
    tracer = Tracer()
    mods = {layer: importlib.import_module("phi4local." + layer) for layer in LAYERS}
    replaced = {}                       # id(original) -> wrapper

    def wrap(fn, qual, layer):
        if qual in COUNTED:
            w = tracer.counted(fn, qual)
        else:
            w = tracer.spanned(fn, qual, layer)
        replaced[id(fn)] = w
        return w

    for layer, mod in mods.items():
        names = [n for n in vars(mod) if not n.startswith("_")]
        names += EXTRA.get(layer, ())
        for name in names:
            obj = getattr(mod, name)
            qual = "%s.%s" % (layer, name)
            if qual in UNWRAPPED or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                if not issubclass(obj, BaseException):
                    _wrap_class(obj, qual, layer, wrap)
            elif callable(obj):
                setattr(mod, name, wrap(obj, qual, layer))

    # names bound by ``from .x import y`` in the other modules and the package
    for mod in list(mods.values()) + [importlib.import_module("phi4local")]:
        for name, obj in list(vars(mod).items()):
            w = replaced.get(id(obj))
            if w is not None:
                setattr(mod, name, w)
    return tracer


def _wrap_class(cls, qual, layer, wrap) -> None:
    for name, attr in list(vars(cls).items()):
        if name.startswith("_") and name != "__init__":
            continue
        mqual = "%s.%s" % (qual, name)
        if mqual in UNWRAPPED:
            continue
        if isinstance(attr, (classmethod, staticmethod)):
            setattr(cls, name, type(attr)(wrap(attr.__func__, mqual, layer)))
        elif callable(attr) and not isinstance(attr, type):
            setattr(cls, name, wrap(attr, mqual, layer))
