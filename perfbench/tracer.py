"""Spans around the calls into martquant's public functions.

The tracer patches each traced name where its callers look it up: a
function is replaced in every loaded ``martquant`` module whose globals hold
it (``dual_lloyd_1d`` is imported by name into ``chain``, ``mot`` and
``cli``; ``lp.solve`` is reached as ``lpmod.solve``), and a method is
replaced on its class.  A traced name that no longer exists is reported as
absent instead of failing, so the benchmark keeps running when a later
change deletes it.

Spans (name, start, end, parent, job id) are kept in memory while the
tracer is installed and written out by :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

MIB = float(1 << 20)

# module, attribute path; the module is the layer
TRACED = [
    ("martquant.primal", "lloyd_1d"),
    ("martquant.dual", "dual_lloyd_1d"),
    ("martquant.dual", "Triangulation2D.delaunay"),
    ("martquant.dual", "Triangulation2D.locate"),
    ("martquant.chain", "build_chain"),
    ("martquant.chain", "dual_transition_weights"),
    ("martquant.chain", "finite_noise_transition"),
    ("martquant.order", "convex_order_check"),
    ("martquant.lp", "solve"),
    ("martquant.mot", "mot_bounds"),
    ("martquant.mot", "stability_experiment"),
    ("martquant.archmc", "simulate_coupled"),
    ("martquant.archmc", "compare_truncation_bound"),
    ("martquant.cli", "run"),
]

# F/K evaluation methods of the 1D laws (the mixture transition law of
# ``chain`` included); only the outermost call of a nest is a span
LAW_METHODS = ("cdf", "cdf_left", "partial_moment", "cdf_moment_left_batch", "quantile", "density")
LAW_SPAN = "laws.eval"


def _span_name(module: str, path: str) -> str:
    return module.split(".", 1)[1] + "." + path


def _law_subclasses():
    from martquant.laws import Law1D

    seen, todo = [], [Law1D]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


class Tracer:
    """Installs span-recording wrappers; one instance per benchmark run."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, job id)
        self.counts = {}
        self.absent = []
        self.counter_errors = set()
        self.job = 0
        self._stack = []  # open span: [index, name, start, child seconds]
        self._open = {}  # name -> number of its spans on the stack
        self._self = {}  # name -> summed self time
        self._total = {}  # name -> summed time of non-nested spans
        self._calls = {}
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def _max(self, key, value):
        self.counts[key] = max(self.counts.get(key, 0), value)

    def _enter(self, name):
        self._open[name] = self._open.get(name, 0) + 1
        self._stack.append([len(self.spans), name, time.perf_counter(), 0.0])
        self.spans.append(None)

    def _exit(self, name):
        idx, _, start, child = self._stack.pop()
        end = time.perf_counter()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        self.spans[idx] = (name, start, end, parent[0] if parent else -1, self.job)
        if parent is not None:
            parent[3] += dur
        self._calls[name] = self._calls.get(name, 0) + 1
        self._self[name] = self._self.get(name, 0.0) + dur - child
        self._open[name] -= 1
        if not self._open[name]:
            self._total[name] = self._total.get(name, 0.0) + dur

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._exit(name)
                tracer._add(name + ".raised." + type(exc).__name__, 1)
                raise
            tracer._exit(name)
            if counter is not None:
                try:
                    counter(tracer, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    # the traced name changed its signature or result type
                    tracer.counter_errors.add(name)
            return result

        return wrapper

    def _wrap_law(self, fn):
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(law, *args, **kwargs):
            if stack and stack[-1][1] is LAW_SPAN:
                return fn(law, *args, **kwargs)
            tracer._enter(LAW_SPAN)
            try:
                return fn(law, *args, **kwargs)
            finally:
                tracer._exit(LAW_SPAN)
                u = args[0] if args else next(iter(kwargs.values()), 0.0)
                components = len(getattr(law, "theta_values", ())) or 1
                tracer._add("laws.eval_points", getattr(u, "size", 1) * components)

        return wrapper

    # -- installation ------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("martquant") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
                    self._undo.append((mod, key, original))

    def install(self):
        for module, path in TRACED:
            name = _span_name(module, path)
            mod = sys.modules.get(module)
            owner, _, attr = path.rpartition(".")
            target = getattr(mod, owner, None) if owner else mod
            if target is None or attr not in vars(target):
                self.absent.append(name)
                continue
            raw = vars(target)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__, COUNTERS.get(name)))
                setattr(target, attr, wrapped)
                self._undo.append((target, attr, raw))
            elif owner:
                setattr(target, attr, self._wrap(name, raw, COUNTERS.get(name)))
                self._undo.append((target, attr, raw))
            else:
                self._replace_everywhere(raw, self._wrap(name, raw, COUNTERS.get(name)))
        for cls in _law_subclasses():
            for attr in LAW_METHODS:
                raw = vars(cls).get(attr)
                if callable(raw):
                    setattr(cls, attr, self._wrap_law(raw))
                    self._undo.append((cls, attr, raw))

    def uninstall(self):
        while self._undo:
            obj, attr, raw = self._undo.pop()
            setattr(obj, attr, raw)

    # -- results -----------------------------------------------------------

    def reset(self, job):
        """Start a fresh job: layer aggregates restart, spans accumulate."""
        self.job = job
        self.counts = {}
        self._self, self._total, self._calls = {}, {}, {}

    def calls(self, name):
        return self._calls.get(name, 0)

    def seconds(self, name):
        return self._total.get(name, 0.0)

    def self_seconds(self, name):
        return self._self.get(name, 0.0)

    def count(self, key):
        return self.counts.get(key, 0)

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,job\n")
            for name, start, end, parent, job in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{job}\n")


# -- counters read from the arguments and results of a traced call ---------


def _count_quantizer(prefix):
    def counter(tr, args, kwargs, res):
        tr._add(prefix + ".iterations", int(getattr(res, "iterations", 0)))
        tr._add(prefix + ".converged", int(bool(getattr(res, "converged", False))))

    return counter


def _count_delaunay(tr, args, kwargs, res):
    points = args[1] if len(args) > 1 else kwargs["points"]
    tr._add("dual.Triangulation2D.delaunay.vertices", len(points))


def _count_locate(tr, args, kwargs, res):
    tri, queries = args[0], args[1] if len(args) > 1 else kwargs["queries"]
    q = np.atleast_2d(np.asarray(queries)).shape[0]
    tr._add("dual.Triangulation2D.locate.queries", q)
    # the dense (Q, T, 3) float64 barycentric array, computed from shapes
    tr._max("dual.Triangulation2D.locate.computed_mb", q * len(tri.triangles) * 3 * 8 / MIB)


def _count_chain(tr, args, kwargs, res):
    tr._add("chain.build_chain.steps", int(getattr(res, "n_steps", 0)))


def _count_order(tr, args, kwargs, res):
    tr._add("order.convex_order_check.dominated", int(bool(getattr(res, "dominated", False))))


def _count_lp(tr, args, kwargs, res):
    lp = args[0] if args else kwargs["lp"]
    rows, cols = lp.constraint_matrix.shape
    tr._add("lp.solve.iterations", int(getattr(res, "iterations", 0)))
    tr._max("lp.solve.max_vars", cols)
    # the dense constraint matrix, computed from its shape
    tr._max("lp.solve.computed_mb", rows * cols * 8 / MIB)


def _count_paths(tr, args, kwargs, res):
    steps, paths = res.exact.shape
    tr._add("archmc.path_steps", (steps - 1) * paths)


COUNTERS = {
    "primal.lloyd_1d": _count_quantizer("primal.lloyd_1d"),
    "dual.dual_lloyd_1d": _count_quantizer("dual.dual_lloyd_1d"),
    "dual.Triangulation2D.delaunay": _count_delaunay,
    "dual.Triangulation2D.locate": _count_locate,
    "chain.build_chain": _count_chain,
    "order.convex_order_check": _count_order,
    "lp.solve": _count_lp,
    "archmc.simulate_coupled": _count_paths,
}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer metrics of one traced job: name -> (value, unit)."""
    m = {}
    m["laws.eval_calls"] = (tr.calls(LAW_SPAN), "count")
    m["laws.eval_points"] = (tr.count("laws.eval_points"), "count")
    m["laws.eval_s"] = (tr.seconds(LAW_SPAN), "s")
    for name in ("primal.lloyd_1d", "dual.dual_lloyd_1d"):
        calls = tr.calls(name)
        m[name + ".calls"] = (calls, "count")
        m[name + ".s"] = (tr.seconds(name), "s")
        m[name + ".iterations"] = (tr.count(name + ".iterations"), "count")
        m[name + ".converged_ratio"] = (_ratio(tr.count(name + ".converged"), calls), "ratio")
    m["dual.dual_lloyd_1d.self_s"] = (tr.self_seconds("dual.dual_lloyd_1d"), "s")
    name = "dual.Triangulation2D.delaunay"
    m[name + ".calls"] = (tr.calls(name), "count")
    m[name + ".s"] = (tr.seconds(name), "s")
    m[name + ".vertices"] = (tr.count(name + ".vertices"), "count")
    name = "dual.Triangulation2D.locate"
    m[name + ".calls"] = (tr.calls(name), "count")
    m[name + ".s"] = (tr.seconds(name), "s")
    m[name + ".queries"] = (tr.count(name + ".queries"), "count")
    m[name + ".computed_mb"] = (tr.count(name + ".computed_mb"), "MiB")
    m["chain.build_chain.s"] = (tr.seconds("chain.build_chain"), "s")
    m["chain.build_chain.self_s"] = (tr.self_seconds("chain.build_chain"), "s")
    m["chain.dual_transition_weights.s"] = (tr.seconds("chain.dual_transition_weights"), "s")
    m["chain.finite_noise_transition.s"] = (tr.seconds("chain.finite_noise_transition"), "s")
    # each hull violation of a dual grid re-runs dual_lloyd_1d on a widened
    # hull: extra quantizer calls per chain step
    retries = tr.count("chain.dual_transition_weights.raised.HullViolation")
    m["chain.hull_retries"] = (_ratio(retries, tr.count("chain.build_chain.steps")), "1/step")
    name = "order.convex_order_check"
    m[name + ".calls"] = (tr.calls(name), "count")
    m[name + ".s"] = (tr.seconds(name), "s")
    m[name + ".self_s"] = (tr.self_seconds(name), "s")
    m["order.dominated_ratio"] = (_ratio(tr.count(name + ".dominated"), tr.calls(name)), "ratio")
    m["lp.solve.calls"] = (tr.calls("lp.solve"), "count")
    m["lp.solve.s"] = (tr.seconds("lp.solve"), "s")
    m["lp.solve.iterations"] = (tr.count("lp.solve.iterations"), "count")
    m["lp.solve.computed_mb"] = (tr.count("lp.solve.computed_mb"), "MiB")
    m["lp.solve.max_vars"] = (tr.count("lp.solve.max_vars"), "count")
    name = "mot.mot_bounds"
    m[name + ".calls"] = (tr.calls(name), "count")
    m[name + ".s"] = (tr.seconds(name), "s")
    m[name + ".self_s"] = (tr.self_seconds(name), "s")
    m["mot.stability_experiment.s"] = (tr.seconds("mot.stability_experiment"), "s")
    m["archmc.simulate_coupled.calls"] = (tr.calls("archmc.simulate_coupled"), "count")
    sim_s = tr.seconds("archmc.simulate_coupled")
    m["archmc.simulate_coupled.s"] = (sim_s, "s")
    m["archmc.path_steps"] = (tr.count("archmc.path_steps"), "count")
    m["archmc.path_steps_per_s"] = (_ratio(tr.count("archmc.path_steps"), sim_s), "1/s")
    m["archmc.compare_truncation_bound.s"] = (tr.seconds("archmc.compare_truncation_bound"), "s")
    m["cli.run.s"] = (tr.seconds("cli.run"), "s")
    m["cli.self_s"] = (tr.self_seconds("cli.run"), "s")
    return m
