"""Per-layer tracing of gradridge from outside the package.

``Tracer.install`` wraps every public function and method that a layer module
defines, wherever the package holds a reference to it: in the defining
module, in every module that bound it with ``from .x import y`` (so
``gradridge.ridge.sample`` and ``gradridge.measure.sym_eig`` are wrapped
too), and in module-level dicts such as the CLI's runner table. Methods are
wrapped only in the class that defines them, so ``estimate_h``'s check for an
overridden ``jacobian_batch`` sees what it sees untraced. No file of the
package is edited.

A span records its name (``layer.qualname``), thread id, start, end, parent
span, a work count taken from the call's arguments, and whether it raised.
Spans stay in memory and are written out once, when the traced process ends.
``layer_metrics`` reduces them to the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

LAYERS = ("measure", "linalg", "projector", "models", "pde", "ridge",
          "sensitivity", "experiments")

# Modules whose globals may hold a reference to a wrapped callable.
PACKAGE = ("gradridge", "gradridge.cli") + tuple("gradridge." + m for m in LAYERS)

ID, NAME, TID, START, END, PARENT, AMOUNT, FAILED = range(8)

# Work count recorded per span, computed from the call's arguments before the
# call runs (``args[0]`` is ``self`` for methods).
AMOUNTS = {
    "measure.SampleStream.standard_normal":
        lambda a, k: int(a[1] if len(a) > 1 else k["count"]),
    # 1 when the call factorizes, 0 when it returns the factor cached on an
    # SpdMatrix; failed factorizations are the nugget retries.
    "linalg.cholesky":
        lambda a, k: 0 if getattr(a[0] if a else k["a"], "_chol", None) is not None else 1,
}


def _rows(a, k):
    return len(a[1] if len(a) > 1 else k["xs"])


def _amount_fn(name):
    if name in AMOUNTS:
        return AMOUNTS[name]
    if name.startswith("models.") and name.endswith(".eval_batch"):
        return _rows
    return None


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name, amount=0, parent=None):
        stack = self._stack()
        if parent is None:
            parent = stack[-1][ID] if stack else -1
        rec = [next(self._ids), name, threading.get_ident(), time.perf_counter(),
               0.0, parent, amount, 0]
        stack.append(rec)
        return rec

    def close(self, rec, failed):
        rec[END] = time.perf_counter()
        rec[FAILED] = int(failed)
        self._stack().pop()
        self.spans.append(rec)  # list.append is atomic under the GIL

    def call(self, name, fn, args, kwargs, amount=0, parent=None):
        rec = self.open(name, amount, parent)
        ok = False
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            self.close(rec, failed=not ok)

    def wrap(self, name, fn):
        amount = _amount_fn(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            n = amount(args, kwargs) if amount else 0
            return tracer.call(name, fn, args, kwargs, n)

        return traced

    def _wrap_map_chunks(self, fn):
        """ridge._map_chunks runs estimate_h's and validate_error's chunks,
        on a thread pool when threads > 1. Each chunk becomes a ``ridge.chunk``
        span on the thread that runs it (amount 1 when pooled), under a
        ``ridge.pool`` span whose amount is the worker count."""
        tracer = self

        @functools.wraps(fn)
        def traced(chunk_fn, n_chunks, threads):
            pooled = threads > 1 and n_chunks > 1
            if not pooled:
                def chunk(i):
                    return tracer.call("ridge.chunk", chunk_fn, (i,), {})
                return fn(chunk, n_chunks, threads)
            pool = tracer.open("ridge.pool", amount=min(int(threads), n_chunks))

            def pooled_chunk(i):
                return tracer.call("ridge.chunk", chunk_fn, (i,), {}, 1, pool[ID])

            ok = False
            try:
                result = fn(pooled_chunk, n_chunks, threads)
                ok = True
                return result
            finally:
                tracer.close(pool, failed=not ok)

        return traced

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, (classmethod, staticmethod)):
                self._set(cls, attr, type(obj)(self.wrap(name, obj.__func__)))
            elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                self._set(cls, attr, self.wrap(name, obj))

    def install(self):
        """Wrap the package in place; ``uninstall`` restores it."""
        modules = [importlib.import_module(m) for m in PACKAGE]
        wrapped = {}  # id(original) -> wrapper
        for layer in LAYERS:
            mod = importlib.import_module("gradridge." + layer)
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                    wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        ridge = importlib.import_module("gradridge.ridge")
        self._set(ridge, "_map_chunks", self._wrap_map_chunks(ridge._map_chunks))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        if id(value) in wrapped:
                            self._undo.append((obj, key, value))
                            obj[key] = wrapped[id(value)]
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo = []

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _covered(children, start, end):
    """Length of [start, end] covered by the union of the children's spans."""
    total = 0.0
    reach = start
    for c in sorted(children, key=lambda s: s[START]):
        lo = max(c[START], reach)
        hi = min(c[END], end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_metrics(spans, wall_s, n_ranks, artifact_bytes):
    """Per-layer metrics from one traced run's spans.

    ``*_self_s`` is a span's duration minus the part its child spans cover,
    summed over spans; other ``*_s`` metrics are inclusive time, counting a
    span only when no ancestor has the same name. Pooled chunks run on
    worker threads, so on a pooled run the layer self times add up the time
    of every worker; ``trace.unattributed_s``, the wall time no layer
    accounts for, counts that parallel time once.
    """
    by_id = {s[ID]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s[PARENT]].append(s)
    self_time = {s[ID]: (s[END] - s[START]) - _covered(children[s[ID]], s[START], s[END])
                 for s in spans}

    def ancestors(s):
        while s[PARENT] in by_id:
            s = by_id[s[PARENT]]
            yield s

    def select(pred):
        return [s for s in spans if pred(s[NAME])]

    def inclusive(pred):
        return sum(s[END] - s[START] for s in select(pred)
                   if not any(pred(a[NAME]) for a in ancestors(s)))

    def selfsum(items):
        return sum(self_time[s[ID]] for s in items)

    def named(name):
        return lambda n: n == name

    def owner(s):
        """The ridge entry point a chunk or pool span works for."""
        for a in ancestors(s):
            if a[NAME] in ("ridge.estimate_h", "ridge.validate_error"):
                return a[NAME]
        return None

    def ridge_self(entry):
        own = select(named(entry))
        helpers = [s for s in spans
                   if s[NAME] in ("ridge.chunk", "ridge.pool") and owner(s) == entry]
        return selfsum(own + helpers)

    def layer_of(name):
        return name.split(".", 1)[0]

    chol = select(named("linalg.cholesky"))
    factorizations = sum(s[AMOUNT] for s in chol)
    pooled = [s for s in spans if s[NAME] == "ridge.chunk" and s[AMOUNT]]
    pools = select(named("ridge.pool"))
    pool_capacity = sum((s[END] - s[START]) * s[AMOUNT] for s in pools)
    busy = sum(s[END] - s[START] for s in pooled)
    # Worker time that runs in parallel: chunk time beyond the wall time the
    # chunks cover. Layer self times count it once per worker.
    parallel = busy - sum(_covered(children[p[ID]], p[START], p[END]) for p in pools)
    sobol = select(named("sensitivity.sobol_estimates"))
    sobol_ids = {s[ID] for s in sobol}
    model_evals = select(lambda n: n.startswith("models.") and n.endswith(".eval_batch"))
    sobol_points = sum(s[AMOUNT] for s in model_evals
                       if any(a[ID] in sobol_ids for a in ancestors(s)))
    builds = len(select(named("projector.RankRProjector.__init__")))

    out = {
        "linalg.sym_eig_s": inclusive(named("linalg.sym_eig")),
        "linalg.sym_eig_calls": len(select(named("linalg.sym_eig"))),
        "linalg.generalized_eig_self_s": selfsum(select(named("linalg.generalized_eig"))),
        "linalg.trace_quadratic_s": inclusive(named("linalg.trace_quadratic")),
        "linalg.trace_quadratic_calls": len(select(named("linalg.trace_quadratic"))),
        "linalg.cholesky_s": inclusive(named("linalg.cholesky")),
        "linalg.cholesky_calls": factorizations,
        "linalg.cholesky_failed":
            sum(s[FAILED] for s in chol if s[AMOUNT]) / factorizations if factorizations else 0.0,
        "projector.build_s": inclusive(lambda n: layer_of(n) == "projector"),
        "projector.builds": builds,
        "projector.builds_per_rank": builds / n_ranks if n_ranks else 0.0,
        "ridge.estimate_h_self_s": ridge_self("ridge.estimate_h"),
        "ridge.ridge_eval_self_s":
            selfsum(select(lambda n: n.startswith("ridge.RidgeApproximation.eval"))),
        "ridge.validate_self_s": ridge_self("ridge.validate_error"),
        "ridge.pool_busy_s": busy,
        "ridge.pool_eff": busy / pool_capacity if pool_capacity else 0.0,
        "pde.eval_s": inclusive(named("pde.DiffusionModel.eval")),
        "pde.evals": len(select(named("pde.DiffusionModel.eval"))),
        "pde.jacobian_s": inclusive(named("pde.DiffusionModel.jacobian")),
        "pde.jacobians": len(select(named("pde.DiffusionModel.jacobian"))),
        "pde.covariance_s": inclusive(named("pde.build_field_covariance")),
        "measure.sample_s": inclusive(named("measure.sample")),
        "measure.normals": sum(s[AMOUNT] for s in
                               select(named("measure.SampleStream.standard_normal"))),
        "sensitivity.sobol_self_s": selfsum(sobol),
        "sensitivity.points_per_group": sobol_points / len(sobol) if sobol else 0.0,
        "models.eval_batch_s":
            inclusive(lambda n: n.startswith("models.") and n.endswith(".eval_batch")),
        "models.points": sum(s[AMOUNT] for s in model_evals),
        "experiments.runner_self_s": selfsum(select(lambda n: layer_of(n) == "experiments")),
        "experiments.artifact_bytes": artifact_bytes,
    }
    layer_self = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        layer_self[layer_of(s[NAME])] += self_time[s[ID]]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]
    out["trace.unattributed_s"] = wall_s - (sum(layer_self.values()) - parallel)
    return out


def worker_busy(spans):
    """Pooled chunk time per worker thread, in first-seen order."""
    busy = {}
    for s in sorted(spans, key=lambda s: s[START]):
        if s[NAME] == "ridge.chunk" and s[AMOUNT]:
            busy[s[TID]] = busy.get(s[TID], 0.0) + s[END] - s[START]
    return list(busy.values())
