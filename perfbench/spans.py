"""Thread-safe span recorder for traced `roughdensity` runs, and the
per-layer metrics derived from its spans.

`instrument` wraps the public functions of each library module, plus the
runner's report/CSV writers and `SkeletonPropagator.propagate`, and
installs each wrapper at every place the function is bound: its defining
module and every `roughdensity` module that imported it by name (`runner`
and `density` import `sample`, `lift_ensemble`, `solve_batch`,
`cholesky_factor` and `check_hypotheses` that way, so patching only the
defining module would miss their calls).  `runner.run` itself is left
unwrapped, so the top-level spans are the library calls the run makes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

import numpy as np

LAYER_MODULES = ("kernels", "fields", "diagnostics", "paths", "lift", "rde",
                 "malliavin", "density")
RUNNER_FUNCS = ("validate_config", "_emit", "_write_csv")


def _rows(arr) -> int:
    # Row count as kde_evaluate sees it: np.atleast_2d(a.T).T
    return int(np.atleast_2d(np.asarray(arr).T).T.shape[0])


# Work counted per call, from the bound arguments of the wrapped function.
COUNTERS = {
    "paths.sample": lambda a: a["n_paths"],
    "rde.solve_batch": lambda a: a["level1"].shape[0] * a["level1"].shape[1],
    "rde.SkeletonPropagator.propagate": lambda a: np.shape(a["coeffs"])[0],
    "density.kde_evaluate": lambda a: _rows(a["samples"]) * _rows(a["points"]),
}


class Recorder:
    """Collects spans (id, name, parent, thread, start, end, count).

    A span opened on a thread with no open span of its own (a pool worker)
    is parented to the innermost open span of the thread that created the
    recorder: that thread is blocked in the pool's map while the workers
    run, so its open span is the one that caused the work.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_thread = threading.get_ident()
        self._root_stack: list[int] = []
        self.spans: list[tuple] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._root_thread:
            return self._root_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            count = None
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count = int(counter(bound.arguments))
            stack = self._stack()
            with self._lock:
                owner = stack or self._root_stack
                parent = owner[-1] if owner else None
                span_id = next(self._ids)
                stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                with self._lock:
                    stack.pop()
                    self.spans.append((span_id, name, parent,
                                       threading.get_ident(), start, end,
                                       count))

        return traced

    def dump(self, path: str, wall_s: float) -> None:
        with self._lock:
            spans = list(self.spans)
        doc = {"wall_s": wall_s,
               "spans": [dict(zip(("id", "name", "parent", "thread", "start",
                                   "end", "count"), s)) for s in spans]}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def instrument(rec: Recorder) -> None:
    """Wrap the library's public functions everywhere they are bound."""
    wrappers = {}
    for short in LAYER_MODULES:
        mod = importlib.import_module(f"roughdensity.{short}")
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == mod.__name__):
                wrappers[id(obj)] = (obj, rec.wrap(f"{short}.{name}", obj))
    runner = importlib.import_module("roughdensity.runner")
    for name in RUNNER_FUNCS:
        obj = getattr(runner, name)
        wrappers[id(obj)] = (obj, rec.wrap(f"runner.{name}", obj))

    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "roughdensity"
                               or mod_name.startswith("roughdensity.")):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])

    rde = importlib.import_module("roughdensity.rde")
    prop = rde.SkeletonPropagator
    prop.propagate = rec.wrap("rde.SkeletonPropagator.propagate",
                              prop.propagate)


# ---------------------------------------------------------------------------
# per-layer metrics from a span file
# ---------------------------------------------------------------------------

TIME_METRICS = {
    "diagnostics.check_hypotheses_s": ("diagnostics.check_hypotheses",),
    "diagnostics.conditional_variance_s": ("diagnostics.conditional_variance",),
    "paths.cholesky_factor_s": ("paths.cholesky_factor",),
    "paths.sample_s": ("paths.sample",),
    "lift.lift_ensemble_s": ("lift.lift_ensemble",),
    "lift.lift_s": ("lift.lift",),
    "rde.solve_batch_s": ("rde.solve_batch",),
    "rde.solve_s": ("rde.solve",),
    "density.rate_function_s": ("density.rate_function",),
    "density.monte_carlo_reduce_s": ("density.monte_carlo_reduce",),
    "density.kde_evaluate_s": ("density.kde_evaluate",),
    "malliavin.malliavin_matrix_batch_s": ("malliavin.malliavin_matrix_batch",),
    "malliavin.directional_derivative_s": ("malliavin.directional_derivative",),
    "runner.emit_s": ("runner._emit", "runner._write_csv"),
}
CALL_METRICS = {
    "diagnostics.conditional_variance_calls": "diagnostics.conditional_variance",
    "rde.solve_calls": "rde.solve",
}
WORK_METRICS = {
    "paths.sampled_paths": "paths.sample",
    "rde.path_steps": "rde.solve_batch",
    "rde.skeleton_evals": "rde.SkeletonPropagator.propagate",
    "density.kde_pairs": "density.kde_evaluate",
}
COUNT_METRICS = tuple(CALL_METRICS) + tuple(WORK_METRICS)


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def analyse(doc: dict, workers: int) -> dict:
    """Per-layer busy times, counts, self time by module and coverage.

    Busy time of a function sums its outermost calls over all threads (a
    call nested in another call of the same function is not counted
    twice).  A span's self time is its duration minus the union of its
    children's intervals; the self time of a layer sums its spans.
    """
    spans = {s["id"]: s for s in doc["spans"]}
    children: dict = {}
    for s in spans.values():
        children.setdefault(s["parent"], []).append(s)

    def nested_in_same(s) -> bool:
        p = s["parent"]
        while p is not None:
            if spans[p]["name"] == s["name"]:
                return True
            p = spans[p]["parent"]
        return False

    busy: dict = {}
    calls: dict = {}
    work: dict = {}
    self_by_layer: dict = {}
    for s in spans.values():
        dur = s["end"] - s["start"]
        if not nested_in_same(s):
            busy[s["name"]] = busy.get(s["name"], 0.0) + dur
        calls[s["name"]] = calls.get(s["name"], 0) + 1
        if s["count"] is not None:
            work[s["name"]] = work.get(s["name"], 0) + s["count"]
        kids = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                for c in children.get(s["id"], [])]
        layer = s["name"].split(".")[0]
        self_by_layer[layer] = (self_by_layer.get(layer, 0.0)
                                + dur - _covered(k for k in kids if k[1] > k[0]))

    metrics = {m: sum(busy.get(n, 0.0) for n in names)
               for m, names in TIME_METRICS.items()}
    metrics.update({m: calls.get(n, 0) for m, n in CALL_METRICS.items()})
    metrics.update({m: work.get(n, 0) for m, n in WORK_METRICS.items()})

    mc_wall = busy.get("density.monte_carlo_reduce", 0.0)
    mc_busy = sum(c["end"] - c["start"]
                  for s in spans.values()
                  if s["name"] == "density.monte_carlo_reduce"
                  for c in children.get(s["id"], []))
    metrics["density.mc_parallel_eff"] = (mc_busy / (workers * mc_wall)
                                          if mc_wall > 0 else 0.0)

    top = sum(s["end"] - s["start"] for s in children.get(None, []))
    return {"metrics": metrics, "self_s": self_by_layer,
            "top_level_share": top / doc["wall_s"] if doc["wall_s"] else 0.0}
