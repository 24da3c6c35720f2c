"""Span tracing of flagcone's public functions, from outside the package.

The traced run replaces selected functions with timing wrappers.  Every
module of the package that resolves a traced function by name gets its own
wrapper on that attribute (``cone`` imports ``dd_rays``, ``canonicalize``,
``project`` and others by name), so each call path passes through exactly
one wrapper.  Spans live in memory until the run ends; the per-layer
metrics are derived from them afterwards.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from typing import Any, Callable

PACKAGE_MODULES = ("ranksets", "intervals", "algebra", "poset", "polyhedra", "cone")


def _full_class_size(classes: dict) -> int:
    # Every maximal chain lies in the class of the full rank set, so its size
    # is the poset's number of maximal chains.
    return len(classes[max(classes)])


# (home module, function, span name, count taken from the return value)
TRACED: tuple[tuple[str, str, str, Callable[[Any], int] | None], ...] = (
    ("polyhedra", "dd_rays", "polyhedra.dd_rays", len),
    ("polyhedra", "adjacency_pairs", "kernel.adjacency_pairs", len),
    ("polyhedra", "canonicalize", "polyhedra.canonicalize", None),
    ("polyhedra", "matrix_rank", "polyhedra.matrix_rank", None),
    ("cone", "facet_system", "cone.facet_system", None),
    ("cone", "extreme_rays", "cone.extreme_rays", None),
    ("cone", "classify", "cone.classify", None),
    ("cone", "is_extreme", "cone.is_extreme", bool),
    ("cone", "generate_extremes", "cone.generate_extremes", None),
    ("cone", "contains", "cone.contains", bool),
    ("cone", "contains_by_projection", "cone.contains_by_projection", None),
    ("algebra", "factor_once", "algebra.factor_once", None),
    ("algebra", "convolve", "algebra.convolve", None),
    ("algebra", "shift", "algebra.shift", None),
    ("algebra", "project", "algebra.project", None),
    ("algebra", "eval_poset", "algebra.eval_poset", None),
    ("poset", "witness_poset", "poset.witness_poset", len),
    ("poset", "flag_vector", "poset.flag_vector", None),
    ("poset", "partition_classes", "poset.partition_classes", _full_class_size),
    ("intervals", "blockers", "intervals.blockers", None),
)

# Absent after the adjacency kernel is folded into dd_rays; its metrics then
# read 0 and the run records the wrapper as absent.
OPTIONAL = frozenset({"kernel.adjacency_pairs"})

# Per-layer metrics: (metric name, unit).  `s` is inclusive time, `self_s`
# excludes child spans; the last two come from the run, not from spans.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("polyhedra.dd_rays.calls", "count"),
    ("polyhedra.dd_rays.self_s", "s"),
    ("polyhedra.dd_rays.rays_out", "count"),
    ("kernel.adjacency_pairs.calls", "count"),
    ("kernel.adjacency_pairs.s", "s"),
    ("kernel.adjacency_pairs.pairs", "count"),
    ("polyhedra.canonicalize.calls", "count"),
    ("polyhedra.canonicalize.s", "s"),
    ("polyhedra.matrix_rank.calls", "count"),
    ("polyhedra.matrix_rank.s", "s"),
    ("cone.is_extreme.calls", "count"),
    ("cone.is_extreme.self_s", "s"),
    ("cone.is_extreme.accept_ratio", "ratio"),
    ("cone.extreme_rays.self_s", "s"),
    ("cone.classify.calls", "count"),
    ("cone.classify.s", "s"),
    ("algebra.factor_once.calls", "count"),
    ("algebra.factor_once.s", "s"),
    ("cone.generate_extremes.self_s", "s"),
    ("algebra.convolve.calls", "count"),
    ("algebra.convolve.s", "s"),
    ("algebra.shift.calls", "count"),
    ("algebra.shift.s", "s"),
    ("cone.contains.calls", "count"),
    ("cone.contains.self_s", "s"),
    ("cone.contains.inside_ratio", "ratio"),
    ("cone.contains_by_projection.calls", "count"),
    ("cone.contains_by_projection.self_s", "s"),
    ("algebra.project.calls", "count"),
    ("algebra.project.s", "s"),
    ("poset.witness_poset.calls", "count"),
    ("poset.witness_poset.s", "s"),
    ("poset.witness_poset.elements", "count"),
    ("poset.flag_vector.s", "s"),
    ("algebra.eval_poset.s", "s"),
    ("poset.partition_classes.calls", "count"),
    ("poset.partition_classes.s", "s"),
    ("poset.partition_classes.chains", "count"),
    ("cone.facet_system.s", "s"),
    ("intervals.blockers.calls", "count"),
    ("intervals.blockers.s", "s"),
    ("trace.overhead.solve_s", "ratio"),
    ("trace.overhead.forms_per_s", "ratio"),
)

# Root spans whose calls the per-layer metrics cover.
COUNTED_PHASES = frozenset({"setup", "solve"})

# Count-valued statistics: the span value they sum.
_VALUE_STATS = {"rays_out", "pairs", "elements", "chains"}
_RATIO_STATS = {"accept_ratio", "inside_ratio"}


class Tracer:
    """Installs timing wrappers and records one span per wrapped call.

    A span is [name, start, end, parent index, value]; `value` is the count
    taken from the return value, or None.  Phase spans (``setup``,
    ``solve``) are roots that the wrapped calls nest under.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []
        self.absent: list[str] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, self.clock(), 0.0, parent, None])
        self._stack.append(index)
        return index

    def _close(self, index: int, value: int | None = None) -> None:
        span = self.spans[index]
        span[2] = self.clock()
        span[4] = value
        self._stack.pop()

    @contextmanager
    def phase(self, name: str):
        """A root span around a phase of the run."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn: Callable, name: str, count: Callable[[Any], int] | None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            value = None
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    value = int(count(result))
                return result
            finally:
                tracer._close(index, value)

        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"flagcone.{m}") for m in PACKAGE_MODULES]
        by_name = {m.__name__.rsplit(".", 1)[1]: m for m in modules}
        for home, attr, name, count in TRACED:
            original = getattr(by_name[home], attr, None)
            if original is None:
                if name not in OPTIONAL:
                    raise AttributeError(f"flagcone.{home} has no {attr}")
                self.absent.append(name)
                continue
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._installed.append((module, attr, original))
                    setattr(module, attr, self.wrap(original, name, count))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    # -- analysis ------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics over the spans under COUNTED_PHASES roots.

        Returns every span-derived metric of LAYER_METRICS; a layer that never
        ran reads 0.
        """
        spans = self.spans
        root = [-1] * len(spans)
        child_time = [0.0] * len(spans)
        for i, (name, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                root[i] = root[parent]
                child_time[parent] += end - start
            else:
                root[i] = i
        calls: dict[str, int] = {}
        incl: dict[str, float] = {}
        self_t: dict[str, float] = {}
        values: dict[str, int] = {}
        for i, (name, start, end, parent, value) in enumerate(spans):
            if parent < 0 or spans[root[i]][0] not in COUNTED_PHASES:
                continue
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            self_t[name] = self_t.get(name, 0.0) + dur - child_time[i]
            if not self._has_ancestor_named(i, name):
                incl[name] = incl.get(name, 0.0) + dur
            if value is not None:
                values[name] = values.get(name, 0) + value
        out: dict[str, float] = {}
        for metric, _unit in LAYER_METRICS:
            if metric.startswith("trace."):
                continue
            layer, stat = metric.rsplit(".", 1)
            n = calls.get(layer, 0)
            if stat == "calls":
                out[metric] = n
            elif stat == "s":
                out[metric] = incl.get(layer, 0.0)
            elif stat == "self_s":
                out[metric] = self_t.get(layer, 0.0)
            elif stat in _VALUE_STATS:
                out[metric] = values.get(layer, 0)
            elif stat in _RATIO_STATS:
                out[metric] = values.get(layer, 0) / n if n else 0.0
            else:
                raise ValueError(f"unknown statistic in {metric}")
        return out

    def _has_ancestor_named(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path: str) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, value) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "value": value}))
                fh.write("\n")
