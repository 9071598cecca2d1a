"""Spans recorded around the calls into each ``repro`` layer.

The traced run wraps public entry points of the program from outside
(:func:`instrument`) and records one span per call: its name, an optional
tag (algorithm name, dimensionality), start and end.  Spans stay in memory.

A layer's *self* time is its span's duration minus the part covered by the
layer spans opened beneath it, so the self times of the layers below a root
span add up to the root's wall time.  *Detail* spans (the hot kernels) are
reported on their own and are not subtracted from the layer around them:
``select_s`` of DAWA includes its ``l1_partition`` time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class _Frame:
    name: str
    tag: object
    detail: bool
    start: float
    outermost: bool
    child_s: float = 0.0


@dataclass(frozen=True)
class Span:
    name: str
    tag: object
    start: float
    end: float
    self_s: float
    outermost: bool       # no enclosing span has the same name

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[_Frame] = field(default_factory=list)

    def open(self, name: str, tag=None, detail: bool = False) -> _Frame:
        outermost = all(frame.name != name for frame in self._stack)
        frame = _Frame(name, tag, detail, 0.0, outermost)
        self._stack.append(frame)
        frame.start = time.perf_counter()
        return frame

    def close(self, frame: _Frame) -> None:
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        seconds = end - frame.start
        if not frame.detail:
            for parent in reversed(self._stack):
                if not parent.detail:
                    parent.child_s += seconds
                    break
        self_s = seconds if frame.detail else seconds - frame.child_s
        self.spans.append(Span(frame.name, frame.tag, frame.start, end, self_s,
                               frame.outermost))

    @contextmanager
    def span(self, name: str, tag=None, detail: bool = False):
        frame = self.open(name, tag, detail)
        try:
            yield frame
        finally:
            self.close(frame)

    def wrap(self, function, name: str, tag_of=None, detail: bool = False):
        """``function`` with every call recorded as a span called ``name``."""
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            frame = tracer.open(name, tag_of(*args, **kwargs) if tag_of else None,
                                detail)
            try:
                return function(*args, **kwargs)
            finally:
                tracer.close(frame)
        return traced

    def select(self, name: str, outermost_only: bool = False) -> list[Span]:
        return [s for s in self.spans
                if s.name == name and (s.outermost or not outermost_only)]

    def self_seconds(self, name: str) -> float:
        return sum(s.self_s for s in self.spans if s.name == name)

    def seconds_by_tag(self, name: str, outermost_only: bool = True) -> dict:
        totals: dict = defaultdict(float)
        for s in self.select(name, outermost_only):
            totals[s.tag] += s.seconds
        return dict(totals)


def _algorithm_tag(algorithm, x, *args, **kwargs):
    return (algorithm.name, f"{getattr(x, 'ndim', 0)}d")


def _bench_tag(bench, *args, **kwargs):
    return f"{len(bench.grid.domain_shapes[0])}d"


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the program's layer entry points with ``tracer`` spans.

    Module-level functions are wrapped at every binding across the loaded
    ``repro`` modules (a ``from x import f`` copy is a separate binding), and
    methods on the classes that define them.  Every binding is restored on
    exit.
    """
    import repro.algorithms.dawa as dawa
    import repro.privlint.cli  # noqa: F401 - binds lint_paths
    import repro.privlint.dataflow as dataflow
    from repro.algorithms.base import Algorithm, PlanAlgorithm
    from repro.algorithms.tree import HierarchicalTree
    from repro.core import kernels, plan
    from repro.core.benchmark import DPBench
    from repro.core.error import scaled_average_per_query_error
    from repro.core.generator import DataGenerator
    from repro.privlint.engine import lint_paths
    from repro.serve.service import ReleaseService
    from repro.serve.store import Release
    from repro.workload.rangequery import Workload

    functions = [
        (scaled_average_per_query_error, "error", False),
        (plan.measure_plan, "measure", False),
        (dataflow.analyze_sources, "lint.dataflow", False),
        (lint_paths, "lint.lint_paths", False),
        (kernels.batched_laplace, "kernel.laplace", True),
        (dawa.l1_partition, "kernel.l1_partition", True),
    ]
    methods = [
        (DataGenerator, "generate_many", "generate", None, False),
        (Workload, "evaluate", "evaluate", None, False),
        (Algorithm, "run", "run", _algorithm_tag, False),
        (DPBench, "run", "grid.run", _bench_tag, False),
        (HierarchicalTree, "__init__", "kernel.tree_build", None, True),
        (ReleaseService, "release", "serve.release", None, False),
        (Release, "answer", "serve.answer", None, False),
        (Release, "answer_batch", "serve.answer_batch", None, False),
    ]
    plan_classes = [PlanAlgorithm]
    for cls in plan_classes:               # grows while walked: all subclasses
        plan_classes.extend(sub for sub in cls.__subclasses__()
                            if sub not in plan_classes)
    for cls in plan_classes:
        for stage in ("select", "infer"):
            method = vars(cls).get(stage)
            if method is not None and not getattr(method, "__isabstractmethod__", False):
                methods.append((cls, stage, stage, None, False))

    patches: list[tuple[object, str, object]] = []
    for module in list(sys.modules.values()):
        module_name = getattr(module, "__name__", "")
        if module_name != "repro" and not module_name.startswith("repro."):
            continue
        for function, name, detail in functions:
            for attr, value in list(vars(module).items()):
                if value is function:
                    patches.append((module, attr, value))
                    setattr(module, attr, tracer.wrap(function, name, detail=detail))
    for cls, attr, name, tag_of, detail in methods:
        original = vars(cls)[attr]
        patches.append((cls, attr, original))
        setattr(cls, attr, tracer.wrap(original, name, tag_of, detail))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
