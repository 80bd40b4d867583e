"""Span tracing for the solve benchmark, installed from outside the solver.

The tracer replaces the public function of each solver layer, at the
attribute where the solver looks it up at call time, with a wrapper that
records a span: name, start, end, parent span and solve id.  Spans stay in
memory until the run ends.  Nothing under ``src/`` is changed: ``installed``
patches the attributes on entry and puts every original object back on exit,
also when a solve raises.

A span's self time is its duration minus the durations of its direct child
spans.  The solver runs its layers one after another in one thread (the
benchmark leaves ``SolveOptions.workers`` at 1), so children never overlap
and their durations simply add up.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Optional

ROOT = "decomposition.solve"

# (module, attribute, span name).  A dotted attribute names a method, which
# is patched on its class.
LAYERS = (
    ("ccpmsp.decomposition", "solve_master", "master.solve"),
    ("ccpmsp.decomposition", "check_candidate", "decomposition.check"),
    ("ccpmsp.decomposition", "emit_cuts", "decomposition.cut"),
    ("ccpmsp.decomposition", "verify_candidate", "oracle.verify"),
    ("ccpmsp.diagram", "DiagramCache.get_or_build", "diagram.lookup"),
    ("ccpmsp.diagram", "build_top_down", "diagram.build"),
    ("ccpmsp.jobset", "min_time", "jobset.min_time"),
    ("ccpmsp.jobset", "iis", "jobset.iis"),
    ("ccpmsp.lastjob", "min_time", "lastjob.min_time"),
    ("ccpmsp.lastjob", "iis", "lastjob.iis"),
    ("ccpmsp.netflow", "FlowContext.__init__", "netflow.context"),
    ("ccpmsp.netflow", "FlowContext.cut_for", "netflow.cut"),
)


def patch_targets():
    """(owner, attribute, span name) for every wrapped layer function; the
    owner is the module or class whose ``__dict__`` holds the attribute."""
    targets = []
    for module_name, attr, name in LAYERS:
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        targets.append((owner, leaf, name))
    return targets


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Tracer.spans; -1 for a solve's root span
    solve: int = -1
    size: Optional[int] = None  # len() of the result when it is a list

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans of the solves run through ``call`` while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._solves = 0

    def _run(self, name, fn, args, kwargs):
        if self._stack:
            parent = self._stack[-1]
            solve = self.spans[parent].solve
        else:
            parent, solve = -1, self._solves
            self._solves += 1
        span = Span(name, time.perf_counter(), parent=parent, solve=solve)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            result = fn(*args, **kwargs)
            if isinstance(result, list):
                span.size = len(result)
            return result
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def call(self, fn, *args, **kwargs):
        """Run one solve under a root span."""
        return self._run(ROOT, fn, args, kwargs)

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._run(name, fn, args, kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Patch every layer function for the duration of the block."""
        saved = []
        try:
            for owner, attr, name in patch_targets():
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.seconds
        return own

    def by_name(self) -> dict[str, dict]:
        """Per span name: call count, summed self time and summed result size."""
        out: dict[str, dict] = {}
        for span, own in zip(self.spans, self.self_times()):
            agg = out.setdefault(span.name, {"calls": 0, "self_s": 0.0, "size": 0})
            agg["calls"] += 1
            agg["self_s"] += own
            agg["size"] += span.size or 0
        return out

    def write(self, path) -> None:
        """One JSON object per span, in the order the spans opened."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")
