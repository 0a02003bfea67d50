"""Span tracer that wraps magqmc's public functions from outside the package.

Each target is a function or method looked up by the name its caller uses
(``magqmc.guiding.slater_eval`` is the name ``GuidingFunction.evaluate``
resolves at call time, so that is the attribute replaced). A wrapper
records one span per call: layer name, start, end, parent span and a few
counts taken from the arguments or the result. Spans stay in memory; the
per-layer metrics are computed from them after the run.

A target whose module or attribute no longer exists is recorded as absent
and the run goes on without it, so the tracer survives API drift.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def has_ancestor(spans: list[Span], index: int, name: str) -> bool:
    p = spans[index].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


class Tracer:
    """Keeps a stack of open spans; wrappers push and pop around each call."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    # -- spans --------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int, **attrs) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.attrs.update(attrs)
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")

    def first(self, name: str) -> Span | None:
        return next((s for s in self.spans if s.name == name), None)

    # -- wrapping -------------------------------------------------------------

    def install(self, targets) -> None:
        """Wrap every ``Target``; missing ones are added to ``absent``."""
        for t in targets:
            try:
                owner = importlib.import_module(t.module)
                *path, attr = t.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{t.module}.{t.attr}")
                continue
            setattr(owner, attr, self._wrap(raw, t))
            self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    def _wrap(self, raw, target: "Target"):
        if isinstance(raw, (classmethod, staticmethod)):
            return type(raw)(self._wrap(raw.__func__, target))
        tracer = self

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(target.layer)
            attrs = {"error": 1}
            try:
                result = raw(*args, **kwargs)
                attrs = tracer._count(target, args, kwargs, result)
                return result
            finally:
                tracer.end(idx, **attrs)

        return wrapper

    def _count(self, target: "Target", args, kwargs, result) -> dict:
        if target.count is None:
            return {}
        try:
            return target.count(args, kwargs, result)
        except Exception:  # the counted signature drifted: keep the span, drop the counts
            name = f"{target.module}.{target.attr} (counts)"
            if name not in self.absent:
                self.absent.append(name)
            return {}


@dataclass(frozen=True)
class Target:
    module: str
    attr: str  # dotted attribute path inside the module
    layer: str
    count: Callable | None = None  # (args, kwargs, result) -> dict of counts
