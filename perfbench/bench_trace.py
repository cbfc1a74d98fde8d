"""Spans around calls into graphmml, recorded from outside the library.

A Tracer replaces a module attribute with a timing wrapper, in the
namespace where the caller looks the name up (graphmml.context.traverse,
not graphmml.graph.traverse, because context.py imported it by name).
Spans stay in memory until the run ends.  restore() puts every original
object back and checks that it did.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Any, Callable, Iterable


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "op", "work")

    def __init__(self, id: int, name: str, start: float, end: float,
                 parent: int | None, op: Any, work: dict | None = None):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.op = op
        self.work = work

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        record = {"id": self.id, "name": self.name, "start": self.start, "end": self.end,
                  "parent": self.parent, "op": self.op}
        if self.work:
            record["work"] = self.work
        return record


class Tracer:
    """Records a span per call of each patched function."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: Any = None
        self._open: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable, work: Callable | None = None,
             callbacks: bool = False) -> Callable:
        """fn with a span per call.

        work(args, kwargs, result) returns counts to store on the span;
        callbacks=True also gives every callable positional argument a
        span of its own, named name + ".callback".
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if callbacks:
                args = tuple(tracer.wrap(name + ".callback", a) if callable(a) else a
                             for a in args)
            span = Span(len(tracer.spans), name, time.perf_counter(), 0.0,
                        tracer._open[-1] if tracer._open else None, tracer.op)
            tracer.spans.append(span)
            tracer._open.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._open.pop()
            if work is not None:
                span.work = work(args, kwargs, result)
            return result

        return traced

    def patch(self, module, attr: str, name: str, **options) -> bool:
        """Wrap module.attr in place; False when the module has no such name."""
        original = getattr(module, attr, None)
        if original is None:
            return False
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, **options))
        return True

    def restore(self) -> None:
        """Put back every patched attribute and check it is the original."""
        patches, self._patches = self._patches, []
        for module, attr, original in reversed(patches):
            setattr(module, attr, original)
        for module, attr, original in patches:
            if getattr(module, attr) is not original:
                raise RuntimeError(f"{module.__name__}.{attr} was not restored")

    def write(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span.as_dict()) + "\n")


# -- arithmetic on spans ----------------------------------------------------------


def percentile(values: Iterable[float], q: float) -> float | None:
    """q-th percentile, interpolating linearly between closest ranks."""
    xs = sorted(values)
    if not xs:
        return None
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    low, high = xs[lo], xs[min(lo + 1, len(xs) - 1)]
    if pos == lo or low == high:  # also keeps an infinite value from making nan
        return low
    return low + (high - low) * (pos - lo)


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return children


def self_time(span: Span, children: dict[int, list[Span]]) -> float:
    """The span's duration minus the part of it its child spans cover."""
    covered = 0.0
    reach = span.start
    for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
        start = max(child.start, reach)
        end = min(child.end, span.end)
        if end > start:
            covered += end - start
            reach = end
    return span.duration - covered


def total_time(spans: list[Span], name: str) -> float:
    """Wall time inside calls of name, each nested call counted once."""
    by_id = {span.id: span for span in spans}
    total = 0.0
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent is not None and by_id[parent].name != name:
            parent = by_id[parent].parent
        if parent is None:
            total += span.duration
    return total
