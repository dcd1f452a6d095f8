"""Span tracing with Chrome-trace export.

The reproduction's performance claims are *time attributions*: which
operator, which resource, which placement ate the iteration.  This module
makes those attributions first-class: a :class:`Tracer` collects nestable
:class:`Span` records — on either a wall-clock timeline (functional
training) or a synthetic timeline (the analytical model and the event
simulators, which compute times rather than spend them) — and exports them
in the Chrome ``chrome://tracing`` / Perfetto JSON format.

Every instrumented hot path defaults to the :class:`NullTracer`, whose
methods are no-ops, so instrumentation is free when disabled (an invariant
pinned by ``tests/test_obs.py::TestOverheadGuard``).

Span taxonomy (categories):

``compute``    dense MLP / interaction / optimizer arithmetic
``memory``     embedding lookups, host-side packing, PCIe staging
``comm``       all-to-all, allreduce, NIC transfers, PS round trips
``runtime``    fixed per-iteration software overheads
``iteration``  one whole training iteration (parent of the above)
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER"]


@dataclass
class Span:
    """One timed, categorized interval.

    ``parent`` is the index (into ``Tracer.spans``) of the enclosing span,
    or ``None`` for a root.  ``t1 is None`` while the span is open.
    """

    name: str
    category: str
    t0: float
    t1: float | None = None
    attributes: dict[str, Any] = field(default_factory=dict)
    parent: int | None = None
    tid: int = 0

    @property
    def duration(self) -> float:
        if self.t1 is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.t1 - self.t0


class Tracer:
    """Collects strictly-nested spans on an explicit or wall-clock timeline.

    Three entry points:

    * :meth:`span` — context manager, wall-clock (``time.perf_counter``);
    * :meth:`begin` / :meth:`end` — manual pairs, optionally with explicit
      times (synthetic timelines);
    * :meth:`record` — a complete span with explicit ``t0``/``duration``,
      parented under whatever span is currently open.

    Strict nesting is enforced: :meth:`end` must close the innermost open
    span.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._clock = clock
        self._cursor = 0.0  # synthetic-timeline allocator (see reserve())

    # -- core span lifecycle ------------------------------------------------

    def begin(
        self, name: str, category: str, t0: float | None = None, *, tid: int = 0, **attrs: Any
    ) -> Span:
        """Open a span; it becomes the parent of subsequent spans."""
        span = Span(
            name=name,
            category=category,
            t0=self._clock() if t0 is None else float(t0),
            attributes=attrs,
            parent=self._stack[-1] if self._stack else None,
            tid=tid,
        )
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def end(self, span: Span, t1: float | None = None) -> None:
        """Close ``span``; raises unless it is the innermost open span."""
        if not self._stack or self.spans[self._stack[-1]] is not span:
            raise ValueError(
                f"span {span.name!r} is not the innermost open span "
                "(strict nesting violated)"
            )
        span.t1 = self._clock() if t1 is None else float(t1)
        if span.t1 < span.t0:
            raise ValueError(f"span {span.name!r}: t1 {span.t1} < t0 {span.t0}")
        self._stack.pop()

    class _SpanContext:
        __slots__ = ("_tracer", "_span")

        def __init__(self, tracer: "Tracer", span: Span) -> None:
            self._tracer = tracer
            self._span = span

        def __enter__(self) -> Span:
            return self._span

        def __exit__(self, *exc: Any) -> None:
            self._tracer.end(self._span)

    def span(self, name: str, category: str = "compute", *, tid: int = 0, **attrs: Any):
        """Wall-clock context manager: ``with tracer.span("fwd", "compute"):``."""
        return Tracer._SpanContext(self, self.begin(name, category, tid=tid, **attrs))

    def record(
        self,
        name: str,
        category: str,
        t0: float,
        duration: float,
        *,
        tid: int = 0,
        **attrs: Any,
    ) -> Span:
        """A complete span on an explicit timeline (simulated/analytic time)."""
        if duration < 0:
            raise ValueError(f"span {name!r}: duration must be >= 0, got {duration}")
        span = Span(
            name=name,
            category=category,
            t0=float(t0),
            t1=float(t0) + float(duration),
            attributes=attrs,
            parent=self._stack[-1] if self._stack else None,
            tid=tid,
        )
        self.spans.append(span)
        return span

    def reserve(self, duration: float) -> float:
        """Allocate ``duration`` seconds on the synthetic timeline and return
        its start offset.  Lets independent analytic evaluations (e.g. the six
        placement points of Figure 14) lay their spans out sequentially in one
        trace instead of stacking at t=0."""
        if duration < 0:
            raise ValueError("duration must be >= 0")
        t0 = self._cursor
        self._cursor = t0 + duration
        return t0

    # -- introspection ------------------------------------------------------

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s.t1 is not None]

    def categories(self) -> set[str]:
        return {s.category for s in self.spans}

    def total_by_category(self) -> dict[str, float]:
        """Summed duration per category over finished spans."""
        out: dict[str, float] = {}
        for s in self.finished():
            out[s.category] = out.get(s.category, 0.0) + s.duration
        return dict(sorted(out.items()))

    # -- Chrome-trace export ------------------------------------------------

    def to_chrome(self) -> dict:
        """Chrome ``chrome://tracing`` / Perfetto ``traceEvents`` JSON object.

        Times are exported in microseconds ("X" complete events).  Open spans
        are skipped.
        """
        events = []
        for s in self.finished():
            args = dict(s.attributes)
            if s.parent is not None:
                args["parent"] = self.spans[s.parent].name
            events.append(
                {
                    "name": s.name,
                    "cat": s.category,
                    "ph": "X",
                    "ts": s.t0 * 1e6,
                    "dur": s.duration * 1e6,
                    "pid": 0,
                    "tid": s.tid,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export_chrome(self, path: str) -> int:
        """Write the Chrome trace JSON to ``path``; returns the event count."""
        payload = self.to_chrome()
        with open(path, "w") as fh:
            json.dump(payload, fh)
        return len(payload["traceEvents"])


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> Span:
        return _NULL_SPAN

    def __exit__(self, *exc: Any) -> None:
        pass


class NullTracer:
    """No-op tracer: the default for every instrumented hot path.

    All methods are O(1) no-ops so that passing ``NULL_TRACER`` (or nothing)
    leaves instrumented code bit-identical — and within noise as fast — as
    uninstrumented code.
    """

    enabled = False
    spans: list[Span] = []  # intentionally shared: always empty

    def begin(self, name: str, category: str, t0: float | None = None, *, tid: int = 0, **attrs: Any) -> Span:
        return _NULL_SPAN

    def end(self, span: Span, t1: float | None = None) -> None:
        pass

    def span(self, name: str, category: str = "compute", *, tid: int = 0, **attrs: Any):
        return _NULL_CONTEXT

    def record(self, name: str, category: str, t0: float, duration: float, *, tid: int = 0, **attrs: Any) -> Span:
        return _NULL_SPAN

    def reserve(self, duration: float) -> float:
        return 0.0

    def finished(self) -> list[Span]:
        return []

    def categories(self) -> set[str]:
        return set()

    def total_by_category(self) -> dict[str, float]:
        return {}

    def to_chrome(self) -> dict:
        return {"traceEvents": [], "displayTimeUnit": "ms"}

    def export_chrome(self, path: str) -> int:
        with open(path, "w") as fh:
            json.dump(self.to_chrome(), fh)
        return 0


_NULL_SPAN = Span(name="null", category="null", t0=0.0, t1=0.0)
_NULL_CONTEXT = _NullSpanContext()

#: Shared no-op tracer instance; the default everywhere.
NULL_TRACER = NullTracer()
