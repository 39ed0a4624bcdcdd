"""Hierarchical request tracing.

A :class:`Tracer` produces :class:`Span` trees: every span carries a
trace id, its parent span id, a name, attributes, a status and exact
start/end timestamps taken from an injectable *timer* — hand the tracer
a :class:`repro.util.clock.SimulationClock`'s ``now`` and simulated-time
tests get deterministic durations.

Context propagation is thread-local: ``tracer.span(name)`` pushes the
new span for the duration of the ``with`` block, so spans opened further
down the call stack parent automatically.  Crossing a thread boundary is
explicit: the submitting side calls :meth:`Tracer.context` to capture a
:class:`TraceContext`, the worker wraps its work in
``with tracer.attach(ctx): ...`` and everything it opens parents under
the captured span.

The default tracer everywhere in the codebase is :data:`NOOP_TRACER`: a
shared, allocation-free stub whose ``span()``/``attach()`` return
falsy singletons, so instrumented hot paths cost three attribute lookups
per span when tracing is off.  Call sites follow one idiom::

    with tracer.span("engine.fetch") as sp:
        ...
        if sp:                       # False on the no-op path
            sp.set("outcome", "ok")

**Stability: public** via :mod:`repro.obs`.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Callable, NamedTuple

__all__ = [
    "NOOP_TRACER",
    "NoopTracer",
    "Span",
    "TraceContext",
    "Tracer",
]


class TraceContext(NamedTuple):
    """A portable reference to a live span, safe to hand across threads."""

    trace_id: str
    span_id: str


class Span:
    """One timed operation in a trace tree."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start",
        "end",
        "status",
        "attrs",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        name: str,
        start: float,
    ):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: float | None = None
        self.status = "ok"
        self.attrs: dict[str, Any] = {}

    # Spans are truthy; the no-op stand-in is falsy, which is what lets
    # ``if sp:`` gate attribute writes on the hot path.
    def __bool__(self) -> bool:  # pragma: no cover - trivially True
        return True

    def set(self, key: str, value: Any) -> "Span":
        """Attach one attribute; returns self for chaining."""
        self.attrs[key] = value
        return self

    def set_status(self, status: str) -> "Span":
        self.status = status
        return self

    @property
    def duration_ms(self) -> float:
        if self.end is None:
            return 0.0
        return (self.end - self.start) * 1000.0

    def context(self) -> TraceContext:
        return TraceContext(self.trace_id, self.span_id)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready shape (the JSONL exporter's line format)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration_ms": round(self.duration_ms, 4),
            "status": self.status,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id},"
            f" {self.duration_ms:.3f} ms, {self.status})"
        )


class _ActiveSpan:
    """Context manager pairing a pushed span with its pop."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.span.status = "error"
            self.span.attrs.setdefault("error", exc_type.__name__)
        self._tracer._finish(self.span)
        return False


class _Attached:
    """Context manager scoping a remote parent onto this thread."""

    __slots__ = ("_tracer", "_ctx")

    def __init__(self, tracer: "Tracer", ctx: TraceContext):
        self._tracer = tracer
        self._ctx = ctx

    def __enter__(self) -> TraceContext:
        self._tracer._stack().append(self._ctx)
        return self._ctx

    def __exit__(self, exc_type, exc, tb) -> bool:
        stack = self._tracer._stack()
        if stack and stack[-1] is self._ctx:
            stack.pop()
        return False


class Tracer:
    """Produces spans; thread-safe, with per-thread context stacks.

    *timer* is any ``() -> float`` — ``time.perf_counter`` by default,
    or a simulation clock's ``now`` for deterministic tests.  Finished
    spans are handed to every exporter's ``export(span)``.
    """

    enabled = True

    def __init__(
        self,
        timer: Callable[[], float] | None = None,
        exporters: tuple[Any, ...] = (),
    ):
        self._timer = timer or time.perf_counter
        self.exporters: list[Any] = list(exporters)
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- context ------------------------------------------------------------

    def _stack(self) -> list[Any]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self) -> Span | TraceContext | None:
        """The innermost active span (or attached context) on this thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def context(self) -> TraceContext | None:
        """Capture the current position as a portable :class:`TraceContext`."""
        parent = self.current()
        if parent is None:
            return None
        return TraceContext(parent.trace_id, parent.span_id)

    def attach(self, ctx: TraceContext | None) -> Any:
        """Adopt *ctx* as this thread's parent for the ``with`` block.

        ``attach(None)`` is a no-op scope, so callers can propagate an
        optional captured context unconditionally.
        """
        if ctx is None:
            return _NOOP_CM
        return _Attached(self, ctx)

    # -- span lifecycle -----------------------------------------------------

    def span(self, name: str) -> _ActiveSpan:
        """Open a span as the current thread's innermost context."""
        span = self.start(name)
        self._stack().append(span)
        return _ActiveSpan(self, span)

    def start(
        self,
        name: str,
        parent: Span | TraceContext | None = None,
    ) -> Span:
        """Start a detached span (caller must :meth:`end` it).

        Without an explicit *parent* the thread's current context is
        used; with neither, the span roots a new trace.
        """
        if parent is None:
            parent = self.current()
        n = next(self._ids)
        span_id = f"s{n:06x}"
        if parent is None:
            trace_id = f"t{n:06x}"
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        return Span(trace_id, span_id, parent_id, name, self._timer())

    def end(self, span: Span, status: str | None = None) -> Span:
        """Finish a detached span and export it."""
        if status is not None:
            span.status = status
        span.end = self._timer()
        for exporter in self.exporters:
            exporter.export(span)
        return span

    def _finish(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # pragma: no cover - defensive: out-of-order exit
            try:
                stack.remove(span)
            except ValueError:
                pass
        self.end(span)


class _NoopSpan:
    """Falsy, immutable stand-in; every mutator is a cheap no-op."""

    __slots__ = ()
    trace_id = ""
    span_id = ""
    parent_id = None
    name = ""
    status = "ok"
    duration_ms = 0.0

    def __bool__(self) -> bool:
        return False

    def set(self, key: str, value: Any) -> "_NoopSpan":
        return self

    def set_status(self, status: str) -> "_NoopSpan":
        return self


class _NoopCM:
    """Shared no-op context manager: zero allocation per use."""

    __slots__ = ()

    def __enter__(self) -> _NoopSpan:
        return _NOOP_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()
_NOOP_CM = _NoopCM()


class NoopTracer:
    """The default tracer: tracing off, no allocation on the hot path.

    ``span()`` / ``attach()`` hand back shared singletons and
    ``context()`` is ``None``, so instrumented code pays only the call
    overhead.  ``enabled`` is False — call sites with extra bookkeeping
    (capturing contexts for pool workers, say) gate on it.
    """

    enabled = False
    exporters: tuple[Any, ...] = ()

    def span(self, name: str) -> _NoopCM:
        return _NOOP_CM

    def attach(self, ctx: Any) -> _NoopCM:
        return _NOOP_CM

    def start(self, name: str, parent: Any = None) -> _NoopSpan:
        return _NOOP_SPAN

    def end(self, span: Any, status: str | None = None) -> _NoopSpan:
        return _NOOP_SPAN

    def current(self) -> None:
        return None

    def context(self) -> None:
        return None


#: Process-wide shared no-op tracer; the default for every engine.
NOOP_TRACER = NoopTracer()
