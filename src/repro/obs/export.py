"""Span exporters and renderers.

Exporters receive finished spans from a :class:`repro.obs.Tracer` via
``export(span)``:

- :class:`RingBufferExporter` — bounded in-memory buffer; the test and
  CLI workhorse (``ring.spans()``, ``ring.traces()``).
- :class:`JsonlExporter` / :func:`export_jsonl` — one JSON object per
  line, the on-disk trace format.

:func:`render_span_tree` turns a bag of finished spans back into an
indented text tree with per-span timings, status and attributes — what
``repro search --trace`` prints.

**Stability: public** via :mod:`repro.obs`.
"""

from __future__ import annotations

import io
import json
import threading
from collections import deque
from typing import IO, Any, Iterable, Sequence

from repro.obs.trace import Span

__all__ = [
    "JsonlExporter",
    "RingBufferExporter",
    "export_jsonl",
    "render_span_tree",
]


class RingBufferExporter:
    """Keeps the most recent *capacity* finished spans in memory."""

    def __init__(self, capacity: int = 4096):
        self._lock = threading.Lock()
        self._spans: deque[Span] = deque(maxlen=capacity)

    def export(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def spans(self) -> list[Span]:
        """Snapshot of buffered spans, oldest first."""
        with self._lock:
            return list(self._spans)

    def traces(self) -> dict[str, list[Span]]:
        """Buffered spans grouped by trace id (insertion order kept)."""
        out: dict[str, list[Span]] = {}
        for span in self.spans():
            out.setdefault(span.trace_id, []).append(span)
        return out

    def trace(self, trace_id: str) -> list[Span]:
        return [s for s in self.spans() if s.trace_id == trace_id]

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


class JsonlExporter:
    """Streams each finished span to *fp* as one JSON line."""

    def __init__(self, fp: IO[str]):
        self._fp = fp
        self._lock = threading.Lock()

    def export(self, span: Span) -> None:
        line = json.dumps(span.to_dict(), sort_keys=True)
        with self._lock:
            self._fp.write(line + "\n")


def export_jsonl(spans: Iterable[Span], fp: IO[str] | None = None) -> str:
    """Serialize *spans* as JSONL; returns the text (also written to *fp*)."""
    buffer = io.StringIO()
    for span in spans:
        buffer.write(json.dumps(span.to_dict(), sort_keys=True))
        buffer.write("\n")
    text = buffer.getvalue()
    if fp is not None:
        fp.write(text)
    return text


def render_span_tree(
    spans: Sequence[Span],
    attrs: bool = True,
) -> str:
    """Indented text rendering of one or more traces.

    Children sort by start time under their parent; spans whose parent
    is missing from *spans* (e.g. a ring buffer that rolled over) render
    as roots.  Attribute annotations (``cache=hit``, ``skipped=2`` …)
    follow the timing.
    """
    by_id = {span.span_id: span for span in spans}
    children: dict[str | None, list[Span]] = {}
    for span in spans:
        parent = span.parent_id if span.parent_id in by_id else None
        children.setdefault(parent, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: (s.start, s.span_id))

    lines: list[str] = []

    def walk(span: Span, depth: int) -> None:
        parts = [
            f"{'  ' * depth}{span.name}",
            f"{span.duration_ms:.3f} ms",
        ]
        if span.status != "ok":
            parts.append(f"[{span.status}]")
        if attrs and span.attrs:
            parts.append(
                " ".join(f"{k}={_short(v)}" for k, v in sorted(span.attrs.items()))
            )
        lines.append("  ".join(parts))
        for child in children.get(span.span_id, ()):
            walk(child, depth + 1)

    for root in children.get(None, ()):
        walk(root, 0)
    return "\n".join(lines)


def _short(value: Any) -> str:
    text = str(value)
    if len(text) > 60:
        return text[:57] + "..."
    return text
