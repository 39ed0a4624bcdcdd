"""The catalog's write-ahead event stream.

Every :class:`~repro.catalog.store.CatalogStore` mutation appends a
typed, immutable record to a bounded in-process :class:`EventLog`
*before* bumping the corresponding domain version.  Consumers — the
execution engine's delta-patch sweep, the field resolver's incremental
usage snapshot, the store's own sorted-id memo, the relatedness indexes
(:mod:`repro.metadata.indexing`) — read the log by
offset: ``since(offset)`` returns exactly the records appended after
their last visit, so they can apply per-event deltas instead of
rebuilding on every ``domain_version`` change.

Ordering contract (load-bearing — see ``docs/write_path.md``): a
mutator applies state first, appends the event record second, and bumps
the domain version last.  A consumer woken by a version bump therefore
always finds the records explaining it already in the log; conversely a
record may be briefly visible before its bump, which is harmless
because patchers rebuild from live aggregates (re-processing an event
is a no-op).

:class:`EventStream` adds write coalescing on top: usage events are
buffered for a configurable window (or batch size) and applied through
:meth:`CatalogStore.record_events` in one shot — one version bump for
the whole batch instead of one per event.  Buffered events are entirely
invisible until the flush (state, log and bump all happen together), so
coalescing trades bounded *ingestion delay* for amortised invalidation
sweeps without ever serving stale results.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.catalog.domains import (
    DOMAIN_ENTITIES,
    DOMAIN_LINEAGE,
    DOMAIN_MEMBERSHIP,
    DOMAIN_USAGE,
)
from repro.catalog.model import UsageEvent

if TYPE_CHECKING:  # imported for type hints only; no runtime cycle
    from repro.catalog.store import CatalogStore


@dataclass(frozen=True)
class UsageEventRecord:
    """One usage event (view/open/edit/favorite/unfavorite) was folded
    into the usage log."""

    event: UsageEvent
    domain: str = DOMAIN_USAGE


@dataclass(frozen=True)
class LineageEventRecord:
    """One lineage edge was added to the graph."""

    src: str
    dst: str
    kind: str
    domain: str = DOMAIN_LINEAGE


@dataclass(frozen=True)
class MembershipEventRecord:
    """A user or team was added, or a team's definition replaced.

    ``added`` is False for in-place replacement (``set_team``), which
    may *remove* members — patchers must treat it as non-monotonic.
    """

    entity_kind: str  # "user" | "team"
    entity_id: str
    added: bool = True
    domain: str = DOMAIN_MEMBERSHIP


@dataclass(frozen=True)
class EntitiesEventRecord:
    """An artifact was added (``added=True``) or mutated in place
    (``added=False`` — badge grants and other non-monotonic edits)."""

    artifact_id: str
    added: bool = True
    domain: str = DOMAIN_ENTITIES


@dataclass(frozen=True)
class OpaqueEventRecord:
    """A mutation with no per-event delta representation touched
    ``domain``.  Consumers must fall back to their coarse path (drop the
    cache entry, rebuild the snapshot) for this domain."""

    domain: str
    reason: str = ""


#: Any record the log can hold.
EventRecord = (
    UsageEventRecord
    | LineageEventRecord
    | MembershipEventRecord
    | EntitiesEventRecord
    | OpaqueEventRecord
)


class EventLog:
    """A bounded, thread-safe, offset-addressed event log.

    Offsets are monotonically increasing over the store's lifetime; the
    log retains the most recent ``capacity`` records.  ``since`` tells a
    consumer when its offset fell off the tail (``truncated=True``) so
    it can fall back to a full rebuild instead of silently missing
    events.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._records: deque[EventRecord] = deque(maxlen=capacity)
        self._next_offset = 0
        # Offset of the oldest retained record; equals _next_offset when
        # the log is empty.  Tracked explicitly (not derived as
        # ``next - len``) so an explicitly truncated-empty log is
        # distinguishable from a brand-new one.
        self._first_offset = 0
        self._lock = threading.Lock()

    @property
    def offset(self) -> int:
        """The offset one past the most recent record."""
        with self._lock:
            return self._next_offset

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def append(self, record: EventRecord) -> int:
        """Append one record; returns its offset."""
        with self._lock:
            offset = self._next_offset
            self._records.append(record)  # bounded: may evict the oldest
            self._next_offset = offset + 1
            self._first_offset = self._next_offset - len(self._records)
            return offset

    def truncate(self) -> int:
        """Drop every retained record; returns how many were dropped.

        Offsets keep their meaning: the horizon moves to the current
        frontier, so a consumer holding any pre-truncation offset sees
        ``truncated=True`` from :meth:`since` and falls back to its full
        rebuild, exactly as after a capacity eviction.
        """
        with self._lock:
            dropped = len(self._records)
            self._records.clear()
            self._first_offset = self._next_offset
            return dropped

    def since(
        self, offset: int
    ) -> tuple[tuple[EventRecord, ...], int, bool]:
        """Records appended at or after ``offset``.

        Returns ``(records, next_offset, truncated)``: pass
        ``next_offset`` back on the next call.  ``truncated`` is True
        when ``offset`` predates the retained window — some records were
        lost and the consumer must fall back to a full rebuild.  This
        holds even when the log is *empty* (capacity evictions or
        :meth:`truncate` dropped everything): ``offset`` strictly below
        the horizon reports ``truncated=True`` with ``next`` pinned to
        the well-defined current frontier.  An ``offset`` beyond the
        frontier cannot have come from this log and is also reported as
        ``truncated`` rather than silently treated as caught-up.
        """
        with self._lock:
            next_offset = self._next_offset
            if offset < self._first_offset:
                return (), next_offset, True
            if offset > next_offset:
                return (), next_offset, True
            if offset == next_offset:
                return (), next_offset, False
            skip = offset - self._first_offset
            records = tuple(self._records)[skip:]
            return records, next_offset, False


class EventStream:
    """A coalescing writer for sustained usage-event streams.

    Buffers events and applies them through
    :meth:`CatalogStore.record_events` — one domain-version bump per
    flushed batch.  A flush happens when the batch reaches
    ``max_batch``, when the oldest buffered event is older than
    ``window_s``, or explicitly via :meth:`flush` (also on context-
    manager exit).  Thread-safe: many sessions may share one stream.
    """

    def __init__(
        self,
        store: CatalogStore,
        window_s: float = 0.05,
        max_batch: int = 256,
        timer: Callable[[], float] = time.monotonic,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.store = store
        self.window_s = window_s
        self.max_batch = max_batch
        self._timer = timer
        self._lock = threading.Lock()
        self._buffer: list[UsageEvent] = []
        self._window_started = 0.0

    @property
    def pending(self) -> int:
        """Buffered events not yet applied to the store."""
        with self._lock:
            return len(self._buffer)

    def record(
        self,
        artifact_id: str,
        user_id: str,
        action: str,
        at: float | None = None,
    ) -> None:
        """Buffer one usage event; flushes when the coalescing window
        closes or the batch fills."""
        timestamp = self.store.clock.now() if at is None else at
        event = UsageEvent(
            artifact_id=artifact_id,
            user_id=user_id,
            action=action,
            timestamp=timestamp,
        )
        now = self._timer()
        with self._lock:
            if not self._buffer:
                self._window_started = now
            self._buffer.append(event)
            due = (
                len(self._buffer) >= self.max_batch
                or now - self._window_started >= self.window_s
            )
            batch = self._take_locked() if due else None
        if batch:
            self.store.record_events(batch)

    def flush(self) -> int:
        """Apply all buffered events now; returns how many were applied."""
        with self._lock:
            batch = self._take_locked()
        if batch:
            self.store.record_events(batch)
        return len(batch)

    def _take_locked(self) -> list[UsageEvent]:
        batch = self._buffer
        self._buffer = []
        return batch

    def __enter__(self) -> EventStream:
        return self

    def __exit__(self, *exc_info) -> None:
        self.flush()


__all__ = [
    "EntitiesEventRecord",
    "EventLog",
    "EventRecord",
    "EventStream",
    "LineageEventRecord",
    "MembershipEventRecord",
    "OpaqueEventRecord",
    "UsageEventRecord",
]
