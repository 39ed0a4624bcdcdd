"""Shared machinery of the relatedness indexes.

Two pieces every relatedness index uses:

* :func:`head` — the first *limit* items of ``sorted(items, key=key)``,
  heap-selected when that is cheaper than sorting every candidate;
* :class:`CatalogFollower` — keeps a per-artifact index current with
  the catalog's writes.  It replays the store's write-ahead event log
  (:class:`~repro.catalog.events.EventLog`) whenever the ``entities`` or
  ``text`` domain version moves, re-reading only the artifacts the log
  names, and re-indexing one only when the content the index holds for
  it changed.  A truncated log, or an opaque ``entities``/``text``
  record (a version restore, ``clear_token_cache``), rebuilds the whole
  index.  This is the rule ``CatalogStore.artifact_ids`` and the field
  resolver's usage snapshot already follow.
"""

from __future__ import annotations

import heapq
import threading
from typing import Callable, Sequence, TypeVar

from repro.catalog.domains import DOMAIN_ENTITIES, DOMAIN_TEXT
from repro.catalog.events import (
    EntitiesEventRecord,
    EventLog,
    OpaqueEventRecord,
)
from repro.catalog.model import Artifact
from repro.catalog.store import CatalogStore

T = TypeVar("T")
F = TypeVar("F", bound="CatalogFollower")

_FOLLOWED = (DOMAIN_ENTITIES, DOMAIN_TEXT)
_ABSENT = object()


def head(
    items: Sequence[T], limit: int, key: Callable[[T], object] | None = None
) -> list[T]:
    """``sorted(items, key=key)[:limit]``, heap-selected for small heads
    (``heapq.nsmallest`` keeps the sort's order, ties included)."""
    if 0 <= limit < len(items):
        return heapq.nsmallest(limit, items, key=key)
    return sorted(items, key=key)[:limit]


class CatalogFollower:
    """A per-artifact index that follows a store's entity writes.

    Subclasses say what they index about an artifact
    (:meth:`_content`, compared by ``==`` to decide whether a write
    changed it) and how to put it in and take it out (:meth:`_put`,
    :meth:`_drop`, :meth:`_reset`, optionally a bulk :meth:`_load`).
    Lookups call :meth:`_sync` while holding :attr:`_lock`; the lock
    spans the sync and the read, so a reader never sees a half-updated
    index.
    """

    def __init__(self, store: CatalogStore):
        self.store = store
        self._lock = threading.RLock()
        # (entities, text) versions the index reflects; None = not built.
        self._synced: tuple[int, ...] | None = None
        # Event-log offset the index is current through.
        self._offset = 0
        self._contents: dict[str, object] = {}

    # -- subclass hooks ----------------------------------------------------

    def _content(self, artifact: Artifact) -> object:
        raise NotImplementedError

    def _put(self, artifact_id: str, content: object) -> None:
        raise NotImplementedError

    def _drop(self, artifact_id: str, content: object) -> None:
        raise NotImplementedError

    def _reset(self) -> None:
        raise NotImplementedError

    def _load(self, contents: list[tuple[str, object]]) -> None:
        """Index many artifacts into an empty index (full rebuilds)."""
        for artifact_id, content in contents:
            self._put(artifact_id, content)

    def build(self: F) -> F:
        """Bring the index up to date with the store; idempotent."""
        with self._lock:
            self._sync()
        return self

    # -- synchronisation ---------------------------------------------------

    def _index_artifact(self, artifact: Artifact) -> None:
        """(Re)index one artifact unless its content is unchanged."""
        content = self._content(artifact)
        previous = self._contents.get(artifact.id, _ABSENT)
        if previous == content:
            return
        if previous is not _ABSENT:
            self._drop(artifact.id, previous)
        self._contents[artifact.id] = content
        self._put(artifact.id, content)

    def _forget(self, artifact_id: str) -> None:
        previous = self._contents.pop(artifact_id, _ABSENT)
        if previous is not _ABSENT:
            self._drop(artifact_id, previous)

    def _sync(self) -> None:
        """Bring the index up to the store's current entities/text state.

        The versions are read before the log is drained, so a write that
        lands in between is at worst replayed twice; replaying re-reads
        the live artifact and is idempotent.
        """
        versions = tuple(self.store.domain_version(d) for d in _FOLLOWED)
        if versions == self._synced:
            return
        log = getattr(self.store, "events", None)
        if not isinstance(log, EventLog):
            log = None
        if self._synced is not None and log is not None:
            records, next_offset, truncated = log.since(self._offset)
            touched = None if truncated else _touched(records)
            if touched is not None:
                for artifact_id in touched:
                    if self.store.has_artifact(artifact_id):
                        self._index_artifact(self.store.artifact(artifact_id))
                    else:
                        self._forget(artifact_id)
                self._offset = next_offset
                self._synced = versions
                return
        # Offset first: writes landing mid-scan replay on the next sync.
        offset = log.offset if log is not None else 0
        self._rebuild()
        self._offset = offset
        self._synced = versions

    def _rebuild(self) -> None:
        self._reset()
        self._contents = {
            artifact.id: self._content(artifact)
            for artifact in self.store.artifacts()
        }
        self._load(list(self._contents.items()))


def _touched(records) -> list[str] | None:
    """Artifact ids named by entity records, in first-seen order; None
    when an opaque entities/text record leaves the writes unexplained."""
    touched: dict[str, None] = {}
    for record in records:
        if isinstance(record, EntitiesEventRecord):
            touched[record.artifact_id] = None
        elif isinstance(record, OpaqueEventRecord) and record.domain in _FOLLOWED:
            return None
    return list(touched)


__all__ = ["CatalogFollower", "head"]
