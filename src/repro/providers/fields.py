"""Metadata-field resolution for ranking.

Listing 1 assigns weights to metadata *fields* (``favorite``, ``views``)
and "values of metadata fields are multiplied with the ranking factor".
The resolver is the single place that knows how to turn a field name into
a number for an artifact, drawing on annotations, usage aggregates and
recency; the ranking engine stays a dumb weighted sum, exactly as the
paper intends (weights change, code does not).

**Stability: internal.**  Import through :mod:`repro` / the package
facades; this module's names may change without notice.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

from repro.catalog.domains import DOMAIN_USAGE
from repro.catalog.events import EventLog, OpaqueEventRecord, UsageEventRecord
from repro.catalog.store import CatalogStore

#: Field name -> short description; this is also the vocabulary the spec
#: validator accepts in ``ranking`` blocks.
RANKABLE_FIELDS: dict[str, str] = {
    "views": "total view count",
    "opens": "total open count",
    "edits": "total edit count",
    "favorite": "number of users who favourited the artifact",
    "unique_viewers": "distinct users who viewed the artifact",
    "recency": "1 / (1 + days since last view)",
    "freshness": "1 / (1 + days since creation)",
    "badge_count": "number of badges on the artifact",
    "endorsed": "1 if the artifact carries the 'endorsed' badge",
    "certified": "1 if the artifact carries the 'certified' badge",
    "deprecated": "1 if the artifact carries the 'deprecated' badge",
    "name_match": "reserved: query-time text score (supplied as base score)",
}


#: Column index of each usage-derived field in a snapshot row; ``recency``
#: is special-cased (it is computed from ``last_viewed_at`` at query time
#: because it depends on the clock, not only on the log).
_USAGE_ROW_COLUMNS = {
    "views": 0,
    "opens": 1,
    "edits": 2,
    "favorite": 3,
    "unique_viewers": 4,
}
_LAST_VIEWED_COLUMN = 5
#: Fields the batch path reads from the usage snapshot.
_SNAPSHOT_FIELDS = frozenset((*_USAGE_ROW_COLUMNS, "recency"))
_ZERO_ROW = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


class FieldResolver:
    """Resolves rankable field values for artifacts in a catalog."""

    def __init__(self, store: CatalogStore):
        self.store = store
        self._resolvers: dict[str, Callable[[str], float]] = {
            "views": self._views,
            "opens": self._opens,
            "edits": self._edits,
            "favorite": self._favorite,
            "unique_viewers": self._unique_viewers,
            "recency": self._recency,
            "freshness": self._freshness,
            "badge_count": self._badge_count,
            "endorsed": lambda aid: self._has_badge(aid, "endorsed"),
            "certified": lambda aid: self._has_badge(aid, "certified"),
            "deprecated": lambda aid: self._has_badge(aid, "deprecated"),
        }
        # The built-in resolvers, frozen at construction: a host resolver
        # installed through :meth:`register` (new or re-registered name)
        # is any entry that is no longer the one frozen here.
        self._builtin: dict[str, Callable[[str], float]] = dict(self._resolvers)
        # aid -> (views, opens, edits, favorite, unique_viewers,
        # last_viewed_at), rebuilt in one pass over the usage aggregates
        # whenever the usage domain version moves (PR 2's counters).
        self._usage_rows: dict[str, tuple] | None = None
        self._usage_rows_version = -1
        # Event-log offset the snapshot is current through; lets a usage
        # bump re-derive only the touched rows instead of all of them.
        self._usage_rows_offset = 0

    def known_fields(self) -> list[str]:
        return sorted(self._resolvers)

    def serves(self, field: str) -> bool:
        """True when *field* is resolved live (built-in or registered).

        Fields outside this set only resolve through the artifact's
        ``extra`` mapping or a provider-attached snapshot.
        """
        return field in self._resolvers

    def value(self, artifact_id: str, field: str) -> float:
        """Numeric value of *field* for *artifact_id*.

        Unknown fields fall back to the artifact's ``extra`` mapping (the
        extensibility path: an organisation can rank on custom numeric
        metadata without touching this module) and finally to 0.0.
        """
        resolver = self._resolvers.get(field)
        if resolver is not None:
            return resolver(artifact_id)
        raw = self.store.artifact(artifact_id).extra.get(field, 0.0)
        return _as_number(raw)

    def register(self, field: str, resolver: Callable[[str], float]) -> None:
        """Install a custom field resolver (organisation-specific metadata)."""
        self._resolvers[field] = resolver

    def registered_any(self, fields: Iterable[str]) -> bool:
        """True when any of *fields* is served by a resolver installed
        through :meth:`register` rather than a built-in one.

        A host resolver may read state outside the catalog, so values it
        returns are not covered by the store's version counter; fields
        resolved from an artifact's ``extra`` mapping are.
        """
        return any(
            self._resolvers.get(field) is not self._builtin.get(field)
            for field in fields
        )

    # -- batch resolution ------------------------------------------------------

    def values_batch(
        self, artifact_ids: Iterable[str], fields: Sequence[str]
    ) -> dict[str, list[float]]:
        """Resolve *fields* for every id in one pass; field -> column.

        Each returned column aligns with ``artifact_ids`` order.  Usage-
        derived fields (views, opens, …, recency) are read from a
        snapshot built in **one pass** over the usage aggregates and
        memoised against the store's ``usage`` domain version, so
        repeated searches pay O(result) dict lookups instead of
        re-walking per-(artifact, field) aggregate state.  Other fields
        (freshness, badges, ``extra``/custom resolvers) fall back to the
        per-artifact :meth:`value` path.  Per-id results are identical to
        :meth:`value` — the lazy top-k ranker depends on that.
        """
        ids = list(artifact_ids)
        columns: dict[str, list[float]] = {}
        rows: dict[str, tuple] | None = None
        for field in fields:
            if field in columns:
                continue
            # Only snapshot fields still served by the built-in usage
            # resolvers; a re-registered field must go through its
            # custom resolver even in batch mode.
            if field not in _SNAPSHOT_FIELDS or self.registered_any((field,)):
                columns[field] = [self.value(aid, field) for aid in ids]
                continue
            if rows is None:
                rows = self._usage_snapshot()
            if field == "recency":
                days_since = self.store.clock.days_since
                column = []
                for aid in ids:
                    last = rows.get(aid, _ZERO_ROW)[_LAST_VIEWED_COLUMN]
                    if last <= 0:
                        column.append(0.0)
                    else:
                        column.append(1.0 / (1.0 + max(days_since(last), 0.0)))
            else:
                index = _USAGE_ROW_COLUMNS[field]
                column = [rows.get(aid, _ZERO_ROW)[index] for aid in ids]
            columns[field] = column
        return columns

    def _usage_snapshot(self) -> dict[str, tuple]:
        """The usage-field rows, maintained incrementally when possible.

        When the usage domain version moves, the write-ahead event log
        names exactly which artifacts' aggregates changed; re-deriving
        only those rows turns an O(catalog) rebuild into O(writes).  The
        full one-pass rebuild remains the fallback — log truncation,
        opaque usage records (restores) and the first call all land
        there.  The version is read *before* draining the log so a bump
        racing this call at worst re-derives a row twice (idempotent:
        rows come from the live aggregates, not from the records).
        """
        version = self.store.domain_version(DOMAIN_USAGE)
        if self._usage_rows is not None and self._usage_rows_version != version:
            patched = self._patch_usage_rows()
            if patched is not None:
                self._usage_rows = patched
                self._usage_rows_version = version
                return self._usage_rows
        if self._usage_rows is None or self._usage_rows_version != version:
            log = getattr(self.store, "events", None)
            offset = log.offset if isinstance(log, EventLog) else 0
            self._usage_rows = {
                aid: self._usage_row(stats)
                for aid, stats in self.store.usage.all_stats()
            }
            self._usage_rows_version = version
            self._usage_rows_offset = offset
        return self._usage_rows

    def _patch_usage_rows(self) -> dict[str, tuple] | None:
        """Snapshot with only event-touched rows re-derived; None = rebuild."""
        log = getattr(self.store, "events", None)
        if not isinstance(log, EventLog) or self._usage_rows is None:
            return None
        records, next_offset, truncated = log.since(self._usage_rows_offset)
        if truncated:
            return None
        touched: set[str] = set()
        for record in records:
            if isinstance(record, UsageEventRecord):
                touched.add(record.event.artifact_id)
            elif (
                isinstance(record, OpaqueEventRecord)
                and record.domain == DOMAIN_USAGE
            ):
                return None  # e.g. a version restore: rows unexplained
        # Copy-and-swap so concurrent readers of the old snapshot never
        # observe a half-patched dict.
        rows = dict(self._usage_rows)
        for aid in touched:
            rows[aid] = self._usage_row(self.store.usage.stats(aid))
        self._usage_rows_offset = next_offset
        return rows

    @staticmethod
    def _usage_row(stats) -> tuple:
        return (
            float(stats.view_count),
            float(stats.open_count),
            float(stats.edit_count),
            float(stats.favorite_count),
            float(len(stats.viewers)),
            stats.last_viewed_at,
        )

    # -- built-in fields ------------------------------------------------------

    def _views(self, artifact_id: str) -> float:
        return float(self.store.usage_stats(artifact_id).view_count)

    def _opens(self, artifact_id: str) -> float:
        return float(self.store.usage_stats(artifact_id).open_count)

    def _edits(self, artifact_id: str) -> float:
        return float(self.store.usage_stats(artifact_id).edit_count)

    def _favorite(self, artifact_id: str) -> float:
        return float(self.store.usage_stats(artifact_id).favorite_count)

    def _unique_viewers(self, artifact_id: str) -> float:
        return float(self.store.usage_stats(artifact_id).unique_viewers)

    def _recency(self, artifact_id: str) -> float:
        last = self.store.usage_stats(artifact_id).last_viewed_at
        if last <= 0:
            return 0.0
        days = max(self.store.clock.days_since(last), 0.0)
        return 1.0 / (1.0 + days)

    def _freshness(self, artifact_id: str) -> float:
        created = self.store.artifact(artifact_id).created_at
        if created <= 0:
            return 0.0
        days = max(self.store.clock.days_since(created), 0.0)
        return 1.0 / (1.0 + days)

    def _badge_count(self, artifact_id: str) -> float:
        return float(len(self.store.artifact(artifact_id).badges))

    def _has_badge(self, artifact_id: str, badge: str) -> float:
        return 1.0 if self.store.artifact(artifact_id).has_badge(badge) else 0.0


def _as_number(raw: object) -> float:
    """Best-effort numeric coercion: bools, numbers, numeric strings, else 0."""
    if isinstance(raw, bool):
        return 1.0 if raw else 0.0
    if isinstance(raw, (int, float)):
        value = float(raw)
        return value if math.isfinite(value) else 0.0
    if isinstance(raw, str):
        try:
            value = float(raw)
        except ValueError:
            return 0.0
        return value if math.isfinite(value) else 0.0
    return 0.0
