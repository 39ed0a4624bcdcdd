"""Usage-event log with incrementally maintained aggregates.

The paper's interaction-metadata providers (view counts, recents, favourites,
"frequently viewed by my team") all read from these aggregates; keeping them
incremental lets the scaling benchmarks replay hundreds of thousands of
events without quadratic recomputation.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import ItemsView, Sequence

from repro.catalog.model import UsageEvent


@dataclass
class UsageStats:
    """Aggregated interaction metadata for one artifact."""

    view_count: int = 0
    edit_count: int = 0
    open_count: int = 0
    favorite_count: int = 0
    last_viewed_at: float = 0.0
    last_edited_at: float = 0.0
    viewers: set[str] = field(default_factory=set)
    favorited_by: set[str] = field(default_factory=set)

    @property
    def unique_viewers(self) -> int:
        return len(self.viewers)


class UsageLog:
    """Append-only event log plus per-artifact and per-user aggregates."""

    def __init__(self) -> None:
        self._events: list[UsageEvent] = []
        self._stats: dict[str, UsageStats] = defaultdict(UsageStats)
        # Per-user recency: artifact -> last time *this user* touched it.
        self._user_recents: dict[str, dict[str, float]] = defaultdict(dict)
        # Per-user view counts: user -> artifact -> views by that user.
        self._user_views: dict[str, dict[str, int]] = defaultdict(dict)

    def __len__(self) -> int:
        return len(self._events)

    def record(self, event: UsageEvent) -> None:
        """Append *event* and fold it into the aggregates."""
        self._events.append(event)
        self._fold(event)

    def record_many(self, events: "Sequence[UsageEvent]") -> None:
        """Fold a whole batch in one call.

        The store's streaming write path applies coalesced batches
        through this so the usage domain version bumps once per batch,
        not once per event.
        """
        for event in events:
            self.record(event)

    def _fold(self, event: UsageEvent) -> None:
        """Fold one event into the aggregates (shared with lazy backends,
        which journal the raw event separately from the resident log)."""
        stats = self._stats[event.artifact_id]
        if event.action == "view":
            stats.view_count += 1
            stats.last_viewed_at = max(stats.last_viewed_at, event.timestamp)
            stats.viewers.add(event.user_id)
            self._count_view(event)
        elif event.action == "open":
            stats.open_count += 1
            stats.viewers.add(event.user_id)
        elif event.action == "edit":
            stats.edit_count += 1
            stats.last_edited_at = max(stats.last_edited_at, event.timestamp)
        elif event.action == "favorite":
            if event.user_id not in stats.favorited_by:
                stats.favorited_by.add(event.user_id)
                stats.favorite_count += 1
        elif event.action == "unfavorite":
            if event.user_id in stats.favorited_by:
                stats.favorited_by.discard(event.user_id)
                stats.favorite_count -= 1
        recents = self._user_recents[event.user_id]
        previous = recents.get(event.artifact_id, 0.0)
        recents[event.artifact_id] = max(previous, event.timestamp)

    def _count_view(self, event: UsageEvent) -> None:
        views = self._user_views[event.user_id]
        views[event.artifact_id] = views.get(event.artifact_id, 0) + 1

    def stats(self, artifact_id: str) -> UsageStats:
        """Aggregates for *artifact_id* (zeros if never used)."""
        return self._stats.get(artifact_id, UsageStats())

    def all_stats(self) -> "ItemsView[str, UsageStats]":
        """Every artifact's aggregates in one pass (live view, no copy).

        The batch field resolver snapshots usage-derived ranking fields
        from this instead of issuing one :meth:`stats` lookup per
        (artifact, field) pair per search.
        """
        return self._stats.items()

    def events(self) -> tuple[UsageEvent, ...]:
        """All events in arrival order (a copy-free snapshot)."""
        return tuple(self._events)

    def recent_for_user(self, user_id: str, limit: int = 20) -> list[str]:
        """Artifact ids *user_id* touched, most recent first."""
        recents = self._user_recents.get(user_id, {})
        ordered = sorted(recents.items(), key=lambda kv: (-kv[1], kv[0]))
        return [artifact_id for artifact_id, _ in ordered[:limit]]

    def favorites_of(self, user_id: str) -> list[str]:
        """Artifact ids currently favourited by *user_id* (sorted for determinism)."""
        return sorted(
            artifact_id
            for artifact_id, stats in self._stats.items()
            if user_id in stats.favorited_by
        )

    def most_viewed(self, limit: int = 20) -> list[tuple[str, int]]:
        """``(artifact_id, view_count)`` pairs, most viewed first."""
        ranked = sorted(
            ((aid, s.view_count) for aid, s in self._stats.items() if s.view_count),
            key=lambda kv: (-kv[1], kv[0]),
        )
        return ranked[:limit]

    def views_by_users(self, user_ids: set[str]) -> dict[str, int]:
        """Per-artifact view counts restricted to events by *user_ids*.

        Used by the "popular with my team" provider; summed over the
        per-user view counts, so a call costs the members' distinct
        viewed artifacts, not a scan of the raw log.
        """
        counts: dict[str, int] = defaultdict(int)
        for user_id in user_ids:
            # A copy: a concurrent record may add an artifact to the dict.
            per_artifact = list(self._user_views.get(user_id, {}).items())
            for artifact_id, views in per_artifact:
                counts[artifact_id] += views
        return dict(counts)
