"""Unit tests for the usage log and its aggregates."""

import random
from collections import Counter

import pytest

from repro.catalog.model import Artifact, UsageEvent, User
from repro.catalog.store import CatalogStore
from repro.catalog.usage import UsageLog


def ev(artifact, user, action, ts):
    return UsageEvent(artifact, user, action, ts)


class TestAggregates:
    def test_views_and_recency(self):
        log = UsageLog()
        log.record(ev("a", "u1", "view", 10.0))
        log.record(ev("a", "u2", "view", 20.0))
        log.record(ev("a", "u1", "view", 5.0))
        stats = log.stats("a")
        assert stats.view_count == 3
        assert stats.last_viewed_at == 20.0
        assert stats.unique_viewers == 2

    def test_unknown_artifact_zero_stats(self):
        stats = UsageLog().stats("ghost")
        assert stats.view_count == 0
        assert stats.unique_viewers == 0

    def test_favorite_idempotent(self):
        log = UsageLog()
        log.record(ev("a", "u1", "favorite", 1.0))
        log.record(ev("a", "u1", "favorite", 2.0))
        assert log.stats("a").favorite_count == 1

    def test_unfavorite(self):
        log = UsageLog()
        log.record(ev("a", "u1", "favorite", 1.0))
        log.record(ev("a", "u1", "unfavorite", 2.0))
        stats = log.stats("a")
        assert stats.favorite_count == 0
        assert "u1" not in stats.favorited_by

    def test_unfavorite_without_favorite_is_noop(self):
        log = UsageLog()
        log.record(ev("a", "u1", "unfavorite", 1.0))
        assert log.stats("a").favorite_count == 0

    def test_edit_and_open_counted(self):
        log = UsageLog()
        log.record(ev("a", "u1", "edit", 1.0))
        log.record(ev("a", "u1", "open", 2.0))
        stats = log.stats("a")
        assert stats.edit_count == 1
        assert stats.open_count == 1
        assert stats.last_edited_at == 1.0


class TestQueries:
    def test_recent_for_user_ordering(self):
        log = UsageLog()
        log.record(ev("a", "u1", "view", 10.0))
        log.record(ev("b", "u1", "view", 30.0))
        log.record(ev("c", "u1", "view", 20.0))
        log.record(ev("d", "u2", "view", 99.0))  # different user
        assert log.recent_for_user("u1") == ["b", "c", "a"]

    def test_recent_for_user_limit(self):
        log = UsageLog()
        for index in range(5):
            log.record(ev(f"a{index}", "u1", "view", float(index)))
        assert len(log.recent_for_user("u1", limit=2)) == 2

    def test_recent_for_user_latest_touch_wins(self):
        log = UsageLog()
        log.record(ev("a", "u1", "view", 10.0))
        log.record(ev("b", "u1", "view", 20.0))
        log.record(ev("a", "u1", "edit", 30.0))
        assert log.recent_for_user("u1") == ["a", "b"]

    def test_favorites_of(self):
        log = UsageLog()
        log.record(ev("b", "u1", "favorite", 1.0))
        log.record(ev("a", "u1", "favorite", 2.0))
        log.record(ev("c", "u2", "favorite", 3.0))
        assert log.favorites_of("u1") == ["a", "b"]

    def test_most_viewed(self):
        log = UsageLog()
        for _ in range(3):
            log.record(ev("hot", "u1", "view", 1.0))
        log.record(ev("cold", "u1", "view", 1.0))
        assert log.most_viewed() == [("hot", 3), ("cold", 1)]

    def test_most_viewed_tie_breaks_on_id(self):
        log = UsageLog()
        log.record(ev("b", "u1", "view", 1.0))
        log.record(ev("a", "u1", "view", 1.0))
        assert log.most_viewed() == [("a", 1), ("b", 1)]

    def test_views_by_users_restricts(self):
        log = UsageLog()
        log.record(ev("a", "u1", "view", 1.0))
        log.record(ev("a", "u2", "view", 2.0))
        log.record(ev("b", "u2", "view", 3.0))
        counts = log.views_by_users({"u2"})
        assert counts == {"a": 1, "b": 1}

    def test_len_counts_events(self):
        log = UsageLog()
        log.record(ev("a", "u1", "view", 1.0))
        log.record(ev("a", "u1", "open", 2.0))
        assert len(log) == 2
        assert len(log.events()) == 2


def scanned_views(store, user_ids):
    """Team view counts the way they were computed before per-user
    counters: one pass over the raw event log."""
    return dict(Counter(
        e.artifact_id for e in store.usage.events()
        if e.action == "view" and e.user_id in user_ids
    ))


class TestViewsByUsers:
    """``views_by_users`` sums per-user counters; it must agree with a
    scan of the raw log on both backends, before and after a flush, and
    across a reopen (stored counts plus unflushed events)."""

    USERS = ("u1", "u2", "u3", "u4")
    TEAMS = ({"u1"}, {"u1", "u2"}, {"u3", "u4", "ghost"}, set(USERS))

    def _record(self, store, rng, n):
        for _ in range(n):
            store.record(f"a{rng.randrange(6)}", rng.choice(self.USERS),
                         rng.choice(("view", "view", "open", "edit")))

    def _check(self, store):
        for team in self.TEAMS:
            assert store.usage.views_by_users(team) == \
                scanned_views(store, team)

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_matches_a_scan_of_the_log(self, backend, tmp_path):
        path = tmp_path / "catalog.db"
        store = CatalogStore() if backend == "memory" else \
            CatalogStore.open(path)
        for user_id in self.USERS:
            store.add_user(User(id=user_id, name=user_id))
        for i in range(6):
            store.add_artifact(Artifact(id=f"a{i}", name=f"table {i}",
                                        artifact_type="table"))
        rng = random.Random(7)
        self._record(store, rng, 60)
        self._check(store)
        store.flush()
        self._record(store, rng, 20)
        self._check(store)
        if backend == "memory":
            return
        store.close()

        store = CatalogStore.open(path)
        self._record(store, rng, 15)  # unflushed, before the first read
        assert not store.storage_info()["hydrated"]["usage_events"]
        counts = store.usage.views_by_users(set(self.USERS))
        assert not store.storage_info()["hydrated"]["usage_events"]
        self._record(store, rng, 15)  # after the counters hydrated
        assert store.usage.views_by_users(set(self.USERS)) != counts
        self._check(store)
        store.close()
