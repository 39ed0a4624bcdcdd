"""Backend conformance: every storage backend behaves identically.

The same store-level assertions run against the in-memory backend
(``CatalogStore()``) and the persistent SQLite backend
(``CatalogStore.open``) — the backend is an implementation detail, so no
observable behaviour may differ.  A hypothesis property drives random
interleaved write/read sequences through both (with flushes at random
points and a close/reopen in the middle and at the end for the persistent
one) and demands identical answers and identical postings.
"""

import dataclasses
import sqlite3
import sys
import threading
from contextlib import closing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.model import Artifact, ArtifactType, Team, User
from repro.catalog.store import CatalogStore
from repro.errors import CatalogError, DuplicateEntityError

BACKENDS = ("memory", "sqlite")


def make_store(kind, tmp_path):
    if kind == "memory":
        return CatalogStore()
    return CatalogStore.open(tmp_path / "catalog.db")


@pytest.fixture(params=BACKENDS)
def store(request, tmp_path):
    s = make_store(request.param, tmp_path)
    yield s
    s.close()


def seed_store(store):
    store.add_user(User(id="u1", name="Ada", role="manager"))
    store.add_user(User(id="u2", name="Grace", role="analyst",
                        team_ids=("t1",)))
    store.add_team(Team(id="t1", name="Data",
                        admin_ids=("u1",), member_ids=("u1", "u2")))
    for i in range(4):
        store.add_artifact(Artifact(
            id=f"a{i}", name=f"orders summary {i}",
            artifact_type="table" if i % 2 == 0 else "dashboard",
            owner_id="u1" if i < 2 else "u2",
            team_ids=("t1",), tags=("Sales",),
            description="monthly orders rollup",
        ))
    store.grant_badge("a0", "endorsed", "u1")
    store.grant_badge("a1", "endorsed", "u2")
    store.record("a0", "u2", "view")
    store.record("a0", "u2", "favorite")
    store.lineage.add_edge("a0", "a1", "derives")


class TestConformance:
    def test_entity_crud_and_duplicates(self, store):
        seed_store(store)
        assert len(store) == 4
        assert store.user_count == 2 and store.team_count == 1
        assert store.artifact("a2").owner_id == "u2"
        with pytest.raises(DuplicateEntityError):
            store.add_user(User(id="u1", name="Ada"))
        with pytest.raises(DuplicateEntityError):
            store.add_artifact(Artifact(id="a0", name="x",
                                        artifact_type="table"))
        assert store.resolve(["a1", "missing", "a3"]) == [
            store.artifact("a1"), store.artifact("a3")
        ]

    def test_secondary_indexes(self, store):
        seed_store(store)
        assert store.by_type(ArtifactType.TABLE) == ["a0", "a2"]
        assert store.by_type("dashboard") == ["a1", "a3"]
        assert store.by_owner("u1") == ["a0", "a1"]
        assert store.by_tag("sales") == ["a0", "a1", "a2", "a3"]
        assert store.by_team("t1") == ["a0", "a1", "a2", "a3"]
        assert store.by_badge("endorsed") == ["a0", "a1"]
        assert store.by_badge("endorsed", granted_by="u2") == ["a1"]
        assert store.badges_in_use() == ["endorsed"]
        assert store.tags_in_use() == ["sales"]

    def test_index_size_matches_bucket_lengths(self, store):
        seed_store(store)
        for kind, key in [("type", "table"), ("owner", "u1"),
                          ("badge", "endorsed"), ("tag", "Sales"),
                          ("team", "t1"), ("token", "ORDERS")]:
            lookup = {
                "type": store.by_type, "owner": store.by_owner,
                "badge": store.by_badge, "tag": store.by_tag,
                "team": store.by_team, "token": store.by_token,
            }[kind]
            assert store.index_size(kind, key) == len(lookup(key))
        assert store.index_size("type", "no-such-type") == 0
        assert store.index_size("nonsense", "x") == 0

    def test_search_tokens_is_conjunctive(self, store):
        seed_store(store)
        assert store.search_tokens(["orders", "summary"]) == [
            "a0", "a1", "a2", "a3"
        ]
        assert store.search_tokens(["orders", "3"]) == ["a3"]
        assert store.search_tokens(["orders", "absent"]) == []
        assert store.search_tokens([]) == []

    def test_usage_and_lineage(self, store):
        seed_store(store)
        assert store.usage_stats("a0").view_count == 1
        assert store.usage.favorites_of("u2") == ["a0"]
        assert store.usage.recent_for_user("u2") == ["a0"]
        assert len(store.usage) == 2
        assert sorted(store.lineage.downstream("a0")) == ["a1"]
        assert store.lineage.edge_count == 1

    def test_membership_queries(self, store):
        seed_store(store)
        assert store.find_user_by_name("ada").id == "u1"
        assert store.find_user_by_name("nobody") is None
        assert [t.id for t in store.teams_of("u2")] == ["t1"]

    def test_domain_versions_bump_per_domain(self, store):
        seed_store(store)
        before = store.domain_versions
        store.record("a1", "u1", "view")
        after = store.domain_versions
        assert after["usage"] == before["usage"] + 1
        assert after["entities"] == before["entities"]
        store.grant_badge("a2", "golden", "u1")
        bumped = store.domain_versions
        # A badge grant is a badges-only write: badges are in neither the
        # searchable text nor the artifact's other annotations.
        assert bumped["badges"] == after["badges"] + 1
        assert bumped["entities"] == after["entities"]
        assert bumped["text"] == after["text"]
        assert bumped["usage"] == after["usage"]

    def test_bump_moves_domain_counters_before_the_total(self, store):
        """A reader that sees the new total must find the domain counters
        it covers already moved: the engine's cache trusts an unchanged
        total to mean no write finished since an entry's stamp."""
        seed_store(store)
        backend = store._backend
        totals_seen = []

        class Spy(dict):
            def __setitem__(self, key, value):
                totals_seen.append(backend.version())
                super().__setitem__(key, value)

        backend._versions = Spy(backend._versions)
        before = store.version
        store.record("a1", "u1", "view")
        assert totals_seen == [before]
        assert store.version == before + 1

    def test_lineage_writes_bump_lineage_domain(self, store):
        seed_store(store)
        before = store.domain_version("lineage")
        store.lineage.add_edge("a1", "a2", "embeds")
        assert store.domain_version("lineage") == before + 1

    def test_clear_token_cache_bumps_text_domain(self, store):
        """Satellite fix: dropping memoised token sets is a text write."""
        seed_store(store)
        store.artifact_tokens("a0")  # populate the memo
        text_before = store.domain_version("text")
        total_before = store.version
        store.clear_token_cache()
        assert store.domain_version("text") == text_before + 1
        assert store.version == total_before + 1

    def test_filter_artifacts(self, store):
        seed_store(store)
        tables = store.filter_artifacts(
            lambda a: a.artifact_type is ArtifactType.TABLE
        )
        assert [a.id for a in tables] == ["a0", "a2"]


class _FailOnce:
    """A write connection that raises once, on the first statement whose
    SQL contains *needle*, and forwards everything else."""

    def __init__(self, conn, needle):
        self._conn, self._needle, self.fired = conn, needle, False

    def __getattr__(self, name):
        return getattr(self._conn, name)

    def __enter__(self):
        return self._conn.__enter__()

    def __exit__(self, *exc_info):
        return self._conn.__exit__(*exc_info)

    def executemany(self, sql, rows):
        if self._needle in sql and not self.fired:
            self.fired = True
            raise sqlite3.OperationalError("injected failure")
        return self._conn.executemany(sql, rows)


def _stored_postings(path):
    with closing(sqlite3.connect(path)) as conn:
        return set(conn.execute("SELECT kind, key, id FROM postings"))


class TestSqlitePersistence:
    """Behaviour only the persistent backend has: durability and laziness."""

    def test_reload_matches_fresh_rebuild(self, tmp_path):
        """A reloaded store answers exactly like one rebuilt from scratch."""
        persistent = CatalogStore.open(tmp_path / "catalog.db")
        seed_store(persistent)
        persistent.close()

        rebuilt = CatalogStore()
        seed_store(rebuilt)

        reloaded = CatalogStore.open(tmp_path / "catalog.db")
        for tokens in (["orders"], ["orders", "summary"], ["orders", "0"]):
            assert reloaded.search_tokens(tokens) == \
                rebuilt.search_tokens(tokens)
        for kind, key in [("type", "table"), ("owner", "u2"),
                          ("badge", "endorsed"), ("tag", "sales"),
                          ("team", "t1"), ("token", "orders")]:
            assert reloaded.index_size(kind, key) == \
                rebuilt.index_size(kind, key), (kind, key)
        assert reloaded.artifact_ids() == rebuilt.artifact_ids()
        assert len(reloaded.usage) == len(rebuilt.usage)
        assert reloaded.lineage.edge_count == rebuilt.lineage.edge_count
        reloaded.close()

    def test_domain_versions_survive_restart(self, tmp_path):
        store = CatalogStore.open(tmp_path / "catalog.db")
        seed_store(store)
        versions, total = store.domain_versions, store.version
        store.close()
        reloaded = CatalogStore.open(tmp_path / "catalog.db")
        assert reloaded.domain_versions == versions
        assert reloaded.version == total
        reloaded.close()

    def test_clock_survives_restart(self, tmp_path):
        store = CatalogStore.open(tmp_path / "catalog.db")
        store.clock.advance(days=3)
        now = store.clock.now()
        store.close()
        reloaded = CatalogStore.open(tmp_path / "catalog.db")
        assert reloaded.clock.now() == now
        reloaded.close()

    def test_cold_start_stays_lazy(self, tmp_path):
        """Point queries against a reopened store hydrate only what they
        touch — entities and usage stay cold after a token search."""
        store = CatalogStore.open(tmp_path / "catalog.db")
        seed_store(store)
        store.close()
        reloaded = CatalogStore.open(tmp_path / "catalog.db")
        reloaded.search_tokens(["orders", "summary"])
        reloaded.index_size("type", "table")
        hydrated = reloaded.storage_info()["hydrated"]
        assert not hydrated["entities"]
        assert not hydrated["membership"]
        assert not hydrated["usage_stats"]
        assert not hydrated["usage_events"]
        assert not hydrated["lineage"]
        reloaded.close()

    def test_writes_before_flush_are_visible(self, tmp_path):
        store = CatalogStore.open(tmp_path / "catalog.db")
        seed_store(store)
        store.flush()
        store.add_artifact(Artifact(id="a9", name="orders extra",
                                    artifact_type="table", tags=("sales",)))
        # Unflushed writes must be visible through every read path.
        assert "a9" in store.search_tokens(["orders", "extra"])
        assert "a9" in store.by_tag("sales")
        assert store.index_size("token", "extra") == 1
        assert len(store) == 5
        store.close()

    def test_unknown_schema_version_fails_loudly(self, tmp_path):
        path = tmp_path / "catalog.db"
        store = CatalogStore.open(path)
        seed_store(store)
        store.close()
        with sqlite3.connect(path) as conn:
            conn.execute("PRAGMA user_version=99")
        with pytest.raises(CatalogError, match="schema version"):
            CatalogStore.open(path)

    def test_failed_flush_keeps_every_write(self, tmp_path):
        """A flush that raises partway rolls back and forgets nothing:
        the next flush persists every write the failed one held."""
        path = tmp_path / "catalog.db"
        store = CatalogStore.open(path)
        seed_store(store)
        store.close()
        store = CatalogStore.open(path)
        store.grant_badge("a2", "golden", "u1")
        store.record("a2", "u1", "view")
        backend = store._backend
        backend._conn = _FailOnce(backend._conn, "INTO usage_events")
        with pytest.raises(sqlite3.OperationalError, match="injected"):
            store.flush()
        store.flush()
        store.close()

        assert {("badge", "golden", "a2"),
                ("badge_grantor", "golden\x1fu1", "a2")} \
            <= _stored_postings(path)
        reopened = CatalogStore.open(path)
        assert "golden" in reopened.artifact("a2").badge_names()
        assert reopened.by_badge("golden") == ["a2"]
        assert reopened.usage_stats("a2").view_count == 1
        assert len(reopened.usage) == 3
        reopened.close()

    def test_grant_flush_writes_only_its_postings(self, tmp_path):
        """A grant hydrates and writes its two badge buckets, nothing
        else: one posting row each, not the artifact's other buckets."""
        path = tmp_path / "catalog.db"
        store = CatalogStore.open(path)
        seed_store(store)
        store.close()
        store = CatalogStore.open(path)
        store.grant_badge("a2", "golden", "u1")
        assert store.storage_info()["hydrated"]["buckets_cached"] == 2
        conn = store._backend._conn
        before = conn.total_changes
        store.flush()
        # Two postings, the artifact row, one journal record, and the
        # versions and clock rows in meta.
        assert conn.total_changes - before == 6
        store.close()

    def test_writes_racing_flushes_are_all_persisted(self, tmp_path):
        """Writers buffer under the backend lock that a flush holds until
        it clears its buffers, so no write lands between the two."""
        path = tmp_path / "catalog.db"
        store = CatalogStore.open(path)
        seed_store(store)
        store.flush()
        done = threading.Event()

        def write(n):
            for i in range(200):
                store.record(f"a{i % 4}", "u2", "view")
            store.lineage.add_edge(f"a{n}", "a9")

        def flush():
            while not done.is_set():
                store.flush()

        store.add_artifact(Artifact(id="a9", name="sink",
                                    artifact_type="table"))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            flusher = threading.Thread(target=flush)
            writers = [threading.Thread(target=write, args=(n,))
                       for n in range(4)]
            flusher.start()
            for thread in writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
            done.set()
            flusher.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in writers + [flusher])
        store.close()

        reopened = CatalogStore.open(path)
        assert len(reopened.usage) == 2 + 4 * 200
        assert sum(reopened.usage_stats(f"a{i}").view_count
                   for i in range(4)) == 1 + 4 * 200
        assert sorted(reopened.lineage.parents("a9")) == \
            ["a0", "a1", "a2", "a3"]
        reopened.close()

    def test_compact_preserves_content(self, tmp_path):
        store = CatalogStore.open(tmp_path / "catalog.db")
        seed_store(store)
        store.compact()
        assert store.search_tokens(["orders"]) == ["a0", "a1", "a2", "a3"]
        store.close()


# -- hypothesis: interleaved operations are backend-equivalent ----------------

_TOKENS = ("orders", "revenue", "churn", "daily", "raw")
_TAGS = ("sales", "finance", "ops")
_BADGES = ("endorsed", "golden")

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"),
                  st.integers(0, 14),
                  st.integers(0, len(_TOKENS) - 1),
                  st.integers(0, len(_TAGS) - 1)),
        st.tuples(st.just("badge"),
                  st.integers(0, 14),
                  st.integers(0, len(_BADGES) - 1)),
        st.tuples(st.just("view"), st.integers(0, 14)),
        st.tuples(st.just("edge"), st.integers(0, 14), st.integers(0, 14)),
        st.tuples(st.just("flush")),
        # Replaced below the store (no store API removes a posting): the
        # only path to posting removals.
        st.tuples(st.just("replace"),
                  st.integers(0, 14),
                  st.integers(0, len(_TOKENS) - 1),
                  st.integers(0, len(_TAGS) - 1)),
    ),
    min_size=1,
    max_size=25,
)


def _apply(store, op):
    kind = op[0]
    if kind == "add":
        _, n, token_i, tag_i = op
        aid = f"a{n}"
        if not store.has_artifact(aid):
            store.add_artifact(Artifact(
                id=aid, name=f"{_TOKENS[token_i]} report {n}",
                artifact_type="table" if n % 2 == 0 else "dashboard",
                owner_id="u1", tags=(_TAGS[tag_i],),
            ))
    elif kind == "badge":
        _, n, badge_i = op
        if store.has_artifact(f"a{n}"):
            store.grant_badge(f"a{n}", _BADGES[badge_i], "u1")
    elif kind == "view":
        _, n = op
        if store.has_artifact(f"a{n}"):
            store.record(f"a{n}", "u1", "view")
    elif kind == "edge":
        _, src, dst = op
        if (src != dst and store.has_artifact(f"a{src}")
                and store.has_artifact(f"a{dst}")):
            store.lineage.add_edge(f"a{src}", f"a{dst}")
    elif kind == "flush":
        store.flush()
    elif kind == "replace":
        # Picks among the stored artifacts, so most replaces take effect.
        _, n, token_i, tag_i = op
        ids = store.artifact_ids()
        if ids:
            aid = ids[n % len(ids)]
            old = store.artifact(aid)
            store._backend.put_artifact(dataclasses.replace(
                old, name=f"{_TOKENS[token_i]} rewrite {n}",
                owner_id="u2" if old.owner_id == "u1" else "u1",
                tags=(_TAGS[tag_i],),
            ))
            store._token_cache.pop(aid, None)


def _observe(store):
    return {
        "ids": store.artifact_ids(),
        "count": len(store),
        "tokens": {t: store.search_tokens([t]) for t in _TOKENS},
        "pairs": store.search_tokens(["report", _TOKENS[0]]),
        "tags": {t: store.by_tag(t) for t in _TAGS},
        "badges": {
            b: (store.by_badge(b), store.index_size("badge", b))
            for b in _BADGES
        },
        "types": (store.by_type("table"), store.by_type("dashboard")),
        "owners": (store.by_owner("u1"), store.by_owner("u2")),
        "views": {a: store.usage_stats(a).view_count
                  for a in store.artifact_ids()},
        "events": len(store.usage),
        "edges": store.lineage.edge_count,
        "badge_names": store.badges_in_use(),
    }


class TestBackendEquivalence:
    @given(ops=_ops, split=st.integers(0, 25))
    @settings(max_examples=25, deadline=None)
    def test_interleaved_writes_read_identically(self, ops, split,
                                                 tmp_path_factory):
        """Any op sequence gives byte-identical reads on both backends,
        including across a close/reopen of the persistent one, and leaves
        exactly the memory backend's buckets in the postings table."""
        path = tmp_path_factory.mktemp("equiv") / "catalog.db"
        memory = CatalogStore()
        sqlite_store = CatalogStore.open(path)
        for store in (memory, sqlite_store):
            store.add_user(User(id="u1", name="Ada"))
            store.add_user(User(id="u2", name="Grace"))

        head, tail = ops[:split], ops[split:]
        for op in head:
            _apply(memory, op)
            _apply(sqlite_store, op)
        sqlite_store.close()  # flush + restart mid-sequence
        sqlite_store = CatalogStore.open(path)
        for op in tail:
            _apply(memory, op)
            _apply(sqlite_store, op)
        sqlite_store.close()
        sqlite_store = CatalogStore.open(path)

        assert _observe(sqlite_store) == _observe(memory)
        sqlite_store.close()
        assert _stored_postings(path) == {
            (kind, key, artifact_id)
            for kind, buckets in memory._backend._buckets.items()
            for key, ids in buckets.items()
            for artifact_id in ids
        }
