"""The streaming write path: event log, coalescing, delta patching.

Covers the write-ahead :class:`~repro.catalog.events.EventLog` (offset
addressing, bounded truncation), the coalescing
:class:`~repro.catalog.events.EventStream` and
:meth:`~repro.catalog.store.CatalogStore.record_events` (one version
bump per batch), the typed records every store mutator appends, the
execution engine's read-time delta patching (patch / decline / hard-drop and
the ``delta_patches`` / ``delta_fallbacks`` / ``coalesced_bumps``
counters), incremental sorted-id and usage-snapshot maintenance, the
sqlite write-ahead journal mirror, and — the headline guarantee,
extending ``test_invalidation`` — hypothesis properties that a
delta-patched cache entry is indistinguishable from drop-and-refetch
under random write/read interleavings.
"""

from __future__ import annotations

import dataclasses
import json
import sqlite3
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.domains import (
    DOMAIN_BADGES,
    DOMAIN_ENTITIES,
    DOMAIN_LINEAGE,
    DOMAIN_MEMBERSHIP,
    DOMAIN_TEXT,
    DOMAIN_USAGE,
)
from repro.catalog.events import (
    BadgeEventRecord,
    EntitiesEventRecord,
    EventLog,
    EventRecord,
    EventStream,
    LineageEventRecord,
    MembershipEventRecord,
    OpaqueEventRecord,
    UsageEventRecord,
)
from repro.catalog.model import Artifact, ArtifactType, Team, User, UsageEvent
from repro.catalog.sqlite_backend import journal_data
from repro.catalog.store import CatalogStore
from repro.catalog.usage import UsageLog
from repro.errors import UnknownEntityError
from repro.providers.base import (
    ProviderRequest,
    RequestContext,
    ScoredArtifact,
    depends_on,
    list_result,
    patches_with,
)
from repro.providers.builtin import BuiltinProviders, install_builtin_endpoints
from repro.providers.execution import ExecutionEngine, ExecutionPolicy
from repro.providers.fields import FieldResolver
from repro.providers.registry import EndpointRegistry
from repro.util.clock import SimulationClock


def _seeded_store(n: int = 6) -> CatalogStore:
    clock = SimulationClock()
    clock.advance(days=30)
    store = CatalogStore(clock=clock)
    store.add_user(User(id="u1", name="Ann", team_ids=("t1",)))
    store.add_user(User(id="u2", name="Bob", team_ids=("t1",)))
    store.add_user(User(id="u3", name="Cyd", team_ids=("t2",)))
    store.add_team(Team(id="t1", name="Alpha",
                        admin_ids=("u1",), member_ids=("u1", "u2")))
    store.add_team(Team(id="t2", name="Beta",
                        admin_ids=("u3",), member_ids=("u3",)))
    for i in range(n):
        store.add_artifact(Artifact(
            id=f"a{i}", name=f"ART {i}",
            artifact_type=ArtifactType.TABLE if i % 2 == 0
            else ArtifactType.DASHBOARD,
            owner_id="u1" if i % 2 == 0 else "u2",
            team_ids=("t1",),
        ))
    return store


def _engine(store, patchers: bool = True):
    registry = EndpointRegistry()
    install_builtin_endpoints(registry, BuiltinProviders(store),
                              patchers=patchers)
    engine = ExecutionEngine(
        registry,
        store=store,
        policy=ExecutionPolicy.defaults().replace(cache_ttl_s=3600.0),
        clock=store.clock,
    )
    return registry, engine


def _events(store, *users_artifacts_actions) -> list[UsageEvent]:
    now = store.clock.now()
    return [
        UsageEvent(artifact_id=aid, user_id=uid, action=action, timestamp=now)
        for aid, uid, action in users_artifacts_actions
    ]


# -- the event log ----------------------------------------------------------


class TestEventLog:
    def test_append_and_since_round_trip(self):
        log = EventLog(capacity=16)
        assert log.offset == 0
        records = [EntitiesEventRecord(f"a{i}") for i in range(3)]
        offsets = [log.append(r) for r in records]
        assert offsets == [0, 1, 2]
        got, next_offset, truncated = log.since(0)
        assert got == tuple(records)
        assert next_offset == 3 and not truncated
        # Reading from the frontier returns nothing, not truncation.
        got, next_offset, truncated = log.since(3)
        assert got == () and next_offset == 3 and not truncated

    def test_since_partial(self):
        log = EventLog(capacity=16)
        for i in range(5):
            log.append(EntitiesEventRecord(f"a{i}"))
        got, next_offset, truncated = log.since(3)
        assert [r.artifact_id for r in got] == ["a3", "a4"]
        assert next_offset == 5 and not truncated

    def test_truncation_signalled(self):
        log = EventLog(capacity=4)
        for i in range(10):
            log.append(EntitiesEventRecord(f"a{i}"))
        # Offset 2 predates the retained window of the last 4 records.
        got, next_offset, truncated = log.since(2)
        assert truncated and got == () and next_offset == 10
        # The frontier is readable again after the fallback.
        got, _, truncated = log.since(next_offset)
        assert not truncated and got == ()

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)

    def test_pre_horizon_offset_on_empty_log_reports_truncated(self):
        # Regression: with the log drained empty, a stale consumer
        # offset used to read as caught-up instead of truncated.
        log = EventLog(capacity=4)
        for i in range(6):
            log.append(EntitiesEventRecord(f"a{i}"))
        assert log.truncate() == 4
        assert len(log) == 0
        got, next_offset, truncated = log.since(3)
        assert truncated and got == () and next_offset == 6
        # The well-defined `next` is immediately usable.
        got, _, truncated = log.since(next_offset)
        assert not truncated and got == ()

    def test_truncate_on_empty_log_is_a_no_op(self):
        log = EventLog(capacity=4)
        assert log.truncate() == 0
        got, next_offset, truncated = log.since(0)
        assert not truncated and got == () and next_offset == 0

    def test_append_after_truncate_keeps_offsets_monotonic(self):
        log = EventLog(capacity=4)
        for i in range(3):
            log.append(EntitiesEventRecord(f"a{i}"))
        log.truncate()
        assert log.append(EntitiesEventRecord("b0")) == 3
        got, next_offset, truncated = log.since(3)
        assert [r.artifact_id for r in got] == ["b0"]
        assert next_offset == 4 and not truncated
        # Pre-truncation offsets still read as lost, not as "b0".
        got, _, truncated = log.since(1)
        assert truncated and got == ()

    def test_foreign_offset_beyond_frontier_reports_truncated(self):
        log = EventLog(capacity=4)
        log.append(EntitiesEventRecord("a0"))
        got, next_offset, truncated = log.since(7)
        assert truncated and got == () and next_offset == 1

    def test_since_on_a_wrapped_log_matches_the_whole_window_slice(self):
        """``since`` reads only the newest records; on a full log that
        has wrapped (also after a truncate), every offset must return
        what slicing the whole retained window returned."""
        log = EventLog(capacity=16)
        appended = []
        for round_ in range(2):
            for i in range(40):
                record = EntitiesEventRecord(f"a{round_}-{i}")
                log.append(record)
                appended.append(record)
            assert len(log) == 16
            frontier = len(appended)
            first = frontier - 16
            window = tuple(log._records)
            for offset in range(frontier + 3):
                got = log.since(offset)
                if first <= offset <= frontier:
                    assert got == (window[offset - first:], frontier, False)
                    assert got[0] == tuple(appended[offset:])
                else:
                    assert got == ((), frontier, True), offset
            log.truncate()


# -- the coalescing stream --------------------------------------------------


class TestEventStream:
    def test_batch_flushes_at_max_batch(self):
        store = _seeded_store()
        before = store.domain_version(DOMAIN_USAGE)
        stream = store.stream(window_s=3600.0, max_batch=4)
        for i in range(3):
            stream.record("a0", "u1", "view")
        assert stream.pending == 3
        assert store.domain_version(DOMAIN_USAGE) == before  # invisible
        assert store.usage_stats("a0").view_count == 0
        stream.record("a0", "u1", "view")  # fills the batch
        assert stream.pending == 0
        assert store.usage_stats("a0").view_count == 4
        # One bump for the whole batch.
        assert store.domain_version(DOMAIN_USAGE) == before + 1
        assert store.coalesced_bumps == 3

    def test_window_expiry_flushes(self):
        store = _seeded_store()
        fake_now = [0.0]
        stream = EventStream(store, window_s=0.5, max_batch=1000,
                             timer=lambda: fake_now[0])
        stream.record("a0", "u1", "view")
        fake_now[0] = 0.4
        stream.record("a0", "u2", "view")
        assert stream.pending == 2  # window still open
        fake_now[0] = 0.6
        stream.record("a0", "u1", "open")  # window closed: flush all 3
        assert stream.pending == 0
        assert store.usage_stats("a0").view_count == 2
        assert store.usage_stats("a0").open_count == 1

    def test_explicit_flush_and_context_manager(self):
        store = _seeded_store()
        with store.stream(window_s=3600.0) as stream:
            stream.record("a1", "u1", "favorite")
            assert stream.flush() == 1
            assert stream.flush() == 0
            stream.record("a1", "u2", "favorite")
        # Context exit drained the buffer.
        assert store.usage_stats("a1").favorite_count == 2

    def test_rejects_bad_max_batch(self):
        store = _seeded_store()
        with pytest.raises(ValueError):
            EventStream(store, max_batch=0)


class TestRecordEvents:
    def test_batch_bumps_once_and_counts_saved_bumps(self):
        store = _seeded_store()
        before = store.domain_version(DOMAIN_USAGE)
        store.record_events(_events(
            store, ("a0", "u1", "view"), ("a1", "u2", "view"),
            ("a0", "u1", "open"),
        ))
        assert store.domain_version(DOMAIN_USAGE) == before + 1
        assert store.coalesced_bumps == 2
        # All three events landed in the write-ahead log.
        records, _, _ = store.events.since(0)
        usage = [r for r in records if isinstance(r, UsageEventRecord)]
        assert len(usage) == 3

    def test_empty_batch_is_a_no_op(self):
        store = _seeded_store()
        before = store.domain_version(DOMAIN_USAGE)
        store.record_events([])
        assert store.domain_version(DOMAIN_USAGE) == before
        assert store.coalesced_bumps == 0

    def test_batch_validates_every_event_up_front(self):
        store = _seeded_store()
        before = store.domain_version(DOMAIN_USAGE)
        bad = _events(store, ("a0", "u1", "view"), ("nope", "u1", "view"))
        with pytest.raises(UnknownEntityError):
            store.record_events(bad)
        # Nothing was applied: validation precedes the fold.
        assert store.usage_stats("a0").view_count == 0
        assert store.domain_version(DOMAIN_USAGE) == before

    def test_record_many_matches_sequential_record(self):
        store = _seeded_store()
        events = _events(
            store, ("a0", "u1", "view"), ("a0", "u2", "favorite"),
            ("a0", "u2", "unfavorite"), ("a1", "u1", "edit"),
        )
        sequential = UsageLog()
        for event in events:
            sequential.record(event)
        batched = UsageLog()
        batched.record_many(events)
        for aid in ("a0", "a1"):
            assert batched.stats(aid) == sequential.stats(aid)
        assert batched.events() == sequential.events()


# -- which mutators log which records ---------------------------------------


class TestMutatorRecords:
    def _last(self, store):
        records, _, _ = store.events.since(0)
        return records[-1]

    def test_mutator_event_records(self):
        store = _seeded_store(n=2)
        store.record("a0", "u1", "view")
        record = self._last(store)
        assert isinstance(record, UsageEventRecord)
        assert record.event.artifact_id == "a0"
        assert record.domain == DOMAIN_USAGE

        store.add_artifact(Artifact(id="a9", name="NEW",
                                    artifact_type=ArtifactType.TABLE))
        record = self._last(store)
        assert record == EntitiesEventRecord("a9", added=True)

        store.grant_badge("a0", "endorsed", "u1")
        record = self._last(store)
        assert record == BadgeEventRecord("a0", "endorsed", "u1")
        assert record.domain == DOMAIN_BADGES

        store.add_user(User(id="u9", name="New"))
        assert self._last(store) == MembershipEventRecord("user", "u9")

        store.set_team(Team(id="t1", name="Alpha", member_ids=("u2",)))
        record = self._last(store)
        assert record == MembershipEventRecord("team", "t1", added=False)
        assert record.domain == DOMAIN_MEMBERSHIP

        store.lineage.add_edge("a0", "a9", "derives")
        record = self._last(store)
        assert record == LineageEventRecord("a0", "a9", "derives")
        assert record.domain == DOMAIN_LINEAGE

    def test_restore_logs_opaque_records(self):
        store = _seeded_store(n=2)
        store.restore_domain_versions({DOMAIN_USAGE: 41})
        records, _, _ = store.events.since(0)
        opaque = [r for r in records if isinstance(r, OpaqueEventRecord)]
        assert [r.domain for r in opaque] == [DOMAIN_USAGE]
        assert opaque[0].reason == "restore"


# -- incremental sorted-id memo ---------------------------------------------


class TestIncrementalArtifactIds:
    def test_incremental_equals_rebuild(self):
        store = _seeded_store(n=5)
        assert store.artifact_ids() == sorted(f"a{i}" for i in range(5))
        store.add_artifact(Artifact(id="a-new", name="X",
                                    artifact_type=ArtifactType.TABLE))
        store.add_artifact(Artifact(id="zz", name="Y",
                                    artifact_type=ArtifactType.TABLE))
        assert store.artifact_ids() == sorted(
            [f"a{i}" for i in range(5)] + ["a-new", "zz"]
        )

    def test_adds_patch_without_backend_rescan(self, monkeypatch):
        store = _seeded_store(n=4)
        store.artifact_ids()  # prime the memo
        calls = []
        original = store._backend.artifact_ids
        monkeypatch.setattr(
            store._backend, "artifact_ids",
            lambda: calls.append(1) or original(),
        )
        store.add_artifact(Artifact(id="a7", name="X",
                                    artifact_type=ArtifactType.TABLE))
        ids = store.artifact_ids()
        assert "a7" in ids and ids == sorted(ids)
        assert calls == []  # served from the patched memo

    def test_non_entity_writes_keep_memo(self, monkeypatch):
        store = _seeded_store(n=4)
        before = store.artifact_ids()
        calls = []
        original = store._backend.artifact_ids
        monkeypatch.setattr(
            store._backend, "artifact_ids",
            lambda: calls.append(1) or original(),
        )
        store.record("a0", "u1", "view")
        store.lineage.add_edge("a0", "a1")
        assert store.artifact_ids() == before
        assert calls == []


# -- incremental usage snapshot (FieldResolver) -----------------------------


class TestIncrementalUsageSnapshot:
    def test_patched_snapshot_matches_fresh_resolver(self):
        store = _seeded_store()
        resolver = FieldResolver(store)
        fields = ("views", "opens", "favorite", "unique_viewers", "recency")
        ids = store.artifact_ids()
        resolver.values_batch(ids, fields)  # prime
        store.record_events(_events(
            store, ("a0", "u1", "view"), ("a0", "u2", "view"),
            ("a1", "u1", "favorite"),
        ))
        store.record("a2", "u3", "open")
        got = resolver.values_batch(ids, fields)
        fresh = FieldResolver(store).values_batch(ids, fields)
        assert got == fresh

    def test_usage_writes_patch_without_full_rescan(self, monkeypatch):
        store = _seeded_store()
        resolver = FieldResolver(store)
        resolver.values_batch(store.artifact_ids(), ("views",))  # prime
        rescans = []
        original = store.usage.all_stats
        monkeypatch.setattr(
            store.usage, "all_stats",
            lambda: rescans.append(1) or original(),
        )
        store.record("a0", "u1", "view")
        column = resolver.values_batch(["a0", "a1"], ("views",))["views"]
        assert column == [1.0, 0.0]
        assert rescans == []  # only a0's row was re-derived

    def test_restore_forces_full_rebuild(self):
        store = _seeded_store()
        resolver = FieldResolver(store)
        resolver.values_batch(store.artifact_ids(), ("views",))
        store.record("a0", "u1", "view")
        store.restore_domain_versions(
            {DOMAIN_USAGE: store.domain_version(DOMAIN_USAGE) + 10}
        )
        got = resolver.values_batch(["a0"], ("views",))["views"]
        assert got == [1.0]


# -- the engine's read-time delta patching ----------------------------------


def _req(user="u1", team="t1", **inputs):
    return ProviderRequest(
        inputs=inputs, context=RequestContext(user_id=user, team_id=team)
    )


class TestEngineDeltaPatching:
    def test_usage_write_patches_instead_of_dropping(self):
        store = _seeded_store()
        store.record("a0", "u1", "view")
        registry, engine = _engine(store)
        request = ProviderRequest(
            inputs={"user": "u1"}, context=RequestContext(user_id="u1")
        )
        engine.execute("catalog://recents", request)
        # A write by an unrelated user on an unlisted artifact: the
        # patcher proves the entry unaffected and keeps it cached.
        store.record("a3", "u3", "view")
        outcome = engine.execute("catalog://recents", request)
        assert outcome.fresh
        totals = engine.stats.snapshot()["totals"]
        assert totals["delta_patches"] == 1
        assert totals["delta_fallbacks"] == 0
        assert totals["invalidations"] == 0
        assert totals["calls"] == 1  # no refetch happened

    def test_patched_entry_equals_refetch(self):
        store = _seeded_store()
        store.record("a0", "u1", "view")
        registry, engine = _engine(store)
        request = ProviderRequest(
            inputs={"user": "u1"}, context=RequestContext(user_id="u1")
        )
        engine.execute("catalog://recents", request)
        # A write *by the requesting user* must show up on the next read.
        store.record("a2", "u1", "view")
        served = engine.execute("catalog://recents", request).result
        fresh = registry.resolve("catalog://recents")(request)
        assert served == fresh
        assert "a2" in served.artifact_ids()

    def test_non_monotonic_membership_falls_back_to_drop(self):
        store = _seeded_store()
        registry, engine = _engine(store)
        request = ProviderRequest(inputs={"team": "t1"})
        engine.execute("catalog://team_docs", request)
        store.set_team(Team(id="t1", name="Alpha", member_ids=("u2",)))
        served = engine.execute("catalog://team_docs", request).result
        assert served == registry.resolve("catalog://team_docs")(request)
        totals = engine.stats.snapshot()["totals"]
        assert totals["delta_fallbacks"] == 1
        assert totals["invalidations"] == 1

    def test_hard_domain_still_drops(self):
        store = _seeded_store()
        registry, engine = _engine(store)
        request = ProviderRequest(context=RequestContext(user_id="u1"))
        engine.execute("catalog://newest", request)
        store.add_artifact(Artifact(id="a-hot", name="HOT",
                                    artifact_type=ArtifactType.TABLE))
        served = engine.execute("catalog://newest", request).result
        assert "a-hot" in served.artifact_ids()
        totals = engine.stats.snapshot()["totals"]
        assert totals["delta_patches"] == 0
        assert totals["invalidations"] >= 1

    def test_badge_grant_reaches_patcher_after_restamp(self):
        """A badge grant leaves ``recents`` (usage, entities) cached, with
        a stale advisory ``endorsed`` field.  The read that keeps it must
        not move the entry's log offset: the next patch still sees the
        grant and rebuilds, as a drop-and-refetch engine would."""
        store = _seeded_store()
        store.record("a0", "u1", "view")
        registry, engine = _engine(store)
        request = ProviderRequest(
            inputs={"user": "u1"}, context=RequestContext(user_id="u1")
        )
        engine.execute("catalog://recents", request)
        store.grant_badge("a0", "endorsed", "u1")
        engine.execute("catalog://recents", request)  # restamped hit
        assert engine.stats.total("calls") == 1
        store.record("a3", "u3", "view")  # unrelated to u1's recents
        served = engine.execute("catalog://recents", request).result
        assert served == registry.resolve("catalog://recents")(request)
        assert served.items[0].fields["endorsed"] == 1.0

    def test_equal_patch_keeps_the_cached_object(self):
        """A patcher that rebuilds an equal result leaves the cached
        object in place, so what is keyed on its identity downstream
        (the view memo) stays valid; an unequal rebuild replaces it."""
        store = _seeded_store()
        shown = ["a0"]

        def endpoint(request):
            return list_result([ScoredArtifact(aid) for aid in shown])

        registry = EndpointRegistry()
        registry.register(
            "x://rebuilt", endpoint, dependencies=(DOMAIN_USAGE,),
            patcher=lambda request, cached, records: endpoint(request),
        )
        engine = ExecutionEngine(
            registry, store=store,
            policy=ExecutionPolicy.defaults().replace(cache_ttl_s=3600.0),
            clock=store.clock,
        )
        first = engine.execute("x://rebuilt", ProviderRequest()).result
        store.record("a1", "u2", "view")
        assert engine.execute("x://rebuilt", ProviderRequest()).result is first
        shown.append("a1")
        store.record("a1", "u2", "view")
        changed = engine.execute("x://rebuilt", ProviderRequest()).result
        assert changed is not first
        assert changed.artifact_ids() == ["a0", "a1"]
        assert engine.execute("x://rebuilt", ProviderRequest()).result is changed
        totals = engine.stats.snapshot()["totals"]
        assert totals["delta_patches"] == 2
        assert totals["calls"] == 1

    def test_badge_patchers_keep_unrelated_entries(self):
        """A grant naming another badge, grantor and artifact leaves the
        ``badged``/``badged_by`` entries cached, and a repeated grant
        leaves ``badges``; a grant that does name them shows on the next
        read."""
        store = _seeded_store()
        store.grant_badge("a0", "endorsed", "u1")
        store.grant_badge("a1", "certified", "u2")
        registry, engine = _engine(store)
        requests = {
            "catalog://badged": ProviderRequest(inputs={"badge": "endorsed"}),
            "catalog://badged_by": ProviderRequest(inputs={"user": "u1"}),
            "catalog://badges": ProviderRequest(),
        }
        first = {
            uri: engine.execute(uri, request).result
            for uri, request in requests.items()
        }
        store.grant_badge("a1", "certified", "u3")  # a repeated pair
        for uri, request in requests.items():
            assert engine.execute(uri, request).result is first[uri], uri
        store.grant_badge("a3", "certified", "u2")  # a new pair
        for uri in ("catalog://badged", "catalog://badged_by"):
            assert engine.execute(uri, requests[uri]).result is first[uri]
        # A view of a listed artifact changes its advisory fields: the
        # next grant, though unrelated, rebuilds.
        store.record("a0", "u3", "view")
        store.grant_badge("a4", "certified", "u2")
        for uri in ("catalog://badged", "catalog://badged_by"):
            served = engine.execute(uri, requests[uri]).result
            assert served == registry.resolve(uri)(requests[uri]), uri
            assert served != first[uri], uri
        store.grant_badge("a2", "endorsed", "u1")
        for uri, request in requests.items():
            served = engine.execute(uri, request).result
            assert served == registry.resolve(uri)(request), uri
            assert "a2" in served.artifact_ids(), uri
        assert {
            uri: engine.stats.endpoint(uri).calls for uri in requests
        } == {
            "catalog://badged": 1,
            "catalog://badged_by": 1,
            "catalog://badges": 2,  # a new pair declines
        }
        assert engine.stats.total("invalidations") == 1

    def test_lineage_patch_keeps_unrelated_entry(self):
        store = _seeded_store()
        store.lineage.add_edge("a0", "a2")
        registry, engine = _engine(store)
        request = ProviderRequest(inputs={"artifact": "a0"})
        engine.execute("catalog://lineage", request)
        # An edge in a disjoint component cannot affect a0's tree.
        store.lineage.add_edge("a1", "a3")
        outcome = engine.execute("catalog://lineage", request)
        totals = engine.stats.snapshot()["totals"]
        assert totals["delta_patches"] == 1
        assert totals["calls"] == 1
        # An edge extending a0's tree must appear.
        store.lineage.add_edge("a2", "a4")
        served = engine.execute("catalog://lineage", request).result
        assert "a4" in served.artifact_ids()
        assert served == registry.resolve("catalog://lineage")(request)

    def test_coalesced_bumps_mirrored_into_stats(self):
        store = _seeded_store()
        registry, engine = _engine(store)
        request = ProviderRequest(
            inputs={"user": "u1"}, context=RequestContext(user_id="u1")
        )
        engine.execute("catalog://recents", request)
        store.record_events(_events(
            store, *[("a0", "u2", "view")] * 5
        ))
        engine.execute("catalog://recents", request)
        assert engine.stats.total("coalesced_bumps") == 4
        assert "coalesced version bumps: 4" in engine.stats.render()
        assert "coalesced version bumps: 4" in engine.render_health()

    def test_without_patchers_every_dependent_write_drops(self):
        store = _seeded_store()
        registry, engine = _engine(store, patchers=False)
        request = ProviderRequest(
            inputs={"user": "u1"}, context=RequestContext(user_id="u1")
        )
        engine.execute("catalog://recents", request)
        store.record("a3", "u3", "view")
        engine.execute("catalog://recents", request)
        totals = engine.stats.snapshot()["totals"]
        assert totals["delta_patches"] == 0
        assert totals["invalidations"] == 1
        assert totals["calls"] == 2  # dropped entry forced a refetch

    def test_stats_columns_render(self):
        store = _seeded_store()
        registry, engine = _engine(store)
        table = engine.stats.render()
        assert "patch" in table and "dfall" in table
        health = engine.render_health()
        assert "patch" in health and "dfall" in health


# -- sqlite write-ahead journal mirror --------------------------------------


class TestPatchingSharedEntries:
    """Patchers see the request rebuilt from the cache key: per-user
    entries keep their user, shared entries arrive with the undeclared
    context fields blank.  Either way a patched entry must equal what
    each requester would get from a refetch."""

    _REQUESTERS = (("u1", "t1"), ("u2", "t1"), ("u3", "t2"))
    _INPUTS = {
        "catalog://owned_by": {"user": "u1"},
        "catalog://of_type": {"artifact_type": "table"},
    }

    def _request(self, uri, user, team):
        return ProviderRequest(
            inputs=self._INPUTS.get(uri, {}),
            context=RequestContext(user_id=user, team_id=team),
        )

    def test_patched_entries_equal_refetch_for_every_requester(self):
        store = _seeded_store()
        store.record("a0", "u1", "view")
        store.record("a1", "u2", "favorite")
        registry, engine = _engine(store)
        uris = ("catalog://recents", "catalog://favorites",
                "catalog://most_viewed", "catalog://owned_by",
                "catalog://of_type")
        for uri in uris:
            for user, team in self._REQUESTERS:
                engine.execute(uri, self._request(uri, user, team))
        calls = {uri: engine.stats.endpoint(uri).calls for uri in uris}
        assert calls == {
            "catalog://recents": 3,  # keyed per user
            "catalog://favorites": 3,
            "catalog://most_viewed": 1,  # one entry shared by all three
            "catalog://owned_by": 1,
            "catalog://of_type": 1,
        }
        stream = store.stream(window_s=3600.0, max_batch=64)
        for aid, uid, action in (
            ("a2", "u1", "view"), ("a3", "u3", "favorite"),
            ("a4", "u2", "view"), ("a2", "u3", "view"),
        ):
            stream.record(aid, uid, action)
        stream.flush()
        store.add_user(User(id="u4", name="Dee", team_ids=("t2",)))
        for uri in uris:
            for user, team in self._REQUESTERS:
                request = self._request(uri, user, team)
                served = engine.execute(uri, request)
                assert served.fresh
                fresh = registry.resolve(uri)(request)
                if uri == "catalog://of_type":
                    # Untouched by usage; its advisory view counts may
                    # drift (the documented contract), membership not.
                    _assert_matches_oracle(
                        served.result, fresh, False, (uri, user)
                    )
                else:
                    assert served.result == fresh, (uri, user)
        totals = engine.stats.snapshot()["totals"]
        assert totals["delta_patches"] >= 5
        assert totals["invalidations"] == 0
        assert {
            uri: engine.stats.endpoint(uri).calls for uri in uris
        } == calls  # every read after the writes was served from cache


class TestSqliteJournal:
    def test_events_journalled_on_flush(self, tmp_path):
        path = tmp_path / "catalog.db"
        store = CatalogStore.open(path)
        store.add_user(User(id="u1", name="Ann"))
        store.add_artifact(Artifact(id="a0", name="X",
                                    artifact_type=ArtifactType.TABLE))
        store.record("a0", "u1", "view")
        store.flush()
        with sqlite3.connect(path) as conn:
            rows = conn.execute(
                "SELECT domain, kind FROM catalog_events ORDER BY seq"
            ).fetchall()
        kinds = [kind for _, kind in rows]
        assert "MembershipEventRecord" in kinds
        assert "EntitiesEventRecord" in kinds
        assert "UsageEventRecord" in kinds
        assert rows[-1][0] == DOMAIN_USAGE
        store.close()

    def test_journal_data_matches_asdict_for_every_record_type(self):
        records = [
            UsageEventRecord(UsageEvent("a0", "u1", "favorite", 1.5e9 + 0.25)),
            UsageEventRecord(UsageEvent('a "q"', "ü\n", "view", 0.0)),
            LineageEventRecord("a0", "a1", "embeds"),
            MembershipEventRecord("team", "t1", added=False),
            EntitiesEventRecord("a0"),
            BadgeEventRecord("a0", "endorsed", "u1"),
            OpaqueEventRecord(DOMAIN_TEXT, reason="reindex"),
        ]
        assert {type(r) for r in records} == set(typing.get_args(EventRecord))
        for record in records:
            assert journal_data(record) == json.dumps(
                dataclasses.asdict(record), sort_keys=True
            ), record

    def test_compact_prunes_journal(self, tmp_path):
        path = tmp_path / "catalog.db"
        store = CatalogStore.open(path)
        store.add_user(User(id="u1", name="Ann"))
        store.add_artifact(Artifact(id="a0", name="X",
                                    artifact_type=ArtifactType.TABLE))
        store.flush()
        assert store._backend.info()["stored"]["catalog_events"] > 0
        store.compact()
        assert store._backend.info()["stored"]["catalog_events"] == 0
        # The journal is a durability mirror, not the source of truth:
        # state survives compaction.
        store.close()
        reopened = CatalogStore.open(path)
        assert reopened.has_artifact("a0")
        reopened.close()


# -- no-stale properties (the PR 2 gate, extended) --------------------------

#: ``(uri, request, ordered)`` spanning every patchable dependency set.
#: ``ordered`` marks endpoints whose declared dependencies cover their
#: ranking inputs, so even the *order* of a cached answer must track a
#: fresh fetch.  ``owned_by``/``team_docs`` rank by usage aggregates they
#: deliberately do not depend on (PR 2's advisory-drift contract), so
#: for them only the membership set is oracle-checked.
_PROP_REQUESTS = (
    ("catalog://recents",
     ProviderRequest(inputs={"user": "u1"},
                     context=RequestContext(user_id="u1")), True),
    ("catalog://favorites",
     ProviderRequest(inputs={"user": "u2"},
                     context=RequestContext(user_id="u2")), True),
    ("catalog://most_viewed",
     ProviderRequest(context=RequestContext(user_id="u3")), True),
    ("catalog://team_popular",
     ProviderRequest(inputs={"team": "t1"},
                     context=RequestContext(user_id="u1", team_id="t1")),
     True),
    ("catalog://owned_by",
     ProviderRequest(inputs={"user": "u1"}), False),
    ("catalog://team_docs", ProviderRequest(inputs={"team": "t1"}), False),
    ("catalog://lineage", ProviderRequest(inputs={"artifact": "a0"}), True),
    ("catalog://lineage_graph",
     ProviderRequest(inputs={"artifact": "a1"}), True),
    ("catalog://badged", ProviderRequest(inputs={"badge": "endorsed"}),
     False),
    ("catalog://badged_by", ProviderRequest(inputs={"user": "u1"}), False),
    ("catalog://badges", ProviderRequest(), True),
)


def _assert_matches_oracle(served, fresh, ordered, label):
    if ordered:
        assert served.artifact_ids() == fresh.artifact_ids(), label
    else:
        assert set(served.artifact_ids()) == set(fresh.artifact_ids()), label

_ACTIONS = ("view", "open", "edit", "favorite")


def _op_strategy():
    batch = st.tuples(
        st.just("batch"),
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 2),
                      st.integers(0, 3)),
            min_size=1, max_size=4,
        ),
    )
    single = st.tuples(st.just("record"), st.integers(0, 5),
                       st.integers(0, 2), st.integers(0, 3))
    stream_put = st.tuples(st.just("stream"), st.integers(0, 5),
                           st.integers(0, 2))
    flush = st.tuples(st.just("flush"))
    set_team = st.tuples(st.just("set_team"),
                         st.lists(st.integers(0, 2), max_size=3))
    badge = st.tuples(st.just("badge"), st.integers(0, 5),
                      st.sampled_from(("endorsed", "certified")),
                      st.integers(0, 2))
    edge = st.tuples(st.just("edge"), st.integers(0, 5), st.integers(0, 5))
    fetch = st.tuples(st.just("fetch"),
                      st.integers(0, len(_PROP_REQUESTS) - 1))
    return st.lists(
        st.one_of(batch, single, stream_put, flush, set_team, badge,
                  edge, fetch),
        min_size=1, max_size=24,
    )


def _apply_op(store, stream, op):
    kind = op[0]
    if kind == "batch":
        store.record_events(_events(store, *[
            (f"a{a}", f"u{u + 1}", _ACTIONS[act]) for a, u, act in op[1]
        ]))
    elif kind == "record":
        store.record(f"a{op[1]}", f"u{op[2] + 1}", _ACTIONS[op[3]])
    elif kind == "stream":
        stream.record(f"a{op[1]}", f"u{op[2] + 1}", "view")
    elif kind == "flush":
        stream.flush()
    elif kind == "set_team":
        members = tuple(dict.fromkeys(f"u{u + 1}" for u in op[1]))
        store.set_team(Team(id="t1", name="Alpha", member_ids=members))
    elif kind == "badge":
        store.grant_badge(f"a{op[1]}", op[2], f"u{op[3] + 1}")
    elif kind == "edge":
        src, dst = f"a{op[1]}", f"a{op[2]}"
        if op[1] < op[2]:  # ascending ids keep the graph acyclic
            try:
                store.lineage.add_edge(src, dst, "derives")
            except Exception:
                pass  # duplicate edge etc.


class TestNoStaleUnderStreamingWrites:
    @settings(max_examples=40, deadline=None)
    @given(ops=_op_strategy())
    def test_patched_cache_identical_to_drop_and_refetch(self, ops):
        """The tentpole guarantee, stated operationally: a patch-enabled
        engine and a drop-and-refetch engine fed the identical write/read
        interleaving over one store (frozen clock) serve *structurally
        equal* results for every request — the delta-patched cache entry
        is byte-for-byte what dropping and refetching would have
        produced.  Additionally, each answer's membership and order must
        equal a fresh provider fetch (PR 2's no-stale gate)."""
        store = _seeded_store()
        registry, patch_engine = _engine(store, patchers=True)
        _, drop_engine = _engine(store, patchers=False)
        stream = store.stream(window_s=3600.0, max_batch=64)
        for uri, request, _ in _PROP_REQUESTS:  # warm both caches
            patch_engine.execute(uri, request)
            drop_engine.execute(uri, request)
        for op in ops:
            _apply_op(store, stream, op)
            if op[0] == "fetch":
                uri, request, ordered = _PROP_REQUESTS[op[1]]
                patched = patch_engine.execute(uri, request).result
                dropped = drop_engine.execute(uri, request).result
                assert patched == dropped, (uri, op)
                fresh = registry.resolve(uri)(request)
                _assert_matches_oracle(patched, fresh, ordered, (uri, op))
        # Quiesce: flush the stream, then every cached answer agrees.
        stream.flush()
        for uri, request, ordered in _PROP_REQUESTS:
            patched = patch_engine.execute(uri, request).result
            assert patched == drop_engine.execute(uri, request).result, uri
            fresh = registry.resolve(uri)(request)
            _assert_matches_oracle(patched, fresh, ordered, uri)

    @settings(max_examples=25, deadline=None)
    @given(ops=_op_strategy(), hours=st.integers(1, 48))
    def test_membership_never_stale_under_advancing_clock(self, ops, hours):
        """With the clock advancing between writes, time-derived advisory
        fields may drift inside the TTL (exactly as for a plain cache
        hit), but the *membership and order* of every answer still equals
        a fresh fetch."""
        store = _seeded_store()
        registry, engine = _engine(store)
        stream = store.stream(window_s=3600.0, max_batch=64)
        for uri, request, _ in _PROP_REQUESTS:
            engine.execute(uri, request)
        for index, op in enumerate(ops):
            if index % 3 == 0:
                store.clock.advance(seconds=hours * 3600.0)
            _apply_op(store, stream, op)
            if op[0] == "fetch":
                uri, request, ordered = _PROP_REQUESTS[op[1]]
                served = engine.execute(uri, request).result
                fresh = registry.resolve(uri)(request)
                _assert_matches_oracle(served, fresh, ordered, (uri, op))
        stream.flush()
        for uri, request, ordered in _PROP_REQUESTS:
            served = engine.execute(uri, request).result
            fresh = registry.resolve(uri)(request)
            _assert_matches_oracle(served, fresh, ordered, uri)


class TestPatcherRegistration:
    """A patcher runs only when a patchable domain moved, so the registry
    refuses one on an endpoint that reads none."""

    @staticmethod
    def _patch(request, result, records):
        return result

    @staticmethod
    def _endpoint(request):
        return list_result([])

    @pytest.mark.parametrize("dependencies", [
        (DOMAIN_ENTITIES,), (DOMAIN_ENTITIES, DOMAIN_TEXT), (),
    ])
    def test_patcher_without_patchable_domain_is_rejected(self, dependencies):
        registry = EndpointRegistry()
        with pytest.raises(ValueError, match="patcher"):
            registry.register("x://p", self._endpoint,
                              dependencies=dependencies, patcher=self._patch)
        assert "x://p" not in registry
        assert registry.version == 0

    def test_decorated_patcher_without_patchable_domain_is_rejected(self):
        endpoint = depends_on(DOMAIN_ENTITIES)(
            patches_with(self._patch)(lambda request: list_result([]))
        )
        with pytest.raises(ValueError, match="patcher"):
            EndpointRegistry().register("x://p", endpoint)

    @pytest.mark.parametrize("domain", [
        DOMAIN_USAGE, DOMAIN_LINEAGE, DOMAIN_MEMBERSHIP,
    ])
    def test_patcher_with_a_patchable_domain_registers(self, domain):
        registry = EndpointRegistry()
        registry.register("x://p", self._endpoint,
                          dependencies=(DOMAIN_ENTITIES, domain),
                          patcher=self._patch)
        assert registry.registration("x://p").patcher is self._patch

    def test_patcher_on_a_badges_only_endpoint_registers(self):
        registry = EndpointRegistry()
        registry.register("x://p", self._endpoint,
                          dependencies=(DOMAIN_BADGES,), patcher=self._patch)
        assert registry.registration("x://p").patcher is self._patch
