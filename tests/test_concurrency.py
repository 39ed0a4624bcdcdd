"""Multi-threaded stress tests for the execution engine and sqlite backend.

Regression coverage for the concurrency fixes that a multi-threaded
session workload over one shared engine flushed out:

* racing first failures minting two breakers for one endpoint (a
  breaker is created under the engine lock, on an endpoint's first
  counted failure);
* request-scoped memos (``engine.scope()``) being invisible to
  ``execute_many`` pool workers;
* the lazily-built thread pool racing its own construction;
* concurrent failing fetches of one key each returning an error
  instead of hanging;
* ``SqliteBackend`` parallel readers on per-thread connections.

Plus a free-for-all stress run (fetch / batch fetch / invalidate / write
from many threads) with invariants checked after quiescence, a
hypothesis interleaving over the sqlite backend with concurrent readers,
and tenant isolation of team-hidden overview providers across
concurrent sessions.
"""

from __future__ import annotations

import random
import sys
import threading
from dataclasses import replace
from concurrent.futures import ThreadPoolExecutor

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.model import Artifact, User
from repro.catalog.store import CatalogStore
from repro.providers.base import (
    ProviderRequest,
    RequestContext,
    ScoredArtifact,
    list_result,
)
from repro.providers.execution import (
    ExecutionEngine,
    ExecutionPolicy,
    FetchStatus,
)
from repro.providers.registry import EndpointRegistry
from repro.util.clock import SimulationClock
from repro.errors import ProviderError


class CountingEndpoint:
    """Returns a fixed list result; counts invocations thread-safely."""

    def __init__(self, ids=("a-1", "a-2"), latency_s=0.0):
        self._lock = threading.Lock()
        self.calls = 0
        self._ids = tuple(ids)
        self._latency_s = latency_s
        self._sleep = None  # patched in by tests that need real delay

    def __call__(self, request):
        with self._lock:
            self.calls += 1
        if self._latency_s:
            import time

            time.sleep(self._latency_s)
        return list_result([ScoredArtifact(aid) for aid in self._ids])


class FailingEndpoint:
    """Always raises a transient provider error; counts invocations."""

    def __init__(self):
        self._lock = threading.Lock()
        self.calls = 0

    def __call__(self, request):
        with self._lock:
            self.calls += 1
        raise ProviderError("x://fail", "boom")


def _engine(endpoints: dict, **kwargs) -> ExecutionEngine:
    registry = EndpointRegistry()
    for uri, endpoint in endpoints.items():
        registry.register(uri, endpoint)
    return ExecutionEngine(registry, **kwargs)


def _hammer(n_threads: int, target) -> list:
    """Run *target(i)* on n threads simultaneously; return results."""
    barrier = threading.Barrier(n_threads)
    results: list = [None] * n_threads
    errors: list = []

    def runner(index: int) -> None:
        barrier.wait()
        try:
            results[index] = target(index)
        except Exception as exc:  # pragma: no cover - fail loudly below
            errors.append(exc)

    threads = [
        threading.Thread(target=runner, args=(i,)) for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads), "a worker hung"
    assert not errors, errors
    return results


class TestBreakerRaces:
    def test_concurrent_failures_share_one_breaker(self):
        """32 first-failures racing must mint exactly one breaker."""
        endpoint = FailingEndpoint()
        engine = _engine(
            {"x://fail": endpoint},
            policy=ExecutionPolicy.defaults().replace(
                attempts=1, breaker_failure_threshold=1000
            ),
        )

        def fetch(i):
            return engine.execute("x://fail", ProviderRequest(
                context=RequestContext(user_id=f"u-{i}")
            ))

        outcomes = _hammer(32, fetch)
        assert all(o.status is FetchStatus.ERROR for o in outcomes)
        # Internal: an unlocked get-then-create would mint one breaker
        # per racing thread, each losing the others' trip state.
        assert len(engine._breakers) == 1
        breaker = engine._breakers["x://fail"]
        assert breaker.consecutive_failures == 32

    def test_breaker_never_regresses_open_to_closed_without_probe(self):
        """Under concurrent failures + timed probes, every observed
        open → closed transition passes through half-open.  The threads
        share one simulated clock and move it 10 s after each fetch, so
        the 30 s reset timeout lapses again and again mid-run."""
        endpoint = FailingEndpoint()
        clock = SimulationClock()
        clock_lock = threading.Lock()
        engine = _engine(
            {"x://fail": endpoint},
            policy=ExecutionPolicy.defaults().replace(
                attempts=1, breaker_failure_threshold=2, cache_ttl_s=0,
            ),
            clock=clock,
        )
        transitions: list[str] = []
        seen_lock = threading.Lock()
        original = engine.stats.record_breaker_state

        def spy(uri: str, state: str) -> None:
            with seen_lock:
                transitions.append(state)
            original(uri, state)

        engine.stats.record_breaker_state = spy

        def fetch(i):
            for _ in range(10):
                engine.execute("x://fail", ProviderRequest())
                with clock_lock:
                    clock.advance(seconds=10.0)

        _hammer(8, fetch)
        assert "open" in transitions  # the breaker did trip
        assert "half-open" in transitions  # and probed after 30 s
        for prev, state in zip(transitions, transitions[1:]):
            if prev == "open":
                assert state != "closed", transitions


class TestScopeTravel:
    def test_scope_memo_reaches_execute_many_workers(self):
        """A scope entered on the caller thread must dedupe fetches run
        by pool workers — cache off, so only the memo can explain one call."""
        endpoint = CountingEndpoint()
        other = CountingEndpoint(ids=("b-1",))
        engine = _engine(
            {"x://count": endpoint, "x://other": other},
            policy=ExecutionPolicy.defaults().replace(
                cache_ttl_s=0, max_workers=4
            ),
        )
        request = ProviderRequest()
        with engine.scope():
            engine.execute("x://count", request)
            assert endpoint.calls == 1
            # Two distinct keys force the parallel path; the repeat of
            # x://count must be answered from the travelling scope memo.
            outcomes = engine.execute_many(
                [("x://count", request), ("x://other", request)]
            )
        assert [o.status for o in outcomes] == [FetchStatus.OK] * 2
        assert endpoint.calls == 1
        assert other.calls == 1
        engine.close()

    def test_scope_memo_serves_parallel_query_branches(self):
        """Concurrent branches of one scoped operation share results even
        when both start before either finishes."""
        endpoint = CountingEndpoint(latency_s=0.01)
        engine = _engine(
            {"x://count": endpoint},
            policy=ExecutionPolicy.defaults().replace(
                cache_ttl_s=0, max_workers=4
            ),
        )
        request = ProviderRequest()
        with engine.scope():
            outcomes = engine.execute_many(
                [("x://count", request)] * 4
                + [("x://count", ProviderRequest(
                    context=RequestContext(user_id="u-2")))]
            )
        assert all(o.status is FetchStatus.OK for o in outcomes)
        # 4 identical keys collapse to one invocation (batch dedup +
        # memo), the distinct-context key pays its own.
        assert endpoint.calls == 2
        engine.close()


class TestExecutorPool:
    def test_lazy_pool_construction_is_raced_safely(self):
        """First-callers racing _executor() must all get one pool."""
        engine = _engine(
            {"x://count": CountingEndpoint()},
            policy=ExecutionPolicy.defaults().replace(max_workers=4),
        )
        pools = _hammer(16, lambda i: engine._executor())
        assert len({id(p) for p in pools}) == 1
        engine.close()


def _seeded_store(n: int = 12) -> CatalogStore:
    store = CatalogStore()
    store.add_user(User(id="u-1", name="Stress User"))
    for i in range(n):
        store.add_artifact(Artifact(
            id=f"a-{i}", name=f"ART_{i}",
            artifact_type="table" if i % 2 == 0 else "dashboard",
            owner_id="u-1", tags=("stress",),
        ))
    return store


class TestEngineStress:
    def test_fetch_invalidate_free_for_all(self):
        """8 threads × mixed ops on one engine; afterwards the books
        balance and a quiescent fetch returns current store truth."""
        store = _seeded_store()

        def live_tables(request):
            return list_result(
                [ScoredArtifact(aid) for aid in store.by_type("table")]
            )

        registry = EndpointRegistry()
        registry.register("x://tables", live_tables)
        engine = ExecutionEngine(
            registry,
            store=store,
            policy=ExecutionPolicy.defaults().replace(max_workers=4),
        )
        stop = threading.Event()
        next_id = [100]
        id_lock = threading.Lock()

        def worker(index: int) -> int:
            fetched = 0
            for round_ in range(40):
                action = (index + round_) % 8
                if action < 5:
                    outcome = engine.execute(
                        "x://tables",
                        ProviderRequest(
                            context=RequestContext(user_id=f"u-{index % 3}")
                        ),
                    )
                    assert outcome.status in (
                        FetchStatus.OK, FetchStatus.STALE
                    )
                    fetched += 1
                elif action == 5:
                    with id_lock:
                        new_id = next_id[0]
                        next_id[0] += 1
                    store.add_artifact(Artifact(
                        id=f"a-{new_id}", name=f"ART_{new_id}",
                        artifact_type="table", owner_id="u-1",
                    ))
                elif action == 6:
                    engine.invalidate()
                else:
                    outcomes = engine.execute_many([
                        ("x://tables", ProviderRequest(
                            context=RequestContext(user_id=f"u-{user}")
                        ))
                        for user in range(3)
                    ])
                    assert all(
                        o.status in (FetchStatus.OK, FetchStatus.STALE)
                        for o in outcomes
                    )
                    fetched += len(outcomes)
            return fetched

        fetch_counts = _hammer(8, worker)
        stop.set()
        # Books balance: every fetch was answered by a hit or a miss (one
        # invocation each; nothing fails, so there are no retries).
        totals = engine.stats.snapshot()["totals"]
        assert totals["errors"] == 0
        assert totals["cache_hits"] + totals["cache_misses"] == sum(fetch_counts)
        assert totals["cache_misses"] == totals["calls"]
        # Quiescent read returns the live truth — no stale entry survived
        # the concurrent invalidation storm.
        outcome = engine.execute("x://tables", ProviderRequest())
        assert outcome.status is FetchStatus.OK
        assert [a.artifact_id for a in outcome.result.items] == \
            store.by_type("table")
        engine.close()

    def test_concurrent_failing_fetches_each_return_an_error(self):
        """Eight threads miss on one key of a failing endpoint at once:
        each fetch invokes the provider and gets its own error outcome,
        and none hangs."""
        endpoint = FailingEndpoint()
        engine = _engine(
            {"x://fail": endpoint},
            policy=ExecutionPolicy.defaults().replace(
                attempts=1, breaker_failure_threshold=1000, cache_ttl_s=0
            ),
        )
        request = ProviderRequest()
        outcomes = _hammer(8, lambda i: engine.execute("x://fail", request))
        assert all(o.status is FetchStatus.ERROR for o in outcomes)
        assert endpoint.calls == 8


class TestSqliteConcurrentReaders:
    def test_parallel_readers_while_writing(self, tmp_path):
        """Reader threads on per-thread connections observe consistent
        snapshots while the writer mutates; nobody crashes or blocks."""
        store = CatalogStore.open(tmp_path / "cat.db")
        store.add_user(User(id="u-1", name="Writer"))
        for i in range(10):
            store.add_artifact(Artifact(
                id=f"a-{i}", name=f"T_{i}", artifact_type="table",
                owner_id="u-1",
            ))
        store.flush()
        stop = threading.Event()
        errors: list[Exception] = []

        def reader() -> None:
            try:
                while not stop.is_set():
                    ids = store.artifact_ids()
                    assert len(ids) >= 10
                    assert store.by_type("table")
                    store.usage_stats("a-0")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for i in range(10, 40):
                store.add_artifact(Artifact(
                    id=f"a-{i}", name=f"T_{i}", artifact_type="table",
                    owner_id="u-1",
                ))
                store.record(f"a-{i % 10}", "u-1", "view")
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10)
        assert not errors, errors
        assert len(store.artifact_ids()) == 40
        store.close()

    def test_read_connections_close_with_store(self, tmp_path):
        """close() from the main thread tears down read connections that
        were created on (now finished) pool threads — sqlite refuses
        cross-thread closes unless the backend opened them for it."""
        store = CatalogStore.open(tmp_path / "cat.db")
        store.add_user(User(id="u-1", name="U"))
        store.add_artifact(Artifact(id="a-1", name="T",
                                    artifact_type="table", owner_id="u-1"))
        store.flush()

        with ThreadPoolExecutor(max_workers=3) as pool:
            for ids in pool.map(
                lambda _: store.artifact_ids(), range(6)
            ):
                assert ids == ["a-1"]
        backend = store._backend
        assert backend._read_conns  # pool threads did open read conns
        store.close()  # must not raise despite foreign-thread conns
        assert not backend._read_conns


# -- hypothesis: sqlite interleavings with concurrent readers -----------------

_write_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 9)),
        st.tuples(st.just("view"), st.integers(0, 9)),
        st.tuples(st.just("badge"), st.integers(0, 9)),
    ),
    min_size=1,
    max_size=20,
)


class TestSqliteInterleavingProperty:
    @given(ops=_write_ops)
    @settings(max_examples=10, deadline=None)
    def test_concurrent_reads_match_serial_model(self, ops, tmp_path_factory):
        """Any write interleaving, raced by reader threads, leaves the
        sqlite store observing exactly what an in-memory model observes."""
        tmp_path = tmp_path_factory.mktemp("conc")
        sqlite_store = CatalogStore.open(tmp_path / "cat.db")
        model = CatalogStore()
        for store in (sqlite_store, model):
            store.add_user(User(id="u-1", name="U"))
        stop = threading.Event()
        reader_errors: list[Exception] = []

        def reader() -> None:
            try:
                while not stop.is_set():
                    sqlite_store.artifact_ids()
                    sqlite_store.by_badge("endorsed")
            except Exception as exc:  # pragma: no cover
                reader_errors.append(exc)

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        try:
            for op in ops:
                kind, n = op
                aid = f"a-{n}"
                if kind == "add":
                    if not sqlite_store.has_artifact(aid):
                        for store in (sqlite_store, model):
                            store.add_artifact(Artifact(
                                id=aid, name=f"T_{n}",
                                artifact_type="table", owner_id="u-1",
                            ))
                elif sqlite_store.has_artifact(aid):
                    for store in (sqlite_store, model):
                        if kind == "view":
                            store.record(aid, "u-1", "view")
                        else:
                            store.grant_badge(aid, "endorsed", "u-1")
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10)
        assert not reader_errors, reader_errors
        assert sqlite_store.artifact_ids() == model.artifact_ids()
        assert sqlite_store.by_badge("endorsed") == model.by_badge("endorsed")
        for aid in model.artifact_ids():
            assert (sqlite_store.usage_stats(aid).view_count
                    == model.usage_stats(aid).view_count)
        sqlite_store.close()


class TestStreamingWritersUnderLoad:
    def test_readers_stay_fresh_with_competing_write_streams(self):
        """Writer threads push usage bursts through one shared coalescing
        EventStream and append lineage edges while reader threads fetch
        usage-dependent endpoints through a patch-enabled engine.  No
        thread errors, the books balance, and after quiescing (final
        flush) every engine answer matches a fresh provider fetch."""
        from repro.providers.builtin import (
            BuiltinProviders,
            install_builtin_endpoints,
        )

        store = _seeded_store(n=10)
        for uid in ("u-2", "u-3"):
            store.add_user(User(id=uid, name=f"Writer {uid}"))
        registry = EndpointRegistry()
        install_builtin_endpoints(registry, BuiltinProviders(store))
        engine = ExecutionEngine(
            registry,
            store=store,
            policy=ExecutionPolicy.defaults().replace(cache_ttl_s=3600.0),
        )
        stream = store.stream(window_s=0.0, max_batch=8)
        requests = [
            ProviderRequest(
                inputs={"user": uid}, context=RequestContext(user_id=uid)
            )
            for uid in ("u-1", "u-2", "u-3")
        ]
        edge_seq = [0]
        edge_lock = threading.Lock()

        def worker(index: int) -> int:
            fetched = 0
            uid = f"u-{index % 3 + 1}"
            for round_ in range(60):
                if index % 2 == 0:
                    # Writer: usage burst + the occasional lineage edge.
                    stream.record(f"a-{round_ % 10}", uid, "view")
                    if round_ % 10 == 9:
                        with edge_lock:
                            n = edge_seq[0]
                            edge_seq[0] += 1
                        store.lineage.add_edge(
                            f"a-{n % 10}", f"sink-{n}", "derives"
                        )
                else:
                    outcome = engine.execute(
                        "catalog://recents" if round_ % 2 == 0
                        else "catalog://most_viewed",
                        requests[index % 3],
                    )
                    assert outcome.status in (
                        FetchStatus.OK, FetchStatus.STALE
                    )
                    fetched += 1
            return fetched

        fetch_counts = _hammer(8, worker)
        stream.flush()
        totals = engine.stats.snapshot()["totals"]
        assert totals["errors"] == 0
        assert totals["cache_hits"] + totals["cache_misses"] == sum(fetch_counts)
        # Quiescent reads equal the live provider truth.
        for request in requests:
            for uri in ("catalog://recents", "catalog://most_viewed"):
                served = engine.execute(uri, request).result
                fresh = registry.resolve(uri)(request)
                assert served.artifact_ids() == fresh.artifact_ids(), uri
        engine.close()


class TestTenantIsolationUnderLoad:
    def test_team_hides_stay_per_team_under_concurrent_sessions(self):
        """Four threads share one ``WorkbookApp`` whose teams each hide a
        different overview provider, and interleave overview opens,
        searches and usage writes.  Every overview lacks its own team's
        hidden provider and still shows every provider hidden only by
        other teams; no op raises and the engine records no error."""
        from repro.synth import SynthConfig, generate_catalog
        from repro.synth.workload import query_pool
        from repro.workbook.app import WorkbookApp

        store = generate_catalog(SynthConfig(seed=7, n_tables=40))
        app = WorkbookApp(
            store, policy=ExecutionPolicy.defaults().replace(max_workers=2)
        )
        overview = [p.name for p in app.spec.visible_in("overview")]
        teams = sorted(t.id for t in store.teams())
        assert 1 < len(teams) <= len(overview)
        hidden = dict(zip(teams, overview))
        for team_id, provider_name in hidden.items():
            app.customization.team_layer(team_id).hide(provider_name)
        members = [
            (user.id, store.teams_of(user.id)[0].id)
            for user in store.users()
            if store.teams_of(user.id)
        ]
        queries = query_pool(store)
        artifacts = store.artifact_ids()

        def worker(index: int) -> int:
            rng = random.Random(index)
            overviews = 0
            for step in range(30):
                user_id, team_id = rng.choice(members)
                session = app.session(user_id, team_id)
                if step % 3 == 0:
                    names = {tab.provider_name for tab in session.open_browse()}
                    assert hidden[team_id] not in names, team_id
                    foreign = set(hidden.values()) - {hidden[team_id]}
                    assert foreign <= names, (team_id, foreign - names)
                    overviews += 1
                elif step % 3 == 1:
                    session.search(rng.choice(queries), limit=20)
                else:
                    store.record(rng.choice(artifacts), user_id, "view")
            return overviews

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            overviews = _hammer(4, worker)
        finally:
            sys.setswitchinterval(interval)
        assert sum(overviews) == 4 * 10
        assert app.stats.total("errors") == 0
        app.close()


class TestViewMemoRaces:
    """The view memo in ``ViewFactory.build`` under concurrent writes."""

    @staticmethod
    def _app():
        from repro.synth import SynthConfig, generate_catalog
        from repro.workbook.app import WorkbookApp

        store = generate_catalog(
            SynthConfig(seed=5, n_tables=12, n_users=6, n_teams=2)
        )
        app = WorkbookApp(store)
        teams = [t.id for t in store.teams()]
        app.customization.team_layer(teams[0]).hide("types")
        app.customization.team_layer(teams[1]).hide("newest")
        return app, teams

    @staticmethod
    def _fresh(app, provider, result, **kwargs):
        from repro.core.views.factory import ViewFactory

        interface = app.interface
        return ViewFactory(
            interface.store, interface.spec, interface.ranker
        ).build(provider, result, **kwargs)

    def test_build_straddling_a_write_is_not_served_after_it(
        self, monkeypatch
    ):
        """A build blocked between its ranking and its cards while a
        write lands must not be served once the write has returned."""
        from repro.core.views import factory as factory_module

        app, _ = self._app()
        interface = app.interface
        provider = interface.spec.provider("most_viewed")
        result = interface.engine.execute(
            provider.endpoint, ProviderRequest()
        ).result
        entered, release = threading.Event(), threading.Event()
        make_card = factory_module.make_card

        def blocking_make_card(store, artifact_id, score=0.0):
            if threading.current_thread() is not threading.main_thread():
                if not entered.is_set():
                    entered.set()
                    assert release.wait(10)
            return make_card(store, artifact_id, score=score)

        monkeypatch.setattr(factory_module, "make_card", blocking_make_card)
        straddled = []
        builder = threading.Thread(target=lambda: straddled.append(
            interface.factory.build(provider, result, limit=5)
        ))
        builder.start()
        assert entered.wait(10)
        # Lift the last-ranked artifact into the head.
        store = interface.store
        last = result.items[-1].artifact_id
        most = max(store.usage_stats(i.artifact_id).view_count
                   for i in result.items)
        user = store.users()[0].id
        for _ in range(most + 1):
            store.record(last, user, "view")
        release.set()
        builder.join(10)
        assert not builder.is_alive()
        (straddled,) = straddled
        after = interface.factory.build(provider, result, limit=5)
        assert after is not straddled
        assert repr(after) == repr(self._fresh(app, provider, result, limit=5))
        assert last in after.artifact_ids()
        assert last not in straddled.artifact_ids()
        app.close()

    def test_card_straddling_a_write_is_not_kept(self, monkeypatch):
        """A card resolved before a write and handed back after it must
        not enter the card memo: another build may already have drained
        the write's record, and then nothing would drop the old card."""
        from repro.core.views import factory as factory_module

        app, _ = self._app()
        interface, store = app.interface, app.store
        provider = interface.spec.provider("embedding_map")
        result = interface.engine.execute(
            provider.endpoint, ProviderRequest()
        ).result
        entered, release = threading.Event(), threading.Event()
        blocked: list[str] = []
        make_card = factory_module.make_card

        def blocking_make_card(store, artifact_id, score=0.0):
            card = make_card(store, artifact_id, score=score)
            if (threading.current_thread() is not threading.main_thread()
                    and not entered.is_set()):
                blocked.append(artifact_id)
                entered.set()
                assert release.wait(10)
            return card

        monkeypatch.setattr(factory_module, "make_card", blocking_make_card)
        builder = threading.Thread(
            target=lambda: interface.factory.build(provider, result)
        )
        builder.start()
        assert entered.wait(10)
        (artifact,) = blocked
        store.record(artifact, store.users()[0].id, "view")
        # This build drains the write's record before the straddling
        # card comes back.
        interface.factory.build(provider, result, notice="between")
        release.set()
        builder.join(10)
        assert not builder.is_alive()
        after = interface.factory.build(provider, result, notice="after")
        fresh = self._fresh(app, provider, result, notice="after")
        assert repr(after) == repr(fresh)
        app.close()

    def test_cards_hammer_with_concurrent_writes(self):
        """Two readers build the embedding view and search while a writer
        records usage, grants badges and renames owners; once the writes
        stop, a build equals a fresh one, and then every card the memo
        holds equals a fresh ``make_card``."""
        from repro.core.views.base import make_card

        app, _ = self._app()
        interface, store = app.interface, app.store
        provider = interface.spec.provider("embedding_map")
        users = store.users()
        artifacts = store.artifact_ids()[:6]
        done = threading.Event()

        def reader(index: int) -> None:
            rounds = 0
            while not done.is_set() or rounds < 5:
                rounds += 1
                result = interface.engine.execute(
                    provider.endpoint, ProviderRequest()
                ).result
                interface.factory.build(provider, result, notice=str(rounds))
                interface.search("type: table", user_id=users[index].id)

        def writer() -> None:
            for step in range(60):
                artifact = artifacts[step % len(artifacts)]
                if step % 9 == 8:
                    user = users[step % len(users)]
                    store.set_user(replace(user, name=f"{user.name} {step}"))
                elif step % 5 == 4:
                    store.grant_badge(artifact, "certified", users[0].id)
                else:
                    store.record(artifact, users[step % 3].id, "view")
                done.wait(0.002)
            done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            _hammer(3, lambda i: writer() if i == 2 else reader(i))
        finally:
            sys.setswitchinterval(interval)
        result = interface.engine.execute(
            provider.endpoint, ProviderRequest()
        ).result
        after = interface.factory.build(provider, result, notice="after")
        fresh = self._fresh(app, provider, result, notice="after")
        assert repr(after) == repr(fresh)
        cards = interface.factory._cards
        assert cards
        for artifact_id, card in cards.items():
            assert card == make_card(store, artifact_id), artifact_id
        app.close()

    def test_overview_and_explore_hammer_with_concurrent_writes(self):
        """Two reader threads open overviews and explore panels while a
        writer records usage, grants badges and advances the clock.  A
        returned view is compared with a fresh build whenever no write
        landed during its build (writes hold a lock; the comparison runs
        under it), and no team ever sees the overview provider it hides."""
        app, teams = self._app()
        interface, store = app.interface, app.store
        write_lock = threading.Lock()
        tally = {"checked": 0, "shared": 0}
        seen: dict[int, object] = {}
        real = interface.factory.build

        def build(provider, result, **kwargs):
            before = (store.version, store.clock.now())
            view = real(provider, result, **kwargs)
            with write_lock:
                if (store.version, store.clock.now()) == before:
                    fresh = self._fresh(app, provider, result, **kwargs)
                    assert repr(view) == repr(fresh), provider.name
                    tally["checked"] += 1
                    tally["shared"] += id(view) in seen
                    seen[id(view)] = view
            return view

        interface.factory.build = build
        users = [u.id for u in store.users()]
        artifacts = store.artifact_ids()[:6]
        hidden = {teams[0]: "types", teams[1]: "newest"}
        done = threading.Event()

        def reader(index: int) -> None:
            rounds = 0
            while not done.is_set() or rounds < 10:
                rounds += 1
                user = users[(index + rounds) % len(users)]
                team = teams[rounds % 2]
                tabs = interface.overview_tabs(user_id=user, team_id=team)
                names = {tab.provider_name for tab in tabs}
                assert hidden[team] not in names
                assert hidden[teams[(rounds + 1) % 2]] in names
                app.exploration.explore(
                    artifacts[rounds % len(artifacts)], user_id=user, limit=5
                )

        def writer() -> None:
            for step in range(40):
                with write_lock:
                    if step % 5 == 4:
                        store.clock.advance(days=0.5)
                    elif step % 7 == 6:
                        store.grant_badge(artifacts[step % 6], "certified",
                                          users[0])
                    else:
                        store.record(artifacts[step % 6], users[step % 3],
                                     "view")
                done.wait(0.005)
            done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            _hammer(3, lambda i: writer() if i == 2 else reader(i))
        finally:
            sys.setswitchinterval(interval)
        assert tally["checked"] > 50
        assert tally["shared"] > 0
        app.close()
