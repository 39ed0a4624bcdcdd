"""Tests for the provider execution layer.

Covers the engine's cache (hit/miss, TTL, LRU, invalidation on catalog
mutation, registry swap and spec swap), parallel ``execute_many`` with
deterministic ordering and fault containment, the retry/backoff
middleware composing with :mod:`repro.providers.faults`, instrumentation,
and the end-to-end guarantees: repeated queries and overview
regenerations on an unchanged catalog perform zero duplicate endpoint
invocations.
"""

import ast
import dataclasses
import re
import threading
from pathlib import Path

import pytest

from repro.catalog.model import Artifact, User
from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    MissingInputError,
    ProviderError,
    ProviderTimeoutError,
    RepresentationError,
)
from repro.providers.base import (
    ProviderRequest,
    ProviderResult,
    Representation,
    RequestContext,
    ScoredArtifact,
    list_result,
    reads_context,
)
from repro.providers.execution import (
    BREAKER_RESET_TIMEOUT_S,
    BreakerState,
    ExecutionEngine,
    ExecutionPolicy,
    ExecutionStats,
    FetchStatus,
    request_key,
)
from repro.providers.faults import (
    FailNTimesEndpoint,
    FlakyEndpoint,
    SlowEndpoint,
    is_transient,
)
from repro.providers.registry import EndpointRegistry
from repro.util.clock import SimulationClock
from repro.workbook.app import WorkbookApp


class CountingEndpoint:
    """Returns a fixed list result; counts invocations."""

    def __init__(self, ids=("a-1", "a-2")):
        self.calls = 0
        self._ids = tuple(ids)

    def __call__(self, request):
        self.calls += 1
        return list_result([ScoredArtifact(aid) for aid in self._ids])


class RecordingClock(SimulationClock):
    """A simulation clock that remembers every advance, so a test reads
    the engine's backoff delays off the clock."""

    def __init__(self):
        super().__init__()
        self.advances = []

    def advance(self, seconds=0.0, days=0.0):
        self.advances.append(seconds)
        return super().advance(seconds=seconds, days=days)


@pytest.fixture
def counting_registry():
    registry = EndpointRegistry()
    endpoint = CountingEndpoint()
    registry.register("x://count", endpoint)
    return registry, endpoint


class TestRequestKey:
    def test_input_order_is_canonical(self):
        a = ProviderRequest(inputs={"user": "u-1", "badge": "gold"})
        b = ProviderRequest(inputs={"badge": "gold", "user": "u-1"})
        assert request_key("x://p", a) == request_key("x://p", b)

    def test_context_participates(self):
        base = ProviderRequest()
        other = ProviderRequest(context=RequestContext(user_id="u-1"))
        limited = ProviderRequest(context=RequestContext(limit=5))
        keys = {
            request_key("x://p", base),
            request_key("x://p", other),
            request_key("x://p", limited),
        }
        assert len(keys) == 3

    def test_endpoint_participates(self):
        request = ProviderRequest()
        assert request_key("x://p", request) != request_key("x://q", request)


def _ctx(user="", team="", limit=20, **inputs):
    return ProviderRequest(
        inputs=inputs,
        context=RequestContext(user_id=user, team_id=team, limit=limit),
    )


class TestDeclaredContextKeys:
    """The engine keys a fetch on the context fields its endpoint
    declares (``reads_context`` / ``register(context=)``) only."""

    def test_no_fields_is_the_full_key(self):
        request = _ctx("u-1", "t-1", 7, badge="gold")
        full = ("x://p", (("badge", "gold"),), "u-1", "t-1", 7)
        assert request_key("x://p", request) == full
        assert request_key("x://p", request, None) == full

    def test_undeclared_fields_get_blank_slots(self):
        request = _ctx("u-1", "t-1", 7)
        assert request_key("x://p", request, frozenset()) == (
            "x://p", (), "", "", 0
        )
        assert request_key("x://p", request, frozenset({"limit"})) == (
            "x://p", (), "", "", 7
        )

    def test_user_agnostic_endpoint_shared_across_users_and_teams(
        self, tiny_registry
    ):
        engine = ExecutionEngine(tiny_registry)
        a = engine.execute("catalog://of_type",
                           _ctx("u-ann", "t-1", artifact_type="table"))
        b = engine.execute("catalog://of_type",
                           _ctx("u-cyd", "t-2", 5, artifact_type="table"))
        assert a.result == b.result
        assert engine.stats.endpoint("catalog://of_type").calls == 1
        assert engine.stats.endpoint("catalog://of_type").cache_hits == 1

    def test_per_user_endpoint_keyed_per_user(self, tiny_registry):
        engine = ExecutionEngine(tiny_registry)
        engine.execute("catalog://recents", _ctx("u-ann", "t-1"))
        engine.execute("catalog://recents", _ctx("u-bob", "t-1"))
        assert engine.stats.endpoint("catalog://recents").calls == 2

    def test_undeclared_endpoint_keeps_the_full_key(self, counting_registry):
        registry, endpoint = counting_registry
        assert registry.registration("x://count").context is None
        engine = ExecutionEngine(registry)
        request = _ctx("u-1", "t-1")
        assert engine._key("x://count", request) == request_key(
            "x://count", request
        )
        engine.execute("x://count", request)
        engine.execute("x://count", _ctx("u-2", "t-1"))
        engine.execute("x://count", _ctx("u-1", "t-2"))
        assert endpoint.calls == 3

    def test_decorator_and_register_argument_agree(self):
        registry = EndpointRegistry()
        decorated = reads_context("limit")(CountingEndpoint())
        registry.register("x://decorated", decorated)
        registry.register("x://argument", CountingEndpoint(), context=["limit"])
        registry.register("x://override", decorated, context=())
        assert registry.registration("x://decorated").context == {"limit"}
        assert registry.registration("x://argument").context == {"limit"}
        assert registry.registration("x://override").context == frozenset()
        with pytest.raises(ValueError):
            registry.register("x://bad", CountingEndpoint(), context=["user"])
        with pytest.raises(ValueError):
            reads_context("team")

    def test_in_batch_dedup_coalesces_across_users(self):
        registry = EndpointRegistry()
        endpoint = CountingEndpoint()
        registry.register("x://shared", endpoint, context=())
        engine = ExecutionEngine(
            registry,
            policy=ExecutionPolicy.defaults().replace(cache_ttl_s=0),
        )
        outcomes = engine.execute_many([
            ("x://shared", _ctx("u-1", "t-1")),
            ("x://shared", _ctx("u-2", "t-2", 3)),
            ("x://shared", _ctx("u-3")),
        ])
        assert all(o.ok for o in outcomes)
        assert endpoint.calls == 1
        assert engine.stats.total("dedups") == 2

class TestCache:
    def test_second_fetch_is_a_hit(self, counting_registry):
        registry, endpoint = counting_registry
        engine = ExecutionEngine(registry)
        request = ProviderRequest()
        first = engine.execute("x://count", request).result
        second = engine.execute("x://count", request).result
        assert endpoint.calls == 1
        assert first.artifact_ids() == second.artifact_ids()
        assert engine.stats.total("cache_hits") == 1
        assert engine.stats.total("cache_misses") == 1

    def test_distinct_requests_both_fetch(self, counting_registry):
        registry, endpoint = counting_registry
        engine = ExecutionEngine(registry)
        engine.execute("x://count", ProviderRequest())
        engine.execute(
            "x://count", ProviderRequest(context=RequestContext(limit=99))
        )
        assert endpoint.calls == 2

    def test_ttl_expiry(self, counting_registry):
        registry, endpoint = counting_registry
        clock = SimulationClock()
        engine = ExecutionEngine(
            registry,
            policy=ExecutionPolicy.defaults().replace(cache_ttl_s=10.0),
            clock=clock,
        )
        engine.execute("x://count", ProviderRequest())
        clock.advance(seconds=5.0)
        engine.execute("x://count", ProviderRequest())
        assert endpoint.calls == 1
        clock.advance(seconds=6.0)
        engine.execute("x://count", ProviderRequest())
        assert endpoint.calls == 2

    def test_ttl_zero_disables_caching(self, counting_registry):
        registry, endpoint = counting_registry
        engine = ExecutionEngine(
            registry, policy=ExecutionPolicy.defaults().replace(cache_ttl_s=0)
        )
        engine.execute("x://count", ProviderRequest())
        engine.execute("x://count", ProviderRequest())
        assert endpoint.calls == 2
        assert engine.cache_size == 0

    def test_lru_bound(self, counting_registry):
        """The cache holds 2,048 entries; the least recently used go."""
        registry, endpoint = counting_registry
        engine = ExecutionEngine(registry)

        def fetch(limit):
            engine.execute(
                "x://count",
                ProviderRequest(context=RequestContext(limit=limit)),
            )

        for limit in range(1, 2049):
            fetch(limit)
        assert engine.cache_size == 2048
        fetch(1)  # a hit: limit=1 becomes the most recently used
        fetch(2049)  # evicts limit=2, the least recently used
        assert engine.cache_size == 2048
        assert endpoint.calls == 2049
        fetch(1)
        assert endpoint.calls == 2049
        fetch(2)
        assert endpoint.calls == 2050

    def test_explicit_invalidation(self, counting_registry):
        registry, endpoint = counting_registry
        engine = ExecutionEngine(registry)
        engine.execute("x://count", ProviderRequest())
        engine.invalidate()
        engine.execute("x://count", ProviderRequest())
        assert endpoint.calls == 2

    def test_per_endpoint_invalidation(self, counting_registry):
        registry, endpoint = counting_registry
        other = CountingEndpoint(ids=("b-1",))
        registry.register("x://other", other)
        engine = ExecutionEngine(registry)
        engine.execute("x://count", ProviderRequest())
        engine.execute("x://other", ProviderRequest())
        engine.invalidate("x://other")
        engine.execute("x://count", ProviderRequest())
        engine.execute("x://other", ProviderRequest())
        assert endpoint.calls == 1
        assert other.calls == 2

    def test_errors_are_not_cached(self):
        registry = EndpointRegistry()
        inner = CountingEndpoint()
        flaky = FlakyEndpoint(inner, fail_on={1}, name="flaky")
        registry.register("x://flaky", flaky)
        engine = ExecutionEngine(registry)
        failed = engine.execute("x://flaky", ProviderRequest())
        assert failed.status is FetchStatus.ERROR
        assert isinstance(failed.error, ProviderError)
        result = engine.execute("x://flaky", ProviderRequest()).result
        assert result.artifact_ids() == ["a-1", "a-2"]


class TestInvalidationOnMutation:
    def test_catalog_mutation_flushes_cache(self, tiny_store):
        registry = EndpointRegistry()
        endpoint = CountingEndpoint()
        registry.register("x://count", endpoint)
        engine = ExecutionEngine(registry, store=tiny_store)
        engine.execute("x://count", ProviderRequest())
        engine.execute("x://count", ProviderRequest())
        assert endpoint.calls == 1
        tiny_store.grant_badge("t-web", "endorsed", "u-ann")
        engine.execute("x://count", ProviderRequest())
        assert endpoint.calls == 2

    def test_usage_event_flushes_cache(self, tiny_store):
        registry = EndpointRegistry()
        endpoint = CountingEndpoint()
        registry.register("x://count", endpoint)
        engine = ExecutionEngine(registry, store=tiny_store)
        engine.execute("x://count", ProviderRequest())
        tiny_store.record("t-orders", "u-bob", "view")
        engine.execute("x://count", ProviderRequest())
        assert endpoint.calls == 2

    def test_registry_swap_flushes_cache(self, counting_registry):
        registry, endpoint = counting_registry
        engine = ExecutionEngine(registry)
        engine.execute("x://count", ProviderRequest())
        healed = CountingEndpoint(ids=("z-9",))
        registry.register("x://count", healed, replace=True)
        result = engine.execute("x://count", ProviderRequest()).result
        assert result.artifact_ids() == ["z-9"]

    def test_spec_swap_invalidates(self, tiny_app):
        user = "u-ann"
        tiny_app.interface.overview_tabs(user_id=user)
        assert tiny_app.engine.cache_size > 0
        tiny_app.update_spec(tiny_app.spec)
        assert tiny_app.engine.cache_size == 0
        # stats survive the swap — the engine is shared across versions
        assert tiny_app.stats.total("calls") > 0


class TestScope:
    def test_scope_memoises_even_without_cache(self, counting_registry):
        registry, endpoint = counting_registry
        engine = ExecutionEngine(
            registry, policy=ExecutionPolicy.defaults().replace(cache_ttl_s=0)
        )
        with engine.scope():
            engine.execute("x://count", ProviderRequest())
            engine.execute("x://count", ProviderRequest())
        assert endpoint.calls == 1
        engine.execute("x://count", ProviderRequest())
        assert endpoint.calls == 2  # memo died with the scope


class TestFetchMany:
    def test_results_align_with_input_order(self):
        registry = EndpointRegistry()
        for name in ("alpha", "beta", "gamma"):
            registry.register(
                f"x://{name}", CountingEndpoint(ids=(f"{name}-1",))
            )
        engine = ExecutionEngine(registry)
        calls = [
            ("x://gamma", ProviderRequest()),
            ("x://alpha", ProviderRequest()),
            ("x://beta", ProviderRequest()),
        ]
        outcomes = engine.execute_many(calls)
        assert [o.endpoint for o in outcomes] == [
            "x://gamma", "x://alpha", "x://beta",
        ]
        assert [o.result.artifact_ids() for o in outcomes] == [
            ["gamma-1"], ["alpha-1"], ["beta-1"],
        ]

    def test_ordering_is_deterministic_across_runs(self):
        registry = EndpointRegistry()
        for index in range(12):
            registry.register(
                f"x://p{index}", CountingEndpoint(ids=(f"id-{index}",))
            )
        engine = ExecutionEngine(registry)
        calls = [(f"x://p{index}", ProviderRequest()) for index in range(12)]
        first = [o.result.artifact_ids() for o in engine.execute_many(calls)]
        engine.invalidate()
        second = [o.result.artifact_ids() for o in engine.execute_many(calls)]
        assert first == second

    def test_duplicates_fetch_once(self, counting_registry):
        registry, endpoint = counting_registry
        engine = ExecutionEngine(
            registry, policy=ExecutionPolicy.defaults().replace(cache_ttl_s=0)
        )
        outcomes = engine.execute_many(
            [("x://count", ProviderRequest())] * 4
        )
        assert endpoint.calls == 1
        assert all(o.ok for o in outcomes)

    def test_fault_containment(self, counting_registry):
        registry, _ = counting_registry
        registry.register(
            "x://broken",
            FlakyEndpoint(CountingEndpoint(), fail_on=lambda i: True,
                          name="broken"),
        )
        engine = ExecutionEngine(registry)
        outcomes = engine.execute_many([
            ("x://count", ProviderRequest()),
            ("x://broken", ProviderRequest()),
            ("x://count", ProviderRequest(context=RequestContext(limit=3))),
        ])
        assert outcomes[0].ok and outcomes[2].ok
        assert not outcomes[1].ok
        assert isinstance(outcomes[1].error, ProviderError)
        assert engine.stats.total("errors") == 1

    def test_actually_runs_on_threads(self):
        registry = EndpointRegistry()
        seen_threads = set()

        def make_endpoint(name):
            def endpoint(request):
                seen_threads.add(threading.current_thread().name)
                return list_result([ScoredArtifact(name)])
            return endpoint

        for index in range(6):
            registry.register(f"x://t{index}", make_endpoint(f"id-{index}"))
        engine = ExecutionEngine(registry)
        engine.execute_many(
            [(f"x://t{index}", ProviderRequest()) for index in range(6)]
        )
        assert any(t.startswith("humboldt-exec") for t in seen_threads)

    def test_serial_when_one_worker(self, counting_registry):
        registry, endpoint = counting_registry
        engine = ExecutionEngine(
            registry, policy=ExecutionPolicy.defaults().replace(max_workers=1)
        )
        outcomes = engine.execute_many([
            ("x://count", ProviderRequest()),
            ("x://count", ProviderRequest(context=RequestContext(limit=3))),
        ])
        assert all(o.ok for o in outcomes)
        assert endpoint.calls == 2


class TestRetryMiddleware:
    def test_transient_outage_retried(self):
        registry = EndpointRegistry()
        flaky = FlakyEndpoint(CountingEndpoint(), fail_on={1}, name="flaky")
        registry.register("x://flaky", flaky)
        clock = RecordingClock()
        engine = ExecutionEngine(
            registry,
            policy=ExecutionPolicy.defaults().replace(attempts=3),
            clock=clock,
        )
        result = engine.execute("x://flaky", ProviderRequest()).result
        assert result.artifact_ids() == ["a-1", "a-2"]
        assert flaky.calls == 2
        assert engine.stats.total("retries") == 1
        assert clock.advances == [0.025]

    def test_backoff_doubles(self):
        """Retries wait 25, 50, then 100 ms."""
        registry = EndpointRegistry()
        flaky = FlakyEndpoint(CountingEndpoint(), fail_on={1, 2, 3},
                              name="flaky")
        registry.register("x://flaky", flaky)
        clock = RecordingClock()
        engine = ExecutionEngine(
            registry,
            policy=ExecutionPolicy.defaults().replace(attempts=4),
            clock=clock,
        )
        assert engine.execute("x://flaky", ProviderRequest()).fresh
        assert clock.advances == [0.025, 0.05, 0.1]

    def test_attempts_exhausted_raises(self):
        registry = EndpointRegistry()
        flaky = FlakyEndpoint(CountingEndpoint(), fail_on=lambda i: True,
                              name="flaky")
        registry.register("x://flaky", flaky)
        engine = ExecutionEngine(
            registry,
            policy=ExecutionPolicy.defaults().replace(attempts=3),
            clock=SimulationClock(),
        )
        outcome = engine.execute("x://flaky", ProviderRequest())
        assert outcome.status is FetchStatus.ERROR
        assert isinstance(outcome.error, ProviderError)
        assert flaky.calls == 3
        assert engine.stats.total("retries") == 2

    def test_timeout_is_retried(self, tiny_registry):
        original = tiny_registry.resolve("catalog://newest")
        slow = SlowEndpoint(original, latency_ms=60, budget_ms=100,
                            name="newest")
        tiny_registry.register("catalog://newest", slow, replace=True)
        engine = ExecutionEngine(
            tiny_registry,
            policy=ExecutionPolicy.defaults().replace(attempts=2),
            clock=SimulationClock(),
        )
        engine.execute("catalog://newest", ProviderRequest())  # 60ms spent
        # second call times out (60 > 40 remaining) and the retry also
        # times out: ProviderTimeoutError surfaces after both attempts
        outcome = engine.execute(
            "catalog://newest",
            ProviderRequest(context=RequestContext(limit=5)),
        )
        assert outcome.status is FetchStatus.ERROR
        assert isinstance(outcome.error, ProviderTimeoutError)
        assert slow.timed_out == 2

    def test_missing_input_not_retried(self, tiny_registry):
        engine = ExecutionEngine(
            tiny_registry,
            policy=ExecutionPolicy.defaults().replace(attempts=5),
        )
        outcome = engine.execute("catalog://owned_by", ProviderRequest())
        assert outcome.status is FetchStatus.ERROR
        assert isinstance(outcome.error, MissingInputError)
        assert engine.stats.total("retries") == 0

    def test_wrong_shape_not_retried(self):
        registry = EndpointRegistry()
        calls = []

        def wrong_shape(request):
            calls.append(1)
            return ProviderResult(
                representation=Representation.GRAPH,
                items=(ScoredArtifact("a-1"),),
            )

        registry.register("x://wrong", wrong_shape)
        engine = ExecutionEngine(
            registry, policy=ExecutionPolicy.defaults().replace(attempts=5)
        )
        outcome = engine.execute("x://wrong", ProviderRequest())
        assert outcome.status is FetchStatus.ERROR
        assert isinstance(outcome.error, RepresentationError)
        assert len(calls) == 1

    def test_is_transient_classification(self):
        assert is_transient(ProviderError("p", "outage"))
        assert is_transient(ProviderTimeoutError("p", "timeout"))
        assert not is_transient(MissingInputError("p", "user"))
        assert not is_transient(RepresentationError("p", "bad shape"))
        assert not is_transient(ValueError("not a provider error"))


class TestStats:
    def test_latency_percentiles_present(self, counting_registry):
        registry, _ = counting_registry
        engine = ExecutionEngine(registry)
        engine.execute("x://count", ProviderRequest())
        snap = engine.stats.snapshot()
        latency = snap["endpoints"]["x://count"]["latency_ms"]
        assert set(latency) == {"mean", "p50", "p95", "p99", "max"}
        assert latency["max"] >= latency["p50"] >= 0.0

    def test_render_is_a_table(self, counting_registry):
        registry, _ = counting_registry
        engine = ExecutionEngine(registry)
        engine.execute("x://count", ProviderRequest())
        engine.execute("x://count", ProviderRequest())
        text = engine.stats.render()
        assert "x://count" in text
        assert "TOTAL" in text

    def test_truncation_recorded_when_limit_filled(self):
        registry = EndpointRegistry()
        registry.register("x://big", CountingEndpoint(ids=("a", "b", "c")))
        engine = ExecutionEngine(registry)
        engine.execute(
            "x://big", ProviderRequest(context=RequestContext(limit=3))
        )
        assert engine.stats.endpoint("x://big").truncations == 1
        assert engine.stats.total("truncations") == 1

    def test_reset(self, counting_registry):
        registry, _ = counting_registry
        engine = ExecutionEngine(registry)
        engine.execute("x://count", ProviderRequest())
        engine.stats.reset()
        assert engine.stats.total("calls") == 0

    def test_count_rejects_an_unknown_counter(self):
        stats = ExecutionStats()
        with pytest.raises(KeyError):
            stats.count("cache_hit", "x://count")
        assert "engine_cache_hit_total" not in stats.metrics.collect()


class TestEndToEndDeduplication:
    """The acceptance bar: unchanged catalog ⇒ zero duplicate fetches."""

    def test_repeated_overview_zero_duplicate_invocations(self, tiny_app):
        tiny_app.interface.overview_tabs(user_id="u-ann")
        calls_after_first = tiny_app.stats.total("calls")
        assert calls_after_first > 0
        second = tiny_app.interface.overview_tabs(user_id="u-ann")
        assert tiny_app.stats.total("calls") == calls_after_first
        assert [t.provider_name for t in second]  # still fully generated

    def test_repeated_query_zero_duplicate_invocations(self, tiny_app):
        first = tiny_app.interface.search("badged: endorsed & type: table")
        calls_after_first = tiny_app.stats.total("calls")
        second = tiny_app.interface.search("badged: endorsed & type: table")
        assert tiny_app.stats.total("calls") == calls_after_first
        assert first[0].artifact_ids() == second[0].artifact_ids()

    def test_duplicate_subquery_fetches_once_within_search(self, tiny_app):
        tiny_app.interface.search("badged: endorsed | badged: endorsed")
        endpoint_stats = tiny_app.stats.endpoint("catalog://badged")
        assert endpoint_stats.calls == 1

    def test_mutation_invalidates_between_overviews(self, tiny_app):
        tiny_app.interface.overview_tabs(user_id="u-ann")
        calls_after_first = tiny_app.stats.total("calls")
        tiny_app.store.grant_badge("t-web", "endorsed", "u-ann")
        tiny_app.interface.overview_tabs(user_id="u-ann")
        assert tiny_app.stats.total("calls") > calls_after_first

    def test_parallel_overview_matches_serial_content(self, tiny_store):
        """Parallel fan-out must not change what the UI shows: a serial
        engine (one worker) and the default parallel one generate
        identical tabs."""
        parallel_app = WorkbookApp(tiny_store)
        serial_app = WorkbookApp(
            tiny_store,
            policy=ExecutionPolicy.defaults().replace(max_workers=1),
        )
        parallel = [
            (tab.provider_name, tab.view.artifact_ids())
            for tab in parallel_app.interface.overview_tabs(user_id="u-ann")
        ]
        serial = [
            (tab.provider_name, tab.view.artifact_ids())
            for tab in serial_app.interface.overview_tabs(user_id="u-ann")
        ]
        assert parallel == serial
        assert parallel  # non-degenerate


class TestSearchTruncationSignal:
    def test_truncated_flag_set_when_limit_filled(self, tiny_app):
        evaluator = tiny_app.interface.evaluator
        original = evaluator.fetch_limit
        try:
            evaluator.fetch_limit = 2
            result = tiny_app.interface.search("type: table")[0]
            assert result.truncated
            assert tiny_app.stats.total("truncations") > 0
        finally:
            evaluator.fetch_limit = original

    def test_not_truncated_by_default(self, tiny_app):
        result = tiny_app.interface.search("type: table")[0]
        assert not result.truncated


class TestIsEmptyRegression:
    def test_graph_with_edges_is_not_empty(self):
        """A nodes+edges graph where only ``nodes`` was checked used to be
        inconsistent with ``validate``; edges now count as payload."""
        from repro.providers.base import GraphEdge

        result = ProviderResult(
            representation=Representation.GRAPH,
            nodes=("a", "b"),
            edges=(GraphEdge("a", "b", "joins"),),
        )
        assert not result.is_empty()
        assert result.payload_size() == 2

    def test_empty_graph_is_empty(self):
        result = ProviderResult(representation=Representation.GRAPH)
        assert result.is_empty()

    def test_list_payload_size(self):
        result = list_result([ScoredArtifact("a"), ScoredArtifact("b")])
        assert not result.is_empty()
        assert result.payload_size() == 2


class TestTokenCache:
    def test_cached_tokens_match_fresh_tokenize(self, tiny_store):
        from repro.util.textutil import tokenize

        artifact = tiny_store.artifact("t-orders")
        name_tokens, text_tokens = tiny_store.artifact_tokens("t-orders")
        assert name_tokens == frozenset(tokenize(artifact.name))
        assert text_tokens == frozenset(tokenize(artifact.searchable_text()))
        # second call returns the memo (same object)
        again = tiny_store.artifact_tokens("t-orders")
        assert again[0] is name_tokens

    def test_mutation_invalidates_token_cache(self, tiny_store):
        from repro.util.textutil import tokenize

        before = tiny_store.artifact_tokens("t-orders")
        tiny_store.grant_badge("t-orders", "golden", "u-ann")
        after = tiny_store.artifact_tokens("t-orders")
        # the memo entry was dropped and rebuilt from the new revision
        assert after[0] is not before[0]
        fresh = tiny_store.artifact("t-orders")
        assert after[1] == frozenset(tokenize(fresh.searchable_text()))

    def test_version_counter_monotonic(self, tiny_store):
        before = tiny_store.version
        tiny_store.add_user(User(id="u-new", name="New User"))
        tiny_store.add_artifact(
            Artifact(id="a-new", name="NEW_TABLE", artifact_type="table",
                     owner_id="u-new", created_at=1.0)
        )
        tiny_store.record("a-new", "u-new", "view")
        assert tiny_store.version == before + 3


class TestStatsSnapshotImmutability:
    """``ExecutionStats.endpoint`` hands out a frozen snapshot, not the
    live mutable record (callers used to be able to corrupt counters)."""

    def test_snapshot_is_detached_from_later_activity(self, counting_registry):
        registry, _ = counting_registry
        engine = ExecutionEngine(registry)
        engine.execute("x://count", ProviderRequest())
        snap = engine.stats.endpoint("x://count")
        assert snap.calls == 1
        engine.execute("x://count", ProviderRequest(
            context=RequestContext(limit=3)
        ))
        assert snap.calls == 1  # not a live view
        assert engine.stats.endpoint("x://count").calls == 2

    def test_snapshot_rejects_mutation(self, counting_registry):
        registry, _ = counting_registry
        engine = ExecutionEngine(registry)
        engine.execute("x://count", ProviderRequest())
        snap = engine.stats.endpoint("x://count")
        with pytest.raises(AttributeError):
            snap.calls = 99
        assert engine.stats.endpoint("x://count").calls == 1

    def test_snapshot_latencies_are_a_tuple_copy(self, counting_registry):
        registry, _ = counting_registry
        engine = ExecutionEngine(registry)
        engine.execute("x://count", ProviderRequest())
        snap = engine.stats.endpoint("x://count")
        assert isinstance(snap.latencies_ms, tuple)
        assert len(snap.latencies_ms) == 1
        summary = snap.latency_summary()
        assert summary["max"] >= summary["p50"] >= 0.0

    def test_unknown_endpoint_snapshot_is_zeroed(self, counting_registry):
        registry, _ = counting_registry
        engine = ExecutionEngine(registry)
        snap = engine.stats.endpoint("x://never-fetched")
        assert snap.calls == 0 and snap.latencies_ms == ()


class TestBatchDedupCounting:
    """In-batch duplicates of a *pending miss* are dedups, not cache
    hits — counting them as hits used to inflate cache_hit_rate."""

    def test_duplicate_of_pending_miss_counts_as_dedup(self, counting_registry):
        registry, endpoint = counting_registry
        engine = ExecutionEngine(registry)
        engine.execute_many([("x://count", ProviderRequest())] * 3)
        assert endpoint.calls == 1
        assert engine.stats.total("cache_misses") == 1
        assert engine.stats.total("cache_hits") == 0
        assert engine.stats.total("dedups") == 2
        assert engine.stats.endpoint("x://count").dedups == 2

    def test_duplicate_of_cached_hit_still_counts_as_hit(self, counting_registry):
        registry, endpoint = counting_registry
        engine = ExecutionEngine(registry)
        engine.execute("x://count", ProviderRequest())  # prime the cache
        engine.execute_many([("x://count", ProviderRequest())] * 2)
        assert endpoint.calls == 1
        assert engine.stats.total("cache_hits") == 2
        assert engine.stats.total("dedups") == 0

    def test_hit_rate_unpolluted_by_batch_duplicates(self, counting_registry):
        registry, _ = counting_registry
        engine = ExecutionEngine(registry)
        engine.execute_many([("x://count", ProviderRequest())] * 10)
        assert engine.stats.cache_hit_rate == 0.0


def _exec_threads():
    """Live executor thread *objects* (names repeat across pools)."""
    return {
        t for t in threading.enumerate()
        if t.name.startswith("humboldt-exec")
    }


class TestEngineLifecycle:
    def test_close_joins_worker_threads(self):
        registry = EndpointRegistry()
        for index in range(4):
            registry.register(f"x://t{index}", CountingEndpoint())
        before = _exec_threads()
        engine = ExecutionEngine(registry)
        engine.execute_many(
            [(f"x://t{index}", ProviderRequest()) for index in range(4)]
        )
        spawned = _exec_threads() - before
        assert spawned  # pool actually spun up
        engine.close()
        assert all(not t.is_alive() for t in spawned)

    def test_close_is_idempotent_and_allows_reuse(self, counting_registry):
        registry, endpoint = counting_registry
        engine = ExecutionEngine(registry)
        engine.close()
        engine.close()
        # fetches after close still work (pool recreated on demand)
        engine.execute("x://count", ProviderRequest())
        assert endpoint.calls == 1
        engine.close()

    def test_context_manager_closes(self):
        registry = EndpointRegistry()
        for index in range(4):
            registry.register(f"x://t{index}", CountingEndpoint())
        before = _exec_threads()
        with ExecutionEngine(registry) as engine:
            engine.execute_many(
                [(f"x://t{index}", ProviderRequest()) for index in range(4)]
            )
        assert all(not t.is_alive() for t in _exec_threads() - before)

    def test_workbook_app_context_manager_closes_engine(self, tiny_store):
        before = _exec_threads()
        with WorkbookApp(tiny_store) as app:
            app.interface.overview_tabs(user_id="u-ann")
        assert all(not t.is_alive() for t in _exec_threads() - before)


def _clock_engine(registry, policy=None):
    """An engine whose time only moves when an endpoint/backoff says so."""
    clock = SimulationClock()
    engine = ExecutionEngine(registry, policy=policy, clock=clock)
    return engine, clock


#: Names that are not policy fields: the engine's fixed retry, cache,
#: stale, breaker and deadline settings, and the group names.
REMOVED_KNOBS = (
    "backoff_base_ms", "backoff_multiplier", "backoff_jitter",
    "cache_max_entries", "serve_stale", "stale_grace_s",
    "breaker_reset_timeout_s", "breaker_half_open_max_calls",
    "deadline_budget_ms", "retry", "cache", "breaker", "deadline",
)


class TestRemovedFlatPolicyConstructor:
    """The policy is five flat fields.  The knobs that became constants,
    and the groups that held them, are gone from both the constructor
    and ``replace``."""

    def test_flat_kwargs_raise_type_error(self):
        for name in REMOVED_KNOBS:
            with pytest.raises(TypeError):
                ExecutionPolicy(**{name: 1})
            with pytest.raises(TypeError):
                ExecutionPolicy.defaults().replace(**{name: 1})

    def test_layered_spelling_replaces_the_shim(self):
        policy = ExecutionPolicy.defaults().replace(
            attempts=3, cache_ttl_s=60.0
        )
        assert policy.attempts == 3
        assert policy.cache_ttl_s == 60.0

    def test_canonical_construction_does_not_warn(self, recwarn):
        ExecutionPolicy.defaults().replace(attempts=2, cache_ttl_s=5.0)
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]

    def test_execute_reports_failure_as_outcome(self, counting_registry):
        registry, _ = counting_registry
        registry.register(
            "x://down",
            FlakyEndpoint(CountingEndpoint(), fail_on=lambda i: True,
                          name="down"),
        )
        engine = ExecutionEngine(registry)
        result = engine.execute("x://count", ProviderRequest()).result
        assert result.artifact_ids() == ["a-1", "a-2"]
        down = engine.execute("x://down", ProviderRequest())
        assert down.status is FetchStatus.ERROR
        assert isinstance(down.error, ProviderError)

    def test_no_flat_construction_left_anywhere(self):
        """No module under src/ (execution.py aside) constructs a policy;
        everything goes through defaults().replace."""
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        offenders = [
            str(path)
            for path in src.rglob("*.py")
            if path.name != "execution.py"
            and "ExecutionPolicy(" in path.read_text(encoding="utf-8")
        ]
        assert offenders == []

    def test_no_deprecation_shim_left_in_execution_module(self):
        """The shim's DeprecationWarning machinery is fully removed."""
        import repro.providers.execution as execution

        source = Path(execution.__file__).read_text(encoding="utf-8")
        assert "DeprecationWarning" not in source
        assert "import warnings" not in source


class TestFixedPolicyAndLazyBreakers:
    """An engine's policy is fixed when it is built, and an endpoint gets
    a circuit breaker only on its first failure that counts."""

    def test_assigning_policy_raises(self, counting_registry):
        registry, _ = counting_registry
        engine = ExecutionEngine(registry)
        with pytest.raises(AttributeError):
            engine.policy = ExecutionPolicy.defaults().replace(attempts=2)
        assert engine.policy is ExecutionPolicy.defaults()

    def test_successful_misses_create_no_breaker(self, counting_registry):
        registry, endpoint = counting_registry
        engine = ExecutionEngine(
            registry, policy=ExecutionPolicy.defaults().replace(cache_ttl_s=0)
        )
        for _ in range(5):
            assert engine.execute("x://count", ProviderRequest()).fresh
        engine.execute_many([
            ("x://count", ProviderRequest(context=RequestContext(user_id=u)))
            for u in ("u-1", "u-2")
        ])
        assert endpoint.calls == 7
        assert engine._breakers == {}
        assert engine.breaker_state("x://count") is BreakerState.CLOSED
        engine.close()

    def test_caller_error_creates_no_breaker(self):
        def needs_team(request):
            raise MissingInputError("x://team", "team_id")

        registry = EndpointRegistry()
        registry.register("x://team", needs_team)
        engine = ExecutionEngine(registry)
        for _ in range(3):
            outcome = engine.execute("x://team", ProviderRequest())
            assert isinstance(outcome.error, MissingInputError)
        assert engine._breakers == {}

    def test_first_counted_failure_creates_one_breaker(self):
        registry = EndpointRegistry()
        registry.register("x://down", FlakyEndpoint(
            CountingEndpoint(), fail_on=lambda i: True, name="down"
        ))
        registry.register("x://count", CountingEndpoint())
        engine = ExecutionEngine(registry)
        engine.execute("x://count", ProviderRequest())
        assert engine.execute(
            "x://down", ProviderRequest()
        ).status is FetchStatus.ERROR
        assert list(engine._breakers) == ["x://down"]
        breaker = engine._breakers["x://down"]
        assert breaker.consecutive_failures == 1
        assert breaker.state is BreakerState.CLOSED
        engine.execute("x://down", ProviderRequest())
        assert engine._breakers == {"x://down": breaker}
        assert breaker.consecutive_failures == 2


class TestLayeredPolicyApi:
    def test_defaults_is_a_shared_singleton(self):
        assert ExecutionPolicy.defaults() is ExecutionPolicy.defaults()

    def test_replace_accepts_the_five_knobs_only(self):
        changed = ExecutionPolicy.defaults().replace(
            attempts=4, cache_ttl_s=1.0, breaker_enabled=False,
            breaker_failure_threshold=2, max_workers=1,
        )
        assert changed == ExecutionPolicy(
            attempts=4, cache_ttl_s=1.0, breaker_enabled=False,
            breaker_failure_threshold=2, max_workers=1,
        )
        with pytest.raises(TypeError):
            ExecutionPolicy.defaults().replace(atempts=3)

    def test_replace_returns_new_frozen_instance(self):
        base = ExecutionPolicy.defaults()
        changed = base.replace(cache_ttl_s=1.0)
        assert changed is not base
        assert base.cache_ttl_s == 300.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            changed.max_workers = 2

    def test_group_validation(self):
        """The policy validates its counts, constructed or replaced."""
        with pytest.raises(ValueError):
            ExecutionPolicy(attempts=0)
        with pytest.raises(ValueError):
            ExecutionPolicy.defaults().replace(attempts=0)
        with pytest.raises(ValueError):
            ExecutionPolicy(breaker_failure_threshold=0)
        with pytest.raises(ValueError):
            ExecutionPolicy.defaults().replace(breaker_failure_threshold=0)


class TestPolicyKnobTable:
    """``docs/execution.md`` lists every settable policy value."""

    @staticmethod
    def _documented() -> dict[str, object]:
        doc = Path(__file__).resolve().parent.parent / "docs" / "execution.md"
        section = doc.read_text(encoding="utf-8").split(
            "## The policy API", 1
        )[1].split("\n## ", 1)[0]
        return {
            name: ast.literal_eval(default)
            for name, default in re.findall(
                r"^\| `(\w+)` \| `([^`]+)` \| .+ \|$", section, re.MULTILINE
            )
        }

    def test_table_names_every_knob_with_its_field_and_default(self):
        expected = {
            field.name: field.default
            for field in dataclasses.fields(ExecutionPolicy)
        }
        assert list(expected) == [
            "attempts", "cache_ttl_s", "breaker_enabled",
            "breaker_failure_threshold", "max_workers",
        ]
        documented = self._documented()
        assert documented == expected
        for knob, value in expected.items():
            assert type(documented[knob]) is type(value), knob


class TestRegistrationTable:
    """``docs/execution.md`` lists every :class:`Registration` field with
    where it is declared and what its absence means."""

    #: One sample declaration per optional field, as a decorator or a
    #: ``register`` keyword receives it.
    SAMPLES = {
        "dependencies": ("usage",),
        "estimator": lambda request: 1,
        "patcher": lambda request, result, records: result,
        "context": ("limit",),
    }

    @staticmethod
    def _documented() -> list[tuple[str, ...]]:
        doc = Path(__file__).resolve().parent.parent / "docs" / "execution.md"
        section = doc.read_text(encoding="utf-8").split(
            "### Registration records", 1
        )[1].split("\n### ", 1)[0]
        return [
            tuple(cell.strip() for cell in match.groups())
            for match in re.finditer(
                r"^\| `(\w+)` \|([^|]+)\|([^|]+)\|([^|]+)\|([^|]+)\|$",
                section,
                re.MULTILINE,
            )
        ]

    def test_rows_are_the_record_fields_in_order(self):
        from repro.providers.registry import Registration

        names = [row[0] for row in self._documented()]
        assert names == [f.name for f in dataclasses.fields(Registration)]

    def test_absent_column_states_each_default(self):
        from repro.providers.registry import Registration

        defaults = {
            f.name: f.default for f in dataclasses.fields(Registration)
        }
        for name, _, _, _, absent in self._documented():
            if defaults[name] is dataclasses.MISSING:
                assert absent.startswith("required"), name
            else:
                assert absent.startswith(f"`{defaults[name]!r}`:"), name

    def test_decorator_and_kwarg_columns_set_the_field(self):
        import inspect

        from repro.providers import base

        kwargs = inspect.signature(EndpointRegistry.register).parameters
        for name, decorator, kwarg, _, _ in self._documented():
            if kwarg == "—":
                continue
            assert kwarg == f"`{name}`" and name in kwargs, name
            if name == "endpoint":
                continue
            sample = self.SAMPLES[name]
            registry = EndpointRegistry()
            registry.register("x://kwarg", CountingEndpoint(), **{name: sample})
            assert getattr(registry.registration("x://kwarg"), name), name
            assert decorator.startswith("`@"), name
            decorate = getattr(base, decorator.strip("`@"))
            wrap = (
                decorate(*sample) if isinstance(sample, tuple)
                else decorate(sample)
            )
            registry.register("x://decorated", wrap(CountingEndpoint()))
            assert getattr(registry.registration("x://decorated"), name), name

    def test_spec_key_column_names_provider_spec_fields(self):
        from repro.core.spec.model import ProviderSpec

        spec_fields = {f.name for f in dataclasses.fields(ProviderSpec)}
        keys = {
            name: key.strip("`")
            for name, _, _, key, _ in self._documented() if key != "—"
        }
        assert keys == {
            "endpoint": "endpoint", "spec_dependencies": "dependencies",
        }
        assert set(keys.values()) <= spec_fields


class TestCircuitBreaker:
    """The breaker state machine, driven by a simulation clock."""

    def _registry(self, fail_count=100):
        registry = EndpointRegistry()
        inner = CountingEndpoint()
        failing = FailNTimesEndpoint(inner, fail_count=fail_count,
                                     name="fail-n")
        registry.register("x://shaky", failing)
        return registry, failing

    def _policy(self, **knobs):
        return ExecutionPolicy.defaults().replace(
            cache_ttl_s=0, breaker_failure_threshold=3, **knobs
        )

    def test_opens_after_consecutive_failures(self):
        registry, failing = self._registry()
        engine, _ = _clock_engine(registry, self._policy())
        for _ in range(3):
            outcome = engine.execute("x://shaky", ProviderRequest())
            assert outcome.status is FetchStatus.ERROR
        assert engine.breaker_state("x://shaky") is BreakerState.OPEN
        assert engine.stats.total("breaker_opens") == 1

    def test_open_breaker_skips_without_invoking(self):
        registry, failing = self._registry()
        engine, _ = _clock_engine(registry, self._policy())
        for _ in range(3):
            engine.execute("x://shaky", ProviderRequest())
        outcome = engine.execute("x://shaky", ProviderRequest())
        assert outcome.skipped and not outcome.ok
        assert isinstance(outcome.error, CircuitOpenError)
        assert failing.calls == 3  # the rejected fetch never ran
        assert engine.stats.total("breaker_rejections") == 1

    def test_half_open_probe_success_closes(self):
        registry, failing = self._registry(fail_count=3)
        engine, clock = _clock_engine(registry, self._policy())
        for _ in range(3):
            engine.execute("x://shaky", ProviderRequest())
        assert engine.breaker_state("x://shaky") is BreakerState.OPEN
        clock.advance(seconds=29.9)
        assert engine.execute("x://shaky", ProviderRequest()).skipped
        assert failing.calls == 3
        clock.advance(seconds=0.1)  # 30 s after the trip: one probe
        outcome = engine.execute("x://shaky", ProviderRequest())
        assert outcome.fresh  # the endpoint recovered on call 4
        assert engine.breaker_state("x://shaky") is BreakerState.CLOSED

    def test_half_open_probe_failure_reopens(self):
        registry, failing = self._registry(fail_count=100)
        engine, clock = _clock_engine(registry, self._policy())
        for _ in range(3):
            engine.execute("x://shaky", ProviderRequest())
        clock.advance(seconds=30.0)
        probe = engine.execute("x://shaky", ProviderRequest())
        assert probe.status is FetchStatus.ERROR  # probe ran and failed
        assert engine.breaker_state("x://shaky") is BreakerState.OPEN
        rejected = engine.execute("x://shaky", ProviderRequest())
        assert rejected.skipped
        assert failing.calls == 4
        assert engine.stats.total("breaker_opens") == 2

    def test_success_resets_failure_streak(self):
        registry = EndpointRegistry()
        inner = CountingEndpoint()
        # fail, fail, succeed, repeatedly: never 3 consecutive failures
        flaky = FlakyEndpoint(inner, fail_on=lambda i: i % 3 != 0,
                              name="flaky")
        registry.register("x://shaky", flaky)
        engine, _ = _clock_engine(registry, self._policy())
        for _ in range(9):
            engine.execute("x://shaky", ProviderRequest())
        assert engine.breaker_state("x://shaky") is BreakerState.CLOSED
        assert engine.stats.total("breaker_rejections") == 0

    def test_disabled_breaker_never_rejects(self):
        registry, failing = self._registry()
        engine, _ = _clock_engine(
            registry, self._policy(breaker_enabled=False)
        )
        for _ in range(10):
            outcome = engine.execute("x://shaky", ProviderRequest())
            assert outcome.status is FetchStatus.ERROR
        assert failing.calls == 10
        assert engine.breaker_state("x://shaky") is BreakerState.CLOSED

    def test_threshold_applies_to_every_endpoint(self):
        registry, _ = self._registry()
        registry.register(
            "x://other",
            FailNTimesEndpoint(CountingEndpoint(), fail_count=100,
                               name="other"),
        )
        engine, _ = _clock_engine(registry, self._policy())
        for endpoint in ("x://shaky", "x://other"):
            for _ in range(3):
                engine.execute(endpoint, ProviderRequest())
            assert engine.breaker_state(endpoint) is BreakerState.OPEN

    @pytest.mark.parametrize("many", [False, True], ids=["execute", "execute_many"])
    def test_unexpected_probe_error_does_not_wedge_half_open(self, many):
        """A half-open probe that raises something other than a
        ``HumboldtError`` (a provider bug) still reaches the caller, and
        counts as a failed probe: the breaker re-opens, and after the
        next reset timeout a fetch of the recovered endpoint is let
        through again."""
        mode = ["down"]

        def wedge(request):
            if mode[0] == "down":
                raise ProviderError("x://wedge", "outage")
            if mode[0] == "bug":
                raise KeyError("bug")
            return list_result([ScoredArtifact("a-1")])

        registry = EndpointRegistry()
        registry.register("x://wedge", wedge)
        engine, clock = _clock_engine(
            registry,
            ExecutionPolicy.defaults().replace(
                cache_ttl_s=0, breaker_failure_threshold=1
            ),
        )

        def fetch():
            if many:
                return engine.execute_many([("x://wedge", ProviderRequest())])[0]
            return engine.execute("x://wedge", ProviderRequest())

        assert fetch().status is FetchStatus.ERROR
        assert engine.breaker_state("x://wedge") is BreakerState.OPEN
        clock.advance(seconds=BREAKER_RESET_TIMEOUT_S)
        mode[0] = "bug"
        with pytest.raises(KeyError):
            fetch()
        assert engine.breaker_state("x://wedge") is BreakerState.OPEN
        mode[0] = "up"
        assert fetch().skipped  # the re-opened breaker waits again
        clock.advance(seconds=BREAKER_RESET_TIMEOUT_S)
        outcome = fetch()
        assert outcome.fresh, outcome.reason
        assert outcome.result.artifact_ids() == ["a-1"]
        assert engine.breaker_state("x://wedge") is BreakerState.CLOSED
        assert fetch().fresh


#: The default cache TTL the stale-while-revalidate tests expire past.
TTL_S = ExecutionPolicy.defaults().cache_ttl_s


class TestStaleWhileRevalidate:
    def _warmed_engine(self, policy=None):
        """Engine + clock with x://wobbly warmed once, then failing."""
        registry = EndpointRegistry()
        wobbly = FlakyEndpoint(CountingEndpoint(), fail_on=lambda i: i > 1,
                               name="wobbly")
        registry.register("x://wobbly", wobbly)
        policy = policy or ExecutionPolicy.defaults().replace(
            breaker_failure_threshold=3
        )
        engine, clock = _clock_engine(registry, policy)
        assert engine.execute("x://wobbly", ProviderRequest()).fresh
        return engine, clock, wobbly

    def test_open_breaker_serves_marked_stale(self):
        engine, clock, wobbly = self._warmed_engine()
        clock.advance(seconds=TTL_S + 1)  # expire, in grace
        for _ in range(3):
            assert engine.execute(
                "x://wobbly", ProviderRequest()
            ).status is FetchStatus.ERROR
        outcome = engine.execute("x://wobbly", ProviderRequest())
        assert outcome.stale and outcome.ok and outcome.degraded
        assert outcome.result.artifact_ids() == ["a-1", "a-2"]
        assert "circuit open" in outcome.reason
        assert "past TTL" in outcome.reason
        assert engine.stats.total("stale_served") == 1
        assert wobbly.calls == 4  # stale serve did not invoke

    def test_exhausted_deadline_serves_marked_stale(self):
        engine, clock, wobbly = self._warmed_engine()
        clock.advance(seconds=TTL_S + 1)
        deadline = engine.deadline(budget_ms=50.0)
        clock.advance(seconds=1.0)  # spend the whole budget
        outcome = engine.execute(
            "x://wobbly", ProviderRequest(), deadline=deadline
        )
        assert outcome.stale
        assert "deadline exhausted" in outcome.reason
        assert engine.stats.total("deadline_skips") == 1
        assert wobbly.calls == 1

    def test_no_fallback_past_grace_period(self):
        """An entry stays servable as stale until 900 s past its TTL."""
        engine, clock, wobbly = self._warmed_engine()
        clock.advance(seconds=TTL_S + 900 - 1)
        for _ in range(3):
            engine.execute("x://wobbly", ProviderRequest())
        assert engine.execute("x://wobbly", ProviderRequest()).stale
        clock.advance(seconds=1)  # the breaker is still open
        outcome = engine.execute("x://wobbly", ProviderRequest())
        assert outcome.skipped and outcome.result is None
        assert isinstance(outcome.error, CircuitOpenError)
        assert engine.cache_size == 0

    def test_serve_stale_can_be_disabled(self):
        """Stale serving has no switch of its own: with caching off
        there is no entry to serve."""
        policy = ExecutionPolicy.defaults().replace(
            cache_ttl_s=0, breaker_failure_threshold=3
        )
        engine, clock, _ = self._warmed_engine(policy)
        clock.advance(seconds=TTL_S + 1)
        for _ in range(3):
            engine.execute("x://wobbly", ProviderRequest())
        outcome = engine.execute("x://wobbly", ProviderRequest())
        assert outcome.skipped and outcome.result is None

    def test_stale_result_is_not_rememoised_as_fresh(self):
        engine, clock, wobbly = self._warmed_engine()
        clock.advance(seconds=TTL_S + 1)
        for _ in range(3):
            engine.execute("x://wobbly", ProviderRequest())
        assert engine.execute("x://wobbly", ProviderRequest()).stale
        # still stale on the next serve — the grace entry did not get a
        # fresh TTL stamped by being served
        assert engine.execute("x://wobbly", ProviderRequest()).stale
        assert engine.stats.total("stale_served") == 2

    def test_fresh_hit_ignores_deadline(self):
        engine, clock, wobbly = self._warmed_engine()
        deadline = engine.deadline(budget_ms=10.0)
        clock.advance(seconds=5.0)  # deadline spent, entry still fresh
        outcome = engine.execute(
            "x://wobbly", ProviderRequest(), deadline=deadline
        )
        assert outcome.fresh
        assert wobbly.calls == 1


class TestDeadlineBudget:
    def test_no_budget_means_no_deadline(self, counting_registry):
        """There is no default budget: only a caller's budget makes one."""
        registry, _ = counting_registry
        engine, _ = _clock_engine(registry)
        assert engine.deadline() is None
        assert engine.deadline(None) is None
        assert engine.deadline(0) is None
        assert engine.deadline(-5) is None
        assert engine.deadline(80.0).budget_ms == 80.0

    def test_default_budget_comes_from_policy(self, counting_registry):
        """The policy holds no budget, so no policy, default or changed,
        makes a deadline when the caller gives none."""
        registry, _ = counting_registry
        assert "deadline_budget_ms" not in {
            field.name for field in dataclasses.fields(ExecutionPolicy)
        }
        with pytest.raises(TypeError):
            ExecutionPolicy.defaults().replace(deadline_budget_ms=80.0)
        engine, _ = _clock_engine(
            registry,
            ExecutionPolicy.defaults().replace(
                attempts=1, cache_ttl_s=1.0, max_workers=1
            ),
        )
        assert engine.deadline() is None
        assert engine.deadline(80.0).budget_ms == 80.0

    def test_expired_deadline_skips_without_invoking(self, counting_registry):
        registry, endpoint = counting_registry
        engine, clock = _clock_engine(registry)
        deadline = engine.deadline(budget_ms=50.0)
        clock.advance(seconds=0.1)
        outcome = engine.execute(
            "x://count", ProviderRequest(), deadline=deadline
        )
        assert outcome.skipped
        assert isinstance(outcome.error, DeadlineExceededError)
        assert endpoint.calls == 0
        assert engine.stats.total("deadline_skips") == 1

    def test_batch_stops_attempting_once_budget_spent(self):
        registry = EndpointRegistry()
        clock = SimulationClock()
        endpoints = []
        for index in range(3):
            endpoint = FlakyEndpoint(CountingEndpoint(ids=(f"id-{index}",)),
                                     fail_on=set())
            # each call costs 100ms of simulated time
            from repro.providers.faults import LatencySpikeEndpoint

            spiky = LatencySpikeEndpoint(endpoint, clock, [100.0])
            registry.register(f"x://p{index}", spiky)
            endpoints.append(spiky)
        engine = ExecutionEngine(
            registry,
            policy=ExecutionPolicy.defaults().replace(max_workers=1),
            clock=clock,
        )
        deadline = engine.deadline(budget_ms=150.0)
        outcomes = engine.execute_many(
            [(f"x://p{index}", ProviderRequest()) for index in range(3)],
            deadline=deadline,
        )
        assert [o.status for o in outcomes] == [
            FetchStatus.OK, FetchStatus.OK, FetchStatus.SKIPPED,
        ]
        assert endpoints[2].calls == 0

    def test_retry_stops_at_the_deadline(self):
        registry = EndpointRegistry()
        clock = SimulationClock()

        class CostlyFailure:
            calls = 0

            def __call__(self, request):
                self.calls += 1
                clock.advance(seconds=0.08)  # each attempt costs 80ms
                raise ProviderError("costly", "always down")

        costly = CostlyFailure()
        registry.register("x://costly", costly)
        engine = ExecutionEngine(
            registry,
            policy=ExecutionPolicy.defaults().replace(attempts=5),
            clock=clock,
        )
        deadline = engine.deadline(budget_ms=120.0)
        outcome = engine.execute(
            "x://costly", ProviderRequest(), deadline=deadline
        )
        assert outcome.status is FetchStatus.ERROR
        # attempt 1 at 80ms; 25ms backoff; attempt 2 at 185ms is past the
        # deadline, so attempts 3-5 never happen
        assert costly.calls == 2

    def test_backoff_sleep_capped_to_remaining_budget(self):
        registry = EndpointRegistry()
        flaky = FlakyEndpoint(CountingEndpoint(), fail_on={1}, name="flaky")
        registry.register("x://flaky", flaky)
        clock = RecordingClock()
        engine = ExecutionEngine(
            registry,
            policy=ExecutionPolicy.defaults().replace(attempts=3),
            clock=clock,
        )
        deadline = engine.deadline(budget_ms=10.0)
        outcome = engine.execute(
            "x://flaky", ProviderRequest(), deadline=deadline
        )
        assert outcome.fresh
        # 25 ms wanted, 10 ms left
        assert clock.advances == [pytest.approx(0.01)]


class TestHealthSurface:
    def test_health_reports_breaker_and_counters(self):
        registry = EndpointRegistry()
        registry.register(
            "x://down",
            FlakyEndpoint(CountingEndpoint(), fail_on=lambda i: True,
                          name="down"),
        )
        engine, _ = _clock_engine(
            registry,
            ExecutionPolicy.defaults().replace(breaker_failure_threshold=2),
        )
        for _ in range(3):
            engine.execute("x://down", ProviderRequest())
        health = engine.health()
        entry = health["x://down"]
        assert entry["breaker"] == "open"
        assert entry["breaker_rejections"] == 1
        text = engine.render_health()
        assert "x://down" in text and "open" in text

    def test_stats_render_includes_resilience_columns(self, counting_registry):
        registry, _ = counting_registry
        engine = ExecutionEngine(registry)
        engine.execute("x://count", ProviderRequest())
        text = engine.stats.render()
        assert "stale" in text and "dskip" in text and "brej" in text
