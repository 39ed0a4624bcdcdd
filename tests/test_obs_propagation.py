"""Trace propagation across the serving stack's thread boundaries.

The observability subsystem's hard cases are where a request hops
threads: ``execute_many`` hands work to engine pool workers and a
federated search fans out through member engines running their own evaluators.
These tests pin that every such hop lands in the caller's trace — and
that the degraded arms (deadline expiry, open breaker) annotate their
spans rather than dropping them.
"""

from __future__ import annotations

import pytest

from repro.obs import RingBufferExporter, Tracer
from repro.providers.base import (
    ProviderRequest,
    ScoredArtifact,
    list_result,
)
from repro.providers.execution import (
    ExecutionEngine,
    ExecutionPolicy,
    FetchStatus,
)
from repro.providers.faults import FailNTimesEndpoint
from repro.providers.registry import EndpointRegistry
from repro.synth import SynthConfig, generate_catalog
from repro.util.clock import SimulationClock


class CountingEndpoint:
    def __init__(self, ids=("a-1",)):
        self.calls = 0
        self._ids = tuple(ids)

    def __call__(self, request):
        self.calls += 1
        return list_result([ScoredArtifact(aid) for aid in self._ids])


def traced_engine(registry, **kwargs):
    engine = ExecutionEngine(registry, **kwargs)
    ring = RingBufferExporter()
    engine.enable_tracing(ring)
    return engine, ring


def by_name(ring):
    spans = {}
    for span in ring.spans():
        spans.setdefault(span.name, []).append(span)
    return spans


class TestPoolWorkerPropagation:
    def test_execute_many_fetches_parent_under_the_batch_span(self):
        registry = EndpointRegistry()
        for i in range(4):
            registry.register(f"x://p{i}", CountingEndpoint())
        engine, ring = traced_engine(
            registry,
            policy=ExecutionPolicy.defaults().replace(max_workers=4),
        )
        calls = [(f"x://p{i}", ProviderRequest()) for i in range(4)]
        outcomes = engine.execute_many(calls)
        assert all(o.status is FetchStatus.OK for o in outcomes)

        spans = by_name(ring)
        (batch,) = spans["engine.execute_many"]
        fetches = spans["engine.fetch"]
        assert len(fetches) == 4
        # Pool workers adopted the caller's context: every fetch span —
        # though finished on a different thread — is in the batch's
        # trace, parented directly under the batch span.
        for fetch in fetches:
            assert fetch.trace_id == batch.trace_id
            assert fetch.parent_id == batch.span_id
            assert fetch.attrs["outcome"] == "ok"
        invokes = spans["provider.invoke"]
        assert {s.parent_id for s in invokes} == {
            f.span_id for f in fetches
        }
        assert batch.attrs["ran"] == 4
        engine.close()

    def test_batch_nests_under_an_ambient_caller_span(self):
        registry = EndpointRegistry()
        registry.register("x://p", CountingEndpoint())
        engine, ring = traced_engine(registry)
        with engine.tracer.span("request") as req:
            engine.execute_many([("x://p", ProviderRequest())])
        spans = by_name(ring)
        (batch,) = spans["engine.execute_many"]
        assert batch.parent_id == req.span_id
        assert batch.trace_id == req.trace_id
        engine.close()


class TestDegradedArms:
    def test_deadline_expiry_annotates_skip(self):
        clock = SimulationClock()
        registry = EndpointRegistry()
        endpoint = CountingEndpoint()
        registry.register("x://p", endpoint)
        engine, ring = traced_engine(registry, clock=clock)
        deadline = engine.deadline(10.0)
        clock.advance(seconds=1.0)  # the 10 ms budget is long spent
        outcome = engine.execute("x://p", ProviderRequest(), deadline=deadline)
        assert outcome.status is FetchStatus.SKIPPED
        assert endpoint.calls == 0
        (fetch,) = by_name(ring)["engine.fetch"]
        assert fetch.attrs["gate"] == "deadline"
        assert fetch.attrs["outcome"] == "skipped"
        # Simulated clock: no time passed inside the span.
        assert fetch.duration_ms == 0.0
        engine.close()

    def test_deadline_expiry_with_stale_fallback_annotates_stale(self):
        clock = SimulationClock()
        registry = EndpointRegistry()
        registry.register("x://p", CountingEndpoint())
        engine, ring = traced_engine(
            registry,
            clock=clock,
            policy=ExecutionPolicy.defaults().replace(cache_ttl_s=10.0),
        )
        assert engine.execute("x://p", ProviderRequest()).status is FetchStatus.OK
        clock.advance(seconds=20.0)  # entry expired, within stale grace
        deadline = engine.deadline(10.0)
        clock.advance(seconds=1.0)  # budget spent
        outcome = engine.execute("x://p", ProviderRequest(), deadline=deadline)
        assert outcome.status is FetchStatus.STALE
        stale_fetches = [
            s for s in by_name(ring)["engine.fetch"]
            if s.attrs.get("gate") == "deadline"
        ]
        (fetch,) = stale_fetches
        assert fetch.attrs["outcome"] == "stale"
        engine.close()

    def test_breaker_open_annotates_gate(self):
        registry = EndpointRegistry()
        endpoint = FailNTimesEndpoint(CountingEndpoint(), fail_count=10)
        registry.register("x://flaky", endpoint)
        engine, ring = traced_engine(
            registry,
            clock=SimulationClock(),
            policy=ExecutionPolicy.defaults().replace(
                attempts=1, cache_ttl_s=0.0, breaker_failure_threshold=1,
            ),
        )
        first = engine.execute("x://flaky", ProviderRequest())
        assert first.status is FetchStatus.ERROR
        second = engine.execute("x://flaky", ProviderRequest())
        assert second.status is FetchStatus.SKIPPED

        fetches = by_name(ring)["engine.fetch"]
        assert len(fetches) == 2
        error_span, gated_span = fetches
        assert error_span.attrs["outcome"] == "error"
        assert error_span.attrs["error"] == "ProviderError"
        assert gated_span.attrs["gate"] == "breaker"
        assert gated_span.attrs["outcome"] == "skipped"
        engine.close()


class TestFederationFanOut:
    @pytest.fixture
    def federation(self):
        from repro.federation.partition import federate

        store = generate_catalog(SynthConfig(seed=7, n_tables=24))
        federation, _ = federate(store, 3)
        yield federation
        federation.close()
        store.close()

    def test_member_spans_join_the_federation_trace(self, federation):
        ring = RingBufferExporter()
        federation.set_tracer(Tracer(exporters=(ring,)))
        result = federation.search("type: table", limit=10)
        assert result.total > 0

        spans = by_name(ring)
        (root,) = spans["federation.search"]
        assert root.parent_id is None
        assert root.attrs["responded"] == 3
        assert root.attrs["failed"] == 0

        # Member evaluators ran on *their own* engines, yet each member's
        # search span sits directly below the federation's.
        member_searches = spans["query.search"]
        assert len(member_searches) == 3
        assert {s.trace_id for s in member_searches} == {root.trace_id}
        assert {s.parent_id for s in member_searches} == {root.span_id}
        assert len(spans["query.plan"]) == 3
        assert spans["provider.invoke"]
        assert {s.trace_id for s in spans["provider.invoke"]} == {root.trace_id}
        hops = [
            s for s in ring.spans()
            if s.attrs.get("endpoint", "").startswith("fed://")
        ]
        assert hops == []

    def test_members_added_after_set_tracer_inherit_it(self, federation):
        tracer = Tracer(exporters=(RingBufferExporter(),))
        federation.set_tracer(tracer)
        extra = generate_catalog(SynthConfig(seed=11, n_tables=6))
        federation.add_member("late", extra)
        assert federation.member_engine("late").tracer is tracer


class TestOneMemberSearch:
    def test_member_search_sits_directly_below_the_federation(self):
        from repro.federation import Discovery

        store = generate_catalog(SynthConfig(seed=7, n_tables=24))
        ring = RingBufferExporter()
        with Discovery.open(store) as discovery:
            discovery.federation.set_tracer(Tracer(exporters=(ring,)))
            result = discovery.search("type: table | badged: endorsed", limit=10)
        assert result.total > 0

        spans = by_name(ring)
        (root,) = spans["federation.search"]
        assert root.parent_id is None
        assert root.attrs["responded"] == 1
        assert root.attrs["failed"] == 0
        (member_search,) = spans["query.search"]
        assert member_search.parent_id == root.span_id
        assert member_search.trace_id == root.trace_id

        # The member's leaves run on its engine; no federation hop.
        hops = [
            s for s in ring.spans()
            if s.name.startswith(("engine.", "provider."))
            and s.attrs.get("endpoint", "").startswith("fed://")
        ]
        assert hops == []
        assert spans["provider.invoke"]
        assert {s.trace_id for s in spans["provider.invoke"]} == {root.trace_id}
        store.close()
