"""Cost-based planner tests.

The planner's core contract: estimates may be arbitrarily wrong, but the
*result* of a planned search is identical to naive left-to-right
evaluation — selectivity ordering, candidate filtering, Not-as-filter and
planned-empty skips only rearrange work.  The hypothesis property test
drives random query trees at both evaluators; the rest pins estimate
sources, skip accounting, plan explain output and the batch resolver's
snapshot invalidation.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.query.ast import And, FieldTerm, Not, Or, TextTerm
from repro.core.query.evaluator import QueryEvaluator
from repro.core.query.language import QueryLanguage
from repro.core.query.planner import PlanNode, QueryPlanner
from repro.core.ranking import Ranker
from repro.providers.base import (
    ProviderRequest,
    ProviderResult,
    RequestContext,
    Representation,
    ScoredArtifact,
    estimates_with,
)
from repro.providers.builtin import BuiltinProviders, install_builtin_endpoints
from repro.providers.execution import ExecutionEngine
from repro.providers.fields import FieldResolver
from repro.providers.registry import EndpointRegistry
from repro.providers.suite import default_spec
from repro.synth import SynthConfig, generate_catalog


def _make_evaluator(store, planning: bool) -> QueryEvaluator:
    registry = EndpointRegistry()
    install_builtin_endpoints(registry, BuiltinProviders(store))
    evaluator = QueryEvaluator(
        store,
        registry,
        QueryLanguage(default_spec()),
        Ranker(FieldResolver(store)),
    )
    evaluator.planning = planning
    return evaluator


@pytest.fixture(scope="module")
def catalog():
    return generate_catalog(
        SynthConfig(seed=23, n_tables=60, usage_events=600)
    )


@pytest.fixture(scope="module")
def planned_eval(catalog):
    return _make_evaluator(catalog, planning=True)


@pytest.fixture(scope="module")
def naive_eval(catalog):
    return _make_evaluator(catalog, planning=False)


# -- planned == naive (property) ------------------------------------------


def _leaves(store):
    """Leaf strategies drawn from the catalog: hits, misses, text terms."""
    tags = store.tags_in_use()[:6] or ["sales"]
    badges = store.badges_in_use()[:4] or ["endorsed"]
    tokens = sorted(
        {tok for a in list(store.artifacts())[:20] for tok in a.name.split()}
    )[:8] or ["report"]
    field_terms = st.one_of(
        st.sampled_from(tags).map(lambda t: FieldTerm("tagged", t)),
        st.sampled_from(badges).map(lambda b: FieldTerm("badged", b)),
        st.sampled_from(["table", "workbook", "document"]).map(
            lambda t: FieldTerm("type", t)
        ),
        # Guaranteed-empty leaves exercise planned-empty short circuits.
        st.just(FieldTerm("tagged", "no-such-tag-xyzzy")),
    )
    text_terms = st.sampled_from(tokens).map(TextTerm)
    return st.one_of(field_terms, text_terms)


def _queries(store):
    leaves = _leaves(store)
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, min_size=2, max_size=3).map(
                lambda cs: And(tuple(cs))
            ),
            st.lists(inner, min_size=2, max_size=3).map(
                lambda cs: Or(tuple(cs))
            ),
            inner.map(Not),
        ),
        max_leaves=5,
    )


class TestPlannedMatchesNaive:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_same_results_and_ordering(self, planned_eval, naive_eval, data):
        """Planned evaluation returns the exact result set AND the exact
        ranked ordering of naive left-to-right evaluation."""
        node = data.draw(_queries(planned_eval.store))
        planned = planned_eval.search(node, limit=10_000)
        naive = naive_eval.search(node, limit=10_000)
        assert planned.total == naive.total
        assert planned.artifact_ids() == naive.artifact_ids()
        assert [e.score for e in planned.entries] == [
            e.score for e in naive.entries
        ]

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_top_k_head_matches(self, planned_eval, naive_eval, data):
        node = data.draw(_queries(planned_eval.store))
        assert (
            planned_eval.search(node, limit=7).artifact_ids()
            == naive_eval.search(node, limit=7).artifact_ids()
        )

    def test_lazy_top_k_matches_full_sort(self, planned_eval):
        """The heap-selected head is bit-identical to rank-all-then-cut."""
        evaluator = planned_eval
        store = evaluator.store
        ids = store.artifact_ids()
        weights = evaluator.language.spec.global_ranking
        ranker = evaluator.ranker
        full = ranker.rank_ids(ids, weights)
        lazy = ranker.top_k(ids, weights, 15)
        assert lazy == full[:15]


# -- estimate() sources ----------------------------------------------------


class TestEngineEstimate:
    def _engine(self, store):
        registry = EndpointRegistry()
        return registry, ExecutionEngine(registry, store=store)

    def test_no_hook_no_cache_is_unknown(self, catalog):
        registry, engine = self._engine(catalog)

        def endpoint(request):
            return ProviderResult(
                representation=Representation.LIST,
                items=(ScoredArtifact(artifact_id="a1"),),
            )

        registry.register("test://plain", endpoint)
        request = ProviderRequest()
        assert engine.estimate("test://plain", request) is None
        assert engine.stats.total("estimates") == 0

    def test_cached_result_is_exact_and_free(self, catalog):
        registry, engine = self._engine(catalog)
        aid = catalog.artifact_ids()[0]

        def endpoint(request):
            return ProviderResult(
                representation=Representation.LIST,
                items=(ScoredArtifact(artifact_id=aid),),
            )

        registry.register("test://cached", endpoint)
        request = ProviderRequest()
        engine.fetch("test://cached", request)
        calls_before = engine.stats.total("calls")
        assert engine.estimate("test://cached", request) == 1
        assert engine.stats.total("calls") == calls_before  # no fetch happened
        assert engine.stats.total("estimates") == 1

    def test_declared_estimator_hook_is_discovered(self, catalog):
        registry, engine = self._engine(catalog)

        @estimates_with(lambda request: 42)
        def endpoint(request):
            return ProviderResult(representation=Representation.LIST)

        registry.register("test://hooked", endpoint)
        assert engine.estimate("test://hooked", ProviderRequest()) == 42

    def test_broken_estimator_degrades_to_unknown(self, catalog):
        registry, engine = self._engine(catalog)

        def endpoint(request):
            return ProviderResult(representation=Representation.LIST)

        def boom(request):
            raise RuntimeError("estimator crashed")

        registry.register("test://broken", endpoint, estimator=boom)
        assert engine.estimate("test://broken", ProviderRequest()) is None

    def test_unknown_endpoint_is_unknown(self, catalog):
        _, engine = self._engine(catalog)
        assert engine.estimate("test://missing", ProviderRequest()) is None


# -- planned-empty skips and explain output --------------------------------


class TestPlannedSkips:
    def test_planned_empty_branch_skips_other_fetches(self, catalog):
        evaluator = _make_evaluator(catalog, planning=True)
        result = evaluator.search(
            "tagged: no-such-tag-xyzzy & type: table & badged: endorsed"
        )
        assert result.total == 0
        assert result.plan is not None
        assert result.plan.fetches_skipped == 2
        assert evaluator.engine.stats.total("fetches_skipped") == 2
        # The zero-estimate leaf ran; the two skipped ones never fetched.
        assert evaluator.engine.stats.total("calls") == 1
        rendered = result.plan.render()
        assert "SKIPPED" in rendered
        assert "2 fetch(es) skipped" in rendered

    def test_skip_accounting_lands_in_snapshot(self, catalog):
        evaluator = _make_evaluator(catalog, planning=True)
        evaluator.search("tagged: no-such-tag-xyzzy & badged: endorsed")
        snapshot = evaluator.engine.stats.snapshot()
        assert snapshot["totals"]["fetches_skipped"] == 1
        assert snapshot["totals"]["estimates"] >= 1

    def test_selective_branch_runs_first(self, catalog):
        evaluator = _make_evaluator(catalog, planning=True)
        tag = catalog.tags_in_use()[0]
        result = evaluator.search(f"type: table & tagged: {tag}")
        plan = result.plan.root
        by_label = {child.label: child for child in plan.children}
        tagged = by_label[f"tagged: {tag}"]
        typed = by_label["type: table"]
        assert tagged.estimated == catalog.index_size("tag", tag)
        assert typed.estimated == catalog.index_size("type", "table")
        if tagged.estimated < typed.estimated:
            assert tagged.order < typed.order

    def test_not_branch_ordered_last_and_applied_as_filter(self, catalog):
        evaluator = _make_evaluator(catalog, planning=True)
        naive = _make_evaluator(catalog, planning=False)
        query = "!badged: deprecated & type: table"
        planned_result = evaluator.search(query, limit=10_000)
        not_plan = next(
            child
            for child in planned_result.plan.root.children
            if child.kind == "not"
        )
        other = next(
            child
            for child in planned_result.plan.root.children
            if child.kind != "not"
        )
        assert not_plan.order > other.order
        assert not_plan.note == "filter"
        assert planned_result.artifact_ids() == naive.search(
            query, limit=10_000
        ).artifact_ids()

    def test_planning_toggle_drops_plan(self, catalog):
        evaluator = _make_evaluator(catalog, planning=False)
        assert evaluator.search("type: table").plan is None


class TestExecutionOrder:
    def test_known_unknown_not_tiers(self):
        plans = [
            PlanNode(label="u", kind="call", estimated=None),
            PlanNode(label="big", kind="field", estimated=500),
            PlanNode(label="neg", kind="not", estimated=10),
            PlanNode(label="small", kind="field", estimated=3),
        ]
        assert QueryPlanner.execution_order(plans) == [3, 1, 0, 2]

    def test_ties_keep_source_order(self):
        plans = [
            PlanNode(label="a", kind="field", estimated=5),
            PlanNode(label="b", kind="field", estimated=5),
        ]
        assert QueryPlanner.execution_order(plans) == [0, 1]


# -- batch resolver snapshot ------------------------------------------------


class TestValuesBatchSnapshot:
    def test_matches_scalar_path(self, catalog):
        resolver = FieldResolver(catalog)
        ids = catalog.artifact_ids()[:30]
        fields = ["views", "recency", "favorite", "freshness", "endorsed"]
        columns = resolver.values_batch(ids, fields)
        for field in fields:
            expected = [resolver.value(aid, field) for aid in ids]
            assert columns[field] == expected, field

    def test_snapshot_invalidates_on_usage_write(self, catalog):
        resolver = FieldResolver(catalog)
        aid = catalog.artifact_ids()[0]
        user = catalog.users()[0].id
        before = resolver.values_batch([aid], ["views"])["views"][0]
        catalog.record(aid, user, "view")
        after = resolver.values_batch([aid], ["views"])["views"][0]
        assert after == before + 1

    def test_custom_resolver_overrides_snapshot(self, catalog):
        resolver = FieldResolver(catalog)
        aid = catalog.artifact_ids()[0]
        resolver.register("views", lambda _aid: 123.0)
        assert resolver.values_batch([aid], ["views"])["views"] == [123.0]
