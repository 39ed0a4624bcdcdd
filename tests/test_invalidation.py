"""Per-domain versioning and dependency-aware cache invalidation.

Covers the store's per-domain counters (which mutators bump which
domains, including lineage edges added directly on ``store.lineage``),
the ``@depends_on`` declaration plumbing through registry and spec, the
engine's selective invalidation matrix (domain mutated × endpoint
dependency), the conservative full-flush fallbacks (undeclared
endpoints, stores without domain counters), and the headline guarantee:
no interleaving of mutations and queries ever serves a stale result.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.domains import (
    ALL_DOMAINS,
    DOMAIN_BADGES,
    DOMAIN_ENTITIES,
    DOMAIN_LINEAGE,
    DOMAIN_MEMBERSHIP,
    DOMAIN_TEXT,
    DOMAIN_USAGE,
    coerce_domains,
)
from repro.catalog.model import Artifact, ArtifactType, Team, User
from repro.core.interface.discovery import DiscoveryInterface
from repro.providers.base import (
    ProviderRequest,
    RequestContext,
    ScoredArtifact,
    depends_on,
    list_result,
)
from repro.providers.declarative import RuleEndpoint
from repro.providers.execution import ExecutionEngine
from repro.providers.registry import EndpointRegistry
from repro.workbook.app import WorkbookApp

from tests.conftest import build_tiny_store


def registered(endpoint):
    """The record *endpoint* gets when registered with no explicit
    declarations: its decorations, read once by the registry."""
    registry = EndpointRegistry()
    registry.register("x://e", endpoint)
    return registry.registration("x://e")


class CountingEndpoint:
    def __init__(self, ids=("a-1",)):
        self.calls = 0
        self._ids = tuple(ids)

    def __call__(self, request):
        self.calls += 1
        return list_result([ScoredArtifact(aid) for aid in self._ids])


#: Mutation label -> (mutator, domains the store must report as changed).
MUTATIONS = {
    "record_view": (
        lambda store: store.record("t-orders", "u-ann", "view"),
        {DOMAIN_USAGE},
    ),
    "add_artifact": (
        lambda store: store.add_artifact(
            Artifact(id="t-new", name="NEW", artifact_type=ArtifactType.TABLE)
        ),
        {DOMAIN_ENTITIES, DOMAIN_TEXT},
    ),
    "grant_badge": (
        lambda store: store.grant_badge("t-orders", "endorsed", "u-ann"),
        {DOMAIN_BADGES},
    ),
    "add_user": (
        lambda store: store.add_user(User(id="u-new", name="New Person")),
        {DOMAIN_MEMBERSHIP},
    ),
    "add_team": (
        lambda store: store.add_team(Team(id="t-9", name="Gamma")),
        {DOMAIN_MEMBERSHIP},
    ),
    "lineage_edge": (
        lambda store: store.lineage.add_edge("t-orders", "w-q1"),
        {DOMAIN_LINEAGE},
    ),
}


class TestDomainVersions:
    @pytest.mark.parametrize("label", sorted(MUTATIONS))
    def test_mutators_bump_exactly_their_domains(self, label):
        store = build_tiny_store()
        mutate, expected = MUTATIONS[label]
        before = store.domain_versions
        mutate(store)
        after = store.domain_versions
        bumped = {d for d in ALL_DOMAINS if after[d] > before[d]}
        assert bumped == expected

    def test_direct_lineage_edge_bumps_lineage_domain(self):
        """Edges added on ``store.lineage`` directly (synth, persistence)
        must not bypass versioning — regression for the on_mutate hook."""
        store = build_tiny_store()
        before = store.domain_version(DOMAIN_LINEAGE)
        store.lineage.add_edge("t-orders", "w-q1")
        assert store.domain_version(DOMAIN_LINEAGE) == before + 1

    def test_monolithic_version_still_bumps(self):
        store = build_tiny_store()
        before = store.version
        store.record("t-orders", "u-ann", "view")
        assert store.version > before

    def test_domain_versions_returns_copy(self):
        store = build_tiny_store()
        versions = store.domain_versions
        versions[DOMAIN_USAGE] = -99
        assert store.domain_version(DOMAIN_USAGE) != -99

    def test_coerce_domains_rejects_unknown(self):
        with pytest.raises(ValueError):
            coerce_domains(["usage", "weather"])


class TestDependencyDeclaration:
    def test_depends_on_sets_declared_dependencies(self):
        @depends_on(DOMAIN_USAGE, DOMAIN_ENTITIES)
        def endpoint(request):
            return list_result([])

        assert registered(endpoint).dependencies == frozenset(
            {DOMAIN_USAGE, DOMAIN_ENTITIES}
        )

    def test_undecorated_endpoint_is_undeclared(self):
        assert registered(lambda request: list_result([])).dependencies is None

    def test_depends_on_rejects_unknown_domain(self):
        with pytest.raises(ValueError):
            depends_on("nonsense")

    def test_registry_autodiscovers_decorated_endpoint(self):
        registry = EndpointRegistry()

        @depends_on(DOMAIN_LINEAGE)
        def endpoint(request):
            return list_result([])

        registry.register("x://lin", endpoint)
        assert registry.registration("x://lin").dependencies == frozenset(
            {DOMAIN_LINEAGE}
        )

    def test_registry_explicit_dependencies_win(self):
        registry = EndpointRegistry()
        registry.register(
            "x://e", lambda r: list_result([]), dependencies=("membership",)
        )
        assert registry.registration("x://e").dependencies == frozenset(
            {"membership"}
        )

    def test_registry_undeclared_returns_none(self):
        registry = EndpointRegistry()
        registry.register("x://u", lambda r: list_result([]))
        assert registry.registration("x://u").dependencies is None

    def test_builtin_suite_is_fully_declared(self, tiny_store):
        with WorkbookApp(tiny_store) as app:
            for provider in app.spec.providers:
                deps = app.registry.registration(provider.endpoint).domains
                assert deps, f"{provider.name} has no declared dependencies"
                assert deps <= ALL_DOMAINS

    def test_spec_declared_dependencies_reach_engine(self, tiny_store):
        """ProviderSpec.dependencies reach endpoints with no decorator."""
        with WorkbookApp(tiny_store) as app:
            registration = app.registry.registration("catalog://owned_by")
            assert registration.domains >= frozenset(
                {DOMAIN_ENTITIES, DOMAIN_MEMBERSHIP}
            )

    def test_spec_dependencies_union_with_registry(self):
        registry = EndpointRegistry()

        @depends_on(DOMAIN_ENTITIES)
        def endpoint(request):
            return list_result([])

        registry.register("x://e", endpoint)
        registry.install_spec_dependencies([("x://e", (DOMAIN_USAGE,))])
        assert registry.registration("x://e").domains == frozenset(
            {DOMAIN_ENTITIES, DOMAIN_USAGE}
        )


#: Endpoint URI -> declared dependency domains (None = undeclared).
ENDPOINT_DEPS = {
    "x://usage": frozenset({DOMAIN_USAGE}),
    "x://entities": frozenset({DOMAIN_ENTITIES}),
    "x://lineage": frozenset({DOMAIN_LINEAGE}),
    "x://membership": frozenset({DOMAIN_MEMBERSHIP}),
    "x://text": frozenset({DOMAIN_TEXT}),
    "x://badges": frozenset({DOMAIN_BADGES}),
    "x://mixed": frozenset({DOMAIN_USAGE, DOMAIN_MEMBERSHIP}),
    "x://undeclared": None,
}


def build_matrix_engine(store):
    registry = EndpointRegistry()
    endpoints = {}
    for uri, deps in ENDPOINT_DEPS.items():
        endpoint = CountingEndpoint()
        if deps is not None:
            depends_on(*deps)(endpoint)
        registry.register(uri, endpoint)
        endpoints[uri] = endpoint
    return ExecutionEngine(registry, store=store), endpoints


class TestInvalidationMatrix:
    @pytest.mark.parametrize("label", sorted(MUTATIONS))
    def test_only_dependent_entries_invalidate(self, label):
        store = build_tiny_store()
        mutate, changed = MUTATIONS[label]
        engine, endpoints = build_matrix_engine(store)
        for uri in ENDPOINT_DEPS:
            engine.execute(uri, ProviderRequest())
        mutate(store)
        for uri in ENDPOINT_DEPS:
            engine.execute(uri, ProviderRequest())
        for uri, deps in ENDPOINT_DEPS.items():
            should_refetch = deps is None or bool(deps & changed)
            expected_calls = 2 if should_refetch else 1
            assert endpoints[uri].calls == expected_calls, (
                f"{uri} (deps={deps}) after {label}: "
                f"expected {expected_calls} calls, saw {endpoints[uri].calls}"
            )

    def test_usage_write_preserves_annotation_cache(self, tiny_store):
        """The tentpole scenario: usage traffic must not evict results of
        providers that only depend on entity metadata."""
        engine, endpoints = build_matrix_engine(tiny_store)
        engine.execute("x://entities", ProviderRequest())
        for _ in range(25):
            tiny_store.record("t-orders", "u-ann", "view")
            engine.execute("x://entities", ProviderRequest())
        assert endpoints["x://entities"].calls == 1
        assert engine.stats.total("cache_hits") == 25

    def test_invalidations_counter_records_drops(self, tiny_store):
        engine, _ = build_matrix_engine(tiny_store)
        for uri in ENDPOINT_DEPS:
            engine.execute(uri, ProviderRequest())
        tiny_store.record("t-orders", "u-ann", "view")
        # Entries are checked when read, so nothing is dropped yet.
        assert engine.stats.total("invalidations") == 0
        for uri in ENDPOINT_DEPS:
            engine.execute(uri, ProviderRequest())
        # usage, mixed and the undeclared endpoint were dropped, once each.
        assert engine.stats.total("invalidations") == 3
        for uri in ("x://usage", "x://mixed", "x://undeclared"):
            assert engine.stats.endpoint(uri).invalidations == 1, uri
        assert engine.stats.endpoint("x://entities").invalidations == 0


class TestConservativeFallback:
    def test_undeclared_endpoint_flushes_on_any_write(self, tiny_store):
        engine, endpoints = build_matrix_engine(tiny_store)
        engine.execute("x://undeclared", ProviderRequest())
        tiny_store.record("t-orders", "u-ann", "view")
        engine.execute("x://undeclared", ProviderRequest())
        tiny_store.grant_badge("t-orders", "endorsed", "u-ann")
        engine.execute("x://undeclared", ProviderRequest())
        assert endpoints["x://undeclared"].calls == 3

    def test_store_without_domain_counters_flushes_everything(self):
        """Duck-typed stores predating domain versioning fall back to the
        old invalidate-on-any-write behaviour, even for declared deps."""

        class LegacyStore:
            def __init__(self):
                self.version = 0

        store = LegacyStore()
        registry = EndpointRegistry()
        endpoint = CountingEndpoint()
        depends_on(DOMAIN_ENTITIES)(endpoint)
        registry.register("x://e", endpoint)
        engine = ExecutionEngine(registry, store=store)
        engine.execute("x://e", ProviderRequest())
        store.version += 1  # a "usage-like" write on a legacy store
        engine.execute("x://e", ProviderRequest())
        assert endpoint.calls == 2

    def test_registry_swap_still_flushes_everything(self, tiny_store):
        engine, endpoints = build_matrix_engine(tiny_store)
        for uri in ENDPOINT_DEPS:
            engine.execute(uri, ProviderRequest())
        engine.registry.register("x://late", CountingEndpoint())
        for uri in ENDPOINT_DEPS:
            engine.execute(uri, ProviderRequest())
        assert all(ep.calls == 2 for ep in endpoints.values())


class TestMembershipSurvivesUsageWrites:
    """Entities-only providers must not bake a usage-ranked top-N into
    cache entries that no usage write will ever drop.  They return full
    membership (views order advisory); the view layer truncates to the
    display limit only after re-ranking on live resolver values.
    """

    def test_builtin_ranker_returns_full_membership(self, tiny_providers):
        request = ProviderRequest(
            inputs={"artifact_type": "table"},
            context=RequestContext(limit=1),
        )
        result = tiny_providers.of_type(request)
        assert sorted(i.artifact_id for i in result.items) == [
            "t-customers", "t-orders", "t-web",
        ]

    def test_rule_endpoint_returns_full_membership(self, tiny_store):
        endpoint = RuleEndpoint(
            tiny_store, [{"field": "type", "op": "eq", "value": "table"}]
        )
        request = ProviderRequest(context=RequestContext(limit=1))
        result = endpoint(request)
        assert sorted(i.artifact_id for i in result.items) == [
            "t-customers", "t-orders", "t-web",
        ]

    def test_rule_endpoint_cache_survives_usage_and_stays_complete(self):
        store = build_tiny_store()
        registry = EndpointRegistry()
        registry.register(
            "x://tables",
            RuleEndpoint(store, [{"field": "type", "op": "eq",
                                  "value": "table"}]),
        )
        engine = ExecutionEngine(registry, store=store)
        request = ProviderRequest(context=RequestContext(limit=1))
        engine.execute("x://tables", request)
        store.record("t-web", "u-cyd", "view")
        second = engine.execute("x://tables", request).result
        # entities-only declaration: the entry survived the usage write...
        assert engine.stats.total("cache_hits") == 1
        # ...and can, because it holds every match, not a usage top-1.
        assert sorted(i.artifact_id for i in second.items) == [
            "t-customers", "t-orders", "t-web",
        ]

    def test_open_view_top_n_fresh_after_usage_flip(self):
        """The end-to-end regression: a usage swing must move a newly-hot
        artifact into a cached entities-only view's top-N."""
        store = build_tiny_store()
        with WorkbookApp(store) as app:
            before = app.interface.open_view(
                "of_type", {"artifact_type": "table"},
                user_id="u-ann", limit=2,
            )
            assert "t-web" not in before.artifact_ids()  # cold at first
            for _ in range(30):
                store.record("t-web", "u-cyd", "view")
            after = app.interface.open_view(
                "of_type", {"artifact_type": "table"},
                user_id="u-ann", limit=2,
            )
            # The provider's cache entry survived the usage writes, yet
            # the displayed top-2 matches a cold-cache ground truth.
            assert app.stats.total("cache_hits") > 0
            assert len(after.artifact_ids()) == 2
            with WorkbookApp(store) as fresh:
                expected = fresh.interface.open_view(
                    "of_type", {"artifact_type": "table"},
                    user_id="u-ann", limit=2,
                ).artifact_ids()
            assert after.artifact_ids() == expected
            assert "t-web" in after.artifact_ids()


class TestBadgeDeclarations:
    """A badge grant bumps only ``badges``: endpoints whose membership
    reads badges must declare it, and only those refetch after a grant."""

    @pytest.mark.parametrize(
        "uri", ["catalog://badges", "catalog://badged",
                "catalog://badged_by", "catalog://stale"],
    )
    def test_badge_reading_endpoints_declare_badges(self, tiny_store, uri):
        from repro.providers.builtin import (
            BuiltinProviders,
            install_builtin_endpoints,
        )
        from repro.providers.extended import (
            ExtendedProviders,
            extended_spec,
            install_extended_endpoints,
        )

        registry = EndpointRegistry()
        install_builtin_endpoints(registry, BuiltinProviders(tiny_store))
        install_extended_endpoints(registry, ExtendedProviders(tiny_store))
        assert DOMAIN_BADGES in registry.registration(uri).dependencies
        (spec,) = [p for p in extended_spec().providers if p.endpoint == uri]
        assert DOMAIN_BADGES in spec.dependencies

    @pytest.mark.parametrize(
        "field", ["badges", "badge_count", "endorsed", "certified",
                  "deprecated"],
    )
    def test_rule_reading_a_badge_field_declares_badges(self, tiny_store, field):
        endpoint = RuleEndpoint(
            tiny_store, [{"field": field, "op": "gte", "value": 1}]
        )
        assert registered(endpoint).dependencies == frozenset(
            {DOMAIN_ENTITIES, DOMAIN_BADGES}
        )

    @pytest.mark.parametrize("field", ["type", "tags", "views"])
    def test_rule_not_reading_badges_does_not_declare_them(
        self, tiny_store, field
    ):
        endpoint = RuleEndpoint(
            tiny_store, [{"field": field, "op": "eq", "value": "table"}]
        )
        assert DOMAIN_BADGES not in registered(endpoint).dependencies

    def test_grant_refetches_badge_rule_and_keeps_type_rule(self):
        store = build_tiny_store()
        registry = EndpointRegistry()
        registry.register("x://endorsed", RuleEndpoint(
            store, [{"field": "endorsed", "op": "gte", "value": 1}]
        ))
        registry.register("x://tables", RuleEndpoint(
            store, [{"field": "type", "op": "eq", "value": "table"}]
        ))
        engine = ExecutionEngine(registry, store=store)
        for uri in ("x://endorsed", "x://tables"):
            engine.execute(uri, ProviderRequest())
        store.grant_badge("t-web", "endorsed", "u-ann")
        endorsed = engine.execute("x://endorsed", ProviderRequest()).result
        engine.execute("x://tables", ProviderRequest())
        assert "t-web" in endorsed.artifact_ids()
        assert engine.stats.endpoint("x://endorsed").calls == 2
        assert engine.stats.endpoint("x://tables").calls == 1


class TestOverlayLifecycle:
    """Spec-declared dependencies live on the endpoint's registration
    record: they describe the callable registered when the spec was
    installed, and the next installed spec replaces them."""

    @staticmethod
    def build_engine(store):
        registry = EndpointRegistry()
        registry.register("x://e", CountingEndpoint())
        engine = ExecutionEngine(registry, store=store)
        registry.install_spec_dependencies([("x://e", (DOMAIN_ENTITIES,))])
        return registry, engine

    def test_reregistration_retires_spec_overlay(self, tiny_store):
        registry, _ = self.build_engine(tiny_store)
        assert registry.registration("x://e").domains == frozenset(
            {DOMAIN_ENTITIES}
        )
        registry.register("x://e", CountingEndpoint(), replace=True)
        # The swapped-in callable declared nothing; it must fall back to
        # conservative invalidation, not inherit its predecessor's set.
        assert registry.registration("x://e").domains is None

    def test_spec_declarations_reach_the_cache(self, tiny_store):
        registry, engine = self.build_engine(tiny_store)
        engine.execute("x://e", ProviderRequest())
        # The callable declares nothing; the spec's entities-only
        # declaration is what keeps its entry across a usage write...
        MUTATIONS["record_view"][0](tiny_store)
        engine.execute("x://e", ProviderRequest())
        assert registry.resolve("x://e").calls == 1
        # ...and what drops it on an entities write.
        MUTATIONS["add_artifact"][0](tiny_store)
        engine.execute("x://e", ProviderRequest())
        assert registry.resolve("x://e").calls == 2

    def test_swapped_endpoint_invalidates_conservatively(self, tiny_store):
        registry, engine = self.build_engine(tiny_store)
        swapped = CountingEndpoint(ids=("a-2",))
        registry.register("x://e", swapped, replace=True)
        engine.execute("x://e", ProviderRequest())
        tiny_store.record("t-orders", "u-ann", "view")
        engine.execute("x://e", ProviderRequest())
        # A lingering entities-only declaration would have served the cache.
        assert swapped.calls == 2

    def test_redeclaration_after_swap_takes_effect(self, tiny_store):
        registry, _ = self.build_engine(tiny_store)
        registry.register("x://e", CountingEndpoint(), replace=True)
        registry.install_spec_dependencies([("x://e", (DOMAIN_USAGE,))])
        assert registry.registration("x://e").domains == frozenset(
            {DOMAIN_USAGE}
        )

    def test_spec_swap_clears_old_spec_declarations(self, tiny_store):
        registry, _ = self.build_engine(tiny_store)
        # A spec that declares nothing for the endpoint replaces the old
        # spec's declarations instead of adding to them.
        registry.install_spec_dependencies([("x://other", (DOMAIN_USAGE,))])
        assert registry.registration("x://e").domains is None

    def test_interface_spec_swap_replaces_declarations(self, tiny_store):
        with WorkbookApp(tiny_store) as app:
            uri = "catalog://owned_by"
            assert app.registry.registration(uri).spec_dependencies
            spec = app.spec
            app.update_spec(dataclasses.replace(spec, providers=tuple(
                dataclasses.replace(p, dependencies=frozenset())
                for p in spec.providers
            )))
            registration = app.registry.registration(uri)
            assert registration.spec_dependencies == frozenset()
            assert registration.domains == registration.dependencies

    def test_single_endpoint_invalidate_keeps_overlay(self, tiny_store):
        registry, engine = self.build_engine(tiny_store)
        engine.invalidate("x://e")
        engine.invalidate()
        assert registry.registration("x://e").domains == frozenset(
            {DOMAIN_ENTITIES}
        )

    def test_reinstalling_the_same_spec_keeps_warm_entries(self, tiny_store):
        with WorkbookApp(tiny_store) as app:
            request = ProviderRequest(inputs={"user": "u-ann"})
            assert app.engine.execute("catalog://owned_by", request).result
            version = app.registry.version
            DiscoveryInterface(
                tiny_store, app.registry, app.spec, engine=app.engine
            )
            assert app.registry.version == version
            assert app.engine.execute("catalog://owned_by", request).result
            assert app.stats.endpoint("catalog://owned_by").calls == 1

    def test_changed_spec_declarations_drop_cached_results(self, tiny_store):
        registry, engine = self.build_engine(tiny_store)
        engine.execute("x://e", ProviderRequest())
        registry.install_spec_dependencies([("x://e", (DOMAIN_USAGE,))])
        engine.execute("x://e", ProviderRequest())
        assert registry.resolve("x://e").calls == 2


#: Queries whose membership is independent of usage traffic; their cached
#: provider results must survive `store.record` writes *and* stay correct.
QUERIES = (
    "badged: endorsed",
    "type: table",
    "owned_by: Ann Lee",
    "tagged: sales",
)


def fresh_results(store, query):
    """Ground truth: evaluate on a brand-new app with a cold cache."""
    with WorkbookApp(store) as app:
        result, _ = app.interface.search(query, user_id="u-ann")
        return result.artifact_ids()


class TestNoStaleResults:
    def test_interleaved_mutations_never_serve_stale_results(self):
        store = build_tiny_store()
        store.grant_badge("t-orders", "endorsed", "u-bob")
        rng = random.Random(7)
        mutators = sorted(set(MUTATIONS) - {"add_artifact", "add_user", "add_team"})
        with WorkbookApp(store) as app:
            for step in range(40):
                label = mutators[step % len(mutators)]
                try:
                    MUTATIONS[label][0](store)
                except Exception:
                    pass  # duplicate badge/edge grants are fine to skip
                query = QUERIES[rng.randrange(len(QUERIES))]
                result, _ = app.interface.search(query, user_id="u-ann")
                assert result.artifact_ids() == fresh_results(store, query), (
                    f"stale result for {query!r} after {label} at step {step}"
                )
            # The cache did real work across those searches.
            assert app.stats.total("cache_hits") > 0


@settings(max_examples=25, deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            st.sampled_from(sorted(MUTATIONS)),
            st.sampled_from(QUERIES),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_property_random_interleaving_never_stale(steps):
    store = build_tiny_store()
    store.grant_badge("t-orders", "endorsed", "u-bob")
    with WorkbookApp(store) as app:
        for label, query in steps:
            try:
                MUTATIONS[label][0](store)
            except Exception:
                pass  # duplicate entity/edge from repeated labels
            result, _ = app.interface.search(query, user_id="u-ann")
            assert result.artifact_ids() == fresh_results(store, query)
