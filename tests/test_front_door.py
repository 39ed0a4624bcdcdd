"""One front door: a ``WorkbookApp`` stands on a ``Discovery``.

The app opens its catalog as the one-member deployment ``main``, and
its interface, engine, registry and providers are that member's own:
one engine and one cache per catalog.  So ``app.discovery.search`` and
``app.interface.search`` answer alike, also after a custom endpoint is
registered on ``app.registry`` and the spec grows to use it.
"""

from __future__ import annotations

import pytest

from repro import (
    ProviderRequest,
    ProviderResult,
    Representation,
    WorkbookApp,
    study_catalog,
)
from repro.core.spec.model import ProviderSpec, Visibility
from repro.errors import SpecValidationError
from repro.federation import federate
from repro.providers.base import ScoredArtifact
from repro.synth import SynthConfig, generate_catalog
from repro.synth.workload import query_pool

CONFIG = SynthConfig(seed=31, n_tables=60, usage_events=2000)


@pytest.fixture(scope="module")
def app():
    with WorkbookApp(generate_catalog(CONFIG)) as app:
        yield app


def test_the_app_is_the_main_member(app):
    federation = app.discovery.federation
    assert app.discovery.members() == ("main",)
    assert app.engine is federation.member_engine("main")
    assert app.interface is federation.member_interface("main")
    assert app.registry is app.engine.registry
    assert app.providers is federation.member_providers("main")
    assert app.store is federation.member_store("main")


def test_both_surfaces_answer_every_pool_query_alike(app):
    users = [user.id for user in app.store.users()[:3]]
    for query in query_pool(app.store):
        for user in users:
            result, _ = app.interface.search(query, user_id=user)
            federated = app.discovery.search(query, user_id=user)
            assert not federated.degraded, (query, user)
            assert federated.bare_ids() == result.artifact_ids(), (query, user)
            assert [e.score for e in federated.entries] == [
                e.score for e in result.entries
            ], (query, user)
            assert federated.total == result.total


def _trending(store):
    """Tables scored by their view count (a stand-in ML model)."""

    def trending(request: ProviderRequest) -> ProviderResult:
        views: dict[str, int] = {}
        for event in store.usage.events():
            if event.action == "view":
                views[event.artifact_id] = views.get(event.artifact_id, 0) + 1
        ranked = sorted(views.items(), key=lambda kv: (-kv[1], kv[0]))
        return ProviderResult(
            representation=Representation.TILES,
            items=tuple(
                ScoredArtifact(artifact_id=aid, score=float(count))
                for aid, count in ranked[: request.context.limit]
            ),
        )

    return trending


TRENDING = ProviderSpec(
    name="trending",
    endpoint="model://trending",
    representation="tiles",
    category="interaction",
    title="Trending",
    visibility=Visibility(overview=True, exploration=False, search=True),
)


def test_a_custom_endpoint_reaches_both_surfaces():
    store = study_catalog()
    with WorkbookApp(store) as app:
        app.registry.register("model://trending", _trending(store))
        app.update_spec(app.spec.with_provider(TRENDING))
        query = ":trending() & type: table"
        result, _ = app.interface.search(query, user_id="user-alex")
        federated = app.discovery.search(query, user_id="user-alex")
        assert result.total > 0
        assert not federated.degraded
        assert federated.bare_ids() == result.artifact_ids()
        # The regenerated interface is the one sessions use.
        assert "trending" in [
            tab.provider_name for tab in app.session("user-alex").open_home()
        ]


def test_a_spec_the_registry_cannot_serve_changes_nothing():
    with WorkbookApp(study_catalog()) as app:
        before = app.interface
        with pytest.raises(SpecValidationError):
            app.update_spec(app.spec.with_provider(TRENDING))
        assert app.interface is before
        assert "trending" not in app.spec


def test_a_spec_one_member_cannot_serve_changes_no_member():
    federation, _ = federate(study_catalog(), 2)
    with federation:
        store = federation.member_store("cat0")
        federation.member_engine("cat0").registry.register(
            "model://trending", _trending(store)
        )
        before = [federation.member_interface(c) for c in ("cat0", "cat1")]
        spec = before[0].spec
        with pytest.raises(SpecValidationError):
            federation.update_spec(spec.with_provider(TRENDING))
        assert [
            federation.member_interface(c) for c in ("cat0", "cat1")
        ] == before
