"""Tests for view models and the view factory."""

import dataclasses

import pytest

from repro.core.ranking import Ranker
from repro.core.spec.model import ProviderSpec, RankingWeight
from repro.core.views.base import make_card, view_id_for
from repro.core.views.factory import ViewFactory
from repro.core.views.listing import ListView
from repro.errors import RepresentationError
from repro.providers.base import ProviderRequest, RequestContext
from repro.providers.fields import FieldResolver
from repro.providers.suite import default_spec


@pytest.fixture
def factory(tiny_store, spec):
    return ViewFactory(tiny_store, spec, Ranker(FieldResolver(tiny_store)))


def fetch(providers, name, inputs=None, user="", limit=20):
    request = ProviderRequest(
        inputs=dict(inputs or {}),
        context=RequestContext(user_id=user, limit=limit),
    )
    return providers.endpoints()[name](request)


class TestCards:
    def test_make_card_resolves_owner(self, tiny_store):
        card = make_card(tiny_store, "t-orders", score=1.5)
        assert card.name == "ORDERS"
        assert card.owner_name == "Ann Lee"
        assert card.view_count == 7
        assert card.badges == ("endorsed",)
        assert card.score == 1.5

    def test_view_id_stable(self):
        assert view_id_for("similar", {"artifact": "a", "z": "1"}) == \
            "similar[artifact=a,z=1]"
        assert view_id_for("recents", {}) == "recents"


class TestFactoryListing:
    def test_list_view_ranked_by_listing1(self, factory, tiny_providers, spec):
        result = fetch(tiny_providers, "of_type",
                       {"artifact_type": "table"})
        view = factory.build(spec.provider("of_type"), result,
                             inputs={"artifact_type": "table"})
        assert isinstance(view, ListView)
        # global Listing 1 weights: t-orders (1 fav, 7 views) first
        assert view.artifact_ids()[0] == "t-orders"
        assert view.cards[0].score > view.cards[-1].score

    def test_limit_truncates_after_live_ranking(
        self, factory, tiny_providers, spec
    ):
        # The provider returns full membership even when asked for 2;
        # the factory slices the display limit after live re-ranking.
        result = fetch(tiny_providers, "of_type",
                       {"artifact_type": "table"}, limit=2)
        assert len(result.items) == 3
        view = factory.build(spec.provider("of_type"), result,
                             inputs={"artifact_type": "table"}, limit=2)
        assert view.artifact_ids() == ["t-orders", "t-customers"]

    def test_tiles_view_rows(self, factory, tiny_providers, spec):
        result = fetch(tiny_providers, "most_viewed")
        view = factory.build(spec.provider("most_viewed"), result)
        rows = view.rows()
        assert all(len(row) <= view.columns_per_row for row in rows)

    def test_provider_ranking_overrides_global(self, tiny_store,
                                               tiny_providers):
        spec = default_spec().with_provider(
            default_spec().provider("of_type").with_ranking(
                RankingWeight("freshness", 100.0)
            )
        )
        factory = ViewFactory(tiny_store, spec,
                              Ranker(FieldResolver(tiny_store)))
        result = fetch(tiny_providers, "of_type", {"artifact_type": "table"})
        view = factory.build(spec.provider("of_type"), result)
        assert view.artifact_ids()[0] == "t-web"  # newest table

    def test_representation_mismatch_rejected(self, factory, tiny_providers,
                                              spec):
        graph_result = fetch(tiny_providers, "joinable",
                             {"artifact": "t-orders"})
        with pytest.raises(RepresentationError, match="declares"):
            factory.build(spec.provider("recents"), graph_result)


class TestFactoryOtherShapes:
    def test_hierarchy(self, factory, tiny_providers, spec):
        result = fetch(tiny_providers, "lineage", {"artifact": "t-orders"})
        view = factory.build(spec.provider("lineage"), result)
        assert view.max_depth() == 3
        assert view.artifact_ids()[0] == "t-orders"

    def test_graph(self, factory, tiny_providers, spec):
        result = fetch(tiny_providers, "joinable", {"artifact": "t-orders"})
        view = factory.build(spec.provider("joinable"), result)
        assert "t-customers" in view.artifact_ids()
        assert view.neighbors("t-orders") == ["t-customers"]

    def test_graph_layout_deterministic(self, factory, tiny_providers, spec):
        result = fetch(tiny_providers, "joinable", {"artifact": "t-orders"})
        view = factory.build(spec.provider("joinable"), result)
        assert view.layout() == view.layout()

    def test_graph_layout_computed_once_per_instance_and_seed(
        self, factory, tiny_providers, spec, monkeypatch
    ):
        from repro.core.views import graph as graph_module

        calls = []
        spring_layout = graph_module.nx.spring_layout

        def counting(graph, seed=None):
            calls.append(seed)
            return spring_layout(graph, seed=seed)

        monkeypatch.setattr(graph_module.nx, "spring_layout", counting)
        result = fetch(tiny_providers, "joinable", {"artifact": "t-orders"})
        view = factory.build(spec.provider("joinable"), result)
        first = view.layout()
        first["t-orders"] = (9.0, 9.0)  # callers get a copy
        assert view.layout() == view.layout(seed=42) != first
        view.layout(seed=7)
        view.layout(seed=7)
        assert calls == [42, 7]
        # A filtered copy is another instance and lays itself out.
        view.filtered({"t-orders", "t-customers"}).layout()
        assert calls == [42, 7, 42]

    def test_graph_layout_memo_is_invisible_to_the_dataclass(
        self, factory, tiny_providers, spec
    ):
        result = fetch(tiny_providers, "joinable", {"artifact": "t-orders"})
        view = factory.build(spec.provider("joinable"), result)
        twin = dataclasses.replace(view)
        before = repr(view)
        view.layout()
        assert repr(view) == before
        assert view == twin
        with pytest.raises(TypeError):  # ``inputs`` is a dict
            hash(view)
        assert "_layouts" not in repr(view)

    def test_categories_with_previews(self, factory, tiny_providers, spec):
        result = fetch(tiny_providers, "types")
        view = factory.build(spec.provider("types"), result)
        tables = view.group("table")
        assert tables.total == 3
        assert tables.preview[0].artifact_id == "t-orders"  # ranked preview
        assert view.group("nonexistent") is None

    def test_embedding(self, factory, tiny_providers, spec, tiny_store):
        result = fetch(tiny_providers, "embedding_map")
        view = factory.build(spec.provider("embedding_map"), result)
        assert len(view.points) == tiny_store.artifact_count
        min_x, min_y, max_x, max_y = view.bounds()
        assert max_x > min_x

    def test_embedding_nearest(self, factory, tiny_providers, spec):
        result = fetch(tiny_providers, "embedding_map")
        view = factory.build(spec.provider("embedding_map"), result)
        nearest = view.nearest("t-orders", k=2)
        assert len(nearest) == 2
        assert all(p.card.artifact_id != "t-orders" for p in nearest)
        assert view.nearest("ghost") == []


class TestFiltering:
    def test_list_filtered(self, factory, tiny_providers, spec):
        result = fetch(tiny_providers, "of_type", {"artifact_type": "table"})
        view = factory.build(spec.provider("of_type"), result)
        filtered = view.filtered({"t-web"})
        assert filtered.artifact_ids() == ["t-web"]
        assert view.count() == 3  # original untouched

    def test_hierarchy_filter_keeps_ancestors(self, factory, tiny_providers,
                                              spec):
        result = fetch(tiny_providers, "lineage", {"artifact": "t-orders"})
        view = factory.build(spec.provider("lineage"), result)
        filtered = view.filtered({"d-sales"})
        # the path t-orders -> v-orders -> d-sales must survive
        assert filtered.artifact_ids() == ["t-orders", "v-orders", "d-sales"]

    def test_hierarchy_filter_drops_dead_branches(self, factory,
                                                  tiny_providers, spec):
        result = fetch(tiny_providers, "lineage", {"artifact": "t-orders"})
        view = factory.build(spec.provider("lineage"), result)
        assert view.filtered(set()).roots == ()

    def test_graph_filter_drops_dangling_edges(self, factory, tiny_providers,
                                               spec):
        result = fetch(tiny_providers, "joinable", {"artifact": "t-orders"})
        view = factory.build(spec.provider("joinable"), result)
        filtered = view.filtered({"t-orders"})
        assert filtered.edges == ()

    def test_categories_filter_recounts(self, factory, tiny_providers, spec):
        result = fetch(tiny_providers, "types")
        view = factory.build(spec.provider("types"), result)
        filtered = view.filtered({"t-web", "w-q1"})
        assert filtered.group("table").total == 1
        assert filtered.group("dashboard") is None  # emptied out

    def test_embedding_filter(self, factory, tiny_providers, spec):
        result = fetch(tiny_providers, "embedding_map")
        view = factory.build(spec.provider("embedding_map"), result)
        filtered = view.filtered({"t-web"})
        assert filtered.artifact_ids() == ["t-web"]


class TestListSorting:
    def test_sorted_by_name(self, factory, tiny_providers, spec):
        result = fetch(tiny_providers, "of_type", {"artifact_type": "table"})
        view = factory.build(spec.provider("of_type"), result)
        by_name = view.sorted_by("name")
        names = [c.name for c in by_name.cards]
        assert names == sorted(names)

    def test_sorted_by_views_descending_semantics(self, factory,
                                                  tiny_providers, spec):
        result = fetch(tiny_providers, "of_type", {"artifact_type": "table"})
        view = factory.build(spec.provider("of_type"), result)
        by_views = view.sorted_by("views")
        counts = [c.view_count for c in by_views.cards]
        assert counts == sorted(counts, reverse=True)

    def test_unknown_column(self, factory, tiny_providers, spec):
        result = fetch(tiny_providers, "of_type", {"artifact_type": "table"})
        view = factory.build(spec.provider("of_type"), result)
        with pytest.raises(ValueError, match="unknown column"):
            view.sorted_by("color")
