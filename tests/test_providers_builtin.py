"""Tests for the built-in provider suite against the tiny catalog."""

import pytest

from repro.errors import MissingInputError
from repro.providers.base import ProviderRequest, Representation, RequestContext
from repro.providers.builtin import (
    ITEM_FIELDS,
    BuiltinProviders,
    group_ids_by,
)
from repro.synth import SynthConfig, generate_catalog


def req(inputs=None, user="", team="", limit=20):
    return ProviderRequest(
        inputs=dict(inputs or {}),
        context=RequestContext(user_id=user, team_id=team, limit=limit),
    )


class TestInteractionProviders:
    def test_recents_user_specific(self, tiny_providers):
        result = tiny_providers.recents(req(user="u-dee"))
        assert result.artifact_ids() == ["w-q1", "d-sales"]

    def test_recents_unknown_user_empty(self, tiny_providers):
        assert tiny_providers.recents(req(user="ghost")).is_empty()

    def test_most_viewed_is_tiles_sorted(self, tiny_providers):
        result = tiny_providers.most_viewed(req())
        assert result.representation is Representation.TILES
        assert result.artifact_ids()[0] == "t-orders"

    def test_newest_ordering(self, tiny_providers):
        result = tiny_providers.newest(req(limit=3))
        assert result.artifact_ids()[0] == "w-q1"  # created last

    def test_favorites(self, tiny_providers):
        result = tiny_providers.favorites(req(user="u-ann"))
        assert result.artifact_ids() == ["t-orders"]

    def test_recent_documents_filters_types(self, tiny_providers, tiny_store):
        result = tiny_providers.recent_documents(req(user="u-dee"))
        ids = result.artifact_ids()
        assert ids == ["w-q1"]  # dashboard d-sales excluded

    def test_limit_respected(self, tiny_providers):
        result = tiny_providers.newest(req(limit=2))
        assert len(result.artifact_ids()) == 2


class TestAnnotationProviders:
    def test_owned_by_display_name(self, tiny_providers):
        result = tiny_providers.owned_by(req({"user": "Ann Lee"}))
        assert set(result.artifact_ids()) == {"t-orders", "v-orders"}

    def test_owned_by_user_id(self, tiny_providers):
        result = tiny_providers.owned_by(req({"user": "u-ann"}))
        assert set(result.artifact_ids()) == {"t-orders", "v-orders"}

    def test_owned_by_first_name_if_unique(self, tiny_providers):
        result = tiny_providers.owned_by(req({"user": "Bob"}))
        assert "t-customers" in result.artifact_ids()

    def test_owned_by_unresolvable_empty(self, tiny_providers):
        assert tiny_providers.owned_by(req({"user": "Nobody"})).is_empty()

    def test_owned_by_missing_input_raises(self, tiny_providers):
        with pytest.raises(MissingInputError):
            tiny_providers.owned_by(req())

    def test_of_type(self, tiny_providers):
        result = tiny_providers.of_type(req({"artifact_type": "workbook"}))
        assert result.artifact_ids() == ["w-q1"]

    def test_of_type_invalid_empty(self, tiny_providers):
        assert tiny_providers.of_type(req({"artifact_type": "blob"})).is_empty()

    def test_types_categories(self, tiny_providers):
        result = tiny_providers.types(req())
        assert result.representation is Representation.CATEGORIES
        by_name = {c.name: c.count for c in result.categories}
        assert by_name["table"] == 3
        assert "document" not in by_name  # empty types omitted

    def test_badges_categories(self, tiny_providers):
        result = tiny_providers.badges(req())
        names = [c.name for c in result.categories]
        assert set(names) == {"endorsed", "certified"}

    def test_badged(self, tiny_providers):
        result = tiny_providers.badged(req({"badge": "endorsed"}))
        assert set(result.artifact_ids()) == {"t-orders", "d-sales"}

    def test_badged_case_insensitive(self, tiny_providers):
        result = tiny_providers.badged(req({"badge": "ENDORSED"}))
        assert result.artifact_ids()

    def test_badged_by(self, tiny_providers):
        result = tiny_providers.badged_by(req({"user": "Bob Ray"}))
        assert set(result.artifact_ids()) == {"t-orders", "t-customers"}

    def test_tagged(self, tiny_providers):
        result = tiny_providers.tagged(req({"text": "crm"}))
        assert result.artifact_ids() == ["t-customers"]

    def test_items_carry_rankable_fields(self, tiny_providers):
        result = tiny_providers.badged(req({"badge": "endorsed"}))
        for item in result.items:
            assert "views" in item.fields
            assert "favorite" in item.fields


class TestTeamProviders:
    def test_team_docs(self, tiny_providers):
        result = tiny_providers.team_docs(req({"team": "t-2"}))
        assert set(result.artifact_ids()) == {"t-web", "w-q1"}

    def test_team_docs_by_name(self, tiny_providers):
        result = tiny_providers.team_docs(req({"team": "Beta"}))
        assert set(result.artifact_ids()) == {"t-web", "w-q1"}

    def test_team_from_context(self, tiny_providers):
        result = tiny_providers.team_docs(req(team="t-1"))
        assert "t-orders" in result.artifact_ids()

    def test_team_popular_restricted_to_members(self, tiny_providers):
        result = tiny_providers.team_popular(req({"team": "t-2"}))
        ids = result.artifact_ids()
        # u-dee viewed d-sales; u-cyd viewed nothing
        assert "d-sales" in ids
        assert "t-customers" not in ids

    def test_team_missing_raises(self, tiny_providers):
        with pytest.raises(MissingInputError):
            tiny_providers.team_popular(req())

    def test_unknown_team_empty(self, tiny_providers):
        assert tiny_providers.team_docs(req({"team": "Gamma"})).is_empty()


class TestRelatednessProviders:
    def test_joinable_graph(self, tiny_providers):
        result = tiny_providers.joinable(req({"artifact": "t-orders"}))
        assert result.representation is Representation.GRAPH
        assert "t-customers" in result.nodes
        assert any("customer_id" in e.label for e in result.edges)

    def test_joinable_unknown_artifact_empty_graph(self, tiny_providers):
        result = tiny_providers.joinable(req({"artifact": "ghost"}))
        assert result.nodes == ()

    def test_lineage_hierarchy(self, tiny_providers):
        result = tiny_providers.lineage(req({"artifact": "t-orders"}))
        assert result.representation is Representation.HIERARCHY
        root = result.roots[0]
        assert root.artifact_id == "t-orders"
        assert root.depth() == 3  # orders -> chart -> dashboard

    def test_lineage_graph_both_directions(self, tiny_providers):
        result = tiny_providers.lineage_graph(req({"artifact": "v-orders"}))
        assert set(result.nodes) >= {"t-orders", "v-orders", "d-sales"}

    def test_similar_excludes_missing(self, tiny_providers):
        result = tiny_providers.similar(req({"artifact": "t-orders"}))
        ids = result.artifact_ids()
        assert "t-orders" not in ids
        assert ids  # finds related artifacts

    def test_similar_requires_artifact(self, tiny_providers):
        with pytest.raises(MissingInputError):
            tiny_providers.similar(req())

    def test_embedding_map_covers_catalog(self, tiny_providers, tiny_store):
        result = tiny_providers.embedding_map(req())
        assert len(result.points) == tiny_store.artifact_count


class TestBatchedListBodies:
    """List bodies resolve their item fields in one batched pass; items,
    order and ``fields`` equal the per-id body they replaced."""

    @staticmethod
    def per_id_items(providers, ids, rank):
        resolver = providers.resolver
        if rank:
            ids = sorted(ids, key=lambda aid: (-resolver.value(aid, "views"),
                                               aid))
        return [
            (aid, {f: resolver.value(aid, f) for f in ITEM_FIELDS})
            for aid in ids
            if providers.store.has_artifact(aid)
        ]

    @staticmethod
    def items(result):
        return [(item.artifact_id, item.fields) for item in result.items]

    def check(self, providers, store):
        for artifact_type in ("table", "dataset", "workbook"):
            result = providers.of_type(req({"artifact_type": artifact_type}))
            assert self.items(result) == self.per_id_items(
                providers, store.by_type(artifact_type), rank=True
            )
        result = providers.most_viewed(req(limit=15))
        ranked = [aid for aid, _ in store.usage.most_viewed(limit=15)]
        assert self.items(result) == self.per_id_items(
            providers, ranked, rank=False
        )
        table = store.by_type("table")[0]
        result = providers.similar(req({"artifact": table}, limit=8))
        assert self.items(result) == self.per_id_items(
            providers, result.artifact_ids(), rank=False
        )

    def test_equal_to_per_id_bodies(self):
        store = generate_catalog(SynthConfig(seed=3, n_tables=30))
        providers = BuiltinProviders(store)
        self.check(providers, store)
        # Ghost ids (a stale usage log entry) are skipped, as before.
        assert self.items(providers._list(["ghost"], Representation.LIST)) \
            == []

    def test_re_registered_views_resolver_is_honoured(self):
        store = generate_catalog(SynthConfig(seed=3, n_tables=30))
        providers = BuiltinProviders(store)
        bias = {aid: float(len(aid) % 7) for aid in store.artifact_ids()}
        providers.resolver.register("views", lambda aid: bias[aid])
        self.check(providers, store)
        ids = store.by_type("table")
        assert providers._rank_by_views(ids) == sorted(
            ids, key=lambda aid: (-bias[aid], aid)
        )


class TestGroupIdsBy:
    def test_group_by_owner(self, tiny_store):
        categories = group_ids_by(
            tiny_store, tiny_store.artifact_ids(), "owner"
        )
        by_name = {c.name: set(c.artifact_ids) for c in categories}
        assert by_name["u-ann"] == {"t-orders", "v-orders"}

    def test_group_by_multivalue_field(self, tiny_store):
        categories = group_ids_by(
            tiny_store, tiny_store.artifact_ids(), "tags"
        )
        by_name = {c.name: set(c.artifact_ids) for c in categories}
        assert "t-customers" in by_name["crm"]
        assert len(by_name["sales"]) == 5

    def test_skips_missing_artifacts(self, tiny_store):
        categories = group_ids_by(tiny_store, ["ghost", "t-web"], "type")
        assert [c.name for c in categories] == ["table"]
