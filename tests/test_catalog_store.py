"""Unit tests for CatalogStore: entities, indexes, events."""

import pytest

from repro.catalog.model import Artifact, ArtifactType, Team, UsageEvent, User
from repro.errors import DuplicateEntityError, UnknownEntityError


class TestEntities:
    def test_counts(self, tiny_store):
        assert tiny_store.artifact_count == 6
        assert tiny_store.user_count == 4
        assert tiny_store.team_count == 2
        assert len(tiny_store) == 6

    def test_duplicate_artifact_rejected(self, tiny_store):
        with pytest.raises(DuplicateEntityError):
            tiny_store.add_artifact(
                Artifact(id="t-orders", name="X", artifact_type="table")
            )

    def test_duplicate_user_rejected(self, tiny_store):
        with pytest.raises(DuplicateEntityError):
            tiny_store.add_user(User(id="u-ann", name="Other"))

    def test_unknown_lookups_raise(self, tiny_store):
        with pytest.raises(UnknownEntityError):
            tiny_store.artifact("nope")
        with pytest.raises(UnknownEntityError):
            tiny_store.user("nope")
        with pytest.raises(UnknownEntityError):
            tiny_store.team("nope")

    def test_unknown_entity_error_is_keyerror(self, tiny_store):
        with pytest.raises(KeyError):
            tiny_store.artifact("nope")

    def test_artifacts_iterate_in_id_order(self, tiny_store):
        ids = [a.id for a in tiny_store.artifacts()]
        assert ids == sorted(ids)

    def test_resolve_skips_missing(self, tiny_store):
        resolved = tiny_store.resolve(["t-orders", "ghost", "w-q1"])
        assert [a.id for a in resolved] == ["t-orders", "w-q1"]

    def test_find_user_by_name_case_insensitive(self, tiny_store):
        assert tiny_store.find_user_by_name("ann lee").id == "u-ann"
        assert tiny_store.find_user_by_name("Nobody") is None

    def test_find_user_by_name_ambiguous_returns_none(self, tiny_store):
        """Two users sharing a display name: resolving by name must not
        silently pick one (it used to return whichever was added last)."""
        tiny_store.add_user(User(id="u-ann2", name="Ann Lee", role="intern"))
        assert tiny_store.find_user_by_name("Ann Lee") is None
        assert tiny_store.find_user_by_name("ann lee") is None
        # unambiguous names keep resolving
        assert tiny_store.find_user_by_name("Bob Ray").id == "u-bob"

    def test_find_user_by_name_survives_many_collisions(self, tiny_store):
        for index in range(3):
            tiny_store.add_user(User(id=f"u-dup{index}", name="Same Name"))
        assert tiny_store.find_user_by_name("Same Name") is None

    def test_teams_of_uses_both_sides(self, tiny_store):
        tiny_store.add_user(User(id="u-new", name="New", team_ids=("t-2",)))
        teams = tiny_store.teams_of("u-new")
        assert [t.id for t in teams] == ["t-2"]

    def test_set_team_replaces(self, tiny_store):
        team = tiny_store.team("t-1")
        tiny_store.set_team(Team(id="t-1", name=team.name,
                                 admin_ids=team.admin_ids + ("u-dee",),
                                 member_ids=team.member_ids))
        assert tiny_store.team("t-1").is_admin("u-dee")

    def test_set_team_unknown_raises(self, tiny_store):
        with pytest.raises(UnknownEntityError):
            tiny_store.set_team(Team(id="t-9", name="Ghost"))

    def test_set_user_renames(self, tiny_store):
        before = tiny_store.domain_version("membership")
        user = tiny_store.user("u-ann")
        tiny_store.set_user(User(id="u-ann", name="Ann Park", role=user.role,
                                 team_ids=user.team_ids))
        assert tiny_store.user("u-ann").name == "Ann Park"
        assert tiny_store.find_user_by_name("Ann Lee") is None
        assert tiny_store.find_user_by_name("Ann Park").id == "u-ann"
        assert tiny_store.domain_version("membership") == before + 1

    def test_set_user_unknown_raises(self, tiny_store):
        with pytest.raises(UnknownEntityError):
            tiny_store.set_user(User(id="u-ghost", name="Ghost"))


class TestIndexes:
    def test_by_type(self, tiny_store):
        assert tiny_store.by_type("table") == [
            "t-customers", "t-orders", "t-web",
        ]
        assert tiny_store.by_type(ArtifactType.WORKBOOK) == ["w-q1"]

    def test_by_owner(self, tiny_store):
        assert tiny_store.by_owner("u-ann") == ["t-orders", "v-orders"]

    def test_by_badge(self, tiny_store):
        assert tiny_store.by_badge("endorsed") == ["d-sales", "t-orders"]

    def test_by_badge_with_grantor(self, tiny_store):
        assert tiny_store.by_badge("endorsed", granted_by="u-bob") == [
            "t-orders"
        ]
        assert tiny_store.by_badge("endorsed", granted_by="u-ann") == [
            "d-sales"
        ]

    def test_by_tag(self, tiny_store):
        assert "t-customers" in tiny_store.by_tag("crm")
        assert tiny_store.by_tag("CRM") == tiny_store.by_tag("crm")

    def test_by_team(self, tiny_store):
        assert set(tiny_store.by_team("t-2")) == {"t-web", "w-q1"}

    def test_by_token(self, tiny_store):
        assert "t-orders" in tiny_store.by_token("orders")
        assert "t-orders" in tiny_store.by_token("ORDERS")

    def test_search_tokens_conjunctive(self, tiny_store):
        assert tiny_store.search_tokens(["sales", "dashboard"]) == ["d-sales"]
        assert tiny_store.search_tokens(["sales", "zebra"]) == []

    def test_badges_and_tags_in_use(self, tiny_store):
        assert tiny_store.badges_in_use() == ["certified", "endorsed"]
        assert "crm" in tiny_store.tags_in_use()

    def test_grant_badge_reindexes(self, tiny_store):
        tiny_store.grant_badge("t-web", "endorsed", "u-bob")
        assert "t-web" in tiny_store.by_badge("endorsed")
        assert tiny_store.artifact("t-web").has_badge("endorsed")

    def test_grant_badge_unknown_grantor(self, tiny_store):
        with pytest.raises(UnknownEntityError):
            tiny_store.grant_badge("t-web", "endorsed", "nobody")


class TestEvents:
    def test_record_validates_entities(self, tiny_store):
        with pytest.raises(UnknownEntityError):
            tiny_store.record_event(UsageEvent("ghost", "u-ann", "view", 1.0))
        with pytest.raises(UnknownEntityError):
            tiny_store.record_event(UsageEvent("t-orders", "ghost", "view", 1.0))

    def test_usage_stats_flow(self, tiny_store):
        stats = tiny_store.usage_stats("t-orders")
        assert stats.view_count == 7
        assert stats.favorite_count == 1
        assert stats.unique_viewers == 2

    def test_record_convenience_uses_clock(self, tiny_store):
        before = tiny_store.clock.now()
        tiny_store.record("t-web", "u-cyd", "view")
        assert tiny_store.usage_stats("t-web").last_viewed_at == before

    def test_filter_artifacts(self, tiny_store):
        tables = tiny_store.filter_artifacts(
            lambda a: a.artifact_type is ArtifactType.TABLE
        )
        assert len(tables) == 3
