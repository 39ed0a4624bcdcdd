"""Tests for the synthetic catalog generator and workload."""

import pytest

from repro.catalog.model import ArtifactType
from repro.synth.generator import SynthConfig, generate_catalog, study_catalog
from repro.synth.workload import (
    WorkloadConfig,
    burst_usage,
    generate_usage,
    query_pool,
    zipf_weights,
)


class TestConfig:
    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(n_users=0)
        with pytest.raises(ValueError):
            SynthConfig(n_tables=0)

    def test_invalid_badge_ratio(self):
        with pytest.raises(ValueError):
            SynthConfig(badge_ratio=1.5)


class TestGenerator:
    def test_determinism(self):
        a = generate_catalog(SynthConfig(seed=5, n_tables=30, usage_events=200))
        b = generate_catalog(SynthConfig(seed=5, n_tables=30, usage_events=200))
        assert a.artifact_ids() == b.artifact_ids()
        assert [u.id for u in a.users()] == [u.id for u in b.users()]
        names_a = [x.name for x in a.artifacts()]
        names_b = [x.name for x in b.artifacts()]
        assert names_a == names_b
        assert len(a.usage) == len(b.usage)

    def test_different_seeds_differ(self):
        a = generate_catalog(SynthConfig(seed=1, n_tables=30, usage_events=0))
        b = generate_catalog(SynthConfig(seed=2, n_tables=30, usage_events=0))
        assert [x.name for x in a.artifacts()] != [x.name for x in b.artifacts()]

    def test_requested_table_count(self, synth_store):
        assert len(synth_store.by_type("table")) == 60

    def test_all_artifact_types_present(self, synth_store):
        for artifact_type in ArtifactType:
            assert synth_store.by_type(artifact_type), artifact_type

    def test_owners_and_teams_valid(self, synth_store):
        user_ids = {u.id for u in synth_store.users()}
        team_ids = {t.id for t in synth_store.teams()}
        for artifact in synth_store.artifacts():
            assert artifact.owner_id in user_ids
            for team_id in artifact.team_ids:
                assert team_id in team_ids

    def test_badges_granted_within_horizon(self, synth_store):
        now = synth_store.clock.now()
        for artifact in synth_store.artifacts():
            for badge in artifact.badges:
                assert badge.granted_at <= now

    def test_created_before_now(self, synth_store):
        now = synth_store.clock.now()
        for artifact in synth_store.artifacts():
            assert artifact.created_at < now

    def test_lineage_derived_after_source(self, synth_store):
        for edge in synth_store.lineage.edges():
            src = synth_store.artifact(edge.src)
            dst = synth_store.artifact(edge.dst)
            assert src.created_at <= dst.created_at

    def test_tables_have_key_columns(self, synth_store):
        key_names = {"customer_id", "order_id", "product_id",
                     "account_id", "region_id", "event_date"}
        for table_id in synth_store.by_type("table")[:10]:
            columns = {c.name for c in synth_store.artifact(table_id).columns}
            assert columns & key_names

    def test_every_team_has_admin(self, synth_store):
        for team in synth_store.teams():
            assert team.admin_ids


class TestStudyCatalog:
    def test_study_entities_present(self):
        store = study_catalog()
        airlines = store.artifact("table-airlines")
        assert airlines.name == "AIRLINES"
        assert airlines.has_badge("endorsed", granted_by="user-mike")
        assert airlines.owner_id == "user-alex"
        assert store.user("user-john").name == "John Doe"

    def test_flagship_query_target_exists(self):
        store = study_catalog()
        sales = store.artifact("table-sales-numbers")
        assert sales.owner_id == "user-alex"
        assert sales.has_badge("endorsed", granted_by="user-mike")
        assert "sales" in sales.searchable_text().lower()

    def test_john_has_exactly_three_workbooks(self):
        store = study_catalog()
        workbooks = [
            aid for aid in store.by_owner("user-john")
            if store.artifact(aid).artifact_type is ArtifactType.WORKBOOK
        ]
        assert len(workbooks) == 3

    def test_task2_peers_share_type_and_badge(self):
        store = study_catalog()
        endorsed_tables = [
            aid for aid in store.by_badge("endorsed")
            if store.artifact(aid).artifact_type is ArtifactType.TABLE
        ]
        assert len(endorsed_tables) >= 3  # AIRLINES plus peers

    def test_a_team_exists(self):
        store = study_catalog()
        assert any(t.name == "A Team" for t in store.teams())


class TestWorkload:
    def test_zipf_weights_shape(self):
        weights = zipf_weights(5, 1.0)
        assert weights[0] == 1.0
        assert weights == sorted(weights, reverse=True)

    def test_zipf_weights_negative_n(self):
        with pytest.raises(ValueError):
            zipf_weights(-1, 1.0)

    def test_share_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            WorkloadConfig(view_share=0.9)

    def test_zipf_s_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(zipf_s=0.0)

    def test_events_are_causally_consistent(self):
        store = generate_catalog(SynthConfig(seed=9, n_tables=20,
                                             usage_events=500))
        for event in store.usage.events():
            artifact = store.artifact(event.artifact_id)
            assert event.timestamp >= min(artifact.created_at,
                                          store.clock.now() - 1.0)
            assert event.timestamp <= store.clock.now()

    def test_skew_concentrates_views(self):
        store = generate_catalog(SynthConfig(seed=9, n_tables=50,
                                             usage_events=3000))
        ranked = store.usage.most_viewed(limit=1000)
        total = sum(count for _, count in ranked)
        top10 = sum(count for _, count in ranked[:10])
        assert top10 / total > 0.25  # heavy head

    def test_empty_store_no_events(self):
        from repro.catalog.store import CatalogStore

        store = CatalogStore()
        assert generate_usage(store, WorkloadConfig(n_events=10)) == 0

    def test_burst_usage_recent(self, tiny_store):
        before = tiny_store.usage_stats("t-web").view_count
        burst_usage(tiny_store, "t-web", ["u-ann", "u-bob"], views=6)
        stats = tiny_store.usage_stats("t-web")
        assert stats.view_count == before + 6
        assert tiny_store.clock.days_since(stats.last_viewed_at) <= 7.0

    def test_query_pool_leads_with_study_tasks_and_has_no_duplicates(self):
        store = generate_catalog(SynthConfig(seed=9, n_tables=20,
                                             usage_events=200))
        pool = query_pool(store)
        assert pool[:4] == [
            "badged: endorsed", "AIRLINES", "type: table", "type: workbook",
        ]
        assert len(pool) == len(set(pool))
        badge = store.badges_in_use()[0]
        assert f"badged: {badge} & type: table" in pool


class TestIngestionRegistry:
    """generate_catalog as a fingerprinted, incremental ingestion pipeline."""

    def test_fingerprint_is_config_sensitive(self):
        from repro.synth.generator import synth_fingerprint

        base = SynthConfig(seed=7, n_tables=40)
        assert synth_fingerprint(base) == synth_fingerprint(
            SynthConfig(seed=7, n_tables=40)
        )
        assert synth_fingerprint(base) != synth_fingerprint(
            SynthConfig(seed=8, n_tables=40)
        )

    def test_usage_fingerprint_ignores_entity_knobs(self):
        from repro.synth.generator import synth_ingestors

        def usage_fp(config):
            registry = synth_ingestors(config)
            return {i.name: i.fingerprint
                    for i in registry._ingestors}["synth:usage"]

        base = SynthConfig(seed=7, n_tables=40)
        assert usage_fp(base) == usage_fp(
            SynthConfig(seed=7, n_tables=99, n_dashboards=1)
        )
        assert usage_fp(base) != usage_fp(
            SynthConfig(seed=7, n_tables=40, usage_events=5)
        )

    def test_registry_matches_direct_generation(self):
        config = SynthConfig(seed=11, n_tables=30)
        direct = generate_catalog(config)
        again = generate_catalog(config)
        assert direct.artifact_ids() == again.artifact_ids()
        assert len(direct.usage) == len(again.usage)

    def test_second_ingest_is_a_noop(self, tmp_path):
        from repro.catalog.store import CatalogStore
        from repro.synth.generator import synth_ingestors

        config = SynthConfig(seed=7, n_tables=25, usage_events=100)
        with CatalogStore.open(tmp_path / "c.db") as store:
            first = synth_ingestors(config).ingest_into(store)
            count = store.artifact_count
        with CatalogStore.open(tmp_path / "c.db") as store:
            second = synth_ingestors(config).ingest_into(store)
            assert store.artifact_count == count
        assert set(first.values()) == {"applied"}
        assert set(second.values()) == {"skipped"}

    def test_changed_config_is_refused(self, tmp_path):
        from repro.catalog.store import CatalogStore
        from repro.errors import CatalogError
        from repro.synth.generator import synth_ingestors

        with CatalogStore.open(tmp_path / "c.db") as store:
            synth_ingestors(
                SynthConfig(seed=7, n_tables=25, usage_events=100)
            ).ingest_into(store)
        with CatalogStore.open(tmp_path / "c.db") as store:
            with pytest.raises(CatalogError, match="different"):
                synth_ingestors(
                    SynthConfig(seed=9, n_tables=25, usage_events=100)
                ).ingest_into(store)

    def test_new_ingestor_applies_incrementally(self, tmp_path):
        """Extending a pipeline applies only the new member — the
        incremental contract of the registry."""
        from repro.catalog.model import Artifact
        from repro.catalog.store import CatalogStore
        from repro.synth.generator import synth_ingestors

        config = SynthConfig(seed=7, n_tables=25, usage_events=100)
        with CatalogStore.open(tmp_path / "c.db") as store:
            synth_ingestors(config).ingest_into(store)
        with CatalogStore.open(tmp_path / "c.db") as store:
            registry = synth_ingestors(config)
            registry.register(
                "extra:marker", "fp-1",
                lambda s: s.add_artifact(Artifact(
                    id="extra-1", name="EXTRA", artifact_type="table")),
            )
            outcomes = registry.ingest_into(store)
            assert outcomes["synth:entities"] == "skipped"
            assert outcomes["extra:marker"] == "applied"
            assert store.has_artifact("extra-1")
