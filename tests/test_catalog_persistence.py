"""Round-trip tests for catalog persistence."""

import json

import pytest

from repro.catalog.persistence import (
    FORMAT_VERSION,
    catalog_from_dict,
    catalog_to_dict,
    load_catalog,
    save_catalog,
)
from repro.errors import CatalogError


class TestRoundTrip:
    def test_entities_survive(self, tiny_store, tmp_path):
        path = save_catalog(tiny_store, tmp_path / "catalog.json")
        loaded = load_catalog(path)
        assert loaded.artifact_count == tiny_store.artifact_count
        assert loaded.user_count == tiny_store.user_count
        assert loaded.team_count == tiny_store.team_count
        assert loaded.artifact_ids() == tiny_store.artifact_ids()

    def test_artifact_details_survive(self, tiny_store, tmp_path):
        loaded = load_catalog(save_catalog(tiny_store, tmp_path / "c.json"))
        orders = loaded.artifact("t-orders")
        original = tiny_store.artifact("t-orders")
        assert orders.name == original.name
        assert orders.columns == original.columns
        assert orders.badges == original.badges
        assert orders.tags == original.tags
        assert orders.created_at == original.created_at

    def test_usage_and_indexes_rebuilt(self, tiny_store, tmp_path):
        loaded = load_catalog(save_catalog(tiny_store, tmp_path / "c.json"))
        assert (
            loaded.usage_stats("t-orders").view_count
            == tiny_store.usage_stats("t-orders").view_count
        )
        assert loaded.by_badge("endorsed") == tiny_store.by_badge("endorsed")
        assert loaded.by_owner("u-ann") == tiny_store.by_owner("u-ann")

    def test_lineage_survives(self, tiny_store, tmp_path):
        loaded = load_catalog(save_catalog(tiny_store, tmp_path / "c.json"))
        assert loaded.lineage.edges() == tiny_store.lineage.edges()

    def test_clock_restored(self, tiny_store, tmp_path):
        loaded = load_catalog(save_catalog(tiny_store, tmp_path / "c.json"))
        assert loaded.clock.now() == tiny_store.clock.now()
        assert loaded.clock.epoch == tiny_store.clock.epoch

    def test_double_round_trip_is_stable(self, tiny_store, tmp_path):
        once = catalog_to_dict(tiny_store)
        twice = catalog_to_dict(catalog_from_dict(once))
        assert once == twice

    def test_search_and_index_sizes_match_fresh_rebuild(self, tiny_store,
                                                        tmp_path):
        loaded = load_catalog(save_catalog(tiny_store, tmp_path / "c.json"))
        for token in ("orders", "revenue", "the"):
            assert loaded.search_tokens([token]) == \
                tiny_store.search_tokens([token])
        for kind, key in [("type", "table"), ("badge", "endorsed"),
                          ("owner", "u-ann"), ("token", "orders")]:
            assert loaded.index_size(kind, key) == \
                tiny_store.index_size(kind, key), (kind, key)


class TestVersionCounters:
    """Format v2 round-trips the per-domain mutation counters, so engine
    caches keyed on ``(domain, version)`` stay coherent across a reload."""

    def test_v2_payload_carries_counters(self, tiny_store):
        payload = catalog_to_dict(tiny_store)
        assert payload["domain_versions"] == tiny_store.domain_versions
        assert payload["total_version"] == tiny_store.version

    def test_reloaded_counters_never_regress(self, tiny_store, tmp_path):
        loaded = load_catalog(save_catalog(tiny_store, tmp_path / "c.json"))
        for domain, counter in tiny_store.domain_versions.items():
            assert loaded.domain_version(domain) >= counter, domain
        assert loaded.version >= tiny_store.version

    def test_v1_payload_loads_with_conservative_full_bump(self, tiny_store):
        payload = catalog_to_dict(tiny_store)
        payload["version"] = 1
        del payload["domain_versions"]
        del payload["total_version"]
        legacy = catalog_from_dict(payload)

        # Reference: the same records loaded with no counter restoration.
        reference_payload = dict(payload, version=FORMAT_VERSION)
        reference = catalog_from_dict(reference_payload)

        # Content is identical...
        assert legacy.artifact_ids() == reference.artifact_ids()
        # ...but every domain got exactly one extra conservative bump.
        for domain, counter in reference.domain_versions.items():
            assert legacy.domain_version(domain) == counter + 1, domain


class TestFormat:
    def test_unknown_version_rejected(self, tiny_store):
        payload = catalog_to_dict(tiny_store)
        payload["version"] = 99
        with pytest.raises(CatalogError, match="version"):
            catalog_from_dict(payload)

    def test_file_is_valid_json(self, tiny_store, tmp_path):
        path = save_catalog(tiny_store, tmp_path / "c.json")
        payload = json.loads(path.read_text())
        assert payload["version"] == FORMAT_VERSION
        assert len(payload["artifacts"]) == 6

    def test_save_creates_parent_dirs(self, tiny_store, tmp_path):
        path = save_catalog(tiny_store, tmp_path / "deep" / "dir" / "c.json")
        assert path.exists()
