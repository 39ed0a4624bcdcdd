"""Tests for joinability, similarity ensembles, and embeddings."""

import sys
import threading

import pytest

from repro.catalog.model import Artifact, Column
from repro.catalog.store import CatalogStore
from repro.metadata.embedding import EmbeddingIndex
from repro.metadata.joinability import JoinabilityIndex
from repro.metadata.similarity import (
    EnsembleSimilarity,
    SchemaSimilarity,
    SemanticSimilarity,
)
from repro.metadata.sketches import LshIndex
from repro.providers.base import ProviderRequest, RequestContext
from repro.providers.builtin import BuiltinProviders
from repro.providers.extended import ExtendedProviders
from repro.synth import SynthConfig, generate_catalog
from tests import relatedness_reference as ref


class TestJoinability:
    def test_finds_shared_key_join(self, tiny_store):
        index = JoinabilityIndex(tiny_store)
        edges = index.joinable("t-orders")
        partners = {e.dst for e in edges}
        # ORDERS.customer_id overlaps CUSTOMERS.customer_id (20/40 values)
        assert "t-customers" in partners
        edge = next(e for e in edges if e.dst == "t-customers")
        assert edge.src_column == "customer_id"
        assert edge.dst_column == "customer_id"
        assert 0.2 < edge.score <= 1.0

    def test_unrelated_table_not_joinable(self, tiny_store):
        index = JoinabilityIndex(tiny_store)
        partners = {e.dst for e in index.joinable("t-orders")}
        assert "t-web" not in partners

    def test_join_graph_contains_anchor(self, tiny_store):
        index = JoinabilityIndex(tiny_store)
        nodes, edges = index.join_graph("t-orders")
        assert "t-orders" in nodes
        assert all(e.src in nodes and e.dst in nodes for e in edges)

    def test_columns_without_samples_skipped(self, tiny_store):
        index = JoinabilityIndex(tiny_store).build()
        # "amount" and "name" have no samples: only 4 sketchable columns
        assert index.sketch_count == 4

    def test_non_tabular_artifacts_not_sketched(self, tiny_store):
        index = JoinabilityIndex(tiny_store)
        assert index.add_artifact(tiny_store.artifact("d-sales")) == 0

    def test_remove_artifact(self, tiny_store):
        index = JoinabilityIndex(tiny_store).build()
        index.remove_artifact("t-customers")
        partners = {e.dst for e in index.joinable("t-orders")}
        assert "t-customers" not in partners

    def test_build_idempotent(self, tiny_store):
        index = JoinabilityIndex(tiny_store)
        index.build()
        count = index.sketch_count
        index.build()
        assert index.sketch_count == count

    def test_bulk_build_equals_per_column_sketches(self, synth_store):
        """One batched build gives every column the signature and band
        buckets that sketching it on its own gives, and the same edges."""
        bulk = JoinabilityIndex(synth_store).build()
        reference = ref.ReferenceJoinability(synth_store)
        assert len(reference.lsh.signatures) == bulk.sketch_count > 0
        single = LshIndex(num_perm=64, bands=32)
        for key, signature in reference.lsh.signatures.items():
            assert bulk._lsh.signature_of(key) == signature
            single.add(key, signature)

        def buckets(lsh):
            return [
                {band_key: {lsh._keys[row] for row in rows}
                 for band_key, rows in band.items()}
                for band in lsh._buckets
            ]

        assert buckets(bulk._lsh) == buckets(single)
        # The same partition into buckets as the tuple-keyed reference.
        for band, members in zip(reference.lsh.buckets, buckets(bulk._lsh)):
            assert sorted(map(sorted, members.values())) == sorted(
                sorted(keys) for keys in band.values() if keys
            )
        for artifact_id in synth_store.artifact_ids():
            assert bulk.joinable(artifact_id) == \
                reference.joinable(artifact_id)

    def test_synth_catalog_has_join_structure(self, synth_store):
        index = JoinabilityIndex(synth_store)
        tables = synth_store.by_type("table")
        with_joins = sum(
            1 for table_id in tables[:20] if index.joinable(table_id)
        )
        assert with_joins >= 10  # shared key columns create join paths


class TestSemanticSimilarity:
    def test_similar_shares_vocabulary(self, tiny_store):
        sim = SemanticSimilarity(tiny_store)
        hits = sim.similar("t-orders")
        ids = [h.artifact_id for h in hits]
        assert "v-orders" in ids  # "Orders Chart ... over ORDERS"

    def test_search(self, tiny_store):
        sim = SemanticSimilarity(tiny_store)
        hits = sim.search("customer dimension")
        assert hits[0].artifact_id == "t-customers"

    def test_scores_in_range(self, tiny_store):
        for hit in SemanticSimilarity(tiny_store).similar("t-orders"):
            assert 0.0 <= hit.score <= 1.0


class TestSchemaSimilarity:
    def test_shared_columns_score(self, tiny_store):
        sim = SchemaSimilarity(tiny_store)
        hits = sim.similar("t-orders")
        ids = {h.artifact_id for h in hits}
        assert "t-customers" in ids  # shares customer_id:integer

    def test_no_columns_no_hits(self, tiny_store):
        assert SchemaSimilarity(tiny_store).similar("d-sales") == []

    def test_score_is_jaccard(self, tiny_store):
        sim = SchemaSimilarity(tiny_store)
        hit = next(
            h for h in sim.similar("t-orders")
            if h.artifact_id == "t-customers"
        )
        # ORDERS {order_id, customer_id, amount}, CUSTOMERS {customer_id,
        # name} -> intersection 1, union 4
        assert hit.score == pytest.approx(0.25)


class TestEnsemble:
    def test_combines_measures(self, tiny_store):
        ensemble = EnsembleSimilarity(tiny_store)
        hits = ensemble.similar("t-orders")
        assert hits  # non-empty
        ids = [h.artifact_id for h in hits]
        assert "t-customers" in ids

    def test_weights_validated(self, tiny_store):
        with pytest.raises(ValueError, match="unknown similarity measures"):
            EnsembleSimilarity(tiny_store, weights={"embeddings": 1.0})

    def test_zero_weight_disables_measure(self, tiny_store):
        semantic_only = EnsembleSimilarity(
            tiny_store, weights={"semantic": 1.0, "schema": 0.0}
        )
        schema_only = EnsembleSimilarity(
            tiny_store, weights={"semantic": 0.0, "schema": 1.0}
        )
        semantic_ids = [h.artifact_id for h in semantic_only.similar("t-orders")]
        schema_ids = [h.artifact_id for h in schema_only.similar("t-orders")]
        assert semantic_ids != schema_ids

    def test_sorted_descending(self, tiny_store):
        hits = EnsembleSimilarity(tiny_store).similar("t-orders")
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)


class TestEmbedding:
    def test_every_artifact_gets_coordinates(self, tiny_store):
        index = EmbeddingIndex(tiny_store)
        coords = index.all_coordinates()
        assert set(coords) == set(tiny_store.artifact_ids())

    def test_deterministic(self, tiny_store):
        a = EmbeddingIndex(tiny_store).all_coordinates()
        b = EmbeddingIndex(tiny_store).all_coordinates()
        assert a == b

    def test_unknown_artifact_origin(self, tiny_store):
        assert EmbeddingIndex(tiny_store).coordinates("ghost") == (0.0, 0.0)

    def test_coordinates_not_all_identical(self, tiny_store):
        coords = EmbeddingIndex(tiny_store).all_coordinates()
        assert len({xy for xy in coords.values()}) > 1

    def test_invalidate_recomputes(self, tiny_store):
        index = EmbeddingIndex(tiny_store)
        index.build()
        tiny_store.record("t-web", "u-ann", "view")
        index.invalidate()
        coords = index.all_coordinates()
        assert set(coords) == set(tiny_store.artifact_ids())

    def test_empty_store(self):
        from repro.catalog.store import CatalogStore

        index = EmbeddingIndex(CatalogStore())
        assert index.all_coordinates() == {}

    def test_single_artifact(self):
        from repro.catalog.store import CatalogStore

        store = CatalogStore()
        store.add_artifact(Artifact(id="a", name="A", artifact_type="table",
                                    columns=(Column("x", "integer"),)))
        coords = EmbeddingIndex(store).all_coordinates()
        assert coords == {"a": (0.0, 0.0)}

    def test_text_dims_validation(self, tiny_store):
        with pytest.raises(ValueError):
            EmbeddingIndex(tiny_store, text_dims=1)


class TestIndexFreshness:
    """Long-lived relatedness providers answer exactly like fresh ones
    after writes: the indexes follow the store's event log."""

    @pytest.fixture(params=("memory", "sqlite"))
    def store(self, request, tmp_path):
        config = SynthConfig(seed=5, n_tables=16, n_users=4, n_teams=2)
        if request.param == "memory":
            yield generate_catalog(config)
            return
        store = CatalogStore.open(tmp_path / "catalog.db")
        generate_catalog(config, store=store)
        yield store
        store.close()

    @staticmethod
    def lookups(store, providers, extended):
        answers = {}
        for aid in store.artifact_ids():
            request = ProviderRequest(inputs={"artifact": aid},
                                      context=RequestContext(limit=8))
            answers[aid] = (providers.similar(request),
                            providers.joinable(request),
                            extended.unionable(request))
        return answers

    def assert_fresh(self, store, providers, extended):
        assert self.lookups(store, providers, extended) == self.lookups(
            store, BuiltinProviders(store), ExtendedProviders(store)
        )

    @staticmethod
    def clone(store, source_id, clone_id):
        source = store.artifact(source_id)
        return store.add_artifact(Artifact(
            id=clone_id, name=source.name, artifact_type=source.artifact_type,
            description=source.description, tags=source.tags,
            columns=source.columns,
        ))

    def test_added_clone_ranks_first_and_joins(self, store):
        providers = BuiltinProviders(store)
        table = next(
            aid for aid in store.by_type("table")
            if providers.joinability.joinable(aid)
        )
        request = ProviderRequest(inputs={"artifact": table})
        providers.similar(request)
        self.clone(store, table, "zz-clone")
        assert providers.similar(request).artifact_ids()[0] == "zz-clone"
        assert "zz-clone" in providers.joinable(request).nodes

    def test_adds_badges_and_reindex_match_fresh_providers(self, store):
        providers = BuiltinProviders(store)
        extended = ExtendedProviders(store)
        self.assert_fresh(store, providers, extended)
        tables = store.by_type("table")
        grantor = store.users()[0].id
        writes = (
            lambda: self.clone(store, tables[0], "zz-a"),
            lambda: store.grant_badge(tables[1], "endorsed", grantor),
            lambda: self.clone(store, tables[2], "zz-b"),
            lambda: store.clear_token_cache(),
            lambda: store.add_artifact(Artifact(
                id="zz-c", name="orders daily", artifact_type="table",
                columns=store.artifact(tables[3]).columns[:1],
            )),
        )
        for write in writes:
            write()
            self.assert_fresh(store, providers, extended)

    def test_badge_grant_reindexes_nothing(self, store):
        providers = BuiltinProviders(store)
        indexes = (providers.similarity.semantic,
                   providers.similarity.schema, providers.joinability)
        for index in indexes:
            index.build()
        puts = []
        for index in indexes:
            original = index._put
            index._put = lambda aid, content, original=original: (
                puts.append(aid), original(aid, content))
        table = store.by_type("table")[0]
        store.grant_badge(table, "endorsed", store.users()[0].id)
        for index in indexes:
            index.build()
        assert puts == []
        self.clone(store, table, "zz-clone")
        for index in indexes:
            index.build()
        assert puts == ["zz-clone"] * 3

    def test_truncated_log_rebuilds(self, store):
        providers = BuiltinProviders(store)
        extended = ExtendedProviders(store)
        self.assert_fresh(store, providers, extended)
        self.clone(store, store.by_type("table")[0], "zz-clone")
        store.events.truncate()
        rebuilds = []
        index = providers.joinability
        original = index._rebuild
        index._rebuild = lambda: (rebuilds.append(1), original())
        self.assert_fresh(store, providers, extended)
        assert rebuilds == [1]

    def test_concurrent_lookups_during_writes(self, store):
        """Readers on several threads share the indexes while a writer
        adds artifacts: no lookup fails, and once the writer is done the
        long-lived indexes answer like fresh ones."""
        providers = BuiltinProviders(store)
        extended = ExtendedProviders(store)
        tables = store.by_type("table")[:6]
        errors = []
        done = threading.Event()

        def read():
            try:
                while not done.is_set():
                    for aid in tables:
                        request = ProviderRequest(inputs={"artifact": aid})
                        providers.similar(request)
                        providers.joinable(request)
                        extended.unionable(request)
            except Exception as error:  # reported below
                errors.append(error)

        def write():
            try:
                for number in range(12):
                    self.clone(store, tables[number % len(tables)],
                               f"zz-{number:02d}")
            finally:
                done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=read) for _ in range(4)]
            threads.append(threading.Thread(target=write))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        self.assert_fresh(store, providers, extended)
