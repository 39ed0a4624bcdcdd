"""Tests for MinHash sketches and LSH."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metadata import sketches
from repro.metadata.sketches import (
    LshIndex,
    MinHasher,
    containment,
    exact_jaccard,
    stable_hash,
)
from tests import relatedness_reference as ref


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("abc") == stable_hash("abc")

    def test_32_bit(self):
        assert 0 <= stable_hash("anything") < 2**32

    def test_distinct_inputs(self):
        assert stable_hash("a") != stable_hash("b")


class TestExactMeasures:
    def test_jaccard_identical(self):
        assert exact_jaccard({"a", "b"}, {"a", "b"}) == 1.0

    def test_jaccard_disjoint(self):
        assert exact_jaccard({"a"}, {"b"}) == 0.0

    def test_jaccard_empty(self):
        assert exact_jaccard(set(), set()) == 0.0

    def test_jaccard_partial(self):
        assert exact_jaccard({"a", "b"}, {"b", "c"}) == pytest.approx(1 / 3)

    def test_containment(self):
        assert containment({"a", "b"}, {"a", "b", "c"}) == 1.0
        assert containment({"a", "b"}, {"a"}) == 0.5
        assert containment(set(), {"a"}) == 0.0


class TestMinHasher:
    def test_signature_length(self):
        hasher = MinHasher(num_perm=32)
        assert len(hasher.signature(["a", "b"])) == 32

    def test_deterministic_across_instances(self):
        sig1 = MinHasher(num_perm=32, seed=1).signature(["x", "y"])
        sig2 = MinHasher(num_perm=32, seed=1).signature(["x", "y"])
        assert sig1 == sig2

    def test_order_and_duplicates_irrelevant(self):
        hasher = MinHasher()
        assert hasher.signature(["a", "b", "a"]) == hasher.signature(["b", "a"])

    def test_identical_sets_estimate_one(self):
        hasher = MinHasher()
        values = [f"v{i}" for i in range(50)]
        assert hasher.signature(values).jaccard(hasher.signature(values)) == 1.0

    def test_disjoint_sets_estimate_near_zero(self):
        hasher = MinHasher(num_perm=128)
        a = hasher.signature([f"a{i}" for i in range(100)])
        b = hasher.signature([f"b{i}" for i in range(100)])
        assert a.jaccard(b) < 0.1

    def test_estimate_tracks_exact(self):
        hasher = MinHasher(num_perm=256)
        left = {f"v{i}" for i in range(100)}
        right = {f"v{i}" for i in range(50, 150)}
        exact = exact_jaccard(left, right)
        estimate = hasher.signature(left).jaccard(hasher.signature(right))
        assert abs(estimate - exact) < 0.12

    def test_length_mismatch_raises(self):
        a = MinHasher(num_perm=16).signature(["x"])
        b = MinHasher(num_perm=32).signature(["x"])
        with pytest.raises(ValueError):
            a.jaccard(b)

    def test_invalid_num_perm(self):
        with pytest.raises(ValueError):
            MinHasher(num_perm=0)

    def test_empty_set_signature(self):
        hasher = MinHasher(num_perm=8)
        sig = hasher.signature([])
        assert len(sig) == 8


class TestLshIndex:
    def make(self, num_perm=64, bands=32):
        hasher = MinHasher(num_perm=num_perm)
        index = LshIndex(num_perm=num_perm, bands=bands)
        return hasher, index

    def test_bands_must_divide(self):
        with pytest.raises(ValueError):
            LshIndex(num_perm=64, bands=30)

    def test_add_and_query_similar(self):
        hasher, index = self.make()
        base = [f"v{i}" for i in range(100)]
        index.add("base", hasher.signature(base))
        index.add("overlap", hasher.signature(base[:70] + ["x"] * 30))
        index.add("unrelated", hasher.signature([f"z{i}" for i in range(100)]))
        hits = index.query(hasher.signature(base), threshold=0.3)
        keys = [k for k, _ in hits]
        assert "base" in keys
        assert "overlap" in keys
        assert "unrelated" not in keys

    def test_query_sorted_by_score(self):
        hasher, index = self.make()
        base = [f"v{i}" for i in range(100)]
        index.add("near", hasher.signature(base[:90] + ["x"] * 10))
        index.add("far", hasher.signature(base[:40] + [f"y{i}" for i in range(60)]))
        hits = index.query(hasher.signature(base), threshold=0.1)
        scores = [score for _, score in hits]
        assert scores == sorted(scores, reverse=True)

    def test_remove(self):
        hasher, index = self.make()
        sig = hasher.signature(["a", "b", "c"])
        index.add("k", sig)
        assert "k" in index
        index.remove("k")
        assert "k" not in index
        assert index.query(sig, threshold=0.0) == []

    def test_remove_missing_is_noop(self):
        _, index = self.make()
        index.remove("ghost")

    def test_re_add_replaces(self):
        hasher, index = self.make()
        index.add("k", hasher.signature(["a"]))
        index.add("k", hasher.signature(["b"]))
        assert len(index) == 1
        assert index.signature_of("k") == hasher.signature(["b"])

    def test_wrong_signature_length_rejected(self):
        hasher = MinHasher(num_perm=32)
        index = LshIndex(num_perm=64, bands=32)
        with pytest.raises(ValueError):
            index.add("k", hasher.signature(["a"]))

    def test_candidates_superset_of_query_hits(self):
        hasher, index = self.make()
        base = [f"v{i}" for i in range(60)]
        index.add("a", hasher.signature(base))
        signature = hasher.signature(base[:50] + ["q"] * 10)
        hits = {k for k, _ in index.query(signature, threshold=0.2)}
        assert hits <= index.candidates(signature)


SETS = (
    (),
    ("a",),
    ("a", "a", "b"),
    tuple(f"v{i}" for i in range(20)),
    (),
    ("b", "a"),
    tuple(f"v{i}" for i in range(5, 12)) * 2,
)


class TestBatchedSketches:
    """The batched pass equals sketching each set on its own."""

    @pytest.mark.parametrize("chunk", (1, 3, 7, 1 << 12))
    def test_signature_matrix_equals_per_set_signatures(self, monkeypatch,
                                                        chunk):
        monkeypatch.setattr(sketches, "_SKETCH_CHUNK", chunk)
        hasher = MinHasher(num_perm=32)
        matrix = hasher.signature_matrix(SETS)
        assert matrix.shape == (len(SETS), 32)
        for row, values in zip(matrix, SETS):
            assert tuple(row.tolist()) == ref.signature(hasher, values).values
            assert hasher.signature(values) == ref.signature(hasher, values)

    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(
        st.tuples(st.sampled_from(("add", "remove", "query")),
                  st.integers(0, 5), st.integers(0, len(SETS) - 1)),
        max_size=30,
    ))
    def test_lsh_matches_reference_under_adds_and_removes(self, ops):
        """Row reuse through the free list keeps buckets, candidates and
        query results equal to the per-pair reference."""
        hasher = MinHasher(num_perm=16)
        index, reference = LshIndex(16, 8), ref.ReferenceLsh(16, 8)
        for op, key, which in ops:
            signature = ref.signature(hasher, SETS[which] + (str(key),))
            if op == "add":
                index.add(key, signature)
                reference.add(key, signature)
            elif op == "remove":
                index.remove(key)
                reference.remove(key)
            assert len(index) == len(reference.signatures)
            assert index.candidates(signature) == \
                reference.candidates(signature)
            assert index.query(signature, 0.3) == \
                reference.query(signature, 0.3)
        for key, signature in reference.signatures.items():
            assert index.signature_of(key) == signature
