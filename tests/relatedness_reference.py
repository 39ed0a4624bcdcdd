"""Reference relatedness kernels: the scan-everything implementations.

These are the schema-Jaccard, TF-IDF, MinHash, LSH-query and joinability
kernels as they were before the indexes learned to answer in
O(candidates).  They hold no state across writes: build one from the
store whenever you want the answer for the store as it is now.  The
differential suite (``tests/test_relatedness_differential.py``), the
freshness tests and ``benchmarks/test_bench_relatedness.py`` compare the
indexed implementations against them for ids, scores, order and
tie-breaks.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter, defaultdict
from typing import Hashable

import numpy as np

from repro.catalog.store import CatalogStore
from repro.metadata.joinability import SKETCHABLE_TYPES, JoinEdge
from repro.metadata.similarity import SimilarityHit
from repro.metadata.sketches import MinHasher, MinHashSignature, stable_hash
from repro.util.textutil import tokenize

_MERSENNE_PRIME = (1 << 61) - 1
_MAX_HASH = (1 << 32) - 1


# -- TF-IDF --------------------------------------------------------------------


class ReferenceTfIdf:
    """Postings give the candidates; every candidate is scored exactly."""

    def __init__(self) -> None:
        self._term_counts: dict[Hashable, Counter[str]] = {}
        self._df: Counter[str] = Counter()
        self._postings: dict[str, set[Hashable]] = defaultdict(set)
        self._vectors: dict[Hashable, dict[str, float]] | None = None
        self._norms: dict[Hashable, float] = {}

    def add(self, key: Hashable, text: str) -> None:
        counts = Counter(tokenize(text))
        self._term_counts[key] = counts
        for term in counts:
            self._df[term] += 1
            self._postings[term].add(key)
        self._vectors = None

    def idf(self, term: str) -> float:
        n_docs = len(self._term_counts)
        if n_docs == 0:
            return 0.0
        return math.log((1 + n_docs) / (1 + self._df.get(term, 0))) + 1.0

    def similar(self, key, limit=10, min_score=0.0):
        self._ensure_vectors()
        query = self._vectors.get(key)
        if not query:
            return []
        return self._rank(query, key, limit, min_score)

    def search(self, text, limit=10, min_score=0.0):
        counts = Counter(tokenize(text))
        query = {term: tf * self.idf(term) for term, tf in counts.items()}
        if not query:
            return []
        self._ensure_vectors()
        return self._rank(query, None, limit, min_score)

    def _rank(self, query, exclude, limit, min_score):
        query_norm = math.sqrt(sum(w * w for w in query.values()))
        if query_norm == 0.0:
            return []
        candidates: set[Hashable] = set()
        for term in query:
            candidates.update(self._postings.get(term, ()))
        candidates.discard(exclude)
        scored = []
        for key in candidates:
            vector = self._vectors[key]
            dot = sum(
                weight * vector.get(term, 0.0)
                for term, weight in query.items()
            )
            if dot == 0.0:
                continue
            score = dot / (query_norm * self._norms[key])
            if score > min_score:
                scored.append((key, score))
        return heapq.nsmallest(
            limit, scored, key=lambda pair: (-pair[1], str(pair[0]))
        )

    def _ensure_vectors(self) -> None:
        if self._vectors is not None:
            return
        self._vectors = {}
        for key, counts in self._term_counts.items():
            vector = {term: tf * self.idf(term) for term, tf in counts.items()}
            self._vectors[key] = vector
            self._norms[key] = math.sqrt(sum(w * w for w in vector.values()))


# -- similarity measures --------------------------------------------------------


def semantic_index(store: CatalogStore) -> ReferenceTfIdf:
    index = ReferenceTfIdf()
    for artifact in store.artifacts():
        index.add(artifact.id, artifact.searchable_text())
    return index


def semantic_similar(store, artifact_id, limit=10, index=None):
    index = index or semantic_index(store)
    return [
        SimilarityHit(str(key), round(score, 4), "semantic")
        for key, score in index.similar(artifact_id, limit=limit)
    ]


def schema_similar(store, artifact_id, limit=10):
    """Jaccard of typed column sets against every artifact in the store."""
    def column_set(artifact):
        return {(c.name.lower(), c.dtype) for c in artifact.columns}

    query_cols = column_set(store.artifact(artifact_id))
    if not query_cols:
        return []
    hits = []
    for other in store.artifacts():
        if other.id == artifact_id or not other.columns:
            continue
        other_cols = column_set(other)
        union = len(query_cols | other_cols)
        if union == 0:
            continue
        score = len(query_cols & other_cols) / union
        if score > 0.0:
            hits.append(SimilarityHit(other.id, round(score, 4), "schema"))
    hits.sort(key=lambda h: (-h.score, h.artifact_id))
    return hits[:limit]


def ensemble_similar(store, artifact_id, limit=10, weights=None, index=None):
    weights = dict(weights or {"semantic": 0.6, "schema": 0.4})
    index = index or semantic_index(store)
    pool = max(limit * 3, 20)
    combined: dict[str, float] = {}
    measures = (
        ("semantic", lambda: semantic_similar(store, artifact_id, pool, index)),
        ("schema", lambda: schema_similar(store, artifact_id, pool)),
    )
    for name, measure in measures:
        weight = weights.get(name, 0.0)
        if weight == 0.0:
            continue
        for hit in measure():
            combined[hit.artifact_id] = (
                combined.get(hit.artifact_id, 0.0) + weight * hit.score
            )
    hits = [
        SimilarityHit(aid, round(score, 4), "ensemble")
        for aid, score in combined.items()
    ]
    hits.sort(key=lambda h: (-h.score, h.artifact_id))
    return hits[:limit]


# -- MinHash and LSH ------------------------------------------------------------


def signature(hasher: MinHasher, values) -> MinHashSignature:
    """One set's MinHash signature, computed on its own."""
    hashes = np.fromiter(
        (stable_hash(v) for v in set(values)), dtype=np.uint64
    )
    if hashes.size == 0:
        return MinHashSignature(tuple([_MAX_HASH] * hasher.num_perm))
    products = hasher._a[:, None] * hashes[None, :] + hasher._b[:, None]
    permuted = (products % _MERSENNE_PRIME) & _MAX_HASH
    mins = permuted.min(axis=1)
    return MinHashSignature(tuple(int(m) for m in mins))


class ReferenceLsh:
    """Banded LSH with per-pair Jaccard estimates and a full sort."""

    def __init__(self, num_perm: int = 64, bands: int = 16):
        self.num_perm = num_perm
        self.bands = bands
        self.rows = num_perm // bands
        self.buckets: list[dict[tuple[int, ...], set[Hashable]]] = [
            defaultdict(set) for _ in range(bands)
        ]
        self.signatures: dict[Hashable, MinHashSignature] = {}

    def add(self, key, sig: MinHashSignature) -> None:
        if key in self.signatures:
            self.remove(key)
        self.signatures[key] = sig
        for band, band_key in enumerate(self._band_keys(sig)):
            self.buckets[band][band_key].add(key)

    def remove(self, key) -> None:
        sig = self.signatures.pop(key, None)
        if sig is None:
            return
        for band, band_key in enumerate(self._band_keys(sig)):
            self.buckets[band][band_key].discard(key)

    def candidates(self, sig: MinHashSignature) -> set:
        found: set[Hashable] = set()
        for band, band_key in enumerate(self._band_keys(sig)):
            found.update(self.buckets[band].get(band_key, ()))
        return found

    def query(self, sig: MinHashSignature, threshold: float = 0.5):
        scored = []
        for key in self.candidates(sig):
            estimate = sig.jaccard(self.signatures[key])
            if estimate >= threshold:
                scored.append((key, estimate))
        scored.sort(key=lambda pair: (-pair[1], str(pair[0])))
        return scored

    def _band_keys(self, sig):
        for band in range(self.bands):
            start = band * self.rows
            yield tuple(sig.values[start:start + self.rows])


# -- joinability ----------------------------------------------------------------


class ReferenceJoinability:
    """Per-column sketches and the original ``joinable``/``join_graph``."""

    def __init__(self, store, num_perm=64, bands=32, threshold=0.2,
                 min_samples=3):
        self.store = store
        self.threshold = threshold
        self.hasher = MinHasher(num_perm=num_perm)
        self.lsh = ReferenceLsh(num_perm=num_perm, bands=bands)
        for artifact in store.artifacts():
            if artifact.artifact_type not in SKETCHABLE_TYPES:
                continue
            for column in artifact.columns:
                if len(column.sample_values) < min_samples:
                    continue
                self.lsh.add((artifact.id, column.name),
                             signature(self.hasher, column.sample_values))

    def joinable(self, artifact_id: str, limit: int = 10) -> list[JoinEdge]:
        artifact = self.store.artifact(artifact_id)
        best: dict[str, JoinEdge] = {}
        for column in artifact.columns:
            sig = self.lsh.signatures.get((artifact.id, column.name))
            if sig is None:
                continue
            for (other_id, other_column), score in self.lsh.query(
                sig, threshold=self.threshold
            ):
                if other_id == artifact_id:
                    continue
                current = best.get(other_id)
                if current is None or score > current.score:
                    best[other_id] = JoinEdge(
                        src=artifact_id,
                        dst=other_id,
                        src_column=column.name,
                        dst_column=other_column,
                        score=round(score, 4),
                    )
        edges = sorted(best.values(), key=lambda e: (-e.score, e.dst))
        return edges[:limit]

    def join_graph(self, artifact_id, depth=1, limit_per_node=6):
        nodes = {artifact_id}
        edges: list[JoinEdge] = []
        frontier = [artifact_id]
        seen_edges: set[tuple[str, str]] = set()
        for _ in range(depth):
            next_frontier: list[str] = []
            for node in frontier:
                if not self.store.has_artifact(node):
                    continue
                for edge in self.joinable(node, limit=limit_per_node):
                    pair = tuple(sorted((edge.src, edge.dst)))
                    if pair in seen_edges:
                        continue
                    seen_edges.add(pair)
                    edges.append(edge)
                    if edge.dst not in nodes:
                        nodes.add(edge.dst)
                        next_frontier.append(edge.dst)
            frontier = next_frontier
        return (sorted(nodes), edges)
