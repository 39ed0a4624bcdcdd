"""Artifact similarity measures and their ensemble.

Three relatedness signals, mirroring the measures the paper's related-work
section catalogues:

* :class:`SemanticSimilarity` — TF-IDF cosine over names/descriptions/tags
  (Seeping-Semantics style);
* :class:`SchemaSimilarity` — column name/dtype overlap, a unionability
  proxy (Das Sarma et al.);
* :class:`EnsembleSimilarity` — weighted combination (D3L/Voyager style),
  the repo's ablation target "ensemble vs. single measure".

The semantic and schema measures keep indexes that follow the catalog's
writes (:class:`~repro.metadata.indexing.CatalogFollower`) and score only
artifacts sharing a term or a column with the input.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.catalog.model import Artifact
from repro.catalog.store import CatalogStore
from repro.metadata.indexing import CatalogFollower, head
from repro.metadata.text import TfIdfIndex


@dataclass(frozen=True)
class SimilarityHit:
    """A scored related artifact."""

    artifact_id: str
    score: float
    source: str  # which measure produced the score


class SemanticSimilarity(CatalogFollower):
    """TF-IDF cosine similarity over artifact text.

    The index follows the catalog (:class:`~repro.metadata.indexing.
    CatalogFollower`): an artifact whose searchable text changed is
    re-indexed before the next lookup; a badge grant changes no text and
    costs nothing.
    """

    name = "semantic"

    def __init__(self, store: CatalogStore):
        super().__init__(store)
        self._index = TfIdfIndex()

    def add_artifact(self, artifact: Artifact) -> None:
        with self._lock:
            self._index_artifact(artifact)

    def similar(self, artifact_id: str, limit: int = 10) -> list[SimilarityHit]:
        with self._lock:
            self._sync()
            ranked = self._index.similar(artifact_id, limit=limit)
        return [
            SimilarityHit(str(key), round(score, 4), self.name)
            for key, score in ranked
        ]

    def search(self, text: str, limit: int = 10) -> list[SimilarityHit]:
        """Relevance-ranked free-text search (used by the keyword baseline)."""
        with self._lock:
            self._sync()
            ranked = self._index.search(text, limit=limit)
        return [
            SimilarityHit(str(key), round(score, 4), self.name)
            for key, score in ranked
        ]

    def _content(self, artifact: Artifact) -> str:
        return artifact.searchable_text()

    def _put(self, artifact_id: str, text: str) -> None:
        self._index.add(artifact_id, text)

    def _drop(self, artifact_id: str, text: str) -> None:
        self._index.remove(artifact_id)

    def _reset(self) -> None:
        self._index = TfIdfIndex()


class SchemaSimilarity(CatalogFollower):
    """Unionability proxy: Jaccard over typed column-name sets.

    An inverted index maps each ``(column name, dtype)`` to the rows of
    the artifacts having it, and each artifact keeps its frozen column
    set.  A lookup counts overlaps from the postings of the query's
    columns (one ``np.bincount``) and scores only artifacts sharing a
    column, as ``inter / (|q| + |o| - inter)`` — the same integers a set
    union gives, hence the same floats.  Only scores that can still round
    into the head are rounded and heap-selected.
    """

    name = "schema"

    def __init__(self, store: CatalogStore):
        super().__init__(store)
        self._reset()

    def _content(self, artifact: Artifact) -> frozenset[tuple[str, str]]:
        return frozenset((c.name.lower(), c.dtype) for c in artifact.columns)

    def _put(self, artifact_id: str, columns: frozenset) -> None:
        row = self._row_of.get(artifact_id)
        if row is None:
            row = self._row_of[artifact_id] = len(self._ids)
            self._ids.append(artifact_id)
            if row == len(self._sizes):
                self._sizes = np.resize(self._sizes, max(64, 2 * row))
        self._sizes[row] = len(columns)
        for column in columns:
            self._postings[column].add(row)

    def _drop(self, artifact_id: str, columns: frozenset) -> None:
        row = self._row_of[artifact_id]
        for column in columns:
            self._postings[column].discard(row)

    def _reset(self) -> None:
        self._postings: dict[tuple[str, str], set[int]] = defaultdict(set)
        self._ids: list[str] = []  # row -> artifact id
        self._row_of: dict[str, int] = {}
        self._sizes = np.zeros(0, dtype=np.int64)  # row -> column count

    def similar(self, artifact_id: str, limit: int = 10) -> list[SimilarityHit]:
        with self._lock:
            self._sync()
            query_cols = self._contents.get(artifact_id)
            if query_cols is None:  # unknown ids raise UnknownEntityError
                query_cols = self._content(self.store.artifact(artifact_id))
            if not query_cols:
                return []
            overlaps = np.bincount(np.fromiter(
                chain.from_iterable(
                    self._postings.get(column, ()) for column in query_cols
                ),
                dtype=np.int64,
            ))
            own = self._row_of.get(artifact_id)
            if own is not None and own < len(overlaps):
                overlaps[own] = 0
            rows = np.flatnonzero(overlaps)
            inter = overlaps[rows]
            scores = inter / (len(query_cols) + self._sizes[rows] - inter)
            if 0 < limit < rows.size:
                # Rounding is monotone: nothing scoring below the k-th
                # score's rounded value, less a rounding step, can round
                # into the head.
                kth = np.partition(scores, rows.size - limit)[rows.size - limit]
                keep = scores >= round(float(kth), 4) - 1e-4
                rows, scores = rows[keep], scores[keep]
            ids = self._ids
            ranked = head(
                [
                    (-round(score, 4), ids[row])
                    for row, score in zip(rows.tolist(), scores.tolist())
                ],
                limit,
            )
        return [
            SimilarityHit(other, -negated, self.name)
            for negated, other in ranked
        ]


class EnsembleSimilarity:
    """Weighted combination of similarity measures.

    ``weights`` maps measure name to weight; measures missing a candidate
    contribute zero.  This mirrors the ensemble approach (D3L, Voyager) the
    paper cites as improving over single-measure systems.
    """

    name = "ensemble"

    def __init__(
        self,
        store: CatalogStore,
        weights: dict[str, float] | None = None,
    ):
        self.store = store
        self.semantic = SemanticSimilarity(store)
        self.schema = SchemaSimilarity(store)
        self.weights = dict(weights or {"semantic": 0.6, "schema": 0.4})
        unknown = set(self.weights) - {"semantic", "schema"}
        if unknown:
            raise ValueError(f"unknown similarity measures: {sorted(unknown)}")

    def build(self) -> "EnsembleSimilarity":
        self.semantic.build()
        self.schema.build()
        return self

    def similar(self, artifact_id: str, limit: int = 10) -> list[SimilarityHit]:
        pool = max(limit * 3, 20)
        combined: dict[str, float] = {}
        for measure in (self.semantic, self.schema):
            weight = self.weights.get(measure.name, 0.0)
            if weight == 0.0:
                continue
            for hit in measure.similar(artifact_id, limit=pool):
                combined[hit.artifact_id] = (
                    combined.get(hit.artifact_id, 0.0) + weight * hit.score
                )
        hits = [
            SimilarityHit(aid, round(score, 4), self.name)
            for aid, score in combined.items()
        ]
        return head(hits, limit, key=lambda h: (-h.score, h.artifact_id))
