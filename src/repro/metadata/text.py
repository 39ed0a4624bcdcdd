"""TF-IDF vectorisation and cosine similarity over artifact text.

Backs the semantic-similarity provider and the keyword-search baseline's
relevance ordering.  Vectors are sparse dicts — catalogs have short
documents and large vocabularies, so dense matrices would waste memory.

Top-k queries run in two passes over per-term *impact postings* (each
document's ``w / ‖d‖`` for the term, in numpy arrays built with the
vectors).  One ``np.bincount`` accumulates an approximate cosine for
every document sharing a query term; only documents within ``1e-9`` of
the k-th approximate score are rescored with the exact per-candidate
expression, in its original summation order.  The slack exceeds the
float error of the approximation by orders of magnitude, so the head —
scores, order and ``(-score, str(key))`` tie-breaks — is exactly what
scoring every candidate would give.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from typing import Hashable

import numpy as np

from repro.util.textutil import tokenize

SparseVector = dict[str, float]

#: Rows whose approximate score is within this of the k-th approximate
#: score are rescored exactly.  The approximation differs from the exact
#: score by a few ulps (~1e-16 on cosines in [0, 1]).
RESCORE_SLACK = 1e-9


def cosine(left: SparseVector, right: SparseVector) -> float:
    """Cosine similarity of two sparse vectors (0.0 if either is empty)."""
    if not left or not right:
        return 0.0
    if len(left) > len(right):
        left, right = right, left
    dot = sum(weight * right.get(term, 0.0) for term, weight in left.items())
    if dot == 0.0:
        return 0.0
    norm_left = math.sqrt(sum(w * w for w in left.values()))
    norm_right = math.sqrt(sum(w * w for w in right.values()))
    return dot / (norm_left * norm_right)


class TfIdfIndex:
    """An incrementally built TF-IDF index with top-k similarity queries.

    IDF weights are computed lazily from document frequencies on first
    query after a mutation, so bulk loading stays linear.
    """

    def __init__(self) -> None:
        self._term_counts: dict[Hashable, Counter[str]] = {}
        self._df: Counter[str] = Counter()
        self._vectors: dict[Hashable, SparseVector] | None = None
        self._norms: dict[Hashable, float] | None = None
        self._impacts: _ImpactPostings | None = None

    def __len__(self) -> int:
        return len(self._term_counts)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._term_counts

    def add(self, key: Hashable, text: str) -> None:
        """Index *text* under *key* (re-adding replaces the document)."""
        if key in self._term_counts:
            self.remove(key)
        counts = Counter(tokenize(text))
        self._term_counts[key] = counts
        for term in counts:
            self._df[term] += 1
        self._vectors = None

    def remove(self, key: Hashable) -> None:
        """Drop a document (no-op if absent)."""
        counts = self._term_counts.pop(key, None)
        if counts is None:
            return
        for term in counts:
            self._df[term] -= 1
            if self._df[term] <= 0:
                del self._df[term]
        self._vectors = None

    def idf(self, term: str) -> float:
        """Smoothed inverse document frequency of *term*."""
        n_docs = len(self._term_counts)
        if n_docs == 0:
            return 0.0
        return math.log((1 + n_docs) / (1 + self._df.get(term, 0))) + 1.0

    def vector(self, key: Hashable) -> SparseVector:
        """The TF-IDF vector of an indexed document (empty if unknown)."""
        self._ensure_vectors()
        assert self._vectors is not None
        return dict(self._vectors.get(key, {}))

    def vector_for_text(self, text: str) -> SparseVector:
        """TF-IDF vector of arbitrary query text using the corpus IDF."""
        counts = Counter(tokenize(text))
        return {term: tf * self.idf(term) for term, tf in counts.items()}

    def similar(
        self, key: Hashable, limit: int = 10, min_score: float = 0.0
    ) -> list[tuple[Hashable, float]]:
        """Documents most similar to the indexed document *key*."""
        self._ensure_vectors()
        assert self._vectors is not None
        query = self._vectors.get(key)
        if not query:
            return []
        results = self._rank(query, exclude=key, limit=limit,
                             min_score=min_score)
        return results

    def search(
        self, text: str, limit: int = 10, min_score: float = 0.0
    ) -> list[tuple[Hashable, float]]:
        """Documents most similar to free *text*."""
        query = self.vector_for_text(text)
        if not query:
            return []
        self._ensure_vectors()
        return self._rank(query, exclude=None, limit=limit, min_score=min_score)

    def _rank(
        self,
        query: SparseVector,
        exclude: Hashable | None,
        limit: int,
        min_score: float,
    ) -> list[tuple[Hashable, float]]:
        assert self._vectors is not None and self._norms is not None
        assert self._impacts is not None
        # The query norm is a constant of this call; document norms were
        # precomputed alongside the vectors, so scoring a candidate is one
        # sparse dot product — not two norm recomputations per pair.
        query_norm = math.sqrt(sum(w * w for w in query.values()))
        if query_norm == 0.0 or limit <= 0:
            return []
        impacts = self._impacts
        # Pass 1: approximate cosines of every document sharing a term.
        approx = impacts.accumulate(query, query_norm)
        row = impacts.row_of.get(exclude) if exclude is not None else None
        if row is not None:
            approx[row] = 0.0
        rows = np.flatnonzero(approx)
        if limit < rows.size:
            scores = approx[rows]
            kth = np.partition(scores, rows.size - limit)[rows.size - limit]
            rows = rows[scores >= kth - RESCORE_SLACK]
        # Pass 2: the exact score of each surviving candidate.
        scored = []
        for key in map(impacts.keys.__getitem__, rows.tolist()):
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
        vectors: dict[Hashable, SparseVector] = {}
        norms: dict[Hashable, float] = {}
        for key, counts in self._term_counts.items():
            vector = {term: tf * self.idf(term) for term, tf in counts.items()}
            vectors[key] = vector
            norms[key] = math.sqrt(sum(w * w for w in vector.values()))
        self._norms = norms
        self._impacts = _ImpactPostings(vectors, norms)
        self._vectors = vectors  # last: a non-None _vectors means ready


class _ImpactPostings:
    """Per-term postings of ``(row, w / ‖d‖)`` in CSR form.

    Row *r* is the *r*-th document key; term *t*'s postings are the
    slice ``bounds[t]:bounds[t + 1]`` of ``rows`` and ``impacts``.
    """

    __slots__ = ("keys", "row_of", "term_ids", "rows", "impacts", "bounds")

    def __init__(
        self,
        vectors: dict[Hashable, SparseVector],
        norms: dict[Hashable, float],
    ):
        self.keys = list(vectors)
        self.row_of = {key: row for row, key in enumerate(self.keys)}
        self.term_ids: dict[str, int] = {}
        terms: list[int] = []
        rows: list[int] = []
        impacts: list[float] = []
        term_id = self.term_ids.setdefault
        for row, (key, vector) in enumerate(vectors.items()):
            norm = norms[key]
            for term, weight in vector.items():
                terms.append(term_id(term, len(self.term_ids)))
                rows.append(row)
                impacts.append(weight / norm)
        term_array = np.array(terms, dtype=np.int64)
        order = np.argsort(term_array, kind="stable")
        self.rows = np.array(rows, dtype=np.int64)[order]
        self.impacts = np.array(impacts, dtype=np.float64)[order]
        self.bounds = np.zeros(len(self.term_ids) + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(term_array, minlength=len(self.term_ids)),
            out=self.bounds[1:],
        )

    def accumulate(self, query: SparseVector, query_norm: float) -> np.ndarray:
        """Approximate cosine of every row against *query* (0 = no shared
        term)."""
        rows, weights = [], []
        for term, weight in query.items():
            term_id = self.term_ids.get(term)
            if term_id is None:
                continue
            start, stop = self.bounds[term_id], self.bounds[term_id + 1]
            rows.append(self.rows[start:stop])
            weights.append(self.impacts[start:stop] * (weight / query_norm))
        if not rows:
            return np.zeros(len(self.keys))
        return np.bincount(
            np.concatenate(rows),
            weights=np.concatenate(weights),
            minlength=len(self.keys),
        )
