"""Metadata-computation substrate.

The paper treats relevance computation as orthogonal to Humboldt but relies
on providers that serve relatedness metadata (joinability, similarity,
embeddings).  This package implements those computations for real:

* :mod:`repro.metadata.sketches` — MinHash signatures and LSH banding, the
  Aurum-style machinery behind the joinability provider;
* :mod:`repro.metadata.text` — TF-IDF vectors and cosine similarity for
  semantic relatedness;
* :mod:`repro.metadata.joinability` — a column-sketch index answering
  "what joins to this table?";
* :mod:`repro.metadata.similarity` — semantic + schema (unionability)
  similarity and their ensemble;
* :mod:`repro.metadata.embedding` — 2-D PCA projections of artifact
  features for the embedding view;
* :mod:`repro.metadata.indexing` — what the relatedness indexes share:
  heap selection of the head and :class:`~repro.metadata.indexing.
  CatalogFollower`, which keeps an index current with catalog writes.

The similarity and joinability indexes answer a lookup in O(candidates)
and return exactly what scanning the catalog would (ids, scores, order,
tie-breaks); docs/providers.md ("Relatedness indexes") states the
contract.
"""

from repro.metadata.embedding import EmbeddingIndex
from repro.metadata.joinability import JoinabilityIndex, JoinEdge
from repro.metadata.similarity import (
    EnsembleSimilarity,
    SchemaSimilarity,
    SemanticSimilarity,
)
from repro.metadata.sketches import MinHasher, MinHashSignature, LshIndex
from repro.metadata.text import TfIdfIndex

__all__ = [
    "EmbeddingIndex",
    "EnsembleSimilarity",
    "JoinEdge",
    "JoinabilityIndex",
    "LshIndex",
    "MinHashSignature",
    "MinHasher",
    "SchemaSimilarity",
    "SemanticSimilarity",
    "TfIdfIndex",
]
