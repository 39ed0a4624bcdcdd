"""Joinability index over catalog columns.

For every table/dataset column with sample values we keep a MinHash sketch
in an LSH index.  "What joins to table X?" then reduces to: for each of X's
key-like columns, fetch LSH candidates, estimate Jaccard, and aggregate the
best column pair per candidate table.  The result feeds the joinability
graph provider of Figure 3.

The index follows the catalog (:class:`~repro.metadata.indexing.
CatalogFollower`): a full build sketches every column in one batched
pass, and later writes re-sketch only artifacts whose sketched columns
(names and sample values) changed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.model import Artifact, ArtifactType
from repro.catalog.store import CatalogStore
from repro.metadata.indexing import CatalogFollower, head
from repro.metadata.sketches import LshIndex, MinHasher

#: Artifact types that carry columns worth sketching.
SKETCHABLE_TYPES = (ArtifactType.TABLE, ArtifactType.DATASET)

ColumnKey = tuple[str, str]  # (artifact_id, column_name)


@dataclass(frozen=True)
class JoinEdge:
    """A joinability edge between two artifacts via a best column pair."""

    src: str
    dst: str
    src_column: str
    dst_column: str
    score: float  # estimated Jaccard of the column value sets


class JoinabilityIndex(CatalogFollower):
    """Sketch-backed join discovery over a catalog."""

    def __init__(
        self,
        store: CatalogStore,
        num_perm: int = 64,
        bands: int = 32,
        threshold: float = 0.2,
        min_samples: int = 3,
    ):
        super().__init__(store)
        self.threshold = threshold
        self.min_samples = min_samples
        self._hasher = MinHasher(num_perm=num_perm)
        self._lsh = LshIndex(num_perm=num_perm, bands=bands)

    @property
    def sketch_count(self) -> int:
        return len(self._lsh)

    def add_artifact(self, artifact: Artifact) -> int:
        """Index one artifact's columns; returns how many were sketched."""
        with self._lock:
            self._index_artifact(artifact)
            return len(self._contents[artifact.id])

    def remove_artifact(self, artifact_id: str) -> None:
        with self._lock:
            self._forget(artifact_id)

    def _content(self, artifact: Artifact) -> tuple:
        """``(column name, sample values)`` of each sketched column."""
        if artifact.artifact_type not in SKETCHABLE_TYPES:
            return ()
        return tuple(
            (column.name, column.sample_values)
            for column in artifact.columns
            if len(column.sample_values) >= self.min_samples
        )

    def _put(self, artifact_id: str, columns: tuple) -> None:
        self._load([(artifact_id, columns)])

    def _drop(self, artifact_id: str, columns: tuple) -> None:
        for name, _ in columns:
            self._lsh.remove((artifact_id, name))

    def _reset(self) -> None:
        self._lsh = LshIndex(num_perm=self._lsh.num_perm,
                             bands=self._lsh.bands)

    def _load(self, contents: list[tuple[str, tuple]]) -> None:
        keys: list[ColumnKey] = []
        samples = []
        for artifact_id, columns in contents:
            for name, values in columns:
                keys.append((artifact_id, name))
                samples.append(values)
        if keys:
            self._lsh.add_many(keys, self._hasher.signature_matrix(samples))

    def joinable(
        self, artifact_id: str, limit: int = 10
    ) -> list[JoinEdge]:
        """Best join partners of *artifact_id*, strongest column pair each.

        The rule: visit the artifact's columns in order and each column's
        matches best first (``(-score, str(key))``); a match replaces the
        partner's edge when its raw score beats the edge's *rounded*
        score, so a later tie whose score rounds down replaces an earlier
        one.  Under that rule a partner's final score is always the
        rounded peak of its raw scores, so the head is chosen from the
        peaks and the rule is replayed only for partners in the head.
        """
        with self._lock:
            self._sync()
            artifact = self.store.artifact(artifact_id)
            by_column = []
            peaks: dict[str, float] = {}
            for column in artifact.columns:
                key: ColumnKey = (artifact.id, column.name)
                if key not in self._lsh:
                    continue
                found = self._lsh.neighbours(key, threshold=self.threshold)
                by_column.append((column.name, found))
                for (other_id, _), score in found:
                    if score > peaks.get(other_id, -1.0):
                        peaks[other_id] = score
            peaks.pop(artifact_id, None)
        ranked = head(
            [(-round(peak, 4), other_id) for other_id, peak in peaks.items()],
            limit,
        )
        kept = {other_id for _, other_id in ranked}
        best: dict[str, JoinEdge] = {}
        for column_name, found in by_column:
            matches = [pair for pair in found if pair[0][0] in kept]
            matches.sort(key=lambda pair: (-pair[1], str(pair[0])))
            for (other_id, other_column), score in matches:
                current = best.get(other_id)
                if current is None or score > current.score:
                    best[other_id] = JoinEdge(
                        src=artifact_id,
                        dst=other_id,
                        src_column=column_name,
                        dst_column=other_column,
                        score=round(score, 4),
                    )
        return [best[other_id] for _, other_id in ranked]

    def join_graph(
        self, artifact_id: str, depth: int = 1, limit_per_node: int = 6
    ) -> tuple[list[str], list[JoinEdge]]:
        """Nodes and edges of the join neighbourhood around *artifact_id*.

        This is exactly the payload the Figure 3 provider returns: a graph
        of joinable tables for the input table.
        """
        with self._lock:
            self._sync()
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
