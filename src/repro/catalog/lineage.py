"""Lineage graph: which artifacts derive from which.

Edges point *downstream*: ``table -> visualization -> dashboard`` means the
visualization was built from the table and embedded in the dashboard.  The
hierarchy view (Section 6.2) and the lineage provider both traverse this
graph; it is a thin, typed wrapper over :mod:`networkx`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import networkx as nx

from repro.errors import CatalogError


@dataclass(frozen=True)
class LineageEdge:
    """A derivation edge from *src* (upstream) to *dst* (downstream)."""

    src: str
    dst: str
    kind: str = "derives"

    VALID_KINDS = ("derives", "embeds", "joins")

    def __post_init__(self) -> None:
        if self.kind not in self.VALID_KINDS:
            raise ValueError(
                f"unknown lineage kind {self.kind!r}; expected one of "
                f"{self.VALID_KINDS}"
            )


class LineageGraph:
    """Directed acyclic lineage over artifact ids."""

    def __init__(self, on_mutate: Callable[[], None] | None = None) -> None:
        # Callers add edges through the graph directly (bulk loaders,
        # persistence), bypassing the owning store's mutators — the hook
        # lets the store keep its version counters truthful anyway.
        self._graph = nx.DiGraph()
        self._on_mutate = on_mutate
        # Fires once per accepted edge, *before* on_mutate, with
        # (src, dst, kind) — the owning store appends the write-ahead
        # event record here so it lands ahead of the version bump.
        self.on_edge: Callable[[str, str, str], None] | None = None

    def __contains__(self, artifact_id: str) -> bool:
        return artifact_id in self._graph

    @property
    def edge_count(self) -> int:
        return self._graph.number_of_edges()

    def add_edge(self, src: str, dst: str, kind: str = "derives") -> None:
        """Record that *dst* derives from *src*; rejects cycles.

        The cycle check is a targeted reachability query (would *src* be
        reachable from *dst*?) rather than a whole-graph DAG check, so bulk
        loading large catalogs stays near-linear.
        """
        edge = LineageEdge(src, dst, kind)  # validates kind
        if src == dst:
            raise CatalogError(f"self-lineage is not allowed: {src!r}")
        creates_cycle = (
            src in self._graph
            and dst in self._graph
            and nx.has_path(self._graph, dst, src)
        )
        if creates_cycle:
            raise CatalogError(
                f"lineage edge {src!r} -> {dst!r} would create a cycle"
            )
        self._graph.add_edge(src, dst, kind=edge.kind)
        if self.on_edge is not None:
            self.on_edge(src, dst, edge.kind)
        if self._on_mutate is not None:
            self._on_mutate()

    def upstream(self, artifact_id: str, depth: int | None = None) -> list[str]:
        """Ancestors of *artifact_id* within *depth* hops (all if None)."""
        return self._reachable(artifact_id, depth, reverse=True)

    def downstream(self, artifact_id: str, depth: int | None = None) -> list[str]:
        """Descendants of *artifact_id* within *depth* hops (all if None)."""
        return self._reachable(artifact_id, depth, reverse=False)

    def children(self, artifact_id: str) -> list[str]:
        """Direct downstream artifacts, sorted for determinism."""
        if artifact_id not in self._graph:
            return []
        return sorted(self._graph.successors(artifact_id))

    def parents(self, artifact_id: str) -> list[str]:
        """Direct upstream artifacts, sorted for determinism."""
        if artifact_id not in self._graph:
            return []
        return sorted(self._graph.predecessors(artifact_id))

    def roots(self) -> list[str]:
        """Artifacts with no upstream (typically raw tables)."""
        return sorted(n for n in self._graph if self._graph.in_degree(n) == 0)

    def edges(self) -> list[LineageEdge]:
        """All edges, sorted for determinism."""
        return sorted(
            (
                LineageEdge(src, dst, data.get("kind", "derives"))
                for src, dst, data in self._graph.edges(data=True)
            ),
            key=lambda e: (e.src, e.dst),
        )

    def subgraph_around(
        self, artifact_id: str, depth: int = 2
    ) -> tuple[list[str], list[LineageEdge]]:
        """Nodes and edges within *depth* hops in either direction.

        This is the payload shape the graph view renders for "show me the
        lineage of what I'm looking at".
        """
        if artifact_id not in self._graph:
            return ([artifact_id], [])
        nodes = {artifact_id}
        nodes.update(self.upstream(artifact_id, depth))
        nodes.update(self.downstream(artifact_id, depth))
        # Every kept edge leaves a neighbourhood node, so walking their
        # out-edges finds them all without scanning the whole graph.
        adjacency = self._graph.adj
        edges = [
            LineageEdge(src, dst, data.get("kind", "derives"))
            for src in nodes
            for dst, data in adjacency[src].items()
            if dst in nodes
        ]
        edges.sort(key=lambda e: (e.src, e.dst))
        return (sorted(nodes), edges)

    def _reachable(
        self, artifact_id: str, depth: int | None, reverse: bool
    ) -> list[str]:
        if artifact_id not in self._graph:
            return []
        graph = self._graph.reverse(copy=False) if reverse else self._graph
        if depth is None:
            reached = nx.descendants(graph, artifact_id)
        else:
            lengths = nx.single_source_shortest_path_length(
                graph, artifact_id, cutoff=depth
            )
            reached = set(lengths) - {artifact_id}
        return sorted(reached)
