"""Graph view (Figure 3 right, Figure 6).

"The graph view supports displaying graph-structured metadata (e.g., join
paths) ... the graph view expects the metadata to contain information
about how [artifacts] are connected."  Layout positions are computed
deterministically on demand (seeded spring layout) so renderers can draw
without their own graph logic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import networkx as nx

from repro.core.views.base import ArtifactCard, View


@dataclass(frozen=True)
class GraphViewEdge:
    """A labelled, weighted display edge."""

    src: str
    dst: str
    label: str = ""
    weight: float = 1.0


@dataclass(frozen=True)
class GraphView(View):
    """Cards as nodes plus labelled edges."""

    cards: tuple[ArtifactCard, ...] = ()
    edges: tuple[GraphViewEdge, ...] = ()

    def artifact_ids(self) -> list[str]:
        return [card.artifact_id for card in self.cards]

    def neighbors(self, artifact_id: str) -> list[str]:
        """Directly connected artifact ids (either direction), sorted."""
        found = {
            e.dst if e.src == artifact_id else e.src
            for e in self.edges
            if artifact_id in (e.src, e.dst)
        }
        found.discard(artifact_id)
        return sorted(found)

    def layout(self, seed: int = 42) -> dict[str, tuple[float, float]]:
        """Deterministic 2-D positions for drawing.

        Computed once per view instance and seed: views are immutable
        and shared (the view memo returns the same instance on every
        open), so the positions are kept in the instance ``__dict__``,
        outside the dataclass fields (``==``, ``repr`` and ``hash`` do
        not see them).  Callers get a copy.
        """
        layouts = self.__dict__.setdefault("_layouts", {})
        positions = layouts.get(seed)
        if positions is None:
            positions = layouts[seed] = self._spring_layout(seed)
        return dict(positions)

    def patched(
        self,
        cards: tuple[ArtifactCard, ...],
        edges: tuple[GraphViewEdge, ...],
    ) -> "GraphView":
        """A copy showing *cards* and *edges*.  The layout reads only the
        node ids and the edges, so when both are unchanged the copy
        inherits the positions this view has computed."""
        view = replace(self, cards=cards, edges=edges)
        layouts = self.__dict__.get("_layouts")
        if (
            layouts
            and edges == self.edges
            and view.artifact_ids() == self.artifact_ids()
        ):
            view.__dict__["_layouts"] = dict(layouts)
        return view

    def _spring_layout(self, seed: int) -> dict[str, tuple[float, float]]:
        graph = nx.Graph()
        graph.add_nodes_from(self.artifact_ids())
        for edge in self.edges:
            graph.add_edge(edge.src, edge.dst, weight=max(edge.weight, 1e-6))
        if graph.number_of_nodes() == 0:
            return {}
        positions = nx.spring_layout(graph, seed=seed)
        return {
            node: (float(xy[0]), float(xy[1]))
            for node, xy in positions.items()
        }

    def filtered(self, allowed: set[str]) -> "GraphView":
        kept_cards = tuple(c for c in self.cards if c.artifact_id in allowed)
        kept_ids = {c.artifact_id for c in kept_cards}
        kept_edges = tuple(
            e for e in self.edges if e.src in kept_ids and e.dst in kept_ids
        )
        return replace(self, cards=kept_cards, edges=kept_edges)
