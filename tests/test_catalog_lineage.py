"""Unit tests for the lineage graph."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.lineage import LineageEdge, LineageGraph
from repro.errors import CatalogError


@pytest.fixture
def chain():
    """t1 -> v1 -> d1, t2 -> d1."""
    graph = LineageGraph()
    graph.add_edge("t1", "v1", "derives")
    graph.add_edge("v1", "d1", "embeds")
    graph.add_edge("t2", "d1", "derives")
    return graph


class TestEdges:
    def test_edge_kind_validation(self):
        with pytest.raises(ValueError, match="unknown lineage kind"):
            LineageEdge("a", "b", "copies")

    def test_self_loop_rejected(self):
        graph = LineageGraph()
        with pytest.raises(CatalogError, match="self-lineage"):
            graph.add_edge("a", "a")

    def test_cycle_rejected_and_rolled_back(self, chain):
        with pytest.raises(CatalogError, match="cycle"):
            chain.add_edge("d1", "t1")
        # the offending edge must not remain
        assert chain.edge_count == 3

    def test_contains(self, chain):
        assert "t1" in chain
        assert "zzz" not in chain


class TestTraversal:
    def test_downstream_full(self, chain):
        assert chain.downstream("t1") == ["d1", "v1"]

    def test_downstream_depth_limited(self, chain):
        assert chain.downstream("t1", depth=1) == ["v1"]

    def test_upstream(self, chain):
        assert chain.upstream("d1") == ["t1", "t2", "v1"]
        assert chain.upstream("d1", depth=1) == ["t2", "v1"]

    def test_unknown_node_empty(self, chain):
        assert chain.downstream("zzz") == []
        assert chain.upstream("zzz") == []

    def test_children_and_parents(self, chain):
        assert chain.children("t1") == ["v1"]
        assert chain.parents("d1") == ["t2", "v1"]
        assert chain.children("zzz") == []

    def test_roots(self, chain):
        assert chain.roots() == ["t1", "t2"]

    def test_edges_sorted_with_kinds(self, chain):
        edges = chain.edges()
        assert [(e.src, e.dst) for e in edges] == [
            ("t1", "v1"), ("t2", "d1"), ("v1", "d1"),
        ]
        assert edges[0].kind == "derives"
        assert edges[2].kind == "embeds"


class TestSubgraph:
    def test_around_middle_node(self, chain):
        nodes, edges = chain.subgraph_around("v1", depth=1)
        assert nodes == ["d1", "t1", "v1"]
        assert {(e.src, e.dst) for e in edges} == {
            ("t1", "v1"), ("v1", "d1"),
        }

    def test_around_unknown_node(self, chain):
        nodes, edges = chain.subgraph_around("zzz")
        assert nodes == ["zzz"]
        assert edges == []

    def test_depth_two_covers_descendants_only(self, chain):
        # t2 is an in-law (upstream of a descendant), not reachable from
        # t1 in either direction, so it stays out.
        nodes, edges = chain.subgraph_around("t1", depth=2)
        assert nodes == ["d1", "t1", "v1"]
        assert {(e.src, e.dst) for e in edges} == {
            ("t1", "v1"), ("v1", "d1"),
        }


def _scanned_subgraph(graph, artifact_id, depth):
    """``subgraph_around`` by a scan of every edge in the graph."""
    if artifact_id not in graph:
        return ([artifact_id], [])
    nodes = {artifact_id}
    nodes.update(graph.upstream(artifact_id, depth))
    nodes.update(graph.downstream(artifact_id, depth))
    edges = [e for e in graph.edges() if e.src in nodes and e.dst in nodes]
    edges.sort(key=lambda e: (e.src, e.dst))
    return (sorted(nodes), edges)


@settings(max_examples=60, deadline=None)
@given(
    edges=st.lists(
        st.tuples(st.integers(0, 11), st.integers(0, 11),
                  st.sampled_from(LineageEdge.VALID_KINDS)),
        max_size=40,
    ),
    root=st.integers(0, 12),
    depth=st.integers(0, 3),
)
def test_subgraph_around_matches_a_full_edge_scan(edges, root, depth):
    """On random DAGs (edges ascend, so none closes a cycle) the
    neighbourhood walk returns what scanning every edge returns, in the
    same order.  Node 12 is never in the graph."""
    graph = LineageGraph()
    for src, dst, kind in edges:
        if src < dst:
            graph.add_edge(f"n{src:02d}", f"n{dst:02d}", kind)
    artifact_id = f"n{root:02d}"
    assert graph.subgraph_around(artifact_id, depth) == _scanned_subgraph(
        graph, artifact_id, depth
    )
