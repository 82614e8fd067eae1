"""The transfer graph on partitions of n."""

import itertools

import pytest

from partition_complex.graph import (
    UnknownVertexError,
    adjacency_by_conjugate,
    are_adjacent,
    build_graph,
    edge_decompositions,
    format_dimacs,
    format_edge_list,
    format_legend,
    neighbors,
)
from partition_complex.oracles import edges_by_conjugate_scan, transfers_by_scan
from partition_complex.partitions import (
    InvalidPartitionError,
    admissible_transfers,
    apply_transfer,
    enumerate_partitions,
    height,
)


def test_tiny_graphs():
    g1 = build_graph(1)
    assert len(g1.vertices) == 1 and g1.edge_count() == 0
    g3 = build_graph(3)
    assert len(g3.vertices) == 3 and g3.edge_count() == 2
    # (3)-(2,1)-(1,1,1) is a path: the middle vertex has both neighbors.
    assert sorted(neighbors(g3, (2, 1))) == [(1, 1, 1), (3,)]
    assert neighbors(g3, (3,)) == [(2, 1)]


def test_graph_4():
    g = build_graph(4)
    assert len(g.vertices) == 5
    assert g.edge_count() == 5
    triangles = [
        (i, j, k)
        for i, j, k in itertools.combinations(range(5), 3)
        if j in g.moves[i] and k in g.moves[i] and k in g.moves[j]
    ]
    assert len(triangles) == 1
    members = {g.vertices[v] for v in triangles[0]}
    assert members == {(3, 1), (2, 2), (2, 1, 1)}


def test_neighbors():
    g2 = build_graph(2)
    assert neighbors(g2, (1, 1)) == [(2,)]
    g4 = build_graph(4)
    assert sorted(neighbors(g4, (3, 1))) == [(2, 1, 1), (2, 2), (4,)]
    assert neighbors(g4, (4,)) == [(3, 1)]


def test_are_adjacent():
    g = build_graph(4)
    assert are_adjacent(g, (4,), (3, 1))
    assert not are_adjacent(g, (4,), (2, 2))
    assert not are_adjacent(g, (3, 1), (3, 1))


def test_unknown_vertex():
    g = build_graph(4)
    with pytest.raises(UnknownVertexError):
        g.vertex_id((5,))


def test_adjacency_by_conjugate():
    # (3,1)' = (2,1,1) and (2,2)' = (2,2): column 3 loses a cell, column 2 gains one.
    assert adjacency_by_conjugate((3, 1), (2, 2)) == (3, 2)
    assert adjacency_by_conjugate((4,), (1, 1, 1, 1)) is None
    assert adjacency_by_conjugate((3, 1), (3, 1)) is None
    with pytest.raises(InvalidPartitionError):
        adjacency_by_conjugate((3,), (2, 2))


def test_edge_decompositions_unique_and_correct():
    decomps = edge_decompositions((3, 1), (2, 2))
    assert len(decomps) == 1
    c, a = decomps[0]
    assert (c.row, c.col) == (1, 3)
    assert (a.row, a.col) == (2, 2)
    assert apply_transfer((3, 1), c, a) == (2, 2)
    assert edge_decompositions((4,), (1, 1, 1, 1)) == []
    assert edge_decompositions((3, 1), (3, 1)) == []


def test_edge_decompositions_match_corner_scan_on_all_pairs():
    for n in range(1, 11):
        vertices = enumerate_partitions(n)
        for lam in vertices:
            scan = transfers_by_scan(lam)
            for mu in vertices:
                assert edge_decompositions(lam, mu) == [
                    (c, a) for c, a, moved in scan if moved == mu]
    with pytest.raises(InvalidPartitionError):
        edge_decompositions((3, 1), (2, 2, 1))
    with pytest.raises(InvalidPartitionError):
        edge_decompositions((3, 1), (3, 0))


def test_every_edge_has_exactly_one_decomposition():
    g = build_graph(9)
    for i, j in g.edges():
        assert len(edge_decompositions(g.vertices[i], g.vertices[j])) == 1


def test_moves_record_each_transfer_in_order():
    for n in range(1, 11):
        g = build_graph(n)
        for u, lam in enumerate(g.vertices):
            assert list(g.moves[u].items()) == [
                (g.index[mu], (c, a)) for c, a, mu in admissible_transfers(lam)]
            assert g.adjacency[u] == tuple(sorted(g.moves[u]))
            scan = transfers_by_scan(lam)
            for v, corners in g.moves[u].items():
                assert [corners] == [(c, a) for c, a, moved in scan
                                     if moved == g.vertices[v]]


def test_symmetric_irreflexive_and_matches_conjugate_scan():
    for n in range(1, 9):
        g = build_graph(n)
        for i, row in enumerate(g.adjacency):
            assert i not in g.moves[i]
            for j in row:
                assert i in g.moves[j]
        assert sorted(g.edges()) == edges_by_conjugate_scan(g)


def test_conjugate_scan_matches_per_pair_conjugate_rule():
    for n in range(1, 13):
        g = build_graph(n)
        per_pair = [(i, j) for i, j in itertools.combinations(range(len(g.vertices)), 2)
                    if adjacency_by_conjugate(g.vertices[i], g.vertices[j]) is not None]
        assert edges_by_conjugate_scan(g) == per_pair


def test_heights_cached_on_graph():
    g = build_graph(6)
    assert g.heights == tuple(height(lam) for lam in g.vertices)


def test_connected_for_small_n():
    for n in range(1, 11):
        assert build_graph(n).is_connected()


def test_format_dimacs():
    text = format_dimacs(build_graph(3))
    lines = text.splitlines()
    assert lines[0] == "p edge 3 2"
    assert len(lines) == 3
    assert all(line.startswith("e ") for line in lines[1:])


def test_format_edge_list_and_legend():
    g = build_graph(3)
    assert format_edge_list(g) == "1 2\n2 3\n"
    legend = format_legend(g).splitlines()
    assert legend[0] == "1 [3]"
    assert legend[-1] == "3 [1,1,1]"
