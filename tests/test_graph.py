"""The transfer graph on partitions of n."""

import itertools

import pytest

from partition_complex import graph, oracles
from partition_complex.graph import UnknownVertexError, build_graph
from partition_complex.oracles import (
    adjacency_by_conjugate,
    edges_by_conjugate_scan,
    transfers_by_scan,
)
from partition_complex.partitions import (
    InvalidPartitionError,
    TheoremViolationError,
    admissible_transfers,
    height,
)


def neighbours(g, lam):
    """The neighbours of lam, in id order."""
    return [g.vertices[other] for other in g.adjacency[g.vertex_id(lam)]]


def scan_decompositions(lam, mu):
    """Every corner pair (c, a) of the corner-pair scan of lam that gives mu."""
    return [(c, a) for c, a, moved in transfers_by_scan(lam) if moved == mu]


def test_tiny_graphs():
    g1 = build_graph(1)
    assert len(g1.vertices) == 1 and g1.edge_count() == 0
    g3 = build_graph(3)
    assert len(g3.vertices) == 3 and g3.edge_count() == 2
    # (3)-(2,1)-(1,1,1) is a path: the middle vertex has both neighbors.
    assert sorted(neighbours(g3, (2, 1))) == [(1, 1, 1), (3,)]
    assert neighbours(g3, (3,)) == [(2, 1)]


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
    assert neighbours(g2, (1, 1)) == [(2,)]
    g4 = build_graph(4)
    assert sorted(neighbours(g4, (3, 1))) == [(2, 1, 1), (2, 2), (4,)]
    assert neighbours(g4, (4,)) == [(3, 1)]


def test_are_adjacent():
    # The edge test is membership in the moves of either endpoint.
    g = build_graph(4)
    vid = g.vertex_id
    assert vid((3, 1)) in g.moves[vid((4,))]
    assert vid((4,)) in g.moves[vid((3, 1))]
    assert vid((2, 2)) not in g.moves[vid((4,))]
    assert vid((3, 1)) not in g.moves[vid((3, 1))]


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
    g = build_graph(4)
    vid = g.vertex_id
    c, a = g.moves[vid((3, 1))][vid((2, 2))]
    assert (c.row, c.col) == (1, 3)
    assert (a.row, a.col) == (2, 2)
    assert scan_decompositions((3, 1), (2, 2)) == [(c, a)]
    assert vid((1, 1, 1, 1)) not in g.moves[vid((4,))]
    assert scan_decompositions((4,), (1, 1, 1, 1)) == []
    assert scan_decompositions((3, 1), (3, 1)) == []


def test_edge_decompositions_match_corner_scan_on_all_pairs():
    """The scan reaches each neighbour by exactly one corner pair, and no
    other vertex at all: a non-neighbour has no decomposition."""
    for n in range(1, 11):
        g = build_graph(n)
        for u, lam in enumerate(g.vertices):
            reached = [g.index[moved] for _, _, moved in transfers_by_scan(lam)]
            assert sorted(reached) == list(g.adjacency[u])


def test_every_edge_has_exactly_one_decomposition():
    g = build_graph(9)
    for i, j in g.edges():
        assert scan_decompositions(g.vertices[i], g.vertices[j]) == [g.moves[i][j]]
        assert scan_decompositions(g.vertices[j], g.vertices[i]) == [g.moves[j][i]]


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
    for n in range(1, 11):
        g = build_graph(n)
        for i, row in enumerate(g.adjacency):
            assert i not in g.moves[i]
            for j in row:
                assert i in g.moves[j]
        assert edges_by_conjugate_scan(g) == g.edges()


def _first_conjugate_scan_mismatch():
    """The first n <= 12 where the conjugate scan and a per-pair loop over
    adjacency_by_conjugate list different edges, or None."""
    for n in range(1, 13):
        g = build_graph(n)
        per_pair = [(i, j) for i, j in itertools.combinations(range(len(g.vertices)), 2)
                    if adjacency_by_conjugate(g.vertices[i], g.vertices[j]) is not None]
        if edges_by_conjugate_scan(g) != per_pair:
            return n
    return None


def test_conjugate_scan_matches_per_pair_conjugate_rule():
    assert _first_conjugate_scan_mismatch() is None


def test_conjugate_scan_keyed_by_the_last_column_alone_fails(monkeypatch):
    # Keying each conjugate only by its removal from the last column misses
    # every unit move out of another column.
    real = oracles._removal_keys
    monkeypatch.setattr(oracles, "_removal_keys", lambda conj: real(conj)[-1:])
    assert _first_conjugate_scan_mismatch() is not None


def test_heights_cached_on_graph():
    g = build_graph(6)
    assert g.heights == tuple(height(lam) for lam in g.vertices)


def test_one_sided_transfer_breaks_the_symmetry_check(monkeypatch):
    # [4] loses its one transfer, to [3,1]; [3,1] keeps its transfer back to
    # [4], so the adjacency is no longer symmetric.
    real = graph._transfers

    def dropping(lam, removable, addable):
        transfers = real(lam, removable, addable)
        return transfers[1:] if lam == (4,) else transfers

    monkeypatch.setattr(graph, "_transfers", dropping)
    with pytest.raises(TheoremViolationError,
                       match=r"not symmetric and irreflexive at \(3, 1\), \(4,\)"):
        build_graph(4)
