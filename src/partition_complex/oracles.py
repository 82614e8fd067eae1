"""Independent recomputation paths for cross-checking the main constructions.

Everything here deliberately avoids the code paths it is used to check:
clique enumeration is generic graph search with no corner calculus, the edge
oracle uses only conjugate arithmetic, partition counting uses the recurrence
with generalized pentagonal numbers, and edge decompositions and full star-
and top-simplices are recovered by scanning all corner pairs through the
sorting transfer route instead of reading corners off the row difference or
a single transfer pass.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import networkx as nx

from .cliques import STAR
from .graph import PartitionGraph, _conjugate_unit_move
from .partitions import (
    Corner,
    Partition,
    addable_corners,
    apply_transfer,
    as_partition,
    conjugate,
    is_admissible,
    removable_corners,
)


def maximal_cliques_reference(g: PartitionGraph) -> list[tuple[int, ...]]:
    """Facets by generic maximal-clique enumeration (Bron-Kerbosch via networkx)."""
    nxg = nx.Graph()
    nxg.add_nodes_from(range(len(g.vertices)))
    nxg.add_edges_from(g.edges())
    return sorted(tuple(sorted(clique)) for clique in nx.find_cliques(nxg))


def all_cliques_reference(g: PartitionGraph) -> list[tuple[int, ...]]:
    """Every nonempty clique, by direct recursive extension over vertex ids."""
    out: list[tuple[int, ...]] = []

    def extend(clique: tuple[int, ...], candidates: frozenset[int]) -> None:
        out.append(clique)
        for vid in sorted(candidates):
            if vid > clique[-1]:
                extend(clique + (vid,), candidates & g.adjacency_sets[vid])

    for start in range(len(g.vertices)):
        extend((start,), g.adjacency_sets[start])
    out.sort(key=lambda clique: (len(clique), clique))
    return out


def edges_by_conjugate_scan(g: PartitionGraph) -> list[tuple[int, int]]:
    """Edge set recomputed by testing every vertex pair with the conjugate rule.

    Each vertex is conjugated once; a pair is then an edge when the two
    conjugates differ by one unit move, as in adjacency_by_conjugate.
    """
    conjugates = [conjugate(lam) for lam in g.vertices]
    return [(i, j) for i, j in itertools.combinations(range(len(conjugates)), 2)
            if _conjugate_unit_move(conjugates[i], conjugates[j]) is not None]


def edge_decompositions_by_scan(lam: Partition, mu: Partition) -> list[tuple[Corner, Corner]]:
    """All (c, a) with apply_transfer(lam, c, a) == mu, by scanning corner pairs."""
    lam = as_partition(lam)
    mu = as_partition(mu)
    out = []
    for c in removable_corners(lam):
        for a in addable_corners(lam):
            if c.row != a.row and is_admissible(lam, c, a) and apply_transfer(lam, c, a) == mu:
                out.append((c, a))
    return out


def full_simplex_by_scan(
    g: PartitionGraph, kind: str, base_id: int, corner: Corner
) -> tuple[int, ...]:
    """Vertex ids of the full star- or top-simplex at (base, corner), by scanning corner pairs.

    kind is STAR (corner is the fixed removable corner) or TOP (corner is
    the fixed addable corner); the base itself is always a member.
    """
    lam = g.vertices[base_id]
    members = [base_id]
    for c in removable_corners(lam):
        for a in addable_corners(lam):
            fixed = c if kind == STAR else a
            if fixed == corner and is_admissible(lam, c, a):
                members.append(g.index[apply_transfer(lam, c, a)])
    return tuple(sorted(members))


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """p(n) by the recurrence over generalized pentagonal numbers."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        pent1 = k * (3 * k - 1) // 2
        pent2 = k * (3 * k + 1) // 2
        if pent1 > n and pent2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        if pent1 <= n:
            total += sign * partition_count(n - pent1)
        if pent2 <= n:
            total += sign * partition_count(n - pent2)
        k += 1
    return total
