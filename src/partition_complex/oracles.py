"""Independent recomputation paths for cross-checking the main constructions.

Everything here deliberately avoids the code paths it is used to check:
clique enumeration is generic graph search over the neighbour sets (the
keys of g.moves) with no corner calculus (maximal cliques by Bron-Kerbosch
with Tomita's pivot), the edge oracle uses only conjugate arithmetic,
partition counting uses the recurrence with generalized pentagonal numbers,
and a vertex's transfers come from scanning all its corner pairs through the
sorting transfer route (reading only the public corner lists), not from the
one transfer pass that builds the graph.  Edge decompositions and full
star- and top-simplices are checked by filtering that one scan per vertex.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import AbstractSet, Sequence

from .graph import PartitionGraph, _conjugate_unit_move
from .partitions import (
    Corner,
    InadmissibleTransferError,
    Partition,
    addable_corners,
    apply_transfer,
    as_partition,
    conjugate,
    removable_corners,
)


def maximal_cliques_reference(g: PartitionGraph) -> list[tuple[int, ...]]:
    """Facets by generic maximal-clique enumeration over the neighbour sets.

    Reads nothing of the graph but its adjacency, the keys of g.moves; see
    bron_kerbosch_pivot.
    """
    return bron_kerbosch_pivot([targets.keys() for targets in g.moves])


def bron_kerbosch_pivot(adjacency: Sequence[AbstractSet[int]]) -> list[tuple[int, ...]]:
    """Maximal cliques of the graph on vertices 0..len(adjacency)-1, sorted.

    Bron-Kerbosch (CACM 16(9), 1973) with Tomita's pivot (TCS 363, 2006):
    candidates are the vertices that extend the clique so far, and excluded
    those that extend it but were already tried.  The clique is maximal when
    both are empty.  Only candidates outside the pivot's neighbourhood are
    branched on, the pivot being the vertex of either set with the most
    neighbours among the candidates.  A graph with no vertices has no
    maximal clique.
    """
    out: list[tuple[int, ...]] = []

    def expand(clique: list[int], candidates: set[int], excluded: set[int]) -> None:
        if not candidates and not excluded:
            out.append(tuple(sorted(clique)))
            return
        pivot = max(candidates | excluded, key=lambda u: len(candidates & adjacency[u]))
        for v in candidates - adjacency[pivot]:
            clique.append(v)
            expand(clique, candidates & adjacency[v], excluded & adjacency[v])
            clique.pop()
            candidates.remove(v)
            excluded.add(v)

    if adjacency:
        expand([], set(range(len(adjacency))), set())
    out.sort()
    return out


def all_cliques_reference(g: PartitionGraph) -> list[tuple[int, ...]]:
    """Every nonempty clique, by direct recursive extension over vertex ids
    through the neighbour sets, the keys of g.moves."""
    out: list[tuple[int, ...]] = []

    def extend(clique: tuple[int, ...], candidates: AbstractSet[int]) -> None:
        out.append(clique)
        for vid in sorted(candidates):
            if vid > clique[-1]:
                extend(clique + (vid,), candidates & g.moves[vid].keys())

    for start in range(len(g.vertices)):
        extend((start,), g.moves[start].keys())
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


def transfers_by_scan(lam: Partition) -> list[tuple[Corner, Corner, Partition]]:
    """Every (c, a, apply_transfer(lam, c, a)) that succeeds, by scanning all
    removable x addable corner pairs of lam, in that order."""
    lam = as_partition(lam)
    addable = addable_corners(lam)
    out = []
    for c in removable_corners(lam):
        for a in addable:
            try:
                out.append((c, a, apply_transfer(lam, c, a)))
            except InadmissibleTransferError:
                continue
    return out


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
