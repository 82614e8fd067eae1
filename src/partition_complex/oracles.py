"""Independent recomputation paths for cross-checking the main constructions.

Everything here deliberately avoids the code paths it is used to check:
clique enumeration is generic graph search over the neighbour sets (the
keys of g.moves) with no corner calculus, and the maximal cliques are the
listed cliques whose members' neighbour sets share no vertex.  The edge
oracle uses only conjugate arithmetic (two partitions are adjacent exactly
when their conjugates differ by one unit move: one column count lowered,
another raised, by one), partition counting uses the recurrence with
generalized pentagonal numbers, and a vertex's transfers come from
scanning all its corner pairs (read off the public corner lists) by the
definition, moving one cell and re-sorting the row lengths, not from the
one transfer pass that builds the graph.  Edge decompositions and full
star- and top-simplices are checked by filtering that one scan per vertex.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache, reduce
from typing import AbstractSet, Iterable, Optional, Sequence

from .graph import PartitionGraph
from .partitions import (
    Corner,
    InvalidPartitionError,
    Partition,
    addable_corners,
    as_partition,
    conjugate,
    removable_corners,
)


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


def maximal_cliques_reference(g: PartitionGraph,
                              cliques: Iterable[Sequence[int]]) -> list[tuple[int, ...]]:
    """The maximal cliques of g, sorted, from a list holding every clique of g.

    A clique is maximal when its members' neighbour sets, the keys of
    g.moves, share no vertex: nothing outside it neighbours all of it.
    """
    return sorted(tuple(clique) for clique in cliques
                  if not reduce(operator.and_, (g.moves[v].keys() for v in clique)))


def adjacency_by_conjugate(lam: Iterable[int], mu: Iterable[int]) -> Optional[tuple[int, int]]:
    """Columns (u, v) with mu' = lam' - e_u + e_v, or None if no such unit move exists.

    This is the oracle form of adjacency: it never looks at corners or
    transfers, only at the conjugate coordinate difference.
    """
    lam = as_partition(lam)
    mu = as_partition(mu)
    if sum(lam) != sum(mu):
        raise InvalidPartitionError(f"{lam} and {mu} are partitions of different totals")
    return _conjugate_unit_move(conjugate(lam), conjugate(mu))


def _conjugate_unit_move(lam_conj: Partition, mu_conj: Partition) -> Optional[tuple[int, int]]:
    """adjacency_by_conjugate on the two conjugates, unchecked."""
    down = up = 0
    columns = itertools.zip_longest(lam_conj, mu_conj, fillvalue=0)
    for col, (old, new) in enumerate(columns, start=1):
        if old == new:
            continue
        if new == old - 1 and not down:
            down = col
        elif new == old + 1 and not up:
            up = col
        else:
            return None
    return (down, up) if down and up else None


def _removal_keys(conj: Partition) -> list[tuple[int, ...]]:
    """conj - e_u for every column u, a trailing 0 dropped.  Two conjugates
    one unit move apart share one of these keys."""
    keys = []
    for u in range(len(conj)):
        key = conj[:u] + (conj[u] - 1,) + conj[u + 1:]
        keys.append(key[:-1] if key[-1] == 0 else key)
    return keys


def edges_by_conjugate_scan(g: PartitionGraph) -> list[tuple[int, int]]:
    """Edge set recomputed with the conjugate rule, in sorted order.

    mu' = lam' - e_u + e_v exactly when lam' - e_u = mu' - e_v, so two
    partitions are one unit move apart only if their conjugates share a key
    of _removal_keys.  Each vertex is conjugated once and filed under its
    keys; every pair filed under one key is decided as in
    adjacency_by_conjugate.  A pair shares at most one key (the unit move
    fixes u and v), so no pair is listed twice.
    """
    conjugates = [conjugate(lam) for lam in g.vertices]
    buckets: dict[tuple[int, ...], list[int]] = {}
    for i, conj in enumerate(conjugates):
        for key in _removal_keys(conj):
            buckets.setdefault(key, []).append(i)
    return sorted((i, j) for ids in buckets.values() for i, j in itertools.combinations(ids, 2)
                  if _conjugate_unit_move(conjugates[i], conjugates[j]) is not None)


def transfers_by_scan(lam: Partition) -> list[tuple[Corner, Corner, Partition]]:
    """Every admissible (c, a, result) from lam, by the definition: over all
    removable x addable corner pairs of lam in different rows, in that order,
    move one cell from row c.row to row a.row, re-sort the row lengths, and
    keep the pair when the result differs from lam."""
    lam = as_partition(lam)
    addable = addable_corners(lam)
    out = []
    for c in removable_corners(lam):
        for a in addable:
            if a.row == c.row:
                continue
            rows = list(lam) + [0]
            rows[c.row - 1] -= 1
            rows[a.row - 1] += 1
            result = tuple(sorted((row for row in rows if row), reverse=True))
            if result != lam:
                out.append((c, a, result))
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
