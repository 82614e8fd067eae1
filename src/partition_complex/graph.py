"""The transfer graph on partitions of n.

Vertices are the partitions of n in descending lexicographic order, carrying
dense 0-based ids in that order.  Two partitions are adjacent when one is an
admissible single-cell transfer of the other.  One transfer pass per vertex
gives its star fibers (targets grouped by the removable corner that moves)
and top fibers (grouped by the addable corner that receives); the graph
keeps both, and its adjacency is their union.  Edge corners are read off
the row difference; the equivalent conjugate criterion (one column count
lowered, another raised, by one) is kept as the oracle form of adjacency.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Iterable, Optional

from .partitions import (
    ADDABLE,
    REMOVABLE,
    Corner,
    InvalidPartitionError,
    Partition,
    TheoremViolationError,
    _addable_corners,
    _removable_corners,
    _transfers,
    as_partition,
    conjugate,
    enumerate_partitions,
    format_partition,
    height,
)


class UnknownVertexError(KeyError):
    """A partition that is not a vertex of the graph at hand."""


Fibers = dict[Corner, tuple[int, ...]]


class PartitionGraph:
    """Immutable adjacency structure over the partitions of n.

    star[v] maps each removable corner of vertex v, in removable_corners
    order, to the ids of the results of moving that corner's cell; top[v]
    maps each addable corner, in addable_corners order, to the ids of the
    results of moving a cell there.  Empty fibers are included, and each
    fiber lists its targets in admissible_transfers order.
    """

    def __init__(self, n: int, vertices: list[Partition], index: dict[Partition, int],
                 star: tuple[Fibers, ...], top: tuple[Fibers, ...]):
        self.n = n
        self.vertices = vertices
        self.index = index
        self.star = star
        self.top = top
        self.adjacency = [
            tuple(sorted({target for fiber in fibers.values() for target in fiber}))
            for fibers in star]
        self.adjacency_sets = [frozenset(nbrs) for nbrs in self.adjacency]
        self.heights = tuple(height(lam) for lam in vertices)

    def __repr__(self) -> str:
        return f"PartitionGraph(n={self.n}, vertices={len(self.vertices)}, edges={self.edge_count()})"

    def vertex_id(self, lam: Iterable[int]) -> int:
        lam = as_partition(lam)
        try:
            return self.index[lam]
        except KeyError:
            raise UnknownVertexError(f"{lam} is not a partition of {self.n}") from None

    def degree(self, vid: int) -> int:
        return len(self.adjacency[vid])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (i, j) id pairs with i < j, sorted."""
        return [(i, j) for i, nbrs in enumerate(self.adjacency) for j in nbrs if i < j]

    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def is_connected(self) -> bool:
        """Breadth-first reachability of every vertex from vertex 0."""
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for vid in frontier:
                for other in self.adjacency[vid]:
                    if other not in seen:
                        seen.add(other)
                        nxt.append(other)
            frontier = nxt
        return len(seen) == len(self.vertices)


def build_graph(n: int) -> PartitionGraph:
    """Build the transfer graph on all partitions of n, fibers included.

    Every transfer lies in exactly one star fiber and one top fiber of its
    source, so one pass per vertex fills both.
    """
    vertices = enumerate_partitions(n)
    index = {lam: vid for vid, lam in enumerate(vertices)}
    stars = []
    tops = []
    for lam in vertices:
        removable = _removable_corners(lam)
        addable = _addable_corners(lam)
        star: dict[Corner, list[int]] = {c: [] for c in removable}
        top: dict[Corner, list[int]] = {a: [] for a in addable}
        for c, a, result in _transfers(lam, removable, addable):
            target = index[result]
            star[c].append(target)
            top[a].append(target)
        stars.append({c: tuple(fiber) for c, fiber in star.items()})
        tops.append({a: tuple(fiber) for a, fiber in top.items()})
    g = PartitionGraph(n, vertices, index, tuple(stars), tuple(tops))
    for i, nbrs in enumerate(g.adjacency):
        for j in nbrs:
            if i == j or i not in g.adjacency_sets[j]:
                raise TheoremViolationError(
                    f"transfer adjacency is not symmetric and irreflexive at "
                    f"{vertices[i]}, {vertices[j]}")
    return g


def neighbors(g: PartitionGraph, lam: Iterable[int]) -> list[Partition]:
    """All vertices reachable from lam by one admissible transfer, in id order."""
    vid = g.vertex_id(lam)
    return [g.vertices[other] for other in g.adjacency[vid]]


def are_adjacent(g: PartitionGraph, lam: Iterable[int], mu: Iterable[int]) -> bool:
    """True iff lam and mu are distinct and joined by an admissible transfer."""
    i = g.vertex_id(lam)
    j = g.vertex_id(mu)
    return j in g.adjacency_sets[i]


def adjacency_by_conjugate(lam: Iterable[int], mu: Iterable[int]) -> Optional[tuple[int, int]]:
    """Columns (u, v) with mu' = lam' - e_u + e_v, or None if no such unit move exists.

    This is the oracle form of adjacency: it never looks at corners or
    transfers, only at the conjugate coordinate difference.
    """
    lam = as_partition(lam)
    mu = as_partition(mu)
    if sum(lam) != sum(mu):
        raise InvalidPartitionError(f"{lam} and {mu} are partitions of different totals")
    lam_conj = conjugate(lam)
    mu_conj = conjugate(mu)
    width = max(len(lam_conj), len(mu_conj))
    lam_conj += (0,) * (width - len(lam_conj))
    mu_conj += (0,) * (width - len(mu_conj))
    down = []
    up = []
    for col in range(width):
        delta = mu_conj[col] - lam_conj[col]
        if delta == -1:
            down.append(col + 1)
        elif delta == 1:
            up.append(col + 1)
        elif delta != 0:
            return None
    if len(down) == 1 and len(up) == 1:
        return (down[0], up[0])
    return None


def _edge_corners(lam: Partition, mu: Partition) -> Optional[tuple[Corner, Corner]]:
    """The corners (c, a) with lam(c -> a) == mu, or None if lam, mu are not adjacent.

    Lemma: mu is adjacent to lam iff their zero-padded row vectors differ by
    -1 in exactly one row r and by +1 in exactly one row s; then
    c = (r, lam_r) and a = (s, lam_s + 1).  Both arguments must be valid
    partitions; pairs of different totals are never adjacent.
    """
    down = up = 0
    for row, (old, new) in enumerate(zip_longest(lam, mu, fillvalue=0), start=1):
        if old == new:
            continue
        if new == old - 1 and not down:
            down = row
        elif new == old + 1 and not up:
            up = row
        else:
            return None
    if not down or not up:
        return None
    added = lam[up - 1] + 1 if up <= len(lam) else 1
    return Corner(down, lam[down - 1], REMOVABLE), Corner(up, added, ADDABLE)


def edge_decompositions(lam: Iterable[int], mu: Iterable[int]) -> list[tuple[Corner, Corner]]:
    """All corner pairs (c, a) with apply_transfer(lam, c, a) == mu.

    The row difference pins both corners (see _edge_corners), so the list has
    at most one entry.
    """
    lam = as_partition(lam)
    mu = as_partition(mu)
    if sum(lam) != sum(mu):
        raise InvalidPartitionError(f"{lam} and {mu} are partitions of different totals")
    corners = _edge_corners(lam, mu)
    return [] if corners is None else [corners]


def format_dimacs(g: PartitionGraph) -> str:
    """DIMACS edge format with 1-based vertex ids."""
    lines = [f"p edge {len(g.vertices)} {g.edge_count()}"]
    lines.extend(f"e {i + 1} {j + 1}" for i, j in g.edges())
    return "\n".join(lines) + "\n"


def format_edge_list(g: PartitionGraph) -> str:
    """Plain 'i j' lines with 1-based vertex ids."""
    return "".join(f"{i + 1} {j + 1}\n" for i, j in g.edges())


def format_legend(g: PartitionGraph) -> str:
    """The 1-based id -> partition literal mapping used by all exports."""
    return "".join(
        f"{vid + 1} {format_partition(lam)}\n" for vid, lam in enumerate(g.vertices))

