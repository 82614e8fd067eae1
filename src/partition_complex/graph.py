"""The transfer graph on partitions of n.

Vertices are the partitions of n in descending lexicographic order, carrying
dense 0-based ids in that order.  Two partitions are adjacent when one is an
admissible single-cell transfer of the other, or equivalently when their
conjugates differ by lowering one column count and raising another by one.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .partitions import (
    Corner,
    InvalidPartitionError,
    Partition,
    TheoremViolationError,
    addable_corners,
    admissible_transfers,
    as_partition,
    conjugate,
    enumerate_partitions,
    format_partition,
    height,
    is_admissible,
    removable_corners,
)


class UnknownVertexError(KeyError):
    """A partition that is not a vertex of the graph at hand."""


class PartitionGraph:
    """Immutable adjacency structure over the partitions of n."""

    def __init__(self, n: int, vertices: list[Partition], adjacency: list[tuple[int, ...]]):
        self.n = n
        self.vertices = vertices
        self.index = {lam: vid for vid, lam in enumerate(vertices)}
        self.adjacency = adjacency
        self.adjacency_sets = [frozenset(nbrs) for nbrs in adjacency]
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
    """Build the transfer graph on all partitions of n."""
    vertices = enumerate_partitions(n)
    index = {lam: vid for vid, lam in enumerate(vertices)}
    adjacency = []
    for lam in vertices:
        targets = {index[result] for _, _, result in admissible_transfers(lam)}
        adjacency.append(tuple(sorted(targets)))
    for i, nbrs in enumerate(adjacency):
        for j in nbrs:
            if i == j or i not in adjacency[j]:
                raise TheoremViolationError(
                    f"transfer adjacency is not symmetric and irreflexive at "
                    f"{vertices[i]}, {vertices[j]}")
    return PartitionGraph(n, vertices, adjacency)


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


def edge_decompositions(lam: Iterable[int], mu: Iterable[int]) -> list[tuple[Corner, Corner]]:
    """All corner pairs (c, a) with apply_transfer(lam, c, a) == mu.

    The conjugate difference pins the removed and added columns, and a corner
    is determined by its column, so the list has at most one entry.
    """
    lam = as_partition(lam)
    mu = as_partition(mu)
    columns = adjacency_by_conjugate(lam, mu)
    if columns is None:
        return []
    col_c, col_a = columns
    c = next((corner for corner in removable_corners(lam) if corner.col == col_c), None)
    a = next((corner for corner in addable_corners(lam) if corner.col == col_a), None)
    if c is None or a is None or not is_admissible(lam, c, a):
        return []
    return [(c, a)]


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

