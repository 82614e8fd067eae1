"""The transfer graph on partitions of n.

Vertices are the partitions of n in descending lexicographic order, carrying
dense 0-based ids in that order.  Two partitions are adjacent when one is an
admissible single-cell transfer of the other.  One transfer pass per vertex
gives the corner pair (c, a) of each of its edges, its star fibers (targets
grouped by the removable corner that moves) and its top fibers (grouped by
the addable corner that receives); the graph keeps all three.  Its
adjacency is stored once, as the keys of the corner-pair maps, plus each
vertex's neighbours in id order for walks and edge lists.  The equivalent
conjugate criterion (one column count lowered, another raised, by one) is
kept as the oracle form of adjacency.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Iterable, Optional

from .partitions import (
    Corner,
    InvalidPartitionError,
    Partition,
    TheoremViolationError,
    _addable_corners,
    _removable_corners,
    _transfers,
    admissible_transfers,
    as_partition,
    conjugate,
    enumerate_partitions,
    format_partition,
    height,
)


class UnknownVertexError(KeyError):
    """A partition that is not a vertex of the graph at hand."""


Moves = dict[int, tuple[Corner, Corner]]
Fibers = dict[Corner, tuple[int, ...]]


class PartitionGraph:
    """Immutable adjacency structure over the partitions of n.

    moves[v] maps each neighbour id of vertex v, in admissible_transfers
    order, to the corner pair (c, a) of the transfer from v to it; its keys
    are the adjacency, so u in moves[v] is the edge test and moves[v].keys()
    the neighbour set.  adjacency[v] lists the same neighbours in id order,
    the order random walks draw from.

    star[v] maps each removable corner of v, in removable_corners order, to
    the ids of the results of moving that corner's cell; top[v] maps each
    addable corner, in addable_corners order, to the ids of the results of
    moving a cell there.  Empty fibers are included, and each fiber lists its
    targets in admissible_transfers order.
    """

    def __init__(self, n: int, vertices: list[Partition], index: dict[Partition, int],
                 moves: tuple[Moves, ...], star: tuple[Fibers, ...], top: tuple[Fibers, ...]):
        self.n = n
        self.vertices = vertices
        self.index = index
        self.moves = moves
        self.star = star
        self.top = top
        self.adjacency = [tuple(sorted(targets)) for targets in moves]
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
    """Build the transfer graph on all partitions of n, moves and fibers included.

    Every transfer is one edge, with its corner pair, and lies in exactly
    one star fiber and one top fiber of its source, so one pass per vertex
    fills all three.
    """
    vertices = enumerate_partitions(n)
    index = {lam: vid for vid, lam in enumerate(vertices)}
    moves = []
    stars = []
    tops = []
    for lam in vertices:
        removable = _removable_corners(lam)
        addable = _addable_corners(lam)
        move: Moves = {}
        star: dict[Corner, list[int]] = {c: [] for c in removable}
        top: dict[Corner, list[int]] = {a: [] for a in addable}
        for c, a, result in _transfers(lam, removable, addable):
            target = index[result]
            move[target] = (c, a)
            star[c].append(target)
            top[a].append(target)
        moves.append(move)
        stars.append({c: tuple(fiber) for c, fiber in star.items()})
        tops.append({a: tuple(fiber) for a, fiber in top.items()})
    g = PartitionGraph(n, vertices, index, tuple(moves), tuple(stars), tuple(tops))
    for i, nbrs in enumerate(g.adjacency):
        for j in nbrs:
            if i == j or i not in g.moves[j]:
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
    return j in g.moves[i]


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
    for col, (old, new) in enumerate(zip_longest(lam_conj, mu_conj, fillvalue=0), start=1):
        if old == new:
            continue
        if new == old - 1 and not down:
            down = col
        elif new == old + 1 and not up:
            up = col
        else:
            return None
    return (down, up) if down and up else None


def edge_decompositions(lam: Iterable[int], mu: Iterable[int]) -> list[tuple[Corner, Corner]]:
    """All corner pairs (c, a) with apply_transfer(lam, c, a) == mu, filtered
    from the transfers of lam; each edge has exactly one."""
    lam = as_partition(lam)
    mu = as_partition(mu)
    if sum(lam) != sum(mu):
        raise InvalidPartitionError(f"{lam} and {mu} are partitions of different totals")
    return [(c, a) for c, a, result in admissible_transfers(lam) if result == mu]


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

