"""The transfer graph on partitions of n.

Vertices are the partitions of n in descending lexicographic order, carrying
dense 0-based ids in that order.  Two partitions are adjacent when one is an
admissible single-cell transfer of the other.  One transfer pass per vertex
gives the corner pair (c, a) of each of its edges, its star fibers (targets
grouped by the removable corner that moves) and its top fibers (grouped by
the addable corner that receives); the graph keeps all three.  Its
adjacency is stored once, as the keys of the corner-pair maps, plus each
vertex's neighbours in id order for walks and edge lists.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .partitions import (
    Corner,
    Partition,
    TheoremViolationError,
    _addable_corners,
    _removable_corners,
    _transfers,
    as_partition,
    enumerate_partitions,
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

    def vertex_id(self, lam: Iterable[int]) -> int:
        lam = as_partition(lam)
        try:
            return self.index[lam]
        except KeyError:
            raise UnknownVertexError(f"{lam} is not a partition of {self.n}") from None

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (i, j) id pairs with i < j, sorted."""
        return [(i, j) for i, nbrs in enumerate(self.adjacency) for j in nbrs if i < j]

    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2


def _check_vertex_ids(g: PartitionGraph, ids: Sequence[int], error: type[Exception]) -> None:
    """Raise error unless every id is a vertex id of g: of type int itself,
    so no bool or other int subclass, and in range."""
    for vid in ids:
        if type(vid) is not int:
            raise error(f"vertex id {vid!r} is not an int")
        if not 0 <= vid < len(g.vertices):
            raise error(f"unknown vertex id {vid}")


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
