"""The clique complex of the transfer graph.

Simplices are cliques of the transfer graph, handled as sorted tuples of
vertex ids.  The module classifies triangles and larger cliques by their
shared corner, builds the canonical cover out of full star- and top-simplices,
derives the maximal simplices from the classification, and counts simplices
per dimension three ways: by subsets of the facets, by the height-raising
fibers of the graph, and from the corner rows of each partition alone.

Classification vocabulary: a clique is star-type at a vertex lam when every
other member is lam with one fixed removable corner moved somewhere, and
top-type when every other member is lam with some cell moved to one fixed
addable corner.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .graph import PartitionGraph, _edge_corners
from .homology import _alternating_sum
from .partitions import (
    Corner,
    InvalidPartitionError,
    Partition,
    TheoremViolationError,
    as_partition,
    _addable_corners,
    _removable_corners,
    _transfers,
    _validated_addable,
    _validated_removable,
    enumerate_partitions,
)

STAR = "star"
TOP = "top"
SMALL = "small"
NOT_TRIANGLE = "none"


class NotACliqueError(ValueError):
    """A vertex set that is not pairwise adjacent."""


@dataclass(frozen=True)
class TriangleClass:
    """Classification of a path mu1 - lam - mu2: star/top with its corner, or none."""

    kind: str
    corner: Optional[Corner] = None

    @property
    def is_triangle(self) -> bool:
        return self.kind != NOT_TRIANGLE


@dataclass(frozen=True)
class CliqueClass:
    """Classification of a clique: the witnessing base vertex and fixed corner."""

    kind: str
    base: Optional[Partition] = None
    corner: Optional[Corner] = None


@dataclass(frozen=True)
class CoverMember:
    """A full star- or top-simplex, deduplicated by vertex set.

    vertices: sorted vertex ids.  provenances: every (kind, base vertex id,
    corner) description that produced this vertex set; coinciding star and top
    descriptions are all retained.
    """

    vertices: tuple[int, ...]
    provenances: tuple[tuple[str, int, Corner], ...]


@dataclass(frozen=True)
class FVector:
    """Simplex counts per dimension; counts[p] is the number of p-simplices."""

    counts: tuple[int, ...]

    @property
    def euler_characteristic(self) -> int:
        return _alternating_sum(self.counts)


def star_fiber(lam: Iterable[int], c) -> list[Partition]:
    """All results of moving the cell at removable corner c elsewhere."""
    lam = as_partition(lam)
    c = _validated_removable(lam, c)
    return [mu for _, _, mu in _transfers(lam, [c], _addable_corners(lam))]


def top_fiber(lam: Iterable[int], a) -> list[Partition]:
    """All results of moving some removable cell of lam to addable corner a."""
    lam = as_partition(lam)
    a = _validated_addable(lam, a)
    return [mu for _, _, mu in _transfers(lam, _removable_corners(lam), [a])]


def _fibers(
    g: PartitionGraph, vid: int
) -> tuple[dict[Corner, list[int]], dict[Corner, list[int]]]:
    """Star and top fibers of one vertex as target ids, from one transfer pass.

    Star fibers are keyed in removable_corners order and top fibers in
    addable_corners order, empty fibers included; each fiber lists its
    targets in the order star_fiber and top_fiber return them.
    """
    lam = g.vertices[vid]
    removable = _removable_corners(lam)
    addable = _addable_corners(lam)
    star: dict[Corner, list[int]] = {c: [] for c in removable}
    top: dict[Corner, list[int]] = {a: [] for a in addable}
    for c, a, mu in _transfers(lam, removable, addable):
        target = g.index[mu]
        star[c].append(target)
        top[a].append(target)
    return star, top


def classify_triangle(lam: Iterable[int], mu1: Iterable[int], mu2: Iterable[int]) -> TriangleClass:
    """Decide whether the path mu1 - lam - mu2 closes into a triangle.

    The verdict is read off the transfer decompositions: the triangle closes
    iff the decompositions of the two edges share the removable corner
    (star) or the addable corner (top).
    """
    lam = as_partition(lam)
    mu1 = as_partition(mu1)
    mu2 = as_partition(mu2)
    if mu1 == mu2:
        raise InvalidPartitionError(f"triangle arms must differ, got {mu1} twice")
    arm1 = _edge_corners(lam, mu1)
    arm2 = _edge_corners(lam, mu2)
    if arm1 is None or arm2 is None:
        missing = mu1 if arm1 is None else mu2
        raise InvalidPartitionError(f"{missing} is not adjacent to {lam}")
    (c1, a1), (c2, a2) = arm1, arm2
    if c1 == c2:
        return TriangleClass(STAR, c1)
    if a1 == a2:
        return TriangleClass(TOP, a1)
    return TriangleClass(NOT_TRIANGLE)


def _check_clique(g: PartitionGraph, ids: Sequence[int]) -> tuple[int, ...]:
    vertex_count = len(g.vertices)
    for vid in ids:
        if not 0 <= vid < vertex_count:
            raise NotACliqueError(f"unknown vertex id {vid}")
    sorted_ids = tuple(sorted(set(ids)))
    if len(sorted_ids) != len(ids):
        raise NotACliqueError(f"repeated vertices in {tuple(ids)}")
    for i, j in itertools.combinations(sorted_ids, 2):
        if j not in g.adjacency_sets[i]:
            raise NotACliqueError(f"{g.vertices[i]} and {g.vertices[j]} are not adjacent")
    return sorted_ids


def classify_clique(g: PartitionGraph, ids: Sequence[int]) -> CliqueClass:
    """Classify a clique of ids as star- or top-type at its lowest vertex.

    For a clique of size >= 3 the witness (base, corner) satisfies: every
    member is the base or lies in the base's fiber at that corner.  Cliques
    of size <= 2 carry no forced type and come back as SMALL.
    """
    sorted_ids = _check_clique(g, ids)
    if len(sorted_ids) <= 2:
        return CliqueClass(SMALL)
    base_id = min(sorted_ids, key=lambda vid: g.heights[vid])
    base = g.vertices[base_id]
    decomps = [_edge_corners(base, g.vertices[vid]) for vid in sorted_ids if vid != base_id]
    removables = {c for c, _ in decomps}
    if len(removables) == 1:
        return CliqueClass(STAR, base, next(iter(removables)))
    addables = {a for _, a in decomps}
    if len(addables) == 1:
        return CliqueClass(TOP, base, next(iter(addables)))
    raise TheoremViolationError(
        f"clique {[g.vertices[v] for v in sorted_ids]} shares no corner at {base}"
    )


def canonical_cover(g: PartitionGraph) -> list[CoverMember]:
    """All full star- and top-simplices with nonempty fiber, deduplicated.

    Dedup is by vertex set; every producing description is kept as a
    provenance.  Members are sorted by vertex tuple, so member ids (list
    positions) are deterministic.
    """
    found: dict[tuple[int, ...], list[tuple[str, int, Corner]]] = {}
    for base_id in range(len(g.vertices)):
        star, top = _fibers(g, base_id)
        for kind, fibers in ((STAR, star), (TOP, top)):
            for corner, fiber in fibers.items():
                if fiber:
                    vertices = tuple(sorted([base_id] + fiber))
                    found.setdefault(vertices, []).append((kind, base_id, corner))
    return [
        CoverMember(vertices, tuple(provenances))
        for vertices, provenances in sorted(found.items())
    ]


def full_star_simplex(g: PartitionGraph, lam: Iterable[int], c) -> tuple[int, ...]:
    """Vertex ids of {lam} union its star fiber at c, sorted."""
    vid = g.vertex_id(lam)
    c = _validated_removable(g.vertices[vid], c)
    return tuple(sorted([vid] + _fibers(g, vid)[0][c]))


def full_top_simplex(g: PartitionGraph, lam: Iterable[int], a) -> tuple[int, ...]:
    """Vertex ids of {lam} union its top fiber at a, sorted."""
    vid = g.vertex_id(lam)
    a = _validated_addable(g.vertices[vid], a)
    return tuple(sorted([vid] + _fibers(g, vid)[1][a]))


def maximal_simplices(
    g: PartitionGraph, cover: Optional[list[CoverMember]] = None
) -> list[tuple[int, ...]]:
    """Facets of the clique complex, derived from the classification.

    They are: full star- or top-simplices with fiber size >= 2, edges whose
    two fibers both have size 1, and isolated vertices as singletons (the
    last case only arises when the graph has a vertex with no moves at all).
    Each edge (i, j), i < j, lies in exactly one star fiber and one top
    fiber of i, so it is a facet when the cover member (i, j) has both a
    star and a top provenance based at i.
    """
    if cover is None:
        cover = canonical_cover(g)
    facets = set()
    for member in cover:
        if len(member.vertices) >= 3:
            facets.add(member.vertices)
        elif len(member.vertices) == 2:
            low = member.vertices[0]
            if len({kind for kind, base, _ in member.provenances if base == low}) == 2:
                facets.add(member.vertices)
    facets.update((i,) for i, nbrs in enumerate(g.adjacency) if not nbrs)
    return sorted(facets)


def enumerate_simplices(
    g: PartitionGraph,
    facets: Optional[list[tuple[int, ...]]] = None,
) -> FVector:
    """Count every clique exactly once by enumerating subsets of facets.

    Subsets are deduplicated one dimension at a time through integer keys
    packing the sorted ids.
    """
    if facets is None:
        facets = maximal_simplices(g)
    width = max(1, (len(g.vertices) - 1).bit_length())
    max_size = max((len(facet) for facet in facets), default=0)
    counts = []
    for size in range(1, max_size + 1):
        seen: set[int] = set()
        for facet in facets:
            if len(facet) < size:
                continue
            for combo in itertools.combinations(facet, size):
                key = 1
                for vid in combo:
                    key = (key << width) | vid
                seen.add(key)
        counts.append(len(seen))
    return FVector(tuple(counts))


def fvector_by_fiber_counting(g: PartitionGraph) -> FVector:
    """Independent f-vector: count cliques at their minimum-height vertex.

    Every clique of size >= 3 contains a unique lowest vertex lam, and its
    other members form a subset of size >= 2 of one height-raising fiber of
    lam, determined uniquely.  So the count in each size is a sum of
    binomials over (vertex, corner) pairs, with edges and vertices counted
    directly.  Shares only the fibers with the facet machinery, none of its
    subset enumeration.
    """
    counts = [len(g.vertices), g.edge_count()]
    higher: list[int] = []
    heights = g.heights
    for vid in range(len(g.vertices)):
        star, top = _fibers(g, vid)
        for fiber in itertools.chain(star.values(), top.values()):
            raising = sum(1 for mu in fiber if heights[mu] > heights[vid])
            for k in range(2, raising + 1):
                while len(higher) < k - 1:
                    higher.append(0)
                higher[k - 2] += math.comb(raising, k)
    counts.extend(higher)
    while counts and counts[-1] == 0:
        counts.pop()
    return FVector(tuple(counts))


def _raising_fiber_sizes(lam: Partition) -> tuple[list[int], list[int]]:
    """Sizes of the height-raising star and top fibers of lam, from its rows.

    Star sizes come in removable_corners order and top sizes in
    addable_corners order.  With distinct parts v_1 > ... > v_k and
    v_{k+1} = 0, block i is the run of rows of length v_i; its removable
    corner ends it and its addable corner starts it, and the new-row corner
    starts block k + 1.  A transfer c -> a is admissible iff c and a differ
    in row and in column, and it raises the height by a.row - c.row.  So:

    - the star fiber at the corner that ends block i reaches the addable
      corners of blocks i+1..k+1, all in later rows, except the one of
      block i+1 when its column v_{i+1} + 1 is v_i: size k + 1 - i, minus
      1 when v_{i+1} = v_i - 1;
    - the top fiber at the corner that starts block j draws on the
      removable corners of blocks 1..j-1, except the one of block j-1 when
      its column v_{j-1} is v_j + 1: size j - 1, minus 1 when
      v_{j-1} = v_j + 1.
    """
    values = list(dict.fromkeys(lam))
    values.append(0)
    k = len(values) - 1
    star = []
    top = [0]
    for i in range(k):
        adjacent = values[i] - values[i + 1] == 1
        star.append(k - i - adjacent)
        top.append(i + 1 - adjacent)
    return star, top


def fvector_by_corner_counting(n: int) -> FVector:
    """f-vector of the clique complex on the partitions of n, with no graph.

    One pass over enumerate_partitions(n) counts every clique once, at its
    lowest vertex: f_0 = p(n), f_1 sums the raising star-fiber sizes (each
    edge lies in exactly one star fiber of its lower end), and for k >= 2 a
    k-simplex is its lowest vertex plus k members of exactly one raising
    star or top fiber, so f_k sums C(s, k) over all of them, s the size.

    Lemma: the raising star sizes and the raising top sizes of one
    partition both count its height-raising transfers, once by removable
    and once by addable corner, so their sums agree; a partition where they
    do not raises TheoremViolationError.
    """
    partitions = enumerate_partitions(n)
    edges = 0
    size_counts = [0] * (n + 2)
    for lam in partitions:
        star, top = _raising_fiber_sizes(lam)
        raising = sum(star)
        if raising != sum(top):
            raise TheoremViolationError(
                f"{lam} has {raising} raising transfers by removable corner"
                f" but {sum(top)} by addable corner")
        edges += raising
        for s in itertools.chain(star, top):
            size_counts[s] += 1
    counts = [len(partitions), edges]
    for k in range(2, len(size_counts)):
        faces = sum(count * math.comb(s, k) for s, count in enumerate(size_counts) if count)
        if not faces:
            break
        counts.append(faces)
    while counts[-1] == 0:
        counts.pop()
    return FVector(tuple(counts))


def format_facet_lines(facets: Iterable[tuple[int, ...]]) -> str:
    """One facet per line as space-separated 1-based vertex ids."""
    return "".join(
        " ".join(str(vid + 1) for vid in facet) + "\n" for facet in facets
    )
