"""The clique complex of the transfer graph.

Simplices are cliques of the transfer graph, handled as sorted tuples of
vertex ids.  The module classifies triangles and larger cliques by their
shared corner, builds the canonical cover out of full star- and top-simplices,
derives the maximal simplices from the classification, and counts simplices
per dimension four ways: by subsets of the facets, by the height-raising
fibers of the graph, from the corner rows of each partition alone, and for
every n up to a bound at once, by one sweep over part values that lists no
partition.

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

from .graph import PartitionGraph
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
    iter_partitions,
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
    arms = {mu: (c, a) for c, a, mu in
            _transfers(lam, _removable_corners(lam), _addable_corners(lam))}
    for mu in (mu1, mu2):
        if mu not in arms:
            raise InvalidPartitionError(f"{mu} is not adjacent to {lam}")
    return _triangle_class(arms[mu1], arms[mu2])


def _triangle_class(arm1: tuple[Corner, Corner], arm2: tuple[Corner, Corner]) -> TriangleClass:
    """classify_triangle on the corner pairs (c, a) of the two edges."""
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
        if j not in g.moves[i]:
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
    decomps = [g.moves[base_id][vid] for vid in sorted_ids if vid != base_id]
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
        for kind, fibers in ((STAR, g.star[base_id]), (TOP, g.top[base_id])):
            for corner, fiber in fibers.items():
                if fiber:
                    vertices = _full_simplex(base_id, fiber)
                    found.setdefault(vertices, []).append((kind, base_id, corner))
    return [
        CoverMember(vertices, tuple(provenances))
        for vertices, provenances in sorted(found.items())
    ]


def _full_simplex(base_id: int, fiber: tuple[int, ...]) -> tuple[int, ...]:
    """Vertex ids of a base vertex and one of its fibers, sorted."""
    return tuple(sorted((base_id,) + fiber))


def full_star_simplex(g: PartitionGraph, lam: Iterable[int], c) -> tuple[int, ...]:
    """Vertex ids of {lam} union its star fiber at c, sorted."""
    vid = g.vertex_id(lam)
    c = _validated_removable(g.vertices[vid], c)
    return _full_simplex(vid, g.star[vid][c])


def full_top_simplex(g: PartitionGraph, lam: Iterable[int], a) -> tuple[int, ...]:
    """Vertex ids of {lam} union its top fiber at a, sorted."""
    vid = g.vertex_id(lam)
    a = _validated_addable(g.vertices[vid], a)
    return _full_simplex(vid, g.top[vid][a])


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
        for fiber in itertools.chain(g.star[vid].values(), g.top[vid].values()):
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

    One pass over iter_partitions(n) counts every clique once, at its
    lowest vertex: f_0 = p(n), f_1 sums the raising star-fiber sizes (each
    edge lies in exactly one star fiber of its lower end), and for k >= 2 a
    k-simplex is its lowest vertex plus k members of exactly one raising
    star or top fiber, so f_k sums C(s, k) over all of them, s the size.

    Lemma: the raising star sizes and the raising top sizes of one
    partition both count its height-raising transfers, once by removable
    and once by addable corner, so their sums agree; a partition where they
    do not raises TheoremViolationError.
    """
    vertices = 0
    edges = 0
    size_counts = [0] * (n + 2)
    for lam in iter_partitions(n):
        star, top = _raising_fiber_sizes(lam)
        raising = sum(star)
        if raising != sum(top):
            raise TheoremViolationError(
                f"{lam} has {raising} raising transfers by removable corner"
                f" but {sum(top)} by addable corner")
        vertices += 1
        edges += raising
        for s in itertools.chain(star, top):
            size_counts[s] += 1
    counts = [vertices, edges]
    for k in range(2, len(size_counts)):
        faces = sum(count * math.comb(s, k) for s, count in enumerate(size_counts) if count)
        if not faces:
            break
        counts.append(faces)
    while counts[-1] == 0:
        counts.pop()
    return FVector(tuple(counts))


def _with_copies(rows: list[list[int]], v: int) -> list[list[int]]:
    """out[m] = rows[m - v] + rows[m - 2v] + ...: whatever rows[m'] counts,
    with one or more parts v added to reach sum m."""
    out = [[0] * len(row) for row in rows]
    for m in range(v, len(rows)):
        out[m] = [x + y for x, y in zip(rows[m - v], out[m - v])]
    return out


def _fiber_size_histograms(max_n: int) -> list[tuple[int, list[int], list[int]]]:
    """(p(n), star, top) for n = 1..max_n, with star[s] and top[s] the number
    of raising star and top fibers of size s over all partitions of n.

    By _raising_fiber_sizes, each distinct part v of lam has one raising
    star fiber, of size d_<=(v) - adj(v), and one raising top fiber, of
    size d_>=(v) - adj(v), where d_<=(v) and d_>=(v) count the distinct
    parts <= v and >= v, and adj(v) = [v - 1 is a part, or v = 1].  Every
    partition also has the top fiber at its first-row addable corner, which
    is always empty and is counted at size 0.

    One sweep adds the part values v = 1, 2, ..., max_n in turn, with no
    partition enumerated.  Before v, for the partitions of each sum m into
    parts < v:

    - ways[adj][m][d] counts those with d distinct parts, split by
      whether v - 1 is a part; the empty partition counts 0 as a part,
      which gives adj(1) = 1;
    - star[m][s] counts their (partition, part) pairs with a star fiber of
      size s, which no larger part changes;
    - top[m][s] counts their (partition, part u) pairs with d_>=(u) -
      adj(u) = s so far, before the parts >= v are known; each distinct
      part added later raises s by one.

    Adding one or more parts v to a partition with d distinct parts gives v
    the star size d + 1 - adj and the top size 1 - adj so far.  The work is
    O(max_n^2 * sqrt(max_n)) integer additions, since d <= sqrt(2 max_n).
    """
    if not isinstance(max_n, int) or isinstance(max_n, bool) or max_n < 1:
        raise InvalidPartitionError(f"max_n must be a positive integer, got {max_n!r}")
    width = math.isqrt(2 * max_n) + 1

    def rows() -> list[list[int]]:
        return [[0] * width for _ in range(max_n + 1)]

    ways = [rows(), rows()]
    ways[1][0][0] = 1
    star = rows()
    top = rows()
    for v in range(1, max_n + 1):
        # Partitions with one or more parts v, without and with the part v - 1.
        absent, present = (_with_copies(w, v) for w in ways)
        star_kept = _with_copies(star, v)
        top_kept = _with_copies(top, v)
        for m in range(v, max_n + 1):
            a, b = absent[m], present[m]
            # v's star fiber has size d + 1 without v - 1 and d with it.
            star[m] = [x + y + z + w for x, y, z, w in
                       zip(star[m], star_kept[m], [0] + a[:-1], b)]
            # v raises every smaller part's top size by one, and its own top
            # fiber has size 1 without v - 1 and 0 with it so far.
            top[m] = [x + y for x, y in zip(top[m], [0] + top_kept[m][:-1])]
            top[m][0] += sum(b)
            top[m][1] += sum(a)
        ways = [
            [[x + y for x, y in zip(a, b)] for a, b in zip(*ways)],
            [[0] + [x + y for x, y in zip(a, b)][:-1] for a, b in zip(absent, present)],
        ]
    out = []
    for n in range(1, max_n + 1):
        vertices = sum(ways[0][n]) + sum(ways[1][n])
        top[n][0] += vertices
        out.append((vertices, star[n], top[n]))
    return out


def fvector_table(max_n: int) -> list[FVector]:
    """f-vectors of the clique complexes for n = 1..max_n, from one sweep.

    The counting is that of fvector_by_corner_counting, aggregated by
    _fiber_size_histograms instead of summed partition by partition:
    f_0 = p(n), f_1 = sum of s * star[s], and f_k = sum of
    (star[s] + top[s]) * C(s, k) for k >= 2.

    Lemma, in the aggregate this route sees: both histograms count every
    height-raising transfer once, so their edge sums agree at every n; an n
    where they do not raises TheoremViolationError.
    """
    table = []
    for n, (vertices, star, top) in enumerate(_fiber_size_histograms(max_n), start=1):
        edges = sum(s * count for s, count in enumerate(star))
        by_addable = sum(s * count for s, count in enumerate(top))
        if edges != by_addable:
            raise TheoremViolationError(
                f"n={n} has {edges} raising transfers by removable corner"
                f" but {by_addable} by addable corner")
        counts = [vertices, edges]
        for k in range(2, len(star)):
            faces = sum((x + y) * math.comb(s, k) for s, (x, y) in enumerate(zip(star, top)))
            if not faces:
                break
            counts.append(faces)
        while counts[-1] == 0:
            counts.pop()
        table.append(FVector(tuple(counts)))
    return table


def format_facet_lines(facets: Iterable[tuple[int, ...]]) -> str:
    """One facet per line as space-separated 1-based vertex ids."""
    return "".join(
        " ".join(str(vid + 1) for vid in facet) + "\n" for facet in facets
    )
