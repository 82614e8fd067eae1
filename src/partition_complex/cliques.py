"""The clique complex of the transfer graph.

Simplices are cliques of the transfer graph, handled as sorted tuples of
vertex ids.  The module classifies triangles and larger cliques by their
shared corner, builds the canonical cover out of full star- and top-simplices,
derives the maximal simplices from the classification, and counts simplices
per dimension four ways: by subsets of the facets, by the height-raising
fibers of the graph, from the corner rows of each partition alone, and for
every n up to a bound at once, by a closed form in the partition numbers
that lists no partition.

Classification vocabulary: a clique is star-type at a vertex lam when every
other member is lam with one fixed removable corner moved somewhere, and
top-type when every other member is lam with some cell moved to one fixed
addable corner.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence

from .graph import PartitionGraph, _check_vertex_ids
from .partitions import (
    Corner,
    InvalidPartitionError,
    Partition,
    TheoremViolationError,
    _alternating_sum,
    iter_partitions,
)

STAR = "star"
TOP = "top"
SMALL = "small"
NOT_TRIANGLE = "none"


class NotACliqueError(ValueError):
    """A vertex set that is not pairwise adjacent."""


@dataclass(frozen=True)
class CliqueClass:
    """Classification of a clique: the witnessing base vertex id and fixed corner."""

    kind: str
    base: Optional[int] = None
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


def _triangle_class(arm1: tuple[Corner, Corner], arm2: tuple[Corner, Corner]) -> str:
    """STAR, TOP or NOT_TRIANGLE: whether the path mu1 - lam - mu2 closes
    into a triangle, from the corner pairs (c, a) of its two edges lam -> mu1
    and lam -> mu2.  It closes iff they share the removable corner (star)
    or the addable corner (top)."""
    (c1, a1), (c2, a2) = arm1, arm2
    if c1 == c2:
        return STAR
    if a1 == a2:
        return TOP
    return NOT_TRIANGLE


def _check_clique(g: PartitionGraph, ids: Sequence[int]) -> tuple[int, ...]:
    """The distinct ids, sorted, once each is checked to be a vertex id and
    every two distinct ones to be adjacent."""
    _check_vertex_ids(g, ids, NotACliqueError)
    sorted_ids = tuple(sorted(set(ids)))
    for i, j in itertools.combinations(sorted_ids, 2):
        if j not in g.moves[i]:
            raise NotACliqueError(f"{g.vertices[i]} and {g.vertices[j]} are not adjacent")
    return sorted_ids


def classify_clique(g: PartitionGraph, ids: Sequence[int]) -> CliqueClass:
    """Classify a clique of ids as star- or top-type at its lowest vertex.

    For a clique of size >= 3 the witness (base, corner) satisfies: every
    member is the base or lies in the base's fiber at that corner.  The kind
    is the _triangle_class verdict of every arm at the base against the
    first: all STAR, or all TOP.  Cliques of size <= 2 carry no forced type
    and come back as SMALL.
    """
    sorted_ids = _check_clique(g, ids)
    if len(sorted_ids) != len(ids):
        raise NotACliqueError(f"repeated vertices in {tuple(ids)}")
    if len(sorted_ids) <= 2:
        return CliqueClass(SMALL)
    base_id = min(sorted_ids, key=lambda vid: g.heights[vid])
    first, *rest = [g.moves[base_id][vid] for vid in sorted_ids if vid != base_id]
    verdicts = {_triangle_class(first, arm) for arm in rest}
    if verdicts == {STAR}:
        return CliqueClass(STAR, base_id, first[0])
    if verdicts == {TOP}:
        return CliqueClass(TOP, base_id, first[1])
    raise TheoremViolationError(f"clique {[g.vertices[v] for v in sorted_ids]} shares no corner"
                                f" at {g.vertices[base_id]}")


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


def maximal_simplices(g: PartitionGraph) -> list[tuple[int, ...]]:
    """Facets of the clique complex, derived from the classification and
    read off the graph's fibers.

    They are: full star- or top-simplices with fiber size >= 2, edges whose
    two fibers both have size 1, and isolated vertices as singletons (the
    last case only arises when the graph has a vertex with no moves at all).
    Each edge (i, j), i < j, lies in exactly one star fiber and one top
    fiber of i, at the corners (c, a) of its move, so it is a facet when
    both of those fibers hold j alone.
    """
    facets = set()
    for i, moves in enumerate(g.moves):
        star, top = g.star[i], g.top[i]
        for fiber in itertools.chain(star.values(), top.values()):
            if len(fiber) >= 2:
                facets.add(_full_simplex(i, fiber))
        for j, (c, a) in moves.items():
            if i < j and len(star[c]) == 1 and len(top[a]) == 1:
                facets.add((i, j))
        if not moves:
            facets.add((i,))
    return sorted(facets)


def enumerate_simplices(facets: Sequence[tuple[int, ...]]) -> FVector:
    """Count every clique exactly once by enumerating subsets of facets.

    Each facet is sorted first, so a face shared by several facets gives
    the same tuple in each; one set of tuples per size deduplicates them.
    """
    facets = [tuple(sorted(facet)) for facet in facets]
    max_size = max(map(len, facets), default=0)
    return FVector(tuple(
        len({combo for facet in facets for combo in itertools.combinations(facet, size)})
        for size in range(1, max_size + 1)))


def _fvector_from_fiber_sizes(vertices: int, edges: int, sizes: Counter[int]) -> FVector:
    """f_0 = vertices, f_1 = edges and, for k >= 2, f_k = sum over s of
    sizes[s] C(s, k), where sizes counts the raising fibers of each size s;
    trailing zeros dropped.

    A k-simplex, k >= 2, is its lowest vertex plus k members of exactly one
    height-raising star or top fiber of it, so the binomial sum counts it
    once.
    """
    counts = [vertices, edges]
    counts += [sum(count * math.comb(s, k) for s, count in sizes.items())
               for k in range(2, max(sizes, default=0) + 1)]
    while counts and counts[-1] == 0:
        counts.pop()
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
    heights = g.heights
    sizes = Counter(
        sum(1 for mu in fiber if heights[mu] > heights[vid])
        for vid in range(len(g.vertices))
        for fiber in itertools.chain(g.star[vid].values(), g.top[vid].values()))
    return _fvector_from_fiber_sizes(len(g.vertices), g.edge_count(), sizes)


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

    Remark: the raising star sizes and the raising top sizes of one
    partition both count its height-raising transfers, once by removable
    and once by addable corner.  Their sums agree by construction: in
    _raising_fiber_sizes both are k(k + 1)/2, k the number of distinct
    parts, less the same adjacency flags.
    """
    vertices = edges = 0
    sizes: Counter[int] = Counter()
    for lam in iter_partitions(n):
        star, top = _raising_fiber_sizes(lam)
        vertices += 1
        edges += sum(star)
        sizes.update(star + top)
    return _fvector_from_fiber_sizes(vertices, edges, sizes)


def _partition_counts(max_n: int) -> list[int]:
    """p(0), ..., p(max_n), by adding the part values 1..max_n in turn."""
    counts = [1] + [0] * max_n
    for v in range(1, max_n + 1):
        for m in range(v, max_n + 1):
            counts[m] += counts[m - v]
    return counts


def fvector_table(max_n: int) -> list[FVector]:
    """f-vectors of the clique complexes for n = 1..max_n, from the
    partition numbers p(0..max_n) alone, with no partition listed.

    With P(q) = sum_m p(m) q^m, (a; q)_m = prod_{i<m} (1 - a q^i) and

        g(n, k) = [q^n] q^(k(k+3)/2) P(q) / (q; q)_{k+1},   0 for n < 0,

    the table is f_0 = p(n), f_1 = g(n, 1) and, for k >= 2,
    f_k = g(n, k) + g(n - 2, k) + g(n - 2, k - 1), trailing zeros dropped.
    The series behind row k is that of row k - 1 divided once more, by
    1 - q^(k+1): one pass s[m] += s[m - k - 1], starting from P(q).  Row k
    reads it shifted k(k+3)/2 places up, so rows are made while k(k+3)/2
    <= max_n: about sqrt(2 max_n) passes of max_n additions.

    Derivation.  The count is that of fvector_by_corner_counting: f_k for
    k >= 2 sums C(s, k) over every raising star and top fiber of every
    partition of n, s its size, and f_1 sums the star sizes.  So with y =
    1 + x, f_k = [x^k q^n] (S + T) for k >= 2 and f_1 = [x q^n] S, where S
    and T sum q^|lam| y^s over the star and the top fibers of all lam.  By
    _raising_fiber_sizes, each distinct part v of lam has one star fiber of
    size d_<(v) + 1 - adj(v) and one top fiber of size d_>(v) + 1 - adj(v),
    where d_< and d_> count the distinct parts below and above v and adj(v)
    = [v - 1 is a part, or v = 1]; each lam also has one empty top fiber.
    Giving each distinct part below v (for the star fiber) or above v (for
    the top fiber) a factor y and summing over v, with z = 1 - y, gives
    (the top sum after telescoping by (z q^v; q)_inf = (1 - z q^v)
    (z q^(v+1); q)_inf):

        T = P(q) sum_{m>=0} q^m (z q^(m+2); q)_inf,
        S = q P(q) + y q^2 P(q) sum_{m>=0} q^m (z q; q)_m.

    Euler's identity (a; q)_inf = sum_k (-a)^k q^(k(k-1)/2) / (q; q)_k, and
    the q-binomial expansion of (z q; q)_m with sum_m [m choose k]_q q^m =
    q^k / (q; q)_{k+1} (Andrews, The Theory of Partitions, 1976, Cor. 2.2
    and ch. 3), turn both sums into sum_k (-z)^k q^(k(k+3)/2) / (q; q)_{k+1}.
    So S = q P + y q^2 T, and since -z = x, [x^k] T = g(., k): the top
    fibers give g(n, k) and the star fibers [k = 0] p(n - 1) + g(n - 2, k)
    + g(n - 2, k - 1).  Their x^1 coefficients agree, since (1 - q^2) g(., 1)
    = q^2 g(., 0) as series: both sides count every raising transfer once,
    by removable and by addable corner, so f_1 = g(n, 1).  A corollary:
    the top fibers of size s over the partitions of n are as many as the
    star fibers of size s + 1 over those of n + 2.
    """
    if not isinstance(max_n, int) or isinstance(max_n, bool) or max_n < 1:
        raise InvalidPartitionError(f"max_n must be a positive integer, got {max_n!r}")
    partitions = _partition_counts(max_n)
    series = list(partitions)
    # g[k][n + 2] = g(n, k), with two zeros in front for g(n - 2, k), and a
    # row of zeros past the last k that reaches max_n.
    g = []
    k = shift = 0
    while shift <= max_n:
        for m in range(k + 1, max_n + 1):
            series[m] += series[m - k - 1]
        g.append([0] * (shift + 2) + series[:max_n + 1 - shift])
        k += 1
        shift += k + 1
    g.append([0] * (max_n + 3))
    table = []
    for n in range(1, max_n + 1):
        counts = [partitions[n], g[1][n + 2]]
        counts += [g[k][n + 2] + g[k][n] + g[k - 1][n] for k in range(2, len(g))]
        while counts[-1] == 0:
            counts.pop()
        table.append(FVector(tuple(counts)))
    return table
