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


def _triangle_class(arm1: tuple[Corner, Corner], arm2: tuple[Corner, Corner]) -> TriangleClass:
    """Whether the path mu1 - lam - mu2 closes into a triangle, from the
    corner pairs (c, a) of its two edges lam -> mu1 and lam -> mu2: it
    closes iff they share the removable corner (star) or the addable
    corner (top)."""
    (c1, a1), (c2, a2) = arm1, arm2
    if c1 == c2:
        return TriangleClass(STAR, c1)
    if a1 == a2:
        return TriangleClass(TOP, a1)
    return TriangleClass(NOT_TRIANGLE)


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
    member is the base or lies in the base's fiber at that corner.  Cliques
    of size <= 2 carry no forced type and come back as SMALL.
    """
    sorted_ids = _check_clique(g, ids)
    if len(sorted_ids) != len(ids):
        raise NotACliqueError(f"repeated vertices in {tuple(ids)}")
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


def _partition_counts(max_n: int) -> list[int]:
    """p(0), ..., p(max_n), by adding the part values 1..max_n in turn."""
    counts = [1] + [0] * max_n
    for v in range(1, max_n + 1):
        for m in range(v, max_n + 1):
            counts[m] += counts[m - v]
    return counts


def _slot_bits(largest: int, width: int) -> int:
    """The least W with 2^W > largest * (width + 2): the bits of one slot."""
    return (largest * (width + 2)).bit_length()


def _unpack(row: int, bits: int, width: int) -> list[int]:
    """The width slots of bits bits each of row, lowest first; a bit above
    the top slot raises TheoremViolationError."""
    if row >> (bits * width):
        raise TheoremViolationError(f"a packed row overflows its {width} slots of {bits} bits")
    mask = (1 << bits) - 1
    return [(row >> (bits * i)) & mask for i in range(width)]


def _packed_vertex_count(n: int, ways: int, count: int, bits: int, width: int) -> int:
    """The partitions of n counted by the packed row ways, width slots of
    bits bits over the number of distinct parts: its digit sum, one product
    with sum_i 2^(bits i) read off slot width - 1.  A bit above the top
    slot, or a digit sum other than count, the scalar rows' count, raises
    TheoremViolationError."""
    if ways >> (bits * width):
        raise TheoremViolationError(f"a packed row overflows its {width} slots of {bits} bits")
    ones = ((1 << (bits * width)) - 1) // ((1 << bits) - 1)
    vertices = ((ways * ones) >> (bits * (width - 1))) & ((1 << bits) - 1)
    if vertices != count:
        raise TheoremViolationError(
            f"n={n}: the packed rows count {vertices} partitions, the scalar rows {count}")
    return vertices


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
    - counts[adj][m], a plain int, counts them over all d;
    - star[m][s] counts their (partition, part) pairs with a star fiber of
      size s, which no larger part changes;
    - top[m][s] counts their (partition, part u) pairs with d_>=(u) -
      adj(u) = s so far, before the parts >= v are known; each distinct
      part added later raises s by one.

    Adding one or more parts v to a partition with d distinct parts gives v
    the star size d + 1 - adj and the top size 1 - adj so far, so the top
    update needs only counts, not ways.

    The pass for v walks each residue class r = 0, ..., min(v, max_n + 1 -
    v) - 1 along m = r + v, r + 2v, ... <= max_n.  A partition of m with
    one or more parts v is one of m - jv, j >= 1, into parts < v with j
    parts v added, so along a class every sum over j of the rows at m - jv
    is a running sum held in a local.  Those sums must read the rows as they
    stood before v, and the pass writes star[m] and top[m] once it has read
    them: reading star[m - v] back from the list would add this v's own
    update again, so each step carries the old values to the next in
    locals.  When 2v > max_n every class takes one step, from a sum m - v
    < v that the pass never writes, so that pass reads the lists directly.
    counts advances as ways does: counts[0] gains counts[1], and counts[1]
    at m becomes the two running count sums.

    Each ways, star and top row, a vector over d or s of length width =
    isqrt(2 max_n) + 1, is one int with slot i in bits [W i, W (i + 1)):
    adding rows is + and the shift from d to d + 1 is << W.  The work is
    O(max_n^2) big-integer additions and shifts on width * W-bit rows, and
    one product per n for its vertex count, after an O(max_n^2) pre-pass for
    p(0..max_n), which sets W = _slot_bits(p(max_n), width).

    Lemma (no carry crosses a slot): a partition of m <= max_n with d
    distinct parts has m >= d (d + 1) / 2, so d <= width - 1; it counts at
    most once in a ways row, and in at most d star and d + 1 top slots
    over all s.  So every slot value, and every digit sum and partial
    digit sum, is at most p(m) * width < p(max_n) * (width + 2) < 2^W, and
    nothing is ever shifted past slot width - 1.  The sweep still checks
    that it holds, since a carry out of a slot changes a digit sum.  A bit
    left above the top slot, a vertex count that differs from counts[0][n]
    + counts[1][n] or from the pre-pass p(n), or fiber counts where top
    does not exceed star by p(n) (one star and one top fiber per distinct
    part, and the first-row top fiber) raise TheoremViolationError.  The
    vertex count is the digit sum of ways[0][n] + ways[1][n], read by
    _packed_vertex_count.
    """
    if not isinstance(max_n, int) or isinstance(max_n, bool) or max_n < 1:
        raise InvalidPartitionError(f"max_n must be a positive integer, got {max_n!r}")
    width = math.isqrt(2 * max_n) + 1
    partitions = _partition_counts(max_n)
    bits = _slot_bits(partitions[max_n], width)

    ways0, ways1 = [0] * (max_n + 1), [1] + [0] * max_n
    counts0, counts1 = [0] * (max_n + 1), [1] + [0] * max_n
    star = [0] * (max_n + 1)
    top = [0] * (max_n + 1)
    for v in range(1, max_n + 1):
        next1, next_counts1 = [0] * (max_n + 1), [0] * (max_n + 1)
        # Partitions with one or more parts v, without (absent) and with
        # (present) the part v - 1.  v's star fiber has size d + 1 without
        # v - 1 and d with it.  v raises every smaller part's top size by
        # one, and its own top fiber has size 1 without v - 1 and 0 with it
        # so far.
        if 2 * v > max_n:
            # Each class takes one step, from a sum below v that this pass
            # does not write.
            for m in range(v, max_n + 1):
                rest = m - v
                absent, present = ways0[rest], ways1[rest]
                absent_count, present_count = counts0[rest], counts1[rest]
                star[m] += star[rest] + (absent << bits) + present
                top[m] += ((top[rest] + absent_count) << bits) + present_count
                next1[m] = (absent + present) << bits
                next_counts1[m] = absent_count + present_count
        else:
            for r in range(v):
                absent = present = absent_count = present_count = star_kept = top_kept = 0
                # The pass overwrites star[m] and top[m] after reading them,
                # so the next step adds the rows as they stood before v.
                star_old, top_old = star[r], top[r]
                for m in range(r + v, max_n + 1, v):
                    rest = m - v
                    absent += ways0[rest]
                    present += ways1[rest]
                    absent_count += counts0[rest]
                    present_count += counts1[rest]
                    star_kept += star_old
                    top_kept += top_old
                    star_old, top_old = star[m], top[m]
                    star[m] = star_old + star_kept + (absent << bits) + present
                    top[m] = top_old + ((top_kept + absent_count) << bits) + present_count
                    next1[m] = (absent + present) << bits
                    next_counts1[m] = absent_count + present_count
        ways0 = [x + y for x, y in zip(ways0, ways1)]
        counts0 = [x + y for x, y in zip(counts0, counts1)]
        ways1, counts1 = next1, next_counts1

    out = []
    for n in range(1, max_n + 1):
        vertices = _packed_vertex_count(n, ways0[n] + ways1[n], counts0[n] + counts1[n], bits, width)
        if vertices != partitions[n]:
            raise TheoremViolationError(
                f"n={n}: the sweep counts {vertices} partitions, not p(n) = {partitions[n]}")
        star_n, top_n = _unpack(star[n], bits, width), _unpack(top[n] + vertices, bits, width)
        if sum(star_n) + vertices != sum(top_n):
            raise TheoremViolationError(
                f"n={n}: {sum(star_n)} star fibers but {sum(top_n)} top fibers"
                f" for {vertices} partitions")
        out.append((vertices, star_n, top_n))
    return out


def fvector_table(max_n: int) -> list[FVector]:
    """f-vectors of the clique complexes for n = 1..max_n, from one sweep.

    The counting is that of fvector_by_corner_counting, aggregated by
    _fiber_size_histograms instead of summed partition by partition:
    f_0 = p(n), f_1 = sum of s * star[s], and f_k = sum of
    (star[s] + top[s]) * C(s, k) for k >= 2.  Those sums are the
    coefficients of sum_s (star[s] + top[s]) (1 + x)^s, built by Horner's
    rule, so each step is one Pascal's-rule pass and no binomial is formed.
    The polynomial is one int with B-bit slots, one per power of x, so a
    step is P + (P << B) + count.  Every coefficient of every step is at
    most the number of fibers, sum_s (star[s] + top[s]), times
    2^(width - 1), so B with 2^B above that number times 2^width keeps
    each in its slot.

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
        fibers = [x + y for x, y in zip(star, top)]
        bits = (sum(fibers) << len(fibers)).bit_length()
        packed = 0
        for count in reversed(fibers):
            packed += (packed << bits) + count
        counts = [vertices, edges] + _unpack(packed, bits, len(fibers))[2:]
        while counts[-1] == 0:
            counts.pop()
        table.append(FVector(tuple(counts)))
    return table
