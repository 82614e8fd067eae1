"""Nerve of the canonical cover, anchor families, closure, and the intersection poset.

The nerve has one vertex per cover member, and a set of members spans a
simplex exactly when their vertex sets share a partition.  That makes the
anchor of a partition (the members containing it) the organizing device:
every nerve simplex is a subset of some anchor.

Intersecting the anchors over a set of partitions S yields the members
containing all of S; collecting those intersections over all cliques, with
equal sets identified, gives a poset under inclusion whose order complex is
a combinatorial stand-in for the original clique complex.  Each nerve
simplex closes to one poset element, and the nonempty subsets of an element
P are the simplices that close at or below P, so the nerve f-vector comes
from inverting (1 + x)^|P| - 1 = sum over Q <= P of g_Q(x) along the poset,
without listing a simplex.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

from .cliques import CoverMember, FVector, NotACliqueError, _check_clique
from .graph import PartitionGraph


@dataclass(frozen=True)
class NerveComplex:
    """Nerve vertices are cover members; simplices are queried, not stored."""

    graph: PartitionGraph
    cover: tuple[CoverMember, ...]
    member_sets: tuple[frozenset[int], ...]
    anchor_sets: tuple[frozenset[int], ...]


def build_nerve(graph: PartitionGraph, cover: Sequence[CoverMember]) -> NerveComplex:
    member_sets = tuple(frozenset(member.vertices) for member in cover)
    containing: list[set[int]] = [set() for _ in graph.vertices]
    for member_id, vertex_ids in enumerate(member_sets):
        for vertex_id in vertex_ids:
            containing[vertex_id].add(member_id)
    anchor_sets = tuple(frozenset(members) for members in containing)
    return NerveComplex(graph, tuple(cover), member_sets, anchor_sets)


def anchor_intersection_ids(nerve: NerveComplex, vertex_ids: Sequence[int]) -> frozenset[int]:
    common = nerve.anchor_sets[vertex_ids[0]]
    for vertex_id in vertex_ids[1:]:
        common = common & nerve.anchor_sets[vertex_id]
        if not common:
            break
    return common


def closure_ids(nerve: NerveComplex, vertex_ids: Sequence[int]) -> tuple[int, ...]:
    if not vertex_ids:
        raise NotACliqueError("closure needs a nonempty clique")
    distinct = _check_clique(nerve.graph, vertex_ids)
    common = anchor_intersection_ids(nerve, distinct)
    if not common:
        return tuple(range(len(nerve.anchor_sets)))
    # The vertices whose anchors hold every member of common are the vertices
    # that every such member holds.
    return tuple(sorted(frozenset.intersection(*(nerve.member_sets[m] for m in common))))


@dataclass(frozen=True)
class IntersectionPoset:
    """Distinct nonempty anchor intersections, ordered by inclusion.

    Elements are canonical sorted member-id tuples, listed by (size, ids).
    """

    elements: tuple[tuple[int, ...], ...]

    @cached_property
    def above(self) -> tuple[tuple[int, ...], ...]:
        """For each element, the indices of its strict supersets (a DAG;
        the (size, ids) element order is already topological).

        A strict superset contains every member of the element, so only the
        elements holding its rarest member are compared.
        """
        holding: dict[int, list[int]] = {}
        for j, element in enumerate(self.elements):
            for member in element:
                holding.setdefault(member, []).append(j)
        result = []
        for small in self.elements:
            members = set(small)
            rarest = min(small, key=lambda member: len(holding[member]))
            result.append(tuple(
                j for j in holding[rarest]
                if len(small) < len(self.elements[j])
                and members.issubset(self.elements[j])))
        return tuple(result)

    def upper_covers(self) -> Iterator[tuple[int, ...]]:
        """For each element in turn, the elements covering it: those above it
        but above nothing else above it.  What lies above its strict upper
        bounds is one set, built for one element at a time."""
        above = self.above
        for ups in above:
            between = set().union(*(above[k] for k in ups))
            yield tuple(j for j in ups if j not in between)


def build_poset(nerve: NerveComplex) -> IntersectionPoset:
    """Anchor intersections over cliques of size at most three.

    Larger cliques contribute only singleton intersections that already
    arise from their triangles, so these generators suffice; the agreement
    with the all-cliques definition is checked independently at small n.
    """
    graph = nerve.graph
    anchors = nerve.anchor_sets
    found: set[tuple[int, ...]] = set()
    for anchor_set in anchors:
        if anchor_set:
            found.add(tuple(sorted(anchor_set)))
    edges = graph.edges()
    for u, v in edges:
        common = anchors[u] & anchors[v]
        if common:
            found.add(tuple(sorted(common)))
    moves = graph.moves
    for u, v in edges:
        for w in moves[u].keys() & moves[v].keys():
            if w > v:
                common = anchors[u] & anchors[v] & anchors[w]
                if common:
                    found.add(tuple(sorted(common)))
    return IntersectionPoset(tuple(sorted(found, key=lambda t: (len(t), t))))


def nerve_fvector(poset: IntersectionPoset) -> FVector:
    """Face counts of the nerve, by Moebius inversion over the poset (Rota 1964).

    A nerve simplex F closes to the members common to every vertex that F's
    members share, a poset element.  g_P(x) counts by size the simplices
    closing to exactly P, so (1 + x)^|P| - 1 = sum over Q <= P of g_Q(x).
    Each g_P starts as the binomial coefficients of |P|, k >= 1.  The
    (size, ids) element order is topological, so one pass in that order
    reaches each g_Q once its whole strict lower set is subtracted from it,
    and subtracts it from every element above Q; the f-vector is the
    columnwise sum.
    """
    exact = [[math.comb(len(element), k) for k in range(1, len(element) + 1)]
             for element in poset.elements]
    for g, ups in zip(exact, poset.above):
        for p in ups:
            for k, count in enumerate(g):
                exact[p][k] -= count
    return FVector(tuple(sum(column) for column in itertools.zip_longest(*exact, fillvalue=0)))


def max_chain_length(poset: IntersectionPoset) -> int:
    """Strict inclusions in a longest chain; 0 for an empty or antichain poset."""
    longest = [0] * len(poset.elements)
    for i, ups in enumerate(poset.above):
        for j in ups:
            longest[j] = max(longest[j], longest[i] + 1)
    return max(longest, default=0)


class OrderComplex(NamedTuple):
    facets: tuple[tuple[int, ...], ...]
    fvector: FVector


def order_complex(poset: IntersectionPoset) -> OrderComplex:
    """Chains of the poset as a simplicial complex: facets and face counts.

    Every chain is counted by one walk along above.  A chain is maximal when
    nothing extends it below, above, or between consecutive entries: it
    starts at a minimal element, one in no above list, and steps along
    covers to a maximal one.
    """
    above = poset.above
    covers = list(poset.upper_covers())
    counts: list[int] = []
    facets: list[tuple[int, ...]] = []

    def count(i: int, dim: int) -> None:
        if len(counts) <= dim:
            counts.append(0)
        counts[dim] += 1
        for j in above[i]:
            count(j, dim + 1)

    def saturate(chain: tuple[int, ...]) -> None:
        ups = covers[chain[-1]]
        if not ups:
            facets.append(chain)
        for j in ups:
            saturate(chain + (j,))

    has_lower = set(itertools.chain.from_iterable(above))
    for i in range(len(poset.elements)):
        count(i, 0)
        if i not in has_lower:
            saturate((i,))
    return OrderComplex(tuple(facets), FVector(tuple(counts)))
