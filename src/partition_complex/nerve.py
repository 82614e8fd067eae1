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
from typing import NamedTuple, Sequence

from .cliques import CoverMember, FVector, NotACliqueError, _check_clique
from .graph import PartitionGraph


@dataclass(frozen=True)
class NerveComplex:
    """Nerve vertices are cover members; simplices are queried, not stored."""

    graph: PartitionGraph
    cover: tuple[CoverMember, ...]
    member_sets: tuple[frozenset[int], ...]
    anchor_sets: tuple[frozenset[int], ...]

    @property
    def vertex_count(self) -> int:
        return len(self.cover)


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

    @cached_property
    def below(self) -> tuple[tuple[int, ...], ...]:
        result: list[list[int]] = [[] for _ in self.elements]
        for i, ups in enumerate(self.above):
            for j in ups:
                result[j].append(i)
        return tuple(tuple(sorted(preds)) for preds in result)

    def hasse_edges(self) -> list[tuple[int, int]]:
        """Cover relations (i, j): element i below j with nothing between."""
        above_sets = [set(ups) for ups in self.above]
        edges = []
        for i, ups in enumerate(self.above):
            for j in ups:
                if not any(j in above_sets[k] for k in ups if k != j):
                    edges.append((i, j))
        return edges


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
    The (size, ids) element order is topological: one pass takes each g_P
    as the binomial coefficients of |P|, k >= 1, minus the g_Q of its strict
    lower set, and the f-vector is their columnwise sum.
    """
    exact: list[list[int]] = []
    for element, lower in zip(poset.elements, poset.below):
        g = [math.comb(len(element), k) for k in range(1, len(element) + 1)]
        for q in lower:
            for k, count in enumerate(exact[q]):
                g[k] -= count
        exact.append(g)
    return FVector(tuple(sum(column) for column in itertools.zip_longest(*exact, fillvalue=0)))


def max_chain_length(poset: IntersectionPoset) -> int:
    """Strict inclusions in a longest chain; 0 for an empty or antichain poset."""
    best = 0
    longest: list[int] = [0] * len(poset.elements)
    for i, preds in enumerate(poset.below):
        longest[i] = max((longest[p] + 1 for p in preds), default=0)
        best = max(best, longest[i])
    return best


class OrderComplex(NamedTuple):
    facets: tuple[tuple[int, ...], ...]
    fvector: FVector


def order_complex(poset: IntersectionPoset) -> OrderComplex:
    """Chains of the poset as a simplicial complex: facets and face counts.

    A chain is maximal when nothing extends it below, above, or between
    consecutive entries.
    """
    above = poset.above
    above_sets = [set(ups) for ups in above]
    below_sets = [set(preds) for preds in poset.below]
    counts: list[int] = []
    facets: list[tuple[int, ...]] = []

    def is_maximal(chain: list[int]) -> bool:
        if below_sets[chain[0]]:
            return False
        for lower, upper in zip(chain, chain[1:]):
            if above_sets[lower] & below_sets[upper]:
                return False
        return True

    def visit(chain: list[int]) -> None:
        dim = len(chain) - 1
        while len(counts) <= dim:
            counts.append(0)
        counts[dim] += 1
        extensions = above[chain[-1]]
        for j in extensions:
            chain.append(j)
            visit(chain)
            chain.pop()
        if not extensions and is_maximal(chain):
            facets.append(tuple(chain))

    for i in range(len(poset.elements)):
        visit([i])
    return OrderComplex(tuple(facets), FVector(tuple(counts)))
