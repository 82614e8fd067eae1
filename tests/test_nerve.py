"""Nerve of the canonical cover, anchors, closure, and the intersection poset."""

import itertools

import pytest

from partition_complex.cliques import (
    NotACliqueError,
    canonical_cover,
    enumerate_simplices,
    fvector_table,
    maximal_simplices,
)
from partition_complex.graph import build_graph
from partition_complex.nerve import (
    NerveComplex,
    anchor_intersection_ids,
    build_nerve,
    build_poset,
    closure_ids,
    max_chain_length,
    nerve_fvector,
    order_complex,
)
from partition_complex.oracles import all_cliques_reference
from partition_complex.partitions import REMOVABLE, Corner
from partition_complex.verification import _count_intersecting_subfamilies


def star_simplex(g, lam, row, col):
    """Vertex ids of lam and its star fiber at the removable corner (row, col)."""
    vid = g.vertex_id(lam)
    return tuple(sorted((vid,) + g.star[vid][Corner(row, col, REMOVABLE)]))


def nerve_at(n):
    g = build_graph(n)
    return build_nerve(g, canonical_cover(g))


def anchor_of(nerve, partitions):
    """Sorted ids of the members that contain every given partition."""
    ids = [nerve.graph.vertex_id(lam) for lam in partitions]
    return tuple(sorted(anchor_intersection_ids(nerve, ids)))


def nerve_fvector_at(n):
    return nerve_fvector(build_poset(nerve_at(n)))


def test_nerve_small():
    assert nerve_at(2).vertex_count == 1
    assert nerve_fvector_at(2).counts == (1,)

    n4 = nerve_fvector_at(4)
    assert n4.counts == (6, 12, 9, 2)
    assert n4.euler_characteristic == 1

    assert nerve_fvector_at(8).euler_characteristic == 2


def test_empty_nerve_at_1():
    n1 = nerve_at(1)
    assert n1.vertex_count == 0
    assert nerve_fvector_at(1).counts == ()
    assert anchor_of(n1, [(1,)]) == ()


def test_inverted_nerve_fvector_matches_brute_subfamily_search():
    for n in range(1, 17):
        nerve = nerve_at(n)
        assert (nerve_fvector(build_poset(nerve)).counts
                == _count_intersecting_subfamilies(nerve.member_sets)), n


def test_inverted_nerve_chi_matches_the_part_value_sweep():
    table = fvector_table(24)
    for n in (20, 24):
        assert nerve_fvector_at(n).euler_characteristic == table[n - 1].euler_characteristic


def test_nerve_simplices_match_anchor_intersections():
    nerve = nerve_at(5)
    vertices = nerve.graph.vertices
    for size in (1, 2):
        for members in itertools.combinations(range(nerve.vertex_count), size):
            shared = frozenset.intersection(*(nerve.member_sets[m] for m in members))
            in_some_anchor = any(
                set(members) <= set(anchor_of(nerve, [lam])) for lam in vertices)
            assert in_some_anchor == bool(shared)
            if shared:
                common = anchor_of(nerve, [vertices[v] for v in shared])
                assert set(members) <= set(common)


def test_anchor():
    n3 = nerve_at(3)
    assert anchor_of(n3, [(2, 1)]) == (0, 1)

    g4 = build_graph(4)
    n4 = build_nerve(g4, canonical_cover(g4))
    star = star_simplex(g4, (3, 1), 1, 3)
    star_member = next(
        i for i, member in enumerate(n4.cover) if member.vertices == star)
    assert star_member in anchor_of(n4, [(3, 1)])


def test_anchor_members_all_contain_the_vertex():
    nerve = nerve_at(7)
    for vid, lam in enumerate(nerve.graph.vertices):
        members = anchor_of(nerve, [lam])
        assert members == tuple(
            mid for mid, member_set in enumerate(nerve.member_sets) if vid in member_set)


def test_anchor_intersection():
    n3 = nerve_at(3)
    # (3) and (1,1,1) sit at opposite ends of the path: not an edge.
    assert anchor_of(n3, [(3,), (1, 1, 1)]) == ()
    assert anchor_of(n3, [(2, 1)]) == tuple(
        sorted(n3.anchor_sets[n3.graph.vertex_id((2, 1))]))

    g4 = build_graph(4)
    n4 = build_nerve(g4, canonical_cover(g4))
    triple = anchor_of(n4, [(3, 1), (2, 2), (2, 1, 1)])
    assert len(triple) == 1
    assert n4.cover[triple[0]].vertices == star_simplex(g4, (3, 1), 1, 3)


def test_triple_intersections_are_singletons():
    g = build_graph(9)
    nerve = build_nerve(g, canonical_cover(g))
    for clique in all_cliques_reference(g):
        if len(clique) >= 3:
            common = set(nerve.anchor_sets[clique[0]])
            for vid in clique[1:]:
                common &= nerve.anchor_sets[vid]
            assert len(common) == 1


def test_closure_of_full_star_clique_is_itself():
    n4 = nerve_at(4)
    g = n4.graph
    clique = [g.vertex_id(lam) for lam in [(3, 1), (2, 2), (2, 1, 1)]]
    closed = closure_ids(n4, clique)
    assert {g.vertices[v] for v in closed} == {(3, 1), (2, 2), (2, 1, 1)}


def test_closure_laws():
    """closure_ids is extensive, monotone and idempotent on cliques."""
    for n in (4, 5, 6):
        g = build_graph(n)
        nerve = build_nerve(g, canonical_cover(g))
        for clique in all_cliques_reference(g):
            closed = closure_ids(nerve, clique)
            assert set(clique) <= set(closed)
            assert closure_ids(nerve, closed) == closed
            for smaller in itertools.combinations(clique, len(clique) - 1):
                if smaller:
                    assert set(closure_ids(nerve, smaller)) <= set(closed)


def test_closure_equals_the_all_vertex_scan():
    for n in range(1, 13):
        g = build_graph(n)
        nerve = build_nerve(g, canonical_cover(g))
        for clique in all_cliques_reference(g):
            common = anchor_intersection_ids(nerve, clique)
            scanned = tuple(v for v, anchor_set in enumerate(nerve.anchor_sets)
                            if common <= anchor_set)
            assert closure_ids(nerve, clique) == scanned


def test_closure_of_a_vertex_in_no_member_is_every_vertex():
    nerve = nerve_at(4)
    lonely = nerve.graph.vertex_id((2, 2))
    anchor_sets = list(nerve.anchor_sets)
    anchor_sets[lonely] = frozenset()
    hand_built = NerveComplex(nerve.graph, nerve.cover, nerve.member_sets, tuple(anchor_sets))
    assert closure_ids(hand_built, [lonely]) == tuple(range(len(nerve.graph.vertices)))
    other = nerve.graph.vertex_id((4,))
    assert closure_ids(hand_built, [other]) == closure_ids(nerve, [other])


def test_closure_rejects_non_cliques():
    nerve = nerve_at(4)
    with pytest.raises(NotACliqueError):
        closure_ids(nerve, [])
    g = nerve.graph
    with pytest.raises(NotACliqueError):
        closure_ids(nerve, [g.vertex_id((4,)), g.vertex_id((2, 2))])


def test_closure_rejects_unknown_ids_and_accepts_repeats():
    nerve = nerve_at(6)
    # p(6) = 11, so the ids run 0..10; -1 must not wrap to the last vertex
    for bad in (-1, 11):
        with pytest.raises(NotACliqueError, match=f"unknown vertex id {bad}"):
            closure_ids(nerve, [bad])
    with pytest.raises(NotACliqueError, match="closure needs a nonempty clique"):
        closure_ids(nerve, [])
    # An id must be an int and not a bool, repeated or not.
    for ids in ([True, 2], [1, True], [1.0], [0, 1.5], ["1"], [1, "1"]):
        with pytest.raises(NotACliqueError, match="is not an int"):
            closure_ids(nerve, ids)
    g = nerve.graph
    edge = (g.vertex_id((6,)), g.vertex_id((5, 1)))
    assert closure_ids(nerve, edge + edge[::-1]) == closure_ids(nerve, edge)


def test_poset_small():
    assert len(build_poset(nerve_at(2)).elements) == 1
    poset4 = build_poset(nerve_at(4))
    assert len(poset4.elements) == 9
    sizes = sorted(len(element) for element in poset4.elements)
    assert sizes == [1, 1, 1, 2, 2, 2, 3, 4, 4]


def test_poset_matches_all_clique_generation():
    for n in range(2, 8):
        g = build_graph(n)
        nerve = build_nerve(g, canonical_cover(g))
        restricted = set(build_poset(nerve).elements)
        unrestricted = set()
        for clique in all_cliques_reference(g):
            common = set(nerve.anchor_sets[clique[0]])
            for vid in clique[1:]:
                common &= nerve.anchor_sets[vid]
            if common:
                unrestricted.add(tuple(sorted(common)))
        assert restricted == unrestricted


def test_poset_order_matches_all_pairs_inclusion():
    for n in range(1, 13):
        poset = build_poset(nerve_at(n))
        sets = [set(element) for element in poset.elements]
        indices = range(len(sets))
        above = tuple(tuple(j for j in indices if sets[i] < sets[j]) for i in indices)
        below = tuple(tuple(i for i in indices if sets[i] < sets[j]) for j in indices)
        hasse = [(i, j) for i in indices for j in above[i]
                 if not any(sets[i] < sets[k] < sets[j] for k in indices)]
        assert poset.above == above
        assert poset.below == below
        assert poset.hasse_edges() == hasse


def test_max_chain_length():
    assert max_chain_length(build_poset(nerve_at(1))) == 0
    assert max_chain_length(build_poset(nerve_at(4))) == 2
    assert max_chain_length(build_poset(nerve_at(8))) == 2
    for n in range(2, 11):
        assert max_chain_length(build_poset(nerve_at(n))) <= 2


def test_order_complex():
    complex4 = order_complex(build_poset(nerve_at(4)))
    assert complex4.fvector.counts == (9, 14, 6)
    assert complex4.fvector.euler_characteristic == 1
    assert len(complex4.facets) == 8
    for n in range(2, 9):
        chi_chains = order_complex(build_poset(nerve_at(n))).fvector.euler_characteristic
        chi_complex = enumerate_simplices(maximal_simplices(build_graph(n))).euler_characteristic
        assert chi_chains == chi_complex


def test_build_nerve_accepts_explicit_cover():
    g = build_graph(5)
    cover = canonical_cover(g)
    nerve = build_nerve(g, cover[:2])
    assert nerve.vertex_count == 2
