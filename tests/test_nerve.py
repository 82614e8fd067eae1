"""Nerve of the canonical cover, anchors, closure, and the intersection poset."""

import itertools

import pytest

from partition_complex.cliques import (
    NotACliqueError,
    canonical_cover,
    enumerate_simplices,
    full_star_simplex,
)
from partition_complex.graph import build_graph
from partition_complex.nerve import (
    NerveComplex,
    anchor_intersection,
    anchor_intersection_ids,
    build_nerve,
    build_poset,
    closure,
    closure_ids,
    max_chain_length,
    nerve_fvector,
    order_complex,
    poset_json_dict,
)
from partition_complex.oracles import all_cliques_reference


def nerve_at(n):
    return build_nerve(build_graph(n))


def test_nerve_small():
    n2 = nerve_at(2)
    assert n2.vertex_count == 1
    assert nerve_fvector(n2).counts == (1,)

    n4 = nerve_at(4)
    assert nerve_fvector(n4).counts == (6, 12, 9, 2)
    assert nerve_fvector(n4).euler_characteristic == 1

    assert nerve_fvector(nerve_at(8)).euler_characteristic == 2


def test_empty_nerve_at_1():
    n1 = nerve_at(1)
    assert n1.vertex_count == 0
    assert nerve_fvector(n1).counts == ()
    assert anchor_intersection(n1, [(1,)]) == ()


def test_nerve_simplices_match_anchor_intersections():
    nerve = nerve_at(5)
    vertices = nerve.graph.vertices
    for size in (1, 2):
        for members in itertools.combinations(range(nerve.vertex_count), size):
            shared = frozenset.intersection(*(nerve.member_sets[m] for m in members))
            in_some_anchor = any(
                set(members) <= set(anchor_intersection(nerve, [lam])) for lam in vertices)
            assert in_some_anchor == bool(shared)
            if shared:
                common = anchor_intersection(nerve, [vertices[v] for v in shared])
                assert set(members) <= set(common)


def test_anchor():
    n3 = nerve_at(3)
    assert anchor_intersection(n3, [(2, 1)]) == (0, 1)

    g4 = build_graph(4)
    n4 = build_nerve(g4)
    star = full_star_simplex(g4, (3, 1), (1, 3))
    star_member = next(
        i for i, member in enumerate(n4.cover) if member.vertices == star)
    assert star_member in anchor_intersection(n4, [(3, 1)])


def test_anchor_members_all_contain_the_vertex():
    nerve = nerve_at(7)
    for vid, lam in enumerate(nerve.graph.vertices):
        members = anchor_intersection(nerve, [lam])
        assert members == tuple(
            mid for mid, member_set in enumerate(nerve.member_sets) if vid in member_set)


def test_anchor_intersection():
    n3 = nerve_at(3)
    # (3) and (1,1,1) sit at opposite ends of the path: not an edge.
    assert anchor_intersection(n3, [(3,), (1, 1, 1)]) == ()
    assert anchor_intersection(n3, [(2, 1)]) == tuple(
        sorted(n3.anchor_sets[n3.graph.vertex_id((2, 1))]))

    g4 = build_graph(4)
    n4 = build_nerve(g4)
    triple = anchor_intersection(n4, [(3, 1), (2, 2), (2, 1, 1)])
    assert len(triple) == 1
    assert n4.cover[triple[0]].vertices == full_star_simplex(g4, (3, 1), (1, 3))

    with pytest.raises(ValueError):
        anchor_intersection(n4, [])


def test_triple_intersections_are_singletons():
    g = build_graph(9)
    nerve = build_nerve(g)
    for clique in all_cliques_reference(g):
        if len(clique) >= 3:
            common = set(nerve.anchor_sets[clique[0]])
            for vid in clique[1:]:
                common &= nerve.anchor_sets[vid]
            assert len(common) == 1


def test_closure_of_full_star_clique_is_itself():
    n4 = nerve_at(4)
    closed = closure(n4, [(3, 1), (2, 2), (2, 1, 1)])
    assert set(closed) == {(3, 1), (2, 2), (2, 1, 1)}


def test_closure_laws():
    for n in (4, 5, 6):
        g = build_graph(n)
        nerve = build_nerve(g)
        for clique in all_cliques_reference(g):
            closed = closure_ids(nerve, clique)
            assert set(clique) <= set(closed)
            assert closure_ids(nerve, closed) == closed


def test_closure_equals_the_all_vertex_scan():
    for n in range(1, 13):
        g = build_graph(n)
        nerve = build_nerve(g)
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


def test_poset_small():
    assert len(build_poset(nerve_at(2)).elements) == 1
    poset4 = build_poset(nerve_at(4))
    assert len(poset4.elements) == 9
    sizes = sorted(len(element) for element in poset4.elements)
    assert sizes == [1, 1, 1, 2, 2, 2, 3, 4, 4]


def test_poset_matches_all_clique_generation():
    for n in range(2, 8):
        g = build_graph(n)
        nerve = build_nerve(g)
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
        chi_complex = enumerate_simplices(build_graph(n)).euler_characteristic
        assert chi_chains == chi_complex


def test_poset_json_dict_is_one_based():
    payload = poset_json_dict(build_poset(nerve_at(4)))
    assert len(payload["elements"]) == 9
    assert all(min(element) >= 1 for element in payload["elements"])
    assert payload["max_chain_length"] == 2
    assert all(len(pair) == 2 for pair in payload["hasse"])
    assert all(1 <= i <= 9 and 1 <= j <= 9 for i, j in payload["hasse"])


def test_build_nerve_accepts_explicit_cover():
    g = build_graph(5)
    cover = canonical_cover(g)
    nerve = build_nerve(g, cover[:2])
    assert nerve.vertex_count == 2
