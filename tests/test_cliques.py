"""Fibers, triangle and clique classification, covers, facets, f-vectors."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_complex.cliques import (
    NOT_TRIANGLE,
    SMALL,
    STAR,
    TOP,
    NotACliqueError,
    canonical_cover,
    classify_clique,
    classify_triangle,
    enumerate_simplices,
    format_facet_lines,
    full_star_simplex,
    _fiber_size_histograms,
    _raising_fiber_sizes,
    full_top_simplex,
    fvector_by_corner_counting,
    fvector_by_fiber_counting,
    fvector_table,
    maximal_simplices,
    star_fiber,
    top_fiber,
)
from partition_complex.graph import build_graph, edge_decompositions
from partition_complex.oracles import (
    all_cliques_reference,
    maximal_cliques_reference,
    transfers_by_scan,
)
from partition_complex.partitions import (
    InvalidCornerError,
    InvalidPartitionError,
    addable_corners,
    admissible_transfers,
    enumerate_partitions,
    height,
    removable_corners,
)


def test_star_fiber():
    assert set(star_fiber((3, 1), (1, 3))) == {(2, 2), (2, 1, 1)}
    assert star_fiber((5,), (1, 5)) == [(4, 1)]
    # The new-row target of (1,1)'s only cell is the identity, so it drops out.
    assert star_fiber((1, 1), (2, 1)) == [(2,)]
    with pytest.raises(InvalidPartitionError):
        star_fiber((1, 2), (1, 1))
    with pytest.raises(InvalidCornerError):
        star_fiber((3, 1), (1, 2))


def test_top_fiber():
    assert top_fiber((3, 1), (2, 2)) == [(2, 2)]
    assert top_fiber((2, 1, 1), (1, 3)) == [(3, 1)]
    assert top_fiber((2, 2), (3, 1)) == [(2, 1, 1)]
    with pytest.raises(InvalidPartitionError):
        top_fiber((1, 2), (1, 2))
    with pytest.raises(InvalidCornerError):
        top_fiber((3, 1), (2, 3))


def test_fibers_filter_admissible_transfers():
    """Each fiber lists its transfers' results in admissible_transfers order."""
    for n in range(1, 11):
        for lam in enumerate_partitions(n):
            transfers = admissible_transfers(lam)
            for c in removable_corners(lam):
                assert star_fiber(lam, c) == [mu for src, _, mu in transfers if src == c]
            for a in addable_corners(lam):
                assert top_fiber(lam, a) == [mu for _, dst, mu in transfers if dst == a]


def test_classify_triangle():
    verdict = classify_triangle((3, 1), (2, 2), (2, 1, 1))
    assert verdict.kind == STAR
    assert (verdict.corner.row, verdict.corner.col) == (1, 3)
    assert verdict.is_triangle

    verdict = classify_triangle((2, 2), (3, 1), (2, 1, 1))
    assert verdict.kind == STAR
    assert (verdict.corner.row, verdict.corner.col) == (2, 2)


def test_classify_triangle_rejects_bad_paths():
    with pytest.raises(InvalidPartitionError):
        classify_triangle((2, 1), (3,), (3,))
    # (3) and (1,1,1) are both adjacent to (2,1) but not to each other.
    verdict = classify_triangle((2, 1), (3,), (1, 1, 1))
    assert verdict.kind == NOT_TRIANGLE
    assert not verdict.is_triangle
    with pytest.raises(InvalidPartitionError):
        classify_triangle((4,), (2, 2), (3, 1))


def test_triangle_verdict_matches_adjacency_at_n7():
    g = build_graph(7)
    for lam_id, row in enumerate(g.adjacency):
        for mu1_id, mu2_id in itertools.combinations(row, 2):
            verdict = classify_triangle(
                g.vertices[lam_id], g.vertices[mu1_id], g.vertices[mu2_id])
            assert verdict.is_triangle == (mu2_id in g.moves[mu1_id])


def test_classify_clique():
    g = build_graph(4)
    ids = [g.vertex_id(lam) for lam in [(3, 1), (2, 2), (2, 1, 1)]]
    verdict = classify_clique(g, ids)
    assert verdict.kind == STAR
    assert verdict.base == (3, 1)
    assert (verdict.corner.row, verdict.corner.col) == (1, 3)

    edge = [g.vertex_id((4,)), g.vertex_id((3, 1))]
    assert classify_clique(g, edge).kind == SMALL


def test_classify_clique_rejects_non_cliques():
    g = build_graph(4)
    with pytest.raises(NotACliqueError):
        classify_clique(g, [g.vertex_id((4,)), g.vertex_id((2, 2))])
    with pytest.raises(NotACliqueError):
        classify_clique(g, [0, 0])
    with pytest.raises(NotACliqueError):
        classify_clique(g, [0, 99])


def test_every_clique_classifies_at_n9():
    g = build_graph(9)
    for clique in all_cliques_reference(g):
        if len(clique) >= 3:
            verdict = classify_clique(g, clique)
            assert verdict.kind in (STAR, TOP)


def test_canonical_cover_small():
    g2 = build_graph(2)
    cover2 = canonical_cover(g2)
    assert len(cover2) == 1
    assert cover2[0].vertices == (0, 1)
    # The lone edge arises as a star simplex and as a top simplex.
    kinds = {kind for kind, _, _ in cover2[0].provenances}
    assert kinds == {STAR, TOP}

    assert canonical_cover(build_graph(1)) == []

    g4 = build_graph(4)
    cover4 = canonical_cover(g4)
    star = full_star_simplex(g4, (3, 1), (1, 3))
    assert star == tuple(sorted(g4.vertex_id(lam) for lam in [(3, 1), (2, 2), (2, 1, 1)]))
    assert any(member.vertices == star for member in cover4)


def test_full_simplices_match_fibers():
    g = build_graph(6)
    star = full_star_simplex(g, (3, 2, 1), (2, 2))
    assert g.vertex_id((3, 2, 1)) in star
    top = full_top_simplex(g, (3, 2, 1), (2, 3))
    assert g.vertex_id((3, 2, 1)) in top


def test_bulk_fibers_match_partition_fibers():
    """The graph's stored fibers, the cover, edge facets and full simplices
    agree with star_fiber/top_fiber."""
    for n in range(1, 13):
        g = build_graph(n)
        expected_cover: dict = {}
        lone_edges = set()
        for vid, lam in enumerate(g.vertices):
            for kind, corners, fiber_of, full_simplex, stored in (
                (STAR, removable_corners(lam), star_fiber, full_star_simplex, g.star[vid]),
                (TOP, addable_corners(lam), top_fiber, full_top_simplex, g.top[vid]),
            ):
                assert list(stored) == corners
                for corner in corners:
                    fiber = [g.index[mu] for mu in fiber_of(lam, corner)]
                    assert list(stored[corner]) == fiber
                    members = tuple(sorted([vid] + fiber))
                    assert full_simplex(g, lam, corner) == members
                    if fiber:
                        expected_cover.setdefault(members, []).append((kind, vid, corner))
            for j in g.adjacency[vid]:
                if vid < j:
                    [(c, a)] = edge_decompositions(lam, g.vertices[j])
                    if len(star_fiber(lam, c)) == 1 and len(top_fiber(lam, a)) == 1:
                        lone_edges.add((vid, j))
        cover = canonical_cover(g)
        assert [(m.vertices, list(m.provenances)) for m in cover] == sorted(expected_cover.items())
        assert {f for f in maximal_simplices(g, cover) if len(f) == 2} == lone_edges


def test_cover_provenances_match_corner_scan():
    for n in range(1, 11):
        g = build_graph(n)
        for member in canonical_cover(g):
            for kind, base_id, corner in member.provenances:
                scan = transfers_by_scan(g.vertices[base_id])
                rebuilt = [base_id] + [g.index[moved] for c, a, moved in scan
                                       if (c if kind == STAR else a) == corner]
                assert tuple(sorted(rebuilt)) == member.vertices


def test_maximal_simplices_small():
    g2 = build_graph(2)
    assert maximal_simplices(g2) == [(0, 1)]

    g4 = build_graph(4)
    expected = {
        tuple(sorted(g4.vertex_id(lam) for lam in facet))
        for facet in [
            {(4,), (3, 1)},
            {(3, 1), (2, 2), (2, 1, 1)},
            {(2, 1, 1), (1, 1, 1, 1)},
        ]
    }
    assert set(maximal_simplices(g4)) == expected


def test_maximal_simplices_match_generic_enumeration():
    for n in range(1, 9):
        g = build_graph(n)
        assert sorted(maximal_simplices(g)) == sorted(maximal_cliques_reference(g))


def test_enumerate_simplices():
    fvector = enumerate_simplices(build_graph(4))
    assert fvector.counts == (5, 5, 1)
    assert fvector.euler_characteristic == 1
    assert enumerate_simplices(build_graph(8)).euler_characteristic == 2


def test_fiber_counting_agrees():
    for n in range(1, 9):
        g = build_graph(n)
        assert fvector_by_fiber_counting(g).counts == enumerate_simplices(g).counts


def test_corner_counting_matches_subset_enumeration():
    for n in range(1, 31):
        assert fvector_by_corner_counting(n).counts == enumerate_simplices(build_graph(n)).counts


@st.composite
def partitions_up_to(draw, max_n):
    """A partition of some n <= max_n, drawn part by part, largest first."""
    remaining = draw(st.integers(min_value=1, max_value=max_n))
    parts = []
    while remaining:
        cap = min(remaining, parts[-1]) if parts else remaining
        part = draw(st.integers(min_value=1, max_value=cap))
        parts.append(part)
        remaining -= part
    return tuple(parts)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(partitions_up_to(40))
def test_raising_fiber_sizes_match_filtered_transfers(lam):
    base = height(lam)
    raising = [(c, a) for c, a, mu in admissible_transfers(lam) if height(mu) > base]
    star, top = _raising_fiber_sizes(lam)
    assert star == [sum(1 for c, _ in raising if c == corner) for corner in removable_corners(lam)]
    assert top == [sum(1 for _, a in raising if a == corner) for corner in addable_corners(lam)]


def test_fvector_table_matches_corner_counting():
    table = fvector_table(40)
    assert len(table) == 40
    for n, fvector in enumerate(table, start=1):
        assert fvector == fvector_by_corner_counting(n), n


def test_fvector_table_rejects_nonpositive():
    for bad in (0, -3, True, 2.0):
        with pytest.raises(InvalidPartitionError):
            fvector_table(bad)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=30))
def test_fiber_size_histograms_sum_the_per_partition_sizes(n):
    star_sizes, top_sizes = Counter(), Counter()
    for lam in enumerate_partitions(n):
        star, top = _raising_fiber_sizes(lam)
        star_sizes.update(star)
        top_sizes.update(top)
    vertices, star, top = _fiber_size_histograms(n)[-1]
    assert vertices == len(enumerate_partitions(n))
    assert {s: count for s, count in enumerate(star) if count} == star_sizes
    assert {s: count for s, count in enumerate(top) if count} == top_sizes


def test_format_facet_lines():
    facets = [(0, 1), (1, 2, 3)]
    assert format_facet_lines(facets) == "1 2\n2 3 4\n"
