"""Fibers, triangle and clique classification, covers, facets, f-vectors."""

import hashlib
import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_complex import cliques
from partition_complex.cliques import (
    NOT_TRIANGLE,
    SMALL,
    STAR,
    TOP,
    NotACliqueError,
    _triangle_class,
    canonical_cover,
    classify_clique,
    enumerate_simplices,
    _partition_counts,
    _raising_fiber_sizes,
    fvector_by_corner_counting,
    fvector_by_fiber_counting,
    fvector_table,
    maximal_simplices,
)
from partition_complex.graph import build_graph
from partition_complex.homology import build_chain_complex
from partition_complex.oracles import (
    all_cliques_reference,
    maximal_cliques_reference,
    partition_count,
    transfers_by_scan,
)
from partition_complex.partitions import (
    Corner,
    InvalidPartitionError,
    addable_corners,
    admissible_transfers,
    enumerate_partitions,
    height,
    removable_corners,
)
from partition_complex.verification import FAIL, NContext, run_suite


def stored_fiber(lam, kind, row, col):
    """The partitions in lam's stored STAR or TOP fiber at the corner (row, col)."""
    g = build_graph(sum(lam))
    vid = g.vertex_id(lam)
    fibers = g.star[vid] if kind == STAR else g.top[vid]
    return [g.vertices[mu] for mu in fibers[Corner(row, col)]]


def test_star_fiber():
    assert set(stored_fiber((3, 1), STAR, 1, 3)) == {(2, 2), (2, 1, 1)}
    assert stored_fiber((5,), STAR, 1, 5) == [(4, 1)]
    # The new-row target of (1,1)'s only cell is the identity, so it drops out.
    assert stored_fiber((1, 1), STAR, 2, 1) == [(2,)]
    # A cell that is not a removable corner has no star fiber.
    g = build_graph(4)
    assert Corner(1, 2) not in g.star[g.vertex_id((3, 1))]


def test_top_fiber():
    assert stored_fiber((3, 1), TOP, 2, 2) == [(2, 2)]
    assert stored_fiber((2, 1, 1), TOP, 1, 3) == [(3, 1)]
    assert stored_fiber((2, 2), TOP, 3, 1) == [(2, 1, 1)]
    # A cell that is not an addable corner has no top fiber.
    g = build_graph(4)
    assert Corner(2, 3) not in g.top[g.vertex_id((3, 1))]


def test_fibers_filter_admissible_transfers():
    """Each stored fiber lists its transfers' results in admissible_transfers
    order, which is also the order of the corner-pair scan."""
    for n in range(1, 11):
        g = build_graph(n)
        for vid, lam in enumerate(g.vertices):
            for transfers in (admissible_transfers(lam), transfers_by_scan(lam)):
                for c, fiber in g.star[vid].items():
                    assert [g.vertices[mu] for mu in fiber] == [
                        mu for src, _, mu in transfers if src == c]
                for a, fiber in g.top[vid].items():
                    assert [g.vertices[mu] for mu in fiber] == [
                        mu for _, dst, mu in transfers if dst == a]


def triangle_class(g, lam, mu1, mu2):
    """The verdict on the path mu1 - lam - mu2, from its two edges' moves."""
    moves = g.moves[g.vertex_id(lam)]
    return _triangle_class(moves[g.vertex_id(mu1)], moves[g.vertex_id(mu2)])


def test_classify_triangle():
    g = build_graph(4)
    assert triangle_class(g, (3, 1), (2, 2), (2, 1, 1)) == STAR
    assert triangle_class(g, (2, 2), (3, 1), (2, 1, 1)) == STAR


def test_classify_triangle_rejects_bad_paths():
    g = build_graph(3)
    # (3) and (1,1,1) are both adjacent to (2,1) but not to each other.
    assert triangle_class(g, (2, 1), (3,), (1, 1, 1)) == NOT_TRIANGLE
    # (2,2) is no arm of (4): there is no move to classify.
    g4 = build_graph(4)
    assert g4.vertex_id((2, 2)) not in g4.moves[g4.vertex_id((4,))]


def test_triangle_verdict_matches_adjacency_at_n7():
    g = build_graph(7)
    for lam_id, row in enumerate(g.adjacency):
        moves = g.moves[lam_id]
        for mu1_id, mu2_id in itertools.combinations(row, 2):
            verdict = _triangle_class(moves[mu1_id], moves[mu2_id])
            assert (verdict != NOT_TRIANGLE) == (mu2_id in g.moves[mu1_id])


def test_classify_clique():
    g = build_graph(4)
    ids = [g.vertex_id(lam) for lam in [(3, 1), (2, 2), (2, 1, 1)]]
    verdict = classify_clique(g, ids)
    assert verdict.kind == STAR
    assert verdict.base == g.vertex_id((3, 1))
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


def test_classify_clique_rejects_ids_that_are_not_ints():
    g = build_graph(4)
    for ids in ([True, 2], [1, True], [1.0], [0, 1.5], ["1"], [1, "1"]):
        with pytest.raises(NotACliqueError, match="is not an int"):
            classify_clique(g, ids)


def test_every_clique_classifies_at_n9():
    g = build_graph(9)
    for clique in all_cliques_reference(g):
        if len(clique) >= 3:
            verdict = classify_clique(g, clique)
            assert verdict.kind in (STAR, TOP)


def _full_simplex(g, fibers, lam, corner):
    """Vertex ids of lam and its stored fiber at corner, sorted."""
    vid = g.vertex_id(lam)
    return tuple(sorted((vid,) + fibers[vid][corner]))


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
    star = _full_simplex(g4, g4.star, (3, 1), Corner(1, 3))
    assert star == tuple(sorted(g4.vertex_id(lam) for lam in [(3, 1), (2, 2), (2, 1, 1)]))
    assert any(member.vertices == star for member in cover4)


def test_full_simplices_match_fibers():
    g = build_graph(6)
    lam = (3, 2, 1)
    scan = transfers_by_scan(lam)
    star = _full_simplex(g, g.star, lam, Corner(2, 2))
    assert star == tuple(sorted(
        [g.vertex_id(lam)] + [g.vertex_id(mu) for c, _, mu in scan if (c.row, c.col) == (2, 2)]))
    top = _full_simplex(g, g.top, lam, Corner(2, 3))
    assert top == tuple(sorted(
        [g.vertex_id(lam)] + [g.vertex_id(mu) for _, a, mu in scan if (a.row, a.col) == (2, 3)]))


def test_bulk_fibers_match_partition_fibers():
    """The graph's stored fibers, the cover, edge facets and full simplices
    agree with the fibers filtered from each vertex's corner-pair scan."""
    for n in range(1, 13):
        g = build_graph(n)
        expected_cover: dict = {}
        lone_edges = set()
        for vid, lam in enumerate(g.vertices):
            scan = transfers_by_scan(lam)
            fibers = {}
            for kind, corners, stored, side in (
                (STAR, removable_corners(lam), g.star[vid], 0),
                (TOP, addable_corners(lam), g.top[vid], 1),
            ):
                assert list(stored) == corners
                for corner in corners:
                    fiber = [g.index[move[2]] for move in scan if move[side] == corner]
                    assert list(stored[corner]) == fiber
                    fibers[corner] = fiber
                    members = tuple(sorted([vid] + fiber))
                    if fiber:
                        expected_cover.setdefault(members, []).append((kind, vid, corner))
            for j in g.adjacency[vid]:
                if vid < j:
                    [(c, a)] = [(c, a) for c, a, mu in scan if mu == g.vertices[j]]
                    if len(fibers[c]) == 1 and len(fibers[a]) == 1:
                        lone_edges.add((vid, j))
        cover = canonical_cover(g)
        assert [(m.vertices, list(m.provenances)) for m in cover] == sorted(expected_cover.items())
        assert {f for f in maximal_simplices(g) if len(f) == 2} == lone_edges


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
        oracle = maximal_cliques_reference(g, all_cliques_reference(g))
        assert sorted(maximal_simplices(g)) == oracle


def test_enumerate_simplices():
    fvector = enumerate_simplices(maximal_simplices(build_graph(4)))
    assert fvector.counts == (5, 5, 1)
    assert fvector.euler_characteristic == 1
    assert enumerate_simplices(maximal_simplices(build_graph(8))).euler_characteristic == 2


def test_enumerate_simplices_counts_a_facet_once_in_any_vertex_order():
    facets = [(2, 1, 0), (0, 1, 2)]
    assert enumerate_simplices(facets).counts == (3, 3, 1)
    assert build_chain_complex(facets).fvector == (3, 3, 1)


def test_fiber_counting_agrees():
    for n in range(1, 9):
        g = build_graph(n)
        assert (fvector_by_fiber_counting(g).counts
                == enumerate_simplices(maximal_simplices(g)).counts)


def test_corner_counting_matches_subset_enumeration():
    for n in range(1, 31):
        assert (fvector_by_corner_counting(n).counts
                == enumerate_simplices(maximal_simplices(build_graph(n))).counts)


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


def test_fvector_table_is_unchanged_up_to_300():
    # Every f-vector, not only chi: the CLI digests pin chi alone, to n = 200.
    counts = [fvector.counts for fvector in fvector_table(300)]
    assert counts[-1][:2] == (9253082936723602, 830775014299725532)
    digest = hashlib.sha256(repr(counts).encode()).hexdigest()
    assert digest == "2cf3290142f842f0f04cf6b27e510aae056cadb9045705ea25fe14930eca9600"


def test_fvector_table_rejects_nonpositive():
    for bad in (0, -3, True, 2.0):
        with pytest.raises(InvalidPartitionError):
            fvector_table(bad)


def closed_form_rows(max_n):
    """rows[k][n] = g(n, k) = [q^n] q^(k(k+3)/2) P(q) / ((1 - q) ... (1 - q^(k+1))),
    for every k with k(k+3)/2 <= max_n, from the pentagonal p(n) and one
    series division per factor."""
    rows = []
    k = 0
    while k * (k + 3) // 2 <= max_n:
        series = [partition_count(m) for m in range(max_n + 1)]
        for j in range(1, k + 2):
            for m in range(j, max_n + 1):
                series[m] += series[m - j]
        shift = k * (k + 3) // 2
        rows.append([0] * shift + series[:max_n + 1 - shift])
        k += 1
    return rows


def test_fiber_sizes_per_partition_give_the_closed_form():
    max_n = 30
    rows = closed_form_rows(max_n)

    def g(n, k):
        return rows[k][n] if n >= 0 and 0 <= k < len(rows) else 0

    star_sizes, top_sizes = {}, {}
    for n in range(1, max_n + 1):
        star_sizes[n], top_sizes[n] = Counter(), Counter()
        for lam in enumerate_partitions(n):
            star, top = _raising_fiber_sizes(lam)
            star_sizes[n].update(star)
            top_sizes[n].update(top)
        for k in range(len(rows) + 2):
            top_faces = sum(count * math.comb(s, k) for s, count in top_sizes[n].items())
            star_faces = sum(count * math.comb(s, k) for s, count in star_sizes[n].items())
            assert top_faces == g(n, k), (n, k)
            assert star_faces == ((k == 0) * partition_count(n - 1)
                                  + g(n - 2, k) + g(n - 2, k - 1)), (n, k)
    # Top fibers of size s at n are as many as star fibers of size s + 1 at n + 2.
    for n in range(1, max_n - 1):
        shifted_star = {s - 1: count for s, count in star_sizes[n + 2].items() if s}
        assert top_sizes[n] == Counter(shifted_star), n


def test_partition_counts_match_the_pentagonal_recurrence():
    assert _partition_counts(200) == [partition_count(n) for n in range(201)]


def test_wrong_partition_count_raises(monkeypatch):
    """fvector_table trusts _partition_counts, so a wrong p(n) is caught by
    the routes that do not read it: corner counting per partition, and the
    euler suite, which raises its counterexample naming the dp route."""
    def off_by_one(max_n):
        counts = _partition_counts(max_n)
        counts[max_n // 2] += 1
        return counts
    monkeypatch.setattr(cliques, "_partition_counts", off_by_one)
    assert fvector_table(25)[-1] != fvector_by_corner_counting(25)
    outcome = run_suite("euler", NContext(25))
    assert outcome.status == FAIL
    assert outcome.counterexample["route"] == "dp"
