"""Chain complexes, Smith normal form, and exact integer homology."""

import copy
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import combinations
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

import partition_complex
from partition_complex.cliques import maximal_simplices
from partition_complex.graph import build_graph
from partition_complex import homology
from partition_complex.homology import (
    ChainComplex,
    EmptyComplexError,
    _alternating_sum,
    build_chain_complex,
    reduced_homology,
    smith_normal_form,
)
from partition_complex.partitions import TheoremViolationError
from partition_complex.reference import SPHERE_COUNT


def test_snf_edge_cases():
    assert smith_normal_form([]) == (0, ())
    assert smith_normal_form([[0, 0], [0, 0]]) == (0, ())
    assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == (3, ())


def test_snf_refuses_non_integer_entries():
    # int() would truncate 2.5 and 0.5 and parse '3'; each must be refused.
    for matrix in ([[2.5]], [["3"]], [[0.5, 1], [1, 0]], [[True]]):
        with pytest.raises(ValueError, match="entries must be integers"):
            smith_normal_form(matrix)


def test_snf_known_factors():
    # d1 = gcd of all entries = 2, d1*d2 = |det| = 8.
    assert smith_normal_form([[2, 4], [6, 8]]) == (2, (2, 4))
    # Diagonal entries must be rearranged into divisibility order.
    assert smith_normal_form([[2, 0], [0, 3]]) == (2, (6,))
    assert smith_normal_form([[4, 0], [0, 6]]) == (2, (2, 12))


def _sympy_rank_and_factors(rows):
    matrix = sympy.Matrix(rows)
    rank = matrix.rank()
    diagonal = sympy_snf(matrix, domain=sympy.ZZ)
    factors = []
    for i in range(min(diagonal.rows, diagonal.cols)):
        value = abs(int(diagonal[i, i]))
        if value > 1:
            factors.append(value)
    return rank, tuple(sorted(factors))


def test_snf_matches_sympy_on_random_matrices():
    rng = random.Random(20260817)
    for _ in range(40):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        matrix = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
        rank, factors = smith_normal_form(matrix)
        expected_rank, expected_factors = _sympy_rank_and_factors(matrix)
        assert rank == expected_rank
        assert tuple(sorted(factors)) == expected_factors


def test_chain_complex_single_triangle():
    cplx = build_chain_complex([(0, 1, 2)])
    assert cplx.fvector == (3, 3, 1)
    assert cplx.euler_characteristic == 1
    assert cplx.dimension == 2


def test_chain_complex_rejects_bad_input():
    with pytest.raises(EmptyComplexError):
        build_chain_complex([])
    with pytest.raises(ValueError):
        build_chain_complex([(0, 0, 1)])


def test_facets_without_vertices_are_empty():
    for facets in ([()], [(), ()]):
        with pytest.raises(EmptyComplexError):
            build_chain_complex(facets)
    # An empty facet next to a real one is the empty face, and adds nothing.
    cplx = build_chain_complex([(1, 2), ()])
    assert cplx.fvector == (2, 1)
    assert cplx.boundaries == ((), ([1], [0]))
    assert reduced_homology(cplx).reduced_betti == (0, 0)


def test_chain_complex_from_partition_facets():
    cplx = build_chain_complex(maximal_simplices(build_graph(4)))
    assert cplx.fvector == (5, 5, 1)
    # Every ChainComplex checks the face identities on construction; n <= 10
    # complexes building cleanly is itself that check, and
    # test_boundary_of_boundary_vanishes multiplies the maps out independently.
    for n in range(1, 11):
        build_chain_complex(maximal_simplices(build_graph(n)))


def lex_basis(facets):
    """The closure of the facets by dimension: sorted vertex tuples, each
    dimension in lex order, the basis a built complex's rows index into."""
    closure = {face for facet in facets for size in range(1, len(facet) + 1)
               for face in combinations(sorted(facet), size)}
    return tuple(tuple(sorted(face for face in closure if len(face) == p + 1))
                 for p in range(max(map(len, closure))))


def columns_of(cplx, p):
    """The drop-order columns of the map out of dimension p, read off its
    rows: entry k of column j is boundaries[p][k][j]."""
    return list(zip(*cplx.boundaries[p]))


def signed_column(column):
    """A drop-order column as {row: value}, (-1)^k at entry k."""
    values = {}
    for k, row in enumerate(column):
        values[row] = values.get(row, 0) + (-1) ** k
    return {row: v for row, v in values.items() if v}


def boundary_of_boundary(cplx, p):
    """The nonzero entries {(row, column): value} of the signed d_{p-1} d_p."""
    lower = [signed_column(column) for column in columns_of(cplx, p - 1)]
    product = {}
    for j, column in enumerate(columns_of(cplx, p)):
        for face, sign in signed_column(column).items():
            for row, sign2 in lower[face].items():
                product[row, j] = product.get((row, j), 0) + sign * sign2
    return {key: v for key, v in product.items() if v}


def test_circle():
    report = reduced_homology(build_chain_complex([(0, 1), (1, 2), (0, 2)]))
    assert report.reduced_betti == (0, 1)
    assert report.torsion == ((), ())


def test_sphere_as_tetrahedron_boundary():
    facets = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    report = reduced_homology(build_chain_complex(facets))
    assert report.reduced_betti == (0, 0, 1)
    assert report.torsion == ((), (), ())
    assert report.summary() == "reduced homology: H~2=Z; euler characteristic 2"


# Antipodal quotient of the icosahedron: 6 vertices, 15 edges, 10 triangles;
# the unique closed surface with euler characteristic 1.
PROJECTIVE_PLANE = [
    (1, 2, 3), (1, 3, 4), (1, 2, 6), (1, 4, 5), (1, 5, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
]

# Vertex-minimal 7-vertex torus.
TORUS = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)] + [
    (i, (i + 2) % 7, (i + 3) % 7) for i in range(7)]


def klein_bottle_facets():
    """4x4 grid torus construction with one gluing reversed."""

    def vid(i, j):
        if j >= 4:
            j -= 4
            i = (4 - i) % 4
        return 4 * (i % 4) + j

    facets = []
    for i in range(4):
        for j in range(4):
            facets.append((vid(i, j), vid(i + 1, j), vid(i, j + 1)))
            facets.append((vid(i + 1, j), vid(i, j + 1), vid(i + 1, j + 1)))
    return facets


def _assert_closed_surface(cplx):
    incidence = {}
    for row in cplx.boundaries[2]:
        for edge_index in row:
            incidence[edge_index] = incidence.get(edge_index, 0) + 1
    assert len(incidence) == cplx.fvector[1]
    assert all(count == 2 for count in incidence.values())


def test_projective_plane_has_two_torsion():
    cplx = build_chain_complex(PROJECTIVE_PLANE)
    assert cplx.fvector == (6, 15, 10)
    _assert_closed_surface(cplx)
    report = reduced_homology(cplx)
    assert report.reduced_betti == (0, 0, 0)
    assert report.torsion == ((), (2,), ())
    assert "H~1=Z/2" in report.summary()


def test_torus():
    cplx = build_chain_complex(TORUS)
    assert cplx.fvector == (7, 21, 14)
    _assert_closed_surface(cplx)
    report = reduced_homology(cplx)
    assert report.betti == (1, 2, 1)
    assert report.torsion == ((), (), ())


def test_klein_bottle():
    cplx = build_chain_complex(klein_bottle_facets())
    assert cplx.fvector == (16, 48, 32)
    _assert_closed_surface(cplx)
    report = reduced_homology(cplx)
    assert report.reduced_betti == (0, 1, 0)
    assert report.torsion == ((), (2,), ())
    assert "H~1=Z+Z/2" in report.summary()


def partition_homology(n):
    return reduced_homology(build_chain_complex(maximal_simplices(build_graph(n))))


def test_contractible_at_7():
    report = partition_homology(7)
    assert all(b == 0 for b in report.reduced_betti)
    assert all(t == () for t in report.torsion)


def test_single_sphere_at_8():
    report = partition_homology(8)
    assert report.betti == (1, 0, 1, 0)
    assert report.reduced_betti == (0, 0, 1, 0)
    assert report.torsion == ((), (), (), ())


def test_five_spheres_at_10():
    report = partition_homology(10)
    assert report.reduced_betti[2] == 5
    assert all(t == () for t in report.torsion)
    assert report.summary() == "reduced homology: H~2=Z^5; euler characteristic 6"


def test_report_json_shape():
    report = partition_homology(9)
    payload = report.to_json_dict()
    assert payload["dimensions"]["2"] == {"betti": 2, "torsion": []}
    assert payload["reduced_betti"] == [0, 0, 2, 0]
    assert payload["euler_characteristic"] == 3
    assert payload["reduced_euler_characteristic"] == 2
    # The alternating unreduced betti sum must recover chi.
    alternating = sum(
        (-1) ** p * payload["dimensions"][str(p)]["betti"]
        for p in range(len(payload["reduced_betti"])))
    assert alternating == payload["euler_characteristic"]


def suspension(facets):
    """The suspension: every facet joined with each of two new apex vertices."""
    north = max(v for facet in facets for v in facet) + 1
    return [tuple(facet) + (apex,) for facet in facets for apex in (north, north + 1)]


def homology_without_clearing(cplx):
    """Betti numbers and torsion from the dense Smith form of every full boundary map."""
    ranks = [0] * (cplx.dimension + 2)
    torsion = [()] * (cplx.dimension + 1)
    for p in range(1, cplx.dimension + 1):
        dense = [[0] * cplx.fvector[p] for _ in range(cplx.fvector[p - 1])]
        for j, column in enumerate(columns_of(cplx, p)):
            for i, value in signed_column(column).items():
                dense[i][j] = value
        ranks[p], torsion[p - 1] = smith_normal_form(dense)
    betti = tuple(f - ranks[p] - ranks[p + 1] for p, f in enumerate(cplx.fvector))
    return betti, tuple(torsion)


def test_clearing_keeps_betti_and_torsion():
    # The suspensions move RP^2's Z/2 up into H~2 and H~3, so it comes from
    # boundary maps whose rows and columns clearing leaves out.
    complexes = {
        "RP2": (PROJECTIVE_PLANE, ((), (2,), ())),
        "torus": (TORUS, ((), (), ())),
        "klein": (klein_bottle_facets(), ((), (2,), ())),
        "suspended RP2": (suspension(PROJECTIVE_PLANE), ((), (), (2,), ())),
        "twice suspended RP2": (suspension(suspension(PROJECTIVE_PLANE)),
                                ((), (), (), (2,), ())),
    }
    for n in range(1, 10):
        complexes[f"K_{n}"] = (maximal_simplices(build_graph(n)), None)
    for name, (facets, expected_torsion) in complexes.items():
        cplx = build_chain_complex(facets)
        betti, torsion = homology_without_clearing(cplx)
        if expected_torsion is not None:
            assert torsion == expected_torsion, name
        report = reduced_homology(cplx)
        assert (report.betti, report.torsion) == (betti, torsion), name


def test_boundary_of_boundary_vanishes():
    complexes = [PROJECTIVE_PLANE, TORUS, klein_bottle_facets(), suspension(PROJECTIVE_PLANE),
                 suspension(suspension(PROJECTIVE_PLANE))]
    complexes += [maximal_simplices(build_graph(n)) for n in range(1, 11)]
    for facets in complexes:
        cplx = build_chain_complex(facets)
        for p in range(2, cplx.dimension + 1):
            assert boundary_of_boundary(cplx, p) == {}


@st.composite
def facet_lists(draw):
    """Facets over at most 8 arbitrary integer vertex labels."""
    labels = draw(st.lists(st.integers(-40, 40), min_size=1, max_size=8, unique=True))
    facet = st.lists(st.sampled_from(labels), min_size=1, max_size=6, unique=True)
    return draw(st.lists(facet.map(tuple), min_size=1, max_size=8))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(facet_lists(), st.randoms(use_true_random=False))
def test_facet_order_and_repeats_do_not_change_the_complex(facets, rng):
    cplx = build_chain_complex(facets)
    basis = lex_basis(facets)
    assert cplx.fvector == tuple(map(len, basis))
    assert len(cplx.boundaries) == len(basis)
    for p in range(1, cplx.dimension + 1):
        assert len(cplx.boundaries[p]) == p + 1
        assert all(len(row) == len(basis[p]) for row in cplx.boundaries[p])
        for s, column in zip(basis[p], columns_of(cplx, p)):
            assert all(basis[p - 1][face] == s[:k] + s[k + 1:]
                       for k, face in enumerate(column))
    # Shuffle the vertices inside each facet, repeat facets, add sub-faces,
    # then shuffle the facets: the same complex must come out.
    variant = [tuple(rng.sample(facet, len(facet))) for facet in facets]
    variant += [rng.choice(facets) for _ in range(rng.randrange(4))]
    for facet in rng.sample(facets, rng.randrange(len(facets) + 1)):
        variant.append(tuple(rng.sample(facet, rng.randrange(1, len(facet) + 1))))
    rng.shuffle(variant)
    other = build_chain_complex(variant)
    assert other == cplx


def test_disconnected_complex():
    # Two disjoint filled triangles and an isolated vertex: three components.
    report = reduced_homology(build_chain_complex([(0, 1, 2), (3, 4, 5), (6,)]))
    assert report.betti == (3, 0, 0)
    assert report.torsion == ((), (), ())
    assert report.summary() == "reduced homology: H~0=Z^2; euler characteristic 3"
    # Hollow, each triangle also bounds a circle.
    hollow = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (6,)]
    assert reduced_homology(build_chain_complex(hollow)).reduced_betti == (2, 2)


def _rows_and_values(columns):
    """{row: value} columns as the reduction's input: index rows and one value each.

    Index row (v, t) holds each column's t-th row with value v, or -1 where
    the column has no such entry; a matrix with no entry gets one empty row.
    """
    columns = list(columns)
    by_value = [{} for _ in columns]
    for column, groups in zip(columns, by_value):
        for i, v in column.items():
            groups.setdefault(v, []).append(i)
    slots = sorted({(v, t) for groups in by_value for v, found in groups.items()
                    for t in range(len(found))}) or [(1, 0)]
    rows = [[groups[v][t] if t < len(groups.get(v, ())) else -1 for groups in by_value]
            for v, t in slots]
    return rows, [v for v, _ in slots]


def _assert_pivots_invertible(dense, pivots):
    """The unit pivots index a square block with Smith form the identity."""
    block = [[dense[i][j] for _, j in pivots] for i, _ in pivots]
    assert smith_normal_form(block) == (len(pivots), ())


@st.composite
def sparse_matrices(draw):
    """A sparse matrix with entries in -3..3, wide or tall, with a planted
    2x2 or 3x3 non-unit block as a direct summand, rows and columns
    shuffled, and a few rows and columns to leave out."""
    nrows = draw(st.integers(min_value=0, max_value=8))
    ncols = draw(st.integers(min_value=0, max_value=8))
    entry = st.sampled_from((0, 0, 0, 1, -1, 1, -1, 2, -2, 3, -3))
    size = draw(st.sampled_from((2, 3)))
    planted = st.sampled_from((0, 2, -2, 3, -3))
    dense = [[draw(entry) for _ in range(ncols)] + [0] * size for _ in range(nrows)]
    dense += [[0] * ncols + [draw(planted) for _ in range(size)] for _ in range(size)]
    row_order = draw(st.permutations(range(nrows + size)))
    col_order = draw(st.permutations(range(ncols + size)))
    dense = [[dense[i][j] for j in col_order] for i in row_order]
    skip_rows = draw(st.sets(st.sampled_from(row_order), max_size=2))
    skip_cols = draw(st.sets(st.sampled_from(col_order), max_size=2))
    return dense, skip_rows, skip_cols


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sparse_matrices())
def test_sparse_reduction_matches_dense_snf(case):
    _checked_reduction(*case)


def _checked_reduction(dense, skip_rows, skip_cols):
    """Rank, factors and sorted unit pivots of the sparse reduction of a dense matrix.

    The input must come back unchanged, rank and factors must match the
    dense Smith form of the kept block, and the pivots must be kept lines
    indexing an invertible block.
    """
    ncols = len(dense[0])
    rows, values = _rows_and_values(
        [{i: row[j] for i, row in enumerate(dense) if row[j]} for j in range(ncols)])
    before = copy.deepcopy((rows, values))
    skip_mask = bytearray(ncols)
    for j in skip_cols:
        skip_mask[j] = 1
    rank, factors, pivots = homology._sparse_rank_and_factors(
        rows, values, len(dense), ncols, list(skip_rows), skip_mask)
    assert (rows, values) == before
    kept_rows = [i for i in range(len(dense)) if i not in skip_rows]
    kept_cols = [j for j in range(ncols) if j not in skip_cols]
    assert (rank, factors) == smith_normal_form(
        [[dense[i][j] for j in kept_cols] for i in kept_rows])
    assert all(i in kept_rows and j in kept_cols for i, j in pivots)
    _assert_pivots_invertible(dense, pivots)
    return rank, factors, sorted(pivots)


def test_non_unit_leading_entry_is_never_a_pivot():
    # Alone at its leading index, by columns and by rows: residue, not pivot.
    assert _checked_reduction([[2]], (), ()) == (1, (2,), [])
    assert _checked_reduction([[2, 4]], (), ()) == (1, (2,), [])
    # Column 0 leads at row 2 with a 2, the later column 1 with a 1 there:
    # column 1 is the pivot, and column 0 less twice column 1 is the residue.
    assert _checked_reduction([[2, 0], [0, 1], [2, 1]], (), ()) == (2, (2,), [(2, 1)])


def test_reduced_line_meets_a_later_apparent_pivot():
    # Columns 0 and 2 are apparent, at rows 3 and 1.  Column 1 also leads at
    # row 3, behind column 0; less column 0 it leads at row 1, which the later
    # column 2 holds, and less that it is the residue -2 at row 0.
    dense = [[1, 0, 1], [0, 1, 1], [0, 0, 0], [1, 1, 0]]
    assert _checked_reduction(dense, (), ()) == (3, (2,), [(1, 2), (3, 0)])


def test_row_side_leads_with_skipped_rows():
    # Two kept rows against four columns, so the rows are reduced, in
    # descending order, each leading at its first column.  Row 2 is apparent
    # at column 1; row 0 leads there too, and less row 2 it is the residue
    # (2, 2) on columns 2 and 3.  Row 1 would add rank, but it is left out.
    dense = [[0, 1, 2, 3], [1, 1, 1, 1], [0, 1, 0, 1]]
    assert _checked_reduction(dense, {1}, ()) == (2, (2,), [(2, 1)])
    assert _checked_reduction(dense, (), ())[0] == 3


def test_homology_memory_peak_at_20():
    # Stored as rows, the boundary maps hold no column tuples, and the
    # complex keeps no simplex basis.  Measured with Python 3.11, the traced
    # peak of the chain complex and its reduction at n = 20 is 1.41 MiB,
    # against 1.88 MiB with the basis stored and 2.42 MiB with one tuple
    # per column as well; the bound is the first plus 10%.  The facets are
    # listed before tracing starts, so the bound covers only the homology.
    facets = maximal_simplices(build_graph(20))
    tracemalloc.start()
    try:
        reduced_homology(build_chain_complex(facets))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.55 * 2**20


def test_partition_complexes_need_no_elimination(monkeypatch):
    # Every line of every sparse map of K_n is apparent (counted for n = 1-28,
    # 30 and 32), which is what keeps the reduction fast.  It also pins the
    # forest: the rows d_2 leaves out are exactly the edges the union-find
    # keeps, and any other spanning forest would need elimination here.
    def refuse(*args):
        raise AssertionError("a line needed elimination")

    monkeypatch.setattr(homology, "_eliminate", refuse)
    for n in range(1, 21):
        report = partition_homology(n)
        assert report.reduced_betti == tuple(
            SPHERE_COUNT[n] if p == 2 else 0 for p in range(len(report.betti)))
        assert not any(report.torsion)


@st.composite
def graphs(draw):
    """Vertex count and sorted edge list of a small simple graph."""
    nvertices = draw(st.integers(min_value=1, max_value=9))
    pairs = [(a, b) for a in range(nvertices) for b in range(a + 1, nvertices)]
    return nvertices, sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []


@settings(max_examples=200, deadline=None, derandomize=True)
@given(graphs())
def test_spanning_forest_matches_dense_snf(graph):
    nvertices, edges = graph
    dense = [[(v == b) - (v == a) for a, b in edges] for v in range(nvertices)]
    rows = ([b for _, b in edges], [a for a, _ in edges])
    forest = homology._spanning_forest(rows, nvertices)
    assert (len(forest), ()) == smith_normal_form(dense)
    # With the smallest vertex of each component deleted, the forest's
    # columns are a square block with Smith form the identity, invertible
    # over Z: what lets d_2 leave out the forest's edges as rows.
    smallest = list(range(nvertices))
    for _ in range(nvertices):
        for a, b in edges:
            smallest[a] = smallest[b] = min(smallest[a], smallest[b])
    kept = [v for v in range(nvertices) if smallest[v] != v]
    assert len(kept) == len(forest)
    assert smith_normal_form([[dense[v][e] for e in forest] for v in kept]) == (len(forest), ())
    # The forest is the one a left-to-right column reduction pairs: the edges
    # that raise the rank of the columns before them, in column order.  Its
    # rows are the ones whose clearing keeps d_2's pass apparent.
    prefix_ranks = [smith_normal_form([row[:k] for row in dense])[0]
                    for k in range(len(edges) + 1)]
    assert forest == [k for k in range(len(edges)) if prefix_ranks[k + 1] > prefix_ranks[k]]


def _with_rows(cplx, p, rows):
    """The (fvector, boundaries) of cplx with the map out of dimension p
    replaced by the given rows."""
    return cplx.fvector, cplx.boundaries[:p] + (tuple(rows),) + cplx.boundaries[p + 1:]


def _swapped(cplx, p, j, a, b):
    """The (fvector, boundaries) of cplx with entries a and b of column j of
    the map out of dimension p swapped."""
    rows = [list(row) for row in cplx.boundaries[p]]
    rows[a][j], rows[b][j] = rows[b][j], rows[a][j]
    return _with_rows(cplx, p, rows)


def _broken_boundaries():
    """(fvector, boundaries) pairs whose rows break the face identities or
    the row layout, hold a face index out of range, or hold a different
    number of maps than the f-vector has dimensions."""
    triangle = build_chain_complex([(0, 1, 2)])
    k8 = build_chain_complex(maximal_simplices(build_graph(8)))
    short = [list(row) for row in k8.boundaries[2]]
    short[1].pop()
    return {
        "swapped triangle": _swapped(triangle, 2, 0, 0, 1),
        "swapped tetrahedron": _swapped(k8, 3, k8.fvector[3] - 1, 1, 2),
        "short row": _with_rows(k8, 2, short),
        "missing row": _with_rows(k8, 3, k8.boundaries[3][:-1]),
        "missing map": (k8.fvector, k8.boundaries[:-1]),
        "extra map": (k8.fvector[:-1], k8.boundaries),
        # Unchecked, -1 wraps around to vertex 1 and reads as a loop there.
        "negative face index": ((2, 1), ((), ([1], [-1]))),
        "face index past the end": ((2, 1), ((), ([2], [0]))),
    }


def _broken_boundaries_raise() -> bool:
    """Whether constructing a ChainComplex refuses every broken pair."""
    for fvector, boundaries in _broken_boundaries().values():
        try:
            ChainComplex(fvector, boundaries)
        except TheoremViolationError:
            continue
        return False
    return True


def _overcounting(seam):
    """homology.<seam> with the rank it yields raised by one: the forest with
    its first edge listed twice, or the sparse reduction's rank plus one."""
    true_seam = getattr(homology, seam)

    def overcount(*args, **kwargs):
        result = true_seam(*args, **kwargs)
        if seam == "_spanning_forest":
            return result + result[:1]
        rank, factors, pivots = result
        return rank + 1, factors, pivots
    return overcount


def test_rank_overcount_raises(monkeypatch):
    # d_1 goes through the forest and every other map through the sparse
    # reduction; an overcount in either seam alone must raise.
    cplx = build_chain_complex(maximal_simplices(build_graph(8)))
    f = cplx.fvector
    for seam in ("_spanning_forest", "_sparse_rank_and_factors"):
        with monkeypatch.context() as patch:
            patch.setattr(homology, seam, _overcounting(seam))
            with pytest.raises(TheoremViolationError):
                reduced_homology(cplx)
            # The Betti numbers of these ranks still sum to chi, so an
            # alternating Betti sum check would have let them through.
            ranks = [0, len(homology._spanning_forest(cplx.boundaries[1], f[0]))]
            ranks += [homology._sparse_rank_and_factors(
                *_rows_and_values(map(signed_column, columns_of(cplx, p))),
                f[p - 1], f[p], (), bytes(f[p]))[0] for p in range(2, len(f))] + [0]
            betti = [f[p] - ranks[p] - ranks[p + 1] for p in range(len(f))]
            assert _alternating_sum(betti) == cplx.euler_characteristic


def test_broken_boundary_raises_with_and_without_optimize():
    # Signs are implied by position, so a misordered column is the fault to
    # plant; the independent product sees that it breaks d d = 0.
    broken = _broken_boundaries()
    for name, p in (("swapped triangle", 2), ("swapped tetrahedron", 3)):
        assert boundary_of_boundary(SimpleNamespace(boundaries=broken[name][1]), p) != {}
    for fvector, boundaries in broken.values():
        with pytest.raises(TheoremViolationError):
            ChainComplex(fvector, boundaries)
    # Under -O every assert is stripped, so the check must raise on its own.
    script = ("import runpy, sys; ns = runpy.run_path(sys.argv[1]); "
              "sys.exit(0 if sys.flags.optimize and ns['_broken_boundaries_raise']() else 1)")
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(partition_complex.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-O", "-c", script, __file__],
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def _relabelled(cplx, rng):
    """cplx with each basis listed in a random order and its rows renumbered to match."""
    orders = [rng.sample(range(f), f) for f in cplx.fvector]
    position = [{old: new for new, old in enumerate(order)} for order in orders]
    boundaries = ((),) + tuple(
        tuple([position[p - 1][row[old]] for old in orders[p]] for row in cplx.boundaries[p])
        for p in range(1, len(orders)))
    return ChainComplex(cplx.fvector, boundaries)


def test_reduction_does_not_rely_on_the_basis_order():
    # In a built complex row 0 holds each column's largest face, its pivot on
    # the column side.  Listed in random orders, a column's largest face sits
    # in any row, with either sign, and every complex must still pass the
    # check on construction and reduce to the same groups: no step may take
    # row 0 as the pivot.
    rng = random.Random(20261019)
    complexes = [PROJECTIVE_PLANE, TORUS, klein_bottle_facets(), suspension(PROJECTIVE_PLANE),
                 maximal_simplices(build_graph(8)), maximal_simplices(build_graph(10))]
    for facets in complexes:
        cplx = build_chain_complex(facets)
        assert all(max(column) == column[0]
                   for p in range(1, cplx.dimension + 1) for column in columns_of(cplx, p))
        expected = reduced_homology(cplx)
        for _ in range(3):
            shuffled = _relabelled(cplx, rng)
            assert any(max(column) != column[0] for column in columns_of(shuffled, 2))
            assert reduced_homology(shuffled) == expected
