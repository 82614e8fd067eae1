"""Chain complexes, Smith normal form, and exact integer homology."""

import os
import random
import subprocess
import sys

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

import partition_complex
from partition_complex.cliques import maximal_simplices
from partition_complex.graph import build_graph
from partition_complex import homology
from partition_complex.homology import (
    ChainComplex,
    EmptyComplexError,
    _alternating_sum,
    _check_boundaries_compose_to_zero,
    build_chain_complex,
    reduced_homology,
    smith_normal_form,
)
from partition_complex.partitions import TheoremViolationError


def test_snf_edge_cases():
    assert smith_normal_form([]) == (0, ())
    assert smith_normal_form([[0, 0], [0, 0]]) == (0, ())
    assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == (3, ())


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


def test_chain_complex_from_partition_facets():
    cplx = build_chain_complex(maximal_simplices(build_graph(4)))
    assert cplx.fvector == (5, 5, 1)
    # Boundary composition to zero is asserted inside the builder; n <= 10
    # complexes building cleanly is itself the check.
    for n in range(1, 11):
        build_chain_complex(maximal_simplices(build_graph(n)))


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
    for column in cplx.boundaries[2]:
        for edge_index in column:
            incidence[edge_index] = incidence.get(edge_index, 0) + 1
    assert len(incidence) == len(cplx.basis[1])
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
        dense = [[0] * len(cplx.basis[p]) for _ in cplx.basis[p - 1]]
        for j, column in enumerate(cplx.boundaries[p]):
            for i, value in column.items():
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


def _unsigned_triangle_raises() -> bool:
    """Whether the boundary check rejects a triangle whose signs were dropped."""
    good = build_chain_complex([(0, 1, 2)])
    unsigned = tuple({face: 1 for face in column} for column in good.boundaries[2])
    try:
        _check_boundaries_compose_to_zero(
            ChainComplex(good.basis, good.boundaries[:2] + (unsigned,)))
    except TheoremViolationError:
        return True
    return False


def test_rank_overcount_raises(monkeypatch):
    cplx = build_chain_complex(maximal_simplices(build_graph(8)))
    true_ranks = homology._sparse_rank_and_factors

    def overcount(*args, **kwargs):
        rank, factors, pivots = true_ranks(*args, **kwargs)
        return rank + 1, factors, pivots

    monkeypatch.setattr(homology, "_sparse_rank_and_factors", overcount)
    with pytest.raises(TheoremViolationError):
        reduced_homology(cplx)
    # The Betti numbers of these ranks still sum to chi, so an alternating
    # Betti sum check would have let them through.
    f = cplx.fvector
    ranks = [0] + [overcount(cplx.boundaries[p], (), ())[0] for p in range(1, len(f))] + [0]
    betti = [f[p] - ranks[p] - ranks[p + 1] for p in range(len(f))]
    assert _alternating_sum(betti) == cplx.euler_characteristic


def test_broken_boundary_raises_with_and_without_optimize():
    assert _unsigned_triangle_raises()
    # Under -O every assert is stripped, so the check must raise on its own.
    script = ("import runpy, sys; ns = runpy.run_path(sys.argv[1]); "
              "sys.exit(0 if sys.flags.optimize and ns['_unsigned_triangle_raises']() else 1)")
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(partition_complex.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-O", "-c", script, __file__],
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
