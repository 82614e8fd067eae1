"""The verification runner: a suite that raises costs one fail record, not the
run, and a failing suite names what disagreed."""

import pytest

from partition_complex import verification
from partition_complex.cliques import STAR, TOP, CliqueClass, FVector
from partition_complex.partitions import ADDABLE, REMOVABLE, Corner
from partition_complex.verification import (
    FAIL,
    PASS,
    SUITE_ORDER,
    NContext,
    run_suite,
    run_verification,
)


def test_suite_exception_becomes_fail_outcome(monkeypatch):
    def broken(ctx):
        raise KeyError("missing")

    monkeypatch.setitem(verification._SUITE_FUNCS, "facets", broken)
    outcomes = run_verification(3, SUITE_ORDER)
    assert [(o.suite, o.n) for o in outcomes] == [
        (suite, n) for n in range(1, 4) for suite in SUITE_ORDER]
    for outcome in outcomes:
        if outcome.suite == "facets":
            assert outcome.status == FAIL
            assert outcome.counterexample == {"error": "'missing'", "type": "KeyError"}
        else:
            assert outcome.status != FAIL


@pytest.mark.parametrize("route, function", [
    ("fiber", "fvector_by_fiber_counting"),
    ("corner", "fvector_by_corner_counting"),
])
def test_euler_fail_names_the_disagreeing_route(monkeypatch, route, function):
    assert run_suite("euler", NContext(6)).status == PASS
    monkeypatch.setattr(verification, function, lambda _: FVector((11, 17, 6)))
    outcome = run_suite("euler", NContext(6))
    assert outcome.status == FAIL
    assert outcome.counterexample == {
        "route": route, "counted": [11, 17, 7], route: [11, 17, 6]}


@pytest.mark.parametrize("target, replacement, claim", [
    ("classify_clique",
     lambda g, clique: CliqueClass(STAR, (2, 1, 1), Corner(1, 2, REMOVABLE)),
     {"claim": "witness base must be the lowest vertex"}),
    ("classify_clique",
     lambda g, clique: CliqueClass(TOP, (3, 1), Corner(3, 1, ADDABLE)),
     {"kind": TOP, "claim": "members must lie in the witness fiber"}),
    ("edge_decompositions",
     lambda lam, mu: [(Corner(1, 3, REMOVABLE), Corner(2, 2, ADDABLE))],
     {"claim": "a clique of size >= 3 cannot be both star- and top-type"}),
])
def test_cliques_fail_names_the_clique(monkeypatch, target, replacement, claim):
    # n = 4 has one clique of size >= 3: the triangle [3,1] [2,2] [2,1,1].
    assert run_suite("cliques", NContext(4)).status == PASS
    monkeypatch.setattr(verification, target, replacement)
    outcome = run_suite("cliques", NContext(4))
    assert outcome.status == FAIL
    assert outcome.counterexample == {"clique": ["[3,1]", "[2,2]", "[2,1,1]"], **claim}
