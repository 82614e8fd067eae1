"""The verification runner: a suite that raises costs one fail record, not the
run, and a failing suite names what disagreed."""

import pytest

from partition_complex import verification
from partition_complex.cliques import FVector
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
