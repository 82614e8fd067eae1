"""The verification runner: a suite that raises costs one fail record, not the run."""

from partition_complex import verification
from partition_complex.verification import FAIL, SUITE_ORDER, run_verification


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
