"""The verification runner: a suite that raises costs one fail record, not the
run, and a failing suite names what disagreed."""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_complex import verification
from partition_complex.cliques import STAR, TOP, CliqueClass, FVector
from partition_complex.nerve import closure_ids
from partition_complex.partitions import ADDABLE, REMOVABLE, Corner, format_partition
from partition_complex.verification import (
    FAIL,
    PASS,
    SUITE_ORDER,
    NContext,
    run_suite,
    run_verification,
    verify_single_n,
)


def test_unknown_suite_names_are_refused_at_one_n():
    with pytest.raises(ValueError, match="bogus"):
        verify_single_n(3, {"bogus"}, None)
    with pytest.raises(ValueError, match="bogus"):
        verify_single_n(3, {"bogus", "euler"}, None)


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
    ("dp", "fvector_table"),
])
def test_euler_fail_names_the_disagreeing_route(monkeypatch, route, function):
    assert run_suite("euler", NContext(6)).status == PASS
    wrong = FVector((11, 17, 6))
    # fvector_table returns the rows up to n; the suite reads the last.
    fake = (lambda _: [wrong]) if function == "fvector_table" else (lambda _: wrong)
    monkeypatch.setattr(verification, function, fake)
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
    ("moves",
     (Corner(1, 3, REMOVABLE), Corner(2, 2, ADDABLE)),
     {"claim": "a clique of size >= 3 cannot be both star- and top-type"}),
])
def test_cliques_fail_names_the_clique(monkeypatch, target, replacement, claim):
    # n = 4 has one clique of size >= 3: the triangle [3,1] [2,2] [2,1,1].
    assert run_suite("cliques", NContext(4)).status == PASS
    ctx = NContext(4)
    if target == "moves":
        # Both edges from the lowest vertex [3,1] get the same (c, a), so
        # they share a removable and an addable corner at once.
        g = ctx.graph
        base = g.index[(3, 1)]
        for mu in ((2, 2), (2, 1, 1)):
            g.moves[base][g.index[mu]] = replacement
    else:
        monkeypatch.setattr(verification, target, replacement)
    outcome = run_suite("cliques", ctx)
    assert outcome.status == FAIL
    assert outcome.counterexample == {"clique": ["[3,1]", "[2,2]", "[2,1,1]"], **claim}


@st.composite
def member_families(draw):
    """Up to 10 members over the points 0..7, with repeated and nested
    members added on purpose; disjoint and empty ones arise on their own."""
    members = draw(st.lists(st.frozensets(st.integers(0, 7)), min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 4))):
        base = draw(st.sampled_from(members))
        if draw(st.booleans()):
            members.append(base)
        else:
            members.append(frozenset(draw(st.sets(st.sampled_from(sorted(base)))))
                           if base else base)
    return draw(st.permutations(members))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(member_families())
def test_subfamily_count_matches_the_power_set(members):
    counts = [0] * len(members)
    for size in range(1, len(members) + 1):
        for family in itertools.combinations(members, size):
            if frozenset.intersection(*family):
                counts[size - 1] += 1
    while counts and counts[-1] == 0:
        counts.pop()
    assert verification._count_intersecting_subfamilies(members) == tuple(counts)


def test_nerve_fail_names_the_smallest_non_edge_in_a_member():
    ctx = verification.NContext(6)
    assert run_suite("nerve", ctx).status == PASS
    g = ctx.graph
    # widen a member by vertex 0, which misses at least two of its vertices,
    # so that several non-edges share a member
    index, member = next(
        (i, m) for i, m in enumerate(ctx.cover)
        if sum(0 not in g.moves[u] for u in m.vertices) >= 2)
    widened = dataclasses.replace(member, vertices=(0,) + member.vertices)
    ctx = verification.NContext(6)
    ctx.cover[index] = widened
    # the pair an all-pairs scan over non-edges finds first
    expected = next(
        (u, v) for u, v in itertools.combinations(range(len(g.vertices)), 2)
        if v not in g.moves[u]
        and any({u, v} <= set(m.vertices) for m in ctx.cover))
    outcome = run_suite("nerve", ctx)
    assert outcome.status == FAIL
    assert outcome.counterexample == {
        "pair": [format_partition(g.vertices[v]) for v in expected],
        "claim": "non-edges must have empty member intersection"}


def test_closure_fail_names_the_pair_the_ordered_scan_finds_first(monkeypatch):
    ctx = verification.NContext(7)
    assert run_suite("closure", ctx).status == PASS
    real = verification.anchor_intersection_ids
    elements = ctx.poset.elements
    # swapping a smallest and a largest poset element keeps every earlier
    # closure check intact (same map on every clique, still onto the poset)
    # but breaks the order reversal
    swap = {frozenset(elements[0]): frozenset(elements[-1]),
            frozenset(elements[-1]): frozenset(elements[0])}

    def permuted(nerve, vertex_ids):
        common = real(nerve, vertex_ids)
        return swap.get(common, common)

    monkeypatch.setattr(verification, "anchor_intersection_ids", permuted)
    fixed = sorted({closure_ids(ctx.nerve, clique) for clique in ctx.all_cliques})
    anchors = [permuted(ctx.nerve, closed) for closed in fixed]
    first, second = next(
        (fixed[i], fixed[j]) for i, j in itertools.permutations(range(len(fixed)), 2)
        if (set(fixed[i]) <= set(fixed[j])) != (anchors[j] <= anchors[i]))
    outcome = run_suite("closure", ctx)
    assert outcome.status == FAIL
    assert outcome.counterexample == {
        "first": list(first), "second": list(second),
        "claim": "inclusion of closed cliques reverses on intersections"}
