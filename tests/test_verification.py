"""The verification runner: a suite that raises costs one fail record, not the
run, and a failing suite names what disagreed."""

import dataclasses
import itertools
import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import partition_complex
from partition_complex import verification
from partition_complex.cliques import STAR, TOP, CliqueClass, FVector
from partition_complex.graph import build_graph
from partition_complex.homology import HomologyReport
from partition_complex.loops import random_closed_walk
from partition_complex.nerve import closure_ids
from partition_complex.partitions import ADDABLE, REMOVABLE, Corner, format_partition
from partition_complex.verification import (
    FAIL,
    PASS,
    SUITE_ORDER,
    VACUOUS,
    NContext,
    VerificationOutcome,
    homology_concentrated,
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


@pytest.mark.parametrize("name", SUITE_ORDER)
def test_run_suite_records_what_each_suite_reports(monkeypatch, name):
    witness = {"claim": f"{name} found a counterexample", "n": 3}

    def fails(ctx):
        raise verification._Counterexample(witness)

    def vacuous(ctx):
        raise verification._Vacuous(f"{name} has no instances")

    for suite, expected in (
            (fails, VerificationOutcome(name, 3, FAIL, counterexample=witness)),
            (vacuous, VerificationOutcome(name, 3, VACUOUS, detail=f"{name} has no instances")),
            (lambda ctx: "all good", VerificationOutcome(name, 3, PASS, detail="all good"))):
        monkeypatch.setitem(verification._SUITE_FUNCS, name, suite)
        assert verify_single_n(3, {name}, 0) == [expected]


def test_cover_suites_are_vacuous_on_an_empty_cover(monkeypatch):
    ran = []
    for name in SUITE_ORDER:
        monkeypatch.setitem(verification._SUITE_FUNCS, name,
                            lambda ctx, name=name: ran.append(name) or "ran")
    # n = 1: one vertex, no moves, so the cover is empty
    outcomes = verify_single_n(1, set(SUITE_ORDER), 0)
    cover_suites = ["cover", "nerve", "anchors", "poset", "closure"]
    assert [(o.suite, o.status, o.detail) for o in outcomes if o.status == VACUOUS] == [
        (name, VACUOUS, "empty cover") for name in cover_suites]
    assert ran == [name for name in SUITE_ORDER if name not in cover_suites]


def test_verify_single_n_calls_run_suite_through_the_module(monkeypatch):
    # perfbench's per-suite spans wrap the module attribute run_suite
    real = verification.run_suite
    calls = []

    def recorder(name, ctx):
        calls.append(name)
        return real(name, ctx)

    monkeypatch.setattr(verification, "run_suite", recorder)
    outcomes = verify_single_n(3, set(SUITE_ORDER), 0)
    assert calls == list(SUITE_ORDER)
    assert [o.suite for o in outcomes] == list(SUITE_ORDER)


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


def test_loops_suite_reduces_each_distinct_walk_once(monkeypatch):
    # The walks the suite draws at n = 8, seed 11, redrawn from its generator.
    graph = build_graph(8)
    rng = random.Random(11 * 1_000_003 + 8)
    walks = [random_closed_walk(graph, rng) for _ in range(verification.WALKS_PER_N)]
    distinct = {walk.ids for walk in walks}
    assert len(distinct) < len(walks)
    reduced = []
    reduce_loop = verification.reduce_loop

    def counting(loop):
        reduced.append(loop.ids)
        return reduce_loop(loop)

    monkeypatch.setattr(verification, "reduce_loop", counting)
    [outcome] = verify_single_n(8, {"loops"}, seed=11)
    assert len(reduced) == len(distinct)
    assert set(reduced) == distinct
    # The detail counts the steps of every walk, each one reduced here anew.
    total = sum(len(reduce_loop(walk).steps) for walk in walks)
    assert outcome.detail == f"1000 walks, {total} steps"


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


def _monotone_mutant_outcome():
    """The closure suite's status and witness at n = 11 under a closure that
    drops one vertex from one clique's closure, and the witness expected.

    The clique is the first that is not closed, whose closure has one vertex
    more, and which has a proper subset with the same closure.  Made to
    look closed, it still contains itself, is idempotent and keeps its
    member intersection, so only monotonicity can catch it: the first of its
    subsets whose closure holds the dropped vertex.
    """
    ctx = NContext(11)
    real = verification.closure_ids
    for clique in ctx.all_cliques:
        closed = real(ctx.nerve, clique)
        subsets = [sub for size in range(1, len(clique))
                   for sub in itertools.combinations(clique, size)]
        if (len(closed) == len(clique) + 1
                and any(real(ctx.nerve, sub) == closed for sub in subsets)):
            break
    else:
        raise LookupError("no clique to mutate at n = 11")
    (dropped,) = set(closed) - set(clique)
    subset = next(sub for sub in subsets if dropped in real(ctx.nerve, sub))
    expected = {"clique": [format_partition(ctx.graph.vertices[v]) for v in clique],
                "subset": [format_partition(ctx.graph.vertices[v]) for v in subset],
                "claim": "closure must be monotone"}

    def mutant(nerve, vertex_ids):
        closed = real(nerve, vertex_ids)
        return tuple(v for v in closed if v != dropped) if tuple(vertex_ids) == clique else closed

    verification.closure_ids = mutant
    try:
        outcome = run_suite("closure", ctx)
    finally:
        verification.closure_ids = real
    return outcome.status, outcome.counterexample, expected


def test_closure_that_drops_a_vertex_fails_monotonicity():
    assert run_suite("closure", NContext(11)).status == PASS
    status, witness, expected = _monotone_mutant_outcome()
    assert (status, witness) == (FAIL, expected)


def test_closure_that_drops_a_vertex_fails_monotonicity_without_asserts():
    # Under -O every assert is stripped, so the suite must raise on its own.
    script = ("import json, runpy, sys; ns = runpy.run_path(sys.argv[1]); "
              "print(json.dumps([sys.flags.optimize, ns['_monotone_mutant_outcome']()]))")
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(partition_complex.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-O", "-c", script, __file__],
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    optimize, (status, witness, expected) = json.loads(result.stdout)
    assert optimize == 1
    assert (status, witness) == (FAIL, expected)


def test_anchors_fail_names_the_first_vertex_and_member_that_disagree():
    ctx = NContext(6)
    assert run_suite("anchors", ctx).status == PASS
    member_sets = ctx.nerve.member_sets
    anchors = list(ctx.nerve.anchor_sets)
    # vertex 4 loses its largest member and gains the first member it lacks,
    # and vertex 6 gains or loses member 0
    stranger = min(set(range(len(member_sets))) - anchors[4])
    anchors[4] = anchors[4] - {max(anchors[4])} | {stranger}
    anchors[6] = anchors[6] ^ {0}
    ctx.nerve = dataclasses.replace(ctx.nerve, anchor_sets=tuple(anchors))
    # the pair a scan of every (vertex, member) in order finds first
    vertex, member = next(
        (vid, mid) for vid in range(len(anchors)) for mid in range(len(member_sets))
        if (mid in anchors[vid]) != (vid in member_sets[mid]))
    outcome = run_suite("anchors", ctx)
    assert outcome.status == FAIL
    assert outcome.counterexample == {
        "vertex": format_partition(ctx.graph.vertices[vertex]), "member": member,
        "claim": "anchor membership must mirror containment"}


# Hand-built reports: (f-vector, unreduced Betti numbers, torsion by degree).
# Only the Betti numbers and torsion decide concentration.
CONCENTRATED = {
    "point": HomologyReport((1,), (1,), ((),)),
    "wedge of two 2-spheres": HomologyReport((11, 17, 9), (1, 0, 2), ((), (), ())),
}
DEVIANT = {
    "two components": HomologyReport((6, 6, 2), (2, 0, 1), ((), (), ())),
    "a loop": HomologyReport((11, 17, 7), (1, 1, 2), ((), (), ())),
    "a 3-sphere": HomologyReport((5, 10, 10, 5), (1, 0, 1, 1), ((), (), (), ())),
    "torsion in degree 1": HomologyReport((9, 20, 13), (1, 0, 2), ((), (2,), ())),
}


@pytest.mark.parametrize("name", sorted(CONCENTRATED))
def test_concentrated_reports_are_accepted(name):
    assert homology_concentrated(CONCENTRATED[name])


@pytest.mark.parametrize("name", sorted(DEVIANT))
def test_deviant_reports_are_refused(name):
    assert not homology_concentrated(DEVIANT[name])


@pytest.mark.parametrize("name", sorted(DEVIANT))
def test_homology_fail_carries_the_deviant_report(monkeypatch, name):
    assert run_suite("homology", NContext(6)).status == PASS
    monkeypatch.setattr(verification, "reduced_homology", lambda cplx: DEVIANT[name])
    outcome = run_suite("homology", NContext(6))
    assert outcome.status == FAIL
    assert outcome.counterexample == DEVIANT[name].to_json_dict()
