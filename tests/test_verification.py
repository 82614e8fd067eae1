"""The verification runner: a suite that raises costs one fail record, not the
run, and a failing suite names what disagreed."""

import copy
import dataclasses
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_complex import verification
from partition_complex.cliques import STAR, TOP, CliqueClass, FVector
from partition_complex.graph import build_graph
from partition_complex.homology import HomologyReport
from partition_complex.loops import format_loop, normalize_ids, random_closed_walk
from partition_complex.nerve import IntersectionPoset, closure_ids
from partition_complex.partitions import Corner, format_partition
from partition_complex.verification import (
    FAIL,
    PASS,
    SUITE_ORDER,
    VACUOUS,
    NContext,
    VerificationOutcome,
    homology_concentrated,
    run_suite,
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
    outcomes = [outcome for n in range(1, 4)
                for outcome in verify_single_n(n, set(SUITE_ORDER), None)]
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
     lambda g, clique: CliqueClass(STAR, g.vertex_id((2, 1, 1)), Corner(1, 2)),
     {"claim": "witness base must be the lowest vertex"}),
    ("classify_clique",
     lambda g, clique: CliqueClass(TOP, g.vertex_id((3, 1)), Corner(3, 1)),
     {"kind": TOP, "claim": "members must lie in the witness fiber"}),
    ("moves",
     (Corner(1, 3), Corner(2, 2)),
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


# Planted faults: each suite, run on a fresh NContext with one fault planted
# in a graph copy or a stage, fails with its own witness, not the
# {"error", "type"} record of a suite that crashed.


def test_triangles_fail_names_a_path_classified_closed_without_its_edge():
    # n = 4: [3,1] reaches [2,2] and [2,1,1] with one removable corner, the
    # star triangle [3,1] [2,2] [2,1,1]; the graph below loses its third edge.
    ctx = NContext(4)
    assert run_suite("triangles", ctx).status == PASS
    g = ctx.graph
    u, v = g.index[(2, 2)], g.index[(2, 1, 1)]
    doctored = copy.copy(g)
    doctored.moves = tuple(
        {w: move for w, move in moves.items() if {x, w} != {u, v}}
        for x, moves in enumerate(g.moves))
    ctx.graph = doctored
    outcome = run_suite("triangles", ctx)
    assert outcome.status == FAIL
    assert outcome.counterexample == {
        "lam": "[3,1]", "mu1": "[2,2]", "mu2": "[2,1,1]",
        "classified": STAR, "edge_present": False}


def test_cliques_fail_names_a_clique_that_shares_no_corner():
    # The star triangle [3,1] [2,2] [2,1,1] moves the corner (1, 3) of [3,1]
    # to (2, 2) and to (3, 1); the copy below moves (2, 1) to (1, 4) on the
    # second arm, so the two arms share neither corner.
    ctx = NContext(4)
    assert run_suite("cliques", ctx).status == PASS
    g = ctx.graph
    base = g.index[(3, 1)]
    doctored = copy.copy(g)
    doctored.moves = tuple(dict(moves) for moves in g.moves)
    doctored.moves[base][g.index[(2, 1, 1)]] = (Corner(2, 1), Corner(1, 4))
    ctx.graph = doctored
    outcome = run_suite("cliques", ctx)
    assert outcome.status == FAIL
    assert outcome.counterexample == {
        "clique": ["[3,1]", "[2,2]", "[2,1,1]"],
        "claim": "clique [(3, 1), (2, 2), (2, 1, 1)] shares no corner at (3, 1)"}


def test_closure_fail_names_a_clique_whose_closure_is_no_clique():
    # [4] lies in one member, the edge [4]-[3,1], so that edge is its
    # closure; the copy below drops [3,1] from the moves of [4] alone, so
    # closing the edge again finds no clique.
    ctx = NContext(4)
    assert run_suite("closure", ctx).status == PASS
    g = ctx.graph
    u, v = g.index[(4,)], g.index[(3, 1)]
    doctored = copy.copy(g)
    doctored.moves = tuple({w: move for w, move in moves.items() if (x, w) != (u, v)}
                           for x, moves in enumerate(g.moves))
    ctx = NContext(4)
    ctx.graph = doctored
    outcome = run_suite("closure", ctx)
    assert outcome.status == FAIL
    assert outcome.counterexample == {
        "clique": ["[4]"], "claim": "(4,) and (3, 1) are not adjacent"}


def test_facets_fail_names_the_extra_and_missing_facets():
    # n = 4 has the facets [4]-[3,1], the triangle [3,1] [2,2] [2,1,1] and
    # [2,1,1]-[1,1,1,1]; the stage below lists the triangle's edges instead.
    ctx = NContext(4)
    assert ctx.facets == [(0, 1), (1, 2, 3), (3, 4)]
    ctx.facets = [(0, 1), (1, 2), (2, 3), (3, 4)]
    outcome = run_suite("facets", ctx)
    assert outcome.status == FAIL
    assert outcome.counterexample == {"extra": [(1, 2), (2, 3)], "missing": [(1, 2, 3)]}


def test_cover_fail_names_a_provenance_that_does_not_rebuild_its_member():
    # The first member, the edge [4]-[3,1], is the full star simplex at [4]
    # of its corner (1, 4); read as a top simplex, that corner is no addable
    # corner of [4], so the rebuilt set is [4] alone.
    ctx = NContext(4)
    assert run_suite("cover", ctx).status == PASS
    member = ctx.cover[0]
    kind, base, corner = member.provenances[0]
    assert (member.vertices, kind, base, corner) == ((0, 1), STAR, 0, Corner(1, 4))
    ctx.cover[0] = dataclasses.replace(
        member, provenances=((TOP, base, corner),) + member.provenances[1:])
    outcome = run_suite("cover", ctx)
    assert outcome.status == FAIL
    assert outcome.counterexample == {
        "member": [0, 1], "kind": TOP, "base": "[4]",
        "claim": "provenance must rebuild the member"}


def test_poset_fail_names_a_chain_longer_than_two():
    # An order that puts every element below the next one: its longest
    # chain runs through all of them.
    ctx = NContext(6)
    assert run_suite("poset", ctx).status == PASS
    size = len(ctx.poset.elements)
    ctx.poset.__dict__["above"] = tuple((i + 1,) for i in range(size - 1)) + ((),)
    outcome = run_suite("poset", ctx)
    assert outcome.status == FAIL
    assert outcome.counterexample == {"max_chain_length": size - 1}


def test_poset_fail_names_the_element_counts_that_disagree():
    # A poset that lacks its last element: the all-cliques definition
    # has one element more.
    ctx = NContext(6)
    assert run_suite("poset", ctx).status == PASS
    elements = ctx.poset.elements
    ctx.__dict__["poset"] = IntersectionPoset(elements[:-1])
    outcome = run_suite("poset", ctx)
    assert outcome.status == FAIL
    assert outcome.counterexample == {
        "poset": len(elements) - 1, "all_cliques": len(elements)}


def _nerve_with_anchors(ctx, vertex, anchor):
    """ctx's nerve with the anchor of one vertex replaced."""
    anchors = list(ctx.nerve.anchor_sets)
    anchors[vertex] = anchor
    return dataclasses.replace(ctx.nerve, anchor_sets=tuple(anchors))


def _plant_empty_anchor(ctx):
    # the anchor of [4,1,1] is emptied, so the clique [4,1,1] meets no member
    vertex = ctx.graph.index[(4, 1, 1)]
    ctx.__dict__["nerve"] = _nerve_with_anchors(ctx, vertex, frozenset())
    return {"clique": ["[4,1,1]"], "claim": "cliques must have nonempty member intersection"}


def _plant_stray_pair(ctx):
    # the anchor of [6] holds every member, so [6] shares one with each
    # non-neighbour; the first of them makes the smallest stray pair
    g = ctx.graph
    ctx.__dict__["nerve"] = _nerve_with_anchors(ctx, 0, frozenset(range(len(ctx.cover))))
    stray = next(v for v in range(1, len(g.vertices)) if v not in g.moves[0])
    return {"pair": [format_partition(g.vertices[v]) for v in (0, stray)],
            "claim": "non-edges must have empty member intersection"}


def _plant_inverted_fvector(ctx):
    counts = list(ctx.nerve_fvector.counts)
    ctx.__dict__["nerve_fvector"] = FVector(tuple(counts[:-1]) + (counts[-1] + 1,))
    return {"inverted": counts[:-1] + [counts[-1] + 1], "brute": counts}


def _plant_complex_fvector(ctx):
    f0, f1, f2 = ctx.fvector.counts
    ctx.__dict__["fvector"] = FVector((f0, f1, f2 + 1))
    chi = ctx.nerve_fvector.euler_characteristic
    return {"nerve_chi": chi, "complex_chi": chi + 1}


@pytest.mark.parametrize("plant", [
    _plant_empty_anchor, _plant_stray_pair, _plant_inverted_fvector, _plant_complex_fvector])
def test_nerve_fail_names_each_witness(plant):
    ctx = NContext(6)
    assert run_suite("nerve", ctx).status == PASS
    ctx = NContext(6)
    witness = plant(ctx)
    outcome = run_suite("nerve", ctx)
    assert outcome.status == FAIL
    assert outcome.counterexample == witness


def test_heights_fail_names_a_transfer_whose_height_change_is_off():
    # [4] -> [3,1] moves the cell (1, 4) to (2, 1): one row down, so the
    # height rises by one; the copy below lowers the height of [4] by one.
    ctx = NContext(4)
    assert run_suite("heights", ctx).status == PASS
    doctored = copy.copy(ctx.graph)
    doctored.heights = (ctx.graph.heights[0] - 1,) + ctx.graph.heights[1:]
    ctx.graph = doctored
    outcome = run_suite("heights", ctx)
    assert outcome.status == FAIL
    assert outcome.counterexample == {
        "lam": "[4]", "mu": "[3,1]", "from_row": 1, "to_row": 2,
        "claim": "height change must equal the row difference"}


def test_loops_fail_names_the_walk_whose_reduction_raised():
    # With every height equal, the first walk that is more than a spur has
    # a peak whose neighbours are as high as it, and reduce_loop refuses it.
    ctx = NContext(5, seed=11)
    assert run_suite("loops", ctx).status == PASS
    doctored = copy.copy(ctx.graph)
    doctored.heights = (0,) * len(doctored.vertices)
    ctx.graph = doctored
    # The walks depend on the adjacency alone, so they are the suite's.
    rng = random.Random(11 * 1_000_003 + 5)
    walk = next(walk for walk in iter(lambda: random_closed_walk(doctored, rng), None)
                if len(normalize_ids(walk.ids)) > 1)
    peak = doctored.vertices[normalize_ids(walk.ids)[0]]
    outcome = run_suite("loops", ctx)
    assert outcome.status == FAIL
    assert outcome.counterexample == {
        "loop": format_loop(walk),
        "error": f"peak {peak} has a neighbour of height >= 0"}


def test_homology_fail_names_the_face_counts_that_disagree():
    ctx = NContext(6)
    assert run_suite("homology", ctx).status == PASS
    counts = ctx.fvector.counts
    ctx.fvector = FVector(counts[:-1] + (counts[-1] + 1,))
    outcome = run_suite("homology", ctx)
    assert outcome.status == FAIL
    assert outcome.counterexample == {
        "chain_faces": list(counts), "counted": list(counts[:-1]) + [counts[-1] + 1]}
