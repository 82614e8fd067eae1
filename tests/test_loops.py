"""Edge loops, (H, M) complexity, and peak reduction to constant loops."""

import copy
import enum
import hashlib
import itertools
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from partition_complex import loops
from partition_complex.graph import build_graph
from partition_complex.loops import (
    EdgeLoop,
    InvalidLoopError,
    _replace_peak,
    format_loop,
    normalize_ids,
    parse_loop,
    random_closed_walk,
    reduce_loop,
)
from partition_complex.partitions import Corner
from partition_complex.verification import verify_single_n

G4 = build_graph(4)


def loop4(text):
    return parse_loop(G4, text)


def complexity(loop):
    """(max height, number of ids at it), the order reduce_loop descends in."""
    heights = loop.heights()
    return max(heights), heights.count(max(heights))


def test_parse_strips_the_closing_vertex():
    loop = loop4("[4] [3,1] [4]")
    assert len(loop) == 2
    assert loop.ids == (G4.vertex_id((4,)), G4.vertex_id((3, 1)))


def test_parse_constant():
    loop = loop4("[4]")
    assert loop.is_constant
    assert len(loop) == 1


def test_format_loop_closes_the_cycle():
    assert format_loop(loop4("[4] [3,1] [4]")) == "[4] [3,1] [4]"
    assert format_loop(loop4("[4]")) == "[4]"
    assert format_loop(loop4("[3,1] [2,2] [2,1,1] [3,1]")) == "[3,1] [2,2] [2,1,1] [3,1]"


def test_parse_rejects_non_adjacent_steps():
    with pytest.raises(InvalidLoopError):
        loop4("[4] [2,2] [4]")
    # The wrap-around pair must also be an edge.
    with pytest.raises(InvalidLoopError):
        loop4("[4] [3,1] [2,2]")


def test_parse_rejects_blank_text():
    with pytest.raises(InvalidLoopError, match="^empty loop text$"):
        parse_loop(G4, "  \n\t")


def test_loop_ids_validated():
    with pytest.raises(InvalidLoopError):
        EdgeLoop(G4, [0, 99])
    with pytest.raises(InvalidLoopError):
        EdgeLoop(G4, [])


class Vertex(enum.IntEnum):
    A = 0


@pytest.mark.parametrize("ids, bad", [
    ([0.0, 1], "0.0"),
    ([0, 1.5], "1.5"),
    (["0", 1], "'0'"),
    ([True, False], "True"),
    # the closing repeat is checked too: True == 1 must not strip it
    ([1, True], "True"),
    # an int subclass equal to 0 is no vertex id, as in classify_clique
    ([Vertex.A, 1], "<Vertex.A: 0>"),
])
def test_loop_ids_must_be_ints(ids, bad):
    with pytest.raises(InvalidLoopError, match=f"vertex id {bad} is not an int"):
        EdgeLoop(G4, ids)


def test_complexity():
    assert complexity(loop4("[4]")) == (4, 1)
    assert complexity(loop4("[4] [3,1] [4]")) == (5, 1)
    # Heights along the triangle are 5, 6, 7: a single peak at height 7.
    assert complexity(loop4("[3,1] [2,2] [2,1,1] [3,1]")) == (7, 1)


def test_complexity_of_constant_counts_length():
    constant = EdgeLoop(G4, [G4.vertex_id((2, 2))])
    assert complexity(constant) == (6, 1)


def test_complexity_orders_lexicographically():
    # reduce_loop accepts a peak step that lowers the max height while
    # raising the peak count, and one that keeps the height and lowers the
    # count: only the lexicographic order descends through both.
    g = build_graph(8)
    rng = random.Random(11)
    lower_top_more_peaks = same_top_fewer_peaks = 0
    for _ in range(200):
        trace = reduce_loop(random_closed_walk(g, rng))
        previous = complexity(trace.initial)
        for rule, loop in trace.steps:
            current = complexity(loop)
            if rule != "normalize":
                lower_top_more_peaks += current[0] < previous[0] and current[1] > previous[1]
                same_top_fewer_peaks += current[0] == previous[0] and current[1] < previous[1]
            previous = current
    assert lower_top_more_peaks > 0
    assert same_top_fewer_peaks > 0


def test_normalize_removes_spurs():
    # (3,1) [4] (3,1) (2,2): the [4] excursion backtracks immediately.
    loop = loop4("[3,1] [4] [3,1] [2,2] [3,1]")
    normalized = normalize_ids(loop.ids)
    assert [G4.vertices[v] for v in normalized] == [(3, 1), (2, 2)]


def test_two_cycle_reduces_by_one_shortcut():
    trace = reduce_loop(loop4("[4] [3,1] [4]"))
    assert len(trace.steps) <= 2
    assert trace.final.is_constant
    assert format_loop(trace.final) == "[4]"


def test_constant_trace_has_length_one():
    trace = reduce_loop(loop4("[4]"))
    assert trace.steps == ()
    assert trace.final is trace.initial


def test_triangle_loop_reduces_to_its_lowest_vertex():
    trace = reduce_loop(loop4("[3,1] [2,2] [2,1,1] [3,1]"))
    assert trace.final.is_constant
    assert format_loop(trace.final) == "[3,1]"
    rules = [rule for rule, _ in trace.steps]
    assert all(rule in ("shortcut", "detour", "normalize") for rule in rules)


def test_each_step_descends():
    g = build_graph(8)
    rng = random.Random(11)
    for _ in range(200):
        walk = random_closed_walk(g, rng)
        trace = reduce_loop(walk)
        assert trace.final.is_constant
        previous = (complexity(trace.initial), len(trace.initial))
        for _, loop in trace.steps:
            current = (complexity(loop), len(loop))
            assert current < previous
            previous = current


def _has_repeat(ids):
    return len(ids) >= 2 and any(ids[i - 1] == ids[i] for i in range(len(ids)))


def _has_spur(ids):
    return len(ids) >= 3 and any(
        ids[i - 1] == ids[(i + 1) % len(ids)] for i in range(len(ids)))


def test_only_the_input_is_normalized():
    # normalize_ids runs to a fixpoint, so once the input is normalized every
    # later state already is: "normalize" can only be the first rule.  No
    # state has equal consecutive ids, so normalizing only ever cuts spurs.
    g = build_graph(8)
    rng = random.Random(11)
    for _ in range(200):
        trace = reduce_loop(random_closed_walk(g, rng))
        rules = [rule for rule, _ in trace.steps]
        assert "normalize" not in rules[1:]
        assert not _has_repeat(trace.initial.ids)
        for _, loop in trace.steps:
            assert not _has_repeat(loop.ids)
            assert normalize_ids(loop.ids) == list(loop.ids)


@st.composite
def repeat_free_cycles(draw, max_size=10):
    # Each id differs from the one before by a nonzero step mod labels, so
    # only the wrap-around pair can repeat.
    labels = draw(st.integers(min_value=2, max_value=5))
    steps = draw(st.lists(st.integers(min_value=1, max_value=labels - 1),
                          max_size=max_size - 1))
    ids = list(itertools.accumulate(steps, lambda vid, step: (vid + step) % labels,
                                    initial=0))
    assume(not _has_repeat(ids))
    return ids


@settings(max_examples=300, deadline=None)
@given(repeat_free_cycles())
def test_normalize_cuts_every_spur_and_keeps_repeats_out(ids):
    out = normalize_ids(ids)
    assert not _has_repeat(out)
    assert not _has_spur(out)
    assert normalize_ids(out) == out


def normalize_ids_whole_list(ids):
    """The whole-list normalize_ids that rescanned from index 0 after every
    cut, kept verbatim as the reference for the resuming scan."""
    out = list(ids)
    while len(out) >= 3:
        size = len(out)
        centre = next((i for i in range(size) if out[i - 1] == out[(i + 1) % size]), None)
        if centre is None:
            break
        for k in sorted((centre, (centre + 1) % size), reverse=True):
            del out[k]
    return out


@settings(max_examples=500, deadline=None)
@given(repeat_free_cycles(max_size=14))
@example([])
def test_normalize_matches_the_whole_list_rescan(ids):
    assert normalize_ids(ids) == normalize_ids_whole_list(ids)


def seeded_trace_digest(ns):
    """sha256 of every walk and every (rule, ids) state of its trace, for
    200 walks of seed 11 at each n."""
    digest = hashlib.sha256()
    for n in ns:
        g = build_graph(n)
        rng = random.Random(11)
        for _ in range(200):
            walk = random_closed_walk(g, rng)
            digest.update(repr(walk.ids).encode())
            for rule, loop in reduce_loop(walk).steps:
                digest.update(f"{rule}:{loop.ids!r};".encode())
            digest.update(b"|")
    return digest.hexdigest()


def test_seeded_traces_are_unchanged():
    # Recorded from the reducer that re-validated and re-normalized each
    # whole state.
    assert seeded_trace_digest(range(2, 11)) == (
        "11e182c4307def04e42bd47e341f60c130198504414886ad61eb1dd7dada7191")


def test_seeded_traces_are_unchanged_up_to_the_verify_reach():
    # n = 11..14, the rest of what `verify --max-n 14` reduces; recorded
    # from walks drawn with randrange and choice.
    assert seeded_trace_digest(range(11, 15)) == (
        "c4ba830b1b86fe2798b0d3706853bb164fadb88602ec081f21573825251ba7d7")


def reference_walk(graph, rng):
    """random_closed_walk written with rng.randrange and rng.choice only."""
    for _ in range(10000):
        start = rng.randrange(len(graph.vertices))
        if not graph.adjacency[start]:
            continue
        walk = [start]
        position = start
        for _ in range(loops.WALK_MAX_LEN):
            position = rng.choice(graph.adjacency[position])
            if position == start:
                return tuple(walk)
            walk.append(position)
    raise RuntimeError("no walk returned")


def test_walks_draw_what_randrange_and_choice_draw():
    # Equal generator states after every walk: no later draw can drift.
    for n in range(2, 15):
        g = build_graph(n)
        for seed in (0, 1, 11, 31):
            rng, reference_rng = random.Random(seed), random.Random(seed)
            for _ in range(200):
                assert random_closed_walk(g, rng).ids == reference_walk(g, reference_rng)
                assert rng.getstate() == reference_rng.getstate()


# Its first peak [3,2,1] sits between [4,1,1] and [3,3], which are not adjacent.
MUTATION_LOOP = "[3,3] [4,2] [4,1,1] [3,2,1] [3,3]"


def _detour_off_before(graph, ids, peak):
    """Replace the peak by a lower vertex that is not adjacent to the one before it."""
    before_id = ids[peak - 1]
    top = graph.heights[ids[peak]]
    ids[peak] = next(v for v in range(len(graph.vertices))
                     if graph.heights[v] < top and v != before_id
                     and v not in graph.moves[before_id])
    return "detour"


def _shortcut_without_edge(graph, ids, peak):
    """Delete the peak whatever its neighbours."""
    del ids[peak]
    return "shortcut"


def _no_descent(graph, ids, peak):
    """Claim a detour but leave the loop as it is."""
    return "detour"


MUTANTS = {
    "detour_off_before": _detour_off_before,
    "shortcut_without_edge": _shortcut_without_edge,
    "no_descent": _no_descent,
}


def _mutant_outcomes():
    """For each mutant _replace_peak, the name of the exception that reducing
    MUTATION_LOOP raised, or None."""
    loop = parse_loop(build_graph(6), MUTATION_LOOP)
    real = loops._replace_peak
    outcomes = {}
    try:
        for name, mutant in MUTANTS.items():
            loops._replace_peak = mutant
            try:
                reduce_loop(loop)
            except Exception as exc:
                outcomes[name] = type(exc).__name__
            else:
                outcomes[name] = None
    finally:
        loops._replace_peak = real
    return outcomes


def test_mutant_rewrites_are_caught_where_they_happen():
    assert reduce_loop(parse_loop(build_graph(6), MUTATION_LOOP)).final.is_constant
    assert _mutant_outcomes() == {name: "TheoremViolationError" for name in MUTANTS}


# A detour fragment of MUTATION_LOOP: the peak [3,2,1] (height 10) sits
# between [4,1,1] and [3,3] (height 9); its moves to them share no corner,
# and the detour vertex is [4,2].
DETOUR_FRAGMENT = ((4, 1, 1), (3, 2, 1), (3, 3))
# MUTATION_LOOP started at the fragment's first vertex, so that its first
# highest vertex stays the fragment's peak when a doctored height ties it.
DETOUR_LOOP = "[4,1,1] [3,2,1] [3,3] [4,2] [4,1,1]"


def _replaced(items, index, value):
    """A tuple of items with items[index] replaced by value."""
    return tuple(value if i == index else item for i, item in enumerate(items))


def _doctored_graphs():
    """For each check of _replace_peak, and for the rewrite-site check that
    reduce_loop makes on the edge after the new vertex, a copy of
    build_graph(6) doctored so that the DETOUR_FRAGMENT rewrite fails
    exactly that check, and the message it must raise."""
    g = build_graph(6)
    before, peak, after = (g.vertex_id(lam) for lam in DETOUR_FRAGMENT)
    detour = g.vertex_id((4, 2))
    top = g.heights[peak]
    corner_before = g.moves[peak][before][0]
    _, add_after = g.moves[peak][after]
    same_row = Corner(corner_before.row, corner_before.col - 1)
    changes = {
        "neighbour_not_lower": (
            {"heights": _replaced(g.heights, after, top)},
            "peak (3, 2, 1) has a neighbour of height >= 10"),
        "corners_share_a_row": (
            {"moves": _replaced(g.moves, peak, {**g.moves[peak], after: (same_row, add_after)})},
            "distinct removable corners Corner(row=2, col=2) and "
            "Corner(row=2, col=1) share a row"),
        "no_detour_vertex": (
            {"top": _replaced(g.top, peak, {corner: () for corner in g.top[peak]})},
            "detour transfer Corner(row=3, col=1)->Corner(row=1, col=4) from "
            "(3, 2, 1) is inadmissible"),
        "detour_not_lower": (
            {"heights": _replaced(g.heights, detour, top)},
            "detour vertex (4, 2) is not lower than the peak (3, 2, 1)"),
        "detour_not_adjacent": (
            {"moves": _replaced(g.moves, detour, {
                v: move for v, move in g.moves[detour].items() if v != peak})},
            "detour triangle: (4, 2) and (3, 2, 1) are not adjacent"),
        # The detour keeps the peak and the previous vertex, so the loop
        # still parses and _replace_peak succeeds; only the edge from the
        # detour to the next vertex is missing.
        "detour_not_adjacent_to_next": (
            {"moves": _replaced(g.moves, detour, {
                v: move for v, move in g.moves[detour].items() if v != after})},
            "detour: (4, 2) and (3, 3) are not adjacent"),
    }
    for name, (attributes, message) in changes.items():
        doctored = copy.copy(g)
        for attribute, value in attributes.items():
            setattr(doctored, attribute, value)
        yield name, doctored, message


def _doctored_outcomes():
    """For each doctored graph, the exception reduce_loop raised on
    DETOUR_LOOP, whose first rewrite is the DETOUR_FRAGMENT peak, as [type
    name, whether the message is the one its check raises], or None."""
    outcomes = {}
    for name, graph, message in _doctored_graphs():
        try:
            reduce_loop(parse_loop(graph, DETOUR_LOOP))
        except Exception as exc:
            outcomes[name] = [type(exc).__name__, str(exc) == message]
        else:
            outcomes[name] = None
    return outcomes


def test_detour_fragment_rewrites_on_the_real_graph():
    g = build_graph(6)
    ids = [g.vertex_id(lam) for lam in DETOUR_FRAGMENT]
    assert _replace_peak(g, ids, 1) == "detour"
    assert g.vertices[ids[1]] == (4, 2)


def test_replace_peak_checks_raise_on_doctored_graphs():
    expected = {name: ["TheoremViolationError", True] for name, *_ in _doctored_graphs()}
    assert len(expected) == 6
    assert _doctored_outcomes() == expected


def test_seeded_loop_suite_step_counts():
    # Counts recorded from the step-by-step reduction that probed for a
    # normalize step before every peak rewrite; they pin the rewrite order.
    steps = [verify_single_n(n, {"loops"}, seed=11)[0].detail for n in range(2, 9)]
    assert steps == [f"1000 walks, {count} steps"
                     for count in (1000, 1321, 1786, 2278, 2785, 3376, 4128)]


def test_seeded_loop_suite_step_counts_up_to_the_verify_reach():
    # n = 9..14, recorded from walks drawn with randrange and choice.
    steps = [verify_single_n(n, {"loops"}, seed=11)[0].detail for n in range(9, 15)]
    assert steps == [f"1000 walks, {count} steps"
                     for count in (4598, 5035, 5378, 5480, 5478, 5700)]


def test_trace_json():
    trace = reduce_loop(loop4("[4] [3,1] [4]"))
    payload = trace.to_json_dict()
    assert payload["n"] == 4
    assert payload["initial"] == "[4] [3,1] [4]"
    assert payload["final"] == "[4]"
    assert all(set(step) == {"rule", "loop"} for step in payload["steps"])


def test_random_closed_walk_is_closed_and_seeded():
    g = build_graph(6)
    walk1 = random_closed_walk(g, random.Random(3))
    walk2 = random_closed_walk(g, random.Random(3))
    assert walk1.ids == walk2.ids
    with pytest.raises(ValueError):
        random_closed_walk(build_graph(1), random.Random(0))


def test_random_walks_pass_the_validating_constructor():
    # Walks are built unchecked, since every step comes from the adjacency;
    # the validating constructor must accept each one unchanged.
    for n in range(2, 11):
        g = build_graph(n)
        for seed in (0, 1, 11):
            rng = random.Random(seed)
            for _ in range(100):
                walk = random_closed_walk(g, rng)
                assert len(walk) >= 2
                assert EdgeLoop(g, walk.ids).ids == walk.ids


def test_random_closed_walk_names_its_step_limit(monkeypatch):
    # One step never returns: the graph has no loops at a vertex.
    monkeypatch.setattr(loops, "WALK_MAX_LEN", 1)
    with pytest.raises(RuntimeError, match="WALK_MAX_LEN = 1 steps"):
        random_closed_walk(build_graph(5), random.Random(0))

