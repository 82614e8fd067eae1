"""Edge loops, (H, M) complexity, and peak reduction to constant loops."""

import random

import pytest

from partition_complex.graph import build_graph
from partition_complex.loops import (
    EdgeLoop,
    InvalidLoopError,
    LoopComplexity,
    complexity,
    format_loop,
    normalize_ids,
    parse_loop,
    random_closed_walk,
    reduce_loop,
)
from partition_complex.verification import verify_single_n

G4 = build_graph(4)


def loop4(text):
    return parse_loop(G4, text)


def test_parse_strips_the_closing_vertex():
    loop = loop4("[4] [3,1] [4]")
    assert len(loop) == 2
    assert loop.partitions() == ((4,), (3, 1))


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


def test_loop_ids_validated():
    with pytest.raises(InvalidLoopError):
        EdgeLoop(G4, [0, 99])
    with pytest.raises(InvalidLoopError):
        EdgeLoop(G4, [])


def test_complexity():
    assert complexity(loop4("[4]")) == LoopComplexity(4, 1)
    assert complexity(loop4("[4] [3,1] [4]")) == LoopComplexity(5, 1)
    # Heights along the triangle are 5, 6, 7: a single peak at height 7.
    assert complexity(loop4("[3,1] [2,2] [2,1,1] [3,1]")) == LoopComplexity(7, 1)


def test_complexity_of_constant_counts_length():
    constant = EdgeLoop(G4, [G4.vertex_id((2, 2))])
    assert complexity(constant) == LoopComplexity(6, 1)


def test_complexity_orders_lexicographically():
    assert LoopComplexity(5, 9) < LoopComplexity(6, 1)
    assert LoopComplexity(6, 1) < LoopComplexity(6, 2)


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
    assert len(trace) == 1
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


def test_only_the_input_is_normalized():
    # normalize_ids runs to a fixpoint, so once the input is normalized every
    # later state already is: "normalize" can only be the first rule.
    g = build_graph(8)
    rng = random.Random(11)
    for _ in range(200):
        trace = reduce_loop(random_closed_walk(g, rng))
        rules = [rule for rule, _ in trace.steps]
        assert "normalize" not in rules[1:]
        for _, loop in trace.steps:
            assert normalize_ids(loop.ids) == list(loop.ids)


def test_seeded_loop_suite_step_counts():
    # Counts recorded from the step-by-step reduction that probed for a
    # normalize step before every peak rewrite; they pin the rewrite order.
    steps = [verify_single_n(n, {"loops"}, seed=11)[0].detail for n in range(2, 9)]
    assert steps == [f"1000 walks, {count} steps"
                     for count in (1000, 1321, 1786, 2278, 2785, 3376, 4128)]


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
    assert walk1 == walk2
    with pytest.raises(ValueError):
        random_closed_walk(build_graph(1), random.Random(0))


def test_loop_equality_and_hash():
    a = loop4("[4] [3,1] [4]")
    b = loop4("[4] [3,1] [4]")
    assert a == b
    assert hash(a) == hash(b)
    assert a != loop4("[4]")
