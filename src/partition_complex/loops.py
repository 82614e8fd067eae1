"""Edge-loops in the transfer graph and height-based peak reduction.

A loop is stored as a cyclic vertex sequence without the closing repeat.
Reduction repeatedly rewrites a highest vertex of the loop: when the moves
to its two lower neighbours share a corner, the fragment shortcuts across
a triangle; otherwise a strictly lower detour vertex replaces the peak,
crossing two triangles that share it.  Every step is checked against the
structure theory (neighbours strictly lower, triangles genuinely cliques,
complexity strictly decreasing), so a finished trace is a machine-checked
contraction certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .graph import PartitionGraph
from .partitions import TheoremViolationError, format_partition, parse_partition


class InvalidLoopError(ValueError):
    """The sequence does not describe a closed walk in the graph."""


class EdgeLoop:
    """Closed walk, stored cyclically: consecutive ids (wrapping) are edges.

    Accepts both the open form (no repeat) and the closed form (first id
    repeated at the end); a single vertex is the constant loop.
    """

    __slots__ = ("graph", "ids")

    def __init__(self, graph: PartitionGraph, vertex_ids: Iterable[int]):
        ids = tuple(vertex_ids)
        if not ids:
            raise InvalidLoopError("a loop needs at least one vertex")
        if len(ids) >= 2 and ids[0] == ids[-1]:
            ids = ids[:-1]
        count = len(graph.vertices)
        for vertex_id in ids:
            if not 0 <= vertex_id < count:
                raise InvalidLoopError(f"unknown vertex id {vertex_id}")
        if len(ids) > 1:
            for i, vertex_id in enumerate(ids):
                successor = ids[(i + 1) % len(ids)]
                if successor not in graph.moves[vertex_id]:
                    raise InvalidLoopError(
                        f"consecutive loop vertices {graph.vertices[vertex_id]} and "
                        f"{graph.vertices[successor]} are not adjacent")
        self.graph = graph
        self.ids = ids

    @property
    def is_constant(self) -> bool:
        return len(self.ids) == 1

    def __len__(self) -> int:
        return len(self.ids)

    def heights(self) -> tuple[int, ...]:
        return tuple(self.graph.heights[v] for v in self.ids)

    def partitions(self) -> tuple:
        return tuple(self.graph.vertices[v] for v in self.ids)

    def __eq__(self, other) -> bool:
        return (isinstance(other, EdgeLoop)
                and self.graph.n == other.graph.n and self.ids == other.ids)

    def __hash__(self) -> int:
        return hash((self.graph.n, self.ids))

    def __repr__(self) -> str:
        return f"EdgeLoop(n={self.graph.n}, {format_loop(self)!r})"


class LoopComplexity(NamedTuple):
    """Orders loops by (max height, number of indices attaining it)."""

    max_height: int
    peak_count: int


def complexity(loop: EdgeLoop) -> LoopComplexity:
    heights = loop.heights()
    top = max(heights)
    return LoopComplexity(top, heights.count(top))


def parse_loop(graph: PartitionGraph, text: str) -> EdgeLoop:
    """Build a loop from whitespace-separated partition literals."""
    tokens = text.split()
    if not tokens:
        raise InvalidLoopError("empty loop text")
    ids = [graph.vertex_id(parse_partition(token)) for token in tokens]
    return EdgeLoop(graph, ids)


def format_loop(loop: EdgeLoop) -> str:
    """Closed form with the first literal repeated; constant loops print once."""
    literals = [format_partition(p) for p in loop.partitions()]
    if len(literals) > 1:
        literals.append(literals[0])
    return " ".join(literals)


def normalize_ids(ids: Sequence[int]) -> list[int]:
    """Cut backtrack spurs x y x to x, smallest centre first, cyclically, to a fixpoint.

    ids must have no equal consecutive ids, cyclically, as every loop of the
    graph has; cutting a spur keeps that, since the x left behind is next to
    the id that followed the second x.  Two-vertex loops are left alone:
    they reduce through the peak step, not here.
    """
    out = list(ids)
    while len(out) >= 3:
        size = len(out)
        centre = next((i for i in range(size) if out[i - 1] == out[(i + 1) % size]), None)
        if centre is None:
            break
        for k in sorted((centre, (centre + 1) % size), reverse=True):
            del out[k]
    return out


def _require_adjacent(graph: PartitionGraph, u: int, v: int, context: str) -> None:
    if v not in graph.moves[u]:
        raise TheoremViolationError(
            f"{context}: {graph.vertices[u]} and {graph.vertices[v]} are not adjacent")


def _replace_peak(graph: PartitionGraph, ids: list[int], top: int) -> str:
    """Rewrite, in place, the lowest-index vertex of ids at height top;
    returns the rule tag."""
    size = len(ids)
    peak = next(i for i, vertex_id in enumerate(ids) if graph.heights[vertex_id] == top)
    peak_id = ids[peak]
    before_id = ids[(peak - 1) % size]
    after_id = ids[(peak + 1) % size]
    if graph.heights[before_id] >= top or graph.heights[after_id] >= top:
        raise TheoremViolationError(
            f"peak {graph.vertices[peak_id]} has a neighbour of height >= {top}")
    peak_partition = graph.vertices[peak_id]
    corner_before, add_before = graph.moves[peak_id][before_id]
    corner_after, add_after = graph.moves[peak_id][after_id]
    if corner_before == corner_after or add_before == add_after:
        # triangle shortcut: the fragment collapses to the edge between the
        # neighbours; they coincide only in a two-vertex loop, which leaves
        # one vertex
        if before_id != after_id:
            _require_adjacent(graph, before_id, after_id, "shortcut triangle")
        del ids[peak]
        return "shortcut"
    # distinct removable corners always sit in distinct rows, so the
    # reindexing below never faces a tie
    if corner_before.row == corner_after.row:
        raise TheoremViolationError(
            f"distinct removable corners {corner_before} and {corner_after} share a row")
    if corner_before.row <= corner_after.row:
        source, target = corner_after, add_before
    else:
        source, target = corner_before, add_after
    # the transfer source -> target, if admissible, is the one vertex in both
    # the star fiber at source and the top fiber at target
    received = graph.top[peak_id][target]
    detour_id = next((v for v in graph.star[peak_id][source] if v in received), None)
    if detour_id is None:
        raise TheoremViolationError(
            f"detour transfer {source}->{target} from {peak_partition} "
            f"is inadmissible")
    detour = graph.vertices[detour_id]
    if graph.heights[detour_id] >= top:
        raise TheoremViolationError(
            f"detour vertex {detour} is not lower than the peak {peak_partition}")
    _require_adjacent(graph, detour_id, peak_id, "detour triangle")
    _require_adjacent(graph, detour_id, before_id, "detour triangle")
    _require_adjacent(graph, detour_id, after_id, "detour triangle")
    ids[peak] = detour_id
    return "detour"


@dataclass(frozen=True)
class ReductionTrace:
    """The input loop and every rewrite on the way down to a constant loop."""

    initial: EdgeLoop
    steps: tuple[tuple[str, EdgeLoop], ...]

    @property
    def final(self) -> EdgeLoop:
        return self.steps[-1][1] if self.steps else self.initial

    def __len__(self) -> int:
        # Number of loop states, initial included; an already-constant
        # input gives a trace of length 1.
        return 1 + len(self.steps)

    def to_json_dict(self) -> dict:
        return {
            "n": self.initial.graph.n,
            "initial": format_loop(self.initial),
            "steps": [
                {"rule": rule, "loop": format_loop(loop)} for rule, loop in self.steps
            ],
            "final": format_loop(self.final),
        }


def reduce_loop(loop: EdgeLoop) -> ReductionTrace:
    """Reduce a loop to a constant loop, recording each rewrite.

    normalize_ids runs to a fixpoint and every later state is its output,
    so only the input can need normalizing: a "normalize" step is recorded
    first, and only when it shortens the loop.  Each further step rewrites
    a peak and normalizes the result.  Every recorded state is built once,
    as a validated EdgeLoop, and measured once; its complexity is the next
    step's "before".  A normalize step must not raise the complexity, and
    a peak step must strictly lower it.
    """
    graph = loop.graph
    current, before = loop, complexity(loop)
    steps = []
    ids = normalize_ids(loop.ids)
    rule = "normalize" if len(ids) < len(loop) else None
    while True:
        if rule is not None:
            new = EdgeLoop(graph, ids)
            after = complexity(new)
            if not (after <= before if rule == "normalize" else after < before):
                raise TheoremViolationError(
                    f"{rule} step did not decrease complexity: "
                    f"{before} (length {len(current)}) -> {after} (length {len(new)})")
            steps.append((rule, new))
            current, before = new, after
        if current.is_constant:
            return ReductionTrace(loop, tuple(steps))
        rule = _replace_peak(graph, ids, before.max_height)
        ids = normalize_ids(ids)


def random_closed_walk(graph: PartitionGraph, rng, max_len: int = 40) -> EdgeLoop:
    """Random walk from a random start until it returns; retries on timeout."""
    if not any(graph.adjacency):
        raise ValueError("the graph has no edges, so it has no nonconstant loops")
    for _ in range(10000):
        start = rng.randrange(len(graph.vertices))
        if not graph.adjacency[start]:
            continue
        walk = [start]
        position = start
        for _ in range(max_len):
            position = rng.choice(graph.adjacency[position])
            if position == start:
                return EdgeLoop(graph, walk)
            walk.append(position)
    raise RuntimeError("no random walk returned to its start; raise max_len")
