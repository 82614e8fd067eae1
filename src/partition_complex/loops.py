"""Edge-loops in the transfer graph and height-based peak reduction.

A loop is stored as a cyclic vertex sequence without the closing repeat.
Reduction repeatedly rewrites a highest vertex of the loop: when the moves
to its two lower neighbours close a triangle, by the one triangle rule
cliques._triangle_class, the fragment shortcuts across it; otherwise a
strictly lower detour vertex replaces the peak, crossing two triangles
that share it.  Every step is checked against the structure theory where
it happens: the peak's neighbours are strictly lower, each triangle
crossed is a clique, the loop edges the rewrite creates are edges of the
graph, and the complexity strictly decreases.  A finished trace is
therefore a machine-checked contraction certificate.

Only outside input is validated edge by edge, by the EdgeLoop constructor.
The states of a reduction need no such pass: every edge of a new state
either was an edge of the previous state, or was checked at the rewrite
site, and cutting a spur x y x to x only joins x to the id that already
followed the second x.  Nor do random walks, whose every step is drawn
from the graph's adjacency.

Random walks take their bits straight from the generator's getrandbits:
an index below d costs getrandbits(d.bit_length()) draws until one is
below d, which is what random.Random's randrange(d) and choice(seq) do for
d = len(seq).  So a seeded walk, and the generator's state after it, are
those the two methods give, with two fewer Python calls per draw.  The
reduction binds the graph's heights and moves once per loop and tests the
rewrite-site edges inline, but every step still makes each check above,
and each raises TheoremViolationError with asserts stripped too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .cliques import NOT_TRIANGLE, _triangle_class
from .graph import PartitionGraph, _check_vertex_ids
from .partitions import TheoremViolationError, format_partition, parse_partition

# Steps a random walk may take to return to its start before it is dropped.
WALK_MAX_LEN = 40


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
        _check_vertex_ids(graph, ids, InvalidLoopError)
        if len(ids) >= 2 and ids[0] == ids[-1]:
            ids = ids[:-1]
        if len(ids) > 1:
            for i, vertex_id in enumerate(ids):
                successor = ids[(i + 1) % len(ids)]
                if successor not in graph.moves[vertex_id]:
                    raise InvalidLoopError(
                        f"consecutive loop vertices {graph.vertices[vertex_id]} and "
                        f"{graph.vertices[successor]} are not adjacent")
        self.graph = graph
        self.ids = ids

    @classmethod
    def _unchecked(cls, graph: PartitionGraph, ids: tuple[int, ...]) -> EdgeLoop:
        """A loop whose edges its maker has already checked: a reduction
        state, or a random walk drawn step by step from the adjacency."""
        loop = object.__new__(cls)
        loop.graph = graph
        loop.ids = ids
        return loop

    @property
    def is_constant(self) -> bool:
        return len(self.ids) == 1

    def __len__(self) -> int:
        return len(self.ids)

    def heights(self) -> tuple[int, ...]:
        return tuple(self.graph.heights[v] for v in self.ids)


def parse_loop(graph: PartitionGraph, text: str) -> EdgeLoop:
    """Build a loop from whitespace-separated partition literals."""
    tokens = text.split()
    if not tokens:
        raise InvalidLoopError("empty loop text")
    ids = [graph.vertex_id(parse_partition(token)) for token in tokens]
    return EdgeLoop(graph, ids)


def format_loop(loop: EdgeLoop) -> str:
    """Closed form with the first literal repeated; constant loops print once."""
    literals = [format_partition(loop.graph.vertices[v]) for v in loop.ids]
    if len(literals) > 1:
        literals.append(literals[0])
    return " ".join(literals)


def normalize_ids(ids: Sequence[int]) -> list[int]:
    """Cut backtrack spurs x y x to x, smallest centre first, cyclically, to a fixpoint.

    ids must have no equal consecutive ids, cyclically, as every loop of the
    graph has; cutting a spur keeps that, since the x left behind is next to
    the id that followed the second x.  Two-vertex loops are left alone:
    they reduce through the peak step, not here.

    A cut at centre c changes the neighbours of the x it keeps and of no
    other id, so no centre below the kept x can appear: the scan resumes
    there, at c - 1, or at the end when the cut wrapped past it.
    """
    out = list(ids)
    size = len(out)
    centre = 0
    while size >= 3 and centre < size:
        if out[centre - 1] != out[(centre + 1) % size]:
            centre += 1
            continue
        if centre == size - 1:
            del out[centre]
            del out[0]
        else:
            del out[centre:centre + 2]
        size -= 2
        centre = max(0, min(centre - 1, size - 1))
    return out


def _require_adjacent(graph: PartitionGraph, u: int, v: int, context: str) -> None:
    if v not in graph.moves[u]:
        raise TheoremViolationError(
            f"{context}: {graph.vertices[u]} and {graph.vertices[v]} are not adjacent")


def _replace_peak(graph: PartitionGraph, ids: list[int], peak: int) -> str:
    """Rewrite, in place, the highest vertex ids[peak]: delete it or replace
    it by a lower detour vertex.  Returns the rule tag.

    Checks the triangles the rewrite crosses, except for the loop edges it
    creates, which the caller checks at the rewrite site.
    """
    heights = graph.heights
    size = len(ids)
    peak_id = ids[peak]
    top = heights[peak_id]
    before_id = ids[peak - 1]
    after_id = ids[(peak + 1) % size]
    if heights[before_id] >= top or heights[after_id] >= top:
        raise TheoremViolationError(
            f"peak {graph.vertices[peak_id]} has a neighbour of height >= {top}")
    peak_moves = graph.moves[peak_id]
    arm_before, arm_after = peak_moves[before_id], peak_moves[after_id]
    if _triangle_class(arm_before, arm_after) != NOT_TRIANGLE:
        # triangle shortcut: the fragment collapses to the edge between the
        # neighbours; they coincide only in a two-vertex loop, which leaves
        # one vertex
        del ids[peak]
        return "shortcut"
    (corner_before, add_before), (corner_after, add_after) = arm_before, arm_after
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
    for detour_id in graph.star[peak_id][source]:
        if detour_id in received:
            break
    else:
        raise TheoremViolationError(
            f"detour transfer {source}->{target} from {graph.vertices[peak_id]} "
            f"is inadmissible")
    if heights[detour_id] >= top:
        raise TheoremViolationError(
            f"detour vertex {graph.vertices[detour_id]} is not lower than the peak "
            f"{graph.vertices[peak_id]}")
    if peak_id not in graph.moves[detour_id]:
        _require_adjacent(graph, detour_id, peak_id, "detour triangle")
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

    The input is normalized first, and a "normalize" step is recorded only
    when that shortens it.  Each further step rewrites the first highest
    vertex and then cuts spurs, which can only appear around the rewrite,
    since the state before it had none.

    Each rewrite is checked where it happens.  The loop edges on either
    side of the rewrite site must be graph edges; every other edge of the
    new state was an edge of the previous one, and cutting a spur x y x to
    x only joins x to the id that already followed the second x.  So every
    state is a closed walk without a second validation pass, and is
    recorded unchecked.  The heights of the ids are kept in step with every
    edit, and each state's complexity, the pair (max height, number of ids
    at it) ordered lexicographically, is measured from them in full: a
    normalize step must not raise it, and a peak step must strictly lower
    it.
    """
    graph = loop.graph
    heights = graph.heights
    moves = graph.moves
    hs = [heights[v] for v in loop.ids]
    length = len(hs)
    top = max(hs)
    before = (top, hs.count(top))
    steps = []
    ids = normalize_ids(loop.ids)
    rule = None
    if len(ids) < length:
        rule = "normalize"
        hs = [heights[v] for v in ids]
    while True:
        if rule is not None:
            top = max(hs)
            after = (top, hs.count(top))
            if not (after <= before if rule == "normalize" else after < before):
                raise TheoremViolationError(
                    f"{rule} step did not decrease complexity: "
                    f"{before} (length {length}) -> {after} (length {len(ids)})")
            steps.append((rule, EdgeLoop._unchecked(graph, tuple(ids))))
            before, length = after, len(ids)
        if length == 1:
            return ReductionTrace(loop, tuple(steps))
        peak = hs.index(before[0])
        rule = _replace_peak(graph, ids, peak)
        size = len(ids)
        if size < len(hs):
            del hs[peak]
        else:
            hs[peak] = heights[ids[peak]]
        if size == 1:
            continue
        site = peak % size
        left, middle, right = ids[site - 1], ids[site], ids[(site + 1) % size]
        if middle not in moves[left]:
            _require_adjacent(graph, left, middle, rule)
        if right not in moves[middle]:
            _require_adjacent(graph, middle, right, rule)
        # spur centres at site - 1, site and site + 1
        if size >= 3 and (ids[site - 2] == middle or left == right
                          or middle == ids[(site + 2) % size]):
            ids = normalize_ids(ids)
            hs = [heights[v] for v in ids]


def random_closed_walk(graph: PartitionGraph, rng) -> EdgeLoop:
    """Random walk from a random start until it returns; a walk still out
    after WALK_MAX_LEN steps is dropped and a new one started.  The start
    and each step take from rng.getrandbits exactly the bits that
    rng.randrange and rng.choice take for a random.Random.
    """
    adjacency = graph.adjacency
    if not any(adjacency):
        raise ValueError("the graph has no edges, so it has no nonconstant loops")
    getrandbits = rng.getrandbits
    count = len(graph.vertices)
    count_bits = count.bit_length()
    for _ in range(10000):
        start = getrandbits(count_bits)
        while start >= count:
            start = getrandbits(count_bits)
        neighbours = adjacency[start]
        if not neighbours:
            continue
        walk = [start]
        for _ in range(WALK_MAX_LEN):
            degree = len(neighbours)
            bits = degree.bit_length()
            draw = getrandbits(bits)
            while draw >= degree:
                draw = getrandbits(bits)
            position = neighbours[draw]
            if position == start:
                return EdgeLoop._unchecked(graph, tuple(walk))
            walk.append(position)
            neighbours = adjacency[position]
    raise RuntimeError("no random walk returned to its start within"
                       f" WALK_MAX_LEN = {WALK_MAX_LEN} steps")
