"""Machine checks of the structure theory, organized as named suites.

Each suite checks one cluster of claims for a single n.  It returns its
pass detail, or raises _Counterexample with a concrete witness, or
_Vacuous when the claim has no instances at that n; run_suite alone turns
a suite run into a VerificationOutcome.  Suites at an n beyond their
default runtime budget are skipped with an explicit record instead of
silently running long.

The checks deliberately pit independent routes against each other: the
classification-driven constructions on one side, and either brute-force
enumeration (all cliques, all subfamilies, corner-pair scans) or
independently tabulated values on the other.  The per-n objects a suite
checks are read off a stages.NContext, which builds each of them once.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Optional

from . import reference
from .cliques import (
    NOT_TRIANGLE,
    STAR,
    NotACliqueError,
    TheoremViolationError,
    _full_simplex,
    _triangle_class,
    classify_clique,
    fvector_by_corner_counting,
    fvector_by_fiber_counting,
    fvector_table,
)
from .homology import build_chain_complex, homology_concentrated, reduced_homology
from .loops import format_loop, random_closed_walk, reduce_loop
from .nerve import anchor_intersection_ids, closure_ids, max_chain_length, order_complex
from .oracles import edges_by_conjugate_scan, maximal_cliques_reference, partition_count
from .partitions import format_partition
from .stages import NContext
from .suite_names import BUDGETS, SUITE_ORDER

PASS = "pass"
FAIL = "fail"
VACUOUS = "vacuous"
SKIP = "skip"

WALKS_PER_N = 1000


@dataclass(frozen=True)
class VerificationOutcome:
    suite: str
    n: int
    status: str
    counterexample: Optional[dict] = None
    detail: Optional[str] = None


def _literals(g, ids) -> list[str]:
    """Partition literals of the given vertex ids, for a fail witness."""
    return [format_partition(g.vertices[v]) for v in ids]


class _Counterexample(Exception):
    """Raised by a suite that found a counterexample; carries its witness."""

    def __init__(self, witness: dict):
        super().__init__(witness)
        self.witness = witness


class _Vacuous(Exception):
    """Raised by a suite whose claim has no instances at this n."""

    def __init__(self, detail: str):
        super().__init__(detail)
        self.detail = detail


def _suite_triangles(ctx: NContext) -> str:
    """Triangle classification against raw adjacency, fiber cliqueness, and
    the graph's edge decompositions against a corner-pair scan, which must
    find exactly that one."""
    g = ctx.graph
    checked = 0
    for lam_id, lam in enumerate(g.vertices):
        moves = g.moves[lam_id]
        for i1, i2 in itertools.combinations(g.adjacency[lam_id], 2):
            verdict = _triangle_class(moves[i1], moves[i2])
            closed = i2 in g.moves[i1]
            checked += 1
            if (verdict != NOT_TRIANGLE) != closed:
                raise _Counterexample({
                    "lam": format_partition(lam),
                    "mu1": format_partition(g.vertices[i1]),
                    "mu2": format_partition(g.vertices[i2]),
                    "classified": verdict,
                    "edge_present": closed,
                })
    for lam_id, lam in enumerate(g.vertices):
        for fibers, claim in ((g.star[lam_id], "same-corner moves must be adjacent"),
                              (g.top[lam_id], "same-target moves must be adjacent")):
            for corner, fiber in fibers.items():
                for i1, i2 in itertools.combinations(fiber, 2):
                    checked += 1
                    if i2 not in g.moves[i1]:
                        raise _Counterexample({
                            "lam": format_partition(lam), "corner": list(corner),
                            "mu1": format_partition(g.vertices[i1]),
                            "mu2": format_partition(g.vertices[i2]),
                            "claim": claim,
                        })
    for u, v in g.edges():
        lam, mu = g.vertices[u], g.vertices[v]
        brute = [(c, a) for c, a, moved in ctx.scans[u] if moved == mu]
        checked += 1
        if [g.moves[u][v]] != brute:
            raise _Counterexample({
                "lam": format_partition(lam), "mu": format_partition(mu),
                "fast": 1, "scan": len(brute),
                "claim": "every edge has exactly one decomposition",
            })
    if checked == 0:
        raise _Vacuous("no two-edge paths in this graph")
    return f"{checked} checks"


def _suite_cliques(ctx: NContext) -> str:
    """Every clique of size >= 3 is star- or top-type at its lowest vertex,
    never both, and the witness fiber really contains the other members.
    A listed clique that classify_clique refuses is the witness, with its
    error as the claim."""
    g = ctx.graph
    checked = 0
    for clique in ctx.all_cliques:
        if len(clique) < 3:
            continue
        checked += 1
        try:
            verdict = classify_clique(g, clique)
        except (TheoremViolationError, NotACliqueError) as exc:
            raise _Counterexample({"clique": _literals(g, clique), "claim": str(exc)})
        base_id = min(clique, key=lambda vid: g.heights[vid])
        if verdict.base != base_id:
            raise _Counterexample({
                "clique": _literals(g, clique),
                "claim": "witness base must be the lowest vertex"})
        fibers = g.star if verdict.kind == STAR else g.top
        if not set(clique) - {base_id} <= set(fibers[base_id][verdict.corner]):
            raise _Counterexample({
                "clique": _literals(g, clique), "kind": verdict.kind,
                "claim": "members must lie in the witness fiber"})
        decomps = [g.moves[base_id][v] for v in clique if v != base_id]
        star_shared = len({c for c, _ in decomps}) == 1
        top_shared = len({a for _, a in decomps}) == 1
        if star_shared and top_shared:
            raise _Counterexample({
                "clique": _literals(g, clique),
                "claim": "a clique of size >= 3 cannot be both star- and top-type"})
    if checked == 0:
        raise _Vacuous("no cliques of size 3 or more")
    return f"{checked} cliques classified"


def _suite_facets(ctx: NContext) -> str:
    """Classification-derived facets against the cliques that no vertex
    extends, filtered from the list of every clique."""
    ours = set(ctx.facets)
    oracle = set(maximal_cliques_reference(ctx.graph, ctx.all_cliques))
    if ours != oracle:
        extra = sorted(ours - oracle)[:3]
        missing = sorted(oracle - ours)[:3]
        raise _Counterexample({"extra": extra, "missing": missing})
    return f"{len(ours)} facets agree"


def _suite_cover(ctx: NContext) -> str:
    """Cover members are cliques matching each provenance (rebuilt from the
    base's corner-pair scan), and every clique of the graph lies inside some
    member, looked for among the members that hold its first vertex."""
    g = ctx.graph
    checked = 0
    for member in ctx.cover:
        for u, v in itertools.combinations(member.vertices, 2):
            checked += 1
            if v not in g.moves[u]:
                raise _Counterexample({
                    "member": list(member.vertices),
                    "claim": "cover members must be cliques"})
        for kind, base_id, corner in member.provenances:
            checked += 1
            rebuilt = [base_id] + [g.index[moved] for c, a, moved in ctx.scans[base_id]
                                   if (c if kind == STAR else a) == corner]
            if tuple(sorted(rebuilt)) != member.vertices:
                raise _Counterexample({
                    "member": list(member.vertices), "kind": kind,
                    "base": format_partition(g.vertices[base_id]),
                    "claim": "provenance must rebuild the member"})
    member_sets = [set(member.vertices) for member in ctx.cover]
    holders = _postings(member_sets)
    for clique in ctx.all_cliques:
        checked += 1
        vertex_set = set(clique)
        if not any(vertex_set <= member_sets[j] for j in holders.get(clique[0], ())):
            raise _Counterexample({
                "clique": _literals(g, clique),
                "claim": "every clique lies in a cover member"})
    return f"{checked} checks over {len(ctx.cover)} members"


def _postings(sets) -> dict[int, list[int]]:
    """For each element, the indices of the sets holding it, in increasing order."""
    postings: dict[int, list[int]] = {}
    for j, members in enumerate(sets):
        for x in members:
            postings.setdefault(x, []).append(j)
    return postings


def _count_intersecting_subfamilies(member_sets) -> tuple[int, ...]:
    """Brute route for the nerve f-vector: lists every subfamily with a
    nonempty intersection, depth-first in member order, and counts them by
    size.

    Each member's points are an int bitmask (bit x for point x), and every
    listed family has its intersection computed explicitly, as an &.  A
    family starting at member j grows only by later members that meet j,
    read off the members' own points.  A family F + k then grows only by
    the members m after k for which F + m was listed, since F + k + m meets
    in the & of the intersections of F + k and F + m, both inside that of F.
    """
    holders = _postings(member_sets)
    masks = [sum(1 << x for x in members) for members in member_sets]
    counts = [0] * (len(masks) + 1)

    def extend(tail, size: int) -> None:
        # tail: (m, intersection of F + m) for every listed F + m, in member order
        counts[size] += len(tail)
        for i, (_, common) in enumerate(tail):
            grown = [(m, both) for m, other in tail[i + 1:] if (both := common & other)]
            if grown:
                extend(grown, size + 1)

    for j, members in enumerate(member_sets):
        if masks[j]:
            counts[0] += 1
            meeting = sorted({k for x in members for k in holders[x] if k > j})
            extend([(k, masks[j] & masks[k]) for k in meeting], 1)
    while counts and counts[-1] == 0:
        counts.pop()
    return tuple(counts)


def _suite_nerve(ctx: NContext) -> str:
    """Nerve simplices match cliques (nonempty intersections exactly over
    cliques), and the f-vector inverted over the poset agrees with brute
    subfamily search and with the clique complex's Euler characteristic.

    Non-edges are checked through the pairs that do share a member, found
    by inverting the anchors: every such pair must be an edge, and the
    smallest one that is not is the witness.  The brute search lists every
    intersecting subfamily and computes each one's intersection.
    """
    g = ctx.graph
    nerve = ctx.nerve
    checked = 0
    for clique in ctx.all_cliques:
        checked += 1
        if not anchor_intersection_ids(nerve, clique):
            raise _Counterexample({
                "clique": _literals(g, clique),
                "claim": "cliques must have nonempty member intersection"})
    vertex_count = len(g.vertices)
    checked += vertex_count * (vertex_count - 1) // 2 - g.edge_count()
    strays = [(u, v) for vids in _postings(nerve.anchor_sets).values()
              for u, v in itertools.combinations(vids, 2)
              if v not in g.moves[u]]
    if strays:
        raise _Counterexample({
            "pair": _literals(g, min(strays)),
            "claim": "non-edges must have empty member intersection"})
    inverted = ctx.nerve_fvector
    brute = _count_intersecting_subfamilies(nerve.member_sets)
    if inverted.counts != brute:
        raise _Counterexample({
            "inverted": list(inverted.counts), "brute": list(brute)})
    chi_complex = ctx.fvector.euler_characteristic
    if inverted.euler_characteristic != chi_complex:
        raise _Counterexample({
            "nerve_chi": inverted.euler_characteristic, "complex_chi": chi_complex})
    return f"{checked} intersections, {sum(brute)} nerve simplices"


def _suite_anchors(ctx: NContext) -> str:
    """Anchor membership, the two-witness rigidity of full simplices, the
    candidate list for edge intersections, and the single-member rule for
    larger cliques."""
    g = ctx.graph
    nerve = ctx.nerve
    checked = len(g.vertices) * len(nerve.member_sets)
    holders = _postings(nerve.member_sets)
    for vid in range(len(g.vertices)):
        mismatched = nerve.anchor_sets[vid].symmetric_difference(holders.get(vid, ()))
        if mismatched:
            raise _Counterexample({
                "vertex": format_partition(g.vertices[vid]), "member": min(mismatched),
                "claim": "anchor membership must mirror containment"})
    for member in ctx.cover:
        vertex_set = set(member.vertices)
        for vid in member.vertices:
            for fibers, claim in (
                    (g.star[vid], "two same-corner witnesses force the full simplex"),
                    (g.top[vid], "two same-target witnesses force the full simplex")):
                for fiber in fibers.values():
                    if len(vertex_set.intersection(fiber)) >= 2:
                        checked += 1
                        if member.vertices != _full_simplex(vid, fiber):
                            raise _Counterexample({
                                "member": list(member.vertices),
                                "base": format_partition(g.vertices[vid]),
                                "claim": claim})
    for u, v in g.edges():
        common = anchor_intersection_ids(nerve, (u, v))
        checked += 1
        if not 1 <= len(common) <= 3:
            raise _Counterexample({
                "edge": _literals(g, (u, v)),
                "members": len(common),
                "claim": "edge intersections have between one and three members"})
        edge_tuple = (u, v)
        for first, second in ((u, v), (v, u)):
            c, a = g.moves[first][second]
            candidates = {
                _full_simplex(first, g.star[first][c]),
                _full_simplex(first, g.top[first][a]),
                edge_tuple,
            }
            for mid in common:
                checked += 1
                if nerve.cover[mid].vertices not in candidates:
                    raise _Counterexample({
                        "edge": _literals(g, (u, v)),
                        "member": list(nerve.cover[mid].vertices),
                        "claim": "edge-intersection members come from the candidate list"})
    for clique in ctx.all_cliques:
        if len(clique) >= 3:
            checked += 1
            if len(anchor_intersection_ids(nerve, clique)) != 1:
                raise _Counterexample({
                    "clique": _literals(g, clique),
                    "claim": "larger cliques lie in exactly one member"})
    return f"{checked} checks"


def _suite_poset(ctx: NContext) -> str:
    """The poset's elements match the all-cliques definition, chains stay
    short, non-singleton elements are single-vertex or single-edge
    intersections, and all three Euler characteristics agree.  One pass
    over every clique gives both the definition and the intersections of
    single vertices and edges."""
    nerve = ctx.nerve
    poset = ctx.poset
    all_cliques = set()
    small = set()
    for clique in ctx.all_cliques:
        common = anchor_intersection_ids(nerve, clique)
        if common:
            element = tuple(sorted(common))
            all_cliques.add(element)
            if len(clique) <= 2:
                small.add(element)
    if set(poset.elements) != all_cliques:
        raise _Counterexample({
            "poset": len(poset.elements), "all_cliques": len(all_cliques)})
    chain = max_chain_length(poset)
    if chain > 2:
        raise _Counterexample({"max_chain_length": chain})
    for element in poset.elements:
        if len(element) >= 2 and element not in small:
            raise _Counterexample({
                "element": list(element),
                "claim": "non-singleton elements arise from a vertex or an edge"})
    chains = order_complex(poset)
    chi_complex = ctx.fvector.euler_characteristic
    chi_nerve = ctx.nerve_fvector.euler_characteristic
    chi_chains = chains.fvector.euler_characteristic
    if not chi_chains == chi_nerve == chi_complex:
        raise _Counterexample({
            "chain_chi": chi_chains, "nerve_chi": chi_nerve, "complex_chi": chi_complex})
    if poset.elements and len(chains.fvector.counts) - 1 != chain:
        raise _Counterexample({
            "chain_dimension": len(chains.fvector.counts) - 1,
            "max_chain_length": chain})
    return f"{len(poset.elements)} elements, longest chain {chain}"


def _inclusions(sets) -> set[tuple[int, int]]:
    """Every (i, j), i != j, with sets[i] <= sets[j]: the sets holding all of
    sets[i] are the intersection of one posting list per element."""
    postings = _postings(sets)
    everything = set(range(len(sets)))
    pairs = set()
    for i, members in enumerate(sets):
        holding = everything.intersection(*(postings[x] for x in members))
        pairs.update((i, j) for j in holding if j != i)
    return pairs


def _suite_closure(ctx: NContext) -> str:
    """Closure-operator laws over every clique, the anchor-preservation
    property, and the bijection between closed cliques and poset elements
    (order-reversing both ways).

    The order reversal compares two relations computed in full over the
    closed cliques: inclusion of their vertex sets, and reversed inclusion
    of their member intersections, each from one posting list per element.
    A fail names the smallest pair on which they differ.  A listed clique
    whose closure closure_ids refuses to close again, as no clique, is the
    witness, with the error as the claim.
    """
    g = ctx.graph
    nerve = ctx.nerve
    checked = 0
    cache: dict[tuple[int, ...], tuple[int, ...]] = {}

    def close(ids) -> tuple[int, ...]:
        """The closure of ids as a sorted tuple, computed once."""
        key = tuple(sorted(ids))
        closed = cache.get(key)
        if closed is None:
            closed = cache[key] = closure_ids(nerve, key)
        return closed

    for clique in ctx.all_cliques:
        closed = close(clique)
        try:
            reclosed = close(closed)
        except NotACliqueError as exc:
            raise _Counterexample({"clique": _literals(g, clique), "claim": str(exc)})
        closed_set = frozenset(closed)
        checked += 1
        if not closed_set.issuperset(clique):
            raise _Counterexample({
                "clique": _literals(g, clique),
                "claim": "closure must contain its argument"})
        if reclosed != closed:
            raise _Counterexample({
                "clique": _literals(g, clique),
                "claim": "closure must be idempotent"})
        if (anchor_intersection_ids(nerve, closed)
                != anchor_intersection_ids(nerve, clique)):
            raise _Counterexample({
                "clique": _literals(g, clique),
                "claim": "closure must preserve the member intersection"})
        for size in range(1, len(clique)):
            for sub in itertools.combinations(clique, size):
                checked += 1
                if not closed_set.issuperset(close(sub)):
                    raise _Counterexample({
                        "clique": _literals(g, clique),
                        "subset": _literals(g, sub),
                        "claim": "closure must be monotone"})
    fixed = sorted({close(clique) for clique in ctx.all_cliques})
    anchors_seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for closed in fixed:
        common = tuple(sorted(anchor_intersection_ids(nerve, closed)))
        if common in anchors_seen:
            raise _Counterexample({
                "first": list(anchors_seen[common]), "second": list(closed),
                "claim": "closed cliques map injectively to intersections"})
        anchors_seen[common] = closed
    if set(anchors_seen) != set(ctx.poset.elements):
        raise _Counterexample({
            "closed_images": len(anchors_seen), "poset": len(ctx.poset.elements),
            "claim": "closed cliques map onto the poset"})
    included = _inclusions(fixed)
    reversed_anchors = {(i, j) for j, i in _inclusions(
        [anchor_intersection_ids(nerve, closed) for closed in fixed])}
    checked += len(fixed) * (len(fixed) - 1)
    if included != reversed_anchors:
        i, j = min(included ^ reversed_anchors)
        raise _Counterexample({
            "first": list(fixed[i]), "second": list(fixed[j]),
            "claim": "inclusion of closed cliques reverses on intersections"})
    return f"{checked} checks, {len(fixed)} closed cliques"


def _suite_heights(ctx: NContext) -> str:
    """Height change equals the row difference of the corners, adjacent
    heights always differ, and the conjugate criterion reproduces adjacency
    on every vertex pair."""
    g = ctx.graph
    checked = 0
    for u, moves in enumerate(g.moves):
        for v, (c, a) in moves.items():
            checked += 1
            if g.heights[v] - g.heights[u] != a.row - c.row:
                raise _Counterexample({
                    "lam": format_partition(g.vertices[u]),
                    "mu": format_partition(g.vertices[v]),
                    "from_row": c.row, "to_row": a.row,
                    "claim": "height change must equal the row difference"})
    for u, v in g.edges():
        checked += 1
        if g.heights[u] == g.heights[v]:
            raise _Counterexample({
                "lam": format_partition(g.vertices[u]),
                "mu": format_partition(g.vertices[v]),
                "claim": "adjacent partitions must differ in height"})
    vertex_count = len(g.vertices)
    checked += vertex_count * (vertex_count - 1) // 2
    mismatched = set(edges_by_conjugate_scan(g)) ^ set(g.edges())
    if mismatched:
        u, v = min(mismatched)
        raise _Counterexample({
            "lam": format_partition(g.vertices[u]),
            "mu": format_partition(g.vertices[v]),
            "claim": "conjugate criterion must match adjacency"})
    if checked == 0:
        raise _Vacuous("no transfers, edges, or pairs")
    return f"{checked} checks"


def _suite_loops(ctx: NContext) -> str:
    """Seeded random closed walks all reduce to constant loops; descent and
    triangle validity are asserted inside every reduction step.

    Each distinct walk is reduced once, and a repeat counts the steps of
    that first, fully checked reduction.  reduce_loop depends on the walk
    alone, so reducing the repeat again would make the same checks on the
    same states and give the same trace.  Every walk is still drawn, from
    the same generator, so the walks and the step total are unchanged.
    """
    g = ctx.graph
    if g.edge_count() == 0:
        raise _Vacuous("no edges, no loops")
    rng = random.Random((ctx.seed or 0) * 1_000_003 + ctx.n)
    steps_by_walk: dict[tuple[int, ...], int] = {}
    total_steps = 0
    for _ in range(WALKS_PER_N):
        walk = random_closed_walk(g, rng)
        steps = steps_by_walk.get(walk.ids)
        if steps is None:
            try:
                trace = reduce_loop(walk)
            except TheoremViolationError as exc:
                raise _Counterexample({
                    "loop": format_loop(walk), "error": str(exc)})
            if not trace.final.is_constant:
                raise _Counterexample({
                    "loop": format_loop(walk), "claim": "reduction must end constant"})
            steps = steps_by_walk[walk.ids] = len(trace.steps)
        total_steps += steps
    return f"{WALKS_PER_N} walks, {total_steps} steps"


def _suite_homology(ctx: NContext) -> str:
    """Exact homology is concentrated in degree 2 with free rank chi - 1."""
    cplx = build_chain_complex(ctx.facets)
    if cplx.fvector != ctx.fvector.counts:
        raise _Counterexample({
            "chain_faces": list(cplx.fvector), "counted": list(ctx.fvector.counts)})
    report = reduced_homology(cplx)
    if not homology_concentrated(report):
        raise _Counterexample(report.to_json_dict())
    return report.summary()


def _suite_euler(ctx: NContext) -> str:
    """Subset enumeration versus graph-based fiber counting versus corner
    counting per partition versus the closed form in p(n) (fvector_table's
    row n, witness route "dp") versus tabulated values, plus the
    partition-count recurrence for the vertex count.  A fail witness names
    the route that disagreed with subset enumeration."""
    counted = ctx.fvector
    for route, other in (("fiber", fvector_by_fiber_counting(ctx.graph)),
                         ("corner", fvector_by_corner_counting(ctx.n)),
                         ("dp", fvector_table(ctx.n)[-1])):
        if counted.counts != other.counts:
            raise _Counterexample({
                "route": route, "counted": list(counted.counts),
                route: list(other.counts)})
    if counted.counts[0] != partition_count(ctx.n):
        raise _Counterexample({
            "vertices": counted.counts[0], "recurrence": partition_count(ctx.n)})
    chi = counted.euler_characteristic
    if ctx.n <= reference.MAX_TABULATED_N:
        if chi != reference.EULER_CHARACTERISTIC[ctx.n]:
            raise _Counterexample({
                "chi": chi, "reference": reference.EULER_CHARACTERISTIC[ctx.n]})
        if chi - 1 != reference.SPHERE_COUNT[ctx.n]:
            raise _Counterexample({
                "shifted": chi - 1, "reference": reference.SPHERE_COUNT[ctx.n]})
        return f"chi={chi} matches the tabulated value"
    return f"chi={chi} (beyond the tabulated range)"


# One suite per name in SUITE_ORDER, listed in that order.
_SUITE_FUNCS: dict[str, Callable[[NContext], str]] = {
    "triangles": _suite_triangles,
    "cliques": _suite_cliques,
    "facets": _suite_facets,
    "cover": _suite_cover,
    "nerve": _suite_nerve,
    "anchors": _suite_anchors,
    "poset": _suite_poset,
    "closure": _suite_closure,
    "heights": _suite_heights,
    "loops": _suite_loops,
    "homology": _suite_homology,
    "euler": _suite_euler,
}
if tuple(_SUITE_FUNCS) != SUITE_ORDER:
    raise RuntimeError(f"suites {tuple(_SUITE_FUNCS)} differ from SUITE_ORDER {SUITE_ORDER}")

# Suites about the cover, its nerve and poset: vacuous when the cover is empty.
_COVER_SUITES = frozenset({"cover", "nerve", "anchors", "poset", "closure"})


def run_suite(name: str, ctx: NContext) -> VerificationOutcome:
    """One suite at one n, recorded: its returned detail is a pass, a raised
    _Counterexample a fail with that witness, a raised _Vacuous a vacuous
    outcome, and any other exception a fail naming the error."""
    func = _SUITE_FUNCS[name]
    try:
        if name in _COVER_SUITES and not ctx.cover:
            raise _Vacuous("empty cover")
        return VerificationOutcome(name, ctx.n, PASS, detail=func(ctx))
    except _Counterexample as exc:
        return VerificationOutcome(name, ctx.n, FAIL, counterexample=exc.witness)
    except _Vacuous as exc:
        return VerificationOutcome(name, ctx.n, VACUOUS, detail=exc.detail)
    except Exception as exc:
        return VerificationOutcome(name, ctx.n, FAIL, counterexample={
            "error": str(exc), "type": type(exc).__name__})


def verify_single_n(n: int, suites, seed: Optional[int],
                    ignore_budget: bool = False) -> list[VerificationOutcome]:
    """All requested suites at one n, in canonical order, honoring budgets."""
    unknown = set(suites) - set(SUITE_ORDER)
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    ctx = NContext(n, seed)
    outcomes = []
    for name in SUITE_ORDER:
        if name not in suites:
            continue
        if not ignore_budget and n > BUDGETS[name]:
            outcomes.append(VerificationOutcome(
                name, n, SKIP,
                detail=f"n beyond default budget {BUDGETS[name]};"
                       " rerun with --ignore-budget"))
        else:
            outcomes.append(run_suite(name, ctx))
    return outcomes
