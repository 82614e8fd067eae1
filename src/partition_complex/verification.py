"""Machine checks of the structure theory, organized as named suites.

Each suite checks one cluster of claims for a single n and reports pass,
fail (with a concrete counterexample), or vacuous when the claim has no
instances at that n.  Suites at an n beyond their default runtime budget
are skipped with an explicit record instead of silently running long.

The checks deliberately pit independent routes against each other: the
classification-driven constructions on one side, and either brute-force
enumeration (all cliques, all subfamilies, corner-pair scans) or
independently tabulated values on the other.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

from . import reference
from .cliques import (
    STAR,
    TheoremViolationError,
    _full_simplex,
    _triangle_class,
    canonical_cover,
    classify_clique,
    enumerate_simplices,
    fvector_by_corner_counting,
    fvector_by_fiber_counting,
    fvector_table,
    maximal_simplices,
)
from .graph import build_graph
from .homology import HomologyReport, build_chain_complex, reduced_homology
from .loops import format_loop, random_closed_walk, reduce_loop
from .nerve import (
    anchor_intersection_ids,
    build_nerve,
    build_poset,
    closure_ids,
    max_chain_length,
    nerve_fvector,
    order_complex,
)
from .oracles import (
    all_cliques_reference,
    edges_by_conjugate_scan,
    maximal_cliques_reference,
    partition_count,
    transfers_by_scan,
)
from .partitions import format_partition

PASS = "pass"
FAIL = "fail"
VACUOUS = "vacuous"
SKIP = "skip"

SUITE_ORDER = (
    "triangles", "cliques", "facets", "cover", "nerve", "anchors",
    "poset", "closure", "heights", "loops", "homology", "euler",
)

# default per-suite caps on n; beyond these a run records a skip unless told
# to ignore budgets.  Each suite alone costs at most about 2 s at its cap on
# one 2-vCPU machine.  The `homology` subcommand shares the homology cap:
# the suite alone took 1.6-1.8 s at n = 32 and 2.2-2.4 s at n = 33.
BUDGETS = {**dict.fromkeys(SUITE_ORDER, 20), "homology": 32, "euler": 25}

WALKS_PER_N = 1000


@dataclass(frozen=True)
class VerificationOutcome:
    suite: str
    n: int
    status: str
    counterexample: Optional[dict] = None
    detail: Optional[str] = None

    def line(self) -> str:
        text = f"{self.suite} n={self.n}: {self.status}"
        if self.detail:
            text += f" ({self.detail})"
        if self.counterexample is not None:
            pairs = ", ".join(f"{k}={v}" for k, v in sorted(self.counterexample.items()))
            text += f" [{pairs}]"
        return text

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "n": self.n,
            "status": self.status,
            "counterexample": self.counterexample,
            "detail": self.detail,
        }


class NContext:
    """Shared per-n objects, built lazily and reused across suites."""

    def __init__(self, n: int, seed: Optional[int] = None):
        self.n = n
        self.seed = seed

    @cached_property
    def graph(self):
        return build_graph(self.n)

    @cached_property
    def cover(self):
        return canonical_cover(self.graph)

    @cached_property
    def nerve(self):
        return build_nerve(self.graph, self.cover)

    @cached_property
    def facets(self):
        return maximal_simplices(self.graph, self.cover)

    @cached_property
    def fvector(self):
        return enumerate_simplices(self.graph, facets=self.facets)

    @cached_property
    def nerve_fvector(self):
        return nerve_fvector(self.nerve)

    @cached_property
    def all_cliques(self):
        return all_cliques_reference(self.graph)

    @cached_property
    def poset(self):
        return build_poset(self.nerve)

    @cached_property
    def scans(self):
        """Each vertex's transfers by the corner-pair scan oracle, by id."""
        return [transfers_by_scan(lam) for lam in self.graph.vertices]

    @property
    def derived_seed(self) -> int:
        base = 0 if self.seed is None else self.seed
        return base * 1_000_003 + self.n


def _literals(g, ids) -> list[str]:
    """Partition literals of the given vertex ids, for a fail witness."""
    return [format_partition(g.vertices[v]) for v in ids]


def _pass(suite: str, ctx: NContext, detail: str) -> VerificationOutcome:
    return VerificationOutcome(suite, ctx.n, PASS, detail=detail)


def _fail(suite: str, ctx: NContext, witness: dict) -> VerificationOutcome:
    return VerificationOutcome(suite, ctx.n, FAIL, counterexample=witness)


def _vacuous(suite: str, ctx: NContext, detail: str) -> VerificationOutcome:
    return VerificationOutcome(suite, ctx.n, VACUOUS, detail=detail)


def _suite_triangles(ctx: NContext) -> VerificationOutcome:
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
            if verdict.is_triangle != closed:
                return _fail("triangles", ctx, {
                    "lam": format_partition(lam),
                    "mu1": format_partition(g.vertices[i1]),
                    "mu2": format_partition(g.vertices[i2]),
                    "classified": verdict.kind,
                    "edge_present": closed,
                })
    for lam_id, lam in enumerate(g.vertices):
        for fibers, claim in ((g.star[lam_id], "same-corner moves must be adjacent"),
                              (g.top[lam_id], "same-target moves must be adjacent")):
            for corner, fiber in fibers.items():
                for i1, i2 in itertools.combinations(fiber, 2):
                    checked += 1
                    if i2 not in g.moves[i1]:
                        return _fail("triangles", ctx, {
                            "lam": format_partition(lam), "corner": list(corner)[:2],
                            "mu1": format_partition(g.vertices[i1]),
                            "mu2": format_partition(g.vertices[i2]),
                            "claim": claim,
                        })
    for u, v in g.edges():
        lam, mu = g.vertices[u], g.vertices[v]
        brute = [(c, a) for c, a, moved in ctx.scans[u] if moved == mu]
        checked += 1
        if [g.moves[u][v]] != brute:
            return _fail("triangles", ctx, {
                "lam": format_partition(lam), "mu": format_partition(mu),
                "fast": 1, "scan": len(brute),
                "claim": "every edge has exactly one decomposition",
            })
    if checked == 0:
        return _vacuous("triangles", ctx, "no two-edge paths in this graph")
    return _pass("triangles", ctx, f"{checked} checks")


def _suite_cliques(ctx: NContext) -> VerificationOutcome:
    """Every clique of size >= 3 is star- or top-type at its lowest vertex,
    never both, and the witness fiber really contains the other members."""
    g = ctx.graph
    checked = 0
    for clique in ctx.all_cliques:
        if len(clique) < 3:
            continue
        checked += 1
        verdict = classify_clique(g, clique)
        base_id = min(clique, key=lambda vid: g.heights[vid])
        if g.vertex_id(verdict.base) != base_id:
            return _fail("cliques", ctx, {
                "clique": _literals(g, clique),
                "claim": "witness base must be the lowest vertex"})
        fibers = g.star if verdict.kind == STAR else g.top
        if not set(clique) - {base_id} <= set(fibers[base_id][verdict.corner]):
            return _fail("cliques", ctx, {
                "clique": _literals(g, clique), "kind": verdict.kind,
                "claim": "members must lie in the witness fiber"})
        decomps = [g.moves[base_id][v] for v in clique if v != base_id]
        star_shared = len({c for c, _ in decomps}) == 1
        top_shared = len({a for _, a in decomps}) == 1
        if star_shared and top_shared:
            return _fail("cliques", ctx, {
                "clique": _literals(g, clique),
                "claim": "a clique of size >= 3 cannot be both star- and top-type"})
    if checked == 0:
        return _vacuous("cliques", ctx, "no cliques of size 3 or more")
    return _pass("cliques", ctx, f"{checked} cliques classified")


def _suite_facets(ctx: NContext) -> VerificationOutcome:
    """Classification-derived facets against generic maximal-clique search."""
    ours = set(ctx.facets)
    oracle = set(maximal_cliques_reference(ctx.graph))
    if ours != oracle:
        extra = sorted(ours - oracle)[:3]
        missing = sorted(oracle - ours)[:3]
        return _fail("facets", ctx, {"extra": extra, "missing": missing})
    return _pass("facets", ctx, f"{len(ours)} facets agree")


def _suite_cover(ctx: NContext) -> VerificationOutcome:
    """Cover members are cliques matching each provenance (rebuilt from the
    base's corner-pair scan), and every clique of the graph lies inside some
    member, looked for among the members that hold its first vertex."""
    if not ctx.cover:
        return _vacuous("cover", ctx, "empty cover")
    g = ctx.graph
    checked = 0
    for member in ctx.cover:
        for u, v in itertools.combinations(member.vertices, 2):
            checked += 1
            if v not in g.moves[u]:
                return _fail("cover", ctx, {
                    "member": list(member.vertices),
                    "claim": "cover members must be cliques"})
        for kind, base_id, corner in member.provenances:
            checked += 1
            rebuilt = [base_id] + [g.index[moved] for c, a, moved in ctx.scans[base_id]
                                   if (c if kind == STAR else a) == corner]
            if tuple(sorted(rebuilt)) != member.vertices:
                return _fail("cover", ctx, {
                    "member": list(member.vertices), "kind": kind,
                    "base": format_partition(g.vertices[base_id]),
                    "claim": "provenance must rebuild the member"})
    member_sets = [set(member.vertices) for member in ctx.cover]
    holders = _postings(member_sets)
    for clique in ctx.all_cliques:
        checked += 1
        vertex_set = set(clique)
        if not any(vertex_set <= member_sets[j] for j in holders.get(clique[0], ())):
            return _fail("cover", ctx, {
                "clique": _literals(g, clique),
                "claim": "every clique lies in a cover member"})
    return _pass("cover", ctx, f"{checked} checks over {len(ctx.cover)} members")


def _postings(sets) -> dict[int, list[int]]:
    """For each element, the indices of the sets holding it, in increasing order."""
    postings: dict[int, list[int]] = {}
    for j, members in enumerate(sets):
        for x in members:
            postings.setdefault(x, []).append(j)
    return postings


def _count_intersecting_subfamilies(member_sets) -> tuple[int, ...]:
    """Brute route for the nerve f-vector: depth-first over subfamilies in
    member order, extending only while the running intersection stays
    nonempty.

    Members of an intersecting family meet pairwise, so a family whose last
    member is j grows only by the later members that meet j; those lists
    come from the members' own points.  Every counted family still has its
    intersection computed explicitly.
    """
    holders = _postings(member_sets)
    later = [sorted({k for x in members for k in holders[x] if k > j})
             for j, members in enumerate(member_sets)]
    counts: list[int] = []

    def extend(candidates, current, size: int) -> None:
        for k in candidates:
            smaller = current & member_sets[k] if current is not None else member_sets[k]
            if smaller:
                while len(counts) <= size:
                    counts.append(0)
                counts[size] += 1
                extend(later[k], smaller, size + 1)

    extend(range(len(member_sets)), None, 0)
    return tuple(counts)


def _suite_nerve(ctx: NContext) -> VerificationOutcome:
    """Nerve simplices match cliques (nonempty intersections exactly over
    cliques), and the anchored f-vector agrees with brute subfamily search
    and with the clique complex's Euler characteristic.

    Non-edges are checked through the pairs that do share a member, found
    by inverting the anchors: every such pair must be an edge, and the
    smallest one that is not is the witness.  The brute search extends a
    subfamily only over the later members that meet its last member.
    """
    if not ctx.cover:
        return _vacuous("nerve", ctx, "empty cover")
    g = ctx.graph
    nerve = ctx.nerve
    checked = 0
    for clique in ctx.all_cliques:
        checked += 1
        if not anchor_intersection_ids(nerve, clique):
            return _fail("nerve", ctx, {
                "clique": _literals(g, clique),
                "claim": "cliques must have nonempty member intersection"})
    vertex_count = len(g.vertices)
    checked += vertex_count * (vertex_count - 1) // 2 - g.edge_count()
    strays = [(u, v) for vids in _postings(nerve.anchor_sets).values()
              for u, v in itertools.combinations(vids, 2)
              if v not in g.moves[u]]
    if strays:
        return _fail("nerve", ctx, {
            "pair": _literals(g, min(strays)),
            "claim": "non-edges must have empty member intersection"})
    anchored = ctx.nerve_fvector
    brute = _count_intersecting_subfamilies(nerve.member_sets)
    if anchored.counts != brute:
        return _fail("nerve", ctx, {
            "anchored": list(anchored.counts), "brute": list(brute)})
    chi_complex = ctx.fvector.euler_characteristic
    if anchored.euler_characteristic != chi_complex:
        return _fail("nerve", ctx, {
            "nerve_chi": anchored.euler_characteristic, "complex_chi": chi_complex})
    return _pass("nerve", ctx,
                 f"{checked} intersections, {sum(brute)} nerve simplices")


def _suite_anchors(ctx: NContext) -> VerificationOutcome:
    """Anchor membership, the two-witness rigidity of full simplices, the
    candidate list for edge intersections, and the single-member rule for
    larger cliques."""
    if not ctx.cover:
        return _vacuous("anchors", ctx, "empty cover")
    g = ctx.graph
    nerve = ctx.nerve
    checked = 0
    for vid in range(len(g.vertices)):
        members = nerve.anchor_sets[vid]
        for mid, member_set in enumerate(nerve.member_sets):
            checked += 1
            if (mid in members) != (vid in member_set):
                return _fail("anchors", ctx, {
                    "vertex": format_partition(g.vertices[vid]), "member": mid,
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
                            return _fail("anchors", ctx, {
                                "member": list(member.vertices),
                                "base": format_partition(g.vertices[vid]),
                                "claim": claim})
    for u, v in g.edges():
        common = anchor_intersection_ids(nerve, (u, v))
        checked += 1
        if not 1 <= len(common) <= 3:
            return _fail("anchors", ctx, {
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
                    return _fail("anchors", ctx, {
                        "edge": _literals(g, (u, v)),
                        "member": list(nerve.cover[mid].vertices),
                        "claim": "edge-intersection members come from the candidate list"})
    for clique in ctx.all_cliques:
        if len(clique) >= 3:
            checked += 1
            if len(anchor_intersection_ids(nerve, clique)) != 1:
                return _fail("anchors", ctx, {
                    "clique": _literals(g, clique),
                    "claim": "larger cliques lie in exactly one member"})
    return _pass("anchors", ctx, f"{checked} checks")


def _suite_poset(ctx: NContext) -> VerificationOutcome:
    """Restricted poset generators match the all-cliques definition, chains
    stay short, non-singleton elements are single-vertex or single-edge
    intersections, and all three Euler characteristics agree."""
    if not ctx.cover:
        return _vacuous("poset", ctx, "empty cover")
    g = ctx.graph
    nerve = ctx.nerve
    poset = ctx.poset
    unrestricted = set()
    for clique in ctx.all_cliques:
        common = anchor_intersection_ids(nerve, clique)
        if common:
            unrestricted.add(tuple(sorted(common)))
    if set(poset.elements) != unrestricted:
        return _fail("poset", ctx, {
            "restricted": len(poset.elements), "unrestricted": len(unrestricted)})
    chain = max_chain_length(poset)
    if chain > 2:
        return _fail("poset", ctx, {"max_chain_length": chain})
    single_vertex = {tuple(sorted(s)) for s in nerve.anchor_sets if s}
    single_edge = set()
    for u, v in g.edges():
        common = anchor_intersection_ids(nerve, (u, v))
        if common:
            single_edge.add(tuple(sorted(common)))
    for element in poset.elements:
        if len(element) >= 2 and element not in single_vertex and element not in single_edge:
            return _fail("poset", ctx, {
                "element": list(element),
                "claim": "non-singleton elements arise from a vertex or an edge"})
    chains = order_complex(poset)
    chi_complex = ctx.fvector.euler_characteristic
    chi_nerve = ctx.nerve_fvector.euler_characteristic
    chi_chains = chains.fvector.euler_characteristic
    if not chi_chains == chi_nerve == chi_complex:
        return _fail("poset", ctx, {
            "chain_chi": chi_chains, "nerve_chi": chi_nerve, "complex_chi": chi_complex})
    if poset.elements and len(chains.fvector.counts) - 1 != chain:
        return _fail("poset", ctx, {
            "chain_dimension": len(chains.fvector.counts) - 1,
            "max_chain_length": chain})
    return _pass("poset", ctx,
                 f"{len(poset.elements)} elements, longest chain {chain}")


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


def _suite_closure(ctx: NContext) -> VerificationOutcome:
    """Closure-operator laws over every clique, the anchor-preservation
    property, and the bijection between closed cliques and poset elements
    (order-reversing both ways).

    The order reversal compares two relations computed in full over the
    closed cliques: inclusion of their vertex sets, and reversed inclusion
    of their member intersections, each from one posting list per element.
    A fail names the smallest pair on which they differ.
    """
    if not ctx.cover:
        return _vacuous("closure", ctx, "empty cover")
    g = ctx.graph
    nerve = ctx.nerve
    checked = 0
    cache: dict[tuple[int, ...], tuple[int, ...]] = {}

    def close(ids) -> tuple[int, ...]:
        key = tuple(sorted(ids))
        if key not in cache:
            cache[key] = closure_ids(nerve, key)
        return cache[key]

    for clique in ctx.all_cliques:
        closed = close(clique)
        checked += 1
        if not set(clique) <= set(closed):
            return _fail("closure", ctx, {
                "clique": _literals(g, clique),
                "claim": "closure must contain its argument"})
        if close(closed) != closed:
            return _fail("closure", ctx, {
                "clique": _literals(g, clique),
                "claim": "closure must be idempotent"})
        if (anchor_intersection_ids(nerve, closed)
                != anchor_intersection_ids(nerve, clique)):
            return _fail("closure", ctx, {
                "clique": _literals(g, clique),
                "claim": "closure must preserve the member intersection"})
        for size in range(1, len(clique)):
            for sub in itertools.combinations(clique, size):
                checked += 1
                if not set(close(sub)) <= set(closed):
                    return _fail("closure", ctx, {
                        "clique": _literals(g, clique),
                        "subset": _literals(g, sub),
                        "claim": "closure must be monotone"})
    fixed = sorted({close(clique) for clique in ctx.all_cliques})
    anchors_seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for closed in fixed:
        common = tuple(sorted(anchor_intersection_ids(nerve, closed)))
        if common in anchors_seen:
            return _fail("closure", ctx, {
                "first": list(anchors_seen[common]), "second": list(closed),
                "claim": "closed cliques map injectively to intersections"})
        anchors_seen[common] = closed
    if set(anchors_seen) != set(ctx.poset.elements):
        return _fail("closure", ctx, {
            "closed_images": len(anchors_seen), "poset": len(ctx.poset.elements),
            "claim": "closed cliques map onto the poset"})
    included = _inclusions(fixed)
    reversed_anchors = {(i, j) for j, i in _inclusions(
        [anchor_intersection_ids(nerve, closed) for closed in fixed])}
    checked += len(fixed) * (len(fixed) - 1)
    if included != reversed_anchors:
        i, j = min(included ^ reversed_anchors)
        return _fail("closure", ctx, {
            "first": list(fixed[i]), "second": list(fixed[j]),
            "claim": "inclusion of closed cliques reverses on intersections"})
    return _pass("closure", ctx, f"{checked} checks, {len(fixed)} closed cliques")


def _suite_heights(ctx: NContext) -> VerificationOutcome:
    """Height change equals the row difference of the corners, adjacent
    heights always differ, and the conjugate criterion reproduces adjacency
    on every vertex pair."""
    g = ctx.graph
    checked = 0
    for u, moves in enumerate(g.moves):
        for v, (c, a) in moves.items():
            checked += 1
            if g.heights[v] - g.heights[u] != a.row - c.row:
                return _fail("heights", ctx, {
                    "lam": format_partition(g.vertices[u]),
                    "mu": format_partition(g.vertices[v]),
                    "from_row": c.row, "to_row": a.row,
                    "claim": "height change must equal the row difference"})
    for u, v in g.edges():
        checked += 1
        if g.heights[u] == g.heights[v]:
            return _fail("heights", ctx, {
                "lam": format_partition(g.vertices[u]),
                "mu": format_partition(g.vertices[v]),
                "claim": "adjacent partitions must differ in height"})
    vertex_count = len(g.vertices)
    checked += vertex_count * (vertex_count - 1) // 2
    mismatched = set(edges_by_conjugate_scan(g)) ^ set(g.edges())
    if mismatched:
        u, v = min(mismatched)
        return _fail("heights", ctx, {
            "lam": format_partition(g.vertices[u]),
            "mu": format_partition(g.vertices[v]),
            "claim": "conjugate criterion must match adjacency"})
    if checked == 0:
        return _vacuous("heights", ctx, "no transfers, edges, or pairs")
    return _pass("heights", ctx, f"{checked} checks")


def _suite_loops(ctx: NContext) -> VerificationOutcome:
    """Seeded random closed walks all reduce to constant loops; descent and
    triangle validity are asserted inside every reduction step."""
    g = ctx.graph
    if g.edge_count() == 0:
        return _vacuous("loops", ctx, "no edges, no loops")
    rng = random.Random(ctx.derived_seed)
    total_steps = 0
    for _ in range(WALKS_PER_N):
        walk = random_closed_walk(g, rng)
        try:
            trace = reduce_loop(walk)
        except TheoremViolationError as exc:
            return _fail("loops", ctx, {
                "loop": format_loop(walk), "error": str(exc)})
        if not trace.final.is_constant:
            return _fail("loops", ctx, {
                "loop": format_loop(walk), "claim": "reduction must end constant"})
        total_steps += len(trace.steps)
    return _pass("loops", ctx, f"{WALKS_PER_N} walks, {total_steps} steps")


def homology_concentrated(report: HomologyReport, chi: int) -> bool:
    """True when reduced homology is free of rank chi - 1 in degree 2 and
    trivial everywhere else, torsion included."""
    reduced = list(report.reduced_betti) + [0, 0, 0]
    return (
        reduced[0] == 0 and reduced[1] == 0
        and reduced[2] == chi - 1
        and all(b == 0 for b in reduced[3:])
        and all(not t for t in report.torsion)
    )


def _suite_homology(ctx: NContext) -> VerificationOutcome:
    """Exact homology is concentrated in degree 2 with free rank chi - 1."""
    cplx = build_chain_complex(ctx.facets)
    if cplx.fvector != ctx.fvector.counts:
        return _fail("homology", ctx, {
            "chain_faces": list(cplx.fvector), "counted": list(ctx.fvector.counts)})
    report = reduced_homology(cplx)
    chi = ctx.fvector.euler_characteristic
    if not homology_concentrated(report, chi):
        return _fail("homology", ctx, report.to_json_dict())
    return _pass("homology", ctx, report.summary())


def _suite_euler(ctx: NContext) -> VerificationOutcome:
    """Subset enumeration versus graph-based fiber counting versus corner
    counting per partition versus the sweep over part values (its row n)
    versus tabulated values, plus the partition-count recurrence for the
    vertex count.  A fail witness names the route that disagreed with
    subset enumeration."""
    counted = ctx.fvector
    for route, other in (("fiber", fvector_by_fiber_counting(ctx.graph)),
                         ("corner", fvector_by_corner_counting(ctx.n)),
                         ("dp", fvector_table(ctx.n)[-1])):
        if counted.counts != other.counts:
            return _fail("euler", ctx, {
                "route": route, "counted": list(counted.counts),
                route: list(other.counts)})
    if counted.counts[0] != partition_count(ctx.n):
        return _fail("euler", ctx, {
            "vertices": counted.counts[0], "recurrence": partition_count(ctx.n)})
    chi = counted.euler_characteristic
    if ctx.n <= reference.MAX_TABULATED_N:
        if chi != reference.EULER_CHARACTERISTIC[ctx.n]:
            return _fail("euler", ctx, {
                "chi": chi, "reference": reference.EULER_CHARACTERISTIC[ctx.n]})
        if chi - 1 != reference.SPHERE_COUNT[ctx.n]:
            return _fail("euler", ctx, {
                "shifted": chi - 1, "reference": reference.SPHERE_COUNT[ctx.n]})
        return _pass("euler", ctx, f"chi={chi} matches the tabulated value")
    return _pass("euler", ctx, f"chi={chi} (beyond the tabulated range)")


_SUITE_FUNCS: dict[str, Callable[[NContext], VerificationOutcome]] = {
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


def run_suite(name: str, ctx: NContext) -> VerificationOutcome:
    """One suite at one n; any exception it raises becomes a fail outcome."""
    func = _SUITE_FUNCS[name]
    try:
        return func(ctx)
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


def run_verification(max_n: int, suites, seed: Optional[int] = None,
                     ignore_budget: bool = False) -> list[VerificationOutcome]:
    chosen = set(suites)
    outcomes = []
    for n in range(1, max_n + 1):
        outcomes.extend(verify_single_n(n, chosen, seed, ignore_budget))
    return outcomes
