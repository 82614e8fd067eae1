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
    canonical_cover,
    classify_clique,
    classify_triangle,
    enumerate_simplices,
    full_star_simplex,
    full_top_simplex,
    fvector_by_corner_counting,
    fvector_by_fiber_counting,
    maximal_simplices,
    star_fiber,
    top_fiber,
)
from .graph import adjacency_by_conjugate, build_graph, edge_decompositions
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
    edge_decompositions_by_scan,
    full_simplex_by_scan,
    maximal_cliques_reference,
    partition_count,
)
from .partitions import (
    addable_corners,
    admissible_transfers,
    format_partition,
    height,
    removable_corners,
)

PASS = "pass"
FAIL = "fail"
VACUOUS = "vacuous"
SKIP = "skip"

SUITE_ORDER = (
    "triangles", "cliques", "facets", "cover", "nerve", "anchors",
    "poset", "closure", "heights", "loops", "homology", "euler",
)

# default per-suite caps on n; beyond these a run records a skip unless told
# to ignore budgets
BUDGETS = {
    "triangles": 12,
    "cliques": 12,
    "facets": 12,
    "cover": 12,
    "nerve": 12,
    "anchors": 12,
    "poset": 12,
    "closure": 10,
    "heights": 14,
    "loops": 12,
    "homology": 14,
    "euler": 25,
}

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
    def all_cliques(self):
        return all_cliques_reference(self.graph)

    @cached_property
    def poset(self):
        return build_poset(self.nerve)

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
    uniqueness of edge decompositions (checked against a corner-pair scan)."""
    g = ctx.graph
    checked = 0
    for lam_id, lam in enumerate(g.vertices):
        for i1, i2 in itertools.combinations(g.adjacency[lam_id], 2):
            mu1, mu2 = g.vertices[i1], g.vertices[i2]
            verdict = classify_triangle(lam, mu1, mu2)
            closed = i2 in g.adjacency_sets[i1]
            checked += 1
            if verdict.is_triangle != closed:
                return _fail("triangles", ctx, {
                    "lam": format_partition(lam),
                    "mu1": format_partition(mu1),
                    "mu2": format_partition(mu2),
                    "classified": verdict.kind,
                    "edge_present": closed,
                })
    for lam in g.vertices:
        for c in removable_corners(lam):
            for mu1, mu2 in itertools.combinations(star_fiber(lam, c), 2):
                checked += 1
                if g.index[mu2] not in g.adjacency_sets[g.index[mu1]]:
                    return _fail("triangles", ctx, {
                        "lam": format_partition(lam), "corner": list(c)[:2],
                        "mu1": format_partition(mu1), "mu2": format_partition(mu2),
                        "claim": "same-corner moves must be adjacent",
                    })
        for a in addable_corners(lam):
            for mu1, mu2 in itertools.combinations(top_fiber(lam, a), 2):
                checked += 1
                if g.index[mu2] not in g.adjacency_sets[g.index[mu1]]:
                    return _fail("triangles", ctx, {
                        "lam": format_partition(lam), "corner": list(a)[:2],
                        "mu1": format_partition(mu1), "mu2": format_partition(mu2),
                        "claim": "same-target moves must be adjacent",
                    })
    for u, v in g.edges():
        lam, mu = g.vertices[u], g.vertices[v]
        fast = edge_decompositions(lam, mu)
        brute = edge_decompositions_by_scan(lam, mu)
        checked += 1
        if fast != brute or len(fast) != 1:
            return _fail("triangles", ctx, {
                "lam": format_partition(lam), "mu": format_partition(mu),
                "fast": len(fast), "scan": len(brute),
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
        fiber = (star_fiber if verdict.kind == STAR else top_fiber)(
            verdict.base, verdict.corner)
        fiber_ids = {g.index[mu] for mu in fiber}
        if not set(clique) - {base_id} <= fiber_ids:
            return _fail("cliques", ctx, {
                "clique": _literals(g, clique), "kind": verdict.kind,
                "claim": "members must lie in the witness fiber"})
        base = g.vertices[base_id]
        decomps = [edge_decompositions(base, g.vertices[v])[0]
                   for v in clique if v != base_id]
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
    """Cover members are cliques matching each provenance (rebuilt by a
    corner-pair scan), and every clique of the graph lies inside some member."""
    if not ctx.cover:
        return _vacuous("cover", ctx, "empty cover")
    g = ctx.graph
    checked = 0
    for member in ctx.cover:
        for u, v in itertools.combinations(member.vertices, 2):
            checked += 1
            if v not in g.adjacency_sets[u]:
                return _fail("cover", ctx, {
                    "member": list(member.vertices),
                    "claim": "cover members must be cliques"})
        for kind, base_id, corner in member.provenances:
            checked += 1
            if full_simplex_by_scan(g, kind, base_id, corner) != member.vertices:
                return _fail("cover", ctx, {
                    "member": list(member.vertices), "kind": kind,
                    "base": format_partition(g.vertices[base_id]),
                    "claim": "provenance must rebuild the member"})
    member_sets = [set(member.vertices) for member in ctx.cover]
    for clique in ctx.all_cliques:
        checked += 1
        vertex_set = set(clique)
        if not any(vertex_set <= ms for ms in member_sets):
            return _fail("cover", ctx, {
                "clique": _literals(g, clique),
                "claim": "every clique lies in a cover member"})
    return _pass("cover", ctx, f"{checked} checks over {len(ctx.cover)} members")


def _count_intersecting_subfamilies(member_sets) -> tuple[int, ...]:
    """Brute route for the nerve f-vector: depth-first over subfamilies,
    extending only while the running intersection stays nonempty."""
    counts: list[int] = []

    def extend(start: int, current, size: int) -> None:
        for j in range(start, len(member_sets)):
            smaller = current & member_sets[j] if current is not None else member_sets[j]
            if smaller:
                while len(counts) <= size:
                    counts.append(0)
                counts[size] += 1
                extend(j + 1, smaller, size + 1)

    extend(0, None, 0)
    return tuple(counts)


def _suite_nerve(ctx: NContext) -> VerificationOutcome:
    """Nerve simplices match cliques (nonempty intersections exactly over
    cliques), and the anchored f-vector agrees with brute subfamily search
    and with the clique complex's Euler characteristic."""
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
    for u, v in itertools.combinations(range(len(g.vertices)), 2):
        if v not in g.adjacency_sets[u]:
            checked += 1
            if anchor_intersection_ids(nerve, (u, v)):
                return _fail("nerve", ctx, {
                    "pair": _literals(g, (u, v)),
                    "claim": "non-edges must have empty member intersection"})
    anchored = nerve_fvector(nerve)
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
            lam = g.vertices[vid]
            for c in removable_corners(lam):
                witnesses = [mu for mu in star_fiber(lam, c) if g.index[mu] in vertex_set]
                if len(witnesses) >= 2:
                    checked += 1
                    if member.vertices != full_star_simplex(g, lam, c):
                        return _fail("anchors", ctx, {
                            "member": list(member.vertices),
                            "base": format_partition(lam),
                            "claim": "two same-corner witnesses force the full simplex"})
            for a in addable_corners(lam):
                witnesses = [mu for mu in top_fiber(lam, a) if g.index[mu] in vertex_set]
                if len(witnesses) >= 2:
                    checked += 1
                    if member.vertices != full_top_simplex(g, lam, a):
                        return _fail("anchors", ctx, {
                            "member": list(member.vertices),
                            "base": format_partition(lam),
                            "claim": "two same-target witnesses force the full simplex"})
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
            c, a = edge_decompositions(g.vertices[first], g.vertices[second])[0]
            candidates = {
                full_star_simplex(g, g.vertices[first], c),
                full_top_simplex(g, g.vertices[first], a),
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
    chi_nerve = nerve_fvector(nerve).euler_characteristic
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


def _suite_closure(ctx: NContext) -> VerificationOutcome:
    """Closure-operator laws over every clique, the anchor-preservation
    property, and the bijection between closed cliques and poset elements
    (order-reversing both ways)."""
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
    fixed_sets = [set(closed) for closed in fixed]
    fixed_anchors = [anchor_intersection_ids(nerve, closed) for closed in fixed]
    for i, j in itertools.permutations(range(len(fixed)), 2):
        checked += 1
        if (fixed_sets[i] <= fixed_sets[j]) != (fixed_anchors[j] <= fixed_anchors[i]):
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
    for lam in g.vertices:
        base_height = height(lam)
        for c, a, mu in admissible_transfers(lam):
            checked += 1
            if height(mu) - base_height != a.row - c.row:
                return _fail("heights", ctx, {
                    "lam": format_partition(lam), "mu": format_partition(mu),
                    "from_row": c.row, "to_row": a.row,
                    "claim": "height change must equal the row difference"})
    for u, v in g.edges():
        checked += 1
        if g.heights[u] == g.heights[v]:
            return _fail("heights", ctx, {
                "lam": format_partition(g.vertices[u]),
                "mu": format_partition(g.vertices[v]),
                "claim": "adjacent partitions must differ in height"})
    for u, v in itertools.combinations(range(len(g.vertices)), 2):
        checked += 1
        by_conjugate = adjacency_by_conjugate(g.vertices[u], g.vertices[v]) is not None
        if by_conjugate != (v in g.adjacency_sets[u]):
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
    counting versus tabulated values, plus the partition-count recurrence
    for the vertex count.  A fail witness names the route that disagreed
    with subset enumeration."""
    counted = ctx.fvector
    for route, other in (("fiber", fvector_by_fiber_counting(ctx.graph)),
                         ("corner", fvector_by_corner_counting(ctx.n))):
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
    unknown = chosen - set(SUITE_ORDER)
    if unknown:
        raise ValueError(f"unknown suites: {sorted(unknown)}")
    outcomes = []
    for n in range(1, max_n + 1):
        outcomes.extend(verify_single_n(n, chosen, seed, ignore_budget))
    return outcomes
