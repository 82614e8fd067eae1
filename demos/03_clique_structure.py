"""Cliques of the transfer graph and the flag complex they span.

Every triangle shares either its removable corner (a star triangle, apex
below) or its addable corner (a top triangle), read at the triangle's
lowest vertex.  That classification pins down all maximal cliques and makes
counting the complex's faces cheap.
"""

from partition_complex import (
    build_graph,
    classify_clique,
    enumerate_simplices,
    format_partition,
    fvector_by_fiber_counting,
    maximal_simplices,
)


def fiber_names(g, fibers, row, col):
    """Partition literals of the fiber at the corner (row, col)."""
    (fiber,) = [f for c, f in fibers.items() if (c.row, c.col) == (row, col)]
    return [format_partition(g.vertices[v]) for v in fiber]


def triangle_verdict(g, lam, mu1, mu2):
    """(kind, corner) of the path mu1 - lam - mu2, from its two edges' corner pairs."""
    moves = g.moves[g.vertex_id(lam)]
    (c1, a1), (c2, a2) = moves[g.vertex_id(mu1)], moves[g.vertex_id(mu2)]
    if c1 == c2:
        return "star", c1
    if a1 == a2:
        return "top", a1
    return "none", None


g4 = build_graph(4)
base = g4.vertex_id((3, 1))
print("fibers of (3,1): the one-corner neighborhoods")
print(f"  star fiber at removable (1,3): {fiber_names(g4, g4.star[base], 1, 3)}")
print(f"  top fiber at addable (2,2):    {fiber_names(g4, g4.top[base], 2, 2)}")
print()

kind, corner = triangle_verdict(g4, (3, 1), (2, 2), (2, 1, 1))
print(f"path (2,2) - (3,1) - (2,1,1) closes into a {kind} triangle "
      f"at corner ({corner.row},{corner.col})")
kind, _ = triangle_verdict(build_graph(3), (2, 1), (3,), (1, 1, 1))
print(f"path (3) - (2,1) - (1,1,1) classifies as '{kind}': not a triangle")
print()

g = build_graph(6)
print("maximal cliques of the n=6 complex, each with its classification:")
for facet in maximal_simplices(g):
    members = " ".join(format_partition(g.vertices[v]) for v in facet)
    kind = classify_clique(g, facet).kind
    print(f"  [{kind:5}] {members}")
print()

print("face counts two ways (subset enumeration vs corner-fiber binomials):")
for n in (4, 6, 8):
    g_n = build_graph(n)
    enumerated = enumerate_simplices(maximal_simplices(g_n))
    counted = fvector_by_fiber_counting(g_n)
    assert enumerated.counts == counted.counts
    print(f"  n={n}: f={enumerated.counts}  chi={enumerated.euler_characteristic}")
print()

print("euler characteristic and its shift, small n:")
for n in range(1, 13):
    chi = enumerate_simplices(maximal_simplices(build_graph(n))).euler_characteristic
    b = chi - 1
    print(f"  n={n:2}  chi={chi:3}  b={b:3}")
