"""Cliques of the transfer graph and the flag complex they span.

Every triangle shares either its removable corner (a star triangle, apex
below) or its addable corner (a top triangle), read at the triangle's
lowest vertex.  That classification pins down all maximal cliques and makes
counting the complex's faces cheap.
"""

from partition_complex import (
    build_graph,
    classify_clique,
    classify_triangle,
    enumerate_simplices,
    format_partition,
    fvector_by_fiber_counting,
    maximal_simplices,
    star_fiber,
    top_fiber,
)

print("fibers of (3,1): the one-corner neighborhoods")
print(f"  star fiber at removable (1,3): "
      f"{[format_partition(m) for m in star_fiber((3, 1), (1, 3))]}")
print(f"  top fiber at addable (2,2):    "
      f"{[format_partition(m) for m in top_fiber((3, 1), (2, 2))]}")
print()

verdict = classify_triangle((3, 1), (2, 2), (2, 1, 1))
print(f"path (2,2) - (3,1) - (2,1,1) closes into a {verdict.kind} triangle "
      f"at corner ({verdict.corner.row},{verdict.corner.col})")
fails = classify_triangle((2, 1), (3,), (1, 1, 1))
print(f"path (3) - (2,1) - (1,1,1) classifies as '{fails.kind}': not a triangle")
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
    enumerated = enumerate_simplices(build_graph(n))
    counted = fvector_by_fiber_counting(build_graph(n))
    assert enumerated.counts == counted.counts
    print(f"  n={n}: f={enumerated.counts}  chi={enumerated.euler_characteristic}")
print()

print("euler characteristic and its shift, small n:")
for n in range(1, 13):
    chi = enumerate_simplices(build_graph(n)).euler_characteristic
    b = chi - 1
    print(f"  n={n:2}  chi={chi:3}  b={b:3}")
