"""The canonical cover, its nerve, and the poset of anchor intersections.

The full star- and top-simplices cover every clique of the complex.  The
nerve of that cover has the same euler characteristic as the complex, and
the distinct nonempty anchor intersections form a poset whose chains never
exceed three elements: the order complex is at most 2-dimensional.
"""

from partition_complex import (
    build_graph,
    build_nerve,
    build_poset,
    canonical_cover,
    enumerate_simplices,
    format_partition,
    max_chain_length,
    maximal_simplices,
    nerve_fvector,
    order_complex,
)
from partition_complex.nerve import anchor_intersection_ids, closure_ids

g = build_graph(4)
cover = canonical_cover(g)
print(f"canonical cover of the n=4 complex: {len(cover)} members")
for member_id, member in enumerate(cover):
    names = " ".join(format_partition(g.vertices[v]) for v in member.vertices)
    kinds = ",".join(sorted({kind for kind, _, _ in member.provenances}))
    print(f"  member {member_id}: {{{names}}}  ({kinds})")
print()

nerve = build_nerve(g, cover)
triangle = [g.vertex_id(lam) for lam in [(3, 1), (2, 2), (2, 1, 1)]]
print(f"anchor of (3,1): members {tuple(sorted(nerve.anchor_sets[triangle[0]]))}")
print(f"anchor intersection of the star triangle: "
      f"{tuple(sorted(anchor_intersection_ids(nerve, triangle)))}")
closed = closure_ids(nerve, triangle[:2])
print(f"closure of {{(3,1),(2,2)}}: {[format_partition(g.vertices[v]) for v in closed]}")
print()

print("nerve and complex agree on chi:")
for n in (2, 4, 8, 10):
    g_n = build_graph(n)
    nerve_n = build_nerve(g_n, canonical_cover(g_n))
    chi_nerve = nerve_fvector(build_poset(nerve_n)).euler_characteristic
    chi_complex = enumerate_simplices(maximal_simplices(g_n)).euler_characteristic
    print(f"  n={n:2}: chi(nerve)={chi_nerve:2}  chi(complex)={chi_complex:2}")
print()

print("anchor intersection posets stay shallow:")
for n in (2, 4, 8, 12):
    g_n = build_graph(n)
    poset = build_poset(build_nerve(g_n, canonical_cover(g_n)))
    chains = order_complex(poset)
    print(f"  n={n:2}: {len(poset.elements):4} elements, "
          f"longest chain {max_chain_length(poset)}, "
          f"order complex f={chains.fvector.counts} "
          f"chi={chains.fvector.euler_characteristic}")
