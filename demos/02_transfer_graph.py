"""The transfer graph: partitions of n joined by single-cell moves.

Two partitions are adjacent exactly when their conjugates differ by moving
one unit from one entry to another.  The graph is connected for every n,
and each edge decomposes in exactly one way as a corner-to-corner transfer.
"""

from partition_complex import adjacency_by_conjugate, build_graph, cli, format_partition

for n in (1, 3, 4):
    g = build_graph(n)
    print(f"n={n}: {len(g.vertices)} vertices, {g.edge_count()} edges, "
          f"connected={g.is_connected()}")
print()

g = build_graph(4)
print("adjacency lists for n=4:")
for vid, lam in enumerate(g.vertices):
    targets = ", ".join(format_partition(g.vertices[other]) for other in g.adjacency[vid])
    print(f"  {format_partition(lam):12} -> {targets}")
print()

print("the conjugate criterion, on one edge and one non-edge:")
print(f"  (3,1) ~ (2,2)? columns (down, up) = {adjacency_by_conjugate((3, 1), (2, 2))}")
print(f"  (4) ~ (1,1,1,1)? {adjacency_by_conjugate((4,), (1, 1, 1, 1))}")
print()

print("each edge has exactly one transfer decomposition:")
for i, j in g.edges():
    lam, mu = g.vertices[i], g.vertices[j]
    c, a = g.moves[i][j]
    print(f"  {format_partition(lam):10} -> {format_partition(mu):10} "
          f"via ({c.row},{c.col}) -> ({a.row},{a.col})")
print()

print("DIMACS form of the n=3 path:")
cli.main(["export", "graph", "--n", "3"])
