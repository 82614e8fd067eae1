"""Contracting closed walks by cutting their highest vertices.

Order loops by (max height H, number of peaks M).  A peak's two neighbors
are always strictly lower, and the peak can be bypassed either directly
(when the two edge moves share a corner) or through a strictly lower detour
vertex.  Every step decreases (H, M) or the length, so every loop shrinks
to a point; the trace is a contraction certificate.
"""

import random

from partition_complex import (
    build_graph,
    format_loop,
    parse_loop,
    random_closed_walk,
    reduce_loop,
)

g4 = build_graph(4)
for text in ["[4] [3,1] [4]", "[3,1] [2,2] [2,1,1] [3,1]"]:
    loop = parse_loop(g4, text)
    trace = reduce_loop(loop)
    heights = loop.heights()
    peak = max(heights)
    print(f"loop {text}   (H, M) = {(peak, heights.count(peak))}")
    for rule, step in trace.steps:
        print(f"  {rule:9} -> {format_loop(step)}")
    print()

g = build_graph(9)
rng = random.Random(2026)
walk = random_closed_walk(g, rng)
trace = reduce_loop(walk)
print(f"a random closed walk in the n=9 graph, length {len(walk)}:")
print(f"  {format_loop(walk)}")
print(f"reduced to {format_loop(trace.final)} in {len(trace.steps)} steps; "
      f"rules used: {sorted(set(rule for rule, _ in trace.steps))}")
print()

counts = {"shortcut": 0, "detour": 0, "normalize": 0}
longest = 0
for _ in range(300):
    walk = random_closed_walk(g, rng)
    trace = reduce_loop(walk)
    longest = max(longest, len(trace.steps))
    for rule, _ in trace.steps:
        counts[rule] += 1
print(f"300 more walks, all contracted; rule usage {counts}, "
      f"longest trace {longest} steps")
