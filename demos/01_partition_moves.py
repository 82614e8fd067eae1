"""Partitions, corners, and single-cell transfer moves.

A partition of n is drawn as a Ferrers diagram: row i holds lam[i-1] cells.
A transfer picks a removable corner cell and moves it to an addable corner
in a different row.  This script walks through the basic vocabulary.
"""

from partition_complex import (
    addable_corners,
    admissible_transfers,
    conjugate,
    enumerate_partitions,
    format_partition,
    height,
    removable_corners,
)


def show(lam):
    for part in lam:
        print("  " + "#" * part)


lam = (3, 1)
print(f"the diagram of {format_partition(lam)}:")
show(lam)
print(f"conjugate (column lengths): {format_partition(conjugate(lam))}")
print(f"height (sum of row index times row length): {height(lam)}")
print()

print("removable corners (cells that can leave):")
for c in removable_corners(lam):
    print(f"  row {c.row}, column {c.col}")
print("addable corners (slots that can receive):")
for a in addable_corners(lam):
    print(f"  row {a.row}, column {a.col}")
print()

print("every admissible transfer out of [3,1]:")
for c, a, result in admissible_transfers(lam):
    print(f"  move ({c.row},{c.col}) -> ({a.row},{a.col}): {format_partition(result)}"
          f"   height {height(lam)} -> {height(result)}")
print()

# The height change only depends on the two corner rows.
(mu,) = [result for c, a, result in admissible_transfers(lam)
         if (c.row, c.col, a.row, a.col) == (1, 3, 2, 2)]
print(f"moving (1,3) to (2,2) gives {format_partition(mu)}; "
      f"h changed by {height(mu) - height(lam)} = target row 2 - source row 1")
print()

n = 6
print(f"all {len(enumerate_partitions(n))} partitions of {n}, with heights:")
for lam in enumerate_partitions(n):
    print(f"  {format_partition(lam):14} h={height(lam)}")
