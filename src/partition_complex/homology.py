"""Exact integer simplicial homology of a complex given by its facets.

Boundary matrices are built with alternating signs over sorted vertex order
and reduced with exact arbitrary-precision integer arithmetic.  Ranks and
invariant factors come from Smith normal form: a sparse elimination pass
consumes the plentiful unit entries of boundary matrices, and whatever
residue remains (the only possible source of torsion) goes through a dense
minimum-pivot reduction.  No floating point, no fixed-width integers.

The maps are reduced with clearing (Chen & Kerber, "Persistent homology
computation with a twist", EuroCG 2011): first the boundary map out of
dimension 1, then from the top dimension down to dimension 2.  Each map
leaves out the columns that the sparse unit pivots of the map above used as
rows, and the map out of dimension 2 also leaves out the rows that those of
the map out of dimension 1 used as columns.  Every such pivot is an
elementary reduction of the whole complex (Kaczynski, Mrozek & Slusarek,
"Homology computation by reduction of chain complexes", 1998), so ranks and
invariant factors are exactly those of the full maps.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from math import gcd
from typing import Container, Iterable, Sequence

from .partitions import TheoremViolationError


class EmptyComplexError(ValueError):
    """A chain complex cannot be built from an empty facet list."""


def _alternating_sum(values: Iterable[int]) -> int:
    """values[0] - values[1] + values[2] - ..., e.g. chi from an f-vector."""
    return sum(-v if p % 2 else v for p, v in enumerate(values))


@dataclass(frozen=True)
class ChainComplex:
    """Per-dimension simplex bases and sparse boundary matrices.

    basis[p] lists the p-simplices as sorted vertex-id tuples, sorted.
    boundaries[p] (p >= 1) holds one {row_index: sign} column per p-simplex,
    mapping into the (p-1)-basis; boundaries[0] is the empty list standing
    for the zero map out of dimension 0.
    """

    basis: tuple[tuple[tuple[int, ...], ...], ...]
    boundaries: tuple[tuple[dict[int, int], ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.basis) - 1

    @property
    def fvector(self) -> tuple[int, ...]:
        return tuple(len(simplices) for simplices in self.basis)

    @property
    def euler_characteristic(self) -> int:
        return _alternating_sum(self.fvector)


@dataclass(frozen=True)
class HomologyReport:
    """Betti numbers and torsion per dimension, unreduced and reduced."""

    fvector: tuple[int, ...]
    betti: tuple[int, ...]
    torsion: tuple[tuple[int, ...], ...]

    @property
    def reduced_betti(self) -> tuple[int, ...]:
        return (self.betti[0] - 1,) + self.betti[1:]

    @property
    def euler_characteristic(self) -> int:
        return _alternating_sum(self.fvector)

    @property
    def reduced_euler_characteristic(self) -> int:
        return self.euler_characteristic - 1

    def summary(self) -> str:
        """One line naming every nonvanishing reduced homology group."""
        groups = []
        for p, b in enumerate(self.reduced_betti):
            pieces = []
            if b == 1:
                pieces.append("Z")
            elif b > 1:
                pieces.append(f"Z^{b}")
            pieces.extend(f"Z/{d}" for d in self.torsion[p])
            if pieces:
                groups.append(f"H~{p}={'+'.join(pieces)}")
        body = ", ".join(groups) if groups else "trivial in all degrees"
        return f"reduced homology: {body}; euler characteristic {self.euler_characteristic}"

    def to_json_dict(self) -> dict:
        dims = {
            str(p): {"betti": self.betti[p], "torsion": list(self.torsion[p])}
            for p in range(len(self.betti))
        }
        return {
            "dimensions": dims,
            "reduced_betti": list(self.reduced_betti),
            "euler_characteristic": self.euler_characteristic,
            "reduced_euler_characteristic": self.reduced_euler_characteristic,
        }


def build_chain_complex(facets: Iterable[Sequence[int]]) -> ChainComplex:
    """All faces of the given facets, with boundary matrices, checked to compose to zero."""
    facet_tuples = [tuple(sorted(facet)) for facet in facets]
    if not facet_tuples:
        raise EmptyComplexError("no facets given")
    for facet in facet_tuples:
        if len(set(facet)) != len(facet):
            raise ValueError(f"facet with repeated vertices: {facet}")
    max_dim = max(len(facet) for facet in facet_tuples) - 1
    per_dim: list[set[tuple[int, ...]]] = [set() for _ in range(max_dim + 1)]
    for facet in facet_tuples:
        for size in range(1, len(facet) + 1):
            per_dim[size - 1].update(itertools.combinations(facet, size))
    basis = tuple(tuple(sorted(simplices)) for simplices in per_dim)
    index = [{simplex: i for i, simplex in enumerate(simplices)} for simplices in basis]
    boundaries: list[tuple[dict[int, int], ...]] = [()]
    for p in range(1, max_dim + 1):
        lower = index[p - 1]
        columns = []
        for simplex in basis[p]:
            column = {}
            for drop in range(len(simplex)):
                face = simplex[:drop] + simplex[drop + 1 :]
                column[lower[face]] = -1 if drop % 2 else 1
            columns.append(column)
        boundaries.append(tuple(columns))
    cplx = ChainComplex(basis, tuple(boundaries))
    _check_boundaries_compose_to_zero(cplx)
    return cplx


def _check_boundaries_compose_to_zero(cplx: ChainComplex) -> None:
    for p in range(2, cplx.dimension + 1):
        lower = cplx.boundaries[p - 1]
        for column in cplx.boundaries[p]:
            acc: dict[int, int] = {}
            for face, sign in column.items():
                for face2, sign2 in lower[face].items():
                    acc[face2] = acc.get(face2, 0) + sign * sign2
            if any(acc.values()):
                raise TheoremViolationError(f"boundary of boundary must vanish in dimension {p}")


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> tuple[int, tuple[int, ...]]:
    """Rank and nontrivial invariant factors of an integer matrix, exactly.

    Dense elimination with pivoting on a minimum-absolute-value entry;
    remainders swap into the pivot seat, so pivot magnitudes only shrink.
    A final gcd/lcm sweep restores the divisibility chain.
    """
    work = [[int(v) for v in row] for row in matrix]
    nrows = len(work)
    ncols = len(work[0]) if nrows else 0
    if nrows and any(len(row) != ncols for row in work):
        raise ValueError("ragged matrix")
    diag: list[int] = []
    top = 0
    while top < nrows and top < ncols:
        pivot = None
        for i in range(top, nrows):
            row = work[i]
            for j in range(top, ncols):
                value = row[j]
                if value and (pivot is None or abs(value) < abs(pivot[2])):
                    pivot = (i, j, value)
                    if abs(value) == 1:
                        break
            if pivot is not None and abs(pivot[2]) == 1:
                break
        if pivot is None:
            break
        pi, pj, _ = pivot
        work[top], work[pi] = work[pi], work[top]
        if pj != top:
            for row in work:
                row[top], row[pj] = row[pj], row[top]
        while True:
            touched = False
            for i in range(top + 1, nrows):
                if work[i][top]:
                    q = work[i][top] // work[top][top]
                    if q:
                        row_i, row_t = work[i], work[top]
                        for j in range(top, ncols):
                            row_i[j] -= q * row_t[j]
                    if work[i][top]:
                        work[i], work[top] = work[top], work[i]
                    touched = True
                    break
            if touched:
                continue
            for j in range(top + 1, ncols):
                if work[top][j]:
                    q = work[top][j] // work[top][top]
                    if q:
                        for row in work:
                            row[j] -= q * row[top]
                    if work[top][j]:
                        for row in work:
                            row[top], row[j] = row[j], row[top]
                    touched = True
                    break
            if not touched:
                break
        diag.append(abs(work[top][top]))
        top += 1
    _normalize_divisibility(diag)
    return len(diag), tuple(d for d in diag if d > 1)


def _normalize_divisibility(diag: list[int]) -> None:
    """Rework a diagonal so each entry divides the next (gcd/lcm exchanges)."""
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if b % a:
                g = gcd(a, b)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True


def _sparse_rank_and_factors(
    columns: Sequence[dict[int, int]], skip_rows: Container[int], skip_cols: Container[int]
) -> tuple[int, tuple[int, ...], list[tuple[int, int]]]:
    """Rank, invariant factors and sparse unit pivots of a boundary matrix.

    The matrix is given by columns; the rows in skip_rows and the columns in
    skip_cols are left out.  Unit pivots are eliminated greedily, smallest
    column first, each being an invariant factor 1.  The unit-free residue is
    handed to the dense Smith reduction; its factors already form a
    divisibility chain, and factors 1 divide everything, so the combined
    chain needs no rework.  The (row, column) of every sparse unit pivot is
    returned, in elimination order.

    Clearing lemma: the sparse unit pivots (a_t, b_t) of d_{p+1} span a
    square submatrix whose successive pivots are all +-1, so it is
    invertible over Z.  Since d_p d_{p+1} = 0, the columns a_t of d_p are
    then integer combinations of its other columns, and deleting them leaves
    the Smith form of d_p unchanged.  Dually, the sparse unit pivots (v_t,
    e_t) of d_p make the rows e_t of d_{p+1} integer combinations of its
    other rows.  Both hold for any subset of rows and columns already left
    out.  Pivots of the dense residue are not returned: they may be
    non-units (the 2 of the projective plane), and its row and column
    swaps do not pick out an invertible submatrix of the input.
    """
    rows: dict[int, dict[int, int]] = {}
    col_rows: dict[int, set[int]] = {}
    for j, column in enumerate(columns):
        if j in skip_cols:
            continue
        for i, value in column.items():
            if value and i not in skip_rows:
                rows.setdefault(i, {})[j] = value
                col_rows.setdefault(j, set()).add(i)
    pivots: list[tuple[int, int]] = []
    heap = [(len(members), j) for j, members in col_rows.items()]
    heapq.heapify(heap)
    deferred: list[int] = []
    while heap or deferred:
        if not heap:
            revived = [j for j in deferred if j in col_rows and any(
                abs(rows[i][j]) == 1 for i in col_rows[j])]
            if not revived:
                break
            deferred = [j for j in deferred if j not in revived]
            heap = [(len(col_rows[j]), j) for j in revived]
            heapq.heapify(heap)
        nnz, j = heapq.heappop(heap)
        if j not in col_rows or not col_rows[j]:
            col_rows.pop(j, None)
            continue
        if len(col_rows[j]) != nnz:
            heapq.heappush(heap, (len(col_rows[j]), j))
            continue
        unit_rows = [i for i in col_rows[j] if abs(rows[i][j]) == 1]
        if not unit_rows:
            deferred.append(j)
            continue
        pivot_row = min(unit_rows, key=lambda i: (len(rows[i]), i))
        pivot_sign = rows[pivot_row][j]
        pivot_entries = rows.pop(pivot_row)
        for j2 in pivot_entries:
            col_rows[j2].discard(pivot_row)
        for i in list(col_rows[j]):
            coef = rows[i][j] * pivot_sign
            row_i = rows[i]
            for j2, v2 in pivot_entries.items():
                new = row_i.get(j2, 0) - coef * v2
                if new:
                    row_i[j2] = new
                    col_rows.setdefault(j2, set()).add(i)
                else:
                    if j2 in row_i:
                        del row_i[j2]
                        col_rows[j2].discard(i)
            if not row_i:
                del rows[i]
        del col_rows[j]
        pivots.append((pivot_row, j))
    live_rows = sorted(rows)
    live_cols = sorted({j for row in rows.values() for j in row})
    if live_rows:
        col_pos = {j: k for k, j in enumerate(live_cols)}
        dense = [[0] * len(live_cols) for _ in live_rows]
        for k, i in enumerate(live_rows):
            for j, v in rows[i].items():
                dense[k][col_pos[j]] = v
        residual_rank, factors = smith_normal_form(dense)
        return len(pivots) + residual_rank, factors, pivots
    return len(pivots), (), pivots


def reduced_homology(cplx: ChainComplex) -> HomologyReport:
    """Betti numbers and torsion in every dimension of the complex.

    The ranks are checked against two bounds that hold for any chain
    complex: 0 <= rank d_p <= min(f_{p-1}, f_p), and rank d_p +
    rank d_{p+1} <= f_p, since d_p d_{p+1} = 0 puts the image of d_{p+1}
    in the kernel of d_p.  A rank that breaks either raises
    TheoremViolationError.  (The alternating Betti sum is no check: it
    telescopes to chi for any ranks at all.)  A rank that comes out too low
    breaks neither bound; only tests that know the answer catch it.
    """
    fvector = cplx.fvector
    top = cplx.dimension
    ranks = [0] * (top + 2)
    torsion: list[tuple[int, ...]] = [()] * (top + 1)
    # d_1 first, so that d_2 can leave out the rows its pivots paired, then
    # top down, so that each map can leave out the columns paired above it.
    pivots: dict[int, list[tuple[int, int]]] = {}
    for p in ([1] + list(range(top, 1, -1)) if top else []):
        ranks[p], torsion[p - 1], pivots[p] = _sparse_rank_and_factors(
            cplx.boundaries[p],
            skip_rows={col for _, col in pivots.get(p - 1, ())},
            skip_cols={row for row, _ in pivots.pop(p + 1, ())})
    for p in range(1, top + 1):
        if not 0 <= ranks[p] <= min(fvector[p - 1], fvector[p]):
            raise TheoremViolationError(
                f"rank {ranks[p]} of the boundary map out of dimension {p} is"
                f" outside [0, min({fvector[p - 1]}, {fvector[p]})]")
    for p in range(top + 1):
        if ranks[p] + ranks[p + 1] > fvector[p]:
            raise TheoremViolationError(
                f"ranks {ranks[p]} and {ranks[p + 1]} of the maps into and out"
                f" of dimension {p} exceed its {fvector[p]} simplices")
    betti = tuple(fvector[p] - ranks[p] - ranks[p + 1] for p in range(top + 1))
    return HomologyReport(fvector, betti, tuple(torsion))
