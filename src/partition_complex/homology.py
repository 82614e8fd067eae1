"""Exact integer simplicial homology of a complex given by its facets.

A complex is stored as its f-vector and its boundary maps, and its
simplices are never kept: the basis of dimension p is the lex order of the
sorted vertex tuples of its p-simplices, fixed by the facets.  The
boundary map out of dimension p is p + 1 rows of face indices, one entry
per p-simplex: entry j of row k is the face of simplex j without its
vertex k, whose sign (-1)^k over sorted vertex order is implied, not
stored.  The build goes one dimension at a time and holds the simplex
tuples of at most two dimensions at once.  Each row is one stride slice of
the build's lookup list, and no column is ever held as a tuple.  Every
ChainComplex, built or written by hand, is checked once, on construction:
each row entry must be a face index in range, and the rows must satisfy
the face identities d_a d_b = d_{b-1} d_a (a < b), each as two whole-row
gathers compared; with the signs (-1)^k they force d d = 0, so a complex
that passes is a chain complex.  The maps are reduced with exact
arbitrary-precision integer arithmetic.  No floating point, no
fixed-width integers.

The map out of dimension 1 is a graph incidence matrix: a union-find
spanning forest, built in column order, is kept as its edge ids; their
number is the rank, f_0 minus the number of components, and there is no
torsion.  Every other map gets one left-to-right reduction over sparse
lines, on whichever side has fewer of them: its columns, or its rows in
descending order (Bauer, "Ripser: efficient computation of Vietoris-Rips
persistence barcodes", J. Appl. Comput. Topol. 5, 2021, on apparent pairs
and on reducing the coboundary side).  A line's pivot is its leading
index; it is combined only with earlier pivot lines, and only +-1 pivots
are kept.  The apparent lines, whose +-1 leading entry no earlier such
line shares, are read in bulk off the rows and taken first, as they are;
only the other lines are built as sparse lines and reduced, in their
original order.  On K_n every line is apparent (all 100,013 lines of the
six sparse maps at n = 30), so no combination runs at all.  Lines whose
leading entry is not a unit form the residue; once the pivot indices are
cleared from it, it goes to a dense Smith normal form, the only place
torsion can come from.

The maps are reduced with clearing (Chen & Kerber, "Persistent homology
computation with a twist", EuroCG 2011): first the map out of dimension 1,
then from the top dimension down to dimension 2.  Each map leaves out the
columns that the unit pivots of the map above used as rows, and the map out
of dimension 2 also leaves out the forest's edges as rows.  Every such
pivot is an elementary reduction of the whole complex (Kaczynski, Mrozek &
Slusarek, "Homology computation by reduction of chain complexes", 1998),
so ranks and invariant factors are exactly those of the full maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, compress, filterfalse, repeat
from math import gcd
from operator import indexOf, ne, neg
from typing import Collection, Iterable, Sequence

from .partitions import TheoremViolationError, _alternating_sum


class EmptyComplexError(ValueError):
    """A chain complex cannot be built from an empty facet list."""


@dataclass(frozen=True)
class ChainComplex:
    """Per-dimension simplex counts and sparse boundary matrices.

    fvector[p] counts the p-simplices.  The basis of dimension p is their
    sorted vertex-id tuples in lex order; it is implied, never stored.
    boundaries[p] (p >= 1) holds p + 1 rows, lists of f_p indices into the
    (p-1)-basis: boundaries[p][k][j] is the index of the face s[:k] +
    s[k+1:] of s, the j-th p-simplex, with sign (-1)^k, which is not
    stored.  Column j of the map is entry j of every row.  boundaries[0]
    is the empty tuple standing for the zero map out of dimension 0.  The
    rows are lists, so a ChainComplex is unhashable.  Every ChainComplex,
    built or written by hand, is checked on construction by
    _check_face_identities, which raises TheoremViolationError.
    """

    fvector: tuple[int, ...]
    boundaries: tuple[tuple[list[int], ...], ...]

    def __post_init__(self) -> None:
        _check_face_identities(self)

    @property
    def dimension(self) -> int:
        return len(self.fvector) - 1

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
    """All faces of the given facets, with boundary rows.

    The dimensions are built in turn, p = 0 up.  Each dimension's faces
    are gathered from the lex-sorted facets in first-seen order, so the sort
    that makes the basis meets near-sorted runs.  Its face ids come from one
    lookup pass, in the index of dimension p - 1, over the combinations of
    its simplices in lex order, which lists each simplex's p + 1 faces with
    the last vertex dropped first; the faces that drop vertex k are every
    (p + 1)-th id from offset p - k, one stride slice.  That index is then
    dropped and dimension p's is built, so the simplex tuples of at most
    two dimensions are alive at once.
    """
    facet_tuples = sorted(tuple(sorted(facet)) for facet in facets)
    if not facet_tuples:
        raise EmptyComplexError("no facets given")
    for facet in facet_tuples:
        if len(set(facet)) != len(facet):
            raise ValueError(f"facet with repeated vertices: {facet}")
    max_dim = max(map(len, facet_tuples)) - 1
    if max_dim < 0:
        raise EmptyComplexError("no facet has a vertex")
    fvector: list[int] = []
    boundaries: list[tuple[list[int], ...]] = [()]
    index: dict[tuple[int, ...], int] = {}
    for p in range(max_dim + 1):
        simplices = sorted(dict.fromkeys(chain.from_iterable(
            map(combinations, facet_tuples, repeat(p + 1)))))
        fvector.append(len(simplices))
        if p:
            ids = list(map(index.__getitem__, chain.from_iterable(
                map(combinations, simplices, repeat(p)))))
            del index
            boundaries.append(tuple(ids[p - k::p + 1] for k in range(p + 1)))
            del ids
        if p < max_dim:
            index = dict(zip(simplices, range(len(simplices))))
        del simplices
    return ChainComplex(tuple(fvector), tuple(boundaries))


def _check_face_identities(cplx: ChainComplex) -> None:
    """Raise TheoremViolationError unless the rows satisfy the face identities.

    There must be one map per entry of the f-vector, and the map out of
    dimension p must hold p + 1 rows of f_p faces each, every one an index
    in [0, f_{p-1}).
    Write d_k s for entry k of the column of s, the face in row k; then
    d_a d_b s is row a of the map below at index d_b s.  For all a < b the
    face identity d_a d_b s = d_{b-1} d_a s must hold, and each identity
    is one comparison of two whole-row gathers over all the simplices.

    Lemma: with signs (-1)^k these identities force d d = 0.  The signed
    d_{p-1} d_p of a simplex is the sum over b <= p and a < p of
    (-1)^(a+b) d_a d_b.  The map (a, b) -> (b - 1, a) pairs each term with
    a < b to one with a >= b, bijectively, and the identity makes the two
    terms the same face with opposite signs, so they cancel.
    """
    if len(cplx.boundaries) != len(cplx.fvector):
        raise TheoremViolationError(
            f"{len(cplx.boundaries)} boundary maps for an f-vector of"
            f" {len(cplx.fvector)} dimensions")
    for p in range(1, cplx.dimension + 1):
        rows, size = cplx.boundaries[p], cplx.fvector[p]
        if len(rows) != p + 1 or any(len(row) != size for row in rows):
            raise TheoremViolationError(
                f"the boundary map out of dimension {p} does not hold {p + 1} rows"
                f" of {size} faces")
        if size and not (0 <= min(map(min, rows)) and max(map(max, rows)) < cplx.fvector[p - 1]):
            raise TheoremViolationError(
                f"the boundary map out of dimension {p} holds a face index outside"
                f" [0, {cplx.fvector[p - 1]})")
        if p < 2:
            continue
        lower = cplx.boundaries[p - 1]
        for b in range(1, p + 1):
            for a in range(b):
                if (list(map(lower[a].__getitem__, rows[b]))
                        != list(map(lower[b - 1].__getitem__, rows[a]))):
                    raise TheoremViolationError(
                        f"face identity d_{a} d_{b} = d_{b - 1} d_{a} fails in dimension {p},"
                        " so boundary of boundary need not vanish")


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> tuple[int, tuple[int, ...]]:
    """Rank and nontrivial invariant factors of an integer matrix, exactly.

    Dense elimination with pivoting on a minimum-absolute-value entry;
    remainders swap into the pivot seat, so pivot magnitudes only shrink.
    A final gcd/lcm sweep restores the divisibility chain.  Every entry must
    be an int (bools refused), as for partition parts; nothing is coerced.
    """
    work = [list(row) for row in matrix]
    for row in work:
        for value in row:
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"entries must be integers, got {value!r}")
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


def _eliminate(line: dict[int, int], pivot_line: dict[int, int], top: int) -> None:
    """Clear index top from line with the +-1 pivot there, dropping entries that cancel."""
    coef = line[top] * pivot_line[top]
    for i, v in pivot_line.items():
        new = line.get(i, 0) - coef * v
        if new:
            line[i] = new
        else:
            del line[i]


def _sparse_rank_and_factors(
    rows: Sequence[Sequence[int]], values: Sequence[int], nrows: int, ncols: int,
    skip_rows: Collection[int], skip_cols: bytes,
) -> tuple[int, tuple[int, ...], list[tuple[int, int]]]:
    """Rank, invariant factors and unit pivots of a sparse integer matrix.

    The matrix is nrows by ncols and is given by K >= 1 index rows of
    length ncols, one nonzero value each: it is the sum over k of values[k]
    times the 0/1 matrix with a 1 at (rows[k][j], j) for every column j.
    An index -1 stands for no entry, and the indices of one column are
    otherwise distinct.  A boundary map is its p + 1 face rows with the
    signs (-1)^k.  The rows in skip_rows (distinct valid indices, only
    iterated, so a list will do) are left out, and so is every column j
    with skip_cols[j] nonzero: skip_cols is a mask of ncols bytes.  The
    input is read, never mutated, and no column is held as a tuple.  One
    left-to-right pass runs over whichever side has fewer lines: the
    columns, pivot the largest row, or else the rows in descending order,
    pivot the smallest column (the columns of the anti-transpose).  A line
    is combined only with earlier pivot lines, until its leading entry is
    new; a +-1 there makes it a pivot line, anything else puts it in the
    residue.  After the pass every pivot index is cleared from each residue
    line, largest first, and what is left goes to the dense Smith
    reduction.  The (row, column) of every unit pivot is returned.

    The pass takes the apparent lines first.  A line is apparent when its
    leading entry is +-1 and no earlier line with a +-1 leading entry has
    the same leading index; every leading entry is read in bulk, by
    _leading_entries.  Apparent lines meet no earlier pivot, so each
    becomes a pivot line as it is, and is built as a sparse line only when
    an elimination or the clearing reads it.  The other lines then run in
    their original order; the rows are transposed only when some row is
    not apparent.  This is the same pass over a permuted line order, and
    the lemmas below ask of the order only that each line is combined with
    pivot lines before it.

    Pivot lemma: the unit pivots index a square submatrix of the original
    matrix that is invertible over Z.  Sorted by pivot index, the reduced
    pivot lines are triangular with a +-1 diagonal, and each is its
    original line plus a combination of earlier pivot lines only, a
    unitriangular change; when no line needed a combination (every pivot
    apparent), the original submatrix is itself triangular.

    Residue lemma: SNF(d) = I_{#pivots} (+) SNF(residue), once the residue
    is zero on the pivot indices.  The pass and the clearing are unimodular
    line operations, and the pivot lines then carry an invertible square
    block on the pivot indices, where the residue lines are zero, so the
    other entries of the pivot lines are eliminated by operations that
    leave the residue alone.  The residue's factors already form a
    divisibility chain, and factors 1 divide everything.

    Clearing lemma (Chen & Kerber): since d_p d_{p+1} = 0, the invertible
    block of the unit pivots (a_t, b_t) of d_{p+1} makes the columns a_t of
    d_p integer combinations of its other columns, and deleting them leaves
    the Smith form of d_p unchanged.  Dually, the unit pivots (v_t, e_t) of
    d_p make the rows e_t of d_{p+1} integer combinations of its other
    rows.  Both hold for any subset of rows and columns already left out.
    The residue's pivots are not returned: they may be non-units (the 2 of
    the projective plane), and its row and column swaps do not pick out an
    invertible submatrix of the input.
    """
    by_columns = skip_cols.count(0) <= nrows - len(skip_rows)
    line_ids, tops, units = _leading_entries(
        rows, values, nrows, ncols, skip_rows, skip_cols, by_columns)
    # Read backwards, the dict keeps the first +-1-led line at each index:
    # the apparent lines.  Every other line is in rest.
    pivot_of = dict(zip(reversed(list(compress(tops, units))),
                        reversed(list(compress(line_ids, units)))))
    rest = list(compress(line_ids, map(ne, map(pivot_of.get, tops), line_ids)))
    residue: list[dict[int, int]] = []
    if rest:
        skip = {-1, *skip_rows}
        if by_columns:
            def line_of(j: int) -> dict[int, int]:
                return {i: v for i, v in zip([row[j] for row in rows], values) if i not in skip}
        else:
            transposed: dict[int, dict[int, int]] = {}
            for row, v in zip(rows, values):
                for j, i in enumerate(row):
                    if i not in skip and not skip_cols[j]:
                        transposed.setdefault(i, {})[-j] = v
            line_of = transposed.__getitem__
        built: dict[int, dict[int, int]] = {}

        def pivot_line(top: int) -> dict[int, int]:
            if top not in built:
                built[top] = line_of(pivot_of[top])
            return built[top]

        for line_id in rest:
            line = line_of(line_id)
            while line and (top := max(line)) in pivot_of:
                _eliminate(line, pivot_line(top), top)
            if not line:
                continue
            if abs(line[top]) == 1:
                pivot_of[top] = line_id
                built[top] = line
            else:
                residue.append(line)
        for line in residue:
            while paired := [i for i in line if i in pivot_of]:
                top = max(paired)
                _eliminate(line, pivot_line(top), top)
    indices = sorted({i for line in residue for i in line})
    residual_rank, factors = smith_normal_form([[line.get(i, 0) for i in indices] for line in residue])
    if by_columns:
        pivots = list(pivot_of.items())
    else:
        pivots = list(zip(pivot_of.values(), map(neg, pivot_of)))
    return len(pivots) + residual_rank, factors, pivots


def _leading_entries(
    rows: Sequence[Sequence[int]], values: Sequence[int], nrows: int, ncols: int,
    skip_rows: Collection[int], skip_cols: bytes, by_columns: bool,
) -> tuple[list[int], list[int], list[bool]]:
    """Each line's id, leading index and whether its leading value is +-1, in pass order.

    The lines are the kept columns in order, or else the kept rows in
    descending order; lines with no kept entry are left out.  A column
    leads at its largest kept row.  A row leads at its smallest kept column
    j, at index -j so that a row's pivot is its largest key too; it is read
    from one dict over the entries of the kept columns laid out in
    descending column order, where the last entry of each row wins.  When
    every value is +-1, as in a boundary map, so is every leading value;
    otherwise a line's leading value is that of the index row that holds
    its leading entry.
    """
    kept_ids = list(filterfalse(skip_cols.__getitem__, range(ncols)))
    if by_columns:
        kept = [list(map(row.__getitem__, kept_ids)) for row in rows]
        if skip_rows:
            # Index -1, no entry, reads the appended -1.
            row_key = list(range(nrows)) + [-1]
            for i in skip_rows:
                row_key[i] = -1
            kept = [list(map(row_key.__getitem__, row)) for row in kept]
        tops = list(map(max, zip(*kept)))
        nonzero = list(map((-1).__ne__, tops))
        line_ids, tops = list(compress(kept_ids, nonzero)), list(compress(tops, nonzero))
        lead_rows, lead_cols = tops, line_ids
    else:
        kept_ids.reverse()
        stride = len(rows)
        entries, columns = [-1] * (stride * len(kept_ids)), [0] * (stride * len(kept_ids))
        for k, row in enumerate(rows):
            entries[k::stride] = map(row.__getitem__, kept_ids)
            columns[k::stride] = kept_ids
        first = dict(zip(entries, columns))
        del entries, columns
        for i in {-1, *skip_rows}:
            first.pop(i, None)
        line_ids = lead_rows = sorted(first, reverse=True)
        lead_cols = list(map(first.__getitem__, line_ids))
        tops = list(map(neg, lead_cols))
    if all(abs(v) == 1 for v in values):
        return line_ids, tops, [True] * len(line_ids)
    slots = map(indexOf, zip(*[map(row.__getitem__, lead_cols) for row in rows]), lead_rows)
    return line_ids, tops, [abs(values[k]) == 1 for k in slots]


def _spanning_forest(rows: Sequence[Sequence[int]], nvertices: int) -> list[int]:
    """The edge ids, in column order, of a spanning forest of the map out of dimension 1.

    That map is a graph incidence matrix: its two rows hold each edge's two
    vertices, read here edge by edge.  Union-find keeps the edges that join
    two components.  They form a spanning forest, so the rank is their
    number, f_0 minus the number of components, and there is no torsion.
    With the smallest vertex of each component left out, the forest's
    columns index a square block invertible over Z, so the clearing lemma
    lets d_2 leave out these rows.  They are the pivot columns of a
    left-to-right reduction of the columns, and leaving them out keeps
    d_2's pass on boundary complexes apparent; another spanning forest
    would give the same ranks with far more elimination.
    """
    parent = list(range(nvertices))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    forest = []
    for e, (u, v) in enumerate(zip(*rows)):
        root_u, root_v = find(u), find(v)
        if root_u != root_v:
            parent[root_u] = root_v
            forest.append(e)
    return forest


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
    # d_1 first, so that d_2 can leave out the forest's edges, then top
    # down, so that each map can leave out the columns paired above it.
    forest = _spanning_forest(cplx.boundaries[1], fvector[0]) if top else []
    ranks[1] = len(forest)
    paired = bytes(fvector[top])
    for p in range(top, 1, -1):
        signs = tuple(-1 if k % 2 else 1 for k in range(p + 1))
        ranks[p], torsion[p - 1], pivots = _sparse_rank_and_factors(
            cplx.boundaries[p], signs, fvector[p - 1], fvector[p],
            skip_rows=forest if p == 2 else (), skip_cols=paired)
        if p > 2:
            # The rows this map paired, as a mask over the next map's columns.
            paired = bytearray(fvector[p - 1])
            for row, _ in pivots:
                paired[row] = 1
        # Not held through the next map's pass, which sets the peak.
        del pivots
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


def homology_concentrated(report: HomologyReport) -> bool:
    """True when reduced homology is free in degree 2 and trivial everywhere
    else, torsion included: the pattern the paper proves for every K_n.  The
    rank in degree 2 is then chi - 1 by Euler-Poincare: the report reads its
    Betti numbers off boundary ranks, so their alternating sum is chi
    whatever the ranks are."""
    reduced = report.reduced_betti
    return not (any(reduced[:2]) or any(reduced[3:]) or any(report.torsion))
