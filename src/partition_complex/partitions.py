"""Integer partitions, Ferrers-diagram corners, and one-cell transfer moves.

A partition is represented everywhere as a tuple of weakly decreasing
positive integers, e.g. (3, 1).  Rows and columns of the Ferrers diagram
are 1-based throughout: the cell (i, j) sits in row i, column j, and row i
of the diagram of lam holds lam[i-1] cells.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

REMOVABLE = "removable"
ADDABLE = "addable"


class InvalidPartitionError(ValueError):
    """A sequence that is not a weakly decreasing tuple of positive integers."""


class InvalidCornerError(ValueError):
    """A corner argument that is not a corner of the given partition."""


class InadmissibleTransferError(ValueError):
    """A transfer within a single row, or one that leaves the partition unchanged."""


class TheoremViolationError(AssertionError):
    """A machine-checked structural claim failed on concrete data."""


def _alternating_sum(values: Iterable[int]) -> int:
    """values[0] - values[1] + values[2] - ..., e.g. chi from an f-vector."""
    return sum(-v if p % 2 else v for p, v in enumerate(values))


Partition = tuple[int, ...]


class Corner(NamedTuple):
    """A boundary cell of a Ferrers diagram, tagged removable or addable."""

    row: int
    col: int
    kind: str

    def __repr__(self) -> str:
        return f"Corner({self.row}, {self.col}, {self.kind})"


def as_partition(parts: Iterable[int]) -> Partition:
    """Validate a part sequence and return it as a canonical tuple."""
    lam = tuple(parts)
    if not lam:
        raise InvalidPartitionError("a partition needs at least one part")
    previous = None
    for part in lam:
        if not isinstance(part, int) or isinstance(part, bool):
            raise InvalidPartitionError(f"parts must be integers, got {part!r}")
        if part <= 0:
            raise InvalidPartitionError(f"parts must be positive, got {part} in {lam}")
        if previous is not None and previous < part:
            raise InvalidPartitionError(f"parts must be weakly decreasing, got {lam}")
        previous = part
    return lam


def parse_partition(text: str) -> Partition:
    """Parse a bracketed literal such as '[3,1]'.

    Each part is ASCII decimal digits with no leading zero, optionally
    padded with whitespace: the literals format_partition writes, give or
    take spacing.
    """
    stripped = text.strip()
    if not stripped.startswith("[") or not stripped.endswith("]"):
        raise InvalidPartitionError(f"expected a bracketed literal like [3,1], got {text!r}")
    body = stripped[1:-1].strip()
    if not body:
        raise InvalidPartitionError("a partition literal needs at least one part")
    tokens = [token.strip() for token in body.split(",")]
    for token in tokens:
        if not (token.isascii() and token.isdigit()):
            raise InvalidPartitionError(f"parts must be ASCII decimal digits, got {token!r} in {text!r}")
        if len(token) > 1 and token[0] == "0":
            raise InvalidPartitionError(f"parts have no leading zero, got {token!r} in {text!r}")
    return as_partition(int(token) for token in tokens)


def format_partition(lam: Iterable[int]) -> str:
    """Render a partition in the bracketed literal syntax, e.g. '[3,1]'."""
    return "[" + ",".join(str(part) for part in as_partition(lam)) + "]"


def iter_partitions(n: int) -> Iterator[Partition]:
    """All partitions of n, one at a time, in descending lexicographic order.

    n is checked on the call, before the first partition is asked for.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidPartitionError(f"n must be a positive integer, got {n!r}")
    return _descending_partitions(n)


def _descending_partitions(n: int) -> Iterator[Partition]:
    # The successor of lam drops its trailing 1s, takes one cell from the
    # part x before them, and refills the freed cells with parts x - 1, then
    # a remainder.
    parts = [n]
    while True:
        yield tuple(parts)
        freed = 1
        while parts[-1] == 1:
            parts.pop()
            if not parts:
                return
            freed += 1
        part = parts[-1] - 1
        parts[-1] = part
        while freed > part:
            parts.append(part)
            freed -= part
        parts.append(freed)


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n, in descending lexicographic order."""
    return list(iter_partitions(n))


def conjugate(lam: Iterable[int]) -> Partition:
    """The conjugate partition: column lengths of the Ferrers diagram."""
    lam = as_partition(lam)
    return tuple(sum(1 for part in lam if part >= j) for j in range(1, lam[0] + 1))


def height(lam: Iterable[int]) -> int:
    """Sum of i * lam_i over 1-based row indices i."""
    lam = as_partition(lam)
    return sum(i * part for i, part in enumerate(lam, start=1))


def _removable_corners(lam: Partition) -> list[Corner]:
    ell = len(lam)
    return [
        Corner(i + 1, lam[i], REMOVABLE)
        for i in range(ell)
        if i == ell - 1 or lam[i] > lam[i + 1]
    ]


def _addable_corners(lam: Partition) -> list[Corner]:
    out = [
        Corner(i + 1, lam[i] + 1, ADDABLE)
        for i in range(len(lam))
        if i == 0 or lam[i - 1] > lam[i]
    ]
    out.append(Corner(len(lam) + 1, 1, ADDABLE))
    return out


def removable_corners(lam: Iterable[int]) -> list[Corner]:
    """Cells whose removal leaves a partition, sorted by row."""
    return _removable_corners(as_partition(lam))


def addable_corners(lam: Iterable[int]) -> list[Corner]:
    """Positions where a cell can be added, including the new-row slot."""
    return _addable_corners(as_partition(lam))


def _coerce_corner(corner, kind: str) -> Corner:
    """Allow bare (row, col) pairs wherever a Corner of a known kind is expected."""
    if isinstance(corner, Corner):
        return corner
    try:
        row, col = corner
    except (TypeError, ValueError) as exc:
        raise InvalidCornerError(f"not a corner: {corner!r}") from exc
    return Corner(row, col, kind)


def apply_transfer(lam: Iterable[int], c, a) -> Partition:
    """Apply the transfer lam(c -> a); raises unless the transfer is admissible.

    c and a are Corners or bare (row, col) pairs, each accepted only if it is
    a member of removable_corners(lam) or addable_corners(lam).  The result
    is re-sorted from the moved row lengths, a route independent of the
    sort-free one in admissible_transfers.
    """
    lam = as_partition(lam)
    c = _coerce_corner(c, REMOVABLE)
    if c not in _removable_corners(lam):
        raise InvalidCornerError(f"{(c.row, c.col)} is not a removable corner of {lam}")
    a = _coerce_corner(a, ADDABLE)
    if a not in _addable_corners(lam):
        raise InvalidCornerError(f"{(a.row, a.col)} is not an addable corner of {lam}")
    if c.row == a.row:
        raise InadmissibleTransferError(f"corners {(c.row, c.col)} and {(a.row, a.col)} share a row")
    rows = list(lam) + [0]
    rows[c.row - 1] -= 1
    rows[a.row - 1] += 1
    result = tuple(sorted((row for row in rows if row > 0), reverse=True))
    if result == lam:
        raise InadmissibleTransferError(f"moving {(c.row, c.col)} to {(a.row, a.col)} fixes {lam}")
    return result


def admissible_transfers(lam: Iterable[int]) -> list[tuple[Corner, Corner, Partition]]:
    """All (c, a, result) triples of admissible transfers from lam.

    Lemma: the transfer c -> a fixes lam iff c and a share a row or a column;
    otherwise its result is lam - e_r + e_s (r = c.row, s = a.row), already
    sorted, since c ends the rows of its length and a starts the rows of its
    length.  The only row that can empty is the last, and it is dropped.
    """
    lam = as_partition(lam)
    return _transfers(lam, _removable_corners(lam), _addable_corners(lam))


def _transfers(
    lam: Partition, removable: Sequence[Corner], addable: Sequence[Corner]
) -> list[tuple[Corner, Corner, Partition]]:
    """admissible_transfers over given corners of lam, without validation.

    Triples come removable corner first, then addable corner, each in the
    order given.
    """
    out = []
    for c in removable:
        i = c.row - 1
        lowered = (c.col - 1,) if c.col > 1 else ()
        for a in addable:
            if a.row == c.row or a.col == c.col:
                continue
            j = a.row - 1
            if j < i:
                result = lam[:j] + (a.col,) + lam[j + 1:i] + lowered + lam[i + 1:]
            else:
                result = lam[:i] + lowered + lam[i + 1:j] + (a.col,) + lam[j + 1:]
            out.append((c, a, result))
    return out
