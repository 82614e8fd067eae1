"""Partitions, corners, and single-cell transfers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_complex.oracles import (
    adjacency_by_conjugate,
    partition_count,
    transfers_by_scan,
)
from partition_complex.partitions import (
    ADDABLE,
    REMOVABLE,
    Corner,
    InadmissibleTransferError,
    InvalidCornerError,
    InvalidPartitionError,
    addable_corners,
    admissible_transfers,
    apply_transfer,
    as_partition,
    conjugate,
    enumerate_partitions,
    format_partition,
    height,
    iter_partitions,
    parse_partition,
    removable_corners,
)
from test_cliques import partitions_up_to


def test_as_partition_accepts_weakly_decreasing():
    assert as_partition([3, 1]) == (3, 1)
    assert as_partition((2, 2, 1)) == (2, 2, 1)


@pytest.mark.parametrize("bad", [[], [0], [-1], [1, 2], [2, 0], [1.5, 1], [True]])
def test_as_partition_rejects_invalid(bad):
    with pytest.raises(InvalidPartitionError):
        as_partition(bad)


def test_parse_and_format_round_trip():
    assert parse_partition("[3,1]") == (3, 1)
    assert parse_partition(" [2, 2] ") == (2, 2)
    assert format_partition((2, 1, 1)) == "[2,1,1]"
    for lam in enumerate_partitions(7):
        assert parse_partition(format_partition(lam)) == lam


@pytest.mark.parametrize("text", ["3,1", "[]", "[3;1]", "[1,3]", "[a]",
                                  "[3_0]", "[+3]", "[\u0663,1]", "[03]", "[1,01]",
                                  "[00]", "[2, 01 ]"])
def test_parse_rejects_malformed(text):
    with pytest.raises(InvalidPartitionError):
        parse_partition(text)


def test_parse_keeps_the_positive_parts_message_for_zero():
    with pytest.raises(InvalidPartitionError, match="positive"):
        parse_partition("[0]")
    with pytest.raises(InvalidPartitionError, match="leading zero"):
        parse_partition("[03]")


@st.composite
def literals(draw):
    """A bracketed literal of descending parts, each drawn with up to two
    leading zeros and whitespace around it, with the literal format_partition
    writes for it, or None when a zero part or a leading zero makes it
    invalid."""
    space = st.sampled_from(["", " ", "  ", "\t"])
    parts = sorted(draw(st.lists(st.integers(0, 300), min_size=1, max_size=6)),
                   reverse=True)
    zeros = [draw(st.integers(0, 2)) for _ in parts]
    tokens = [draw(space) + "0" * pad + str(part) + draw(space)
              for part, pad in zip(parts, zeros)]
    text = draw(space) + "[" + ",".join(tokens) + "]" + draw(space)
    valid = parts[-1] > 0 and not any(zeros)
    return text, "[" + ",".join(map(str, parts)) + "]" if valid else None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(literals())
def test_accepted_literals_reformat_to_themselves(case):
    text, canonical = case
    if canonical is None:
        with pytest.raises(InvalidPartitionError):
            parse_partition(text)
    else:
        assert format_partition(parse_partition(text)) == canonical == "".join(text.split())


def test_enumerate_small():
    assert enumerate_partitions(1) == [(1,)]
    assert enumerate_partitions(4) == [
        (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(enumerate_partitions(10)) == 42


def test_enumerate_rejects_nonpositive():
    with pytest.raises(InvalidPartitionError):
        enumerate_partitions(0)


def test_iter_partitions_streams_the_enumeration():
    for n in range(1, 21):
        streamed = list(iter_partitions(n))
        assert streamed == enumerate_partitions(n)
        assert streamed == sorted(set(streamed), reverse=True)
        assert len(streamed) == partition_count(n)
        assert all(as_partition(lam) == lam and sum(lam) == n for lam in streamed)


def test_iter_partitions_rejects_nonpositive_on_the_call():
    for bad in (0, -1, True, 3.0):
        with pytest.raises(InvalidPartitionError):
            iter_partitions(bad)


any_partition = st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=20).map(
    lambda parts: tuple(sorted(parts, reverse=True)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(any_partition)
def test_format_then_parse_round_trips(lam):
    assert parse_partition(format_partition(lam)) == lam


@settings(max_examples=200, deadline=None, derandomize=True)
@given(any_partition)
def test_conjugate_is_an_involution(lam):
    assert conjugate(conjugate(lam)) == lam


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.sampled_from(enumerate_partitions(n))))
def test_transfer_targets_are_the_conjugate_neighbours(lam):
    targets = sorted(mu for _, _, mu in admissible_transfers(lam))
    neighbours = [mu for mu in enumerate_partitions(sum(lam))
                  if adjacency_by_conjugate(lam, mu) is not None]
    assert targets == sorted(neighbours)


def test_conjugate():
    assert conjugate((4,)) == (1, 1, 1, 1)
    assert conjugate((3, 1)) == (2, 1, 1)
    for lam in enumerate_partitions(9):
        assert conjugate(conjugate(lam)) == lam


def test_height():
    assert height((7,)) == 7
    assert height((1, 1, 1, 1)) == 10
    assert height((2, 1, 1)) == 7


def test_removable_corners():
    assert removable_corners((6,)) == [Corner(1, 6, REMOVABLE)]
    assert removable_corners((3, 1)) == [
        Corner(1, 3, REMOVABLE), Corner(2, 1, REMOVABLE)]
    # Row 1 of (2,2) is blocked because the row below has equal length.
    assert removable_corners((2, 2)) == [Corner(2, 2, REMOVABLE)]


def test_addable_corners():
    assert addable_corners((1,)) == [Corner(1, 2, ADDABLE), Corner(2, 1, ADDABLE)]
    assert addable_corners((3, 1)) == [
        Corner(1, 4, ADDABLE), Corner(2, 2, ADDABLE), Corner(3, 1, ADDABLE)]
    assert addable_corners((2, 2)) == [Corner(1, 3, ADDABLE), Corner(3, 1, ADDABLE)]


def test_corner_rows_recoverable_from_columns():
    # The row of a corner is a function of its column via the conjugate.
    for lam in enumerate_partitions(8):
        conj = conjugate(lam)
        for c in removable_corners(lam):
            assert c.row == conj[c.col - 1]
        for a in addable_corners(lam):
            assert a.row == (conj[a.col - 1] + 1 if a.col <= len(conj) else 1)


def test_apply_transfer():
    assert apply_transfer((3, 1), (1, 3), (2, 2)) == (2, 2)
    assert apply_transfer((1, 1, 1), (3, 1), (1, 2)) == (2, 1)


def test_apply_transfer_rejects_identity_move():
    # Moving the last cell into a fresh last row rebuilds the same shape.
    with pytest.raises(InadmissibleTransferError):
        apply_transfer((1, 1, 1), (3, 1), (4, 1))


def test_apply_transfer_rejects_same_row():
    with pytest.raises(InadmissibleTransferError):
        apply_transfer((2, 1), (1, 2), (1, 3))


def test_apply_transfer_rejects_non_corners():
    with pytest.raises(InvalidCornerError):
        apply_transfer((3, 1), (1, 2), (2, 2))
    with pytest.raises(InvalidCornerError):
        apply_transfer((3, 1), (1, 3), (2, 3))


def _transfer_or_none(lam, c, a):
    try:
        return apply_transfer(lam, c, a)
    except InadmissibleTransferError:
        return None


def test_is_admissible():
    assert _transfer_or_none((3, 1), (1, 3), (2, 2)) == (2, 2)
    # Same row, and a move that fixes the shape.
    assert _transfer_or_none((2,), (1, 2), (1, 3)) is None
    assert _transfer_or_none((1, 1), (2, 1), (3, 1)) is None


def test_admissible_transfers_preserve_size_and_change_shape():
    # The sort-free enumeration must list exactly the transfers that the
    # validating, re-sorting route accepts, in corner order; so must the
    # corner-pair scan oracle.
    for n in range(1, 15):
        for lam in enumerate_partitions(n):
            expected = [
                (c, a, result)
                for c in removable_corners(lam)
                for a in addable_corners(lam)
                if (result := _transfer_or_none(lam, c, a)) is not None
            ]
            assert admissible_transfers(lam) == expected
            assert transfers_by_scan(lam) == expected
            for c, a, result in expected:
                assert sum(result) == n
                assert result != lam
                assert c.row != a.row


@settings(max_examples=400, deadline=None, derandomize=True)
@given(partitions_up_to(40))
def test_transfer_scans_agree_past_exhaustive_range(lam):
    # Past the exhaustive n <= 14 above: the oracle's own move-and-re-sort
    # scan, the sort-free kernel and the validating apply_transfer scan list
    # the same triples in the same order.
    expected = [
        (c, a, result)
        for c in removable_corners(lam)
        for a in addable_corners(lam)
        if (result := _transfer_or_none(lam, c, a)) is not None
    ]
    assert transfers_by_scan(lam) == expected
    assert admissible_transfers(lam) == expected


def test_single_cell_partition_has_no_transfers():
    assert admissible_transfers((1,)) == []


def _reference_apply_transfer(lam, c, a):
    """apply_transfer as it was when each corner was validated by membership
    in the list removable_corners(lam) or addable_corners(lam)."""
    lam = as_partition(lam)

    def coerce(corner, kind):
        if isinstance(corner, Corner):
            return corner
        try:
            row, col = corner
        except (TypeError, ValueError) as exc:
            raise InvalidCornerError(f"not a corner: {corner!r}") from exc
        return Corner(row, col, kind)

    c = coerce(c, REMOVABLE)
    if c not in removable_corners(lam):
        raise InvalidCornerError(f"{(c.row, c.col)} is not a removable corner of {lam}")
    a = coerce(a, ADDABLE)
    if a not in addable_corners(lam):
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


def _outcome(transfer, lam, c, a):
    """The result, or the type and message of the exception raised."""
    try:
        return transfer(lam, c, a)
    except Exception as exc:
        return type(exc), str(exc)


def _corner_arguments(lam):
    """Every (row, col) in a box one cell wider and taller than the diagram
    and its new-row slot, as a bare pair, a Corner of either kind, and with a
    float row; rows 0 and 1 also as bools.  Plus two non-pairs."""
    out = [5, (1, 2, 3)]
    for row in range(len(lam) + 3):
        for col in range(lam[0] + 3):
            rows = [row, float(row)] + ([bool(row)] if row < 2 else [])
            for r in rows:
                out += [(r, col), Corner(r, col, REMOVABLE), Corner(r, col, ADDABLE)]
    return out


def test_apply_transfer_accepts_and_rejects_as_list_membership_did():
    # Each argument is varied against every real corner in the other place,
    # so both corner tests, the shared-row test and the re-sort are reached.
    for n in range(1, 9):
        for lam in enumerate_partitions(n):
            arguments = _corner_arguments(lam)
            pairs = [(c, a) for c in arguments for a in addable_corners(lam)]
            pairs += [(c, a) for c in removable_corners(lam) for a in arguments]
            for c, a in pairs:
                assert (_outcome(apply_transfer, lam, c, a)
                        == _outcome(_reference_apply_transfer, lam, c, a)), (lam, c, a)
