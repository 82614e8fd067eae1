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
    Corner,
    InvalidPartitionError,
    addable_corners,
    admissible_transfers,
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
    assert removable_corners((6,)) == [Corner(1, 6)]
    assert removable_corners((3, 1)) == [
        Corner(1, 3), Corner(2, 1)]
    # Row 1 of (2,2) is blocked because the row below has equal length.
    assert removable_corners((2, 2)) == [Corner(2, 2)]


def test_addable_corners():
    assert addable_corners((1,)) == [Corner(1, 2), Corner(2, 1)]
    assert addable_corners((3, 1)) == [
        Corner(1, 4), Corner(2, 2), Corner(3, 1)]
    assert addable_corners((2, 2)) == [Corner(1, 3), Corner(3, 1)]


def _corner_cells_are_disjoint(lam):
    """No removable corner of lam sits at the (row, col) of an addable one,
    which is what lets a Corner be the pair alone, its kind the list it
    came from."""
    removable = {(c.row, c.col) for c in removable_corners(lam)}
    addable = {(a.row, a.col) for a in addable_corners(lam)}
    return removable.isdisjoint(addable)


def test_removable_and_addable_corners_are_disjoint_up_to_12():
    for n in range(1, 13):
        for lam in enumerate_partitions(n):
            assert _corner_cells_are_disjoint(lam), lam


@settings(max_examples=400, deadline=None, derandomize=True)
@given(partitions_up_to(40))
def test_removable_and_addable_corners_are_disjoint(lam):
    assert _corner_cells_are_disjoint(lam)


def test_corner_rows_recoverable_from_columns():
    # The row of a corner is a function of its column via the conjugate.
    for lam in enumerate_partitions(8):
        conj = conjugate(lam)
        for c in removable_corners(lam):
            assert c.row == conj[c.col - 1]
        for a in addable_corners(lam):
            assert a.row == (conj[a.col - 1] + 1 if a.col <= len(conj) else 1)


def test_is_admissible():
    # A transfer is admissible when its corners lie in different rows and
    # the move changes the shape; both transfer routes list exactly those.
    def listed(lam):
        by_corners = [((c.row, c.col), (a.row, a.col), result)
                      for c, a, result in admissible_transfers(lam)]
        assert by_corners == [((c.row, c.col), (a.row, a.col), result)
                              for c, a, result in transfers_by_scan(lam)]
        return {(c, a): result for c, a, result in by_corners}

    assert listed((3, 1))[(1, 3), (2, 2)] == (2, 2)
    assert listed((1, 1, 1))[(3, 1), (1, 2)] == (2, 1)
    # Same row, and moves that fix the shape.
    assert ((1, 2), (1, 3)) not in listed((2,))
    assert ((1, 2), (1, 3)) not in listed((2, 1))
    assert ((2, 1), (3, 1)) not in listed((1, 1))
    assert ((3, 1), (4, 1)) not in listed((1, 1, 1))


def test_admissible_transfers_preserve_size_and_change_shape():
    # The sort-free enumeration must list exactly the transfers that the
    # corner-pair scan oracle finds by moving a cell and re-sorting, in
    # corner order.
    for n in range(1, 15):
        for lam in enumerate_partitions(n):
            expected = transfers_by_scan(lam)
            assert admissible_transfers(lam) == expected
            for c, a, result in expected:
                assert sum(result) == n
                assert result != lam
                assert c.row != a.row


@settings(max_examples=400, deadline=None, derandomize=True)
@given(partitions_up_to(40))
def test_transfer_scans_agree_past_exhaustive_range(lam):
    # Past the exhaustive n <= 14 above: the oracle's own move-and-re-sort
    # scan and the sort-free kernel list the same triples in the same order.
    assert admissible_transfers(lam) == transfers_by_scan(lam)


def test_single_cell_partition_has_no_transfers():
    assert admissible_transfers((1,)) == []
