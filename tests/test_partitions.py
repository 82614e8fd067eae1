"""Partitions, corners, and single-cell transfers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_complex.graph import adjacency_by_conjugate
from partition_complex.oracles import partition_count, transfers_by_scan
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
    is_admissible,
    iter_partitions,
    parse_partition,
    removable_corners,
)


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


@pytest.mark.parametrize("text", ["3,1", "[]", "[3;1]", "[1,3]", "[a]"])
def test_parse_rejects_malformed(text):
    with pytest.raises(InvalidPartitionError):
        parse_partition(text)


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


def test_is_admissible():
    assert is_admissible((3, 1), (1, 3), (2, 2))
    assert not is_admissible((2,), (1, 2), (1, 3))
    assert not is_admissible((1, 1), (2, 1), (3, 1))


def test_admissible_transfers_preserve_size_and_change_shape():
    # The sort-free enumeration must list exactly the transfers that the
    # validating, re-sorting route accepts, in corner order; so must the
    # corner-pair scan oracle.
    for n in range(1, 15):
        for lam in enumerate_partitions(n):
            expected = [
                (c, a, apply_transfer(lam, c, a))
                for c in removable_corners(lam)
                for a in addable_corners(lam)
                if is_admissible(lam, c, a)
            ]
            assert admissible_transfers(lam) == expected
            assert transfers_by_scan(lam) == expected
            for c, a, result in expected:
                assert sum(result) == n
                assert result != lam
                assert c.row != a.row


def test_single_cell_partition_has_no_transfers():
    assert admissible_transfers((1,)) == []
