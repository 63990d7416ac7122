"""Bit-packed GF(2) elimination."""

from hypothesis import given, strategies as st

from qundet import gf2


def test_echelon_known():
    ech, pivots = gf2.echelon([0b110, 0b011, 0b101])
    # third row is the sum of the first two: dropped
    assert len(ech) == 2 and len(pivots) == 2
    assert pivots == sorted(pivots)


def _rank(rows):
    return len(gf2.echelon(rows)[0])


def test_rank():
    assert _rank([]) == 0
    assert _rank([0]) == 0
    assert _rank([0b1, 0b10, 0b11]) == 2
    assert _rank([0b111]) == 1


def test_reduce_row_membership():
    rows = [0b110, 0b011]
    ech, pivots = gf2.echelon(rows)
    assert gf2.reduce_row(0b101, ech, pivots) == 0  # in the span
    assert gf2.reduce_row(0b100, ech, pivots) != 0


def test_nullspace_known():
    # x1 + x2 = 0 over width 3 => kernel spanned by (1,1,0) and (0,0,1)
    basis = gf2.nullspace([0b011], 3)
    assert len(basis) == 2
    for v in basis:
        assert (v & 0b011).bit_count() % 2 == 0


def test_nullspace_full_and_empty():
    assert gf2.nullspace([], 3) == [0b001, 0b010, 0b100]
    assert gf2.nullspace([0b001, 0b010, 0b100], 3) == []


def test_lowest_set_bit():
    assert gf2.lowest_set_bit(0b1) == 0
    assert gf2.lowest_set_bit(0b101000) == 3


rows_strategy = st.lists(st.integers(0, (1 << 8) - 1), min_size=0, max_size=10)


@given(rows_strategy)
def test_rank_nullity(rows):
    r = _rank(rows)
    assert r + len(gf2.nullspace(rows, 8)) == 8


@given(rows_strategy)
def test_nullspace_orthogonal(rows):
    for v in gf2.nullspace(rows, 8):
        for row in rows:
            assert (v & row).bit_count() % 2 == 0


@given(rows_strategy)
def test_nullspace_independent(rows):
    basis = gf2.nullspace(rows, 8)
    assert _rank(basis) == len(basis)


@given(rows_strategy, st.integers(0, 255))
def test_reduce_row_idempotent(rows, probe):
    ech, pivots = gf2.echelon(rows)
    reduced = gf2.reduce_row(probe, ech, pivots)
    assert gf2.reduce_row(reduced, ech, pivots) == reduced
