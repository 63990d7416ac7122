"""Pauli string algebra against the independent dense reference."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qundet.pauli import PauliFormatError, PauliOperator, key_bits, parse_pauli

import helpers
from helpers import matrix_from_string, matrix_of


def bits(n):
    return st.integers(min_value=0, max_value=(1 << n) - 1)


def paulis(max_n=4):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.just(n), bits(n), bits(n), st.integers(0, 3)
        ).map(lambda t: PauliOperator.from_bits(*t))
    )


def test_single_qubit_products():
    X, Y, Z = (parse_pauli(s) for s in "XYZ")
    assert str(X * Z) == "-iY"
    assert str(Z * X) == "+iY"
    assert str(X * Y) == "+iZ"
    assert str(Y * X) == "-iZ"
    assert str(Y * Z) == "+iX"
    assert str(Z * Y) == "-iX"
    for p in (X, Y, Z):
        assert p * p == PauliOperator.identity(1)


def test_five_qubit_product():
    a = parse_pauli("XZZXI")
    b = parse_pauli("IXZZX")
    assert str(a * b) == "XYIYX"


def test_parse_rejects_garbage():
    # the spec schema's pattern admits no whitespace, a trailing newline included
    for bad in ["", "i", "ABC", "xyz", "X Z", "++X", "X-", "IXQ", " ZZI", "ZZI ", "IZZ\n"]:
        with pytest.raises(PauliFormatError):
            parse_pauli(bad)
    with pytest.raises(PauliFormatError):
        parse_pauli("XX", 3)


def test_sign_prefixes():
    assert parse_pauli("-X").phase_exp == 2
    assert parse_pauli("+iZ").phase_exp == 1
    assert parse_pauli("-iZ").phase_exp == 3
    assert parse_pauli("iZ").phase_exp == 1
    assert parse_pauli("-Y").phase_exp == 3  # -Y = i^3 XZ


def test_hermiticity():
    assert parse_pauli("Y").is_hermitian
    assert parse_pauli("-Y").is_hermitian
    assert not parse_pauli("iY").is_hermitian
    # bare XZ product without the i is anti-Hermitian
    assert not PauliOperator.from_bits(1, 1, 1, 0).is_hermitian
    assert str(PauliOperator.from_bits(1, 1, 1, 0)) == "-iY"


def test_sign_property():
    assert parse_pauli("ZZ").sign_exp == 0
    assert parse_pauli("-ZZ").sign_exp == 2
    # the bare XZ product is -iY: an imaginary sign
    assert PauliOperator.from_bits(1, 1, 1, 0).sign_exp == 3


def test_weight_support():
    p = parse_pauli("XIYZI")
    assert p.weight == 3
    assert p.support == frozenset({1, 3, 4})
    assert p.x_bits | p.z_bits == 0b01101
    assert parse_pauli("IIIII").weight == 0


def test_single_and_identity():
    assert str(PauliOperator.single(4, 2, "Y")) == "IYII"
    assert str(PauliOperator.identity(3)) == "III"
    with pytest.raises(ValueError):
        PauliOperator.single(4, 5, "X")


def test_shifted_rotates_right():
    p = parse_pauli("XZZXI")
    assert str(p.shifted(1)) == "IXZZX"
    assert str(p.shifted(5)) == "XZZXI"
    assert str(p.shifted(2)) == "XIXZZ"


def test_commutation_basics():
    X, Z = parse_pauli("X"), parse_pauli("Z")
    assert X.anticommutes(Z)
    assert parse_pauli("XX").commutes(parse_pauli("ZZ"))
    assert parse_pauli("XXX").anticommutes(parse_pauli("ZII"))


def test_unsigned_strips_phase():
    p = parse_pauli("-iXY")
    u = p.unsigned()
    assert u.letters == "XY" and u.is_hermitian and str(u) == "XY"


def test_mismatched_sizes():
    with pytest.raises(ValueError):
        parse_pauli("XX") * parse_pauli("XXX")
    with pytest.raises(ValueError):
        parse_pauli("XX").commutes(parse_pauli("X"))


@given(paulis())
def test_round_trip(p):
    assert parse_pauli(str(p), p.n) == p


@given(paulis(3), paulis(3))
def test_product_matches_dense(a, b):
    if a.n != b.n:
        return
    assert np.allclose(matrix_of(a * b), matrix_of(a) @ matrix_of(b), atol=1e-12)


@given(paulis(3))
def test_string_matrix_matches_bit_matrix(p):
    assert np.allclose(matrix_from_string(str(p)), matrix_of(p), atol=1e-12)


@given(paulis(4), paulis(4), paulis(4))
def test_associativity(a, b, c):
    if not (a.n == b.n == c.n):
        return
    assert (a * b) * c == a * (b * c)


@given(paulis(3), paulis(3))
def test_commutes_matches_dense(a, b):
    if a.n != b.n:
        return
    ma, mb = matrix_of(a), matrix_of(b)
    dense_commute = np.allclose(ma @ mb, mb @ ma, atol=1e-12)
    assert a.commutes(b) == dense_commute
    assert a.commutes(b) != a.anticommutes(b)


@given(paulis())
def test_hermitian_iff_dense_hermitian(p):
    m = matrix_of(p)
    assert p.is_hermitian == np.allclose(m, m.conj().T, atol=1e-12)


@given(paulis(), st.integers(0, 8))
def test_shift_preserves_algebra(p, k):
    q = p.shifted(k)
    assert q.weight == p.weight
    assert q.shifted(p.n - k % p.n) == p


@given(paulis(4), paulis(4))
def test_weight_subadditive(a, b):
    if a.n != b.n:
        return
    assert (a * b).weight <= a.weight + b.weight


def wide_bits(n):
    """(x, z, phase) on n qubits."""
    return st.tuples(bits(n), bits(n), st.integers(0, 3))


@given(st.integers(1, 130).flatmap(lambda n: st.tuples(st.just(n), wide_bits(n))))
def test_key_round_trips_through_bits_letters_and_strings(case):
    # 1..130 qubits, odd n included: the hex letters format pads odd n by one I
    n, (x, z, phase) = case
    p = PauliOperator.from_bits(n, x, z, phase)
    assert (p.x_bits, p.z_bits) == key_bits(p.key, n) == (x, z)
    assert key_bits(p.key, n, basis_order=True) == (helpers.bits_mirrored(n, x), helpers.bits_mirrored(n, z))
    assert p.letters == helpers.bits_letters(n, x, z)
    assert p.key == helpers._letter_key(p)
    assert PauliOperator.from_string(str(p), n) == p
    assert PauliOperator.from_string(p.letters).key == p.key
    assert (p.weight, p.y_count) == (helpers.bits_weight(x, z), helpers.bits_y_count(x, z))
    assert p.unsigned().phase_exp == helpers.bits_y_count(x, z) % 4


@given(st.integers(1, 130).flatmap(lambda n: st.tuples(st.just(n), wide_bits(n), wide_bits(n))))
def test_key_arithmetic_matches_bit_formulas(case):
    n, a, b = case
    pa, pb = PauliOperator.from_bits(n, *a), PauliOperator.from_bits(n, *b)
    prod = pa * pb
    assert (prod.x_bits, prod.z_bits, prod.phase_exp) == helpers.bits_product(a, b)
    assert pa.anticommutes(pb) == helpers.bits_anticommute(a, b)
