"""Stabilizer group construction, enumeration, and logical sets."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qundet import codes, pauli, stabilizer
from qundet import undetermined as und
from qundet.pauli import PauliOperator, parse_pauli
from qundet.stabilizer import (
    DependentGeneratorsError,
    EnumerationCapError,
    MAX_ENUM_RANK,
    MinusIdentityError,
    NonCommutingGeneratorsError,
    StabilizerGroup,
    code_distance,
    coset_min_weight,
    in_logical_x_set,
    logical_classes,
    logical_x_count,
    logical_x_set,
)

import helpers
from helpers import matrix_of, walk_distance


def paulis(text, n=None):
    return [parse_pauli(s, n) for s in text.split()]


def test_ghz3_group():
    g = StabilizerGroup(paulis("ZZI IZZ"))
    assert g.rank == 2 and g.n == 3
    assert {str(e) for e in g.elements()} == {"III", "ZZI", "IZZ", "ZIZ"}


def test_rank_zero_group():
    g = StabilizerGroup([], n=2)
    assert g.rank == 0
    assert [str(e) for e in g.elements()] == ["II"]
    assert len(g.centralizer_basis()) == 4


def test_empty_generating_set_rejected():
    with pytest.raises(ValueError):
        StabilizerGroup([])


def test_noncommuting_error():
    with pytest.raises(NonCommutingGeneratorsError) as exc:
        StabilizerGroup(paulis("XX ZI"))
    assert exc.value.pair == (1, 2)
    # pairs (1, 4) and (2, 3) anticommute; the first generator's pair is named
    with pytest.raises(NonCommutingGeneratorsError) as exc:
        StabilizerGroup(paulis("XI IX IZ ZI"))
    assert exc.value.pair == (1, 4)


@st.composite
def pauli_pairs(draw):
    n = draw(st.integers(1, 12))
    bits = st.integers(0, (1 << n) - 1)
    return tuple(PauliOperator.from_bits(n, draw(bits), draw(bits)) for _ in range(2))


@settings(max_examples=300, deadline=None)
@given(pauli_pairs())
def test_swapped_key_parity_is_anticommutation(pair):
    a, b = pair
    anti = helpers.bits_anticommute((a.x_bits, a.z_bits, 0), (b.x_bits, b.z_bits, 0))
    assert (a.key & pauli.swap(b.key, b.n)).bit_count() & 1 == anti == a.anticommutes(b)


@settings(max_examples=60, deadline=None)
@given(helpers.random_codes(max_n=8), st.data())
def test_anticommuting_lists_the_anticommuting_generators(spec, data):
    group = spec.group()
    bits = st.integers(0, (1 << spec.n) - 1)
    p = PauliOperator.from_bits(spec.n, data.draw(bits), data.draw(bits))
    assert group.anticommuting(p) == [g for g in group.generators if g.anticommutes(p)]


def test_minus_identity_error():
    with pytest.raises(MinusIdentityError) as exc:
        StabilizerGroup(paulis("X -X"))
    assert exc.value.subset == (1, 2)


def test_non_hermitian_generator_squares_to_minus_identity():
    with pytest.raises(MinusIdentityError):
        StabilizerGroup([parse_pauli("iX")])


def test_dependent_error_names_subset():
    with pytest.raises(DependentGeneratorsError) as exc:
        StabilizerGroup(paulis("ZZI IZZ ZIZ"))
    assert exc.value.subset == (1, 2, 3)


def test_mixed_sizes_rejected():
    with pytest.raises(ValueError):
        StabilizerGroup([parse_pauli("XX"), parse_pauli("XXX")])
    # an explicit n is checked against every generator
    with pytest.raises(ValueError, match="mixed qubit counts"):
        StabilizerGroup([parse_pauli("ZZI")], n=5)


def test_code_513_shifts():
    base = parse_pauli("XZZXI")
    g = StabilizerGroup([base.shifted(i) for i in range(4)])
    assert g.rank == 4
    assert len(g.elements()) == 16


def test_code_422_group_contains_plus_xxxx():
    g1, g2 = paulis("YYYY ZZZZ")
    g = StabilizerGroup([g1, g2])
    els = {str(e) for e in g.elements()}
    assert els == {"IIII", "YYYY", "ZZZZ", "XXXX"}
    # sign check straight from dense matrices
    prod = matrix_of(g1) @ matrix_of(g2)
    xxxx = matrix_of(parse_pauli("XXXX"))
    assert np.allclose(prod, xxxx, atol=1e-12)


def test_enumeration_cap():
    past_cap = codes.catalog("ghz", n=MAX_ENUM_RANK + 2)
    assert past_cap.group().rank == MAX_ENUM_RANK + 1
    with pytest.raises(EnumerationCapError):
        past_cap.group().elements()


def test_elements_are_hermitian_and_distinct():
    for name in ("code_412", "code_513", "steane_713"):
        g = codes.catalog(name).group()
        els = g.elements()
        assert len({(e.x_bits, e.z_bits, e.phase_exp) for e in els}) == 1 << g.rank
        assert all(e.is_hermitian for e in els)
        assert els[0] == PauliOperator.identity(g.n)


def test_centralizer_sizes_and_commutation():
    for name, expected in [("code_412", 5), ("code_513", 6), ("steane_713", 8)]:
        g = codes.catalog(name).group()
        basis = g.centralizer_basis()
        assert len(basis) == expected == 2 * g.n - g.rank
        for b in basis:
            assert g.commutes_with_all(b)


def test_centralizer_basis_independent():
    g = codes.catalog("steane_713").group()
    basis = g.centralizer_basis()
    assert len(set(g.normalizer_masks())) == 1 << len(basis)


@settings(max_examples=60, deadline=None)
@given(helpers.random_codes(max_n=6))
def test_centralizer_basis_spans_the_commutant(spec):
    # the commutant by brute force over all 4^n (x, z) pairs
    g = spec.group()
    basis = g.centralizer_basis()
    assert len(basis) == 2 * g.n - g.rank
    assert all(g.commutes_with_all(b) for b in basis)
    commutant = {
        (x, z)
        for x in range(1 << g.n)
        for z in range(1 << g.n)
        if g.commutes_with_all(PauliOperator.from_bits(g.n, x, z))
    }
    assert commutant == set(g.normalizer_masks())


def test_ghz3_centralizer_spans_expected():
    g = StabilizerGroup(paulis("ZZI IZZ"))
    basis = g.centralizer_basis()
    spanned = set()
    for m in range(1 << len(basis)):
        x = z = 0
        for i, b in enumerate(basis):
            if m >> i & 1:
                x ^= b.x_bits
                z ^= b.z_bits
        spanned.add((x, z))
    for s in ("ZII", "IZI", "IIZ", "XXX"):
        p = parse_pauli(s)
        assert (p.x_bits, p.z_bits) in spanned


def test_contains_unsigned():
    g = codes.catalog("code_513").group()
    assert g.contains_unsigned(parse_pauli("XZZXI"))
    assert g.contains_unsigned(parse_pauli("-XZZXI"))  # sign ignored
    assert not g.contains_unsigned(parse_pauli("ZZZZZ"))


def test_coset_min_weight_ghz5():
    g = codes.catalog("ghz", n=5).group()
    w, witness = coset_min_weight(g, parse_pauli("XXXXX"))
    assert w == 5
    assert witness.weight == 5


def test_coset_min_weight_identity():
    g = codes.catalog("ghz", n=4).group()
    w, witness = coset_min_weight(g, PauliOperator.identity(4))
    assert w == 0 and witness.weight == 0


def test_coset_min_weight_513():
    spec = codes.catalog("code_513")
    w, witness = coset_min_weight(spec.group(), spec.logical_z_ops()[0])
    assert w == 3
    assert witness.weight == 3
    assert str(witness) == "-IIYZY"  # deterministic lexicographic pick
    # the witness really is in the coset: witness * Z-bar must be in S
    prod = witness * spec.logical_z_ops()[0]
    assert spec.group().contains_unsigned(prod)


def test_logical_x_set_ghz():
    for n in (3, 5, 8):
        spec = codes.catalog("ghz", n=n)
        members = logical_x_set(spec.group(), spec.logical_z_ops()[0])
        assert len(members) == 1 << n  # 2^(2n - r - 1) with r = n-1
        strs = {p.letters for p in members}
        for i in range(1, n + 1):
            assert PauliOperator.single(n, i, "Z").letters in strs


@pytest.mark.parametrize("name,n", [
    *(("ghz", n) for n in range(3, 13)),
    ("code_412", None), ("code_513", None), ("steane_713", None), ("code_422", None),
    *(("cyclic", n) for n in (5, 6, 7, 9, 11, 13, 14)),
])
def test_logical_x_count_closed_form(name, n):
    # the logical-class tables against a walk over every centralizer pair
    spec = codes.catalog(name, n=n)
    group = spec.group()
    assert code_distance(logical_classes(group)) == walk_distance(group)
    z_bars = spec.logical_z_ops()
    for z_bar in z_bars + [z_bars[0] * z_bars[-1]] * (spec.k == 2):
        members = logical_x_set(group, z_bar)
        walked = [
            PauliOperator.from_bits(spec.n, x, z).unsigned()
            for x, z in group.normalizer_masks()
            if ((x & z_bar.z_bits).bit_count() + (z & z_bar.x_bits).bit_count()) & 1
        ]
        walked.sort(key=lambda p: (p.weight, p.letters))
        assert [str(p) for p in members] == [str(p) for p in walked]
        assert logical_x_count(group) == len(members)
        weights = helpers.logical_x_weights(group, z_bar)
        assert weights == tuple(sum(p.weight == w for p in members) for w in range(spec.n + 1))


@settings(max_examples=60, deadline=None)
@given(helpers.random_codes(max_n=6))
def test_class_members_match_centralizer_doubling(spec):
    # the spec's logical-X tables against the whole centralizer, doubled
    # from its basis and kept where it anticommutes with the difference
    # rep, at every weight and unfiltered, in (weight, letters) order
    x, z, _, _ = helpers.doubling(spec.group().centralizer_basis(), PauliOperator.identity(spec.n))
    rep = und._difference_rep(spec)
    anti = np.bitwise_count((x & np.uint64(rep.z_bits)) ^ (z & np.uint64(rep.x_bits))) & 1 == 1
    weight = np.bitwise_count(x | z)
    tables = [table for table, is_x in und._table_of(spec).classes if is_x]
    for w in [*range(spec.n + 1), None]:
        at = anti if w is None else anti & (weight == w)
        letters = [PauliOperator.from_bits(spec.n, a, b).letters for a, b in zip(x[at].tolist(), z[at].tolist())]
        members = stabilizer.class_members(tables, w)
        assert [(p.weight, p.letters) for p in members] == sorted(zip(weight[at].tolist(), letters))
        assert all(str(p) == p.letters for p in members)  # each with a + sign


def test_logical_x_set_412_contains_listed():
    spec = codes.catalog("code_412")
    members = {p.letters for p in logical_x_set(spec.group(), spec.logical_z_ops()[0])}
    assert {"YYII", "IYYI", "IIYY", "YIIY", "ZIZI", "IXIX"} <= members


def test_logical_x_set_members_valid():
    spec = codes.catalog("code_513")
    group = spec.group()
    z_bar = spec.logical_z_ops()[0]
    members = logical_x_set(group, z_bar)
    assert len(members) == 1 << 5
    for p in members:
        assert p.anticommutes(z_bar)
        assert group.commutes_with_all(p)
        assert p.sign_exp == 0


def test_logical_x_set_rejects_noncentral():
    spec = codes.catalog("code_513")
    with pytest.raises(ValueError):
        logical_x_set(spec.group(), parse_pauli("XIIII"))


def test_in_logical_x_set_matches_enumeration():
    spec = codes.catalog("code_412")
    group = spec.group()
    z_bar = spec.logical_z_ops()[0]
    enumerated = {p.letters for p in logical_x_set(group, z_bar)}
    import itertools

    for letters in itertools.product("IXYZ", repeat=4):
        cand = parse_pauli("".join(letters))
        if cand.weight == 0:
            continue
        assert in_logical_x_set(group, z_bar, cand) == (cand.letters in enumerated)


def test_code_distances():
    def distance(name, n=None):
        return code_distance(logical_classes(codes.catalog(name, n=n).group()))

    assert distance("code_513") == distance("steane_713") == 3
    assert distance("code_422") == 2
    for n in (3, 6):
        assert distance("ghz", n) == 1


def test_dense_group_elements_match_generator_products():
    # every enumerated element equals the dense product of its generators
    for name in ("code_412", "code_422"):
        spec = codes.catalog(name)
        g = spec.group()
        gens = [matrix_of(p) for p in g.generators]
        n = g.n
        for m, el in enumerate(g.elements()):
            expected = np.eye(1 << n, dtype=complex)
            # reconstruct from the Gray-code order by explicit subset product
            sub = gray_to_subset(m)
            for i in sub:
                expected = expected @ gens[i]
            assert np.allclose(matrix_of(el), expected, atol=1e-12)


def gray_to_subset(m):
    gray = m ^ (m >> 1)
    return [i for i in range(gray.bit_length()) if gray >> i & 1]


@given(st.integers(2, 6))
def test_ghz_group_properties(n):
    g = codes.catalog("ghz", n=n).group()
    els = g.elements()
    assert len(els) == 1 << (n - 1)
    for e in els:
        assert e.x_bits == 0  # GHZ stabilizers are Z-type
        assert e.phase_exp == 0


@pytest.mark.parametrize("text, error, subset", [
    # generator 4 is the product of 1 and 2; 3 sits between them and 5 follows
    ("ZZIII IIZZI XXXXI ZZZZI IIIIZ", DependentGeneratorsError, (1, 2, 4)),
    ("ZZIII IIZZI XXXXI -ZZZZI IIIIZ", MinusIdentityError, (1, 2, 4)),
    # generator 4 is the product of 1 and 3, and XX * ZZ = -YY
    ("XXII ZZZZ ZZII -YYII IIXX", DependentGeneratorsError, (1, 3, 4)),
    ("XXII ZZZZ ZZII YYII IIXX", MinusIdentityError, (1, 3, 4)),
])
def test_vanishing_generator_inside_the_list(text, error, subset):
    with pytest.raises(error) as exc:
        StabilizerGroup(paulis(text))
    assert type(exc.value) is error
    assert exc.value.subset == subset


def test_noncommuting_error_names_the_first_pair():
    # pairs (1, 4) and (2, 3) both anticommute; (1, 4) comes first
    with pytest.raises(NonCommutingGeneratorsError) as exc:
        StabilizerGroup(paulis("ZII IZI IXI XII"))
    assert exc.value.pair == (1, 4)


@st.composite
def generating_sets(draw):
    """Commuting Hermitian generators, signed at random, with one
    dependent generator (a signed product of earlier ones) inserted."""
    spec = draw(helpers.random_codes(max_n=7))
    gens = spec.stabilizer_ops()
    at = draw(st.integers(1, len(gens)))
    picks = draw(st.lists(st.integers(0, at - 1), min_size=1, max_size=at, unique=True))
    dependent = PauliOperator.identity(spec.n)
    for i in sorted(picks):
        dependent = dependent * gens[i]
    dependent = dependent * PauliOperator(spec.n, 0, draw(st.sampled_from((0, 2))))
    return gens[:at] + [dependent] + gens[at:]


@settings(max_examples=60, deadline=None)
@given(generating_sets())
def test_validation_names_the_subset_found_by_brute_force(gens):
    # the first generator in the span of the ones before it, by a walk
    # over every subset of those
    for k, g in enumerate(gens):
        for combo in range(1 << k):
            prod = g
            for i in range(k):
                if combo >> i & 1:
                    prod = prod * gens[i]
            if prod.x_bits == prod.z_bits == 0:
                subset = tuple(i + 1 for i in range(k) if combo >> i & 1) + (k + 1,)
                error = MinusIdentityError if prod.phase_exp == 2 else DependentGeneratorsError
                break
        else:
            continue
        break
    with pytest.raises(error) as exc:
        StabilizerGroup(gens)
    assert exc.value.subset == subset
    assert type(exc.value) is error
