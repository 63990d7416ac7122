"""Dense oracle: Pauli matrices, codeword state vectors, reduced-state distances."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import apply_on_subset, masks_of, matrix_of, relates_codewords, relating_unitary
import qundet.undetermined as und
from qundet import dense
from qundet.codes import CodeSpec, catalog
from qundet.dense import (
    OracleCapError,
    apply_pauli,
    build_density,
    build_mixed_density,
    codeword_states,
    frobenius_distance,
    partial_trace,
    pauli_matrix,
    reduced_distances,
)
from qundet.pauli import PauliOperator, parse_pauli
from qundet.stabilizer import NonCommutingGeneratorsError

# small catalog codes, k = 1 and k = 2, for the per-generator checks
SMALL_CODES = [("ghz", n) for n in range(3, 7)] + [
    ("code_412", None), ("code_513", None), ("steane_713", None), ("code_422", None),
]


def _extended_sets(spec):
    """Per codeword, per stacked vector: the generators that fix it."""
    gens = spec.stabilizer_ops()
    z_bars = spec.logical_z_ops()
    flip = [PauliOperator(z.n, z.x_bits, z.z_bits, (z.phase_exp + 2) % 4) for z in z_bars]
    if spec.k == 1:
        return {0: [gens + [z_bars[0]]], 1: [gens + [flip[0]]]}
    return {
        0: [gens + z_bars, gens + flip],
        1: [gens + [flip[0], z_bars[1]], gens + [z_bars[0], flip[1]]],
    }


def _vectors(spec):
    """The two codeword state vectors of a k=1 code."""
    (v0,), (v1,) = codeword_states(spec)
    return v0, v1


def _equal_after(spec, traced):
    """Does the oracle find equal reductions after tracing ``traced``?"""
    (dist,) = reduced_distances(*codeword_states(spec), masks_of([traced]))
    return dist == 0


def _reference_projector(ops, n):
    """prod (I + P)/2 over commuting ops, from the independent helper matrices."""
    out = np.eye(1 << n, dtype=complex)
    for op in ops:
        out = out @ (np.eye(1 << n) + matrix_of(op)) / 2
    return out


def test_pauli_matrix_spot_checks():
    np.testing.assert_allclose(pauli_matrix(parse_pauli("X")), [[0, 1], [1, 0]])
    np.testing.assert_allclose(pauli_matrix(parse_pauli("Y")),
                               [[0, -1j], [1j, 0]])
    # qubit 1 is the leftmost letter and the most significant tensor factor
    zi = pauli_matrix(parse_pauli("ZI"))
    np.testing.assert_allclose(np.diag(zi), [1, 1, -1, -1])


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n),
    st.integers(0, 2 ** n - 1),
    st.integers(0, 2 ** n - 1),
    st.integers(0, 3),
)))
def test_pauli_matrix_matches_reference(args):
    n, x, z, p = args
    op = PauliOperator(n, x, z, p)
    np.testing.assert_allclose(pauli_matrix(op), matrix_of(op), atol=1e-12)


def test_codeword_densities_span_the_codespace():
    spec = catalog("code_412")
    proj = build_density(spec, 0) + build_density(spec, 1)
    np.testing.assert_allclose(proj @ proj, proj, atol=1e-12)
    np.testing.assert_allclose(proj, proj.conj().T, atol=1e-12)
    # rank 3 group on 4 qubits: 2^(4-3) dimensional codespace
    assert abs(np.trace(proj) - 2) < 1e-12
    np.testing.assert_allclose(proj, _reference_projector(spec.stabilizer_ops(), 4), atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(
    st.just(n),
    st.integers(0, 2 ** n - 1),
    st.integers(0, 2 ** n - 1),
    st.integers(0, 3),
    st.integers(0, 2 ** 32 - 1),
)))
def test_apply_pauli_matches_matrix(args):
    # pauli_matrix is built from apply_pauli, so the kernel is checked
    # against the independent Kronecker-product helper
    n, x, z, p, seed = args
    op = PauliOperator(n, x, z, p)
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(2, 1 << n)) + 1j * rng.normal(size=(2, 1 << n))
    expect = (matrix_of(op) @ v.T).T
    np.testing.assert_allclose(apply_pauli(op, v), expect, atol=1e-12)
    np.testing.assert_allclose(apply_pauli(op, v[0]), expect[0], atol=1e-12)


@pytest.mark.parametrize("name,n", SMALL_CODES)
def test_codeword_states_fixed_by_generators(name, n):
    spec = catalog(name, n=n)
    for states, sets in zip(codeword_states(spec), _extended_sets(spec).values()):
        assert states.shape == (spec.k, 1 << spec.n)
        for vec, ops in zip(states, sets):
            assert abs(np.linalg.norm(vec) - 1) < 1e-12
            for op in ops:
                np.testing.assert_allclose(matrix_of(op) @ vec, vec, atol=1e-12)


# every catalog code with n <= 7, for the exhaustive reduced_distances checks
CATALOG_UP_TO_7 = [("ghz", n) for n in range(2, 8)] + [("cyclic", n) for n in (5, 6, 7)] + [
    ("code_412", None), ("code_513", None), ("steane_713", None), ("code_422", None),
]

# the specs the benchmark's oracle sweep runs, unpermuted
SWEEP_CODES = [
    ("code_412", None), ("code_513", None), ("code_422", None), ("steane_713", None),
    ("cyclic", 7), ("cyclic", 9), ("ghz", 8), ("ghz", 9), ("ghz", 10),
]


def _subsets(n, size):
    return list(itertools.combinations(range(1, n + 1), size))


def _densities(spec):
    """The two codewords' density matrices, pure for k=1, mixed for k=2."""
    if spec.k == 1:
        return build_density(spec, 0), build_density(spec, 1)
    return build_mixed_density(spec, 0), build_mixed_density(spec, 1)


def _partial_traces(rho, n):
    """(traced, partial_trace(rho, traced)) for every subset, depth first.

    Each subset's reduction is its parent's with the least traced qubit
    traced out too; the qubits below it keep their numbers, so no more
    than one matrix per depth is alive.
    """
    def walk(m, traced, width):
        yield traced, m
        for q in range(1, traced[0] if traced else n + 1):
            yield from walk(partial_trace(m, (q,), width), (q,) + traced, width - 1)

    return walk(rho, (), n)


@pytest.mark.parametrize("name,n", CATALOG_UP_TO_7)
def test_reduced_distances_match_partial_trace(name, n):
    # one size per call: below n/2 each subset is read on the traced side
    # of its own cut, above it on the kept side of its complement's
    spec = catalog(name, n=n)
    s0, s1 = codeword_states(spec)
    rho0, rho1 = _densities(spec)
    for size in range(spec.n + 1):
        subsets = _subsets(spec.n, size)
        got = list(reduced_distances(s0, s1, masks_of(subsets)))
        assert len(got) == len(subsets)
        for traced, dist in zip(subsets, got):
            want = np.linalg.norm(
                partial_trace(rho0, traced, spec.n) - partial_trace(rho1, traced, spec.n))
            assert abs(dist - want) < 1e-12, f"{spec.name} traced {traced}"


def _exact_numerators(monkeypatch):
    """Spy on frobenius_distance: every Gram sum, norm and numerator is an integer.

    Returns the list the numerators are appended to, one per call.
    """
    compare = dense.frobenius_distance
    numerators = []

    def exact(grams, norms):
        assert all(float(v).is_integer() for v in (*grams, *norms)), (grams, norms)
        (g00, g11, g01), (n0, n1) = map(int, grams), map(int, norms)
        numerator = n1 * n1 * g00 + n0 * n0 * g11 - 2 * n0 * n1 * g01
        dist = compare(grams, norms)
        assert dist == math.sqrt(numerator) / (n0 * n1)
        numerators.append(numerator)
        return dist

    monkeypatch.setattr(dense, "frobenius_distance", exact)
    return numerators


@pytest.mark.parametrize("name,n", list(dict.fromkeys(CATALOG_UP_TO_7 + SWEEP_CODES)))
def test_reduced_distances_are_exact(monkeypatch, name, n):
    # every subset of every size in one call, so each cut serves a subset
    # and its complement; the global phase i makes the same stacks complex
    spec = catalog(name, n=n)
    s0, s1 = codeword_states(spec)
    rho0, rho1 = _densities(spec)
    want = {t: np.linalg.norm(m) for t, m in _partial_traces(rho0 - rho1, spec.n)}
    subsets = sorted(want, key=lambda t: (len(t), t))
    numerators = _exact_numerators(monkeypatch)
    for phase in (1, 1j):
        numerators.clear()
        got = reduced_distances(phase * s0, phase * s1, masks_of(subsets))
        assert len(numerators) == len(subsets) == 2 ** spec.n
        for traced, dist in zip(subsets, got):
            if want[traced] < 1e-12:
                assert dist == 0.0, f"{spec.name} traced {traced}"
            else:
                assert abs(dist - want[traced]) < 1e-12, f"{spec.name} traced {traced}"


@pytest.mark.parametrize("seed", range(6))
def test_reduced_distances_are_exact_on_gaussian_integers(monkeypatch, seed):
    # random amplitudes 0, +-1, +-i are no stabilizer state, and their
    # Gram entries mix real and imaginary parts, yet every sum is an
    # integer; S on qubit 1 and X on qubit n act inside any traced set
    # that holds both, so those reductions are equal
    rng = np.random.default_rng(seed)
    n, m = 3 + seed % 4, 1 + seed % 2
    s0 = rng.choice(np.array([0, 1, -1, 1j, -1j]), size=(m, 1 << n))
    s1 = (s0 * np.where(np.arange(1 << n) >> (n - 1), 1j, 1))[:, np.arange(1 << n) ^ 1]
    rho0, rho1 = (s.T @ s.conj() / np.vdot(s, s).real for s in (s0, s1))
    want = dict(_partial_traces(rho0 - rho1, n))
    subsets = sorted(want, key=lambda t: (len(t), t))
    numerators = _exact_numerators(monkeypatch)
    got = reduced_distances(s0, s1, masks_of(subsets))
    assert len(numerators) == len(subsets)
    for traced, dist in zip(subsets, got):
        if {1, n} <= set(traced):
            assert dist == 0.0 and np.linalg.norm(want[traced]) < 1e-12, traced
        else:
            assert abs(dist - np.linalg.norm(want[traced])) < 1e-12, traced


@pytest.mark.parametrize("name,n", SWEEP_CODES)
def test_reduced_distances_separate_the_verdicts(name, n):
    spec = catalog(name, n=n)
    s0, s1 = codeword_states(spec)
    floor = 2 ** ((3 - spec.n) / 2)
    verdicts = list(und._walk(spec, range(1, spec.n), witnesses=False))
    dists = reduced_distances(s0, s1, [traced for traced, _ in verdicts])
    for (traced, found), dist in zip(verdicts, dists):
        if found is None:
            assert dist == 0, f"{spec.name} traced {traced}"
        else:
            assert dist >= floor * (1 - 1e-12), f"{spec.name} traced {traced}"


@pytest.mark.parametrize("name,n", [("ghz", 9), ("cyclic", 7), ("code_422", None)])
def test_reduced_distances_do_not_depend_on_the_chunk(monkeypatch, name, n):
    spec = catalog(name, n=n)
    s0, s1 = codeword_states(spec)
    per_size = [masks_of(_subsets(spec.n, size)) for size in range(1, spec.n)]
    default = [list(reduced_distances(s0, s1, subsets)) for subsets in per_size]
    monkeypatch.setattr(dense, "_CHUNK", 1)
    single = [list(reduced_distances(s0, s1, subsets)) for subsets in per_size]
    assert default == single


@pytest.mark.parametrize("name,n", list(dict.fromkeys(CATALOG_UP_TO_7 + SWEEP_CODES)))
def test_reduced_distances_do_not_depend_on_the_dtype(monkeypatch, name, n):
    # a global phase of i keeps every amplitude exact but makes the
    # stacks complex, so the same lines run in complex arithmetic
    spec = catalog(name, n=n)
    s0, s1 = codeword_states(spec)
    dtypes = set()
    cut = dense._cut

    def spied(*args):
        out = cut(*args)
        dtypes.add(out.dtype)
        return out

    def run(states0, states1, subsets):
        dtypes.clear()
        return list(reduced_distances(states0, states1, subsets)), set(dtypes)

    monkeypatch.setattr(dense, "_cut", spied)
    # code_412's codewords have imaginary amplitudes; every other code here is real
    plain_dtype = np.dtype(np.complex64 if name == "code_412" else np.float32)
    for size in range(spec.n + 1):
        subsets = masks_of(_subsets(spec.n, size))
        plain, plain_dtypes = run(s0, s1, subsets)
        rotated, rotated_dtypes = run(1j * s0, 1j * s1, subsets)
        assert plain_dtypes == {plain_dtype}
        assert rotated_dtypes == {np.dtype(np.complex64)}
        assert plain == rotated, f"{spec.name} traced size {size}"


def _index_cut(states, traced, n):
    """Reference cut, entry by entry: qubit q weighs 2^(n-q) in a basis index."""
    traced = sorted(set(traced))
    kept = [q for q in range(1, n + 1) if q not in traced]

    def bits(b, qubits):
        # the bits of basis index b at ``qubits``, the first most significant
        return sum((b >> (n - q) & 1) << (len(qubits) - 1 - i) for i, q in enumerate(qubits))

    want = np.zeros((len(states) << len(traced), 1 << len(kept)), dtype=states.dtype)
    for j, state in enumerate(states):
        for b, amp in enumerate(state):
            # rows are the stack index, then the traced bits; columns the kept bits
            want[j << len(traced) | bits(b, traced), bits(b, kept)] = amp
    return want


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_cut_matches_a_transpose(m):
    n = 5
    rng = np.random.default_rng(m)
    states = rng.normal(size=(m, 1 << n)) + 1j * rng.normal(size=(m, 1 << n))
    # every size from 0 to n, and sets out of lexicographic order
    cases = [_subsets(n, size) for size in range(n + 1)] + [[(2, 4), (1, 5), (2, 3)]]
    for subsets in cases:
        got = dense._cut(states, masks_of(subsets), n)
        want = np.stack([_index_cut(states, s, n) for s in subsets])
        np.testing.assert_array_equal(got, want)


def test_reduced_distances_take_mixed_sizes():
    spec = catalog("steane_713")
    s0, s1 = codeword_states(spec)
    for bad in (-1, 1 << 7):
        with pytest.raises(ValueError, match="out of range"):
            reduced_distances(s0, s1, [bad])
    assert list(reduced_distances(s0, s1, [])) == []
    # a repeated mask reads the same distance each time
    assert list(reduced_distances(s0, s1, masks_of([(2, 3, 4)] * 2))) == [0.5, 0.5]
    # sets of any sizes, with or without their complements, in any order
    subsets = masks_of(
        [(2, 3, 4), (1,), (1, 5, 6, 7), (), (2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5, 6, 7)])
    alone = [reduced_distances(s0, s1, [t])[0] for t in subsets]
    assert reduced_distances(s0, s1, subsets) == alone
    assert reduced_distances(s0, s1, subsets[::-1]) == alone[::-1]


def test_codeword_states_do_not_depend_on_the_start_vector(monkeypatch):
    # the projection is rounded to the exact stabilizer state, so any
    # start vector gives the same bits
    spec = catalog("steane_713")
    base = codeword_states(spec)
    for seed in (0, 1, 12345):
        monkeypatch.setattr(dense, "_START_SEED", seed)
        for got, want in zip(codeword_states(spec), base):
            assert np.array_equal(got, want)


def test_projection_failures_raise(monkeypatch):
    spec = catalog("code_513")
    # each (I - P)/2 step annihilates the vector
    monkeypatch.setattr(dense, "apply_pauli", lambda p, v: -v)
    with pytest.raises(RuntimeError, match="vanished"):
        codeword_states(spec)
    # an unprojected random vector is no stabilizer state
    monkeypatch.setattr(dense, "apply_pauli", lambda p, v: v)
    with pytest.raises(RuntimeError, match="not a stabilizer state"):
        codeword_states(spec)


def test_codeword_states_validate_the_extended_set():
    # Z-bar anticommutes with the stabilizer
    spec = CodeSpec("bad", 2, 1, ("XX",), ("ZI",))
    with pytest.raises(NonCommutingGeneratorsError):
        codeword_states(spec)
    # too few generators fix no single state
    spec = CodeSpec("short", 3, 1, ("ZZI",), ("ZZZ",))
    with pytest.raises(ValueError, match="fixes no single state"):
        codeword_states(spec)


def test_codeword_states_without_stabilizers():
    one = CodeSpec("one", 1, 1, (), ("Z",))
    s0, s1 = codeword_states(one)
    np.testing.assert_allclose(s0, [[1, 0]])
    np.testing.assert_allclose(s1, [[0, 1]])
    s0, s1 = codeword_states(CodeSpec("two", 2, 2, (), ("ZI", "IZ")))
    np.testing.assert_allclose(s0, np.eye(4)[[0, 3]])
    np.testing.assert_allclose(s1, np.eye(4)[[2, 1]])


def test_build_density_ghz3():
    spec = catalog("ghz", n=3)
    rho = build_density(spec, 0)
    v = np.zeros(8, dtype=complex)
    v[0] = v[7] = 1 / np.sqrt(2)
    np.testing.assert_allclose(rho, np.outer(v, v.conj()), atol=1e-12)
    rho1 = build_density(spec, 1)
    w = v.copy()
    w[7] = -w[7]
    np.testing.assert_allclose(rho1, np.outer(w, w.conj()), atol=1e-12)


@pytest.mark.parametrize("name", ["code_412", "code_513", "steane_713"])
def test_build_density_is_rank_one_projector(name):
    spec = catalog(name)
    for bit in (0, 1):
        rho = build_density(spec, bit)
        np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
        np.testing.assert_allclose(rho @ rho, rho, atol=1e-12)
        assert abs(np.trace(rho) - 1) < 1e-12


def test_build_density_rejects_k2():
    with pytest.raises(ValueError):
        build_density(catalog("code_422"), 0)


@pytest.mark.parametrize("name", ["code_412", "code_513", "ghz"])
def test_build_density_matches_reference_projector(name):
    # the codeword's projector is the product of (I + g)/2 over its
    # extended generating set, with g from the independent helper matrices
    spec = catalog(name, n=4) if name == "ghz" else catalog(name)
    for bit, (ops,) in _extended_sets(spec).items():
        np.testing.assert_allclose(build_density(spec, bit),
                                   _reference_projector(ops, spec.n), atol=1e-12)


def test_codeword_vectors_orthogonal():
    spec = catalog("code_513")
    v0, v1 = _vectors(spec)
    assert abs(np.vdot(v0, v1)) < 1e-12


def test_partial_trace_textbook_ghz():
    rho = build_density(catalog("ghz", n=3), 0)
    one = partial_trace(rho, (2, 3))
    np.testing.assert_allclose(one, np.eye(2) / 2, atol=1e-12)
    two = partial_trace(rho, (3,), 3)
    expect = np.zeros((4, 4))
    expect[0, 0] = expect[3, 3] = 0.5
    np.testing.assert_allclose(two, expect, atol=1e-12)


def test_partial_trace_properties():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    # trace preservation
    assert abs(np.trace(partial_trace(rho, (2,))) - 1) < 1e-12
    # hermiticity preservation
    red = partial_trace(rho, (1, 3))
    np.testing.assert_allclose(red, red.conj().T, atol=1e-12)
    # sequential equals batched: tracing 3 then 2 == tracing {2, 3}
    step = partial_trace(partial_trace(rho, (3,)), (2,))
    np.testing.assert_allclose(step, partial_trace(rho, (2, 3)), atol=1e-12)
    # linearity
    b = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    sig = b @ b.conj().T
    sig /= np.trace(sig)
    np.testing.assert_allclose(
        partial_trace(0.3 * rho + 0.7 * sig, (1,)),
        0.3 * partial_trace(rho, (1,)) + 0.7 * partial_trace(sig, (1,)),
        atol=1e-12)


def test_partial_trace_edge_cases():
    rho = np.eye(4) / 4
    np.testing.assert_allclose(partial_trace(rho, (1, 2)), [[1.0]])
    # duplicates collapse to a set
    np.testing.assert_allclose(partial_trace(rho, (1, 1)),
                               partial_trace(rho, (1,)))
    with pytest.raises(ValueError):
        partial_trace(rho, (0,))
    with pytest.raises(ValueError):
        partial_trace(rho, (3,))
    with pytest.raises(ValueError):
        partial_trace(np.eye(3), (1,), 2)


def test_build_mixed_density_spectrum():
    spec = catalog("code_422")
    for which in (0, 1):
        rho = build_mixed_density(spec, which)
        vals = np.sort(np.linalg.eigvalsh(rho))[::-1]
        np.testing.assert_allclose(vals[:2], [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(vals[2:], 0, atol=1e-12)
        assert abs(np.trace(rho) - 1) < 1e-12
    # the 00/11 and 10/01 mixtures live on orthogonal subspaces
    r0 = build_mixed_density(spec, 0)
    r1 = build_mixed_density(spec, 1)
    assert np.linalg.norm(r0 @ r1) < 1e-12


def test_build_mixed_density_rejects_k1():
    with pytest.raises(ValueError):
        build_mixed_density(catalog("code_513"), 0)


def test_apply_on_subset():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    v = np.zeros(4, dtype=complex)
    v[0] = 1.0
    # flip qubit 2 of |00> -> |01>
    np.testing.assert_allclose(apply_on_subset(x, v, (2,), 2), [0, 1, 0, 0])
    np.testing.assert_allclose(apply_on_subset(x, v, (1,), 2), [0, 0, 1, 0])
    # two-qubit unitary on out-of-order subset
    cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    w = np.zeros(8, dtype=complex)
    w[4] = 1.0  # |100>
    # control qubit 1, target qubit 3: |100> -> |101>
    np.testing.assert_allclose(
        apply_on_subset(cnot, w, (1, 3), 3),
        np.eye(8)[5])


def test_relating_unitary_ghz_phase():
    psi0, psi1 = _vectors(catalog("ghz", n=3))
    u = relating_unitary(psi0, psi1, (1,))
    np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-9)
    assert relates_codewords(psi0, psi1, (1,), u)
    assert not relates_codewords(psi0, psi1, (1,), np.eye(2, dtype=complex))


def test_relating_unitary_steane():
    psi0, psi1 = _vectors(catalog("steane_713"))
    subset = (1, 2, 3, 4, 5)
    u = relating_unitary(psi0, psi1, subset)
    dim = 1 << len(subset)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(dim), atol=1e-8)
    assert relates_codewords(psi0, psi1, subset, u)


def test_relating_unitary_rejects_distinguishing_subset():
    # tracing {2,3,4} of this code leaves unequal reductions, so no
    # unitary on {2,3,4} can connect the codewords
    spec = catalog("steane_713")
    assert not _equal_after(spec, (2, 3, 4))
    with pytest.raises(ValueError):
        relating_unitary(*_vectors(spec), (2, 3, 4))


@pytest.mark.parametrize("name,n", [("ghz", n) for n in range(3, 6)] + [
    ("code_412", None), ("code_513", None), ("steane_713", None),
])
def test_relating_unitary_exists_iff_reductions_agree(name, n):
    # a unitary on the traced qubits maps codeword 0 to codeword 1
    # exactly when the kept qubits leave equal reduced states
    spec = catalog(name, n=n)
    s0, s1 = codeword_states(spec)
    psi0, psi1 = s0[0], s1[0]
    for size in range(1, spec.n):
        subsets = _subsets(spec.n, size)
        for traced, dist in zip(subsets, reduced_distances(s0, s1, masks_of(subsets))):
            if dist != 0:
                with pytest.raises(ValueError, match="does not relate"):
                    relating_unitary(psi0, psi1, traced)
                continue
            u = relating_unitary(psi0, psi1, traced)
            np.testing.assert_allclose(u @ u.conj().T, np.eye(1 << size), atol=1e-12)
            assert relates_codewords(psi0, psi1, traced, u), traced


def test_relating_unitary_rejects_bad_subset():
    psi0, psi1 = _vectors(catalog("ghz", n=3))
    with pytest.raises(ValueError):
        relating_unitary(psi0, psi1, ())
    with pytest.raises(ValueError):
        relating_unitary(psi0, psi1, (1, 2, 3))
    with pytest.raises(ValueError):
        relating_unitary(psi0, psi1, (0,))


def test_reduced_equal_dense_steane():
    spec = catalog("steane_713")
    # tracing only qubit 1 keeps {2..7}, which still holds a coset
    # support, so the reductions differ; the triple {5,6,7} removes a
    # point from every low-weight coset support and equalizes them
    assert not _equal_after(spec, (1,))
    assert _equal_after(spec, (5, 6, 7))
    assert _equal_after(spec, (1, 2, 3, 4, 5))
    assert not _equal_after(spec, (2, 3, 4))


def test_reduced_equal_dense_mixed_422():
    spec = catalog("code_422")
    assert _equal_after(spec, (1, 2, 3))
    assert not _equal_after(spec, (1, 3))


def test_trace_and_frobenius_distance():
    # |0> against |1>, nothing traced: each Gram is 1 x 1, and the
    # states are orthogonal, so the cross sum is 0
    assert abs(frobenius_distance((1.0, 1.0, 0.0), (1.0, 1.0)) - np.sqrt(2)) < 1e-12
    (whole,) = reduced_distances(np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]]), [0])
    assert abs(whole - np.sqrt(2)) < 1e-12
    # an equal pair reads exactly 0, whatever the norms
    assert frobenius_distance((1.0, 1.0, 1.0), (1.0, 1.0)) == 0.0
    assert frobenius_distance((4.0, 16.0, 8.0), (2.0, 4.0)) == 0.0


def test_steane_frozen_distance():
    spec = catalog("steane_713")
    r0 = partial_trace(build_density(spec, 0), (2, 3, 4), 7)
    r1 = partial_trace(build_density(spec, 1), (2, 3, 4), 7)
    assert abs(np.linalg.norm(r0 - r1) - 0.5) < 1e-9


# alpha|0..0> + beta|1..1> against alpha|0..0> + beta e^{i theta}|1..1>
PHASE_FAMILY = [(3, 1 / np.sqrt(2), 1 / np.sqrt(2), np.pi / 3), (4, 0.6, 0.8, 1.0)]


def _phase_pair(n, alpha, beta, theta):
    v0 = np.zeros((1, 1 << n), dtype=complex)
    v1 = np.zeros((1, 1 << n), dtype=complex)
    v0[0, 0] = v1[0, 0] = alpha
    v0[0, -1] = beta
    v1[0, -1] = beta * np.exp(1j * theta)
    return v0, v1


def test_phase_family_check():
    # no stabilizer states, yet tracing any one qubit leaves equal
    # reductions, while the whole states differ
    for n, alpha, beta, theta in PHASE_FAMILY:
        rho0, rho1 = (v.T @ v.conj() for v in _phase_pair(n, alpha, beta, theta))
        for traced in _subsets(n, 1):
            assert np.linalg.norm(
                partial_trace(rho0, traced, n) - partial_trace(rho1, traced, n)) < 1e-9
        whole = np.linalg.norm(rho0 - rho1)
        assert abs(whole - np.sqrt(2) * abs(alpha * beta * (1 - np.exp(1j * theta)))) < 1e-12


def test_reduced_distances_reject_non_stabilizer_stacks():
    # the phase family's amplitudes are no Gaussian integers once scaled
    for case in PHASE_FAMILY:
        v0, v1 = _phase_pair(*case)
        with pytest.raises(ValueError, match="Gaussian integers"):
            reduced_distances(v0, v1, masks_of(_subsets(case[0], 1)))


def test_oracle_cap():
    with pytest.raises(OracleCapError):
        pauli_matrix(PauliOperator(dense.ORACLE_MAX_N + 1, 0, 0, 0))
    with pytest.raises(OracleCapError):
        codeword_states(catalog("ghz", n=dense.ORACLE_MAX_N + 1))
