"""Dense numeric oracle: states, density matrices, partial traces.

Everything here is an independent check on the symbolic engine.  A
Pauli's dense realization is a generalized permutation matrix,

    P |b> = i**phase_exp * (-1)**(z.b) |b XOR x>,

with qubit 1 the most significant bit of the basis index, matching the
leftmost letter of the string form.  Density matrices for a code's
codewords are built as uniform sums over an enumerated signed group,
never from the symbolic decision rule they are meant to cross-check.

Sizes are capped (default n <= 10, i.e. 1024 x 1024 complex) because
the whole point of the symbolic engine is to go beyond what densifying
can reach.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from qundet.codes import CodeSpec
from qundet.pauli import PauliOperator
from qundet.stabilizer import StabilizerGroup

ORACLE_MAX_N = 10

_I2 = np.eye(2, dtype=complex)


class OracleCapError(ValueError):
    """Raised when a dense computation would exceed the size cap."""


def _check_cap(n: int, cap: int = ORACLE_MAX_N) -> None:
    if n > cap:
        raise OracleCapError(f"dense oracle capped at n={cap}, got n={n}")


def _bit_index(n: int, qubit: int) -> int:
    # qubit 1 is the most significant bit of a basis state index
    return n - qubit


def pauli_matrix(p: PauliOperator) -> np.ndarray:
    """Dense 2^n x 2^n realization of a signed Pauli operator."""
    _check_cap(p.n)
    dim = 1 << p.n
    # mirror bit-vectors into basis-index order (qubit 1 = MSB)
    x = sum(1 << _bit_index(p.n, q) for q in range(1, p.n + 1) if p.x_bits >> (q - 1) & 1)
    z = sum(1 << _bit_index(p.n, q) for q in range(1, p.n + 1) if p.z_bits >> (q - 1) & 1)
    cols = np.arange(dim)
    rows = cols ^ x
    signs = np.where(np.bitwise_count(cols & z) & 1, -1, 1)
    m = np.zeros((dim, dim), dtype=complex)
    m[rows, cols] = (1j ** p.phase_exp) * signs
    return m


def group_projector(group: StabilizerGroup) -> np.ndarray:
    """2^-r * sum of the dense realizations of the group's elements."""
    _check_cap(group.n)
    dim = 1 << group.n
    acc = np.zeros((dim, dim), dtype=complex)
    # the oracle shares Pauli multiplication and group enumeration with
    # the symbolic engine, but never its coset rule: equality here comes
    # from dense matrices and partial traces alone
    elements = group.elements()
    for el in elements:
        acc += pauli_matrix(el)
    return acc / len(elements)


def build_density(spec: CodeSpec, logical_bit: int) -> np.ndarray:
    """Density matrix of codeword ``logical_bit`` of a k=1 code.

    The projector onto the joint +1 eigenspace of the stabilizers and
    (-1)^bit Z-bar equals the uniform sum over the signed group they
    generate; that group has rank n, so the result is a rank-1 state.
    """
    if spec.k != 1:
        raise ValueError("build_density needs a k=1 code")
    gens = [g for g in spec.stabilizer_ops()]
    z_bar = spec.logical_z_ops()[0]
    if logical_bit:
        z_bar = PauliOperator(z_bar.n, z_bar.x_bits, z_bar.z_bits, (z_bar.phase_exp + 2) % 4)
    # construction validates the extended generating set before densifying
    return group_projector(StabilizerGroup(gens + [z_bar]))


def build_mixed_density(spec: CodeSpec, which: int) -> np.ndarray:
    """Equal mixture of two k=2 codewords: 00/11 for which=0, 10/01 for 1."""
    if spec.k != 2:
        raise ValueError("build_mixed_density needs a k=2 code")
    gens = spec.stabilizer_ops()
    zb1, zb2 = spec.logical_z_ops()
    pairs = [(0, 0), (1, 1)] if which == 0 else [(1, 0), (0, 1)]
    dim = 1 << spec.n
    acc = np.zeros((dim, dim), dtype=complex)
    for i, j in pairs:
        s1 = _flip_sign(zb1) if i else zb1
        s2 = _flip_sign(zb2) if j else zb2
        acc += group_projector(StabilizerGroup(gens + [s1, s2]))
    return acc / 2


def _flip_sign(p: PauliOperator) -> PauliOperator:
    return PauliOperator(p.n, p.x_bits, p.z_bits, (p.phase_exp + 2) % 4)


def codeword_vector(spec: CodeSpec, logical_bit: int) -> np.ndarray:
    """State vector of a k=1 codeword, by projecting a basis state.

    Independent of :func:`build_density`: applies the projector of each
    generator in sequence to computational basis states until one
    survives.  The global phase is fixed by the first nonzero amplitude.
    """
    if spec.k != 1:
        raise ValueError("codeword_vector needs a k=1 code")
    _check_cap(spec.n)
    gens = list(spec.stabilizer_ops())
    z_bar = spec.logical_z_ops()[0]
    if logical_bit:
        z_bar = _flip_sign(z_bar)
    mats = [pauli_matrix(g) for g in gens + [z_bar]]
    dim = 1 << spec.n
    for seed in range(dim):
        v = np.zeros(dim, dtype=complex)
        v[seed] = 1.0
        for m in mats:
            v = (v + m @ v) / 2
        norm = np.linalg.norm(v)
        if norm > 1e-9:
            v /= norm
            first = np.flatnonzero(np.abs(v) > 1e-12)[0]
            v *= np.conj(v[first]) / abs(v[first])
            return v
    raise RuntimeError("no basis state survived projection")


def partial_trace(m: np.ndarray, traced_out: Iterable[int], n: int | None = None) -> np.ndarray:
    """Trace out the given 1-based qubits of a 2^n x 2^n matrix."""
    if n is None:
        n = int(round(np.log2(m.shape[0])))
    if m.shape != (1 << n, 1 << n):
        raise ValueError("matrix is not 2^n x 2^n")
    traced = sorted(set(traced_out), reverse=True)
    if traced and not (1 <= traced[-1] and traced[0] <= n):
        raise ValueError(f"traced qubits out of range 1..{n}")
    t = m.reshape((2,) * (2 * n))
    remaining = n
    for q in traced:
        ax = q - 1
        t = np.trace(t, axis1=ax, axis2=ax + remaining)
        remaining -= 1
    dim = 1 << remaining
    return t.reshape(dim, dim)


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of a - b (for Hermitian a, b)."""
    eigs = np.linalg.eigvalsh(a - b)
    return float(np.sum(np.abs(eigs)) / 2)


def apply_on_subset(u: np.ndarray, vec: np.ndarray, subset: Sequence[int], n: int) -> np.ndarray:
    """Apply a 2^|subset| unitary to the given qubits of an n-qubit vector."""
    subset = list(subset)
    d = len(subset)
    rest = [q for q in range(1, n + 1) if q not in subset]
    perm = [q - 1 for q in subset + rest]
    t = vec.reshape((2,) * n).transpose(perm).reshape(1 << d, 1 << (n - d))
    t = u @ t
    inv = np.argsort(perm)
    return t.reshape((2,) * n).transpose(inv).reshape(-1)


def relating_unitary(spec: CodeSpec, subset: Sequence[int]) -> np.ndarray:
    """Unitary on ``subset`` mapping codeword 0 to codeword 1.

    Exists whenever the two codewords agree on the complement of
    ``subset``; built by matching the two Schmidt decompositions that
    share the complement-side eigenvectors.  The Schmidt spectrum here
    is flat, so the pairing is not unique; any valid pairing satisfies
    the contract, which is checked by the caller via the returned
    matrix's action.
    """
    subset = sorted(set(subset))
    n = spec.n
    _check_cap(n)
    if not subset or not (1 <= subset[0] and subset[-1] <= n) or len(subset) >= n:
        raise ValueError("subset must be a proper nonempty set of qubit indices")
    psi0 = codeword_vector(spec, 0)
    psi1 = codeword_vector(spec, 1)
    d = len(subset)
    rest = [q for q in range(1, n + 1) if q not in subset]
    perm = [q - 1 for q in subset + rest]
    a = psi0.reshape((2,) * n).transpose(perm).reshape(1 << d, 1 << (n - d))
    b = psi1.reshape((2,) * n).transpose(perm).reshape(1 << d, 1 << (n - d))
    u0, s0, v0h = np.linalg.svd(a, full_matrices=True)
    kept = s0 > 1e-12
    # coefficients of psi1 against psi0's complement-side vectors
    b_cols = b @ v0h.conj().T
    r = len(s0)
    hat = b_cols[:, :r][:, kept] / s0[kept]
    residual = np.hstack([b_cols[:, :r][:, ~kept], b_cols[:, r:]])
    if np.linalg.norm(residual) > 1e-8:
        raise ValueError(f"subset {subset} does not relate the codewords")
    gram = hat.conj().T @ hat
    if np.linalg.norm(gram - np.eye(hat.shape[1])) > 1e-8:
        raise ValueError(f"subset {subset} does not relate the codewords")
    hat_full = _complete_basis(hat)
    return hat_full @ u0.conj().T


def _complete_basis(cols: np.ndarray) -> np.ndarray:
    """Extend orthonormal columns to a full unitary, deterministically."""
    dim, have = cols.shape
    if have == dim:
        return cols
    full = [cols[:, i] for i in range(have)]
    for seed in range(dim):
        v = np.zeros(dim, dtype=complex)
        v[seed] = 1.0
        for w in full:
            v -= w * (w.conj() @ v)
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            full.append(v / norm)
            if len(full) == dim:
                break
    return np.column_stack(full)


def relates_codewords(spec: CodeSpec, subset: Sequence[int], u: np.ndarray, atol: float = 1e-8) -> bool:
    """Check |(U on subset) psi0> equals |psi1> up to a global phase."""
    psi0 = codeword_vector(spec, 0)
    psi1 = codeword_vector(spec, 1)
    moved = apply_on_subset(u, psi0, sorted(set(subset)), spec.n)
    overlap = psi1.conj() @ moved
    return bool(abs(abs(overlap) - 1.0) < atol and np.linalg.norm(moved * np.conj(overlap) / max(abs(overlap), 1e-30) - psi1) < atol)


def reduced_equal_dense(spec: CodeSpec, traced_out: Iterable[int], atol: float = 1e-9) -> bool:
    """Compare the codewords' reduced matrices by direct densification."""
    traced = sorted(set(traced_out))
    if spec.k == 1:
        r0 = build_density(spec, 0)
        r1 = build_density(spec, 1)
    else:
        r0 = build_mixed_density(spec, 0)
        r1 = build_mixed_density(spec, 1)
    return frobenius_distance(
        partial_trace(r0, traced, spec.n), partial_trace(r1, traced, spec.n)
    ) < atol


def phase_family_check(n: int, alpha: complex, beta: complex, theta: float, atol: float = 1e-9) -> bool:
    """Equal single-qubit-traced reductions for the two-amplitude family.

    The pair is (alpha|0..0> + beta|1..1>, alpha|0..0> + beta e^{i theta}|1..1>);
    returns True iff tracing out any one qubit leaves equal matrices.
    """
    _check_cap(n)
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-9:
        raise ValueError("amplitudes must be normalized")
    dim = 1 << n
    v0 = np.zeros(dim, dtype=complex)
    v1 = np.zeros(dim, dtype=complex)
    v0[0] = v1[0] = alpha
    v0[dim - 1] = beta
    v1[dim - 1] = beta * np.exp(1j * theta)
    r0 = np.outer(v0, v0.conj())
    r1 = np.outer(v1, v1.conj())
    return all(
        frobenius_distance(partial_trace(r0, [q], n), partial_trace(r1, [q], n)) < atol
        for q in range(1, n + 1)
    )
