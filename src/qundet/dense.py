"""Dense numeric oracle: codeword state vectors and reduced-state distances.

Everything here is an independent check on the symbolic engine.  A
Pauli's dense realization is a generalized permutation matrix,

    P |b> = i**phase_exp * (-1)**(z.b) |b XOR x>,

with qubit 1 the most significant bit of the basis index, matching the
leftmost letter of the string form.

A codeword is built as a 2^n state vector: a seeded start vector is
projected through (I + g)/2 for each generator g of its extended
generating set (the stabilizers plus the signed logical Z's), each g
applied as the signed permutation above.  No matrix is built and no
group is enumerated; the generating set is validated by constructing
its ``StabilizerGroup``, and nothing is taken from the symbolic
decision rule the oracle cross-checks.  The projection is rounded to
the state's exact amplitudes (one modulus times 0, 1, -1, i or -i), so
reduced states come out exact and equal ones compare bitwise equal,
whatever the start vector.  A k=2 equal mixture is a stack of two such
vectors.  The reduced state on the kept qubits K is
sum_i M_i M_i^dagger / m, where M_i is vector i reshaped to
2^|K| x 2^|T| (T the traced qubits).  When every amplitude of the two
stacks is real (all 0 or +-1 once scaled, as for most codes), the
whole comparison runs in float64 instead of complex128, through the
same lines: the reduced states are then integers over a power of 2,
as exact as the Gaussian integers of the complex case.

Two reduced states are compared on the smaller side of the cut.  With
A and B the two stacks as 2^|K| x m 2^|T| matrices, the reduced states
themselves are formed when 2^|K| <= 2m 2^|T|; otherwise the R factor
of [A | B] = Q R stands in for it, since the isometry Q leaves the
Frobenius distance unchanged.  A subset then costs
O(2^n min(2^|K|, 2m 2^|T|)), not 2^(n+|K|).  The two states are
equal when that distance is below ``ATOL``: an equal pair's distance
is exactly 0 on the direct side and about 1e-16 on the QR side, and a
determined pair's is at least 2^((3-n)/2), so one constant separates
them up to the cap (docs/method.md).  A chunk of traced subsets is
cut by viewing the stacks as (m, 2, ..., 2) tensors and transposing
each subset's kept axes before its traced ones (see :func:`_cut`).
Sizes are capped at n <= ``ORACLE_MAX_N``, which bounds
``pauli_matrix``'s 4^n entries; the state vectors take O(2^n) memory.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from qundet.codes import CodeSpec
from qundet.pauli import PauliOperator
from qundet.stabilizer import StabilizerGroup

ORACLE_MAX_N = 10
# reduced-state distances below this are equal (see the module docstring)
ATOL = 1e-9
# gathered amplitudes per stack in one chunk of traced subsets; 2^16
# is no faster on the benchmark's sweep and has a larger peak RSS
_CHUNK = 1 << 14

# seed of the start vector every codeword is projected from; any vector
# with a nonzero overlap works, and a fixed one keeps reruns identical
_START_SEED = 2008
# below this norm the projection's rounding noise is no longer far
# below the amplitudes that the exact rounding must tell apart from 0
_VANISHED = 1e-6


class OracleCapError(ValueError):
    """Raised when a dense computation would exceed the size cap."""


def _check_cap(n: int) -> None:
    if n > ORACLE_MAX_N:
        raise OracleCapError(f"dense oracle capped at n={ORACLE_MAX_N}, got n={n}")


def _index_masks(p: PauliOperator) -> tuple[int, int]:
    """x and z bits of ``p`` in basis-index order (qubit 1 = MSB)."""
    def mirror(bits: int) -> int:
        return sum(1 << (p.n - q) for q in range(1, p.n + 1) if bits >> (q - 1) & 1)

    return mirror(p.x_bits), mirror(p.z_bits)


def pauli_matrix(p: PauliOperator) -> np.ndarray:
    """Dense 2^n x 2^n realization of a signed Pauli operator."""
    _check_cap(p.n)
    # row b of the identity, e_b, becomes P e_b: column b of P
    return apply_pauli(p, np.eye(1 << p.n, dtype=complex)).T


def apply_pauli(p: PauliOperator, v: np.ndarray) -> np.ndarray:
    """``P v`` along the last axis of ``v``, as a signed permutation."""
    x, z = _index_masks(p)
    src = np.arange(1 << p.n) ^ x
    signs = np.where(np.bitwise_count(src & z) & 1, -1, 1)
    return v[..., src] * ((1j ** p.phase_exp) * signs)


def _flip_sign(p: PauliOperator) -> PauliOperator:
    return PauliOperator(p.n, p.x_bits, p.z_bits, (p.phase_exp + 2) % 4)


def _fixed_state(generators: list[PauliOperator]) -> np.ndarray:
    """The unit vector every generator fixes, for a rank-n generating set.

    A stabilizer state's nonzero amplitudes share one modulus and, once
    the first is real and positive, are all 1, -1, i or -i times it.
    The projected vector is rounded to that exact form, so equal reduced
    states come out bitwise equal; a projection that is not close to it
    raises.
    """
    # construction validates the extended generating set
    group = StabilizerGroup(generators)
    n = group.n
    _check_cap(n)
    if group.rank != n:
        raise ValueError(f"rank {group.rank} generating set fixes no single state on {n} qubits")
    v = np.random.default_rng(_START_SEED).normal(size=(2, 1 << n)).T @ np.array([1, 1j])
    v /= np.linalg.norm(v)
    for g in group.generators:
        v = (v + apply_pauli(g, v)) / 2
    norm = np.linalg.norm(v)
    if norm < _VANISHED:
        raise RuntimeError(f"start vector vanished under projection (norm {norm:.1e})")
    mags = np.abs(v)
    first = int(np.argmax(mags > mags.max() / 2))
    units = v / v[first]
    exact = np.round(units.real) + 1j * np.round(units.imag)
    if np.abs(units - exact).max() > 1e-6 or not np.isin(np.abs(exact), (0, 1)).all():
        raise RuntimeError("projected vector is not a stabilizer state")
    return exact / np.sqrt(np.count_nonzero(exact))


def codeword_states(spec: CodeSpec, which: int) -> np.ndarray:
    """Codeword ``which`` as a stack of unit vectors, shape (m, 2^n).

    For k=1 it is the one state fixed by the stabilizers and
    (-1)^which Z-bar.  For k=2 it is the two states whose equal mixture
    is the 00/11 pair (which=0) or the 10/01 pair (which=1).
    """
    gens = spec.stabilizer_ops()
    z_bars = spec.logical_z_ops()
    if spec.k == 1:
        bit_rows = [(which,)]
    elif spec.k == 2:
        bit_rows = [(0, 0), (1, 1)] if which == 0 else [(1, 0), (0, 1)]
    else:
        raise ValueError(f"codewords need k=1 or k=2, got k={spec.k}")
    return np.stack([
        _fixed_state(gens + [_flip_sign(z) if bit else z for z, bit in zip(z_bars, bits)])
        for bits in bit_rows
    ])


def _traced_sets(subsets: Iterable[Iterable[int]], n: int) -> list[tuple[int, ...]]:
    """The 1-based traced subsets, each sorted; they must share one size."""
    traced = [tuple(sorted(set(s))) for s in subsets]
    if len({len(t) for t in traced}) > 1:
        raise ValueError("traced subsets must all have the same size")
    if any(t and not (1 <= t[0] and t[-1] <= n) for t in traced):
        raise ValueError(f"traced qubits out of range 1..{n}")
    return traced


def _cut(states: np.ndarray, traced: list[tuple[int, ...]], n: int) -> np.ndarray:
    """The stack ``states`` cut kept x traced for each traced set.

    Returns shape (len(traced), 2^|K|, m 2^|T|): row bits are the kept
    qubits and column bits the stack index then the traced qubits, each
    most significant first in ascending qubit order, as in
    :func:`partial_trace`.  The stack is viewed as (m, 2, ..., 2), with
    qubit q on axis q, and each set's axes are transposed to the kept
    qubits, the stack, then the traced qubits, and copied into one
    buffer for the chunk.
    """
    m, t = len(states), len(traced[0])
    tensor = states.reshape((m,) + (2,) * n)
    cuts = np.empty((len(traced),) + (2,) * (n - t) + (m,) + (2,) * t, dtype=states.dtype)
    for cut, ts in zip(cuts, traced):
        cut[...] = tensor.transpose([q for q in range(1, n + 1) if q not in ts] + [0, *ts])
    return cuts.reshape(len(traced), 1 << (n - t), -1)


def _scaled(states: np.ndarray) -> tuple[np.ndarray, float]:
    """``states`` scaled to amplitudes of modulus at most 1, and its squared norm.

    The trace of M M^dagger is m for unit rows; with this scaling and the
    trace divided out of the small factor, a stabilizer state's reduced
    state is exact: Gaussian integers over a power of 2.
    """
    scaled = states / np.abs(states).max()
    return scaled, np.vdot(scaled, scaled).real


def build_density(spec: CodeSpec, logical_bit: int) -> np.ndarray:
    """Density matrix of codeword ``logical_bit`` of a k=1 code."""
    if spec.k != 1:
        raise ValueError("build_density needs a k=1 code")
    (v,) = codeword_states(spec, logical_bit)
    return np.outer(v, v.conj())


def build_mixed_density(spec: CodeSpec, which: int) -> np.ndarray:
    """Equal mixture of two k=2 codewords: 00/11 for which=0, 10/01 for 1."""
    if spec.k != 2:
        raise ValueError("build_mixed_density needs a k=2 code")
    states = codeword_states(spec, which)
    return states.T @ states.conj() / len(states)


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
    d = (a - b).ravel()
    return float(np.sqrt(np.vdot(d, d).real))


def reduced_distances(
    states0: np.ndarray, states1: np.ndarray, subsets: Iterable[Iterable[int]]
) -> list[float]:
    """Frobenius distance of two stacks' reduced states, one per traced subset.

    The subsets must share one size; each distance is one
    :func:`frobenius_distance` call, in the order of ``subsets``.  With
    A and B the stacks cut kept x (stack, traced) (see :func:`_cut`),
    the distance is ||A A^dagger - B B^dagger||.  When the kept side is
    the larger, the R factor of C = [A | B] = Q R replaces C: Q is an
    isometry, so the distance is ||R_a R_a^dagger - R_b R_b^dagger||
    and no 2^|K| x 2^|K| matrix is formed.
    """
    n = states0.shape[1].bit_length() - 1
    traced = _traced_sets(subsets, n)
    if not traced:
        return []
    (scaled0, norm0), (scaled1, norm1) = _scaled(states0), _scaled(states1)
    both = np.concatenate([scaled0, scaled1])
    # real codewords run in real arithmetic, through the same lines
    if not both.imag.any():
        both = np.ascontiguousarray(both.real)
    t = len(traced[0])
    split = len(states0) << t
    # the kept side is the smaller one: the reduced states themselves,
    # exact (see _scaled), so an equal pair reads exactly 0
    direct = 1 << (n - t) <= len(both) << t
    step = max(1, _CHUNK // max(states0.size, states1.size))
    out = []
    for at in range(0, len(traced), step):
        cut = _cut(both, traced[at:at + step], n)
        if not direct:
            cut = np.linalg.qr(cut, mode="r")
        a, b = cut[..., :split], cut[..., split:]
        rho0 = a @ (a.conj().swapaxes(1, 2) / norm0)
        rho1 = b @ (b.conj().swapaxes(1, 2) / norm1)
        out += [frobenius_distance(r0, r1) for r0, r1 in zip(rho0, rho1)]
    return out
