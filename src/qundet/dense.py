"""Dense numeric oracle: codeword state vectors and reduced-state distances.

Everything here is an independent check on the symbolic engine.  A
Pauli's dense realization is a generalized permutation matrix,

    P |b> = i**phase_exp * (-1)**(z.b) |b XOR x>,

with qubit 1 the most significant bit of the basis index, matching the
leftmost letter of the string form.  A traced set is an int mask, bit
q-1 for qubit q as in the symbolic engine; ``_cut`` maps it onto the index.

A codeword is a 2^n state vector: a seeded start vector projected
through (I + g)/2 for each stabilizer g, split into the sign sectors of
the logical Z's and rounded to its exact amplitudes.  No matrix is
built, no group is enumerated, and nothing is taken from the symbolic
decision rule the oracle cross-checks; the extended generating set is
validated by constructing its ``StabilizerGroup``.  A k=2 equal mixture
is a stack of two such vectors.

Reduced states are compared through exact Gram sums.  Scaled to
modulus 1, a stabilizer state's amplitudes are 0, +-1 or +-i (Dehaene
and De Moor, quant-ph/0304125), so a stack's squared norm N and every
Gram entry of its cuts are integers.  With A and B the two stacks cut
kept x (stack, traced), the reduced states are A A^dagger / N0 and
B B^dagger / N1, and

    (N0 N1)^2 ||rho0 - rho1||^2
        = N1^2 ||A^dagger A||^2 + N0^2 ||B^dagger B||^2 - 2 N0 N1 ||A^dagger B||^2

is an integer, 0 exactly when they are equal, so no tolerance is
needed.  The products run in single precision, exact since every entry
and partial sum is an integer of at most 2^n < 2^24; the squares are
summed in float64, exact while the numerator's terms, at most
2^(4n+4), stay below 2^53 (n <= 12).  A stack whose amplitudes are
not Gaussian integers once scaled is no stabilizer stack and raises.
One cut serves a traced mask of at most n/2 qubits and its complement
(see :func:`reduced_distances`), at O(2^n (m 2^|T|)^2) each.  Sizes
are capped at n <= ``ORACLE_MAX_N``, which bounds ``pauli_matrix``'s
4^n entries; the state vectors take O(2^n) memory.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from qundet.codes import CodeSpec
from qundet.pauli import PauliOperator, key_bits
from qundet.stabilizer import StabilizerGroup

ORACLE_MAX_N = 10
# amplitudes per stack in one chunk of cuts; 2^13 and 2^15 both run
# the benchmark's sweep slower
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


def pauli_matrix(p: PauliOperator) -> np.ndarray:
    """Dense 2^n x 2^n realization of a signed Pauli operator."""
    _check_cap(p.n)
    # row b of the identity, e_b, becomes P e_b: column b of P
    return apply_pauli(p, np.eye(1 << p.n, dtype=complex)).T


def apply_pauli(p: PauliOperator, v: np.ndarray) -> np.ndarray:
    """``P v`` along the last axis of ``v``, as a signed permutation."""
    # qubit 1 is the most significant bit of both the key and the index
    x, z = key_bits(p.key, p.n, basis_order=True)
    src = np.arange(1 << p.n) ^ x
    signs = np.where(np.bitwise_count(src & z) & 1, -1, 1)
    return v[..., src] * ((1j ** p.phase_exp) * signs)


def _rounded(v: np.ndarray) -> np.ndarray:
    """The projection ``v`` rounded to its exact stabilizer state, as a unit vector.

    The nonzero amplitudes share one modulus and, once the first is real
    and positive, are 1, -1, i or -i times it; a projection that vanished
    or is not close to that form raises.
    """
    norm = np.linalg.norm(v)
    if norm < _VANISHED:
        raise RuntimeError(f"start vector vanished under projection (norm {norm:.1e})")
    mags = np.abs(v)
    first = int(np.argmax(mags > mags.max() / 2))
    units = v / v[first]
    exact = np.round(units.real) + 1j * np.round(units.imag)
    # a Gaussian integer of modulus at most 1 is 0, +-1 or +-i
    if np.abs(units - exact).max() > 1e-6 or (np.abs(exact) > 1).any():
        raise RuntimeError("projected vector is not a stabilizer state")
    return exact / np.sqrt(np.count_nonzero(exact))


def codeword_states(spec: CodeSpec) -> tuple[np.ndarray, np.ndarray]:
    """The two codewords as stacks of unit vectors, each of shape (m, 2^n).

    For k=1 codeword b is the one state fixed by the stabilizers and
    (-1)^b Z-bar.  For k=2 codeword 0 is the two states whose equal
    mixture is the 00/11 pair, and codeword 1 the 10/01 pair.  The start
    vector is projected through the stabilizers once, then split by the
    signs of the logical Z's.
    """
    gens = spec.stabilizer_ops()
    z_bars = spec.logical_z_ops()
    # each codeword's sign sectors, Z-bar_1's sign the most significant bit
    sectors = {1: ([0], [1]), 2: ([0b00, 0b11], [0b10, 0b01])}.get(spec.k)
    if sectors is None:
        raise ValueError(f"codewords need k=1 or k=2, got k={spec.k}")
    # validates the extended generating set, whatever the logical signs
    group = StabilizerGroup(gens + z_bars)
    n = group.n
    _check_cap(n)
    if group.rank != n:
        raise ValueError(f"rank {group.rank} generating set fixes no single state on {n} qubits")
    v = np.random.default_rng(_START_SEED).normal(size=(2, 1 << n)).T @ np.array([1, 1j])
    v /= np.linalg.norm(v)
    for g in gens:
        v = (v + apply_pauli(g, v)) / 2
    parts = [v]
    for z in z_bars:
        flips = [apply_pauli(z, p) for p in parts]
        parts = [(p + sign * f) / 2 for p, f in zip(parts, flips) for sign in (1, -1)]
    states0, states1 = (np.stack([_rounded(parts[i]) for i in rows]) for rows in sectors)
    return states0, states1


def _cut(states: np.ndarray, traced: list[int], n: int) -> np.ndarray:
    """The stack ``states`` cut traced x kept for each traced mask.

    Returns shape (len(traced), m 2^|T|, 2^|K|): row bits are the stack
    index then the traced qubits, and column bits the kept qubits, each
    most significant first in ascending qubit order.  The stack is viewed
    as (m, 2, ..., 2), with qubit q on axis q, and each mask's axes are
    transposed into that order, read from its bits (bit q-1 is qubit q),
    and copied into one buffer for the chunk; the kept qubits come last,
    as the more of them, so the copy's inner run is most often contiguous.
    """
    m, t = len(states), traced[0].bit_count()
    tensor = states.reshape((m,) + (2,) * n)
    cuts = np.empty((len(traced), m) + (2,) * n, dtype=states.dtype)
    for cut, mask in zip(cuts, traced):
        # a stable sort puts the traced qubits first, then the kept ones
        order = sorted(range(1, n + 1), key=lambda q: ~mask >> (q - 1) & 1)
        cut[...] = tensor.transpose([0, *order])
    return cuts.reshape(len(traced), m << t, -1)


def build_density(spec: CodeSpec, logical_bit: int) -> np.ndarray:
    """Density matrix of codeword ``logical_bit`` of a k=1 code."""
    if spec.k != 1:
        raise ValueError("build_density needs a k=1 code")
    (v,) = codeword_states(spec)[logical_bit]
    return np.outer(v, v.conj())


def build_mixed_density(spec: CodeSpec, which: int) -> np.ndarray:
    """Equal mixture of two k=2 codewords: 00/11 for which=0, 10/01 for 1."""
    if spec.k != 2:
        raise ValueError("build_mixed_density needs a k=2 code")
    states = codeword_states(spec)[which]
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
    for done, q in enumerate(traced):  # descending: lower qubits keep their axes
        t = np.trace(t, axis1=q - 1, axis2=q - 1 + n - done)
    return t.reshape(1 << (n - len(traced)), -1)


def frobenius_distance(grams: Sequence[float], norms: Sequence[float]) -> float:
    """||rho0 - rho1|| for one subset, from three Gram sums and two squared norms.

    With ``norms`` N0, N1 and ``grams`` g00 = N0^2 ||rho0||^2, g11 =
    N1^2 ||rho1||^2 and g01 = N0 N1 tr(rho0 rho1), the squared distance
    is (N1^2 g00 + N0^2 g11 - 2 N0 N1 g01) / (N0 N1)^2.  For stabilizer
    stacks every term is an integer, so an equal pair reads exactly 0.
    """
    g00, g11, g01 = grams
    n0, n1 = norms
    return math.sqrt(max(n1 * n1 * g00 + n0 * n0 * g11 - 2 * n0 * n1 * g01, 0.0)) / (n0 * n1)


def _inner(x: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """Re <x_s, y_s> per leading index s: re * re + im * im, summed in float64."""
    x = np.asarray(x.view(x.real.dtype), dtype=np.float64)
    y = x if y is None else np.asarray(y.view(y.real.dtype), dtype=x.dtype)
    return np.einsum("sij,sij->s", x, y)


def reduced_distances(
    states0: np.ndarray, states1: np.ndarray, traced: Sequence[int]
) -> list[float]:
    """Frobenius distance of two stacks' reduced states, one per traced mask.

    Bit q-1 of a mask is qubit q; one outside 0..2^n - 1 raises
    ValueError.  ``traced`` may mix sizes; the distances come in its
    order, from one :func:`frobenius_distance` call per distinct mask.
    A mask and its complement ``full ^ mask`` share the cut of the one
    with at most n/2 qubits (at n/2, the one holding qubit 1).  The Grams
    A^dagger A, B^dagger B and A^dagger B of that cut (see :func:`_cut`)
    give the distance after tracing the cut set; the sums of their
    diagonal stack blocks are the reduced states on the cut set, up to
    conjugation and scale, and give the distance after tracing its
    complement.  Each stack, scaled so its largest amplitude has modulus
    1, must hold only Gaussian integers, as a stabilizer stack does; any
    other raises ValueError.
    """
    n = states0.shape[1].bit_length() - 1
    full = (1 << n) - 1
    if any(not 0 <= t <= full for t in traced):
        raise ValueError(f"traced masks out of range 0..{full}")
    m0, m1 = len(states0), len(states1)
    # scaled to modulus 1: a stabilizer state's amplitudes are 0, +-1 or +-i
    both = np.concatenate([s / np.abs(s).max() for s in (states0, states1)])
    if not both.imag.any():
        both = both.real
    if not np.array_equal(both, np.round(both)):
        raise ValueError("stacks are not Gaussian integers once scaled: not stabilizer states")
    # then every Gram entry is an integer of at most 2^n, exact in float32
    both = both.astype(np.complex64 if np.iscomplexobj(both) else np.float32)
    norms = [_inner(h[None]).item() for h in np.split(both, [m0])]
    # cut mask -> {0: mask read on the traced side, 1: on the kept side}
    sides: dict[int, dict[int, int]] = {}
    for t in dict.fromkeys(traced):
        small = 2 * t.bit_count() < n or 2 * t.bit_count() == n and t & 1
        sides.setdefault(t if small else full ^ t, {})[not small] = t
    step = max(1, _CHUNK // max(states0.size, states1.size))
    dist = {}
    for size, group in itertools.groupby(sorted(sides, key=int.bit_count), key=int.bit_count):
        cut_sets = list(group)
        split, block = m0 << size, 1 << size
        for at in range(0, len(cut_sets), step):
            chunk = cut_sets[at:at + step]
            cut = _cut(both, chunk, n)
            # A = a^T and B = b^T; [A^dagger A | A^dagger B] in one product
            a, b = cut[:, :split], cut[:, split:]
            g0 = a.conj() @ cut.swapaxes(1, 2)
            g00, g01 = g0[..., :split], g0[..., split:]
            g11 = b.conj() @ b.swapaxes(1, 2)
            # the sums of the m x m diagonal blocks
            r0 = np.einsum("sjajb->sab", g00.reshape(-1, m0, block, m0, block))
            r1 = np.einsum("sjajb->sab", g11.reshape(-1, m1, block, m1, block))
            # [side][set] -> its three Gram sums
            grams = np.array([
                [_inner(g00), _inner(g11), _inner(g01)],
                [_inner(r0), _inner(r1), _inner(r0, r1)],
            ]).transpose(0, 2, 1).tolist()
            for j, cut_set in enumerate(chunk):
                for side, mask in sides[cut_set].items():
                    dist[mask] = frobenius_distance(grams[side][j], norms)
    return [dist[t] for t in traced]
