"""Independent references for the Pauli algebra and stabilizer tests.

The dense helpers are built from literal 2x2 matrices and Kronecker
products, on purpose: the package's own dense module shares bit
conventions with the symbolic code, so these helpers are the
conventions' outside check.  ``walk_distance`` walks the whole
centralizer pair by pair, the reference for the logical-class tables;
``doubling`` and ``sorted_coset`` enumerate a whole coset with signs
in plain numpy, the reference for the factored coset table.
"""

import numpy as np

from qundet.pauli import PauliOperator

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)

LETTER = {"I": I2, "X": X2, "Y": Y2, "Z": Z2}

# per-qubit X^x Z^z products, the raw symplectic factors
XZ = {(0, 0): I2, (1, 0): X2, (0, 1): Z2, (1, 1): X2 @ Z2}

SIGN = {"": 1, "+": 1, "-": -1, "+i": 1j, "-i": -1j}


def kron_all(mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def matrix_from_bits(n, x_bits, z_bits, phase_exp):
    """i^phase * product of per-qubit X^x Z^z, qubit 1 leftmost."""
    mats = [XZ[(x_bits >> i & 1, z_bits >> i & 1)] for i in range(n)]
    return (1j ** phase_exp) * kron_all(mats)


def matrix_from_string(text):
    """Sign prefix times the literal letter matrices."""
    body = text.lstrip("+-i")
    prefix = text[: len(text) - len(body)]
    return SIGN[prefix] * kron_all([LETTER[ch] for ch in body])


def matrix_of(p):
    """Dense form of a PauliOperator via the bit definition."""
    return matrix_from_bits(p.n, p.x_bits, p.z_bits, p.phase_exp)


def walk_distance(group):
    """Least weight over centralizer pairs outside the group, by brute force."""
    return min(
        (x | z).bit_count()
        for x, z in group.normalizer_masks()
        if not group.contains_unsigned(PauliOperator(group.n, x, z))
    )


def _letter_key(p):
    return int(p.letters.translate(str.maketrans("IXYZ", "0123")), 4)


def doubling(ops, start):
    """x, z, phase and letter key of start times every product of ops.

    One doubling per operator, in the given order: the first 2^i rows
    times ops[i] give the next 2^i, with the phase advanced by the
    Pauli product rule, g.phase + 2 * popcount(z & g.x) (mod 4).
    """
    size = 1 << len(ops)
    x, z, key = (np.zeros(size, dtype=np.uint64) for _ in range(3))
    phase = np.zeros(size, dtype=np.int64)
    x[0], z[0], phase[0], key[0] = start.x_bits, start.z_bits, start.phase_exp, _letter_key(start)
    for i, g in enumerate(ops):
        h = 1 << i
        gx, gz = np.uint64(g.x_bits), np.uint64(g.z_bits)
        phase[h : 2 * h] = (phase[:h] + g.phase_exp + 2 * np.bitwise_count(z[:h] & gx)) % 4
        x[h : 2 * h] = x[:h] ^ gx
        z[h : 2 * h] = z[:h] ^ gz
        key[h : 2 * h] = key[:h] ^ np.uint64(_letter_key(g))
    return x, z, phase, key


def sorted_coset(group, rep):
    """x, z and phase of the signed coset rep * S, sorted by letters."""
    x, z, phase, key = doubling(group.generators, rep)
    order = np.argsort(key)
    return x[order], z[order], phase[order]


def zz_chain_doc(n=17):
    """A k=2 spec: Z_i Z_{i+1} for i = 1..n-2 on n qubits, with logical
    Z's X^(n-1) I and I^(n-1) X.  The default n = 17 is past 16 qubits."""
    return {
        "name": f"zz_chain_{n}",
        "n": n,
        "k": 2,
        "stabilizers": ["I" * i + "ZZ" + "I" * (n - i - 2) for i in range(n - 2)],
        "logical_z": ["X" * (n - 1) + "I", "I" * (n - 1) + "X"],
    }
