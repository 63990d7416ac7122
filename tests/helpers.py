"""Independent references for the Pauli algebra and stabilizer tests.

The dense helpers are built from literal 2x2 matrices and Kronecker
products, on purpose: the package's own dense module shares bit
conventions with the symbolic code, so these helpers are the
conventions' outside check.  ``walk_distance`` walks the whole
centralizer pair by pair, the reference for the logical-class tables;
``logical_x_weights`` builds a fresh table per logical-X class, the
reference for the class tables a spec shares;
``doubling`` and ``sorted_coset`` enumerate a whole coset with signs
in plain numpy, the reference for the factored coset table, and
``signed_coset`` multiplies rep into every group element, the
per-element reference.  ``masks_of`` turns qubit tuples into the
traced masks that the engine and the oracle take.  ``random_codes``
draws valid codes by random Clifford circuits.  ``relating_unitary`` and its checks work on
plain state vectors, the reference for the fact behind the oracle's
verdicts: a unitary on the traced qubits maps one codeword to the other
exactly when the kept qubits' reduced states agree.
``qss_outcome_tables`` contracts the GHZ state once per basis combo,
the reference for the secret-sharing outcome law, and
``qss_reference_counts`` plays a secret-sharing run one round at a
time from those tables, the reference for the run's multinomial draw.
"""

import random

import numpy as np
from hypothesis import strategies as st

from qundet.codes import CodeSpec
from qundet.pauli import PauliOperator
from qundet.stabilizer import logical_classes

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


def logical_x_weights(group, z_bar):
    """counts[w] = number of logical X set members of weight w, w = 0..n,
    over the class tables whose entry 0 anticommutes with z_bar."""
    counts = np.zeros(group.n + 1, dtype=np.int64)
    for table in logical_classes(group):
        if table.element(0).anticommutes(z_bar):
            counts += table.weight_counts()
    return tuple(counts.tolist())


def _letter_key(p):
    return int(p.letters.translate(str.maketrans("IXYZ", "0123")), 4)


def doubling(ops, start):
    """x, z, phase and letter key of start times every product of ops.

    One doubling per operator, in the given order: the first 2^i rows
    times ops[i] give the next 2^i, with the phase advanced by the
    Pauli product rule, g.phase + 2 * popcount(z & g.x) (mod 4).  Keys
    are Python ints, which hold the 2n bits of any n up to 64.
    """
    size = 1 << len(ops)
    x, z = (np.zeros(size, dtype=np.uint64) for _ in range(2))
    key = np.zeros(size, dtype=object)
    phase = np.zeros(size, dtype=np.int64)
    x[0], z[0], phase[0], key[0] = start.x_bits, start.z_bits, start.phase_exp, _letter_key(start)
    for i, g in enumerate(ops):
        h = 1 << i
        gx, gz = np.uint64(g.x_bits), np.uint64(g.z_bits)
        phase[h : 2 * h] = (phase[:h] + g.phase_exp + 2 * np.bitwise_count(z[:h] & gx)) % 4
        x[h : 2 * h] = x[:h] ^ gx
        z[h : 2 * h] = z[:h] ^ gz
        key[h : 2 * h] = key[:h] ^ _letter_key(g)
    return x, z, phase, key


def sorted_coset(group, rep):
    """x, z and phase of the signed coset rep * S, sorted by letters."""
    x, z, phase, key = doubling(group.generators, rep)
    order = np.argsort(key)
    return x[order], z[order], phase[order]


def signed_coset(group, rep):
    """The signed elements {rep * s} in group enumeration order."""
    return [rep * s for s in group.elements()]


def masks_of(subsets):
    """The traced masks of 1-based qubit tuples: bit q - 1 for qubit q."""
    return [sum(1 << (q - 1) for q in set(s)) for s in subsets]


# residual below which a unitary relates two unit vectors
ATOL = 1e-9


def _split(vec, subset, n):
    """``vec`` as a 2^|subset| x 2^(n-|subset|) matrix, and the axis order it took."""
    rest = [q for q in range(1, n + 1) if q not in subset]
    perm = [q - 1 for q in subset + rest]
    return vec.reshape((2,) * n).transpose(perm).reshape(1 << len(subset), -1), perm


def apply_on_subset(u, vec, subset, n):
    """Apply a 2^|subset| unitary to the given qubits of an n-qubit vector."""
    t, perm = _split(vec, list(subset), n)
    return (u @ t).reshape((2,) * n).transpose(np.argsort(perm)).reshape(-1)


def relating_unitary(psi0, psi1, subset):
    """Unitary on ``subset`` mapping state vector psi0 to psi1.

    With M_b vector b reshaped to subset x rest, some unitary U has
    U M0 = M1 exactly when M0 and M1 leave equal reduced states on the
    rest.  Then M1 M0^dagger = U (M0 M0^dagger) is a polar decomposition,
    so its polar factor W V^dagger (from the SVD W S V^dagger) agrees
    with U on the range of M0 and maps M0 to M1.  Raises ValueError
    when it does not, i.e. when the rest tells the vectors apart.
    """
    n = len(psi0).bit_length() - 1
    subset = sorted(set(subset))
    if not subset or not (1 <= subset[0] and subset[-1] <= n) or len(subset) >= n:
        raise ValueError("subset must be a proper nonempty set of qubit indices")
    m0 = _split(psi0, subset, n)[0]
    m1 = _split(psi1, subset, n)[0]
    w, _, vh = np.linalg.svd(m1 @ m0.conj().T)
    u = w @ vh
    if not np.linalg.norm(u @ m0 - m1) < ATOL:
        raise ValueError(f"subset {subset} does not relate the vectors")
    return u


def relates_codewords(psi0, psi1, subset, u):
    """Check |(U on subset) psi0> equals |psi1> up to a global phase."""
    n = len(psi0).bit_length() - 1
    moved = apply_on_subset(u, psi0, sorted(set(subset)), n)
    overlap = psi1.conj() @ moved
    if not abs(abs(overlap) - 1.0) < ATOL:
        return False
    return bool(np.linalg.norm(moved * np.conj(overlap) / abs(overlap) - psi1) < ATOL)


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


# single-qubit measurement eigenvectors, indexed (basis, outcome,
# component); basis index 0 = X, 1 = Y, outcome index 0 -> +1, 1 -> -1
EIGENVECTORS = np.array([
    [[1, 1], [1, -1]],
    [[1, 1j], [1, -1j]],
]) / np.sqrt(2)


def qss_outcome_tables(n):
    """P(outcomes | state s, basis combo), shape (2, 2^n, 2^n), by n
    tensordots per (codeword, basis combo) on the GHZ codeword
    (|0...0> + (-1)^s |1...1>) / sqrt(2): party 1 is the most
    significant bit of both indices."""
    dim = 1 << n
    tables = np.zeros((2, dim, dim))
    for s in (0, 1):
        psi = np.zeros(dim, dtype=complex)
        psi[0], psi[-1] = 1 / np.sqrt(2), (-1) ** s / np.sqrt(2)
        for combo in range(dim):
            bases = [(combo >> (n - 1 - i)) & 1 for i in range(n)]
            t = psi.reshape((2,) * n)
            for axis, b in enumerate(bases):
                t = np.tensordot(EIGENVECTORS[b].conj(), t, axes=([1], [axis]))
                t = np.moveaxis(t, 0, axis)
            tables[s, combo] = np.abs(t.reshape(-1)) ** 2
    return tables


def qss_reference_counts(config):
    """Counts of a secret-sharing run played one round at a time with
    ``random.Random(config.seed)``: (kept, checked, agreeing, check
    errors, solo-correct, dealer +1).

    Each round draws every party's basis, the codeword (the original
    variant always sends 0), the outcomes and the check in plain
    Python.  Honest outcomes are drawn from ``qss_outcome_tables``.
    The delaying receiver forwards a fresh qubit, so the dealer's and
    the second party's outcomes are fair coins, and it guesses the
    second one; its readout of the held pair, (-1)^(y/2) o (1 - 2s),
    names the dealer's outcome up to the codeword it does not know.
    """
    n, honest = config.parties, config.strategy == "honest"
    rng = random.Random(config.seed)
    cumulative = np.cumsum(qss_outcome_tables(n), axis=-1).tolist() if honest else None
    outcomes = range(1 << n)
    kept = checked = agreeing = errors = solo = plus = 0
    for _ in range(config.rounds):
        bases = [rng.randrange(2) for _ in range(n)]  # party 1 first, 1 = Y
        s = rng.randrange(2) if config.variant == "modified" else 0
        y = sum(bases)
        if honest:
            combo = int("".join(map(str, bases)), 2)
            o = rng.choices(outcomes, cum_weights=cumulative[s][combo])[0]
            dealer, reported, solo_hit = o >> (n - 1), o.bit_count() % 2, False
        else:
            dealer, second, guess = rng.randrange(2), rng.randrange(2), rng.randrange(2)
            readout = dealer ^ s
            third = (y // 2 + readout + guess) % 2
            reported, solo_hit = dealer ^ second ^ third, readout == dealer
        check = rng.random() < config.check_fraction
        plus += dealer == 0
        if y % 2 == 0:
            agrees = reported == (s + y // 2) % 2
            kept += 1
            checked += check
            agreeing += agrees
            errors += check and not agrees
            solo += solo_hit
    return kept, checked, agreeing, errors, solo, plus


_LETTER = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}


@st.composite
def random_codes(draw, max_n=6):
    """A random valid [[n, k]] code, k = 1 or 2, n <= max_n.

    Starts from the trivial code (Z on qubits k+1..n stabilizes, Z on
    qubits 1..k are the logical Z's) and applies a random H/S/CNOT
    circuit to the (x, z) bits of every row.  The image rows stay
    independent and commuting, so any signs on the Hermitian generators
    give a valid group.
    """
    k = draw(st.sampled_from((1, 2)))
    n = draw(st.integers(k + 1, max_n))
    rows = [([0] * n, [1 if q == i else 0 for q in range(n)]) for i in range(n)]
    gates = st.tuples(st.sampled_from("HSC"), st.integers(0, n - 1), st.integers(0, n - 1))
    for gate, a, b in draw(st.lists(gates, min_size=4 * n, max_size=12 * n)):
        for x, z in rows:
            if gate == "H":
                x[a], z[a] = z[a], x[a]
            elif gate == "S":
                z[a] ^= x[a]
            elif a != b:  # CNOT, control a, target b
                x[b] ^= x[a]
                z[a] ^= z[b]
    strings = ["".join(_LETTER[x[q], z[q]] for q in range(n)) for x, z in rows]
    signs = draw(st.lists(st.sampled_from(("", "-")), min_size=n - k, max_size=n - k))
    stabilizers = tuple(sign + s for sign, s in zip(signs, strings[k:]))
    return CodeSpec(f"random_{n}_{k}", n, k, stabilizers, tuple(strings[:k]))
