"""Seeded Monte Carlo protocol demonstrations.

Two demos built on the same physics as the analysis modules:

* ``qss_run``: GHZ-based secret sharing, original (dealer always sends
  the + codeword) versus modified (dealer picks a codeword uniformly),
  honest parties or an intercepting receiver.  The modified variant's
  security rests on the two codewords having identical reduced density
  matrices on the receivers' qubits.
* ``bc_demo``: the bit-commitment cheat, where the sender's local
  unitary on a singlet half is invisible to the receiver yet lets the
  sender open either bit value later.

All sampling distributions are derived from dense state vectors, not
hand-written tables, and every run is deterministic given its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import sqrt
from typing import Mapping

import numpy as np

VARIANTS = ("original", "modified")
STRATEGIES = ("honest", "delay_discriminate")

_MAX_TABLE_PARTIES = 8

# a run aborts when more than this share of its check rounds disagree
_ABORT_THRESHOLD = 0.05

# rounds per chunk: the per-chunk temporaries of qss_run stay a few MB
# at any party count and round count
_CHUNK_ROUNDS = 1 << 16

# single-qubit measurement eigenvectors, indexed (basis, outcome,
# component); basis index 0 = X, 1 = Y, outcome index 0 -> +1, 1 -> -1
_EIGENVECTORS = np.array([
    [[1, 1], [1, -1]],
    [[1, 1j], [1, -1j]],
]) / sqrt(2)


@dataclass(frozen=True)
class QssConfig:
    """Parameters of one secret-sharing simulation run."""

    variant: str = "modified"
    parties: int = 3
    rounds: int = 10_000
    check_fraction: float = 0.2
    strategy: str = "honest"
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}")
        if self.parties < 3:
            raise ValueError("need at least 3 parties (dealer + 2 receivers)")
        if self.strategy == "delay_discriminate" and self.parties != 3:
            raise ValueError("delay_discriminate is defined for 3 parties")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if not 0 < self.check_fraction < 1:
            raise ValueError("check_fraction must be strictly between 0 and 1")


@dataclass(frozen=True)
class QssStats:
    """Aggregate outcome of a run; radii are 3-sigma binomial.

    ``dealer_plus_rate`` is the share of all rounds in which the dealer
    measured +1, 1/2 for any GHZ state and basis; unlike the agreement,
    it sees which outcome the sampler picks, not only its parity.  A
    radius over zero trials (no kept or no checked round) is None.
    """

    config: QssConfig
    rounds: int
    kept: int
    checked: int
    keep_rate: float
    dealer_plus_rate: float
    honest_key_agreement: float
    check_error_rate: float
    attacker_solo_accuracy: float | None
    per_forged_round_detection: float | None
    aborted: bool
    radii: Mapping[str, float | None] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "variant": self.config.variant,
            "strategy": self.config.strategy,
            "parties": self.config.parties,
            "seed": self.config.seed,
            "rounds": self.rounds,
            "kept": self.kept,
            "checked": self.checked,
            "keep_rate": self.keep_rate,
            "dealer_plus_rate": self.dealer_plus_rate,
            "honest_key_agreement": self.honest_key_agreement,
            "check_error_rate": self.check_error_rate,
            "attacker_solo_accuracy": self.attacker_solo_accuracy,
            "per_forged_round_detection": self.per_forged_round_detection,
            "aborted": self.aborted,
            "radii": dict(self.radii),
        }


def _binomial_radius(p_hat: float, count: int) -> float | None:
    """3-sigma radius of a rate over count trials; None when count is 0."""
    if count == 0:
        return None
    return 3.0 * sqrt(max(p_hat * (1.0 - p_hat), 0.0) / count)


def _ghz_vector(n: int, s: int) -> np.ndarray:
    v = np.zeros(1 << n, dtype=complex)
    v[0] = 1 / sqrt(2)
    v[-1] = (-1) ** s / sqrt(2)
    return v


@lru_cache(maxsize=_MAX_TABLE_PARTIES)
def _outcome_tables(n: int) -> np.ndarray:
    """P(outcomes | state s, basis combo) from dense projections.

    Shape (2, 2^n, 2^n): state index, basis-combo index (party 1 is the
    most significant bit, 0=X 1=Y), outcome index (bit 0 -> +1).  Each
    codeword's amplitudes take n contractions, one party at a time with
    the conjugate eigenvector tensor, which leave the axes (basis,
    outcome) per party; one transpose then groups the bases before the
    outcomes.  Cached per party count and read-only, since every caller
    shares the array.
    """
    dim = 1 << n
    tables = np.empty((2, dim, dim))
    eig = _EIGENVECTORS.conj()
    order = [*range(0, 2 * n, 2), *range(1, 2 * n, 2)]
    for s in (0, 1):
        t = _ghz_vector(n, s).reshape((2,) * n)
        for _ in range(n):
            t = np.tensordot(t, eig, axes=([0], [2]))
        tables[s] = np.abs(t.transpose(order).reshape(dim, dim)) ** 2
    tables.flags.writeable = False
    return tables


@lru_cache(maxsize=_MAX_TABLE_PARTIES)
def _cumulative_rows(n: int) -> np.ndarray:
    """One cumulative outcome row per (codeword, basis combo) group.

    Shape (2^(n+1), 2^n), row s * 2^n + combo.  Each row is divided by
    its last entry, so it ends at exactly 1.0: the largest uniform draw,
    1 - 2^-53, then never counts past the last outcome, and a trailing
    zero-probability outcome stays unreachable.  Cached per party count
    and read-only, like the tables; ``_bucket_table`` is built from it.
    """
    cum = np.cumsum(_outcome_tables(n), axis=2).reshape(2 << n, 1 << n)
    cum /= cum[:, -1:]
    cum.flags.writeable = False
    return cum


@lru_cache(maxsize=_MAX_TABLE_PARTIES)
def _bucket_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Bucketed inverse CDF of the cumulative rows: ``(lo, th)``.

    The draws [0, 1) are split into 2^n equal buckets; cell
    ``group * 2^n + b`` belongs to group ``group`` and bucket
    b = [b, b + 1) / 2^n.  ``lo`` (int16) counts the row entries below
    the bucket's lower edge, and ``th`` (shape (span, cells)) holds the
    at most ``span`` entries inside it, in row order, padded with 2.0,
    which no draw reaches.  An entry of 1.0 lies above every bucket.
    Cached per party count and read-only; span is 3 at 3 to 8 parties,
    and the table holds 3.3 KB at 3 parties, 208 KB at 6 and 3.25 MiB
    at 8.  2^(n+1) buckets sample no faster at 3 and 6 parties and
    double the table.
    """
    cum = _cumulative_rows(n)
    groups, width = cum.shape
    buckets = 1 << n
    # an entry's bucket, floor(c * 2^n), is exact: scaling by a power of
    # two does not round; an entry of 1.0 goes to a spare bucket 2^n
    slot = (cum * buckets).astype(np.intp) + (buckets + 1) * np.arange(groups)[:, None]
    inside = np.bincount(slot.ravel(), minlength=groups * (buckets + 1))
    inside = inside.reshape(groups, buckets + 1)[:, :-1]
    lo = np.cumsum(inside, axis=1) - inside
    # rows are non-decreasing, so a bucket's entries start at index lo
    th = np.full((inside.max(), groups, buckets), 2.0)
    for j, layer in enumerate(th):
        g, b = np.nonzero(inside > j)
        layer[g, b] = cum[g, lo[g, b] + j]
    th = th.reshape(len(th), -1)
    lo = lo.astype(np.int16).reshape(-1)
    lo.flags.writeable = th.flags.writeable = False
    return lo, th


def _sample_outcomes(n: int, group: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Inverse-CDF sample of each round from its group's cumulative row.

    out[r] counts the entries of row group[r] below draws[r], which is
    ``searchsorted(side="left")`` on that row, ties included: with b =
    floor(draws[r] * 2^n), exact for any draw in [0, 1), the entries
    below bucket b all count, those above it never do, and the few
    inside it are compared one by one.  Returns int16.
    """
    lo, th = _bucket_table(n)
    cell = (group.astype(np.intp) << n) | (draws * (1 << n)).astype(np.intp)
    out = lo[cell]
    for row in th:
        out += row[cell] < draws
    return out


def _chunks(rounds: int):
    """Consecutive slices of at most _CHUNK_ROUNDS rounds, in order."""
    for start in range(0, rounds, _CHUNK_ROUNDS):
        yield slice(start, min(start + _CHUNK_ROUNDS, rounds))


def qss_run(config: QssConfig) -> QssStats:
    """Simulate the secret-sharing protocol; deterministic per seed.

    Honest rounds sample joint outcomes from dense-state distributions.
    The delay_discriminate receiver intercepts both travelling qubits,
    forwards a fresh uncorrelated qubit, performs the optimal
    discrimination on the held pair once bases are public, and must
    report an outcome before the dealer announces which codeword was
    sent; the dealer's codeword choice is what the modified variant
    hides, and it is exactly the bit his readout is missing.

    Every draw covers the whole run, in the order group word, check,
    then outcomes (honest) or attack bits, and is taken a chunk of
    rounds at a time.  Each discrete choice is one draw per round: the
    group word ``s * 2^n + basis combo`` is ``integers(0, 2^(n+1))``
    for the modified variant and ``integers(0, 2^n)`` for the original
    (s = 0), and the delaying receiver's three bits are
    ``integers(0, 8)``.  These draws keep numpy's default int64 dtype:
    below 2^32 they take 32-bit words whose spare half the generator
    keeps in its own state, so a chunked call returns the values of one
    whole call, while int8 and int16 draws buffer within one call and
    would depend on the chunk size.  Per round only the int16 group
    word and the check-draw flag are kept (the delay attack adds one
    byte for its bits); everything else lives in one chunk.  Honest
    outcomes come from the exact bucket table of ``_sample_outcomes``.
    Every sign is kept as a bit (1 for -1), so a product of signs is
    an XOR and agreement is a parity.
    """
    n = config.parties
    honest = config.strategy == "honest"
    if honest and n > _MAX_TABLE_PARTIES:
        raise ValueError(f"honest sampling tables capped at {_MAX_TABLE_PARTIES} parties")
    rng = np.random.default_rng(config.seed)
    rounds = config.rounds
    combo_mask = (1 << n) - 1

    # group word s * 2^n + basis combo, one draw per round: codeword s
    # (always 0 for the original variant), then the basis combo with
    # party 1 as the most significant bit (0 = X, 1 = Y); int16 holds
    # n <= 8 honest and n = 3 attacked
    group = np.empty(rounds, dtype=np.int16)
    words = (2 if config.variant == "modified" else 1) << n
    for sl in _chunks(rounds):
        group[sl] = rng.integers(0, words, size=sl.stop - sl.start)
    # a kept round is checked when its check draw falls below the fraction
    check_draw = np.empty(rounds, dtype=bool)
    for sl in _chunks(rounds):
        check_draw[sl] = rng.random(sl.stop - sl.start) < config.check_fraction

    if not honest:
        # fake qubit to the second party: uniform outcome either basis,
        # so the dealer's and second party's outcomes are fair bits, as
        # is the attacker's guess at the second party's outcome: bits 0,
        # 1 and 2 of one draw per round
        attack_bits = np.empty(rounds, dtype=np.int8)
        for sl in _chunks(rounds):
            attack_bits[sl] = rng.integers(0, 8, size=sl.stop - sl.start)

    kept_n = checked_n = agree_n = check_errors = solo_n = plus_n = 0
    for sl in _chunks(rounds):
        g = group[sl]
        s = g >> n
        y_counts = np.bitwise_count(g & combo_mask)
        # kept iff the basis string has an even number of Y's
        kept = y_counts % 2 == 0
        # sign bit of the measured X/Y string on codeword s
        stabilizer = s ^ (y_counts >> 1)
        if honest:
            outcome = _sample_outcomes(n, g, rng.random(sl.stop - sl.start))
            # bit (n-1-i) of the joint index is party i's outcome: the
            # dealer's outcome against the receivers' product is the
            # parity of the whole index
            disagree = np.bitwise_count(outcome) ^ stabilizer
            dealer_minus = outcome >> (n - 1)
        else:
            drawn = attack_bits[sl]
            o_dealer, o_second, guess_second = drawn & 1, drawn >> 1 & 1, drawn >> 2
            dealer_minus = o_dealer
            # exact readout of the held pair: dealer outcome masked by the
            # codeword choice; tests/test_protocols.py checks it against the
            # dense state (test_delay_discriminate_readout_is_dense)
            v = o_dealer ^ s
            # guess committed before the codeword announcement
            solo_n += int(np.count_nonzero(kept & (v == o_dealer)))
            # forged outcome: consistent with his readout and a guess at the
            # second party's outcome (which is pure noise to him)
            o_third = (y_counts >> 1) ^ v ^ guess_second
            disagree = stabilizer ^ o_second ^ o_third ^ o_dealer
        agree = (disagree & 1) == 0
        c = kept & check_draw[sl]
        kept_n += int(np.count_nonzero(kept))
        plus_n += sl.stop - sl.start - int(np.count_nonzero(dealer_minus))
        checked_n += int(np.count_nonzero(c))
        agree_n += int(np.count_nonzero(agree & kept))
        check_errors += int(np.count_nonzero(c & ~agree))

    agreement = agree_n / kept_n if kept_n else 0.0
    check_error_rate = check_errors / checked_n if checked_n else 0.0
    keep_rate = kept_n / rounds
    dealer_plus_rate = plus_n / rounds
    radii = {
        "keep_rate": _binomial_radius(keep_rate, rounds),
        "dealer_plus_rate": _binomial_radius(dealer_plus_rate, rounds),
        "honest_key_agreement": _binomial_radius(agreement, kept_n),
        "check_error_rate": _binomial_radius(check_error_rate, checked_n),
    }
    solo = detection = None
    if not honest:
        solo = solo_n / kept_n if kept_n else 0.0
        detection = check_error_rate
        radii["attacker_solo_accuracy"] = _binomial_radius(solo, kept_n)
        radii["per_forged_round_detection"] = _binomial_radius(detection, checked_n)
    aborted = checked_n > 0 and check_error_rate > _ABORT_THRESHOLD
    return QssStats(
        config=config,
        rounds=rounds,
        kept=kept_n,
        checked=checked_n,
        keep_rate=keep_rate,
        dealer_plus_rate=dealer_plus_rate,
        honest_key_agreement=agreement,
        check_error_rate=check_error_rate,
        attacker_solo_accuracy=solo,
        per_forged_round_detection=detection,
        aborted=aborted,
        radii=radii,
    )


@dataclass(frozen=True)
class BcDemoResult:
    """Bit-commitment cheat statistics."""

    samples: int
    max_reduced_deviation: float
    sender_open_success: Mapping[int, float]

    def as_dict(self) -> dict:
        return {
            "samples": self.samples,
            "max_reduced_deviation": self.max_reduced_deviation,
            "sender_open_success": {str(k): v for k, v in self.sender_open_success.items()},
        }


def _haar_unitaries(rng: np.random.Generator, samples: int) -> np.ndarray:
    """Haar-random 2x2 unitaries, shape (samples, 2, 2), from one draw.

    Sample i uses the real then the imaginary 2x2 block of its slice of
    one normal draw, the order of a per-sample draw of each.
    """
    g = rng.normal(size=(samples, 2, 2, 2))
    q, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def bc_demo(samples: int, seed: int = 0) -> BcDemoResult:
    """Demonstrate the sender-side bit-commitment cheat on a singlet.

    The receiver's marginal of (|01> - |10>)/sqrt(2) is I/2 and stays
    I/2 under any unitary on the sender's half, so the commitment
    reveals nothing; yet the sender can open bit 0 (keep the singlet,
    outcomes anticorrelated) or bit 1 (apply Y locally, mapping to a
    correlated Bell state) and pass the matching correlation test in a
    shared random X/Z basis.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    singlet = np.array([0, 1, -1, 0], dtype=complex) / sqrt(2)
    eye2 = np.eye(2, dtype=complex)

    # (U x I)|singlet> reshaped to sender x receiver is U @ S
    moved = _haar_unitaries(rng, samples) @ singlet.reshape(2, 2)
    reduced = moved.conj().transpose(0, 2, 1) @ moved  # trace over the sender's qubit
    eigs = np.linalg.eigvalsh(reduced - eye2 / 2)
    worst = float(np.abs(eigs).sum(axis=1).max() / 2)

    pauli_y = np.array([[0, -1j], [1j, 0]])
    opened = {
        0: singlet,
        1: np.kron(pauli_y, eye2) @ singlet,
    }
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / sqrt(2)
    success: dict[int, float] = {}
    for bit, state in opened.items():
        shared_basis = rng.integers(0, 2, size=samples)  # 0 = Z, 1 = X
        draws = rng.random(samples)
        outcome = np.empty(samples, dtype=np.int64)
        for b, rotated in enumerate((state, np.kron(hadamard, hadamard) @ state)):
            at = shared_basis == b
            outcome[at] = np.searchsorted(np.cumsum(np.abs(rotated) ** 2), draws[at])
        correlated = (outcome >> 1 & 1) == (outcome & 1)
        success[bit] = int(np.count_nonzero(correlated == (bit == 1))) / samples
    return BcDemoResult(samples, worst, success)
