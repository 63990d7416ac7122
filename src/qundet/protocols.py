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

All sampling distributions are checked against dense state vectors in
Tier-1, and every run is deterministic given its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, ldexp, sqrt
from typing import Mapping

import numpy as np

VARIANTS = ("original", "modified")
STRATEGIES = ("honest", "delay_discriminate")

# a run aborts when more than this share of its check rounds disagree
_ABORT_THRESHOLD = 0.05

# rounds per chunk: the per-chunk temporaries of qss_run stay a few MB
# at any party count and round count
_CHUNK_ROUNDS = 1 << 16

# each round is one raw 64-bit word; the bits above the round's own
# 2n + 1 (honest) or n + 4 (delaying receiver) decide its check, and at
# least this many must remain, so honest runs take at most 15 parties
_CHECK_BITS = 32


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
        if self.strategy == "honest" and 2 * self.parties + 1 > 64 - _CHECK_BITS:
            raise ValueError(
                f"{self.parties} honest parties take {2 * self.parties + 1} bits of a "
                f"round's 64-bit word and leave fewer than {_CHECK_BITS} check bits; "
                f"at most {(63 - _CHECK_BITS) // 2} parties")
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


def _key_table(honest: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The law of a round, evaluated once for each of the 64 keys.

    Key bits 0-1 hold y mod 4, where y counts the round's Y bases, bit 2
    the codeword s and bits 3-5 the round's own bits a.  Returns, per
    key, the dealer's outcome bit (1 for -1), the parity of all reported
    outcomes, and whether the delaying receiver's solo readout equals
    the dealer's outcome.

    Honest rounds measure GHZ codeword s, whose joint outcome o is
    uniform for odd y and uniform over the strings of parity s ^ y/2 for
    even y.  So o is the uniform string u, except that on even-y rounds
    the last party's bit sets the parity; a holds u's top bit (the
    dealer's, never the last party's) and parity(u) at bit 1.  The
    delaying receiver's a holds the dealer's outcome, the second party's
    outcome and the receiver's guess at it.
    """
    key = np.arange(64)
    y, s, a = key & 3, key >> 2 & 1, key >> 3
    if honest:
        parity = np.where(y % 2 == 0, s ^ y >> 1, a >> 1 & 1)
        return a & 1, parity, np.zeros(64, dtype=bool)
    # the fake qubit gives the second party a uniform outcome in either
    # basis, so the dealer's outcome, the second party's and the guess
    # at it are three fair bits
    o_dealer, o_second, guess_second = a & 1, a >> 1 & 1, a >> 2
    # exact readout of the held pair: the dealer's outcome masked by the
    # codeword choice; tests/test_protocols.py checks it against the
    # dense state (test_delay_discriminate_readout_is_dense)
    v = o_dealer ^ s
    # forged outcome, committed before the codeword announcement:
    # consistent with the readout and a guess at the second party's
    # outcome (which is pure noise to the receiver)
    o_third = y >> 1 ^ v ^ guess_second
    return o_dealer, o_dealer ^ o_second ^ o_third, v == o_dealer


def _round_keys(words: np.ndarray, n: int, s_mask: int, honest: bool) -> np.ndarray:
    """Each round's 6-bit key (see ``_key_table``) from its raw word, as uint8.

    A word holds the basis combo in bits 0..n-1 (party 1 most
    significant, 0 = X, 1 = Y), the codeword s in bit n (read only when
    s_mask is 1, for the modified variant), then the uniform string u in
    bits n+1..2n (honest; the dealer's bit is bit 2n) or the delaying
    receiver's three bits.  Every field lies in the low 32 bits.
    """
    fields = words.astype(np.uint32)
    key = np.bitwise_count(fields & np.uint32((1 << n) - 1))
    key &= 3
    # in place from here on: fewer chunk-sized temporaries measured
    # faster
    fields >>= np.uint32(n)
    if honest:
        parity = np.bitwise_count(fields & np.uint32(((1 << n) - 1) << 1))
        parity &= 1
        key |= parity << 4
        # s stays at bit 0 and the dealer's bit moves from bit n to bit 1
        dealer = fields >> np.uint32(n - 1)
        dealer &= np.uint32(2)
        fields &= np.uint32(s_mask)
        fields |= dealer
    else:
        fields &= np.uint32(14 | s_mask)
    key |= fields.astype(np.uint8) << 2
    return key


def qss_run(config: QssConfig) -> QssStats:
    """Simulate the secret-sharing protocol; deterministic per seed.

    Honest rounds sample joint outcomes from the GHZ outcome law of
    ``_key_table``.  The delay_discriminate receiver intercepts both
    travelling qubits, forwards a fresh uncorrelated qubit, performs the
    optimal discrimination on the held pair once bases are public, and
    must report an outcome before the dealer announces which codeword
    was sent; the dealer's codeword choice is what the modified variant
    hides, and it is exactly the bit the readout is missing.

    Each round is one raw word of the seed's bit generator, laid out as
    in ``_round_keys``, taken a chunk of rounds at a time; raw words
    carry no buffered state, so a chunked draw equals a whole one.  With
    ``low`` round bits below them, the top 64 - low bits decide the
    check: a round is checked iff ``word >> low < ceil(p * 2^(64 -
    low))``.  Every statistic of a round depends only on its 6-bit key
    and this check flag, so a chunk is counted by one 128-cell
    histogram, and the law is evaluated once per key.  Every sign is
    kept as a bit (1 for -1), so a product of signs is an XOR and
    agreement is a parity.
    """
    n = config.parties
    honest = config.strategy == "honest"
    low = n + 1 + (n if honest else 3)
    # word >> low < t is word <= t * 2^low - 1, which fits a uint64
    # even when t reaches 2^(64 - low)
    check_limit = np.uint64((ceil(ldexp(config.check_fraction, 64 - low)) << low) - 1)
    s_mask = int(config.variant == "modified")
    rounds = config.rounds
    bits = np.random.default_rng(config.seed).bit_generator
    hist = np.zeros(128, dtype=np.int64)
    for start in range(0, rounds, _CHUNK_ROUNDS):
        words = bits.random_raw(min(_CHUNK_ROUNDS, rounds - start))
        keys = _round_keys(words, n, s_mask, honest)
        keys |= (words <= check_limit).view(np.uint8) << 6
        hist += np.bincount(keys, minlength=128)

    dealer_minus, parity, solo_hit = _key_table(honest)
    key = np.arange(64)
    # kept iff the basis string has an even number of Y's; a kept round
    # agrees iff its reported parity is the stabilizer's sign bit s ^ y/2
    kept = key & 1 == 0
    agree = (parity ^ key >> 2 ^ key >> 1) & 1 == 0
    per_key, checked_per_key = hist[:64] + hist[64:], hist[64:]
    kept_n = int(per_key[kept].sum())
    checked_n = int(checked_per_key[kept].sum())
    agree_n = int(per_key[kept & agree].sum())
    check_errors = int(checked_per_key[kept & ~agree].sum())
    solo_n = int(per_key[kept & solo_hit].sum())
    plus_n = int(per_key[dealer_minus == 0].sum())

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
