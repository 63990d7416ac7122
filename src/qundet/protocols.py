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

``qss_run`` draws each run as one multinomial of the closed-form round
law and reads its six counts as one product of the histogram with a
constant count matrix.  All laws are checked against dense state
vectors in Tier-1, and every run is deterministic given its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from math import ldexp, sqrt
from typing import Mapping

import numpy as np

VARIANTS = ("original", "modified")
STRATEGIES = ("honest", "delay_discriminate")

# a run aborts when more than this share of its check rounds disagree
_ABORT_THRESHOLD = 0.05


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
        if not 1 <= self.rounds < 2**63:
            raise ValueError("rounds must be >= 1 and below 2^63 (an int64 count)")
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


def _count_matrix(table: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """Read-only (128, 6) int64 matrix whose product with a run's 128-cell
    histogram gives the run's counts of kept, checked, agreeing,
    check-error, solo-correct and dealer-+1 rounds, in that order.

    ``table`` is a ``_key_table``.  A round is kept iff its basis string
    has an even number of Y's, and a kept round agrees iff its reported
    parity is the stabilizer's sign bit s ^ y/2; only the checked half of
    the cells (bit 6 set) counts as checked or as a check error.
    """
    dealer_minus, parity, solo_hit = table
    key = np.arange(64)
    kept = key & 1 == 0
    agree = (parity ^ key >> 2 ^ key >> 1) & 1 == 0
    per_key = np.array(
        [kept, kept, kept & agree, kept & ~agree, kept & solo_hit, dealer_minus == 0])
    # the unchecked half of the cells, then the checked half
    in_half = np.array([[1, 0, 1, 0, 1, 1], [1, 1, 1, 1, 1, 1]], dtype=np.int64)
    counts = (in_half[:, None] * per_key.T).reshape(128, 6)
    counts.flags.writeable = False
    return counts


@cache
def _counts(honest: bool) -> np.ndarray:
    """The strategy's count matrix, built from its key table on first use
    rather than at import."""
    return _count_matrix(_key_table(honest))


@cache
def _cosines(residue: int) -> np.ndarray:
    """Read-only cos(pi k / 4) at the phases k = (n - 2r) mod 8 of
    r = 0..3, for any n = residue (mod 8); built on first use."""
    # an int phase: no float overflow at any n
    cosines = np.cos(np.pi * np.array([(residue - 2 * r) % 8 for r in range(4)]) / 4)
    cosines.flags.writeable = False
    return cosines


# the law's factors that no config changes: P(a), uniform over the round's
# own bits, and each variant's P(s) as a column
_KEY_BASE = np.full((1, 8, 1, 1), 1 / 8)
_CODEWORD = {"modified": np.array([[0.5], [0.5]]), "original": np.array([[1.0], [0.0]])}


def _round_law(config: QssConfig) -> np.ndarray:
    """P(cell) for the 128 cells of a round: bits 0-5 the key of
    ``_key_table``, bit 6 set when the round is checked.

    y counts the Y's of n fair bases, so P(y mod 4 = r), the binomial
    sum over y = r (mod 4), is by the fourth roots of unity
    1/4 + 2^(-n/2-1) cos(pi (n - 2r) / 4).  The codeword s is fair for
    the modified variant and 0 for the original, the round's own bits a
    are uniform (the honest table ignores bit 5), and P(check) = p.
    """
    n, p = config.parties, config.check_fraction
    # the amplitude is an exact power of two: no float overflow at any n
    y_mod_4 = 0.25 + sqrt(ldexp(1.0, -n - 2)) * _cosines(n % 8)
    # (P(check) P(a)) (P(s) P(y mod 4)), the order of the outer products
    # that every pinned digest was drawn from, so each cell keeps its bits
    check_key = np.array([1.0 - p, p]).reshape(2, 1, 1, 1) * _KEY_BASE
    return (check_key * (_CODEWORD[config.variant] * y_mod_4)).ravel()


def qss_run(config: QssConfig) -> QssStats:
    """Simulate the secret-sharing protocol; deterministic per seed.

    Honest rounds sample joint outcomes from the GHZ outcome law of
    ``_key_table``.  The delay_discriminate receiver intercepts both
    travelling qubits, forwards a fresh uncorrelated qubit, performs the
    optimal discrimination on the held pair once bases are public, and
    must report an outcome before the dealer announces which codeword
    was sent; the dealer's codeword choice is what the modified variant
    hides, and it is exactly the bit the readout is missing.

    Every statistic of a round depends only on its 6-bit key and check
    flag, and rounds are i.i.d., so a run's 128-cell histogram is a
    sufficient statistic, drawn as one multinomial of ``_round_law``.
    Each of the six counts is a sum of histogram cells, so all six are
    one product with the strategy's constant ``_count_matrix``.  Signs
    are kept as bits (1 for -1), so a product of signs is an XOR and
    agreement is a parity.
    """
    honest = config.strategy == "honest"
    rounds = config.rounds
    # numpy gives the last cell what the others leave, float error included;
    # drawn backwards, that is cell 0, which every run reaches (cell 127 is s = 1)
    hist = np.random.default_rng(config.seed).multinomial(rounds, _round_law(config)[::-1])[::-1]

    kept_n, checked_n, agree_n, check_errors, solo_n, plus_n = (hist @ _counts(honest)).tolist()

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
