"""Seeded protocol simulations: secret sharing and the commitment cheat."""

import itertools
import json
import tracemalloc
from math import ceil, sqrt

import numpy as np
import pytest

from helpers import I2, X2, Y2, kron_all, qss_outcome_tables
from qundet import protocols
from qundet.protocols import (
    BcDemoResult,
    QssConfig,
    QssStats,
    _key_table,
    _round_keys,
    bc_demo,
    qss_run,
)


def test_config_validation():
    with pytest.raises(ValueError):
        QssConfig(variant="improved")
    with pytest.raises(ValueError):
        QssConfig(strategy="guess")
    with pytest.raises(ValueError):
        QssConfig(parties=2)
    with pytest.raises(ValueError):
        QssConfig(parties=4, strategy="delay_discriminate")
    with pytest.raises(ValueError):
        QssConfig(rounds=0)
    with pytest.raises(ValueError):
        QssConfig(check_fraction=0.0)
    with pytest.raises(ValueError):
        QssConfig(check_fraction=1.0)


def test_deterministic_per_seed():
    cfg = QssConfig(seed=42, rounds=2000)
    a = qss_run(cfg).as_dict()
    b = qss_run(cfg).as_dict()
    assert a == b
    c = qss_run(QssConfig(seed=43, rounds=2000)).as_dict()
    assert a != c


@pytest.mark.parametrize("variant", ["original", "modified"])
def test_honest_run_is_perfect(variant):
    stats = qss_run(QssConfig(variant=variant, rounds=10_000, seed=7))
    # kept iff the X/Y basis string has even Y count: probability 1/2
    assert abs(stats.keep_rate - 0.5) <= stats.radii["keep_rate"]
    assert stats.honest_key_agreement == 1.0
    assert stats.check_error_rate == 0.0
    assert not stats.aborted
    assert stats.attacker_solo_accuracy is None
    assert stats.per_forged_round_detection is None
    assert 0 < stats.checked <= stats.kept <= stats.rounds


def test_honest_four_parties():
    stats = qss_run(QssConfig(parties=4, rounds=8000, seed=1))
    assert stats.honest_key_agreement == 1.0
    assert abs(stats.keep_rate - 0.5) <= stats.radii["keep_rate"]


def test_fifteen_honest_parties_agree():
    stats = qss_run(QssConfig(parties=15, rounds=20_000, seed=2))
    assert stats.honest_key_agreement == 1.0
    assert abs(stats.dealer_plus_rate - 0.5) <= stats.radii["dealer_plus_rate"]


def test_honest_table_cap():
    # the cap comes from the word layout: 2 * 16 + 1 round bits would
    # leave 31 bits of the word for the check
    with pytest.raises(ValueError, match="32 check bits"):
        QssConfig(parties=16)


def test_largest_check_fraction_checks_every_kept_round():
    # at 6 parties ceil((1 - 2^-53) * 2^51) * 2^13 is 2^64: the threshold
    # must not overflow a uint64, and every kept round is checked
    stats = qss_run(QssConfig(parties=6, rounds=5000, check_fraction=1 - 2**-53, seed=4))
    assert stats.checked == stats.kept > 0


def test_attack_on_modified_is_blind():
    stats = qss_run(QssConfig(strategy="delay_discriminate",
                              rounds=20_000, seed=11))
    # the withheld codeword bit makes the readout useless on its own
    assert abs(stats.attacker_solo_accuracy - 0.5) \
        <= stats.radii["attacker_solo_accuracy"]
    # forged third-party outcomes are wrong half the time
    assert abs(stats.per_forged_round_detection - 0.5) \
        <= stats.radii["per_forged_round_detection"]
    assert stats.aborted


def test_attack_on_original_reads_the_key():
    stats = qss_run(QssConfig(variant="original",
                              strategy="delay_discriminate",
                              rounds=20_000, seed=11))
    # with the codeword fixed in advance, the held pair reveals the
    # dealer outcome exactly
    assert stats.attacker_solo_accuracy == 1.0
    # forging still trips the check at the same rate
    assert abs(stats.per_forged_round_detection - 0.5) \
        <= stats.radii["per_forged_round_detection"]
    assert stats.aborted


def _dense_marginals(n):
    """P(dealer bit, outcome parity | s, combo) from the dense tables,
    shape (2, 2^n, 2, 2)."""
    tables = qss_outcome_tables(n)
    o = np.arange(1 << n)
    dealer, parity = o >> (n - 1), np.bitwise_count(o) % 2
    return np.stack([
        np.stack([tables[..., (dealer == d) & (parity == p)].sum(axis=-1) for p in (0, 1)], -1)
        for d in (0, 1)
    ], -2)


@pytest.mark.parametrize("n", range(3, 9))
def test_outcome_tables_match_per_combo_reference(n):
    # the closed form the sampler rests on: codeword s measured with y
    # Y's gives P(o) = (1 + [y even] (-1)^(s + y/2 + |o|)) / 2^n
    s = np.arange(2)[:, None, None]
    y = np.bitwise_count(np.arange(1 << n))[None, :, None]
    weight = np.bitwise_count(np.arange(1 << n))[None, None, :]
    sign = np.where(y % 2 == 0, 1.0 - 2.0 * ((s + y // 2 + weight) % 2), 0.0)
    closed = (1.0 + sign) / 2**n
    assert np.abs(closed - qss_outcome_tables(n)).max() <= 1e-15


@pytest.mark.parametrize("n", range(3, 9))
def test_key_table_law_is_the_dense_marginal(n):
    # every honest word of every (s, combo) group goes through the
    # production keys and the key table; over the 2^n uniform strings u
    # the (dealer bit, outcome parity) law must be the dense marginal.
    # The law is in quarters and the dense sums lie within 1e-14 of
    # them, so rounding the dense side to quarters makes the match exact
    dim = 1 << n
    s, combo, u = np.meshgrid(np.arange(2), np.arange(dim), np.arange(dim), indexing="ij")
    words = (combo | s << n | u << (n + 1)).astype(np.uint64)
    keys = _round_keys(words.ravel(), n, 1, honest=True)
    dealer, parity, _ = _key_table(True)
    cell = (dealer[keys] * 2 + parity[keys]).reshape(2 * dim, dim)
    law = np.stack([np.bincount(row, minlength=4) for row in cell]) / dim
    dense = _dense_marginals(n).reshape(2 * dim, 4)
    assert np.abs(law - dense).max() < 1e-14
    np.testing.assert_array_equal(law, np.round(dense * 4) / 4)


@pytest.mark.parametrize("n", range(3, 9))
def test_largest_draw_lands_on_a_possible_outcome(n):
    # the largest raw word of every (s, combo) group has u and every
    # check bit set; the word 2^64 - 1 is the last of them.  Its key
    # must stay inside the 64-row table, and the (dealer bit, outcome
    # parity) it lands on must have nonzero dense probability
    groups = np.arange(2 << n, dtype=np.uint64)
    words = groups | np.uint64(((1 << 64) - 1) ^ ((2 << n) - 1))
    assert words[-1] == np.uint64((1 << 64) - 1)
    keys = _round_keys(words, n, 1, honest=True)
    assert keys.max() < 64
    dealer, parity, _ = _key_table(True)
    probs = _dense_marginals(n).reshape(2 << n, 2, 2)[
        groups.astype(np.intp), dealer[keys], parity[keys]]
    assert np.all(probs > 1e-12)


def _honest_outcome(word, n, s):
    """The joint outcome index of an honest round, party 1 most
    significant, built from its word in plain Python: the uniform
    string u, except that on even-y rounds the last party's bit (bit 0)
    fixes the parity to s + y/2."""
    y = (word & ((1 << n) - 1)).bit_count()
    u = word >> (n + 1) & ((1 << n) - 1)
    if y % 2:
        return u
    return (u & ~1) | ((u >> 1).bit_count() + s + y // 2) % 2


@pytest.mark.parametrize("n", range(3, 9))
def test_sample_outcomes_matches_row_gather(n):
    # the key table's rows, gathered at the production keys, give word
    # for word the dealer bit and outcome parity of the outcome built
    # per round in plain Python.  Per (s, combo) group the words take
    # the edge strings u = 0, 1, 2^(n-1) and 2^n - 1, with no check bit
    # and with every check bit set; seeded raw words come on top.  The
    # original variant must ignore the s bit
    dim = 1 << n
    s_combo, u, top = np.meshgrid(
        np.arange(2 * dim, dtype=np.uint64),
        np.array([0, 1, dim >> 1, dim - 1], dtype=np.uint64),
        np.array([0, ((1 << 64) - 1) >> (2 * n + 1) << (2 * n + 1)], dtype=np.uint64),
        indexing="ij")
    seeded = np.random.default_rng(n).bit_generator.random_raw(5000)
    words = np.concatenate([(s_combo | u << np.uint64(n + 1) | top).ravel(), seeded])
    dealer, parity, _ = _key_table(True)
    for s_mask in (0, 1):
        keys = _round_keys(words, n, s_mask, honest=True)
        s = [w >> n & s_mask for w in words.tolist()]
        outcome = [_honest_outcome(w, n, b) for w, b in zip(words.tolist(), s)]
        np.testing.assert_array_equal(keys & 3, np.bitwise_count(words & np.uint64(dim - 1)) % 4)
        np.testing.assert_array_equal(keys >> 2 & 1, s)
        np.testing.assert_array_equal(dealer[keys], [o >> (n - 1) for o in outcome])
        np.testing.assert_array_equal(parity[keys], [o.bit_count() % 2 for o in outcome])


@pytest.mark.parametrize("n", [3, 6, 8])
def test_sampled_outcomes_follow_the_dense_tables(n):
    # 2 * 10^5 seeded raw words through the production keys and key
    # table against the dense tables, per (codeword, basis) group,
    # within 5 sigma: the dealer's +1 rate, and for even-Y bases the
    # rate of an even outcome parity, which the law makes 0 or 1, so
    # there the match is exact.  A wrong row or a shifted field is off
    # by a whole interval and fails
    rounds, dim = 200_000, 1 << n
    words = np.random.default_rng(20 + n).bit_generator.random_raw(rounds)
    keys = _round_keys(words, n, 1, honest=True)
    dealer, parity, _ = _key_table(True)
    group = (words & np.uint64(2 * dim - 1)).astype(np.intp)
    dense = _dense_marginals(n).reshape(2 * dim, 2, 2)
    counts = np.bincount(group, minlength=2 * dim)
    assert counts.min() > 100

    def within_5_sigma(hit_round, p, rows):
        p = p[rows]
        rate = np.bincount(group[hit_round], minlength=2 * dim)[rows] / counts[rows]
        radius = 5.0 * np.sqrt(np.clip(p * (1.0 - p), 0.0, None) / counts[rows]) + 1e-12
        assert np.all(np.abs(rate - p) <= radius)

    within_5_sigma(dealer[keys] == 0, dense[:, 0, :].sum(axis=1), np.arange(2 * dim))
    even_y = np.flatnonzero(np.bitwise_count(np.arange(2 * dim) & (dim - 1)) % 2 == 0)
    within_5_sigma(parity[keys] == 0, dense[:, :, 0].sum(axis=1), even_y)


@pytest.mark.parametrize("s", [0, 1])
@pytest.mark.parametrize("bases", [b for b in itertools.product((0, 1), repeat=3)
                                   if sum(b) % 2 == 0])
@pytest.mark.parametrize("o", [1, -1])
def test_delay_discriminate_readout_is_dense(s, bases, o):
    # the attacker's readout of the held pair, (-1)^(y//2) * o * (1-2s)
    # with v = o * (1-2s) in qss_run, against the dense GHZ state after
    # the dealer's projection onto outcome o
    psi = np.zeros(8, dtype=complex)
    psi[0], psi[7] = 1, (-1) ** s
    psi /= np.linalg.norm(psi)
    sigma = (X2, Y2)
    dealer = (I2 + o * sigma[bases[0]]) / 2
    post = kron_all([dealer, I2, I2]) @ psi
    post /= np.linalg.norm(post)
    held = kron_all([I2, sigma[bases[1]], sigma[bases[2]]])
    expectation = np.vdot(post, held @ post)
    v = o * (1 - 2 * s)
    assert np.allclose(expectation, (-1) ** (sum(bases) // 2) * v, atol=1e-12)


@pytest.mark.parametrize("chunk", [1, 7, 4096])
@pytest.mark.parametrize("variant,strategy,parties", [
    ("modified", "honest", 3),
    ("original", "honest", 6),
    ("modified", "honest", 8),
    ("modified", "honest", 15),
    ("original", "delay_discriminate", 3),
    ("modified", "delay_discriminate", 3),
])
def test_stats_independent_of_chunk_size(monkeypatch, chunk, variant, strategy, parties):
    # 5003 rounds is not a multiple of any chunk size here, so the last
    # chunk is a partial one
    config = QssConfig(variant=variant, strategy=strategy, parties=parties,
                       rounds=5003, check_fraction=0.5, seed=17)
    whole = qss_run(config).as_dict()
    monkeypatch.setattr(protocols, "_CHUNK_ROUNDS", chunk)
    assert qss_run(config).as_dict() == whole


def _replay(config):
    """Counts from a plain per-round evaluation of the law on the run's
    raw words: (kept, checked, agreeing, check errors, solo-correct,
    dealer +1)."""
    n = config.parties
    honest = config.strategy == "honest"
    low = n + 1 + (n if honest else 3)
    threshold = ceil(config.check_fraction * 2 ** (64 - low))
    words = np.random.default_rng(config.seed).bit_generator.random_raw(config.rounds)
    kept = checked = agreeing = errors = solo = plus = 0
    for w in words.tolist():
        combo = w & ((1 << n) - 1)
        s = w >> n & 1 if config.variant == "modified" else 0
        y = combo.bit_count()
        stabilizer = (s + y // 2) % 2
        if honest:
            o = _honest_outcome(w, n, s)
            dealer, reported, solo_hit = o >> (n - 1), o.bit_count() % 2, False
        else:
            o_dealer, o_second, guess = w >> (n + 1) & 1, w >> (n + 2) & 1, w >> (n + 3) & 1
            readout = o_dealer ^ s
            o_third = (y // 2 + readout + guess) % 2
            dealer, reported = o_dealer, (o_dealer + o_second + o_third) % 2
            solo_hit = readout == o_dealer
        plus += dealer == 0
        if y % 2 == 0:
            check = w >> low < threshold
            kept += 1
            checked += check
            agreeing += reported == stabilizer
            errors += check and reported != stabilizer
            solo += solo_hit
    return kept, checked, agreeing, errors, solo, plus


@pytest.mark.parametrize("variant", ["original", "modified"])
@pytest.mark.parametrize("strategy,parties", [
    ("honest", 3), ("honest", 6), ("honest", 8), ("honest", 15), ("delay_discriminate", 3),
])
def test_counts_replay_the_documented_stream(variant, strategy, parties):
    # one raw word per round, in the documented layout; 70,001 rounds
    # span two chunks
    config = QssConfig(variant=variant, strategy=strategy, parties=parties, rounds=70_001,
                       check_fraction=0.3, seed=29)
    kept, checked, agreeing, errors, solo, plus = _replay(config)
    stats = qss_run(config)
    assert (stats.kept, stats.checked) == (kept, checked)
    assert stats.honest_key_agreement == agreeing / kept
    assert stats.check_error_rate == errors / checked
    assert stats.dealer_plus_rate == plus / config.rounds
    if strategy == "delay_discriminate":
        assert stats.attacker_solo_accuracy == solo / kept


@pytest.mark.parametrize("variant", ["original", "modified"])
@pytest.mark.parametrize("parties", [3, 6])
def test_dealer_plus_rate_sees_a_biased_sampler(monkeypatch, variant, parties):
    # this law keeps every key's outcome parity, but the dealer always
    # reads +1: every kept round still agrees, and only the dealer's +1
    # rate sees the bias
    fair_table = protocols._key_table

    def dealer_always_plus(honest):
        dealer, parity, solo = fair_table(honest)
        return np.zeros_like(dealer), parity, solo

    config = QssConfig(variant=variant, parties=parties, rounds=20_000, seed=7)
    fair = qss_run(config)
    assert abs(fair.dealer_plus_rate - 0.5) <= fair.radii["dealer_plus_rate"]
    monkeypatch.setattr(protocols, "_key_table", dealer_always_plus)
    biased = qss_run(config)
    assert biased.honest_key_agreement == 1.0
    assert biased.check_error_rate == 0.0
    assert abs(biased.dealer_plus_rate - 0.5) > fair.radii["dealer_plus_rate"]


def test_million_round_peak_is_chunk_bounded():
    tracemalloc.start()
    qss_run(QssConfig(parties=6, rounds=1_000_000, seed=3))
    _, top = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert top < 16 * 2**20


def test_honest_memory_is_independent_of_parties():
    def peak(parties):
        tracemalloc.start()
        qss_run(QssConfig(parties=parties, rounds=200_000, seed=3))
        _, top = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return top

    three, eight = peak(3), peak(8)
    assert eight < 64 * 2**20
    assert eight < 1.5 * three


def test_radii_keys():
    honest = qss_run(QssConfig(rounds=500, seed=3))
    assert set(honest.radii) == {
        "keep_rate", "dealer_plus_rate", "honest_key_agreement", "check_error_rate",
    }
    attack = qss_run(QssConfig(strategy="delay_discriminate",
                               rounds=500, seed=3))
    assert set(attack.radii) == {
        "keep_rate", "dealer_plus_rate", "honest_key_agreement", "check_error_rate",
        "attacker_solo_accuracy", "per_forged_round_detection",
    }
    for v in attack.radii.values():
        assert v >= 0.0


def test_stats_dict_is_json_ready():
    stats = qss_run(QssConfig(rounds=200, seed=5))
    doc = json.loads(json.dumps(stats.as_dict()))
    assert doc["variant"] == "modified"
    assert doc["strategy"] == "honest"
    assert doc["rounds"] == 200
    assert doc["attacker_solo_accuracy"] is None
    assert isinstance(stats, QssStats)


def test_bc_demo_invisible_and_openable():
    result = bc_demo(400, seed=9)
    # receiver marginal pinned to I/2 no matter the sender unitary
    assert result.max_reduced_deviation < 1e-9
    # sender passes the open test for either bit value
    assert result.sender_open_success == {0: 1.0, 1: 1.0}
    assert result.samples == 400


def _bc_worst_per_sample(samples, seed):
    # one Haar unitary, one reduced state and one eigvalsh per sample
    rng = np.random.default_rng(seed)
    singlet = np.array([0, 1, -1, 0], dtype=complex) / sqrt(2)
    eye2 = np.eye(2, dtype=complex)
    worst = 0.0
    for _ in range(samples):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(g)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        moved = (np.kron(u, eye2) @ singlet).reshape(2, 2)
        reduced = moved.conj().T @ moved
        eigs = np.linalg.eigvalsh(reduced - eye2 / 2)
        worst = max(worst, float(np.abs(eigs).sum() / 2))
    return worst


@pytest.mark.parametrize("samples,seed", [(1, 0), (50, 2), (400, 9), (1000, 20260819)])
def test_bc_demo_matches_per_sample_loop(samples, seed):
    # the batched draw, QR and eigvalsh reproduce the loop bit for bit
    assert bc_demo(samples, seed=seed).max_reduced_deviation \
        == _bc_worst_per_sample(samples, seed)


def test_bc_demo_deterministic():
    assert bc_demo(50, seed=2).as_dict() == bc_demo(50, seed=2).as_dict()


def test_bc_demo_validation_and_dict():
    with pytest.raises(ValueError):
        bc_demo(0)
    result = bc_demo(1, seed=0)
    assert isinstance(result, BcDemoResult)
    doc = json.loads(json.dumps(result.as_dict()))
    assert set(doc["sender_open_success"]) == {"0", "1"}
