"""Seeded protocol simulations: secret sharing and the commitment cheat."""

import itertools
import json
import tracemalloc
from math import sqrt

import numpy as np
import pytest

from helpers import I2, X2, Y2, kron_all, qss_outcome_tables
from qundet import protocols
from qundet.protocols import (
    BcDemoResult,
    QssConfig,
    QssStats,
    _bucket_table,
    _cumulative_rows,
    _outcome_tables,
    _sample_outcomes,
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


def test_honest_table_cap():
    with pytest.raises(ValueError, match="capped"):
        qss_run(QssConfig(parties=9, rounds=10, check_fraction=0.5))


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


def test_outcome_tables_cached_and_read_only():
    tables = _outcome_tables(4)
    assert _outcome_tables(4) is tables
    assert not tables.flags.writeable
    with pytest.raises(ValueError):
        tables[0, 0, 0] = 0.0


@pytest.mark.parametrize("n", range(3, 9))
def test_outcome_tables_match_per_combo_reference(n):
    # n contractions per codeword give the same bits as n per basis combo
    assert np.array_equal(_outcome_tables(n), qss_outcome_tables(n))


def test_cumulative_rows_cached_read_only_and_end_at_one():
    cum = _cumulative_rows(5)
    assert _cumulative_rows(5) is cum
    assert not cum.flags.writeable
    assert cum.shape == (2 << 5, 1 << 5)
    assert np.all(cum[:, -1] == 1.0)
    np.testing.assert_allclose(
        cum, np.cumsum(_outcome_tables(5), axis=2).reshape(cum.shape), atol=1e-12)


def test_bucket_table_cached_and_read_only():
    lo, th = _bucket_table(4)
    assert _bucket_table(4)[0] is lo
    assert not lo.flags.writeable and not th.flags.writeable
    cells = (2 << 4) << 4
    assert lo.shape == (cells,) and th.shape[1:] == (cells,)


@pytest.mark.parametrize("n", range(3, 9))
def test_largest_draw_lands_on_a_possible_outcome(n):
    # rng.random() can return 1 - 2^-53; in every group it must pick an
    # existing outcome of nonzero probability, not index 2^n or a
    # trailing zero-probability outcome
    groups = np.arange(2 << n, dtype=np.int16)
    draws = np.full(len(groups), np.nextafter(1.0, 0.0))
    out = _sample_outcomes(n, groups, draws)
    assert np.all(out < 1 << n)
    probs = _outcome_tables(n).reshape(2 << n, 1 << n)[groups, out]
    assert np.all(probs > 1e-12)


@pytest.mark.parametrize("n", range(3, 9))
def test_sample_outcomes_matches_row_gather(n):
    # the reference gathers each round's whole cumulative row and counts
    # the entries below its draw.  Per group the draws are every row
    # entry, every bucket edge k / 2^n, 0 and 1 - 2^-53, each with both
    # float neighbours inside [0, 1): where ties and bucket edges decide
    # the count.  Seeded uniform draws in random groups come on top.
    cum = _cumulative_rows(n)
    buckets = 1 << n
    edges = np.arange(buckets) / buckets
    groups, draws = [], []
    for g, row in enumerate(cum):
        points = np.concatenate([row, edges, [0.0, np.nextafter(1.0, 0.0)]])
        near = np.concatenate([points, np.nextafter(points, -1.0), np.nextafter(points, 2.0)])
        near = near[(near >= 0.0) & (near < 1.0)]
        groups.append(np.full(len(near), g))
        draws.append(near)
    rng = np.random.default_rng(n)
    groups.append(rng.integers(0, 2 << n, size=5000))
    draws.append(rng.random(5000))
    group = np.concatenate(groups).astype(np.int16)
    draw = np.concatenate(draws)
    reference = np.concatenate([
        (cum[group[i:i + 4096]] < draw[i:i + 4096, None]).sum(axis=1)
        for i in range(0, len(group), 4096)
    ])
    np.testing.assert_array_equal(_sample_outcomes(n, group, draw), reference)


@pytest.mark.parametrize("n", [3, 6, 8])
def test_sampled_outcomes_follow_the_dense_tables(n):
    # 2 * 10^5 seeded rounds through the production sampler against the
    # dense tables, per (codeword, basis) group, within 5 sigma: the
    # dealer's +1 rate, and for even-Y bases the rate at which the
    # dealer's outcome equals the receivers' product (an even popcount
    # of the joint index).  A wrong row or a shifted outcome index is
    # off by a whole interval and fails; exact ties are left to the
    # row-gather test above.
    rounds = 200_000
    rng = np.random.default_rng(20 + n)
    group = rng.integers(0, 2 << n, size=rounds).astype(np.int16)
    out = _sample_outcomes(n, group, rng.random(rounds))
    tables = _outcome_tables(n).reshape(2 << n, 1 << n)
    index = np.arange(1 << n)
    counts = np.bincount(group, minlength=2 << n)
    assert counts.min() > 100

    def within_5_sigma(hit_round, hit_outcome, rows):
        p = tables[:, hit_outcome].sum(axis=1)[rows]
        rate = np.bincount(group[hit_round], minlength=2 << n)[rows] / counts[rows]
        radius = 5.0 * np.sqrt(np.clip(p * (1.0 - p), 0.0, None) / counts[rows]) + 1e-12
        assert np.all(np.abs(rate - p) <= radius)

    dealer_plus = index >> (n - 1) == 0
    within_5_sigma(out >> (n - 1) == 0, dealer_plus, np.arange(2 << n))
    even_y = np.flatnonzero(np.bitwise_count(np.arange(2 << n) & ((1 << n) - 1)) % 2 == 0)
    parity_even = np.bitwise_count(index) % 2 == 0
    within_5_sigma(np.bitwise_count(out) % 2 == 0, parity_even, even_y)


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
    ("original", "delay_discriminate", 3),
    ("modified", "delay_discriminate", 3),
])
def test_stats_independent_of_chunk_size(monkeypatch, chunk, variant, strategy, parties):
    # 5003 rounds is not a multiple of any chunk size here, so the last
    # chunk of every draw is a partial one
    config = QssConfig(variant=variant, strategy=strategy, parties=parties,
                       rounds=5003, check_fraction=0.5, seed=17)
    whole = qss_run(config).as_dict()
    monkeypatch.setattr(protocols, "_CHUNK_ROUNDS", chunk)
    assert qss_run(config).as_dict() == whole


@pytest.mark.parametrize("variant", ["original", "modified"])
@pytest.mark.parametrize("strategy,parties", [
    ("honest", 3), ("honest", 6), ("honest", 8), ("delay_discriminate", 3),
])
def test_counts_replay_the_documented_stream(variant, strategy, parties):
    # one whole-run draw of each kind, in the documented order: the
    # group words s * 2^n + basis combo, the check draws, then the
    # outcome draws (honest) or the delaying receiver's three bits, bit
    # 0 being the dealer's outcome.  70,001 rounds span two chunks.
    n, rounds = parties, 70_001
    config = QssConfig(variant=variant, strategy=strategy, parties=n, rounds=rounds,
                       check_fraction=0.3, seed=29)
    rng = np.random.default_rng(config.seed)
    group = rng.integers(0, (2 if variant == "modified" else 1) << n, size=rounds)
    check = rng.random(rounds) < config.check_fraction
    if strategy == "honest":
        outcome = _sample_outcomes(n, group.astype(np.int16), rng.random(rounds))
        dealer_minus = outcome >> (n - 1)
    else:
        dealer_minus = rng.integers(0, 8, size=rounds) & 1
    kept = np.bitwise_count(group & ((1 << n) - 1)) % 2 == 0
    stats = qss_run(config)
    assert stats.kept == np.count_nonzero(kept)
    assert stats.checked == np.count_nonzero(kept & check)
    assert stats.dealer_plus_rate == np.count_nonzero(dealer_minus == 0) / rounds


@pytest.mark.parametrize("variant", ["original", "modified"])
@pytest.mark.parametrize("parties", [3, 6])
def test_dealer_plus_rate_sees_a_biased_sampler(monkeypatch, variant, parties):
    # this sampler keeps the stabilizer's parity but returns the least
    # outcome of that parity, index 0 or 1, so the dealer always reads
    # +1: every kept round still agrees, and only the dealer's +1 rate
    # sees the bias
    def least_of_parity(n, group, draws):
        y_counts = np.bitwise_count(group & ((1 << n) - 1))
        return ((group >> n) ^ (y_counts >> 1)) & 1

    config = QssConfig(variant=variant, parties=parties, rounds=20_000, seed=7)
    fair = qss_run(config)
    assert abs(fair.dealer_plus_rate - 0.5) <= fair.radii["dealer_plus_rate"]
    monkeypatch.setattr(protocols, "_sample_outcomes", least_of_parity)
    biased = qss_run(config)
    assert biased.honest_key_agreement == 1.0
    assert biased.check_error_rate == 0.0
    assert abs(biased.dealer_plus_rate - 0.5) > fair.radii["dealer_plus_rate"]


def test_million_round_peak_is_chunk_bounded():
    _bucket_table(6)
    tracemalloc.start()
    qss_run(QssConfig(parties=6, rounds=1_000_000, seed=3))
    _, top = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert top < 16 * 2**20


def test_honest_memory_is_independent_of_parties():
    # the cached 8-party cumulative rows (1 MB) and bucket table (3.3 MB)
    # would otherwise be built inside the traced call and outweigh the
    # per-round state
    _bucket_table(3)
    _bucket_table(8)

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
