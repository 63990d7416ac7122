"""Seeded protocol simulations: secret sharing and the commitment cheat."""

import itertools
import json
import tracemalloc
from fractions import Fraction
from math import comb, ldexp, sqrt

import numpy as np
import pytest

from helpers import I2, X2, Y2, kron_all, qss_outcome_tables, qss_reference_counts
from qundet import protocols
from qundet.protocols import (
    BcDemoResult,
    QssConfig,
    QssStats,
    _count_matrix,
    _key_table,
    _round_law,
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
    # numpy's multinomial draws an int64 count
    with pytest.raises(ValueError):
        QssConfig(rounds=2**63)
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


def test_largest_check_fraction_checks_every_kept_round():
    # the check cell has probability p exactly, so at p = 1 - 2^-53 a
    # run of 5000 rounds checks every kept round
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


def test_y_mod_4_law_is_the_binomial_sum():
    # the roots-of-unity closed form against exact sums of C(n, y) / 2^n
    # over y = r (mod 4), summed out of the whole law
    for n in [*range(3, 65), 1000]:
        law = _round_law(QssConfig(parties=n)).reshape(16, 2, 4).sum(axis=(0, 1))
        exact = [float(Fraction(sum(comb(n, y) for y in range(r, n + 1, 4)), 2**n))
                 for r in range(4)]
        assert np.abs(law - exact).max() <= 1e-15, n
    # past float range the cosine term vanishes and the law stays finite
    huge = _round_law(QssConfig(parties=10**400)).reshape(16, 2, 4).sum(axis=(0, 1))
    assert np.abs(huge - 0.25).max() <= 1e-15


def _law_marginal(variant, n):
    """P(s, y mod 4, dealer bit, outcome parity) of a round, from the
    production law through the honest key table, shape (2, 4, 2, 2)."""
    law = _round_law(QssConfig(variant=variant, parties=n)).reshape(2, 64).sum(axis=0)
    dealer, parity, _ = _key_table(True)
    key = np.arange(64)
    marginal = np.zeros((2, 4, 2, 2))
    np.add.at(marginal, (key >> 2 & 1, key & 3, dealer, parity), law)
    return marginal


def _dense_by_y_mod_4(n):
    """The dense marginals summed over the basis combos of each y mod 4,
    shape (2, 4, 2, 2), and the number of combos of each y mod 4."""
    y = np.bitwise_count(np.arange(1 << n)) % 4
    tables = _dense_marginals(n)
    return np.stack([tables[:, y == r].sum(axis=1) for r in range(4)], axis=1), np.bincount(y)


@pytest.mark.parametrize("n", range(3, 9))
def test_key_table_law_is_the_dense_marginal(n):
    # the same marginal from the dense tables, with fair bases and the
    # variant's codeword law, for both variants
    sums, _ = _dense_by_y_mod_4(n)
    for variant, p_s in (("modified", [0.5, 0.5]), ("original", [1.0, 0.0])):
        dense = sums * np.array(p_s)[:, None, None, None] / 2**n
        assert np.abs(_law_marginal(variant, n) - dense).max() < 1e-14


@pytest.mark.parametrize("n", [3, 6, 8])
def test_sampled_outcomes_follow_the_dense_tables(n):
    # 10^6 rounds drawn from the production law, read through the key
    # table, against the dense tables per (codeword, y mod 4) group
    # within 5 sigma: the dealer's +1 rate, and for even y the rate of
    # an even outcome parity, which the law makes 0 or 1, so there the
    # match is exact.  A wrong cell or a shifted field is off by a
    # whole interval and fails
    hist = np.random.default_rng(20 + n).multinomial(1_000_000, _round_law(QssConfig(parties=n)))
    per_key = hist[:64] + hist[64:]
    group = np.arange(64) & 7  # s * 4 + y mod 4
    counts = np.bincount(group, per_key, minlength=8)
    assert counts.min() > 1000
    sums, combos = _dense_by_y_mod_4(n)
    dense = (sums / combos[None, :, None, None]).reshape(8, 2, 2)
    dealer, parity, _ = _key_table(True)

    def within_5_sigma(hit_key, p, rows):
        p = p[rows]
        rate = np.bincount(group, per_key * hit_key, minlength=8)[rows] / counts[rows]
        radius = 5.0 * np.sqrt(np.clip(p * (1.0 - p), 0.0, None) / counts[rows]) + 1e-12
        assert np.all(np.abs(rate - p) <= radius)

    within_5_sigma(dealer == 0, dense[:, 0, :].sum(axis=1), np.arange(8))
    within_5_sigma(parity == 0, dense[:, :, 0].sum(axis=1), np.array([0, 2, 4, 6]))


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


def _agree_within_5_sigma(ours, theirs):
    """Two (hits, trials) pairs whose rates agree within 5 pooled sigma."""
    (x1, n1), (x2, n2) = ours, theirs
    p = (x1 + x2) / (n1 + n2)
    radius = 5.0 * sqrt(p * (1.0 - p) * (1 / n1 + 1 / n2))
    return abs(x1 / n1 - x2 / n2) <= radius


@pytest.mark.parametrize("variant", ["original", "modified"])
@pytest.mark.parametrize("strategy,parties", [("honest", 5), ("delay_discriminate", 3)])
def test_rates_match_the_per_round_reference(variant, strategy, parties):
    # the plain-Python run, one round at a time, against the one draw;
    # a rate of 0 or 1 on both sides has radius 0 and must match exactly
    config = QssConfig(variant=variant, strategy=strategy, parties=parties, rounds=20_000,
                       check_fraction=0.3, seed=31)
    kept, checked, agreeing, errors, solo, plus = qss_reference_counts(config)
    stats = qss_run(config)
    rounds = config.rounds
    pairs = {
        "keep_rate": ((stats.kept, rounds), (kept, rounds)),
        "dealer_plus_rate": ((round(stats.dealer_plus_rate * rounds), rounds), (plus, rounds)),
        "checked share": ((stats.checked, stats.kept), (checked, kept)),
        "honest_key_agreement": (
            (round(stats.honest_key_agreement * stats.kept), stats.kept), (agreeing, kept)),
        "check_error_rate": (
            (round(stats.check_error_rate * stats.checked), stats.checked), (errors, checked)),
    }
    if strategy == "delay_discriminate":
        pairs["attacker_solo_accuracy"] = (
            (round(stats.attacker_solo_accuracy * stats.kept), stats.kept), (solo, kept))
    for name, (ours, theirs) in pairs.items():
        assert _agree_within_5_sigma(ours, theirs), (name, ours, theirs)


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
    # qss_run reads the key table only through its cached count matrix
    biased_counts = _count_matrix(dealer_always_plus(True))
    monkeypatch.setattr(protocols, "_counts", lambda honest: biased_counts)
    biased = qss_run(config)
    assert biased.honest_key_agreement == 1.0
    assert biased.check_error_rate == 0.0
    assert abs(biased.dealer_plus_rate - 0.5) > fair.radii["dealer_plus_rate"]


def _masked_sums(hist, honest):
    """The six counts of a histogram as per-key masked sums over the key
    table: kept, checked, agreeing, check errors, solo-correct, dealer +1."""
    dealer_minus, parity, solo_hit = _key_table(honest)
    key = np.arange(64)
    kept = key & 1 == 0
    agree = (parity ^ key >> 2 ^ key >> 1) & 1 == 0
    per_key, checked_per_key = hist[:64] + hist[64:], hist[64:]
    return [
        int(per_key[kept].sum()),
        int(checked_per_key[kept].sum()),
        int(per_key[kept & agree].sum()),
        int(checked_per_key[kept & ~agree].sum()),
        int(per_key[kept & solo_hit].sum()),
        int(per_key[dealer_minus == 0].sum()),
    ]


@pytest.mark.parametrize("honest", [False, True])
def test_count_matrix_gives_the_masked_sums(honest):
    # one product with the cached matrix against the six masked
    # sums it replaces, on a zero histogram and on random ones whose
    # cells reach 2^40, so a row or column read from the wrong half or
    # the wrong keys is off by many counts
    counts = protocols._counts(honest)
    assert counts.shape == (128, 6) and counts.dtype == np.int64
    assert not counts.flags.writeable
    assert np.array_equal(counts, _count_matrix(_key_table(honest)))
    hists = np.random.default_rng(17).integers(0, 2**40, size=(20, 128))
    for hist in [np.zeros(128, dtype=np.int64), *hists]:
        assert (hist @ counts).tolist() == _masked_sums(hist, honest)


def _outer_law(config):
    """The round law as nested outer products of per-call arrays."""
    n, p = config.parties, config.check_fraction
    phase = np.array([(n - 2 * r) % 8 for r in range(4)])
    y_mod_4 = 0.25 + sqrt(ldexp(1.0, -n - 2)) * np.cos(np.pi * phase / 4)
    s = [0.5, 0.5] if config.variant == "modified" else [1.0, 0.0]
    return np.outer(np.outer([1.0 - p, p], np.full(8, 1 / 8)), np.outer(s, y_mod_4)).ravel()


@pytest.mark.parametrize("variant", ["original", "modified"])
@pytest.mark.parametrize("check_fraction", [1e-9, 0.2, 0.5, 1 - 2**-53])
def test_round_law_is_the_outer_product_bit_for_bit(variant, check_fraction):
    # every seeded histogram, and so every pinned qss digest, reads
    # these exact floats; a cosine taken another way, such as
    # sin(pi (k + 2) / 4), passes the pins and the 1e-15 closed-form
    # test but moves the last bits that this test compares
    for parties in [*range(3, 71), 1000, 10**400]:
        config = QssConfig(variant=variant, parties=parties, check_fraction=check_fraction)
        assert np.array_equal(_round_law(config), _outer_law(config)), parties


def test_forty_parties_for_a_trillion_rounds_in_constant_memory():
    # a run is one draw over 128 cells, whatever its rounds and parties
    tracemalloc.start()
    stats = qss_run(QssConfig(parties=40, rounds=10**12, seed=3))
    _, top = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert stats.honest_key_agreement == 1.0
    assert abs(stats.dealer_plus_rate - 0.5) <= stats.radii["dealer_plus_rate"]
    assert top < 2**20


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
