"""Acceptance gate: the twelve claim checks, one test each.

Each test prints its one-line pass/fail verdict (visible with -s or on
failure) and asserts the claim held, so a red test pinpoints exactly
which documented behavior broke.
"""

from qundet import claims


def _run(claim_fn):
    result = claim_fn()
    print(result.line())
    assert result.passed, result.details
    return result


def test_claim_01_ghz_single_qubit_undetermined():
    _run(claims.claim_1)


def test_claim_02_code_412_two_qubit_undetermined():
    _run(claims.claim_2)


def test_claim_03_code_513_three_qubit_undetermined():
    _run(claims.claim_3)


def test_claim_04_cyclic_family_scan():
    _run(claims.claim_4)


def test_claim_05_steane_bounds_and_witness():
    _run(claims.claim_5)


def test_claim_06_code_422_mixed_pairs():
    _run(claims.claim_6)


def test_claim_07_mixed_tracedown():
    _run(claims.claim_7)


def test_claim_08_symbolic_oracle_sweep():
    _run(claims.claim_8)


def test_claim_09_qss_honest_and_attack():
    _run(claims.claim_9)


def test_claim_10_qss_original_vulnerability():
    _run(claims.claim_10)


def test_qss_claims_hold_on_any_seed(monkeypatch):
    # at 10^9 rounds the claims' bounds are tens of standard errors wide,
    # so they hold by the law of the runs, not by one lucky seed
    for seed in range(1000):
        monkeypatch.setattr(claims, "_QSS_SEED", seed)
        for claim_fn in (claims.claim_9, claims.claim_10):
            result = claim_fn()
            assert result.passed, (seed, result.details)


def test_claim_11_commitment_cheat():
    _run(claims.claim_11)


def test_claim_12_engine_self_consistency():
    _run(claims.claim_12)


def test_run_all_is_complete():
    results = claims.run_all()
    assert [r.cid for r in results] == list(range(1, 13))
    assert all(r.passed for r in results), "\n".join(
        r.line() for r in results if not r.passed
    )
