"""Tests of the benchmark itself: the reference, the checks, and one smoke
pass of each workload on its smallest input.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference as ref  # noqa: E402
import workloads  # noqa: E402

# written out by hand, not taken from the package catalog
CODE_513 = ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"]
STEANE = ["IIXXXXI", "IXXIIXX", "XIXIXIX", "IIZZZZI", "IZZIIZZ", "ZIZIZIZ"]


def ghz_stabilizers(n):
    return ["I" * i + "ZZ" + "I" * (n - 2 - i) for i in range(n - 1)]


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_reference_ghz_w_min_is_n(n):
    coset = ref.coset(n, ghz_stabilizers(n), ref.parse("X" * n))
    assert coset.w_min == n
    assert coset.d_min == 1


@pytest.mark.parametrize(
    "n, stabilizers, logical, d_min",
    [(5, CODE_513, "ZZZZZ", 3), (7, STEANE, "ZZZZZZZ", 5)],
)
def test_reference_w_min_is_3(n, stabilizers, logical, d_min):
    coset = ref.coset(n, stabilizers, ref.parse(logical))
    assert coset.w_min == 3
    assert coset.d_min == d_min
    assert ref.normalizer(n, stabilizers, ref.parse(logical)).distance == 3


def test_reference_verdict_and_least_witness_by_hand():
    # 3-qubit GHZ: X^3 * S = {XXX, -YYX, -YXY, -XYY}; every element has
    # full support, so tracing one qubit leaves the reductions equal
    coset = ref.coset(3, ghz_stabilizers(3), ref.parse("XXX"))
    assert sorted(coset.string(i) for i in range(4)) == ["-XYY", "-YXY", "-YYX", "XXX"]
    assert coset.verdict(ref.mask_of([2], 3)) == (True, None)
    # [[4,1,2]] toy: rep ZIII with S = <ZZII>: ZIII survives tracing qubit 2
    coset = ref.coset(4, ["ZZII"], ref.parse("ZIII"))
    assert coset.verdict(ref.mask_of([2], 4)) == (False, "ZIII")
    assert coset.verdict(ref.mask_of([1], 4)) == (False, "IZII")
    assert coset.verdict(ref.mask_of([1, 2], 4)) == (True, None)


def test_presentation_keeps_the_invariants():
    from qundet import codes

    base = codes.catalog("cyclic", 11)
    spec = workloads.present(base, np.random.default_rng(7))
    assert spec.stabilizers != base.stabilizers
    a = ref.coset(11, list(base.stabilizers), ref.difference_rep(list(base.logical_z)))
    b = ref.coset(11, list(spec.stabilizers), ref.difference_rep(list(spec.logical_z)))
    assert (a.w_min, a.d_min) == (b.w_min, b.d_min)
    assert a.covered.sum() == b.covered.sum()


SMALLEST = [
    (workloads.CapThreshold, (("ghz", 17),)),
    (workloads.OracleSweep, (("code_412", None),)),
    (workloads.QssMc, (("original", "honest", 3),)),
]


@pytest.mark.parametrize("cls, entries", SMALLEST, ids=[cls.name for cls, _ in SMALLEST])
def test_smoke_pass_on_smallest_input(cls, entries):
    workload = cls(3, entries=entries)
    result = workload.run_pass(0)
    assert result.failed == 0 and result.errors == []
    assert result.items > 0
    assert workload.check(result) == []


def test_checks_reject_a_wrong_verdict_and_a_wrong_witness():
    coset = ref.coset(5, CODE_513, ref.parse("ZZZZZ"))
    assert workloads._check_witness("513", coset, (1, 2), (False, "-IIYZY")) == []
    errors = workloads._check_witness("513", coset, (1, 2), (False, "IIYZY"))
    assert any("not in Z-bar*S" in e for e in errors)
    # in the coset and inside the kept qubits 2..5, but not the least there
    errors = workloads._check_witness("513", coset, (1,), (False, "-IXXIZ"))
    assert len(errors) == 1 and "not the least" in errors[0]
    assert "verdict True" in workloads._check_witness("513", coset, (1, 2), (True, None))[0]


def test_checks_reject_a_wrong_report_field():
    workload = workloads.OracleSweep(3, entries=(("steane_713", None),))
    result = workload.run_pass(0)
    assert workload.check(result) == []
    result.outputs[0]["distance"] = 4
    result.outputs[0]["e_d_table"]["5"]["count"] += 1
    errors = workload.check(result)
    assert any("paper 3" in e for e in errors)
    assert any("e_d_table[5]" in e for e in errors)


def test_checks_reject_a_biased_keep_rate():
    workload = workloads.QssMc(3, entries=(("modified", "delay_discriminate", 3),))
    result = workload.run_pass(0)
    result.outputs[0]["keep_rate"] += 0.01
    assert any("keep_rate" in e for e in workload.check(result))
