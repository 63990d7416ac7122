"""The twelve headline claims, each packaged as a pass/fail check.

These are the regression anchors of the project: exact combinatorial
facts about the catalog codes, symbolic/oracle agreement sweeps, and
the Monte Carlo protocol statistics at fixed seeds.  The CLI's
verify-paper subcommand and the acceptance test suite both run exactly
this list, so a claim can never silently drift between the two.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from qundet import codes, dense, undetermined as und
from qundet.pauli import PauliOperator, parse_pauli
from qundet.protocols import QssConfig, bc_demo, qss_run
from qundet.stabilizer import code_distance, in_logical_x_set, logical_classes, logical_x_set


@dataclass(frozen=True)
class ClaimResult:
    cid: int
    title: str
    passed: bool
    details: str
    elapsed_s: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"claim {self.cid:2d} {status} ({self.elapsed_s:6.2f}s)  {self.title}: {self.details}"

    def as_dict(self) -> dict:
        return {
            "id": self.cid,
            "title": self.title,
            "passed": self.passed,
            "details": self.details,
        }


def _check(cid: int, title: str, fn: Callable[[], tuple[bool, str]]) -> ClaimResult:
    t0 = time.monotonic()
    try:
        passed, details = fn()
    except Exception as exc:  # a crash is a failing claim, not a crashed run
        passed, details = False, f"raised {type(exc).__name__}: {exc}"
    return ClaimResult(cid, title, passed, details, time.monotonic() - t0)


def claim_1() -> ClaimResult:
    def run():
        for n in range(3, 16):
            spec = codes.catalog("ghz", n=n)
            r = und.unconditional_D(spec, cross_check=(n <= 10))
            if r.d_min != 1:
                return False, f"ghz({n}) d_min={r.d_min}"
            group = spec.group()
            z_bar = spec.logical_z_ops()[0]
            for i in range(1, n + 1):
                z_i = PauliOperator.single(n, i, "Z")
                if not in_logical_x_set(group, z_bar, z_i):
                    return False, f"ghz({n}): Z_{i} not in the logical X set"
        return True, "ghz(3..15): d_min=1 and every single-qubit Z is a logical X"

    return _check(1, "GHZ family is 1-undetermined", run)


def claim_2() -> ClaimResult:
    def run():
        spec = codes.catalog("code_412")
        r = und.unconditional_D(spec, cross_check=True)
        if r.d_min != 2:
            return False, f"d_min={r.d_min}, expected 2"
        listed = ["YYII", "IYYI", "IIYY", "YIIY", "ZIZI", "IXIX"]
        members = {p.letters for p in logical_x_set(spec.group(), spec.logical_z_ops()[0])}
        missing = [s for s in listed if s not in members]
        if missing:
            return False, f"listed operators missing from the X set: {missing}"
        checked = und.oracle_sweep(spec)
        return True, f"d_min=2; six listed operators present; oracle agrees on all {checked} traces"

    return _check(2, "[[4,1,2]] is 2-undetermined", run)


def claim_3() -> ClaimResult:
    def run():
        spec = codes.catalog("code_513")
        d = code_distance(logical_classes(spec.group()))
        r = und.unconditional_D(spec, cross_check=True)
        if (d, r.d_min) != (3, 3):
            return False, f"d={d}, d_min={r.d_min}, expected 3, 3"
        base_a = parse_pauli("IYYIX")  # one listed pattern; others are its rotations
        base_b = parse_pauli("XZIIZ")
        listed = [base_a.shifted(i) for i in range(5)] + [base_b.shifted(i) for i in range(5)]
        group = spec.group()
        z_bar = spec.logical_z_ops()[0]
        supports = set()
        for p in listed:
            if not in_logical_x_set(group, z_bar, p):
                return False, f"listed operator {p} not in the X set"
            supports.add(tuple(sorted(p.support)))
        if supports != set(itertools.combinations(range(1, 6), 3)):
            return False, "listed operators do not cover all 10 3-subsets"
        cover = und.undetected_error_cover(spec, 3)
        if not cover.full_cover:
            return False, f"cover incomplete: {cover.uncovered}"
        ed = und.necessary_ED(spec, 3)
        if not ed.passed:
            return False, f"E_3={ed.e_d} < {ed.binomial}"
        return True, f"d=3, d_min=3, 10 listed operators cover all 3-subsets, E_3={ed.e_d}>=10"

    return _check(3, "[[5,1,3]] is 3-undetermined with full error cover", run)


def claim_4() -> ClaimResult:
    def run():
        valid, invalid, bad = [], [], []
        for row in und.scan_cyclic(7, 15):
            n = row["n"]
            if not row["valid"]:
                invalid.append((n, "; ".join(row["failures"])))
            elif row["n_minus_2_undetermined"]:
                valid.append(n)
            else:
                bad.append((n, row["d_min"]))
        if bad:
            return False, f"valid n failing (n-2)-undetermined: {bad}"
        detail = f"valid n {valid} all (n-2)-undetermined"
        if invalid:
            findings = ", ".join(f"n={n} ({msg})" for n, msg in invalid)
            detail += f"; findings: construction invalid for {findings}"
        return True, detail

    return _check(4, "cyclic family scan 7..15", run)


def claim_5() -> ClaimResult:
    def run():
        spec = codes.catalog("steane_713")
        eq, witness = und.reduced_equal_on(spec, [2, 3, 4])
        if eq or witness is None:
            return False, "tracing {2,3,4} did not distinguish the codewords"
        (dist,) = dense.reduced_distances(*dense.codeword_states(spec), [0b1110])  # qubits 2-4
        if dist == 0:
            return False, "oracle reads the reductions equal"
        r = und.unconditional_D(spec, cross_check=True)
        if r.d_min != 5:
            return False, f"d_min={r.d_min}, expected 5"
        d = code_distance(logical_classes(spec.group()))
        mc = und.minimal_conditional_D(spec)
        if d != 3 or mc != 3:
            return False, f"d={d}, minimal conditional size={mc}, expected 3, 3"
        return True, (
            f"trace {{2,3,4}} distance {dist:.3f} with witness {witness}; "
            f"d_min=5; d=3 and a 3-subset is undetermined"
        )

    return _check(5, "Steane code: conditional vs unconditional", run)


def claim_6() -> ClaimResult:
    def run():
        spec = codes.catalog("code_422")
        m = und.mixed_pair_n2(spec)
        d = code_distance(logical_classes(spec.group()))
        if (m.d_mixed, d) != (3, 2):
            return False, f"d_mixed={m.d_mixed}, d={d}, expected 3, 2"
        listed = {"ZXYI", "IZXY", "XIZY", "XZIY"}
        group = spec.group()
        zz = spec.logical_z_ops()[0] * spec.logical_z_ops()[1]
        x12 = {p.letters for p in logical_x_set(group, zz)}
        if not listed <= x12:
            return False, f"missing from X12: {sorted(listed - x12)}"
        # the sweep shows reduced_equal_on agrees with the dense oracle on
        # every traced set, so the verdicts below are oracle-checked
        und.oracle_sweep(spec)
        for q in range(1, 5):
            traced = [p for p in range(1, 5) if p != q]
            if not und.reduced_equal_on(spec, traced)[0]:
                return False, f"1-qubit reductions differ keeping qubit {q}"
        unequal = [
            s
            for s in itertools.combinations(range(1, 5), 2)
            if not und.reduced_equal_on(spec, s)[0]
        ]
        if not unequal:
            return False, "no 2-subset trace distinguishes the mixtures"
        return True, f"d_mixed=3 vs d=2; four listed in X12; 2-subset witnesses {unequal}"

    return _check(6, "[[4,2,2]] mixed pair: D exceeds d", run)


def claim_7() -> ClaimResult:
    def run():
        spec = codes.catalog("steane_713")
        td = und.mixed_tracedown_check(spec, 2)
        if not td.verdict or td.d_double != 3:
            return False, f"verdict={td.verdict}, d_double={td.d_double}, dev={td.max_deviation:.2e}"
        return True, (
            f"traced {td.traced_subset}: all {td.subsets_checked} further 3-subsets equal "
            f"(max deviation {td.max_deviation:.2e})"
        )

    return _check(7, "traced-down mixed pair stays undetermined", run)


def _oracle_sweep_specs() -> list:
    specs = [codes.catalog("ghz", n=n) for n in range(2, 9)]
    specs += [codes.catalog("code_412"), codes.catalog("code_513"),
              codes.catalog("cyclic", n=7), codes.catalog("steane_713")]
    return specs


def claim_8() -> ClaimResult:
    def run():
        count = sum(und.oracle_sweep(spec) for spec in _oracle_sweep_specs())
        return True, f"{count} subset verdicts identical across symbolic and oracle"

    return _check(8, "symbolic/oracle equivalence sweep", run)


_QSS_SEED = 20260819


def claim_9() -> ClaimResult:
    def run():
        stats = qss_run(
            QssConfig(variant="modified", strategy="honest", rounds=10**9, seed=_QSS_SEED)
        )
        if abs(stats.keep_rate - 0.5) > 0.005:
            return False, f"keep_rate={stats.keep_rate}"
        if stats.honest_key_agreement != 1.0:
            return False, f"agreement={stats.honest_key_agreement}"
        if stats.check_error_rate != 0.0:
            return False, f"check errors={stats.check_error_rate}"
        return True, (
            f"keep_rate={stats.keep_rate:.4f}, agreement=1.0, check errors=0 "
            f"({stats.rounds} rounds)"
        )

    return _check(9, "secret sharing, honest modified run", run)


def claim_10() -> ClaimResult:
    def run():
        mod = qss_run(
            QssConfig(
                variant="modified", strategy="delay_discriminate", rounds=10**9, seed=_QSS_SEED
            )
        )
        if abs(mod.attacker_solo_accuracy - 0.5) > 0.01:
            return False, f"modified solo accuracy {mod.attacker_solo_accuracy}"
        if abs(mod.per_forged_round_detection - 0.5) > 0.01:
            return False, f"modified detection {mod.per_forged_round_detection}"
        orig = qss_run(
            QssConfig(
                variant="original", strategy="delay_discriminate", rounds=10**9, seed=_QSS_SEED
            )
        )
        if orig.attacker_solo_accuracy < 0.99:
            return False, f"original solo accuracy {orig.attacker_solo_accuracy}"
        return True, (
            f"modified: solo={mod.attacker_solo_accuracy:.4f}, "
            f"detection={mod.per_forged_round_detection:.4f}; "
            f"original: solo={orig.attacker_solo_accuracy:.4f}"
        )

    return _check(10, "secret sharing, intercept attack contrast", run)


def claim_11() -> ClaimResult:
    def run():
        result = bc_demo(1000, seed=_QSS_SEED)
        if result.max_reduced_deviation >= 1e-10:
            return False, f"receiver marginal deviation {result.max_reduced_deviation}"
        if result.sender_open_success[0] != 1.0 or result.sender_open_success[1] != 1.0:
            return False, f"open success {dict(result.sender_open_success)}"
        return True, (
            f"max marginal deviation {result.max_reduced_deviation:.2e}; "
            f"both bit values opened with rate 1.0"
        )

    return _check(11, "bit-commitment cheat demo", run)


def claim_12() -> ClaimResult:
    def run():
        # Pauli algebra vs dense matrices: exhaustive products for n <= 2
        for n in (1, 2):
            singles = ["".join(t) for t in itertools.product("IXYZ", repeat=n)]
            ops = [parse_pauli(s) for s in singles]
            for a in ops:
                for b in ops:
                    lhs = dense.pauli_matrix(a * b)
                    rhs = dense.pauli_matrix(a) @ dense.pauli_matrix(b)
                    if not np.allclose(lhs, rhs, atol=1e-12):
                        return False, f"dense product mismatch {a} * {b}"
        # monotonicity of undeterminedness over the catalog
        for spec in [codes.catalog("code_412"), codes.catalog("code_513"),
                     codes.catalog("ghz", n=4), codes.catalog("steane_713")]:
            for size in range(1, spec.n - 1):
                for subset in itertools.combinations(range(1, spec.n + 1), size):
                    eq, _ = und.reduced_equal_on(spec, subset)
                    if not eq:
                        continue
                    extra = next(q for q in range(1, spec.n + 1) if q not in subset)
                    eq2, _ = und.reduced_equal_on(spec, subset + (extra,))
                    if eq and not eq2:
                        return False, f"{spec.name}: monotonicity broken at {subset}"
        # d <= D and centralizer dimension on the catalog
        for spec in [codes.catalog("ghz", n=5), codes.catalog("code_412"),
                     codes.catalog("code_513"), codes.catalog("steane_713"),
                     codes.catalog("code_422"), codes.catalog("cyclic", n=9)]:
            group = spec.group()
            basis = group.centralizer_basis()
            if len(basis) != 2 * spec.n - group.rank:
                return False, f"{spec.name}: centralizer basis size {len(basis)}"
            if any(b.anticommutes(g) for b in basis for g in group.generators):
                return False, f"{spec.name}: centralizer member anticommutes"
            if spec.k == 1:
                d_min = und.unconditional_D(spec, cross_check=False).d_min
                if d_min is not None and code_distance(logical_classes(group)) > d_min:
                    return False, f"{spec.name}: d > D"
        # randomized associativity and sign behaviour at fixed seed
        rng = np.random.default_rng(_QSS_SEED)
        for _ in range(10_000):
            n = int(rng.integers(1, 7))
            trips = []
            for _ in range(3):
                x = int(rng.integers(0, 1 << n))
                z = int(rng.integers(0, 1 << n))
                ph = int(rng.integers(0, 4))
                trips.append(PauliOperator(n, x, z, ph))
            a, b, c = trips
            if (a * b) * c != a * (b * c):
                return False, f"associativity broken for {a}, {b}, {c}"
        return True, "dense products, monotonicity, d<=D, centralizer dims, associativity"

    return _check(12, "property suite spot run", run)


ALL_CLAIMS: tuple[Callable[[], ClaimResult], ...] = (
    claim_1, claim_2, claim_3, claim_4, claim_5, claim_6,
    claim_7, claim_8, claim_9, claim_10, claim_11, claim_12,
)


def run_all() -> list[ClaimResult]:
    return [fn() for fn in ALL_CLAIMS]
