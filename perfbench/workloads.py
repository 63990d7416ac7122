"""The three workloads: seeded inputs, one timed pass, independent checks.

A workload object is built once per process (its inputs are part of
set-up), then runs whole passes over the same inputs.  ``run_pass``
times only the calls into qundet; clearing caches and condensing
outputs happen between the timed calls.  ``check`` compares the first
pass with ``reference`` (which does not import qundet) and with the
paper's values; later passes must reproduce the first pass exactly.

Every call into qundet goes through a module attribute
(``und.analyze_code``), so the tracer's wrappers see it.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

import reference as ref
from spans import qundet_modules, replace_everywhere
from qundet import codes, dense, protocols
from qundet import undetermined as und
from qundet.codes import CodeSpec

# 3-sigma binomial radii fail a correct run about once in 370 tests; the
# qss-mc checks make seven such tests per run across many seeds, so they
# use 5 sigma, which still resolves a 0.5 % bias at 10^6 rounds
SIGMAS = 5.0


@dataclass
class PassResult:
    """One pass: items done, time, and a digest of every output.

    Only the first pass keeps its outputs for checking, so a longer run
    holds no more memory than a short one.
    """

    keep: bool
    items: int = 0
    failed: int = 0
    seconds: float = 0.0
    outputs: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    _hash: object = field(default_factory=hashlib.sha256)

    def add(self, output) -> None:
        self._hash.update(json.dumps(output, sort_keys=True, default=str).encode())
        if self.keep:
            self.outputs.append(output)

    def digest(self) -> str:
        return self._hash.hexdigest()


def clear_caches() -> None:
    """Drop every lru_cache in qundet, so no table outlives its item."""
    for module in qundet_modules():
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
    gc.collect()


def present(spec: CodeSpec, rng: np.random.Generator) -> CodeSpec:
    """A seeded presentation of the same code.

    Permutes the qubits, re-bases the generators by random products
    inside the group, and multiplies each Z-bar by a random stabilizer.
    w_min, D_min, the distance and the count of determined subsets are
    unchanged; which subsets are determined moves with the permutation.
    """
    n = spec.n
    perm = [int(v) for v in rng.permutation(n)]
    gens = [ref.permute(ref.parse(s), perm) for s in spec.stabilizers]
    mix = rng.integers(0, 2, size=(len(gens), len(gens)))
    for i, j in itertools.product(range(len(gens)), repeat=2):
        if i != j and mix[i, j]:
            gens[i] = ref.mul(gens[i], gens[j])
    logical = []
    for text in spec.logical_z:
        z = ref.permute(ref.parse(text), perm)
        for g, pick in zip(gens, rng.integers(0, 2, size=len(gens))):
            if pick:
                z = ref.mul(z, g)
        logical.append(z)
    out = CodeSpec(
        name=spec.name,
        n=n,
        k=spec.k,
        stabilizers=tuple(ref.fmt(g, n) for g in gens),
        logical_z=tuple(ref.fmt(z, n) for z in logical),
        provenance=f"seeded presentation of {spec.name}",
    )
    report = codes.validate(out)
    if not report.ok:
        raise codes.CodeValidationError(report)
    return out


def presentations(entries, rng) -> list[CodeSpec]:
    return [present(codes.catalog(name, n), rng) for name, n in entries]


def _renamed(spec: CodeSpec, pass_index: int) -> CodeSpec:
    # a fresh key per pass, so no spec-keyed cache can serve a later pass
    return replace(spec, name=f"{spec.name}#{pass_index}")


def _reference(spec: CodeSpec) -> ref.Coset:
    return ref.coset(spec.n, list(spec.stabilizers), ref.difference_rep(list(spec.logical_z)))


def _check_witness(where: str, coset: ref.Coset, traced: tuple[int, ...], got) -> list[str]:
    """Verdict and least witness against the reference, checked three ways."""
    n = coset.n
    equal, witness = got
    want_equal, want_witness = coset.verdict(ref.mask_of(traced, n))
    if equal != want_equal:
        return [f"{where}: traced {traced} verdict {equal}, reference {want_equal}"]
    if witness is None:
        return [] if want_equal else [f"{where}: traced {traced} returned no witness"]
    text = str(witness)
    errors = []
    x, z, _ = ref.parse(text)
    key = ref.letter_key(x, z, n)
    at = int(np.searchsorted(coset.keys, key))
    if at == len(coset.keys) or int(coset.keys[at]) != key or coset.string(at) != text:
        errors.append(f"{where}: witness {text} is not in Z-bar*S")
    if (x | z) & ref.mask_of(traced, n):
        errors.append(f"{where}: witness {text} acts on traced qubits {traced}")
    if text != want_witness:
        errors.append(f"{where}: witness {text} is not the least; reference {want_witness}")
    return errors


class CapThreshold:
    """One cold verdict per code at the enumeration cap."""

    name = "cap-threshold"
    CODES = (("ghz", 17), ("ghz", 18), ("ghz", 19), ("cyclic", 17), ("cyclic", 19))

    def __init__(self, seed: int, entries=CODES):
        rng = np.random.default_rng([seed, 1])
        self.specs = presentations(entries, rng)
        # one traced qubit: GHZ (D_min = 1) is undetermined, and a cyclic
        # code is determined with a witness, since the shifts of a weight-7
        # coset element avoid every qubit; neither verdict depends on the seed
        self.traced = [(int(rng.integers(s.n)) + 1,) for s in self.specs]

    def run_pass(self, index: int) -> PassResult:
        res = PassResult(keep=index == 0)
        for spec, traced in zip(self.specs, self.traced):
            clear_caches()
            spec = _renamed(spec, index)
            t0 = time.perf_counter()
            try:
                verdict = und.unconditional_D(spec, cross_check=False)
                query = und.reduced_equal_on(spec, traced)
            except Exception as exc:  # a failed item is counted, not fatal
                res.seconds += time.perf_counter() - t0
                res.failed += 1
                res.errors.append(f"{spec.name}: {exc!r}")
                res.add(None)
                continue
            res.seconds += time.perf_counter() - t0
            res.items += 1
            res.add(
                [verdict.d_min, verdict.w_min, str(verdict.witness), query[0],
                 None if query[1] is None else str(query[1])]
            )
        clear_caches()
        return res

    def check(self, first: PassResult) -> list[str]:
        errors = []
        for spec, traced, out in zip(self.specs, self.traced, first.outputs):
            if out is None:
                continue
            coset = _reference(spec)
            d_min, w_min, witness, equal, query_witness = out
            if (d_min, w_min, witness) != (coset.d_min, coset.w_min, coset.min_weight_witness()):
                errors.append(
                    f"{spec.name}: unconditional ({d_min}, {w_min}, {witness}), reference "
                    f"({coset.d_min}, {coset.w_min}, {coset.min_weight_witness()})"
                )
            errors += _check_witness(spec.name, coset, traced, (equal, query_witness))
        return errors


def _check_report(spec: CodeSpec, doc: dict) -> list[str]:
    """Every symbolic field of an analyze_code report against the reference."""
    n, where = spec.n, spec.name
    rep = ref.difference_rep(list(spec.logical_z))
    coset = ref.coset(n, list(spec.stabilizers), rep)
    norm = ref.normalizer(n, list(spec.stabilizers), rep)
    errors = []

    def expect(field_name, got, want):
        if got != want:
            errors.append(f"{where}: {field_name} {got!r}, reference {want!r}")

    expect("w_min", doc["w_min"], coset.w_min)
    expect("D_min", doc["minimal_unconditional_d"], coset.d_min)
    expect("distance", doc["distance"], norm.distance)
    expect("x_set_size", doc["x_set_size"], norm.x_count())
    expect("e_d_table rows", sorted(doc["e_d_table"]),
           sorted(str(d) for d in ([coset.d_min] if coset.d_min else [])))
    for d, row in doc["e_d_table"].items():
        want = {"count": norm.x_count(int(d)), "binomial": math.comb(n, int(d))}
        want["pass"] = want["count"] >= want["binomial"]
        expect(f"e_d_table[{d}]", row, want)
    if spec.k == 2:
        mixed = doc["mixed"]
        expect("mixed.d_mixed", mixed["d_mixed"], coset.d_min)
        expect("mixed.w_min", mixed["w_min"], coset.w_min)
        expect("mixed.witness", mixed["witness"], coset.min_weight_witness())
        expect("mixed.x12_size", mixed["x12_size"], norm.x_count())
        expect("mixed.weight_d_members", set(mixed["weight_d_members"]),
               norm.x_letters(coset.d_min) if coset.d_min else set())
    return errors


# (name, n) -> paper values the oracle-checked report must carry
_PAPER = {
    ("code_412", None): {"minimal_unconditional_d": 2},
    ("code_513", None): {"distance": 3, "minimal_unconditional_d": 3},
    ("steane_713", None): {"distance": 3, "minimal_unconditional_d": 5},
    ("code_422", None): {"distance": 2, "mixed.d_mixed": 3},
}


class OracleSweep:
    """Every traced subset cross-checked against dense partial traces."""

    name = "oracle-sweep"
    CODES = (
        ("code_412", None), ("code_513", None), ("code_422", None), ("steane_713", None),
        ("cyclic", 7), ("cyclic", 9), ("ghz", 8), ("ghz", 9), ("ghz", 10),
    )

    def __init__(self, seed: int, entries=CODES):
        self.entries = entries
        self.specs = presentations(entries, np.random.default_rng([seed, 3]))
        self.comparisons = 0
        compare = dense.frobenius_distance

        def counted(a, b):
            self.comparisons += 1
            return compare(a, b)

        # the sweep compares each traced subset exactly once
        replace_everywhere(compare, counted)

    def run_pass(self, index: int) -> PassResult:
        res = PassResult(keep=index == 0)
        clear_caches()
        for spec in self.specs:
            spec = _renamed(spec, index)
            self.comparisons = 0
            t0 = time.perf_counter()
            try:
                report = und.analyze_code(spec, oracle=True)
            except Exception as exc:
                res.seconds += time.perf_counter() - t0
                res.failed += (1 << spec.n) - 2
                res.errors.append(f"{spec.name}: {exc!r}")
                res.add(None)
                continue
            res.seconds += time.perf_counter() - t0
            res.items += self.comparisons
            doc = report.as_dict()
            doc.pop("name")
            doc["oracle_checked"] = self.comparisons
            res.add(doc)
        clear_caches()
        return res

    def check(self, first: PassResult) -> list[str]:
        errors = []
        for (name, n), spec, doc in zip(self.entries, self.specs, first.outputs):
            if doc is None:
                continue
            where = spec.name
            if doc["oracle_checked"] != (1 << spec.n) - 2:
                errors.append(f"{where}: {doc['oracle_checked']} oracle-checked subsets, "
                              f"expected {(1 << spec.n) - 2}")
            if "oracle" not in doc["methods"]:
                errors.append(f"{where}: report methods {doc['methods']} lack the oracle")
            want = dict(_PAPER.get((name, n), {}))
            d = doc["minimal_unconditional_d"]
            if name == "ghz":
                want["minimal_unconditional_d"] = 1
            if name == "cyclic" and (d is None or d > spec.n - 2):
                errors.append(f"{where}: D_min {d} is not at most n - 2 = {spec.n - 2}")
            for key, value in want.items():
                got = doc["mixed"]["d_mixed"] if key == "mixed.d_mixed" else doc[key]
                if got != value:
                    errors.append(f"{where}: {key} {got}, paper {value}")
            errors += _check_report(spec, doc)
        return errors


class QssMc:
    """Seeded secret-sharing Monte Carlo: four 3-party runs, one at 6."""

    name = "qss-mc"
    RUNS = (
        ("original", "honest", 3), ("original", "delay_discriminate", 3),
        ("modified", "honest", 3), ("modified", "delay_discriminate", 3),
        ("modified", "honest", 6),
    )
    ROUNDS = 1_000_000

    def __init__(self, seed: int, entries=RUNS):
        seeds = np.random.default_rng([seed, 4]).integers(0, 2**31, size=len(entries))
        self.configs = [
            protocols.QssConfig(variant=v, strategy=s, parties=p, rounds=self.ROUNDS, seed=int(k))
            for (v, s, p), k in zip(entries, seeds)
        ]

    def run_pass(self, index: int) -> PassResult:
        res = PassResult(keep=index == 0)
        for config in self.configs:
            t0 = time.perf_counter()
            try:
                stats = protocols.qss_run(config)
            except Exception as exc:
                res.seconds += time.perf_counter() - t0
                res.failed += config.rounds
                res.errors.append(f"{config}: {exc!r}")
                res.add(None)
                continue
            res.seconds += time.perf_counter() - t0
            res.items += stats.rounds
            res.add(stats.as_dict())
        gc.collect()
        return res

    def check(self, first: PassResult) -> list[str]:
        errors = []
        for config, st in zip(self.configs, first.outputs):
            if st is None:
                continue
            where = f"{config.variant}/{config.strategy}/{config.parties}"

            def near_half(field_name: str, count: int) -> None:
                radius = SIGMAS * 0.5 / count**0.5
                if abs(st[field_name] - 0.5) > radius:
                    errors.append(f"{where}: {field_name} {st[field_name]} is not 1/2 "
                                  f"within {radius:.2g}")

            near_half("keep_rate", st["rounds"])
            if config.strategy == "honest":
                if st["honest_key_agreement"] != 1.0 or st["check_error_rate"] != 0.0:
                    errors.append(f"{where}: honest agreement {st['honest_key_agreement']}, "
                                  f"check errors {st['check_error_rate']}")
            elif config.variant == "modified":
                near_half("attacker_solo_accuracy", st["kept"])
                near_half("per_forged_round_detection", st["checked"])
            elif st["attacker_solo_accuracy"] < 0.99:
                errors.append(f"{where}: solo accuracy {st['attacker_solo_accuracy']} < 0.99")
        return errors


WORKLOADS = {w.name: w for w in (CapThreshold, OracleSweep, QssMc)}
