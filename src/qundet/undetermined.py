"""Decide when codeword pairs are undetermined by reduced density matrices.

The symbolic decision rule: for a k=1 code with logical phase operator
Z-bar, the difference of the two codeword projectors expands as

    rho_0 - rho_1 = 2^(1-n) * sum over the coset Z-bar * S.

A Pauli survives a partial trace iff it acts as identity on every
traced qubit, and the surviving restrictions are linearly independent,
so the reduced matrices are equal iff NO coset element has its support
entirely inside the kept set.  Consequences used throughout:

  * equality after tracing any D qubits  <=>  every coset element has
    weight >= n - D + 1, i.e. D >= n - w_min + 1;
  * undeterminedness is monotone upward in D;
  * the k=2 equal mixtures obey the same rule with the coset
    (Z-bar_1 Z-bar_2) * S.

Each spec's difference coset has one ``stabilizer.CosetTable``
(``_table_of``), which holds the spec's group and Z-bar, parsed and
reduced once.  It finds w_min from entry 0 when it meets the table's
exact lower bound, and otherwise by one blockwise scan that stops at
the first row of the bound's weight.  It is the one per-spec cache and
owns the spec's logical class tables (``classes``, itself for its own):
their minimum weights give the distance, their memoized histograms E_D
and their entries the weight-D listings.
Kept-set queries need no enumeration: some coset element avoids the
traced set T iff Z-bar restricted to T lies in the span of the
generators restricted to T.  The same table's
``walk`` decides every traced set of a scan, a sweep or a single
query, with its witness, in lexicographic order.
Everything here is exact integer/bit work; the dense module provides
the independent floating-point verification.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Sequence, TypeVar

from qundet import codes, dense
from qundet.codes import CodeSpec
from qundet.pauli import PauliOperator
from qundet.stabilizer import (
    CosetTable,
    EnumerationCapError,
    class_members,
    code_distance,
    logical_x_count,
)

T = TypeVar("T")

X_SET_COUNTING_NOTE = (
    "logical X sets and E_D counts are over distinct unsigned Paulis "
    "(phase stripped), not over cosets modulo the stabilizer group"
)


def _difference_rep(spec: CodeSpec) -> PauliOperator:
    """Z-bar for k=1; Z-bar_1 * Z-bar_2 for the k=2 equal mixtures."""
    z_bars = spec.logical_z_ops()
    if spec.k == 1:
        return z_bars[0]
    if spec.k == 2:
        return z_bars[0] * z_bars[1]
    raise ValueError(f"unsupported k={spec.k}")


# a table holds the spec's group, its rows' generator combos, two factors
# once a scan or listing needs them (2^12 + 2^8 rows of x and z words at
# the rank cap, 34 KB in the uint32 words of n <= 32, 68 KB past it), its
# minimum weight and histogram once read, and its class tables once the
# distance, E_D or a listing asks (15 at k = 2, each as large as itself);
# the coset itself is scanned in blocks and never held
@lru_cache(maxsize=4)
def _table_of(spec: CodeSpec) -> CosetTable:
    return CosetTable(spec.group(), _difference_rep(spec))


def _subset_mask(subset: Sequence[int], n: int) -> int:
    """The traced mask of 1-based qubits: bit q-1 is qubit q."""
    if bad := [q for q in subset if not 1 <= q <= n]:
        raise ValueError(f"qubit {bad[0]} outside 1..{n}")
    return sum(1 << (q - 1) for q in set(subset))


def _qubits(mask: int) -> tuple[int, ...]:
    """The 1-based qubits of a traced mask, ascending, one step per set bit."""
    qubits = []
    while mask:
        qubits.append((mask & -mask).bit_length())
        mask &= mask - 1
    return tuple(qubits)


def reduced_equal_on(
    spec: CodeSpec, traced_out: Iterable[int]
) -> tuple[bool, PauliOperator | None]:
    """Are the codeword reductions equal after tracing out these qubits?

    Returns (equal, witness); the witness is a difference-coset element
    supported inside the kept set when the reductions differ (the
    lexicographically least such element), else None.  Handles k=1
    codeword pairs and the k=2 equal mixtures uniformly.
    """
    traced = sorted(set(traced_out))
    if not 1 <= len(traced) <= spec.n - 1:
        raise ValueError(f"traced set must have 1..{spec.n - 1} qubits, got {traced}")
    # the walk inside the traced set visits one chain, down to the set itself
    sizes = range(len(traced), len(traced) + 1)
    [(_, witness)] = _table_of(spec).walk(sizes, _subset_mask(traced, spec.n))
    return witness is None, witness


class UnconditionalResult(NamedTuple):
    d_min: int | None
    w_min: int
    witness: PauliOperator


def unconditional_D(spec: CodeSpec, cross_check: bool = False) -> UnconditionalResult:
    """Smallest D with equality after tracing ANY D qubits, via w_min.

    d_min = n - w_min + 1, undefined (None) when w_min <= 1 because no
    feasible trace (at most n - 1 qubits) reaches equality.  With
    cross_check the formula is re-derived by scanning all subsets at
    d_min and d_min - 1.
    """
    w_min, witness = _table_of(spec).min_weight()
    d_min = spec.n - w_min + 1 if w_min > 1 else None
    if cross_check:
        _assert_scan_agreement(spec, d_min)
    return UnconditionalResult(d_min, w_min, witness)


def _assert_scan_agreement(spec: CodeSpec, d_min: int | None) -> None:
    if d_min is None:
        # even the largest feasible trace must leave some subset determined
        if _scan_equal_all(spec, spec.n - 1):
            raise RuntimeError("coset formula and subset scan disagree (d_min=None)")
        return
    if not _scan_equal_all(spec, d_min):
        raise RuntimeError(f"subset scan found a determined {d_min}-subset")
    if d_min > 1 and _scan_equal_all(spec, d_min - 1):
        raise RuntimeError(f"all {d_min - 1}-subsets equal; d_min not minimal")


def _scan_equal_all(spec: CodeSpec, size: int) -> bool:
    """Are the reductions equal after tracing out every subset of this size?"""
    return all(f is None for _, f in _table_of(spec).walk(range(size, size + 1), witnesses=False))


@dataclass(frozen=True)
class ConditionalScan:
    """Partition of all size-d_prime traced-out subsets."""

    d_prime: int
    undetermined: tuple[tuple[int, ...], ...]
    determined: tuple[tuple[tuple[int, ...], PauliOperator], ...]

    def as_dict(self) -> dict:
        return {
            "d_prime": self.d_prime,
            "undetermined": [list(s) for s in self.undetermined],
            "determined": [
                {"subset": list(s), "witness": str(w)} for s, w in self.determined
            ],
        }


def conditional_scan(spec: CodeSpec, d_prime: int) -> ConditionalScan:
    """Label every size-d_prime subset undetermined or determined.

    Determined subsets carry their distinguishing witness.  Subsets
    iterate lexicographically, so output order is reproducible.
    """
    if not 1 <= d_prime <= spec.n - 1:
        raise ValueError(f"d_prime must be in 1..{spec.n - 1}")
    undet: list[tuple[int, ...]] = []
    det: list[tuple[tuple[int, ...], PauliOperator]] = []
    for mask, witness in _table_of(spec).walk(range(d_prime, d_prime + 1)):
        if witness is None:
            undet.append(_qubits(mask))
        else:
            det.append((_qubits(mask), witness))
    return ConditionalScan(d_prime, tuple(undet), tuple(det))


def minimal_conditional_D(spec: CodeSpec) -> int | None:
    """Smallest subset size with at least one undetermined traced set."""
    for size in range(1, spec.n):
        if any(f is None for _, f in _table_of(spec).walk(range(size, size + 1), witnesses=False)):
            return size
    return None


@dataclass(frozen=True)
class CoverResult:
    """Support-exact undetected-error assignment for all size-D subsets."""

    d: int
    assignments: tuple[tuple[tuple[int, ...], PauliOperator], ...]
    uncovered: tuple[tuple[int, ...], ...]
    agrees_with_reduced: bool

    @property
    def full_cover(self) -> bool:
        return not self.uncovered


def undetected_error_cover(spec: CodeSpec, d: int) -> CoverResult:
    """Find, per size-d subset, a logical X member supported exactly there.

    Full coverage is the structural counterpart of d-undeterminedness:
    every forgettable subset needs its own undetected error.
    ``agrees_with_reduced`` records whether full coverage coincides
    with every size-d trace being undetermined (measured, not assumed).
    """
    if not 1 <= d <= spec.n - 1:
        raise ValueError(f"d must be in 1..{spec.n - 1}")
    by_support: dict[tuple[int, ...], PauliOperator] = {}
    for p in class_members((t for t, is_x in _table_of(spec).classes if is_x), d):
        by_support.setdefault(tuple(sorted(p.support)), p)
    assignments = []
    uncovered = []
    for subset in itertools.combinations(range(1, spec.n + 1), d):
        if subset in by_support:
            assignments.append((subset, by_support[subset]))
        else:
            uncovered.append(subset)
    all_undet = _scan_equal_all(spec, d)
    full = not uncovered
    return CoverResult(d, tuple(assignments), tuple(uncovered), full == all_undet)


class EDResult(NamedTuple):
    e_d: int
    binomial: int
    passed: bool


def necessary_ED(spec: CodeSpec, d: int) -> EDResult:
    """Count weight-d logical X members against the binomial threshold.

    E_D >= C(n, D) is necessary for unconditional D-undeterminedness:
    each of the C(n, D) supports needs its own undetected error.
    """
    if not 1 <= d <= spec.n:
        raise ValueError(f"d must be in 1..{spec.n}")
    e_d = sum(int(t.weight_counts()[d]) for t, is_x in _table_of(spec).classes if is_x)
    binomial = math.comb(spec.n, d)
    return EDResult(e_d, binomial, e_d >= binomial)


@dataclass(frozen=True)
class TracedownResult:
    """Oracle verdict for undeterminedness surviving a partial trace-down."""

    d_pure: int
    d_prime: int
    d_double: int
    traced_subset: tuple[int, ...]
    verdict: bool
    subsets_checked: int
    max_deviation: float


def mixed_tracedown_check(
    spec: CodeSpec,
    d_prime: int,
    traced_subset: Sequence[int] | None = None,
) -> TracedownResult:
    """Trace d_prime qubits off both codewords, then test D'' = D - d_prime.

    Dense-oracle computation: builds both codeword vectors, traces out
    ``traced_subset`` (default the first d_prime qubits), and checks that
    every further (D - d_prime)-qubit trace of the two mixed states
    leaves equal matrices.  The remaining qubits renumber to 1..n-d_prime
    in ascending original order.
    """
    if spec.k != 1:
        raise ValueError("mixed_tracedown_check needs a k=1 code")
    d_pure = unconditional_D(spec, cross_check=False).d_min
    if d_pure is None:
        raise ValueError("codeword pair has no unconditional D")
    if not 0 <= d_prime < d_pure:
        raise ValueError(f"d_prime must be in 0..{d_pure - 1}")
    if traced_subset is None:
        traced_subset = tuple(range(1, d_prime + 1))
    else:
        traced_subset = tuple(sorted(set(traced_subset)))
        if len(traced_subset) != d_prime:
            raise ValueError("traced_subset size must equal d_prime")
    d_double = d_pure - d_prime
    first = _subset_mask(traced_subset, spec.n)
    rest = [1 << (q - 1) for q in range(1, spec.n + 1) if q not in traced_subset]
    masks = [first + sum(further) for further in itertools.combinations(rest, d_double)]
    worst = max(dense.reduced_distances(*dense.codeword_states(spec), masks))
    return TracedownResult(
        d_pure, d_prime, d_double, traced_subset, worst == 0, len(masks), worst
    )


@dataclass(frozen=True)
class MixedPairResult:
    """Symbolic analysis of the k=2 equal-mixture pair."""

    d_mixed: int | None
    w_min: int
    witness: PauliOperator
    x12_size: int
    weight_d_members: tuple[PauliOperator, ...]

    def as_dict(self) -> dict:
        return {
            "d_mixed": self.d_mixed,
            "w_min": self.w_min,
            "witness": str(self.witness),
            "x12_size": self.x12_size,
            "weight_d_members": [str(p) for p in self.weight_d_members],
        }


def mixed_pair_n2(spec: CodeSpec) -> MixedPairResult:
    """D for the two k=2 equal mixtures, plus the X12 anticommutant.

    X12 is the symmetric difference of the two logical X sets, which
    equals the set of unsigned centralizer members anticommuting with
    Z-bar_1 Z-bar_2 (anticommuting with the product means anticommuting
    with exactly one factor).  The size is closed-form; the weight-D
    members come from the logical-class tables that anticommute with
    Z-bar_1 Z-bar_2 (empty, with no enumeration, when D does not exist).
    """
    if spec.k != 2:
        raise ValueError("mixed_pair_n2 needs a k=2 code")
    d_mixed, w_min, witness = unconditional_D(spec, cross_check=False)
    x_tables = (t for t, is_x in _table_of(spec).classes if is_x)
    weight_d = () if d_mixed is None else tuple(class_members(x_tables, d_mixed))
    return MixedPairResult(d_mixed, w_min, witness, logical_x_count(_table_of(spec).group), weight_d)


@dataclass(frozen=True)
class UndeterminedReport:
    """Full symbolic analysis of one code, JSON-ready via as_dict()."""

    name: str
    n: int
    k: int
    rank: int
    distance: int | None
    w_min: int | None
    d_min: int | None
    threshold_shares: int | None
    x_set_size: int
    e_d_table: tuple[tuple[int, EDResult], ...]
    conditional: tuple[ConditionalScan, ...]
    mixed: MixedPairResult | None
    methods: tuple[str, ...]
    notes: tuple[str, ...] = field(default=(X_SET_COUNTING_NOTE,))

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "n": self.n,
            "k": self.k,
            "rank": self.rank,
            "distance": self.distance,
            "w_min": self.w_min,
            "minimal_unconditional_d": self.d_min,
            "threshold_shares": self.threshold_shares,
            "x_set_size": self.x_set_size,
            "e_d_table": {
                str(d): {"count": r.e_d, "binomial": r.binomial, "pass": r.passed}
                for d, r in self.e_d_table
            },
            "conditional": {str(c.d_prime): c.as_dict() for c in self.conditional},
            "mixed": self.mixed.as_dict() if self.mixed else None,
            "methods": list(self.methods),
            "notes": list(self.notes),
        }


def _unless_capped(notes: list[str], name: str, compute: Callable[[], T]) -> T | None:
    """compute(), or None with the reason in notes when it passes an enumeration cap."""
    try:
        return compute()
    except EnumerationCapError as exc:
        notes.append(f"{name} not computed: {exc}")
        return None


def analyze_code(
    spec: CodeSpec,
    conditional: Sequence[int] = (),
    max_trace: int | None = None,
    oracle: bool = False,
) -> UndeterminedReport:
    """Run the full symbolic analysis, optionally oracle cross-checked.

    ``max_trace`` bounds the E_D table (default: just D = d_min when it
    exists); ``conditional`` lists the subset sizes to partition.  With
    ``oracle`` the symbolic verdict for every feasible subset is checked
    against dense reduced states; any disagreement raises.  w_min, the
    distance, the E_D table and the mixed pair read shared tables.  Where
    one needs a scan or blocks past the rank cap (``MAX_ENUM_RANK``) or
    the row cap (``MAX_ROW_N`` qubits), that field is None (the E_D
    table empty) with a reason in ``notes``; where the exact bound
    settles a table, as on GHZ, the field computes at any size.  The
    conditional scans compute at any n, and a D' outside 1..n-1 raises.
    """
    if max_trace is not None and max_trace < 1:
        raise ValueError(f"max_trace must be at least 1, got {max_trace}")
    group = _table_of(spec).group
    notes = [X_SET_COUNTING_NOTE]
    unconditional = _unless_capped(
        notes, "w_min and minimal_unconditional_d", lambda: unconditional_D(spec)
    )
    d_min, w_min = (None, None) if unconditional is None else unconditional[:2]
    distance = _unless_capped(notes, "distance", lambda: code_distance(t for t, _ in _table_of(spec).classes))
    ed_ds = [d_min] if d_min is not None else []
    if max_trace is not None:
        ed_ds = list(range(1, min(max_trace, spec.n - 1) + 1))
    e_d_table = _unless_capped(
        notes, "e_d_table", lambda: tuple((d, necessary_ED(spec, d)) for d in ed_ds)
    )
    scans = tuple(conditional_scan(spec, dp) for dp in sorted(set(conditional)))
    mixed = _unless_capped(notes, "mixed", lambda: mixed_pair_n2(spec)) if spec.k == 2 else None
    methods = ["symbolic"]
    if oracle:
        oracle_sweep(spec)
        methods.append("oracle")
    return UndeterminedReport(
        name=spec.name,
        n=spec.n,
        k=spec.k,
        rank=group.rank,
        distance=distance,
        w_min=w_min,
        d_min=d_min,
        # n - D_min + 1 is w_min itself whenever D_min exists
        threshold_shares=w_min if d_min is not None else None,
        x_set_size=logical_x_count(group),
        e_d_table=e_d_table or (),
        conditional=scans,
        mixed=mixed,
        methods=tuple(methods),
        notes=tuple(notes),
    )


def oracle_sweep(spec: CodeSpec) -> int:
    """Dense cross-check of the symbolic verdicts; returns the subsets compared.

    Builds the codeword state vectors once (two per codeword for the
    k=2 equal mixtures) and compares the symbolic verdicts of every
    traced mask of 1..n-1 qubits, from one kept-set walk (the rule
    behind ``reduced_equal_on``), with the dense distances of one
    ``reduced_distances`` call, exactly 0 for equal ones.  A
    disagreement raises RuntimeError naming the first disagreeing set's
    qubits in the walk's lexicographic order.
    """
    states0, states1 = dense.codeword_states(spec)
    verdicts = list(_table_of(spec).walk(range(1, spec.n), witnesses=False))
    devs = dense.reduced_distances(states0, states1, [mask for mask, _ in verdicts])
    for (mask, found), dev in zip(verdicts, devs):
        if (found is None) != (dev == 0):
            raise RuntimeError(
                f"symbolic/oracle disagreement on {spec.name} traced {_qubits(mask)}: "
                f"symbolic={found is None}, dense deviation={dev:.3e}"
            )
    return len(verdicts)


def scan_cyclic(lo: int, hi: int) -> list[dict]:
    """Validity and (n-2)-undeterminedness of the cyclic code, per n in lo..hi.

    A valid n gives its rank, w_min, d_min and whether every (n-2)-qubit
    trace leaves the reductions equal; an invalid n gives the validation
    failures.  The verdict comes from the kept-set walk over all
    C(n, 2) traced sets, so it computes at any n.  Past the rank cap
    (``MAX_ENUM_RANK``) the difference coset's floor is 0, so w_min needs
    a scan: w_min and d_min are None, and ``note`` gives the reason.
    """
    if lo < 5 or hi < lo:
        raise ValueError("need 5 <= from <= to")
    rows: list[dict] = []
    for n in range(lo, hi + 1):
        try:
            spec = codes.catalog("cyclic", n=n)
        except codes.CodeValidationError as exc:
            rows.append({"n": n, "valid": False, "failures": list(exc.report.failures)})
            continue
        notes: list[str] = []
        r = _unless_capped(notes, "w_min and d_min", lambda: unconditional_D(spec))
        w_min, d_min = (None, None) if r is None else (r.w_min, r.d_min)
        row = {"n": n, "valid": True, "rank": spec.n - 1, "w_min": w_min, "d_min": d_min,
               "n_minus_2_undetermined": _scan_equal_all(spec, n - 2)}
        if notes:
            row["note"] = notes[0]
        rows.append(row)
    return rows
