"""Symbolic undeterminedness analysis against frozen, oracle-backed values."""

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qundet.undetermined as und
from qundet import dense
from qundet.codes import CodeSpec, CodeValidationError, catalog, validate
from qundet.stabilizer import CosetTable, code_distance, logical_classes
from qundet.undetermined import (
    analyze_code,
    conditional_scan,
    minimal_conditional_D,
    mixed_pair_n2,
    mixed_tracedown_check,
    necessary_ED,
    oracle_sweep,
    reduced_equal_on,
    unconditional_D,
    undetected_error_cover,
)

import helpers
from helpers import walk_distance


def test_reduced_equal_on_steane():
    spec = catalog("steane_713")
    equal, witness = reduced_equal_on(spec, (5, 6, 7))
    assert equal and witness is None
    equal, witness = reduced_equal_on(spec, (2, 3, 4))
    assert not equal
    assert str(witness) == "IIIIZZZ"
    # witness is supported inside the kept set and sits in the coset
    assert witness.support <= {1, 5, 6, 7}
    group = spec.group()
    shifted_back = witness * spec.logical_z_ops()[0]
    assert group.contains_unsigned(shifted_back.unsigned())


def test_reduced_equal_on_rejects_bad_subsets():
    spec = catalog("code_513")
    with pytest.raises(ValueError):
        reduced_equal_on(spec, ())
    with pytest.raises(ValueError):
        reduced_equal_on(spec, (1, 2, 3, 4, 5))
    with pytest.raises(ValueError):
        reduced_equal_on(spec, (0,))
    with pytest.raises(ValueError):
        reduced_equal_on(spec, (6,))


@pytest.mark.parametrize("name,d_min,w_min,witness", [
    ("code_412", 2, 3, "IXYZ"),
    ("code_513", 3, 3, "-IIYZY"),
    ("steane_713", 5, 3, "IIIIZZZ"),
])
def test_unconditional_catalog(name, d_min, w_min, witness):
    r = unconditional_D(catalog(name), cross_check=True)
    assert r.d_min == d_min
    assert r.w_min == w_min
    assert str(r.witness) == witness


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_unconditional_ghz(n):
    r = unconditional_D(catalog("ghz", n=n), cross_check=True)
    assert r.d_min == 1
    assert r.w_min == n


def test_unconditional_none_when_w_min_one():
    # stabilizer {ZZ} with logical ZI: the coset {ZI, IZ} has weight-1
    # members, so no feasible trace can equalize the codewords
    spec = CodeSpec("w1", 2, 1, ("ZZ",), ("ZI",))
    r = unconditional_D(spec, cross_check=True)
    assert r.d_min is None
    assert r.w_min == 1
    assert str(r.witness) == "IZ"


def test_cross_check_scans_only_when_asked(monkeypatch):
    # the default runs no subset scan; cross_check=True scans d_min and d_min - 1
    scanned = []
    real = und._scan_equal_all
    monkeypatch.setattr(und, "_scan_equal_all",
                        lambda spec, size: scanned.append(size) or real(spec, size))
    spec = catalog("cyclic", n=13)
    r = unconditional_D(spec)
    assert scanned == []
    assert unconditional_D(spec, cross_check=True) == r
    assert scanned == [r.d_min, r.d_min - 1]


@pytest.mark.parametrize("name,d_prime,n_undet,n_det", [
    ("code_513", 1, 0, 5),
    ("code_513", 2, 0, 10),
    ("code_513", 3, 10, 0),
    ("steane_713", 3, 7, 28),
    ("steane_713", 5, 21, 0),
])
def test_conditional_scan_counts(name, d_prime, n_undet, n_det):
    scan = conditional_scan(catalog(name), d_prime)
    assert len(scan.undetermined) == n_undet
    assert len(scan.determined) == n_det
    assert (not scan.determined) == (n_det == 0)
    assert bool(scan.undetermined) == (n_undet > 0)


def test_conditional_scan_ghz4():
    scan = conditional_scan(catalog("ghz", n=4), 1)
    assert scan.undetermined == ((1,), (2,), (3,), (4,))
    assert not scan.determined


def test_conditional_scan_witnesses_are_valid():
    spec = catalog("steane_713")
    group = spec.group()
    z_bar = spec.logical_z_ops()[0]
    scan = conditional_scan(spec, 3)
    for subset, witness in scan.determined:
        assert not (witness.support & set(subset))
        assert group.contains_unsigned((witness * z_bar).unsigned())


def test_conditional_scan_rejects_bad_size():
    with pytest.raises(ValueError):
        conditional_scan(catalog("code_513"), 0)
    with pytest.raises(ValueError):
        conditional_scan(catalog("code_513"), 5)


def test_steane_undetermined_triples_are_the_lines():
    scan = conditional_scan(catalog("steane_713"), 3)
    assert scan.undetermined == (
        (1, 2, 7), (1, 3, 6), (1, 4, 5), (2, 3, 5), (2, 4, 6), (3, 4, 7),
        (5, 6, 7),
    )


@pytest.mark.parametrize("name,expected", [
    ("code_412", 2),
    ("code_513", 3),
    ("steane_713", 3),
])
def test_minimal_conditional(name, expected):
    assert minimal_conditional_D(catalog(name)) == expected


def test_minimal_conditional_none():
    assert minimal_conditional_D(CodeSpec("w1", 2, 1, ("ZZ",), ("ZI",))) is None


def _least_logical_x_weight(spec):
    """The least weight over the logical classes that anticommute with the difference rep."""
    rep = und._difference_rep(spec)
    classes = logical_classes(spec.group())
    return min(table.min_weight()[0] for table in classes if table.element(0).anticommutes(rep))


def _catalog_specs():
    specs = [catalog(name) for name in ("code_412", "code_513", "steane_713", "code_422")]
    specs += [catalog("ghz", n=n) for n in range(2, 12)]
    for n in range(5, 14):
        try:
            specs.append(catalog("cyclic", n=n))
        except CodeValidationError:
            pass  # dependent generators at this n
    return specs


@pytest.mark.parametrize("spec", _catalog_specs(), ids=lambda spec: f"{spec.name}-{spec.n}")
def test_minimal_conditional_is_the_least_logical_x_weight(spec):
    # tracing T leaves the reductions equal iff some logical X member is
    # supported inside T (local duality), so the least such T has the
    # least weight; a weight of n is no feasible trace
    w = _least_logical_x_weight(spec)
    assert minimal_conditional_D(spec) == (w if w < spec.n else None)


@pytest.mark.parametrize("spec", _catalog_specs(), ids=lambda spec: f"{spec.name}-{spec.n}")
def test_shared_classes_match_fresh_tables(spec):
    # the spec's one table per class against a fresh table per class and
    # a walk over the whole centralizer; half the classes are logical X
    group = spec.group()
    classes = und._table_of(spec).classes
    flags = [is_x for _, is_x in classes]
    assert (len(flags), sum(flags)) == (4**spec.k - 1, 4**spec.k // 2)
    x_weights = sum(t.weight_counts() for t, is_x in classes if is_x)
    assert tuple(x_weights.tolist()) == helpers.logical_x_weights(group, und._difference_rep(spec))
    assert und.analyze_code(spec).distance == walk_distance(group)


def test_one_qubit_spec_has_no_traced_set():
    # 1..n-1 is empty at n = 1, so the oracle compares no subset
    spec = CodeSpec("one_qubit", 1, 1, (), ("Z",))
    assert analyze_code(spec, oracle=True).methods == ("symbolic", "oracle")
    assert oracle_sweep(spec) == 0


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_qubits_of_a_mask(data):
    n = data.draw(st.integers(1, 130))
    traced = data.draw(st.lists(st.integers(1, n), max_size=n))
    assert und._qubits(und._subset_mask(traced, n)) == tuple(sorted(set(traced)))


def test_scan_cyclic_verdict_matches_d_min():
    # below the rank cap the kept-set verdict agrees with the coset
    # formula on every valid n, the n = 6 failure included
    rows = [row for row in und.scan_cyclic(5, 21) if row["valid"]]
    assert [row["n"] for row in rows] == [5, 6, 7, 9, 11, 13, 14, 17, 19, 21]
    for row in rows:
        d_min = row["d_min"]
        assert row["n_minus_2_undetermined"] == (d_min is not None and d_min <= row["n"] - 2)
    assert [row["n"] for row in rows if not row["n_minus_2_undetermined"]] == [6]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_undetermined_monotone_upward(data):
    spec = catalog("code_513")
    base = data.draw(st.sets(st.integers(1, 5), min_size=1, max_size=3))
    extra = data.draw(st.sets(
        st.sampled_from(sorted(set(range(1, 6)) - base)),
        min_size=0, max_size=4 - len(base)))
    equal_base, _ = reduced_equal_on(spec, base)
    equal_super, _ = reduced_equal_on(spec, base | extra)
    if equal_base:
        assert equal_super


def test_undetected_error_cover_513():
    cover = undetected_error_cover(catalog("code_513"), 3)
    assert cover.full_cover
    assert cover.agrees_with_reduced
    assert len(cover.assignments) == 10
    spec = catalog("code_513")
    group = spec.group()
    z_bar = spec.logical_z_ops()[0]
    for subset, op in cover.assignments:
        assert tuple(sorted(op.support)) == subset
        # a genuine undetected error: commutes with every stabilizer,
        # anticommutes with the logical phase operator
        assert all(op.commutes(g) for g in group.generators)
        assert op.anticommutes(z_bar)


def test_undetected_error_cover_steane_partial():
    cover = undetected_error_cover(catalog("steane_713"), 3)
    assert not cover.full_cover
    assert len(cover.assignments) == 7
    assert len(cover.uncovered) == 28
    # partial cover coincides with partial undeterminedness
    assert cover.agrees_with_reduced
    scan = conditional_scan(catalog("steane_713"), 3)
    assert {s for s, _ in cover.assignments} == set(scan.undetermined)


def test_undetected_error_cover_412():
    cover = undetected_error_cover(catalog("code_412"), 2)
    assert cover.full_cover
    assert cover.agrees_with_reduced
    assert len(cover.assignments) == 6


def test_necessary_ED_values():
    assert necessary_ED(catalog("code_412"), 1) == (0, 4, False)
    assert necessary_ED(catalog("code_412"), 2) == (8, 6, True)
    assert necessary_ED(catalog("code_513"), 3) == (20, 10, True)
    assert necessary_ED(catalog("steane_713"), 3) == (14, 35, False)


def test_necessary_ED_rejects_bad_d():
    with pytest.raises(ValueError):
        necessary_ED(catalog("code_513"), 0)
    with pytest.raises(ValueError):
        necessary_ED(catalog("code_513"), 6)


def test_mixed_pair_422():
    r = mixed_pair_n2(catalog("code_422"))
    assert r.d_mixed == 3
    assert r.w_min == 2
    assert str(r.witness) == "IZIZ"
    assert r.x12_size == 32
    assert len(r.weight_d_members) == 16
    assert all(p.weight == 3 for p in r.weight_d_members)


def test_mixed_pair_rejects_k1():
    with pytest.raises(ValueError):
        mixed_pair_n2(catalog("code_513"))


def test_mixed_tracedown_513():
    r = mixed_tracedown_check(catalog("code_513"), 1)
    assert r.d_pure == 3 and r.d_prime == 1 and r.d_double == 2
    assert r.traced_subset == (1,)
    assert r.verdict
    assert r.subsets_checked == 6  # C(4, 2)
    assert r.max_deviation < 1e-9


def test_mixed_tracedown_custom_subset():
    r = mixed_tracedown_check(catalog("code_513"), 2, traced_subset=(2, 4))
    assert r.traced_subset == (2, 4)
    assert r.d_double == 1
    assert r.verdict


def test_mixed_tracedown_rejections():
    with pytest.raises(ValueError):
        mixed_tracedown_check(catalog("code_513"), 3)  # not below d_pure
    with pytest.raises(ValueError):
        mixed_tracedown_check(catalog("code_513"), -1)
    with pytest.raises(ValueError):
        mixed_tracedown_check(catalog("code_513"), 1, traced_subset=(1, 2))
    with pytest.raises(ValueError):
        mixed_tracedown_check(catalog("code_422"), 1)  # k=2
    with pytest.raises(ValueError):
        # no unconditional D at all
        mixed_tracedown_check(CodeSpec("w1", 2, 1, ("ZZ",), ("ZI",)), 0)


def test_analyze_code_513_full():
    report = analyze_code(catalog("code_513"), conditional=(1, 3),
                          max_trace=4, oracle=True)
    assert report.name == "code_513"
    assert (report.n, report.k, report.rank) == (5, 1, 4)
    assert report.distance == 3
    assert report.d_min == 3
    assert report.w_min == 3
    assert report.threshold_shares == 3
    assert report.x_set_size == 32
    assert [d for d, _ in report.e_d_table] == [1, 2, 3, 4]
    assert dict(report.e_d_table)[3].e_d == 20
    assert [c.d_prime for c in report.conditional] == [1, 3]
    assert report.mixed is None
    assert report.methods == ("symbolic", "oracle")
    doc = json.dumps(report.as_dict())
    back = json.loads(doc)
    assert back["minimal_unconditional_d"] == 3
    assert back["e_d_table"]["3"]["count"] == 20
    assert back["conditional"]["3"]["undetermined"]
    assert back["notes"]


def test_analyze_code_defaults():
    report = analyze_code(catalog("code_412"))
    assert [d for d, _ in report.e_d_table] == [2]
    assert report.conditional == ()
    assert report.methods == ("symbolic",)
    assert report.threshold_shares == 3


def test_analyze_code_k2():
    report = analyze_code(catalog("code_422"))
    assert report.k == 2
    assert report.mixed is not None
    assert report.mixed.d_mixed == 3
    assert report.distance == 2
    # the equal mixtures stay undetermined beyond the code distance
    assert report.mixed.d_mixed > report.distance
    as_json = report.as_dict()
    assert as_json["mixed"]["x12_size"] == 32


def test_one_cached_table_owns_a_specs_classes_and_histograms(monkeypatch):
    # a cold k = 2 analysis builds the difference table and 15 class
    # tables, the difference class's own dropped for the cached table; a
    # repeat reads every field from that one table and builds none
    built = []
    init = CosetTable.__init__

    def counted(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(CosetTable, "__init__", counted)
    spec = catalog("code_422")
    und._table_of.cache_clear()
    report = analyze_code(spec, max_trace=3, conditional=[2]).as_dict()
    assert len(built) == 16
    assert analyze_code(spec, max_trace=3, conditional=[2]).as_dict() == report
    assert len(built) == 16
    table = und._table_of(spec)
    assert sum(own is table for own, _ in table.classes) == 1
    counts = table.weight_counts()
    assert table.weight_counts() is counts
    with pytest.raises(ValueError):
        counts[0] = 1


@pytest.mark.parametrize("name,n", [
    ("ghz", 4), ("code_412", None), ("code_513", None), ("steane_713", None),
])
def test_distance_bounds_d_min(name, n):
    spec = catalog(name, n=n) if n else catalog(name)
    report = analyze_code(spec)
    assert report.distance <= report.d_min
    assert report.threshold_shares == spec.n - report.d_min + 1


def test_ghz_x_set_size_scaling():
    for n in (3, 4, 5, 6):
        report = analyze_code(catalog("ghz", n=n))
        assert report.x_set_size == 2 ** n


def test_oracle_sweep_catches_disagreement(monkeypatch):
    spec = catalog("code_412")
    real = CosetTable.walk
    walks = []

    def lying(*args, **kwargs):
        # flip the walk's verdict for the traced set (1, 2)
        verdicts = [
            (mask, (True if found is None else None) if mask == 0b11 else found)
            for mask, found in real(*args, **kwargs)
        ]
        walks.append(len(verdicts))
        return iter(verdicts)

    monkeypatch.setattr(CosetTable, "walk", lying)
    with pytest.raises(RuntimeError, match=r"disagreement on code_412 traced \(1, 2\)"):
        analyze_code(spec, oracle=True)
    # one walk decides every traced subset
    assert walks == [2 ** spec.n - 2]


@pytest.fixture
def frobenius_calls(monkeypatch):
    """The frobenius_distance calls made while the test runs."""
    calls = []
    real = dense.frobenius_distance

    def counted(a, b):
        calls.append(None)
        return real(a, b)

    monkeypatch.setattr(dense, "frobenius_distance", counted)
    return calls


@pytest.mark.parametrize("name,n", [("ghz", 8), ("code_422", None), ("code_513", None)])
def test_oracle_sweep_compares_each_subset_once(frobenius_calls, name, n):
    # the benchmark counts comparisons through the module global, and
    # checks for one per traced subset
    spec = catalog(name, n=n)
    assert oracle_sweep(spec) == len(frobenius_calls) == 2 ** spec.n - 2


@pytest.mark.parametrize("sizes,want", [((2,), 10), ((2, 3), 20), ((3, 2, 3), 20)])
def test_reduced_distances_compare_each_mask_once(frobenius_calls, sizes, want):
    # a subset and its complement share a cut, so each must still be
    # compared once, whether or not the other is requested; odd n has
    # no size that is its own complement's, and a repeated mask is
    # compared once
    spec = catalog("code_513")
    bits = [1 << q for q in range(spec.n)]
    masks = [sum(c) for size in sizes for c in itertools.combinations(bits, size)]
    distances = dense.reduced_distances(*dense.codeword_states(spec), masks)
    assert len(frobenius_calls) == want
    assert len(distances) == len(masks)


@settings(max_examples=60, deadline=None)
@given(helpers.random_codes(max_n=8))
def test_random_codes_agree_with_oracle(spec):
    assert validate(spec).ok
    assert oracle_sweep(spec) == 2 ** spec.n - 2
    # cross_check re-derives d_min by subset scans and raises on disagreement
    unconditional_D(spec, cross_check=True)
    w = _least_logical_x_weight(spec)
    assert minimal_conditional_D(spec) == (w if w < spec.n else None)
    group = spec.group()
    assert code_distance(logical_classes(group)) == walk_distance(group)
    # an equal trace stays equal when one more qubit is traced; one
    # walk decides every subset
    walk = und._table_of(spec).walk(range(1, spec.n), witnesses=False)
    equal = {mask: found is None for mask, found in walk}
    for mask, eq in equal.items():
        if eq and mask.bit_count() < spec.n - 1:
            for q in range(spec.n):
                if not mask >> q & 1:
                    assert equal[mask | 1 << q]
