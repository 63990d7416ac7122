"""The coset table and the kept-set walk against a brute-force loop.

The loop over helpers.signed_coset is the per-element algorithm both
replaced, kept here as the reference: every verdict, witness (sign
included) and minimum weight must match it on random presentations of
the small catalog codes.  Codes of rank 16 and more, whose tables span
several blocks, are checked against a whole-coset numpy doubling.
"""

import dataclasses
import itertools
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from qundet import codes, pauli, stabilizer
from qundet import undetermined as und
from qundet.codes import CodeSpec
from qundet.pauli import PauliOperator, parse_pauli
from qundet.stabilizer import (
    MAX_ENUM_RANK,
    MAX_ROW_N,
    CosetTable,
    EnumerationCapError,
    StabilizerGroup,
    coset_min_weight,
    logical_classes,
)

SMALL = [
    ("code_412", None), ("code_513", None), ("steane_713", None), ("code_422", None),
    ("ghz", 2), ("ghz", 5), ("ghz", 9), ("cyclic", 6), ("cyclic", 7), ("cyclic", 9),
]


def _copied_blocks(table):
    """Offsets, x and z of every block, copied before ``_formed`` reuses its buffers."""
    return zip(*((offset, x.copy(), z.copy()) for offset, x, z in table._formed()))


def _permuted(p, perm):
    """The letter on qubit perm[j] + 1 moves to qubit j + 1, sign kept."""
    text = str(p)
    prefix = text[: len(text) - p.n]
    return parse_pauli(prefix + "".join(p.letters[src] for src in perm))


@st.composite
def presentations(draw):
    """A catalog code under a qubit permutation and generator re-basing."""
    name, n = draw(st.sampled_from(SMALL))
    spec = codes.catalog(name, n=n)
    perm = draw(st.permutations(range(spec.n)))
    gens = [_permuted(g, perm) for g in spec.stabilizer_ops()]
    last = len(gens) - 1
    for i, j in draw(st.lists(st.tuples(st.integers(0, last), st.integers(0, last)), max_size=12)):
        if i != j:
            gens[i] = gens[i] * gens[j]
    z_bars = []
    for z in spec.logical_z_ops():
        z = _permuted(z, perm)
        for g in gens:
            if draw(st.booleans()):
                z = z * g
        z_bars.append(z)
    return CodeSpec(
        f"{spec.name} presented", spec.n, spec.k,
        tuple(str(g) for g in gens), tuple(str(z) for z in z_bars),
    )


def _difference_rep(spec):
    z_bars = spec.logical_z_ops()
    return z_bars[0] if spec.k == 1 else z_bars[0] * z_bars[1]


@settings(max_examples=60, deadline=None)
@given(presentations())
def test_table_matches_brute_force(spec):
    group = spec.group()
    rep = _difference_rep(spec)
    coset = helpers.signed_coset(group, rep)

    best = min(coset, key=lambda p: (p.weight, p.letters))
    assert coset_min_weight(group, rep) == (best.weight, best)
    assert und.unconditional_D(spec, cross_check=False)[1:] == (best.weight, best)

    table = CosetTable(group, rep)
    signed = [str(table.element(i)) for i in range(1 << table.rank)]
    assert signed == [str(p) for p in sorted(coset, key=lambda p: p.letters)]

    occupied = [el.x_bits | el.z_bits for el in coset]
    first_undetermined = None
    for size in range(1, spec.n):
        undetermined, determined = [], []
        for traced in itertools.combinations(range(1, spec.n + 1), size):
            mask = sum(1 << (q - 1) for q in traced)
            surviving = [el for el, occ in zip(coset, occupied) if occ & mask == 0]
            if surviving:
                determined.append((traced, min(surviving, key=lambda p: p.letters)))
            else:
                undetermined.append(traced)
        scan = und.conditional_scan(spec, size)
        assert scan.undetermined == tuple(undetermined)
        assert scan.determined == tuple(determined)
        # a batch of one gives the same answers as the batched scan
        traced, witness = (determined or [(undetermined[0], None)])[0]
        assert und.reduced_equal_on(spec, traced) == (witness is None, witness)
        if undetermined and first_undetermined is None:
            first_undetermined = size
    assert und.minimal_conditional_D(spec) == first_undetermined


@pytest.mark.parametrize("name, n", [("ghz", 5), ("code_513", None), ("steane_713", None)])
def test_signs_with_anticommuting_reps(name, n):
    # rep * s differs in sign from s * rep when rep anticommutes with s
    group = codes.catalog(name, n=n).group()
    for q, letter in itertools.product(range(1, group.n + 1), "XYZ"):
        rep = PauliOperator.single(group.n, q, letter)
        table = CosetTable(group, rep)
        want = sorted(helpers.signed_coset(group, rep), key=lambda p: p.letters)
        assert [str(table.element(i)) for i in range(1 << table.rank)] == [str(p) for p in want]
        best = min(want, key=lambda p: p.weight)
        assert table.min_weight() == (best.weight, best)


@pytest.mark.parametrize("name", ["ghz", "cyclic"])
def test_blocks_match_whole_coset_doubling(name):
    spec = codes.catalog(name, n=17)
    group, rep = spec.group(), spec.logical_z_ops()[0]
    assert group.rank == 16
    table = CosetTable(group, rep)
    offsets, xs, zs = _copied_blocks(table)
    x, z, phase = helpers.sorted_coset(group, rep)
    assert len(offsets) > 1
    assert offsets == tuple(range(0, len(x), len(xs[0])))
    assert np.array_equal(np.concatenate(xs), x)
    assert np.array_equal(np.concatenate(zs), z)

    weight = np.bitwise_count(x | z)
    at = int(np.argmax(weight == weight.min()))
    witness = PauliOperator.from_bits(spec.n, int(x[at]), int(z[at]), int(phase[at]))
    assert table.min_weight() == (int(weight.min()), witness)

    # the logical X set: centralizer members anticommuting with Z-bar
    identity = PauliOperator.identity(spec.n)
    cx, cz, _, _ = helpers.doubling(group.centralizer_basis(), identity)
    anti = np.bitwise_count((cx & np.uint64(rep.z_bits)) ^ (cz & np.uint64(rep.x_bits))) & 1 == 1
    counts = np.bincount(np.bitwise_count(cx | cz)[anti], minlength=spec.n + 1)
    x_tables = [t for t, is_x in und._table_of(spec).classes if is_x]
    assert sum(t.weight_counts() for t in x_tables).tolist() == counts.tolist()


def test_scans_at_the_rank_cap_stay_small():
    # the whole coset at rank 20 is 2^20 rows of x and z words, 8 MB in
    # the uint32 words of n = 21; an E_D row on an uncached spec builds
    # its class tables, and the logical-X ones keep their factors
    def peak(call, *args):
        tracemalloc.start()
        call(*args)
        _, top = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return top

    ghz, cyclic = codes.catalog("ghz", n=21), codes.catalog("cyclic", n=21)
    assert ghz.group().rank == cyclic.group().rank == MAX_ENUM_RANK
    assert peak(coset_min_weight, ghz.group(), ghz.logical_z_ops()[0]) < 4 * 2**20
    fresh = dataclasses.replace(cyclic, name="cyclic_21_uncached")
    assert peak(und.necessary_ED, fresh, 7) < 4 * 2**20
    assert all("_low" in vars(table) for table, is_x in und._table_of(fresh).classes if is_x)


def test_enumeration_cap_still_fires():
    # cyclic 22 has rank 21 and floor 0, so its minimum weight needs a
    # scan: the table is built, and the cap fires when its factors are
    past_cap = codes.catalog("cyclic", n=MAX_ENUM_RANK + 2)
    group, rep = past_cap.group(), past_cap.logical_z_ops()[0]
    assert group.rank == MAX_ENUM_RANK + 1
    table = CosetTable(group, rep)
    assert table._floor.bit_count() == 0
    with pytest.raises(EnumerationCapError, match="rank 21 exceeds enumeration cap 20"):
        table.min_weight()
    with pytest.raises(EnumerationCapError):
        und.unconditional_D(past_cap, cross_check=False)
    # kept-set queries enumerate nothing, so the rank cap does not bind them
    equal, witness = und.reduced_equal_on(past_cap, [1])
    assert not equal and 1 not in witness.support
    assert group.contains_unsigned(witness * rep)


def test_queries_run_to_the_row_cap():
    # and past it: the kept-set walk's rows are Python ints
    widest = codes.catalog("ghz", n=MAX_ROW_N)
    assert und.reduced_equal_on(widest, [1]) == (True, None)
    assert und.reduced_equal_on(codes.catalog("ghz", n=MAX_ROW_N + 1), [1]) == (True, None)


@pytest.fixture
def refused_span(monkeypatch):
    """Any factor build fails the test."""
    def refuse(start, basis):
        raise AssertionError("a factor was built")

    monkeypatch.setattr(stabilizer, "_span", refuse)


@pytest.mark.parametrize("n", [MAX_ENUM_RANK + 2, MAX_ROW_N, MAX_ROW_N + 1, 200])
def test_ghz_past_both_caps_forms_no_factor(refused_span, n):
    # every GHZ class meets its bound at entry 0, so neither cap is reached
    spec = codes.catalog("ghz", n=n)
    d_min, w_min, _ = und.unconditional_D(spec)
    assert (w_min, d_min) == (n, 1)
    assert stabilizer.code_distance(logical_classes(spec.group())) == 1
    # the spec's shared class tables too: only the E_D table needs
    # blocks, and the caps refuse them before a factor is built
    report = und.analyze_code(spec)
    assert (report.w_min, report.d_min, report.distance, report.e_d_table) == (n, 1, 1, ())
    assert und.reduced_equal_on(spec, [1]) == (True, None)


@pytest.mark.parametrize("n", [MAX_ENUM_RANK + 1, MAX_ROW_N + 1])
def test_kept_set_queries_form_no_factor(refused_span, n):
    # the difference coset of cyclic 21 (rank 20, at the enumeration cap)
    # and cyclic 65 (past the row cap) has floor 0; its walk reads the
    # table's rows and entry 0, never its factors
    spec = codes.catalog("cyclic", n=n)
    assert und._table_of(spec)._floor == 0
    equal, witness = und.reduced_equal_on(spec, [1, 2])
    assert not equal and not {1, 2} & set(witness.support)
    scan = und.conditional_scan(spec, 2)
    assert (len(scan.undetermined), len(scan.determined)) == (0, n * (n - 1) // 2)
    assert und.minimal_conditional_D(spec) == 3


@pytest.mark.parametrize("name, steps", [("ghz", [0, 0]), ("cyclic", [1, 18 + 171])])
def test_floor_qubits_need_no_step(monkeypatch, name, steps):
    # every GHZ entry has a letter on every qubit, so every traced set
    # meets the floor and is equal with no elimination step; cyclic 19's
    # floor is empty, so each set is stepped once: the one query's set,
    # then the 18 singletons with a second qubit to add and the 171 pairs
    traced = []
    trace = stabilizer._trace
    monkeypatch.setattr(stabilizer, "_trace", lambda *args: traced.append(args) or trace(*args))
    spec = codes.catalog(name, n=19)
    equal, _ = und.reduced_equal_on(spec, [3])
    counts = [len(traced)]
    scan = und.conditional_scan(spec, 2)
    counts.append(len(traced) - counts[0])
    assert counts == steps
    assert equal is (name == "ghz")
    assert len(scan.undetermined if equal else scan.determined) == 171


def test_table_cache_stays_small():
    # a cached table holds its two factors, 2^12 + 2^8 rows of x and z
    # words at the rank cap, its rows' combos, its memoized minimum weight
    # and histogram, and, once read, its class tables: a k = 2 table owns
    # 15, each as large as itself
    assert und._table_of.cache_info().maxsize <= 8
    caches = [obj for obj in vars(und).values() if callable(getattr(obj, "cache_info", None))]
    assert caches == [und._table_of]


def _least(elements):
    return min(elements, key=lambda p: (p.weight, p.letters))


def bits_of(n):
    return st.integers(0, (1 << n) - 1)


@st.composite
def z_type_cosets(draw):
    """Z-type generators with an X-type or mixed rep: every x bit outside
    the low factor's support is forced, so the forced-letter bound bites."""
    n = draw(st.integers(2, 9))
    rows: list[int] = []
    for z in draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=3 * n)):
        if len(rows) < n - 1 and not StabilizerGroup(
            [PauliOperator.from_bits(n, 0, r) for r in rows], n
        ).contains_unsigned(PauliOperator.from_bits(n, 0, z)):
            rows.append(z)
    group = StabilizerGroup([PauliOperator.from_bits(n, 0, z) for z in rows])
    x = draw(st.integers(1, (1 << n) - 1))
    return group, PauliOperator.from_bits(n, x, draw(st.one_of(st.just(0), st.just(x), bits_of(n))))


def _behind_gadget(group, rep):
    """IXX and ZZZ with rep ZII on three new qubits 1-3, ahead of ``group`` and ``rep``.

    ``rep`` lies in ``group``, of rank r, so that coset holds I.  The
    gadget's coset, IYY, IZZ, ZII and ZXX in letters order, leads every
    key, so the table is four runs of 2^r entries, one per gadget
    letter string.  The floor is 0 and entry 0 is not I, so the bound
    is 1.  The first two runs weigh at least 2, and the least weight,
    1, is first at ZII times I, entry 2^(r + 1).  Blocks of at most
    2^(r + 1) entries, as ``_BLOCK_ROWS`` of 1, 2 and 4 give, put it
    past block 0, which weighs one above the bound.
    """
    n = group.n + 3

    def behind(p, x=0, z=0):
        # p on qubits 4.., and the x and z bits on qubits 1-3
        return PauliOperator.from_bits(n, p.x_bits << 3 | x, p.z_bits << 3 | z, p.phase_exp)

    none = PauliOperator.identity(group.n)
    gens = [behind(none, x=0b110), behind(none, z=0b111), *map(behind, group.generators)]
    return StabilizerGroup(gens), behind(rep, z=0b001)


@st.composite
def random_cosets(draw):
    """Some of a random code's generators, with its difference rep, any
    signed Pauli (one that anticommutes with some of them too), or a
    signed element of the group itself as the rep; or such a group and
    element behind a three-qubit gadget (see ``_behind_gadget``), whose
    least weight is past block 0 when the blocks are small."""
    planted = draw(st.booleans())
    spec = draw(helpers.random_codes(max_n=5 if planted else 8))
    gens = spec.stabilizer_ops()
    group = StabilizerGroup(gens[: draw(st.integers(1, len(gens)))])
    n = spec.n
    any_rep = st.builds(PauliOperator.from_bits, st.just(n), bits_of(n), bits_of(n), st.sampled_from((0, 2)))
    inside = st.builds(
        lambda combo, sign: pauli.product(PauliOperator(n, 0, sign), group.generators, combo),
        st.integers(0, (1 << group.rank) - 1), st.sampled_from((0, 2)))
    if planted:
        return _behind_gadget(group, draw(inside))
    return group, draw(st.one_of(st.just(_difference_rep(spec)), any_rep, inside))


@settings(max_examples=100, deadline=None)
@given(st.one_of(random_cosets(), z_type_cosets()), st.sampled_from((1, 2, 4, 16)))
def test_pruned_scan_matches_least_signed_element(case, block_rows):
    # small blocks split even these small tables, so a scan that meets
    # its bound stops partway through; a rep inside the group has bound 0
    group, rep = case
    with patch.object(stabilizer, "_BLOCK_ROWS", block_rows):
        best = _least(helpers.signed_coset(group, rep))
        assert CosetTable(group, rep).min_weight() == (best.weight, best)


@st.composite
def wide_cosets(draw):
    """Up to 10 generators on 32, 33, 40 or 64 qubits, on both sides of the
    32-bit word, and any signed Pauli as the rep.

    The generators start as Z on qubits 1..r and a random H/S/CNOT
    circuit spreads them over every qubit; it keeps them commuting and
    independent, so with any signs they generate a group without -I.
    """
    n = draw(st.sampled_from((32, 33, 40, 64)))
    rows = [[0, 1 << q] for q in range(draw(st.integers(1, 10)))]
    rnd = draw(st.randoms(use_true_random=True))
    for _ in range(16 * n):
        gate, a, b = rnd.choice("HSC"), rnd.randrange(n), rnd.randrange(n)
        for row in rows:
            x, z = row
            if gate == "H" and (x ^ z) >> a & 1:
                x, z = x ^ 1 << a, z ^ 1 << a
            elif gate == "S":
                z ^= x & 1 << a
            elif gate == "C" and a != b:  # CNOT, control a, target b
                x ^= (x >> a & 1) << b
                z ^= (z >> b & 1) << a
            row[:] = x, z
    signs = st.sampled_from((0, 2))
    group = StabilizerGroup(
        [PauliOperator.from_bits(n, x, z, ((x & z).bit_count() + draw(signs)) % 4) for x, z in rows]
    )
    rep = PauliOperator.from_bits(n, draw(bits_of(n)), draw(bits_of(n)), draw(signs))
    return group, rep


@settings(max_examples=60, deadline=None)
@given(wide_cosets(), st.sampled_from((1, 12, 24, 48, 96, stabilizer._BLOCK_ROWS)))
def test_word_widths_match_the_signed_coset(case, block_rows):
    # 32-bit words up to n = 32 and 64-bit words past it; three times a
    # power of two makes blocks of 3 * 2^j high rows, so on tables of rank
    # 4 and more some sizes leave a partial last block
    group, rep = case
    coset = helpers.signed_coset(group, rep)
    best = _least(coset)
    x, z, _ = helpers.sorted_coset(group, rep)
    with patch.object(stabilizer, "_BLOCK_ROWS", block_rows):
        table = CosetTable(group, rep)
        assert table.min_weight() == (best.weight, best)
        offsets, xs, zs = _copied_blocks(table)
        assert xs[0].dtype == (np.uint32 if group.n <= 32 else np.uint64)
        assert offsets == tuple(itertools.accumulate((len(b) for b in xs[:-1]), initial=0))
        assert np.array_equal(np.concatenate(xs), x)
        assert np.array_equal(np.concatenate(zs), z)
        counts = np.bincount([p.weight for p in coset], minlength=group.n + 1)
        assert table.weight_counts().tolist() == counts.tolist()


@settings(max_examples=100, deadline=None)
@given(st.one_of(random_cosets(), z_type_cosets()))
def test_floor_counts_the_qubits_every_entry_covers(case):
    group, rep = case
    coset = helpers.signed_coset(group, rep)
    covered = ~0
    for p in coset:
        covered &= p.x_bits | p.z_bits
    # the floor holds qubit q at the low bit of its key digit
    floor = CosetTable(group, rep)._floor
    assert floor == sum(1 << 2 * (group.n - 1 - q) for q in range(group.n) if covered >> q & 1)
    assert floor.bit_count() <= _least(coset).weight


def test_ghz_min_weight_forms_no_factor(monkeypatch):
    formed, spans = [], []
    form, span = CosetTable._formed, stabilizer._span

    def counted_formed(self):
        for block in form(self):
            formed.append(block[0])
            yield block

    def counted_span(start, basis):
        spans.append(len(basis))
        return span(start, basis)

    monkeypatch.setattr(CosetTable, "_formed", counted_formed)
    monkeypatch.setattr(stabilizer, "_span", counted_span)
    for n in (17, 18, 19):
        spec = codes.catalog("ghz", n=n)
        group, rep = spec.group(), spec.logical_z_ops()[0]
        table = CosetTable(group, rep)
        # every entry has an x on every qubit, so the floor is n, and
        # entry 0, the least-letters entry, weighs n
        w, witness = table.min_weight()
        assert formed == spans == []
        x, z, phase = helpers.sorted_coset(group, rep)
        assert (w, witness) == (n, PauliOperator.from_bits(n, int(x[0]), int(z[0]), int(phase[0])))
    # the factors are still there when the blocks are asked for: each
    # block is a run of whole high rows against the whole low factor
    low, high = 1 << table._a, 1 << table.rank - table._a
    step = max(1, stabilizer._BLOCK_ROWS // low)
    assert len(list(table._formed())) == len(formed) == -(-high // step) > 1
    assert len(spans) == 2


def test_ghz_code_distance_forms_no_factor(monkeypatch):
    # the Z_1 class has floor 0, but entry 0 is not I and weighs 1, its
    # bound; the other two classes have floor n, which entry 0 weighs
    spans = []
    span = stabilizer._span
    monkeypatch.setattr(stabilizer, "_span", lambda *args: spans.append(args) or span(*args))
    for n in (17, 18, 19):
        assert stabilizer.code_distance(logical_classes(codes.catalog("ghz", n=n).group())) == 1
    assert spans == []


@pytest.mark.parametrize("name, n, cosets", [("cyclic", 9, 3), ("code_422", None, 15)])
def test_analyze_builds_each_coset_once(monkeypatch, name, n, cosets):
    # w_min, the distance, every E_D row and the weight-D listing share
    # one table per logical class, the difference coset's included, and
    # each table builds its two factors once
    spans = []
    span = stabilizer._span
    monkeypatch.setattr(stabilizer, "_span", lambda *args: spans.append(args) or span(*args))
    spec = dataclasses.replace(codes.catalog(name, n=n), name=f"{name}_uncached")
    report = und.analyze_code(spec, max_trace=spec.n - 1)
    assert len(report.e_d_table) == spec.n - 1
    assert len(spans) == 2 * cosets


@pytest.mark.parametrize("gens,rep,witness,formed", [
    # entry 0 is IXX, and the first block's other entry, XII, weighs the
    # bound of 1 (floor 0), so the second block is never formed
    (("ZZI", "XXX"), "IXX", "XII", [0]),
    # the first block, IYY and IZZ, weighs one above the bound, and
    # ZII, of weight 1, is in the second block
    (("IXX", "ZZZ"), "ZII", "ZII", [0, 2]),
])
def test_scan_stops_at_the_first_block_that_meets_the_bound(gens, rep, witness, formed):
    group = StabilizerGroup([parse_pauli(g) for g in gens])
    with patch.object(stabilizer, "_BLOCK_ROWS", 1):
        table = CosetTable(group, parse_pauli(rep))
        assert table._floor.bit_count() == 0
        assert len(list(table._formed())) == 2
        offsets = []
        form = table._formed
        table._formed = lambda: (offsets.append(block[0]) or block for block in form())
        assert table.min_weight() == (1, parse_pauli(witness))
        assert offsets == formed


def _least_avoiding(group, rep, masks):
    """Per mask, the least-letters element of rep * S that avoids it, or None, by whole-coset doubling."""
    x, z, phase, key = helpers.doubling(group.generators, rep)
    out = []
    for mask in masks:
        inside = np.flatnonzero((x | z) & np.uint64(mask) == 0)
        at = inside[np.argmin(key[inside])] if len(inside) else None
        out.append(None if at is None else PauliOperator.from_bits(group.n, int(x[at]), int(z[at]), int(phase[at])))
    return out


@st.composite
def local_subgroups(draw):
    """One letter on each of 3-5 leading qubits, each times one tail t on
    1-3 trailing qubits, and a signed rep on the leading qubits, times t
    or not.

    Each generator is one of the group's reduced rows, with its leading
    bit on its own letter.  A traced set that misses the leading qubits
    and meets t's support meets every row in the same digits, so all but
    one row cancel in its elimination, and the local subgroup S_K they
    leave (the even products of the letters) has rank 2 to 4."""
    a = draw(st.integers(3, 5))
    n = a + draw(st.integers(1, 3))
    letters = st.sampled_from(((1, 0), (1, 1), (0, 1)))  # X, Y, Z as (x, z)
    tx, tz = (bits << a for bits in draw(st.tuples(bits_of(n - a), bits_of(n - a)).filter(any)))
    signs = st.sampled_from((0, 2))
    gens = []
    for q in range(a):
        x, z = draw(letters)
        x, z = x << q | tx, z << q | tz
        gens.append(PauliOperator.from_bits(n, x, z, ((x & z).bit_count() + draw(signs)) % 4))
    with_tail = draw(st.booleans())
    x, z = draw(bits_of(a)) | tx * with_tail, draw(bits_of(a)) | tz * with_tail
    return StabilizerGroup(gens), PauliOperator.from_bits(n, x, z, draw(signs))


@settings(max_examples=40, deadline=None)
@given(st.one_of(random_cosets(), local_subgroups()))
def test_restriction_solve_matches_brute_force(case):
    # every traced mask, the empty and the full one included, once as
    # verdicts only and once with the witnesses
    group, rep = case
    table, every = CosetTable(group, rep), range(group.n + 1)
    want = dict(zip(range(1 << group.n), _least_avoiding(group, rep, range(1 << group.n))))
    assert dict(table.walk(every)) == want
    verdicts = dict(table.walk(every, witnesses=False))
    assert verdicts == {mask: None if w is None else True for mask, w in want.items()}


@settings(max_examples=100, deadline=None)
@given(st.one_of(random_cosets(), wide_cosets(), local_subgroups()), st.data())
def test_kept_walk_matches_brute_force(case, data):
    # every traced mask inside up to 8 qubits (all of them for n <= 8), the
    # empty and the full one included, in lexicographic order of the qubit
    # tuples; with witnesses, as verdicts only, and for a range of sizes
    group, rep = case
    table, qubits = CosetTable(group, rep), range(group.n)
    if group.n > 8:
        qubits = sorted(data.draw(st.sets(st.integers(0, group.n - 1), max_size=8)))
    bits = [1 << q for q in qubits]
    within, every = sum(bits), range(len(bits) + 1)
    masks = [sum(c) for c in sorted(c for size in every for c in itertools.combinations(bits, size))]
    want = list(zip(masks, _least_avoiding(group, rep, masks)))
    assert list(table.walk(every, within)) == want
    verdicts = [(mask, None if w is None else True) for mask, w in want]
    assert list(table.walk(every, within, witnesses=False)) == verdicts
    lo = data.draw(st.integers(0, len(qubits)))
    sizes = range(lo, data.draw(st.integers(lo, len(qubits))) + 1)
    assert list(table.walk(sizes, within)) == [
        (mask, w) for mask, w in want if mask.bit_count() in sizes
    ]
    assert list(table.walk(sizes, within, witnesses=False)) == [
        (mask, w) for mask, w in verdicts if mask.bit_count() in sizes
    ]
    # one size, as conditional_scan walks it, in itertools.combinations' order
    size = data.draw(st.integers(0, len(qubits)))
    witness = dict(want)
    assert list(table.walk(range(size, size + 1), within)) == [
        (mask, witness[mask]) for mask in map(sum, itertools.combinations(bits, size))
    ]


def test_kept_walk_sizes_empty_or_stepped():
    # an empty range of sizes asks for no traced set, the empty one included,
    # and a stepped range, which the walk would read as contiguous, raises
    spec = codes.catalog("code_513")
    table = CosetTable(spec.group(), spec.logical_z_ops()[0])
    assert list(table.walk(range(0, 0))) == list(table.walk(range(1, 1))) == []
    with pytest.raises(ValueError, match="step by 1"):
        list(table.walk(range(1, 5, 2)))


def test_cyclic_65_steps_each_traced_set_once(monkeypatch):
    # D' = 2 on 65 qubits: the 64 singletons with a second qubit to add
    # and the 2,080 pairs, every one determined, each stepped once
    steps = []
    trace = stabilizer._trace

    def counted(rows, e, s):
        steps.append(s)
        return trace(rows, e, s)

    monkeypatch.setattr(stabilizer, "_trace", counted)
    spec = codes.catalog("cyclic", n=MAX_ROW_N + 1)
    scan = und.conditional_scan(spec, 2)
    assert len(scan.determined) == 2080 and scan.undetermined == ()
    assert len(steps) == 64 + 2080


def test_python_int_rows_witness_every_qubit_of_cyclic_65():
    # each witness is an element of Z-bar * S that avoids its traced qubit
    spec = codes.catalog("cyclic", n=MAX_ROW_N + 1)
    group, rep = spec.group(), spec.logical_z_ops()[0]
    scan = und.conditional_scan(spec, 1)
    assert scan.undetermined == ()
    assert [subset for subset, _ in scan.determined] == [(q,) for q in range(1, 66)]
    for (q,), witness in scan.determined:
        assert q not in witness.support
        assert group.contains_unsigned(witness * rep)
