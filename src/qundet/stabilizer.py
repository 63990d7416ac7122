"""Stabilizer groups over letter keys.

A group is given by commuting, independent, Hermitian Pauli generators
whose generated group avoids -I.  It reads each generator's stored
letter key (``PauliOperator.key``, laid out in ``qundet.pauli``), which
orders like its letters and is XOR-linear, so commutation and one
elimination of the keys per group do the rest.  The group
row-reduces the keys once, each row packed as key << rank | combo,
where the combo names the generators the row is the product of.  The
first generator that vanishes names the dependent subset (or -I),
whatever the pivot rule; the reduced rows are the echelon that
membership, the commutant, the logical classes and every coset table
read.  Rows carry no sign: an operator that is returned gets one, from
one product rep * g_i over its combo.

Enumeration (group elements, coset blocks, logical X sets, and any
minimum weight the bound below does not settle) fails loudly past one
cap, rank ``MAX_ENUM_RANK``, instead of sampling.  A coset table checks
it, and the 64-qubit word, only when it builds its factors, so the bound
answers at any rank and n.  Witnesses are chosen by (weight, letters),
the unsigned string (a sign prefix plays no part), so reruns agree
byte-for-byte.
An "unsigned" Pauli here means the phase is normalized to make the
operator Hermitian with + sign; logical X sets and distance counts are
over distinct unsigned Paulis, not cosets modulo the group.

Cosets are scanned as numpy blocks (``CosetTable``): bit-packed x/z
rows, as in Aaronson-Gottesman (quant-ph/0406196), in uint32 words up
to n = 32 and uint64 past it, formed as the XOR of two factors, each
doubled once per generator on first use, so a scan takes O(2^rank) time
and O(2^(rank/2) + block) memory.  One kernel forms each block in
reused buffers and counts its letters in place (word width and factor
split are measured in docs/method.md).
The minimum weight has one exact lower bound: the per-qubit floor (the
qubits where every entry has a letter), and at least 1 unless entry 0
is I.  When the reduced rep, the least-letters entry, weighs the bound
it is the answer and no factor is built.  That settles every logical
class of GHZ, whose cold verdicts at n = 17..19 form no block; the
cyclic and small catalog codes read floor 0 and are scanned, in index
order, up to the first block that holds a row of the bound's weight.
A two-information-set stop costs more than the scan it saves (see
docs/method.md).  Kept-set queries enumerate nothing: the table's
``walk`` visits traced sets depth first from the letter-key rows and
entry 0, one elimination step per set at any n, and gives each set's
verdict and least-letters witness; a set that meets the floor is
decided with no step.
The centralizer is read as one coset table per logical class L * S
(``logical_classes``), kept by a table's ``classes``.  ``code_distance``
reads whatever tables it is given, so kept tables scan each class once, and
``class_members``, the one reader that turns rows into operators,
lists their entries: the logical X set and the weight-D listings.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from qundet.pauli import PauliOperator, key_bits, low_digits, product, swap

MAX_ENUM_RANK = 20
# the widest n whose x and z rows pack into one uint64 word each
MAX_ROW_N = 64
# rows per CosetTable block: 2^15 rows of x and z words, 256 KB in the
# uint32 words of n <= 32 (512 KB past it), and 32 KB of uint8 weights
_BLOCK_ROWS = 1 << 15


class GroupValidationError(ValueError):
    """Base for errors raised while validating a generating set."""


class NonCommutingGeneratorsError(GroupValidationError):
    def __init__(self, i: int, j: int, a: PauliOperator, b: PauliOperator):
        self.pair = (i, j)
        super().__init__(f"generators {i} and {j} anticommute: {a} vs {b}")


class DependentGeneratorsError(GroupValidationError):
    def __init__(self, subset: tuple[int, ...]):
        self.subset = subset
        super().__init__(
            "generators are dependent: product of generators "
            f"{list(subset)} is the identity"
        )


class MinusIdentityError(GroupValidationError):
    def __init__(self, subset: tuple[int, ...], message: str | None = None):
        self.subset = subset
        super().__init__(
            message
            or f"generated group contains -I: product of generators {list(subset)}"
        )


class EnumerationCapError(ValueError):
    """Raised when an enumeration would exceed its configured cap."""


def _reduce(v: int, rows: Sequence[int]) -> int:
    """v with the leading bit of every row cleared.

    No row holds another row's leading bit, so the XORs commute.
    """
    for b in rows:
        if v ^ b < v:  # v holds b's leading bit
            v ^= b
    return v


def _insert(rows: list[int], v: int) -> None:
    """Add v, nonzero and reduced against rows, and clear its leading bit from them."""
    lead = 1 << v.bit_length() - 1
    for i, b in enumerate(rows):
        if b & lead:
            rows[i] = b ^ v
    rows.append(v)


class StabilizerGroup:
    """A validated stabilizer group.

    Construction checks Hermiticity, pairwise commutation, GF(2)
    independence, and absence of -I, raising a typed error naming the
    offending generators otherwise.  ``rank`` equals the generator
    count once validation passes.
    """

    def __init__(self, generators: Sequence[PauliOperator], n: int | None = None):
        generators = list(generators)
        if n is None:
            if not generators:
                raise ValueError("empty generating set needs an explicit n")
            n = generators[0].n
        for g in generators:
            if g.n != n:
                raise ValueError(f"mixed qubit counts: {g.n} != {n}")
        for idx, g in enumerate(generators, start=1):
            if not g.is_hermitian:
                # a non-Hermitian Pauli squares to -I
                raise MinusIdentityError(
                    (idx,), f"generator {idx} ({g}) is not Hermitian; its square is -I"
                )
        self.n = n
        self._keys = [g.key for g in generators]
        swapped = [swap(key, n) for key in self._keys]
        for i, key in enumerate(self._keys):
            for j in range(i + 1, len(swapped)):
                if (key & swapped[j]).bit_count() & 1:
                    raise NonCommutingGeneratorsError(i + 1, j + 1, generators[i], generators[j])
        self.generators = tuple(generators)
        self.rank = len(generators)
        self._rows = self._eliminate()

    def _eliminate(self) -> list[int]:
        """The generators' keys, fully reduced, each row key << rank | combo.

        Raises for the first generator that is the product of earlier
        ones; its combo is unique, so it does not depend on the pivots.
        Sorted, the rows ascend by leading bit.
        """
        rows: list[int] = []
        for i, key in enumerate(self._keys):
            v = _reduce(key << self.rank | 1 << i, rows)
            if v >> self.rank == 0:
                subset = tuple(j + 1 for j in range(i + 1) if v >> j & 1)
                if product(PauliOperator.identity(self.n), self.generators, v).phase_exp == 2:
                    raise MinusIdentityError(subset)
                raise DependentGeneratorsError(subset)
            _insert(rows, v)
        rows.sort()
        return rows

    # -- membership ----------------------------------------------------

    def contains_unsigned(self, p: PauliOperator) -> bool:
        """True iff p is in the group up to sign."""
        if p.n != self.n:
            raise ValueError("qubit count mismatch")
        return _reduce(p.key << self.rank, self._rows) >> self.rank == 0

    def anticommuting(self, p: PauliOperator) -> list[PauliOperator]:
        """The generators that anticommute with p, in order."""
        if p.n != self.n:
            raise ValueError("qubit count mismatch")
        swapped = swap(p.key, self.n)
        return [g for g, key in zip(self.generators, self._keys) if (key & swapped).bit_count() & 1]

    def commutes_with_all(self, p: PauliOperator) -> bool:
        return not self.anticommuting(p)

    # -- enumeration ---------------------------------------------------

    def elements(self) -> list[PauliOperator]:
        """All 2^rank signed elements, Gray-code order starting from +I."""
        if self.rank > MAX_ENUM_RANK:
            raise EnumerationCapError(f"rank {self.rank} exceeds enumeration cap {MAX_ENUM_RANK}")
        out = [PauliOperator.identity(self.n)]
        cur = out[0]
        for m in range(1, 1 << self.rank):
            cur = cur * self.generators[(m & -m).bit_length() - 1]
            out.append(cur)
        return out

    def centralizer_basis(self) -> list[PauliOperator]:
        """2n - rank unsigned Paulis spanning the commutant of the group.

        It is the swap of the kernel of the key rows, which ``_eliminate``
        fully reduced: each owns its leading bit, so every other column c
        gives one kernel vector, c plus the leading bit of each row holding c.
        """
        n = self.n
        rows = [b >> self.rank for b in self._rows]
        leads = [b.bit_length() - 1 for b in rows]
        basis = []
        for c in range(2 * n):
            if c in leads:
                continue
            v = 1 << c
            for b, lead in zip(rows, leads):
                v |= (b >> c & 1) << lead
            basis.append(PauliOperator(n, swap(v, n)).unsigned())
        return basis

    def normalizer_masks(self) -> Iterator[tuple[int, int]]:
        """(x_bits, z_bits) of every element of the centralizer span.

        Yields 2^(2n - rank) pairs in Gray-code order, the zero pair
        first.  Phases are irrelevant at this level; wrap a pair in
        PauliOperator.from_bits(n, x, z).unsigned() for the Hermitian
        representative.
        The brute-force reference for ``logical_classes``.
        """
        basis = [key_bits(b.key, self.n) for b in self.centralizer_basis()]
        if len(basis) > MAX_ENUM_RANK:
            raise EnumerationCapError(f"rank {len(basis)} exceeds enumeration cap {MAX_ENUM_RANK}")
        x, z = 0, 0
        yield x, z
        for m in range(1, 1 << len(basis)):
            bx, bz = basis[(m & -m).bit_length() - 1]
            x ^= bx
            z ^= bz
            yield x, z


def _trace(rows: list[int], e: int, s: int) -> tuple[list[int], int | None]:
    """S_K's rows and e once the qubit whose row digit sits at bit s is traced too.

    The rows are fully reduced and ascending, and e is an element of
    rep * S that avoids the traced set.  Pivot 1 is the lowest row with
    a nonzero digit, pivot 2 the lowest whose digit is neither 0 nor
    pivot 1's, and ``span`` maps each digit they reach to their product
    with that digit.  Every other row takes in the product with its
    digit, which is lower than the row and holds no other row's leading
    bit, so the rows stay fully reduced and ascending.  e's digit
    cancels the same way; if the pivots cannot reach it, e is None.
    """
    span = {0: 0}
    kept = []
    for v in rows:
        d = v >> s & 3
        if d in span:
            kept.append(v ^ span[d])
        else:
            for d0, p in list(span.items()):
                span[d ^ d0] = v ^ p
    d = e >> s & 3
    return kept, e ^ span[d] if d in span else None


class CosetTable:
    """The signed coset {rep * s : s in group}, in letters order, scanned in blocks.

    The group's rows are its generators row-reduced on letter keys, each
    with a leading bit no other row has, in ascending order.  Clearing
    those bits from rep's key leaves the least key in the coset, and an
    element's key carries its generator choices at the leading bits,
    most significant first.  So doubling over the rows (the first 2^i
    entries times row i give the next 2^i) emits the coset sorted by
    letters: entry j is the reduced rep times the rows at the set bits
    of j.  The table holds that order as two unsigned factors of
    bit-packed x/z rows, in the narrowest word that holds n bits, each
    built by XOR doubling: the low factor rep * span(rows[:a]) and the
    high factor span(rows[a:]), with a = ceil(rank / 2), raised where
    the rank allows until the low factor holds an eighth of a block's
    rows (see ``_formed``).  Entry hi << a | lo is high row hi XOR low
    row lo, so a scan in blocks of about ``_BLOCK_ROWS`` rows holds
    O(2^(rank/2) + block) words, never the whole coset.  The factors
    are built on first use and shared by the scan, the histogram and
    ``class_members``: ``min_weight`` needs none when entry 0 weighs
    its lower bound, as on GHZ (timed in docs/method.md).  The caps
    bind only the factor build, so that exit answers at any rank and n.
    Cyclic codes read floor 0 and are scanned.  Each entry's generator
    combo is the XOR of its rows' combos, and only the entries that are
    asked for get a sign, by one product of at most rank generators.
    Kept-set queries (``walk``) read the same rows, entry 0 and floor,
    and build no factor.  The minimum weight and the read-only weight
    histogram are memoized, and ``classes`` holds the group's logical
    class tables once read, so one table owns all a spec's derived state.
    """

    def __init__(self, group: StabilizerGroup, rep: PauliOperator):
        if rep.n != group.n:
            raise ValueError("qubit count mismatch")
        self.n, self.rank = group.n, group.rank
        r = self.rank
        self.group, self._rep = group, rep
        # the reduced rep first, then the group's rows
        rows = [_reduce(rep.key << r, group._rows), *group._rows]
        self._combos = [b & (1 << r) - 1 for b in rows]
        self._keys = [b >> r for b in rows]
        # half the rows, and at least an eighth of a block (see _formed)
        self._a = min(r, max((r + 1) // 2, (_BLOCK_ROWS // 8).bit_length() - 1))
        self._min: tuple[int, PauliOperator] | None = None
        self._counts: np.ndarray | None = None

    @cached_property
    def _words(self) -> np.ndarray:
        """(x, z) words of the reduced rep and the rows, in the narrowest word that holds n bits.

        The first step of the factor build, so the caps are checked here.
        """
        if self.rank > MAX_ENUM_RANK:
            raise EnumerationCapError(f"rank {self.rank} exceeds enumeration cap {MAX_ENUM_RANK}")
        if self.n > MAX_ROW_N:
            raise EnumerationCapError(f"n {self.n} exceeds bit-packed row cap {MAX_ROW_N}")
        dtype = np.uint32 if self.n <= 32 else np.uint64
        return np.array([key_bits(key, self.n) for key in self._keys], dtype=dtype)

    @cached_property
    def _low(self) -> np.ndarray:
        """The low factor: the reduced rep times span(rows[:a])."""
        return _span(self._words[0], self._words[1 : self._a + 1])

    @cached_property
    def _high(self) -> np.ndarray:
        """The high factor: span(rows[a:])."""
        return _span(np.zeros_like(self._words[0]), self._words[self._a + 1 :])

    def _step(self) -> int:
        """High rows per block."""
        return min(self._high.shape[1], max(1, _BLOCK_ROWS // self._low.shape[1]))

    def _formed(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """(offset, x, z) of every block in index order: its high rows, each XOR every low row.

        x and z are views of two buffers that the next block overwrites,
        and a block is formed only once the block before it is consumed.
        The XOR broadcasts each high row over the whole low factor.  On
        numpy 2.4 it runs about three times faster per element once the
        low factor has 2^12 rows than over the 2^9 of an even split at
        rank 18, whose shorter inner loops go through the ufunc's
        buffers; hence the low factor's floor of an eighth of a block.
        """
        (lx, lz), (hx, hz) = self._low, self._high
        step, size = self._step(), len(lx)
        x, z = np.empty((2, step, size), dtype=lx.dtype)
        for s in range(0, len(hx), step):
            rows = min(step, len(hx) - s)
            bx, bz = x[:rows], z[:rows]
            np.bitwise_xor(hx[s : s + rows, None], lx, out=bx)
            np.bitwise_xor(hz[s : s + rows, None], lz, out=bz)
            yield s * size, bx.ravel(), bz.ravel()

    def _weights(self) -> Iterator[tuple[int, np.ndarray]]:
        """(offset, weight) of every block in index order, the letters of each row counted.

        x | z overwrites the block's x, and weight is a view of a uint8
        buffer that the next block overwrites.
        """
        weight = np.empty(self._step() * self._low.shape[1], dtype=np.uint8)
        for offset, x, z in self._formed():
            np.bitwise_or(x, z, out=x)
            yield offset, np.bitwise_count(x, out=weight[: x.size])

    def weight_counts(self) -> np.ndarray:
        """counts[w] = number of entries of weight w, w = 0..n; memoized and read-only."""
        if self._counts is None:
            counts = np.zeros(self.n + 1, dtype=np.int64)
            for _, weight in self._weights():
                counts += np.bincount(weight, minlength=self.n + 1)
            counts.flags.writeable = False
            self._counts = counts
        return self._counts

    @cached_property
    def classes(self) -> tuple[tuple[CosetTable, bool], ...]:
        """(table, its rep anticommutes with this rep) per nontrivial logical
        class of the group; this table stands for its own, found by entry 0."""
        return tuple(
            (self if t._keys[0] == self._keys[0] else t, t._rep.anticommutes(self._rep))
            for t in logical_classes(self.group)
        )

    def element(self, pos: int) -> PauliOperator:
        """The entry at a sorted position, sign included."""
        combo = self._combos[0]
        for c in self._combos[1:]:
            if pos & 1:
                combo ^= c
            pos >>= 1
        return product(self._rep, self.group.generators, combo)

    def walk(
        self, sizes: range, within: int | None = None, witnesses: bool = True
    ) -> Iterator[tuple[int, PauliOperator | bool | None]]:
        """Each traced mask inside ``within`` with a size in ``sizes``, and the
        least-letters entry that avoids it, sign included, or None.

        Bit q - 1 of a mask is qubit q, and the masks come in the
        lexicographic order of their qubit tuples.  The entries that avoid
        T are e * S_K, e any one of them and S_K the subgroup supported
        inside the kept set (Fattal, Cubitt, Yamamoto, Bravyi and Chuang,
        quant-ph/0406168).  The walk goes depth first from the group's rows
        and entry 0 at the empty set (any entry would do), and ``_trace``
        steps each set once.  A set that adds a floor qubit gets e None
        with no step, as every entry has a letter there.  Once e is None it
        is None on every superset, so that subtree is emitted with no step.
        Clearing the kept rows' leading bits from e leaves the least key in
        e * S_K.  With ``witnesses`` false a determined mask yields True,
        and a childless set whose last qubit has digit 0 in e keeps e with
        no step.  ``sizes`` steps by 1 (another step raises ValueError),
        and an empty one yields nothing.
        """
        if sizes.step != 1:
            raise ValueError(f"sizes must step by 1, got {sizes}")
        if not sizes:
            return
        n, r, gens = self.n, self.rank, self.group.generators
        qubits = [q for q in range(n) if within is None or within >> q & 1]
        bits, shifts = [1 << q for q in qubits], [2 * (n - 1 - q) + r for q in qubits]
        floor = [self._floor >> s - r & 1 for s in shifts]
        lo, hi = sizes.start, sizes.stop - 1
        # T, the first index into qubits its children may add, the rows and e
        # of T's parent, and the shift of T's last qubit (none at the root)
        stack = [(0, 0, self.group._rows, self._keys[0] << r | self._combos[0], 0)]
        while stack:
            mask, at, rows, e, s = stack.pop()
            depth = mask.bit_count()
            if mask and e is not None and (witnesses or depth < hi or e >> s & 3):
                rows, e = _trace(rows, e, s)
            if e is None and depth < lo == hi:
                # T's supersets of the one size asked, in lexicographic order
                tails = map(sum, itertools.combinations(bits[at:], hi - depth))
                yield from zip(map(mask.__or__, tails), itertools.repeat(None))
                continue
            if depth >= lo and (e is None or not witnesses):
                yield mask, None if e is None else True
            elif depth >= lo:
                yield mask, product(self._rep, gens, _reduce(e, rows) & (1 << r) - 1)
            # children up to the last qubit that leaves room for the smallest size still wanted
            for j in range(len(qubits) + depth - max(lo, depth + 1), at - 1, -1) if depth < hi else ():
                stack.append((mask | bits[j], j + 1, rows, None if floor[j] else e, shifts[j]))

    @cached_property
    def _floor(self) -> int:
        """The qubits where every entry has a letter, as the low bit of their key digits.

        Restricted to qubit q, the coset is rep|_q times the span of the
        rows' letters there.  That span is I alone, I and one letter, or
        all four, and every entry has a letter on q unless the span holds
        rep|_q: so q counts when the rows hold at most one distinct letter
        on q and rep's is neither I nor it.  A key digit's (low, high)
        bits read X as (1, 0), Y as (0, 1) and Z as (1, 1).
        """
        digits = low_digits(self.n)
        xs = ys = zs = 0
        for key in self._keys[1:]:
            low, high = key & digits, key >> 1 & digits
            xs |= low & ~high
            ys |= high & ~low
            zs |= low & high
        low, high = self._keys[0] & digits, self._keys[0] >> 1 & digits
        two_letters = xs & ys | xs & zs | ys & zs
        same = low & ~high & xs | high & ~low & ys | low & high & zs
        return (low | high) & ~two_letters & ~same

    def min_weight(self) -> tuple[int, PauliOperator]:
        """Minimum weight and the least-letters entry of that weight.

        No entry weighs less than the bound max(floor, 1 if entry 0 is
        not I).  The bound is exact: entry 0, the reduced rep, is the
        least-letters entry, so a coset that holds I holds it at entry 0
        and every other entry has a letter.  When entry 0 weighs the
        bound it is the answer and no factor is built.  Otherwise the
        blocks are scanned in index order up to the first whose least
        weight reaches the bound; a later block could at most tie, and a
        tie goes to the earlier entry.
        """
        if self._min is None:
            first = PauliOperator(self.n, self._keys[0]).weight
            bound = max(self._floor.bit_count(), int(self._keys[0] != 0))
            self._min = (first, self.element(0)) if first == bound else self._scan(bound)
        return self._min

    def _scan(self, bound: int) -> tuple[int, PauliOperator]:
        """The block scan of ``min_weight``, stopped once a row weighs ``bound``."""
        best, at = self.n + 1, 0
        for offset, weight in self._weights():
            i = int(weight.argmin())  # the first least-weight row
            if weight[i] < best:
                best, at = int(weight[i]), offset + i
            if best == bound:
                break
        return best, self.element(at)


def _span(start: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """(x, z) rows of start times every product of the basis rows, by XOR doubling."""
    rows = np.empty((2, 1 << len(basis)), dtype=start.dtype)
    rows[:, 0] = start
    for i, g in enumerate(basis):
        h = 1 << i
        np.bitwise_xor(rows[:, :h], g[:, None], out=rows[:, h : 2 * h])
    return rows


def coset_min_weight(group: StabilizerGroup, rep: PauliOperator) -> tuple[int, PauliOperator]:
    """Minimum Pauli weight over {rep * s}, with a deterministic witness.

    Ties break by the witness's letters (the string without its sign),
    so results are stable across runs and generator orderings that span
    the same group.  The witness carries its sign.
    """
    return CosetTable(group, rep).min_weight()


def logical_classes(group: StabilizerGroup) -> Iterator[CosetTable]:
    """The nontrivial logical classes L * S, one coset table each.

    Modulo S the centralizer is the union of 2^(2k) classes L * S
    (Gottesman, quant-ph/9705052).  L runs over the nonempty products of
    the centralizer basis vectors independent of S and of each other,
    found by extending the group's reduced rows.
    """
    rows = list(group._rows)
    reps = []
    for p in group.centralizer_basis():
        v = _reduce(p.key << group.rank, rows)
        if v >> group.rank:
            _insert(rows, v)
            reps.append(p)
    identity = PauliOperator.identity(group.n)
    for combo in range(1, 1 << len(reps)):
        yield CosetTable(group, product(identity, reps, combo))


def logical_x_set(group: StabilizerGroup, z_bar: PauliOperator) -> list[PauliOperator]:
    """All unsigned centralizer members anticommuting with z_bar.

    Counting is per distinct unsigned Pauli, not per coset modulo the
    group: one operator per (x, z) pair, sign stripped.  For a rank
    n - 1 group this yields 2^n operators.  Sorted by (weight, letters).
    z_bar commutes with S, so each class's rep decides for the class.
    """
    if not group.commutes_with_all(z_bar):
        raise ValueError("z_bar is not in the centralizer of the group")
    return class_members(t for t in logical_classes(group) if t._rep.anticommutes(z_bar))


def class_members(tables: Iterable[CosetTable], weight: int | None = None) -> list[PauliOperator]:
    """The unsigned entries of the given class tables, all of them or those
    of one weight, sorted by (weight, letters).  The weight filter runs
    on each block in numpy before any PauliOperator is built, and each
    block is read before ``_formed`` overwrites it with the next.  An
    unsigned entry's phase is its Y count, and its letter key orders
    like its letters, so no letter string is built.
    """
    members = []
    for table in tables:
        for _, x, z in table._formed():
            if weight is not None:
                at = np.bitwise_count(x | z) == weight
                x, z = x[at], z[at]
            members += [
                PauliOperator.from_bits(table.n, xs, zs, (xs & zs).bit_count())
                for xs, zs in zip(x.tolist(), z.tolist())
            ]
    return sorted(members, key=lambda p: (p.weight, p.key))


def logical_x_count(group: StabilizerGroup) -> int:
    """len(logical_x_set(group, z_bar)) without enumeration.

    The centralizer holds 2^(2n - rank) unsigned Paulis; any z_bar in
    it but outside the group anticommutes with exactly half of them.
    """
    return 1 << (2 * group.n - group.rank - 1)


def in_logical_x_set(group: StabilizerGroup, z_bar: PauliOperator, candidate: PauliOperator) -> bool:
    """Membership test that avoids enumeration (any n)."""
    return group.commutes_with_all(candidate) and candidate.anticommutes(z_bar)


def code_distance(tables: Iterable[CosetTable]) -> int:
    """The least minimum weight over the given logical-class tables: over
    ``logical_classes(group)``, the code distance.  A table's minimum
    weight is memoized, so one already read costs nothing here."""
    weights = [table.min_weight()[0] for table in tables]
    if not weights:
        raise ValueError("group has no logical operators (rank = n with k = 0)")
    return min(weights)
