"""Stabilizer groups over the binary symplectic representation.

A group is given by commuting, independent, Hermitian Pauli generators
whose generated group avoids -I.  Independence and membership are GF(2)
linear algebra on symplectic rows (x_bits | z_bits << n); commutation is
the symplectic form, so the centralizer of the group is the kernel of
the swapped rows (z_bits | x_bits << n).

Enumeration-based operations (group elements, cosets, logical X sets,
code distance) fail loudly past one cap, rank ``MAX_ENUM_RANK``, instead
of sampling; witnesses are chosen by (weight, letters), the unsigned
string (a sign prefix plays no part), so reruns agree byte-for-byte.
An "unsigned" Pauli here means the phase is normalized to make the
operator Hermitian with + sign; logical X sets and distance counts are
over distinct unsigned Paulis, not cosets modulo the group.

Cosets are scanned as numpy blocks (``CosetTable``): bit-packed uint64
x/z rows, as in Aaronson-Gottesman (quant-ph/0406196), formed as the
XOR of two half-rank factors, each doubled once per generator, so a
scan takes O(2^rank) time and O(2^(rank/2) + block) memory.  Rows are
unsigned; the one row a caller asks for (the witness) gets its sign
from one product.  Kept-set queries enumerate nothing: a
``RestrictionSolve`` decides them by GF(2) elimination over the same
bit-packed rows, for any n up to 64.  The centralizer is read as one
coset table per logical class L * S (``logical_classes``).
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from qundet import gf2
from qundet.pauli import PauliOperator

MAX_ENUM_RANK = 20
# x and z rows are bit-packed into one uint64 each
MAX_ROW_N = 64
# rows per CosetTable block: 2^14 rows of x and z words, 256 KB
_BLOCK_ROWS = 1 << 14


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


class StabilizerGroup:
    """A validated stabilizer group.

    Construction checks Hermiticity, pairwise commutation, GF(2)
    independence, and absence of -I, raising a typed error naming the
    offending generators otherwise.  ``rank`` equals the generator
    count once validation passes.
    """

    def __init__(self, generators: Sequence[PauliOperator], n: int | None = None):
        generators = list(generators)
        if not generators:
            if n is None:
                raise ValueError("empty generating set needs an explicit n")
            self.n = n
            self.generators: tuple[PauliOperator, ...] = ()
            self.rank = 0
            self._ech: list[int] = []
            self._pivots: list[int] = []
            return
        self.n = generators[0].n
        for g in generators:
            if g.n != self.n:
                raise ValueError(f"mixed qubit counts: {g.n} != {self.n}")
        for idx, g in enumerate(generators, start=1):
            if not g.is_hermitian:
                # a non-Hermitian Pauli squares to -I
                raise MinusIdentityError(
                    (idx,), f"generator {idx} ({g}) is not Hermitian; its square is -I"
                )
        for i in range(len(generators)):
            for j in range(i + 1, len(generators)):
                if generators[i].anticommutes(generators[j]):
                    raise NonCommutingGeneratorsError(
                        i + 1, j + 1, generators[i], generators[j]
                    )
        self._validate_independent(generators)
        self.generators = tuple(generators)
        self.rank = len(generators)
        rows = [self._symplectic_row(g) for g in generators]
        self._ech, self._pivots = gf2.echelon(rows)

    def _symplectic_row(self, p: PauliOperator) -> int:
        return p.x_bits | (p.z_bits << self.n)

    def _validate_independent(self, generators: Sequence[PauliOperator]) -> None:
        # eliminate symplectic rows, tracking which generators combine,
        # so a vanishing row names its subset and fixes the product sign
        ech: list[int] = []
        pivots: list[int] = []
        combos: list[int] = []
        for idx, g in enumerate(generators):
            row = self._symplectic_row(g)
            combo = 1 << idx
            for e, p, c in zip(ech, pivots, combos):
                if row >> p & 1:
                    row ^= e
                    combo ^= c
            if row == 0:
                subset = tuple(
                    i + 1 for i in range(len(generators)) if combo >> i & 1
                )
                prod = _combo_product(PauliOperator.identity(self.n), generators, combo)
                if prod.phase_exp == 2:
                    raise MinusIdentityError(subset)
                raise DependentGeneratorsError(subset)
            ech.append(row)
            pivots.append(gf2.lowest_set_bit(row))
            combos.append(combo)

    # -- membership ----------------------------------------------------

    def contains_unsigned(self, p: PauliOperator) -> bool:
        """True iff p is in the group up to sign."""
        if p.n != self.n:
            raise ValueError("qubit count mismatch")
        return gf2.reduce_row(self._symplectic_row(p), self._ech, self._pivots) == 0

    def commutes_with_all(self, p: PauliOperator) -> bool:
        return all(p.commutes(g) for g in self.generators)

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
        """2n - rank unsigned Paulis spanning the commutant of the group."""
        swapped = [g.z_bits | (g.x_bits << self.n) for g in self.generators]
        mask = (1 << self.n) - 1
        basis = []
        for v in gf2.nullspace(swapped, 2 * self.n):
            basis.append(PauliOperator(self.n, v & mask, v >> self.n).unsigned())
        return basis

    def normalizer_masks(self) -> Iterator[tuple[int, int]]:
        """(x_bits, z_bits) of every element of the centralizer span.

        Yields 2^(2n - rank) pairs in Gray-code order, the zero pair
        first.  Phases are irrelevant at this level; wrap a pair in
        PauliOperator(...).unsigned() for the Hermitian representative.
        The brute-force reference for ``logical_classes``.
        """
        basis = self.centralizer_basis()
        if len(basis) > MAX_ENUM_RANK:
            raise EnumerationCapError(f"rank {len(basis)} exceeds enumeration cap {MAX_ENUM_RANK}")
        x, z = 0, 0
        yield x, z
        for m in range(1, 1 << len(basis)):
            b = basis[(m & -m).bit_length() - 1]
            x ^= b.x_bits
            z ^= b.z_bits
            yield x, z


def _combo_product(
    p: PauliOperator, generators: Sequence[PauliOperator], combo: int
) -> PauliOperator:
    """p times the generators whose bits are set in combo, in index order."""
    for i, g in enumerate(generators):
        if combo >> i & 1:
            p = p * g
    return p


def _letter_key(p: PauliOperator) -> int:
    """Integer ordered like p.letters: digits I=0 < X=1 < Y=2 < Z=3, qubit 1 first.

    The digit is x ^ 3z, so the key is XOR-linear in (x, z): the key of
    a product is the XOR of the keys of its factors.
    """
    key = 0
    for i in range(p.n):
        key = key << 2 | ((p.x_bits >> i & 1) ^ 3 * (p.z_bits >> i & 1))
    return key


# a Pauli as (letter key, x_bits, z_bits, phase_exp) ints
_Row = tuple[int, int, int, int]


def _row(p: PauliOperator) -> _Row:
    return _letter_key(p), p.x_bits, p.z_bits, p.phase_exp


def _row_product(a: _Row, b: _Row) -> _Row:
    """a * b by the rule of PauliOperator.__mul__: phases add, plus 2 per z(a) & x(b) bit."""
    phase = (a[3] + b[3] + 2 * (a[2] & b[1]).bit_count()) & 3
    return a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], phase


def _sorted_basis(
    generators: Sequence[PauliOperator], rep: PauliOperator
) -> tuple[list[PauliOperator], PauliOperator]:
    """Re-base so that doubling emits rep * S in ascending letter-key order.

    Row-reduces the generators on their letter keys (each key gets a
    leading bit no other key has) and clears those bits from rep.  An
    element's key then carries its generator choices at the leading
    bits, most significant first, so index order is key order once the
    generators are taken by ascending leading bit.  The reduction runs
    on (key, x, z, phase) int rows; operators are built only for the
    result.
    """
    rows: list[_Row] = []  # reduced, so the keys are distinct
    for g in generators:
        r = _row(g)
        for b in rows:
            if r[0] ^ b[0] < r[0]:  # r's key has b's leading bit
                r = _row_product(r, b)
        lead = 1 << r[0].bit_length() - 1
        rows = [_row_product(b, r) if b[0] & lead else b for b in rows]
        rows.append(r)
    rows.sort()
    r = _row(rep)
    for b in rows:
        if r[0] ^ b[0] < r[0]:
            r = _row_product(r, b)
    n = rep.n
    return [PauliOperator(n, *b[1:]) for b in rows], PauliOperator(n, *r[1:])


class RestrictionSolve:
    """Which traced sets leave some element of rep * S inside the kept set.

    rep * s avoids a traced set T iff rep restricted to T is the product
    of the restrictions of the generators in s, so some element lies
    inside the kept set iff rep|_T is in the GF(2) span of the g|_T.
    Those elements are e0 * S_K, with e0 any one of them and S_K the
    subgroup supported inside the kept set: the reduced state of a
    stabilizer state is fixed by its local subgroup (Fattal, Cubitt,
    Yamamoto, Bravyi and Chuang, quant-ph/0406168).

    One forward elimination decides a whole array of traced masks.  Row
    i holds (x & T, z & T, combo) of generator i for every mask, where
    combo records which generators the row is the product of; the last
    row holds rep with combo 0.  Each mask pivots on the lowest set bit
    of x, or of z when x is zero, so a batch costs O(rank) array steps.
    """

    def __init__(self, group: StabilizerGroup, rep: PauliOperator, traced: Sequence[int]):
        if rep.n != group.n:
            raise ValueError("qubit count mismatch")
        if group.n > MAX_ROW_N:
            raise EnumerationCapError(f"n {group.n} exceeds bit-packed row cap {MAX_ROW_N}")
        self.group, self.rep = group, rep
        masks = np.array(traced, dtype=np.uint64)
        ops = [*group.generators, rep]
        rows = np.empty((len(ops), 3, len(masks)), dtype=np.uint64)
        rows[:, 0] = np.array([p.x_bits for p in ops], dtype=np.uint64)[:, None] & masks
        rows[:, 1] = np.array([p.z_bits for p in ops], dtype=np.uint64)[:, None] & masks
        rows[:, 2] = np.array([1 << i for i in range(group.rank)] + [0], dtype=np.uint64)[:, None]
        for i in range(group.rank):
            x, z = rows[i, 0], rows[i, 1]
            pivot_x = x & -x
            pivot_z = np.where(pivot_x == 0, z & -z, 0)
            below = rows[i + 1 :]
            hit = ((below[:, 0] & pivot_x) | (below[:, 1] & pivot_z)) != 0
            np.bitwise_xor(below, rows[i], out=below, where=hit[:, None])
        self._rows = rows
        # True where rep's row survives: no element lies inside the kept set
        self.equal = (rows[-1, 0] | rows[-1, 1]) != 0

    def witness(self, j: int) -> PauliOperator | None:
        """The least-letters element inside mask j's kept set, sign included, or None."""
        if self.equal[j]:
            return None
        gens = self.group.generators
        rows = self._rows[:, :, j].tolist()
        e0 = _combo_product(self.rep, gens, rows[-1][2])
        identity = PauliOperator.identity(self.group.n)
        local = [_combo_product(identity, gens, c) for x, z, c in rows[:-1] if x == z == 0]
        return _sorted_basis(local, e0)[1]


class CosetTable:
    """The signed coset {rep * s : s in group}, in letters order, scanned in blocks.

    ``_sorted_basis`` re-bases the generators so that doubling (the
    first 2^i rows times basis[i] give the next 2^i) emits the coset
    sorted by letters.  Row j is rep times the basis elements at the set
    bits of j.  The table holds that order as two unsigned factors of
    bit-packed uint64 x/z rows, each built by XOR doubling: the low
    factor rep * span(basis[:a]) and the high factor span(basis[a:]),
    with a = ceil(rank / 2).  Row hi << a | lo is high row hi XOR low
    row lo, so a scan in blocks of about ``_BLOCK_ROWS`` rows holds
    O(2^(rank/2) + block) words, never the whole coset.  Only the rows
    that are asked for get a sign, by one product of at most rank
    factors.
    """

    def __init__(self, group: StabilizerGroup, rep: PauliOperator):
        if rep.n != group.n:
            raise ValueError("qubit count mismatch")
        if group.rank > MAX_ENUM_RANK:
            raise EnumerationCapError(f"rank {group.rank} exceeds enumeration cap {MAX_ENUM_RANK}")
        if group.n > MAX_ROW_N:
            raise EnumerationCapError(f"n {group.n} exceeds bit-packed row cap {MAX_ROW_N}")
        self.n, self.rank = group.n, group.rank
        self.basis, self.rep = _sorted_basis(group.generators, rep)
        a = (self.rank + 1) // 2
        self._low = _span(self.basis[:a], self.rep.x_bits, self.rep.z_bits)
        self._high = _span(self.basis[a:], 0, 0)
        self._min: tuple[int, PauliOperator] | None = None

    def __len__(self) -> int:
        return 1 << self.rank

    def blocks(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """(offset, x, z) for consecutive runs of rows, in index order."""
        (lx, lz), (hx, hz) = self._low, self._high
        step = max(1, _BLOCK_ROWS // len(lx))
        for s in range(0, len(hx), step):
            yield (
                s * len(lx),
                (hx[s : s + step, None] ^ lx).ravel(),
                (hz[s : s + step, None] ^ lz).ravel(),
            )

    def element(self, pos: int) -> PauliOperator:
        """The entry at a sorted position, sign included."""
        return _combo_product(self.rep, self.basis, pos)

    def min_weight(self) -> tuple[int, PauliOperator]:
        """Minimum weight and the least-letters entry of that weight."""
        if self._min is None:
            best, at = self.n + 1, 0
            for offset, x, z in self.blocks():
                weight = np.bitwise_count(x | z)
                w = int(weight.min())
                if w < best:
                    best, at = w, offset + int(np.argmax(weight == w))
            self._min = best, self.element(at)
        return self._min


def _span(basis: Sequence[PauliOperator], x: int, z: int) -> tuple[np.ndarray, np.ndarray]:
    """x/z rows of (x, z) times every product of the basis, by XOR doubling."""
    xs = np.empty(1 << len(basis), dtype=np.uint64)
    zs = np.empty_like(xs)
    xs[0], zs[0] = x, z
    for i, g in enumerate(basis):
        h = 1 << i
        np.bitwise_xor(xs[:h], np.uint64(g.x_bits), out=xs[h : 2 * h])
        np.bitwise_xor(zs[:h], np.uint64(g.z_bits), out=zs[h : 2 * h])
    return xs, zs


def coset_min_weight(group: StabilizerGroup, rep: PauliOperator) -> tuple[int, PauliOperator]:
    """Minimum Pauli weight over {rep * s}, with a deterministic witness.

    Ties break by the witness's letters (the string without its sign),
    so results are stable across runs and generator orderings that span
    the same group.  The witness carries its sign.
    """
    return CosetTable(group, rep).min_weight()


def logical_classes(
    group: StabilizerGroup, z_bar: PauliOperator | None = None
) -> Iterator[CosetTable]:
    """The nontrivial logical classes L * S, one coset table at a time.

    Modulo S the centralizer is the union of 2^(2k) classes L * S
    (Gottesman, quant-ph/9705052).  L runs over the nonempty products of
    the centralizer basis vectors independent of S and of each other.
    With z_bar, only the classes anticommuting with it are built (z_bar
    commutes with S, so L decides).  Keep no table longer than its use.
    """
    if z_bar is not None and not group.commutes_with_all(z_bar):
        raise ValueError("z_bar is not in the centralizer of the group")
    ech, pivots = list(group._ech), list(group._pivots)
    reps = []
    for p in group.centralizer_basis():
        row = gf2.reduce_row(group._symplectic_row(p), ech, pivots)
        if row:
            ech.append(row)
            pivots.append(gf2.lowest_set_bit(row))
            reps.append(p)
    identity = PauliOperator.identity(group.n)
    for combo in range(1, 1 << len(reps)):
        rep = _combo_product(identity, reps, combo)
        if z_bar is None or rep.anticommutes(z_bar):
            yield CosetTable(group, rep)


def logical_x_set(group: StabilizerGroup, z_bar: PauliOperator) -> list[PauliOperator]:
    """All unsigned centralizer members anticommuting with z_bar.

    Counting is per distinct unsigned Pauli, not per coset modulo the
    group: one operator per (x, z) pair, sign stripped.  For a rank
    n - 1 group this yields 2^n operators.  Sorted by (weight, letters).
    """
    members = [
        PauliOperator(group.n, x, z).unsigned()
        for table in logical_classes(group, z_bar)
        for _, xs, zs in table.blocks()
        for x, z in zip(xs.tolist(), zs.tolist())
    ]
    return sorted(members, key=lambda p: (p.weight, p.letters))


def logical_x_weights(group: StabilizerGroup, z_bar: PauliOperator) -> tuple[int, ...]:
    """counts[w] = number of logical X set members of weight w, w = 0..n."""
    counts = np.zeros(group.n + 1, dtype=np.int64)
    for table in logical_classes(group, z_bar):
        for _, x, z in table.blocks():
            counts += np.bincount(np.bitwise_count(x | z), minlength=group.n + 1)
    return tuple(counts.tolist())


def logical_x_count(group: StabilizerGroup) -> int:
    """len(logical_x_set(group, z_bar)) without enumeration.

    The centralizer holds 2^(2n - rank) unsigned Paulis; any z_bar in
    it but outside the group anticommutes with exactly half of them.
    """
    return 1 << (2 * group.n - group.rank - 1)


def in_logical_x_set(group: StabilizerGroup, z_bar: PauliOperator, candidate: PauliOperator) -> bool:
    """Membership test that avoids enumeration (any n)."""
    return group.commutes_with_all(candidate) and candidate.anticommutes(z_bar)


def code_distance(group: StabilizerGroup) -> int:
    """Minimum weight over unsigned centralizer members outside the group.

    This is the usual stabilizer-code distance: the least w_min over
    the nontrivial logical classes.
    """
    weights = [table.min_weight()[0] for table in logical_classes(group)]
    if not weights:
        raise ValueError("group has no logical operators (rank = n with k = 0)")
    return min(weights)
