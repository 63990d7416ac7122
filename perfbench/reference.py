"""Independent reference for the benchmark's correctness checks.

Nothing here imports qundet.  Pauli strings are parsed by this module,
the difference coset is enumerated with numpy by doubling
(``x ^= g.x`` for each generator), and the centralizer comes from a
GF(2) elimination written here.  The shared ground is only the textual
convention the package documents: qubit 1 is the leftmost letter,
``Y = iXZ``, and witnesses are compared by their string form.

Verdicts for every kept set come from two subset-zeta tables over the
2^n kept masks: ``covered[K]`` (some coset support lies inside K) and
``least[K]`` (the least such element by its letters).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_PREFIX = {"": 0, "+": 0, "-": 2, "i": 1, "+i": 1, "-i": 3}
_SIGN_OF_EXP = {0: "", 1: "+i", 2: "-", 3: "-i"}
_NONE = np.iinfo(np.uint64).max


def parse(text: str) -> tuple[int, int, int]:
    """(x, z, e) with operator = i**e * prod X^x Z^z; bit i is qubit i+1."""
    letters = text.lstrip("+-i")
    e = _PREFIX[text[: len(text) - len(letters)]]
    x = z = 0
    for i, ch in enumerate(letters):
        if ch in "XY":
            x |= 1 << i
        if ch in "ZY":
            z |= 1 << i
        e += ch == "Y"
    return x, z, e % 4


def mul(a: tuple[int, int, int], b: tuple[int, int, int]) -> tuple[int, int, int]:
    """Product a*b: moving b's X past a's Z costs a sign per crossing."""
    xa, za, ea = a
    xb, zb, eb = b
    return xa ^ xb, za ^ zb, (ea + eb + 2 * (za & xb).bit_count()) % 4


def letters_of(x: int, z: int, n: int) -> str:
    return "".join("IXZY"[(x >> i & 1) + 2 * (z >> i & 1)] for i in range(n))


def fmt(p: tuple[int, int, int], n: int) -> str:
    x, z, e = p
    return _SIGN_OF_EXP[(e - (x & z).bit_count()) % 4] + letters_of(x, z, n)


def permute(p: tuple[int, int, int], perm: list[int]) -> tuple[int, int, int]:
    """Move the letter on qubit perm[j]+1 to qubit j+1 (phase unchanged)."""
    x, z, e = p
    nx = sum(1 << j for j, src in enumerate(perm) if x >> src & 1)
    nz = sum(1 << j for j, src in enumerate(perm) if z >> src & 1)
    return nx, nz, e


def mask_of(qubits, n: int) -> int:
    mask = 0
    for q in qubits:
        if not 1 <= q <= n:
            raise ValueError(f"qubit {q} outside 1..{n}")
        mask |= 1 << (q - 1)
    return mask


def letter_key(x: int, z: int, n: int) -> int:
    """Integer whose order is the order of the letters strings."""
    return int(_letter_keys(np.array([x], dtype=np.uint64), np.array([z], dtype=np.uint64), n)[0])


def _letter_keys(xs: np.ndarray, zs: np.ndarray, n: int) -> np.ndarray:
    # I < X < Y < Z as characters; qubit 1 is the most significant digit
    key = np.zeros(xs.shape, dtype=np.uint64)
    for i in range(n):
        digit = (np.uint64(3) * ((zs >> np.uint64(i)) & np.uint64(1))) ^ (
            (xs >> np.uint64(i)) & np.uint64(1)
        )
        key = key * np.uint64(4) + digit
    return key


def _span(start: tuple[int, int, int], gens: list[tuple[int, int, int]]):
    """start * (every product of gens), by doubling; numpy (x, z, e) arrays."""
    xs = np.array([start[0]], dtype=np.uint64)
    zs = np.array([start[1]], dtype=np.uint64)
    es = np.array([start[2]], dtype=np.uint8)
    for gx, gz, ge in gens:
        gx, gz = np.uint64(gx), np.uint64(gz)
        flips = np.bitwise_count(zs & gx).astype(np.uint8)
        xs = np.concatenate([xs, xs ^ gx])
        zs = np.concatenate([zs, zs ^ gz])
        es = np.concatenate([es, (es + np.uint8(ge) + np.uint8(2) * flips) & np.uint8(3)])
    return xs, zs, es


def _superset_closure(table: np.ndarray, n: int, combine) -> None:
    """table[K] = combine of table[J] over J subset of K, in place."""
    for i in range(n):
        view = table.reshape(-1, 2, 1 << i)
        combine(view[:, 1, :], view[:, 0, :], out=view[:, 1, :])


def nullspace(rows: list[int], width: int) -> list[int]:
    """Basis of {v : popcount(row & v) even for every row}."""
    pivoted: list[tuple[int, int]] = []
    for r in rows:
        for p, pr in pivoted:
            if r >> p & 1:
                r ^= pr
        if r:
            p = (r & -r).bit_length() - 1
            pivoted = [(q, qr ^ r if qr >> p & 1 else qr) for q, qr in pivoted]
            pivoted.append((p, r))
    pivots = {p for p, _ in pivoted}
    basis = []
    for c in range(width):
        if c in pivots:
            continue
        v = 1 << c
        for p, pr in pivoted:
            if pr >> c & 1:
                v |= 1 << p
        basis.append(v)
    return basis


@dataclass
class Coset:
    """The difference coset rep * S of one code, enumerated and tabulated."""

    n: int
    xs: np.ndarray  # elements in ascending letters order
    zs: np.ndarray
    es: np.ndarray
    keys: np.ndarray  # letters-order key of each element
    covered: np.ndarray  # bool over kept masks
    least: np.ndarray  # least element key over kept masks (_NONE: none)

    def string(self, at: int) -> str:
        return fmt((int(self.xs[at]), int(self.zs[at]), int(self.es[at])), self.n)

    @property
    def w_min(self) -> int:
        return int(np.bitwise_count(self.xs | self.zs).min())

    @property
    def d_min(self) -> int | None:
        d = self.n - self.w_min + 1
        return d if d <= self.n - 1 else None

    def min_weight_witness(self) -> str:
        weights = np.bitwise_count(self.xs | self.zs)
        return self.string(int(np.flatnonzero(weights == weights.min())[0]))

    def verdict(self, traced_mask: int) -> tuple[bool, str | None]:
        """(reductions equal?, least witness string) after tracing these qubits."""
        kept = ((1 << self.n) - 1) ^ traced_mask
        if not self.covered[kept]:
            return True, None
        return False, self.string(int(np.searchsorted(self.keys, self.least[kept])))


def coset(n: int, stabilizers: list[str], rep: tuple[int, int, int]) -> Coset:
    xs, zs, es = _span(rep, [parse(s) for s in stabilizers])
    keys = _letter_keys(xs, zs, n)
    order = np.argsort(keys)
    xs, zs, es, keys = xs[order], zs[order], es[order], keys[order]
    if np.any(keys[1:] == keys[:-1]):
        raise ValueError("repeated coset element: generators are dependent")
    supports = (xs | zs).astype(np.int64)
    covered = np.zeros(1 << n, dtype=bool)
    covered[supports] = True
    _superset_closure(covered, n, np.logical_or)
    least = np.full(1 << n, _NONE, dtype=np.uint64)
    np.minimum.at(least, supports, keys)
    _superset_closure(least, n, np.minimum)
    return Coset(n, xs, zs, es, keys, covered, least)


def difference_rep(logical_z: list[str]) -> tuple[int, int, int]:
    """Z-bar for k=1; Z-bar_1 * Z-bar_2 for the k=2 equal mixtures."""
    rep = parse(logical_z[0])
    for extra in logical_z[1:]:
        rep = mul(rep, parse(extra))
    return rep


@dataclass(frozen=True)
class Normalizer:
    """The centralizer of a group, enumerated: distance and the logical X set."""

    n: int
    distance: int
    x_xs: np.ndarray  # members anticommuting with the difference rep
    x_zs: np.ndarray
    x_weights: np.ndarray

    def x_count(self, weight: int | None = None) -> int:
        if weight is None:
            return len(self.x_weights)
        return int(np.count_nonzero(self.x_weights == weight))

    def x_letters(self, weight: int) -> set[str]:
        at = self.x_weights == weight
        return {letters_of(int(x), int(z), self.n) for x, z in zip(self.x_xs[at], self.x_zs[at])}


def normalizer(n: int, stabilizers: list[str], rep: tuple[int, int, int]) -> Normalizer:
    gens = [parse(s) for s in stabilizers]
    # v = vx | vz << n commutes with (gx, gz) iff popcount(vx&gz ^ vz&gx) is even
    basis = nullspace([gz | gx << n for gx, gz, _ in gens], 2 * n)
    low = (1 << n) - 1
    cx, cz, _ = _span((0, 0, 0), [(v & low, v >> n, 0) for v in basis])
    sx, sz, _ = _span((0, 0, 0), gens)
    shift = np.uint64(n)
    logical = ~np.isin(cx | (cz << shift), sx | (sz << shift))
    weights = np.bitwise_count(cx | cz)
    rx, rz = np.uint64(rep[0]), np.uint64(rep[1])
    anti = (np.bitwise_count(cx & rz) + np.bitwise_count(cz & rx)) % 2 == 1
    return Normalizer(n, int(weights[logical].min()), cx[anti], cz[anti], weights[anti])
