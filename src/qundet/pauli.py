"""Signed n-qubit Pauli operators, stored as letter keys.

An operator is a power of i times a tensor of letters,

    operator = i**phase_exp * prod_q X_q**x_q Z_q**z_q

under the fixed convention Y = iXZ.  With this convention the letter Y
at qubit q has x = z = 1 and adds one factor of i to ``phase_exp``, so
"YY" parses to phase_exp = 2.  Qubit 1 is the leftmost character of a
Pauli string ("XZZXI" puts X on qubit 1).  An operator is Hermitian iff
phase_exp and the number of Y letters have equal parity; Hermitian
operators carry a real sign +/-1, the rest carry +/-i.

The letters are stored as one integer, the *letter key*: the base-4
numeral of the letters, with digits I, X, Y, Z = 0..3 and qubit 1 the
most significant digit.  Keys order like letter strings, a string
parses with one ``str.translate`` and one ``int(..., 4)``, and the
letters come back from one hex format.  A digit's low bit is x ^ z and
its high bit z, so the key is XOR-linear in (x, z): a product's key is
the XOR of its factors' keys, and two operators anticommute iff
key_a & swap(key_b) has odd parity (``swap`` exchanges a digit's two
bits).  This module owns that layout: the x and z bit-vectors (bit i is
qubit i + 1) are read-only views derived by ``key_bits``, and
``PauliOperator.from_bits`` is the way back.

All values are immutable; every operation returns a fresh operator.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

_SIGN_PREFIX = {"": 0, "+": 0, "-": 2, "+i": 1, "-i": 3, "i": 1}
_PREFIX_OF_EXP = {0: "", 2: "-", 1: "+i", 3: "-i"}
_STRING_RE = re.compile(r"([+-]?i?)([IXYZ]+)")
# a letter's key digit, and the two letters of each hex digit of a key
_DIGITS = str.maketrans("IXYZ", "0123")
_LETTER_PAIRS = str.maketrans({f"{d:x}": "IXYZ"[d >> 2] + "IXYZ"[d & 3] for d in range(16)})


class PauliFormatError(ValueError):
    """Raised for malformed Pauli strings."""


def low_digits(n: int) -> int:
    """The low bit of every digit of an n-qubit key."""
    return (1 << 2 * n) // 3


def swap(key: int, n: int) -> int:
    """An n-qubit key with the two bits of every digit exchanged.

    Per qubit, key_a & swap(key_b) holds (x ^ z) z' + z (x' ^ z') = x z' + z x' (mod 2).
    """
    low = low_digits(n)
    return key >> 1 & low | (key & low) << 1


def key_bits(key: int, n: int, basis_order: bool = False) -> tuple[int, int]:
    """The x and z bit-vectors of an n-qubit key.

    Bit i is qubit i + 1, as in ``x_bits`` and ``z_bits``; with
    ``basis_order`` qubit 1 is the most significant bit, as it is in the
    key and in a dense basis index.
    """
    digits = bin(key | 1 << 2 * n)[3:]  # each qubit's (z, x ^ z) bits, qubit 1 first
    high, low = (digits[::2], digits[1::2]) if basis_order else (digits[-2::-2], digits[::-2])
    z = int(high, 2)
    return int(low, 2) ^ z, z


@dataclass(frozen=True)
class PauliOperator:
    n: int
    key: int
    phase_exp: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one qubit")
        if self.key >> 2 * self.n:
            raise ValueError("letter key wider than qubit count")
        if not 0 <= self.phase_exp < 4:
            object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    # -- construction ------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> PauliOperator:
        return cls(n, 0, 0)

    @classmethod
    def from_bits(cls, n: int, x_bits: int, z_bits: int, phase_exp: int = 0) -> PauliOperator:
        """i**phase_exp * prod_q X_q**x_q Z_q**z_q, bit i of each vector qubit i + 1.

        The inverse of ``key_bits``: read qubit 1 first as a base-4
        numeral, a bit-vector puts its bits on the low bits of the digits.
        """
        top = 1 << n  # keeps the leading zeros; [:2:-1] drops it and "0b"
        low = bin(x_bits ^ z_bits | top)[:2:-1]
        high = bin(z_bits | top)[:2:-1]
        return cls(n, int(low, 4) | int(high, 4) << 1, phase_exp)

    @classmethod
    def from_string(cls, text: str, n: int | None = None) -> PauliOperator:
        """Parse an optional sign prefix (+, -, +i, -i) and IXYZ letters, nothing else."""
        m = _STRING_RE.fullmatch(text)
        if m is None:
            raise PauliFormatError(f"not a Pauli string: {text!r}")
        prefix, letters = m.groups()
        if n is not None and len(letters) != n:
            raise PauliFormatError(
                f"expected {n} qubits, got {len(letters)} in {text!r}"
            )
        key = int(letters.translate(_DIGITS), 4)
        return cls(len(letters), key, _SIGN_PREFIX[prefix] + letters.count("Y"))

    @classmethod
    def single(cls, n: int, qubit: int, letter: str) -> PauliOperator:
        """One non-identity letter at a 1-based qubit index."""
        if not 1 <= qubit <= n:
            raise ValueError(f"qubit {qubit} outside 1..{n}")
        word = ["I"] * n
        word[qubit - 1] = letter
        return cls.from_string("".join(word))

    # -- group arithmetic ---------------------------------------------

    def __mul__(self, other: PauliOperator) -> PauliOperator:
        if self.n != other.n:
            raise ValueError(f"qubit count mismatch: {self.n} != {other.n}")
        return product(self, (other,), 1)

    def commutes(self, other: PauliOperator) -> bool:
        """Parity-0 symplectic inner product <=> dense matrices commute."""
        if self.n != other.n:
            raise ValueError(f"qubit count mismatch: {self.n} != {other.n}")
        return (self.key & swap(other.key, self.n)).bit_count() & 1 == 0

    def anticommutes(self, other: PauliOperator) -> bool:
        return not self.commutes(other)

    def shifted(self, k: int) -> PauliOperator:
        """Cyclic right shift: the letter on qubit q moves to qubit q+k."""
        k %= self.n
        if k == 0:
            return self
        # qubit q + k is k digits less significant
        bits, s = 2 * self.n, 2 * k
        key = (self.key >> s | self.key << bits - s) & (1 << bits) - 1
        return PauliOperator(self.n, key, self.phase_exp)

    # -- inspection ----------------------------------------------------

    @property
    def x_bits(self) -> int:
        return key_bits(self.key, self.n)[0]

    @property
    def z_bits(self) -> int:
        return key_bits(self.key, self.n)[1]

    @property
    def weight(self) -> int:
        return ((self.key | self.key >> 1) & low_digits(self.n)).bit_count()

    @property
    def support(self) -> frozenset[int]:
        """1-based qubit indices where the letter is not I."""
        return frozenset(q for q, letter in enumerate(self.letters, start=1) if letter != "I")

    @property
    def y_count(self) -> int:
        # Y is digit 2: high bit set, low bit clear
        return (self.key >> 1 & ~self.key & low_digits(self.n)).bit_count()

    @property
    def sign_exp(self) -> int:
        """Exponent e with operator = i**e * (tensor of I,X,Y,Z letters)."""
        return (self.phase_exp - self.y_count) % 4

    @property
    def is_hermitian(self) -> bool:
        return self.sign_exp % 2 == 0

    @property
    def letters(self) -> str:
        # two letters per hex digit; an odd n formats one leading I too many
        return f"{self.key:0{(self.n + 1) // 2}x}".translate(_LETTER_PAIRS)[self.n & 1 :]

    def unsigned(self) -> PauliOperator:
        """Same letters with sign +1 (phase_exp = number of Y's)."""
        return PauliOperator(self.n, self.key, self.y_count)

    def __str__(self) -> str:
        return _PREFIX_OF_EXP[self.sign_exp] + self.letters

    def __repr__(self) -> str:
        return f"PauliOperator.from_string({str(self)!r})"


def product(p: PauliOperator, ops: Sequence[PauliOperator], combo: int) -> PauliOperator:
    """p times the operators whose bits are set in combo, in index order.

    Keys XOR, and phases add, plus 2 per qubit where the left factor has
    z and the right one x: moving that X past that Z costs a sign.
    """
    key, phase, high = p.key, p.phase_exp, low_digits(p.n) << 1
    while combo:
        bit = combo & -combo
        g = ops[bit.bit_length() - 1]
        # z is a digit's high bit, x the XOR of its two bits
        phase += g.phase_exp + 2 * (key & (g.key ^ g.key << 1) & high).bit_count()
        key ^= g.key
        combo ^= bit
    return PauliOperator(p.n, key, phase)


def parse_pauli(text: str, n: int | None = None) -> PauliOperator:
    """Parse a Pauli string; with n given, its letter count must match."""
    return PauliOperator.from_string(text, n)
