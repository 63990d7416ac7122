"""Signed n-qubit Pauli operators in binary symplectic form.

An operator is stored as two length-n bit-vectors (Python ints, bit
``i`` is qubit ``i+1``) plus a power of i:

    operator = i**phase_exp * prod_q X_q**x_q Z_q**z_q

under the fixed convention Y = iXZ.  With this convention the letter Y
at qubit q contributes x=1, z=1 and one factor of i to ``phase_exp``,
so "YY" parses to phase_exp=2, x=0b11, z=0b11.

Qubit 1 is the leftmost character of a Pauli string ("XZZXI" puts X on
qubit 1).  An operator is Hermitian iff phase_exp and the number of Y
letters have equal parity; Hermitian operators carry a real sign +/-1,
the rest carry +/-i.

All values are immutable; every operation returns a fresh operator.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_SIGN_PREFIX = {"": 0, "+": 0, "-": 2, "+i": 1, "-i": 3, "i": 1}
_PREFIX_OF_EXP = {0: "", 2: "-", 1: "+i", 3: "-i"}
_STRING_RE = re.compile(r"^([+-]?i?)([IXYZ]+)$")
# a letter's x and z bit as a binary digit
_X_DIGITS = str.maketrans("IXYZ", "0110")
_Z_DIGITS = str.maketrans("IXYZ", "0011")


class PauliFormatError(ValueError):
    """Raised for malformed Pauli strings."""


@dataclass(frozen=True)
class PauliOperator:
    n: int
    x_bits: int
    z_bits: int
    phase_exp: int = 0

    def __post_init__(self) -> None:
        mask = (1 << self.n) - 1
        if self.n < 1:
            raise ValueError("need at least one qubit")
        if self.x_bits & ~mask or self.z_bits & ~mask:
            raise ValueError("bit-vector wider than qubit count")
        if not 0 <= self.phase_exp < 4:
            object.__setattr__(self, "phase_exp", self.phase_exp % 4)

    # -- construction ------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> PauliOperator:
        return cls(n, 0, 0, 0)

    @classmethod
    def from_string(cls, text: str, n: int | None = None) -> PauliOperator:
        """Parse an optional sign prefix (+, -, +i, -i) and IXYZ letters."""
        m = _STRING_RE.match(text.strip())
        if m is None:
            raise PauliFormatError(f"not a Pauli string: {text!r}")
        prefix, letters = m.groups()
        if n is not None and len(letters) != n:
            raise PauliFormatError(
                f"expected {n} qubits, got {len(letters)} in {text!r}"
            )
        # bit i of x and z is qubit i + 1, so read the letters backwards
        backwards = letters[::-1]
        x = int(backwards.translate(_X_DIGITS), 2)
        z = int(backwards.translate(_Z_DIGITS), 2)
        phase = _SIGN_PREFIX[prefix] + letters.count("Y")
        return cls(len(letters), x, z, phase % 4)

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
        # moving other's X's past self's Z's costs (-1) per crossing
        phase = self.phase_exp + other.phase_exp
        phase += 2 * (self.z_bits & other.x_bits).bit_count()
        return PauliOperator(
            self.n,
            self.x_bits ^ other.x_bits,
            self.z_bits ^ other.z_bits,
            phase % 4,
        )

    def commutes(self, other: PauliOperator) -> bool:
        """Parity-0 symplectic inner product <=> dense matrices commute."""
        if self.n != other.n:
            raise ValueError(f"qubit count mismatch: {self.n} != {other.n}")
        anti = (self.x_bits & other.z_bits).bit_count()
        anti += (self.z_bits & other.x_bits).bit_count()
        return anti % 2 == 0

    def anticommutes(self, other: PauliOperator) -> bool:
        return not self.commutes(other)

    def shifted(self, k: int) -> PauliOperator:
        """Cyclic right shift: the letter on qubit q moves to qubit q+k."""
        k %= self.n
        if k == 0:
            return self
        mask = (1 << self.n) - 1

        def rot(v: int) -> int:
            return (v << k | v >> (self.n - k)) & mask

        return PauliOperator(self.n, rot(self.x_bits), rot(self.z_bits), self.phase_exp)

    # -- inspection ----------------------------------------------------

    @property
    def weight(self) -> int:
        return (self.x_bits | self.z_bits).bit_count()

    @property
    def support(self) -> frozenset[int]:
        """1-based qubit indices where the letter is not I."""
        occ = self.x_bits | self.z_bits
        return frozenset(i + 1 for i in range(self.n) if occ >> i & 1)

    @property
    def y_count(self) -> int:
        return (self.x_bits & self.z_bits).bit_count()

    @property
    def sign_exp(self) -> int:
        """Exponent e with operator = i**e * (tensor of I,X,Y,Z letters)."""
        return (self.phase_exp - self.y_count) % 4

    @property
    def is_hermitian(self) -> bool:
        return self.sign_exp % 2 == 0

    @property
    def letters(self) -> str:
        return "".join(
            "IXZY"[(self.x_bits >> i & 1) + 2 * (self.z_bits >> i & 1)]
            for i in range(self.n)
        )

    def unsigned(self) -> PauliOperator:
        """Same letters with sign +1 (phase_exp = number of Y's)."""
        return PauliOperator(self.n, self.x_bits, self.z_bits, self.y_count % 4)

    def __str__(self) -> str:
        return _PREFIX_OF_EXP[self.sign_exp] + self.letters

    def __repr__(self) -> str:
        return f"PauliOperator.from_string({str(self)!r})"


def parse_pauli(text: str, n: int | None = None) -> PauliOperator:
    """Parse a Pauli string; with n given, its letter count must match."""
    return PauliOperator.from_string(text, n)
