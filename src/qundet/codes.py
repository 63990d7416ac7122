"""Code catalog, validation, and JSON persistence.

A CodeSpec is the textual presentation of a stabilizer code: generator
strings, logical Z strings, optional logical X strings.  The catalog
holds the built-in families; ``validate`` re-derives every invariant a
spec claims (group validity, logical commutation) and reports failures
instead of raising, so scans over a family can record per-instance
results.

The JSON form is the one persistent format.  Unknown fields are
rejected so a typo like "stabilisers" fails loudly rather than being
silently dropped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from qundet.pauli import PauliFormatError, PauliOperator, parse_pauli
from qundet.stabilizer import GroupValidationError, StabilizerGroup

CATALOG_NAMES = ("ghz", "code_412", "code_513", "cyclic", "steane_713", "code_422")


class SchemaError(ValueError):
    """A code-spec document violates the JSON schema."""


class CodeValidationError(ValueError):
    """A CodeSpec failed validation; carries the report."""

    def __init__(self, report: "ValidationReport"):
        self.report = report
        super().__init__(
            f"code {report.name!r} failed validation: " + "; ".join(report.failures)
        )


@dataclass(frozen=True)
class CodeSpec:
    """Textual presentation of an [[n, k]] stabilizer code."""

    name: str
    n: int
    k: int
    stabilizers: tuple[str, ...]
    logical_z: tuple[str, ...]
    logical_x: tuple[str, ...] | None = None
    provenance: str | None = None

    def stabilizer_ops(self) -> list[PauliOperator]:
        return [parse_pauli(s, self.n) for s in self.stabilizers]

    def logical_z_ops(self) -> list[PauliOperator]:
        return [parse_pauli(s, self.n) for s in self.logical_z]

    def logical_x_ops(self) -> list[PauliOperator]:
        if self.logical_x is None:
            return []
        return [parse_pauli(s, self.n) for s in self.logical_x]

    def group(self) -> StabilizerGroup:
        return StabilizerGroup(self.stabilizer_ops(), n=self.n)

    def to_json_dict(self) -> dict:
        doc: dict = {
            "name": self.name,
            "n": self.n,
            "k": self.k,
            "stabilizers": list(self.stabilizers),
            "logical_z": list(self.logical_z),
        }
        if self.logical_x is not None:
            doc["logical_x"] = list(self.logical_x)
        if self.provenance is not None:
            doc["provenance"] = self.provenance
        return doc


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of re-deriving a spec's invariants; failures, not raises."""

    name: str
    n: int
    k: int
    rank: int | None
    failures: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures


def _ghz(n: int) -> CodeSpec:
    gens = []
    for i in range(n - 1):
        letters = ["I"] * n
        letters[i] = letters[i + 1] = "Z"
        gens.append("".join(letters))
    return CodeSpec(
        name=f"ghz_{n}",
        n=n,
        k=1,
        stabilizers=tuple(gens),
        logical_z=("X" * n,),
        provenance="built-in catalog",
    )


def _cyclic_pattern(n: int) -> str:
    q = n % 4
    p = (n - q) // 4
    return "X" * p + "Z" * (2 * p) + "X" * p + "I" * q


def _cyclic(n: int) -> CodeSpec:
    pattern = parse_pauli(_cyclic_pattern(n), n)
    gens = tuple(str(pattern.shifted(i)) for i in range(n - 1))
    return CodeSpec(
        name=f"cyclic_{n}",
        n=n,
        k=1,
        stabilizers=gens,
        logical_z=("Z" * n,),
        provenance="built-in catalog",
    )


_FIXED: dict[str, CodeSpec] = {
    "code_412": CodeSpec(
        name="code_412",
        n=4,
        k=1,
        stabilizers=("YIYI", "IYIY", "ZZZZ"),
        logical_z=("YXIZ",),
        provenance="built-in catalog",
    ),
    "steane_713": CodeSpec(
        name="steane_713",
        n=7,
        k=1,
        stabilizers=(
            "IIXXXXI",
            "IXXIIXX",
            "XIXIXIX",
            "IIZZZZI",
            "IZZIIZZ",
            "ZIZIZIZ",
        ),
        logical_z=("ZZZZZZZ",),
        provenance="built-in catalog",
    ),
    "code_422": CodeSpec(
        name="code_422",
        n=4,
        k=2,
        stabilizers=("YYYY", "ZZZZ"),
        logical_z=("IZZI", "ZZII"),
        provenance="built-in catalog",
    ),
}


def catalog(name: str, n: int | None = None) -> CodeSpec:
    """Return a validated built-in code by name.

    ``ghz`` (n >= 2) and ``cyclic`` (n >= 5) are families and require
    ``n``; the fixed codes reject it.  Validation failures raise
    CodeValidationError carrying the report (the cyclic family is only
    conjectured valid for general n, so some n may legitimately fail).
    """
    if name not in CATALOG_NAMES:
        raise ValueError(f"unknown catalog name {name!r}; choose from {CATALOG_NAMES}")
    if name == "ghz":
        if n is None or n < 2:
            raise ValueError("ghz requires n >= 2")
        spec = _ghz(n)
    elif name == "cyclic":
        if n is None or n < 5:
            raise ValueError("cyclic requires n >= 5")
        spec = _cyclic(n)
    elif name == "code_513":
        if n is not None and n != 5:
            raise ValueError("code_513 takes no n parameter")
        spec = replace(_cyclic(5), name="code_513")
    else:
        if n is not None and n != _FIXED[name].n:
            raise ValueError(f"{name} takes no n parameter")
        spec = _FIXED[name]
    report = validate(spec)
    if not report.ok:
        raise CodeValidationError(report)
    return spec


def validate(spec: CodeSpec) -> ValidationReport:
    """Re-derive every invariant of a spec; failures become report entries."""
    failures: list[str] = []
    rank: int | None = None

    try:
        stabs = spec.stabilizer_ops()
        z_bars = spec.logical_z_ops()
        x_bars = spec.logical_x_ops()
    except PauliFormatError as exc:
        return ValidationReport(spec.name, spec.n, spec.k, None, (str(exc),))

    if spec.k not in (1, 2):
        failures.append(f"k must be 1 or 2, got {spec.k}")
    if len(spec.stabilizers) != spec.n - spec.k:
        failures.append(
            f"expected {spec.n - spec.k} stabilizers for [[{spec.n},{spec.k}]], "
            f"got {len(spec.stabilizers)}"
        )
    if len(spec.logical_z) != spec.k:
        failures.append(f"expected {spec.k} logical_z, got {len(spec.logical_z)}")

    group: StabilizerGroup | None = None
    if not failures:
        try:
            group = StabilizerGroup(stabs, n=spec.n)
            rank = group.rank
        except GroupValidationError as exc:
            failures.append(str(exc))

    if group is not None:
        for idx, zb in enumerate(z_bars, start=1):
            if not zb.is_hermitian:
                failures.append(f"logical_z[{idx - 1}] is not Hermitian")
            bad = group.anticommuting(zb)
            if bad:
                failures.append(
                    f"logical_z[{idx - 1}] anticommutes with stabilizer {bad[0]}"
                )
            if group.contains_unsigned(zb):
                failures.append(f"logical_z[{idx - 1}] is in the stabilizer group")
        if spec.k == 2 and len(z_bars) == 2:
            if z_bars[0].anticommutes(z_bars[1]):
                failures.append("the two logical_z anticommute")
            prod = z_bars[0] * z_bars[1]
            if group.contains_unsigned(prod):
                failures.append("logical_z[0]*logical_z[1] is in the stabilizer group")
        for idx, xb in enumerate(x_bars, start=1):
            bad = group.anticommuting(xb)
            if bad:
                failures.append(
                    f"logical_x[{idx - 1}] anticommutes with stabilizer {bad[0]}"
                )
            if idx <= len(z_bars) and not xb.anticommutes(z_bars[idx - 1]):
                failures.append(f"logical_x[{idx - 1}] commutes with its logical_z")

    return ValidationReport(spec.name, spec.n, spec.k, rank, tuple(failures))


_SCHEMA_FIELDS = {
    "name": str,
    "n": int,
    "k": int,
    "stabilizers": list,
    "logical_z": list,
    "logical_x": list,
    "provenance": str,
}
_REQUIRED_FIELDS = ("name", "n", "k", "stabilizers", "logical_z")


def spec_from_dict(doc: dict) -> CodeSpec:
    """Build a CodeSpec from a parsed JSON document, schema-checked."""
    if not isinstance(doc, dict):
        raise SchemaError("top level must be a JSON object")
    unknown = set(doc) - set(_SCHEMA_FIELDS)
    if unknown:
        raise SchemaError(f"unknown field {sorted(unknown)[0]!r}")
    for name in _REQUIRED_FIELDS:
        if name not in doc:
            raise SchemaError(f"missing field {name!r}")
    for name, expected in _SCHEMA_FIELDS.items():
        if name in doc and not isinstance(doc[name], expected):
            raise SchemaError(f"{name} must be {expected.__name__}")
        if name in doc and isinstance(doc[name], bool):
            raise SchemaError(f"{name} must be {expected.__name__}")
    n = doc["n"]
    for key in ("stabilizers", "logical_z", "logical_x"):
        if key not in doc:
            continue
        for i, s in enumerate(doc[key]):
            if not isinstance(s, str):
                raise SchemaError(f"{key}[{i}] must be a string")
            try:
                p = parse_pauli(s)
            except PauliFormatError as exc:
                raise SchemaError(f"{key}[{i}]: {exc}") from exc
            if p.n != n:
                raise SchemaError(f"{key}[{i}] length ({p.n} letters, expected {n})")
    return CodeSpec(
        name=doc["name"],
        n=n,
        k=doc["k"],
        stabilizers=tuple(doc["stabilizers"]),
        logical_z=tuple(doc["logical_z"]),
        logical_x=tuple(doc["logical_x"]) if "logical_x" in doc else None,
        provenance=doc.get("provenance"),
    )


def load_spec(path: str | Path) -> CodeSpec:
    """Load a code spec from its JSON file form."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    return spec_from_dict(doc)


def save_spec(spec: CodeSpec, path: str | Path) -> None:
    """Write the canonical JSON form (round-trips through load_spec)."""
    Path(path).write_text(
        json.dumps(spec.to_json_dict(), indent=2) + "\n", encoding="utf-8"
    )
