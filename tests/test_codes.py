"""Catalog construction, validation reports, and JSON persistence."""

import json

import pytest

from qundet import codes
from qundet.codes import (
    CodeSpec,
    CodeValidationError,
    SchemaError,
    catalog,
    load_spec,
    save_spec,
    spec_from_dict,
    validate,
)


def test_catalog_names():
    assert set(codes.CATALOG_NAMES) == {
        "ghz", "code_412", "code_513", "cyclic", "steane_713", "code_422",
    }
    with pytest.raises(ValueError):
        catalog("nope")


def test_every_fixed_entry_validates():
    for name in ("code_412", "code_513", "steane_713", "code_422"):
        spec = catalog(name)
        report = validate(spec)
        assert report.ok, report.failures
        assert report.rank == spec.n - spec.k


def test_ghz_catalog():
    spec = catalog("ghz", n=3)
    assert spec.stabilizers == ("ZZI", "IZZ")
    assert spec.logical_z == ("XXX",)
    assert spec.k == 1
    with pytest.raises(ValueError):
        catalog("ghz")
    with pytest.raises(ValueError):
        catalog("ghz", n=1)


def test_cyclic_catalog():
    spec = catalog("cyclic", n=9)
    assert spec.stabilizers[0] == "XXZZZZXXI"
    assert len(spec.stabilizers) == 8
    assert spec.logical_z == ("Z" * 9,)
    with pytest.raises(ValueError):
        catalog("cyclic", n=4)


def test_code_513_equals_cyclic_5():
    assert catalog("code_513").stabilizers == catalog("cyclic", n=5).stabilizers
    assert catalog("code_513").logical_z == catalog("cyclic", n=5).logical_z


def test_fixed_entries_reject_n():
    with pytest.raises(ValueError):
        catalog("code_412", n=5)
    assert catalog("code_412", n=4) == catalog("code_412")


def test_cyclic_invalid_sizes_raise_with_report():
    for n in (8, 10, 12, 15):
        with pytest.raises(CodeValidationError) as exc:
            catalog("cyclic", n=n)
        assert "dependent" in str(exc.value)
        assert not exc.value.report.ok
    for n in (7, 9, 11, 13, 14):
        assert catalog("cyclic", n=n).n == n


def test_steane_stabilizers():
    spec = catalog("steane_713")
    assert spec.stabilizers == (
        "IIXXXXI", "IXXIIXX", "XIXIXIX", "IIZZZZI", "IZZIIZZ", "ZIZIZIZ",
    )
    assert spec.logical_z == ("ZZZZZZZ",)


def test_validate_noncommuting():
    spec = CodeSpec("bad", 2, 1, ("XI",), ("ZI",))
    report = validate(spec)
    assert not report.ok
    assert any("anticommutes" in f for f in report.failures)


def test_validate_counts():
    report = validate(CodeSpec("bad", 4, 1, ("ZZII",), ("XXXX",)))
    assert any("expected 3 stabilizers" in f for f in report.failures)
    report = validate(CodeSpec("bad", 4, 3, ("ZZII",), ("XXXX",)))
    assert any("k must be 1 or 2" in f for f in report.failures)


def test_validate_logical_in_group():
    report = validate(CodeSpec("bad", 2, 1, ("ZZ",), ("ZZ",)))
    assert any("is in the stabilizer group" in f for f in report.failures)


def test_validate_bad_pauli_string():
    report = validate(CodeSpec("bad", 2, 1, ("Q?",), ("ZZ",)))
    assert not report.ok


def test_validate_k2_logical_pair():
    spec = catalog("code_422")
    report = validate(spec)
    assert report.ok
    bad = CodeSpec("bad", 4, 2, ("YYYY", "ZZZZ"), ("IZZI", "IZZI"))
    # second logical_z duplicates the first: the product is the identity,
    # which is in the group
    rep = validate(bad)
    assert any("logical_z[0]*logical_z[1]" in f for f in rep.failures)


def test_validate_without_stabilizers():
    # n = k leaves no stabilizers; the logical Z's alone fix the codewords
    report = validate(CodeSpec("one", 1, 1, (), ("Z",)))
    assert report.ok and report.rank == 0
    assert CodeSpec("one", 1, 1, (), ("Z",)).group().n == 1
    assert validate(CodeSpec("two", 2, 2, (), ("ZI", "IZ"))).ok
    assert not validate(CodeSpec("two", 2, 2, (), ("ZI", "ZI"))).ok


def test_validate_report():
    rep = validate(catalog("code_513"))
    assert rep.ok and rep.rank == 4 and rep.failures == ()


def test_round_trip(tmp_path):
    spec = catalog("code_412")
    path = tmp_path / "c.json"
    save_spec(spec, path)
    assert load_spec(path) == spec


def test_schema_unknown_field():
    with pytest.raises(SchemaError, match="unknown field"):
        spec_from_dict({"name": "x", "n": 2, "k": 1, "stabilizers": ["ZZ"],
                        "logical_z": ["XX"], "extra": 1})


def test_schema_missing_field():
    with pytest.raises(SchemaError, match="missing field 'logical_z'"):
        spec_from_dict({"name": "x", "n": 2, "k": 1, "stabilizers": ["ZZ"]})


def test_schema_wrong_types():
    with pytest.raises(SchemaError, match="n must be int"):
        spec_from_dict({"name": "x", "n": "2", "k": 1, "stabilizers": ["ZZ"],
                        "logical_z": ["XX"]})
    with pytest.raises(SchemaError, match="n must be int"):
        spec_from_dict({"name": "x", "n": True, "k": 1, "stabilizers": ["ZZ"],
                        "logical_z": ["XX"]})
    with pytest.raises(SchemaError, match=r"stabilizers\[0\] must be a string"):
        spec_from_dict({"name": "x", "n": 2, "k": 1, "stabilizers": [3],
                        "logical_z": ["XX"]})


def test_schema_length_mismatch():
    with pytest.raises(SchemaError, match=r"stabilizers\[0\] length"):
        spec_from_dict({"name": "x", "n": 5, "k": 1,
                        "stabilizers": ["ZZII", "IZZI", "IIZZ", "ZIIZ"],
                        "logical_z": ["XXXXX"]})


def test_schema_bad_letters():
    with pytest.raises(SchemaError, match=r"logical_z\[0\]"):
        spec_from_dict({"name": "x", "n": 2, "k": 1, "stabilizers": ["ZZ"],
                        "logical_z": ["AB"]})


def test_load_reports_json_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "name": "x",\n  oops\n}')
    with pytest.raises(SchemaError, match="line 3"):
        load_spec(path)


def test_save_omits_optional_fields(tmp_path):
    spec = CodeSpec("t", 2, 1, ("ZZ",), ("XX",))
    path = tmp_path / "t.json"
    save_spec(spec, path)
    doc = json.loads(path.read_text())
    assert "logical_x" not in doc and "provenance" not in doc
    assert load_spec(path) == spec


def test_logical_x_round_trip(tmp_path):
    spec = CodeSpec("t", 2, 1, ("ZZ",), ("XX",), logical_x=("ZI",))
    report = validate(spec)
    assert report.ok, report.failures
    path = tmp_path / "t.json"
    save_spec(spec, path)
    assert load_spec(path).logical_x == ("ZI",)


def test_validate_logical_x_pairing():
    bad = CodeSpec("t", 2, 1, ("ZZ",), ("XX",), logical_x=("XX",))
    rep = validate(bad)
    assert any("commutes with its logical_z" in f for f in rep.failures)
