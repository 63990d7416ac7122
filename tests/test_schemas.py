"""Shipped JSON schemas versus what the tools actually emit."""

import json
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from qundet.cli import run
from qundet.codes import catalog, save_spec

from helpers import zz_chain_doc

DOCS = Path(__file__).resolve().parent.parent / "docs"


@pytest.fixture(scope="module")
def spec_schema():
    schema = json.loads((DOCS / "code_spec.schema.json").read_text())
    jsonschema.Draft202012Validator.check_schema(schema)
    return schema


@pytest.fixture(scope="module")
def report_schema():
    schema = json.loads((DOCS / "undetermined_report.schema.json").read_text())
    jsonschema.Draft202012Validator.check_schema(schema)
    return schema


@pytest.mark.parametrize("name,n", [
    ("code_412", None), ("code_513", None), ("steane_713", None),
    ("code_422", None), ("ghz", 5), ("cyclic", 7),
])
def test_saved_specs_conform(tmp_path, spec_schema, name, n):
    path = tmp_path / "spec.json"
    save_spec(catalog(name, n=n) if n else catalog(name), path)
    jsonschema.validate(json.loads(path.read_text()), spec_schema)


def test_schema_rejects_unknown_field(spec_schema):
    doc = {"name": "x", "n": 2, "k": 1, "stabilizers": ["ZZ"],
           "logical_z": ["XX"], "extra": 1}
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(doc, spec_schema)


@pytest.mark.parametrize("argv", [
    ["analyze", "--catalog", "code_513", "--conditional", "1",
     "--conditional", "3", "--max-trace", "4", "--oracle"],
    ["analyze", "--catalog", "code_422"],
    ["analyze", "--catalog", "steane_713", "--conditional", "3"],
    ["analyze", "--catalog", "ghz", "--n", "6"],
    ["analyze", "--catalog", "ghz", "--n", "17"],
    ["analyze", "--catalog", "ghz", "--n", "22"],
    ["analyze", "--catalog", "ghz", "--n", "22", "--conditional", "1"],
])
def test_analyze_reports_conform(tmp_path, capsys, report_schema, argv):
    out = tmp_path / "report.json"
    assert run(argv + ["--json", str(out)]) == 0
    capsys.readouterr()
    jsonschema.validate(json.loads(out.read_text()), report_schema)


def test_no_unconditional_d_report_conforms(tmp_path, capsys, report_schema):
    spec = tmp_path / "w1.json"
    spec.write_text(json.dumps({
        "name": "w1", "n": 2, "k": 1,
        "stabilizers": ["ZZ"], "logical_z": ["ZI"],
    }))
    out = tmp_path / "report.json"
    assert run(["analyze", "--spec", str(spec), "--json", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["result"]["minimal_unconditional_d"] is None
    jsonschema.validate(doc, report_schema)


def test_mixed_pair_past_cap_conforms(tmp_path, capsys, report_schema):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(zz_chain_doc()))
    out = tmp_path / "report.json"
    assert run(["analyze", "--spec", str(spec), "--json", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert len(doc["result"]["mixed"]["weight_d_members"]) == 18
    jsonschema.validate(doc, report_schema)


def test_mixed_pair_past_coset_cap_conforms(tmp_path, capsys, report_schema):
    # rank 21: w_min computes, and the whole mixed pair is null
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(zz_chain_doc(23)))
    out = tmp_path / "report.json"
    assert run(["analyze", "--spec", str(spec), "--json", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["result"]["mixed"] is None
    jsonschema.validate(doc, report_schema)


@pytest.mark.parametrize("extra", [[], ["--oracle"]])
def test_no_stabilizer_spec_conforms(tmp_path, capsys, report_schema, extra):
    spec = tmp_path / "one.json"
    spec.write_text(json.dumps({"name": "one", "n": 1, "k": 1,
                                "stabilizers": [], "logical_z": ["Z"]}))
    out = tmp_path / "report.json"
    assert run(["analyze", "--spec", str(spec), "--json", str(out)] + extra) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["result"]["rank"] == 0
    jsonschema.validate(doc, report_schema)
