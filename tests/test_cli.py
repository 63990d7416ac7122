"""CLI surface: subcommands, JSON reports, and exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from qundet import report
from qundet.cli import main, run
from qundet.codes import catalog, save_spec
from qundet.stabilizer import CosetTable

from helpers import zz_chain_doc

MANIFEST_KEYS = {
    "command", "parameters", "seed", "version", "wall_time_s", "result_digest",
}


def test_analyze_json_file(tmp_path):
    out = tmp_path / "report.json"
    rc = run(["analyze", "--catalog", "code_513", "--json", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert set(doc["manifest"]) == MANIFEST_KEYS
    assert doc["manifest"]["command"] == "analyze"
    assert doc["manifest"]["parameters"]["catalog"] == "code_513"
    assert doc["result"]["name"] == "code_513"
    assert doc["result"]["minimal_unconditional_d"] == 3


def test_analyze_digest_stable(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run(["analyze", "--catalog", "code_412", "--json", str(a)]) == 0
    assert run(["analyze", "--catalog", "code_412", "--json", str(b)]) == 0
    da = json.loads(a.read_text())
    db = json.loads(b.read_text())
    assert da["manifest"]["result_digest"] == db["manifest"]["result_digest"]
    assert da["result"] == db["result"]


def test_analyze_human_text(capsys):
    rc = run(["analyze", "--catalog", "steane_713", "--conditional", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "code steane_713" in out
    assert "minimal unconditional D = 5" in out
    assert "conditional D'=3: 7 undetermined, 28 determined" in out


def test_analyze_json_stdout_keeps_text_on_stderr(capsys):
    rc = run(["analyze", "--catalog", "ghz", "--n", "4", "--json"])
    assert rc == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["result"]["n"] == 4
    assert "code ghz_4" in captured.err


def test_analyze_spec_file(tmp_path, capsys):
    path = tmp_path / "spec.json"
    save_spec(catalog("code_412"), path)
    rc = run(["analyze", "--spec", str(path), "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["name"] == "code_412"


def test_analyze_with_oracle_flag(capsys):
    rc = run(["analyze", "--catalog", "code_412", "--oracle", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["methods"] == ["symbolic", "oracle"]


def test_analyze_oracle_disagreement_exits_2(monkeypatch, capsys):
    # flipped symbolic verdicts make every traced set disagree with the dense oracle
    walk = CosetTable.walk
    monkeypatch.setattr(
        CosetTable, "walk",
        lambda *a, **k: ((m, True if f is None else None) for m, f in walk(*a, **k)),
    )
    assert run(["analyze", "--catalog", "code_412", "--oracle"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: symbolic/oracle disagreement on code_412 traced (1,)")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["analyze"],                                   # no target
    ["analyze", "--catalog", "x", "--spec", "y"],  # both targets
    ["analyze", "--catalog", "not_a_code"],
    ["analyze", "--spec", "/nonexistent/path.json"],
    ["analyze", "--catalog", "ghz"],               # family needs --n
    ["scan-cyclic", "--from", "4"],
    ["qss", "--check-fraction", "1.5"],
    ["bc-demo", "--samples", "0"],
    # a --max-trace below 1 leaves no E_D row to tabulate
    ["analyze", "--catalog", "steane_713", "--max-trace", "0"],
    ["analyze", "--catalog", "steane_713", "--max-trace", "-2"],
    ["qss", "--rounds", str(2**63)],               # past numpy's int64 multinomial count
])
def test_input_errors_exit_1(argv, capsys):
    assert run(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_analyze_spec_rejects_n(tmp_path, capsys):
    # the file fixes n; a --n beside it would be recorded in the manifest
    # while the file's code is analysed
    path = tmp_path / "spec.json"
    save_spec(catalog("code_412"), path)
    assert run(["analyze", "--spec", str(path), "--n", "9", "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --n sizes a --catalog family" in captured.err


def test_analyze_invalid_spec_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "name": "bad", "n": 2, "k": 1,
        "stabilizers": ["ZZ"], "logical_z": ["ZZ"],
    }))
    assert run(["analyze", "--spec", str(path)]) == 1
    assert "error" in capsys.readouterr().err


# README's code_412 example with '-' on a generator and on the logical Z;
# .github/workflows/tests.yml runs the same spec through the installed package
SIGNED_SPEC = {"name": "signed_412", "n": 4, "k": 1,
               "stabilizers": ["-YIYI", "IYIY", "ZZZZ"], "logical_z": ["-YXIZ"]}


def test_signed_spec_file_digest_pinned(tmp_path, capsys):
    # the signs reach every witness ("-XIZY") and the oracle's codewords
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SIGNED_SPEC))
    assert run(["analyze", "--spec", str(path), "--conditional", "1", "--oracle", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [w["witness"] for w in doc["result"]["conditional"]["1"]["determined"]] == [
        "IXYZ", "-XIZY", "-YXIZ", "-XYZI"]
    assert doc["manifest"]["result_digest"] == (
        "ffbf44348f5f06989c5d4ac72bf3300d4918243a9d60754ad3f537a70b777676")


def test_padded_pauli_in_spec_file_exits_1(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**SIGNED_SPEC, "stabilizers": ["-YIYI", "IYIY", "ZZZZ "]}))
    assert run(["analyze", "--spec", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: stabilizers[2]: not a Pauli string: 'ZZZZ '\n"


def test_bad_arguments_raise_exit_1():
    with pytest.raises(SystemExit) as exc:
        run(["not-a-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run(["analyze", "--unknown-flag"])
    assert exc.value.code == 1


def test_scan_cyclic(capsys):
    rc = run(["scan-cyclic", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    rows = {row["n"]: row for row in doc["result"]["rows"]}
    assert set(rows) == set(range(7, 16))
    for n in (7, 9, 11, 13, 14):
        assert rows[n]["valid"] and rows[n]["n_minus_2_undetermined"]
    for n in (8, 10, 12, 15):
        assert not rows[n]["valid"]
        assert rows[n]["failures"]
    assert doc["result"]["claim_ok"] is True


def test_scan_cyclic_human(capsys):
    assert run(["scan-cyclic", "--from", "7", "--to", "9"]) == 0
    out = capsys.readouterr().out
    assert "n= 7: valid" in out
    assert "n= 8: construction invalid" in out


def test_scan_cyclic_past_the_cap(capsys):
    # rank n - 1 passes the enumeration cap (20) after n = 21; those rows
    # keep w_min and d_min null with the reason, and the (n-2) verdict,
    # from the kept-set walk, still counts toward the claim
    assert run(["scan-cyclic", "--from", "21", "--to", "23", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    rows = {row["n"]: row for row in doc["result"]["rows"]}
    assert rows[21]["n_minus_2_undetermined"] is True
    assert (rows[21]["w_min"], rows[21]["d_min"]) == (7, 15)
    assert "note" not in rows[21]
    for n in (22, 23):
        assert rows[n]["valid"]
        assert rows[n]["n_minus_2_undetermined"] is True
        assert rows[n]["w_min"] is rows[n]["d_min"] is None
        assert rows[n]["note"] == (
            f"w_min and d_min not computed: rank {n - 1} exceeds enumeration cap 20"
        )
    assert doc["result"]["claim_ok"] is True
    assert run(["scan-cyclic", "--from", "21", "--to", "23"]) == 0
    out = capsys.readouterr().out
    assert "n=21: valid, w_min=7, D_min=15, (n-2)-undetermined: ok" in out
    assert ("n=22: valid, w_min and d_min not computed: rank 21 exceeds enumeration cap 20, "
            "(n-2)-undetermined: ok") in out


def test_scan_cyclic_claim_failure_exits_2(capsys):
    # n = 6 is valid, but D_min = 5 > n - 2
    assert run(["scan-cyclic", "--from", "5", "--to", "7", "--json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert [row["n_minus_2_undetermined"] for row in doc["result"]["rows"]] == [True, False, True]
    assert doc["result"]["claim_ok"] is False


def test_qss_json(capsys):
    rc = run(["qss", "--rounds", "2000", "--seed", "5", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["manifest"]["seed"] == 5
    assert doc["result"]["honest_key_agreement"] == 1.0
    assert doc["result"]["rounds"] == 2000


def _strict_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_qss_json_is_strict_when_no_round_is_checked(capsys):
    # these 3 rounds keep 3 and check none, so the check radii have no
    # trials: null, not NaN
    assert run(["qss", "--strategy", "delay_discriminate", "--rounds", "3", "--seed", "10",
                "--json"]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=_strict_constant)
    assert doc["result"]["checked"] == 0
    assert doc["result"]["radii"]["check_error_rate"] is None
    assert doc["result"]["radii"]["per_forged_round_detection"] is None


def test_reports_refuse_non_finite_floats():
    with pytest.raises(ValueError):
        report.RunManifest("qss", {}).wrap({"radius": float("nan")})
    with pytest.raises(ValueError):
        report.emit({"radius": float("inf")}, "-", "")


@pytest.mark.parametrize("argv,digest", [
    (["qss", "--parties", "6", "--rounds", "200000", "--seed", "3"],
     "72d53fce9cbd58155bcb232ce7ed1de3015281989a7735fd8add6baa17e51553"),
    (["qss", "--variant", "original", "--parties", "4", "--rounds", "50000", "--seed", "8"],
     "e0116fad10d6e7aa10c4aeec501f8111169b0f4bd8f88d5327d8d5ddc821307a"),
    (["qss", "--strategy", "delay_discriminate", "--rounds", "50000", "--seed", "1"],
     "e6bbff1b4d3f69dc0e0b0d6241ed490da3b2328eaa2b6c6b821077ead2620ab7"),
    (["analyze", "--catalog", "code_422", "--oracle"],
     "e1287eb3fea9f7b4499607ad9fd52ff3195c87b41ea9958b1344ddd13dc5e30b"),
    (["analyze", "--catalog", "steane_713", "--conditional", "3", "--oracle"],
     "05bc8a748aa29f72d28134c7f4ac07c4685b9cd9ac67a01b3e21649bf89acec8"),
    (["qss", "--variant", "original", "--strategy", "delay_discriminate", "--rounds", "50000",
      "--seed", "2"],
     "57b971dfd11652e2c6d5986bcc2c53b5cf292f249b37da5f7e7d00b9384c504c"),
])
def test_qss_digest_pinned(capsys, argv, digest):
    # the seeded samples are part of the answer: a change to the sampler
    # must leave every QssStats field, and so this digest, unchanged.
    # A qss digest reads numpy's binomial sampler, which draws the run's
    # one multinomial a cell at a time.
    # The oracle-checked analyze results hold no floats, so their
    # digests are the same on every platform.
    assert run([*argv, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["manifest"]["result_digest"] == digest


@pytest.mark.parametrize("argv,digest", [
    (["analyze", "--catalog", "code_412", "--max-trace", "3", "--conditional", "2"],
     "08a31e100a0a459535a9378ba4fdca6b38365af1d50f4846ad1686c511df6dd5"),
    (["analyze", "--catalog", "code_513", "--max-trace", "4", "--conditional", "3"],
     "004c3f897d6acc1edbe54de974cf14005ca0dcf9ecfa8ee7aea87018e831ec6b"),
    (["analyze", "--catalog", "steane_713", "--max-trace", "6", "--conditional", "3"],
     "c9dff4c8cb2f285367ee4d829bdb08135458d2424a01cc3720e17434da0d53c0"),
    (["analyze", "--catalog", "code_422", "--max-trace", "3", "--conditional", "2"],
     "a1b6a0d1595dd4b5cc3ed0a576e380b81d49b8c74d0d04086cd4e30c3d1465ca"),
    (["analyze", "--catalog", "ghz", "--n", "10", "--max-trace", "9"],
     "13c5356b313c4926737215f7016ac1409c30f03379523c8913a1031742ae5f4a"),
    (["analyze", "--catalog", "cyclic", "--n", "21", "--max-trace", "12"],
     "738dc2d005d1d7b25271bda6b5110d460c82a29765dc1823aadb84c16f184abb"),
    (["analyze", "--catalog", "cyclic", "--n", "13", "--max-trace", "12", "--conditional", "4"],
     "76abdaff7278996bf90c7fe8564122fdc53aaa83c14f2448de5b0a6622b06f60"),
    (["scan-cyclic", "--from", "7", "--to", "23"],
     "c407fb9a82a8887f7daf0c77af273bba305f197b5593837c37300362774ea86a"),
    (["analyze", "--catalog", "ghz", "--n", "19"],
     "f8a807cfa8ef5944edb570ea92abe625e56880c58ffe723a6636eca618c01dff"),
    # rank 18, whose w_min and E_D histogram read every block of its tables
    (["analyze", "--catalog", "cyclic", "--n", "19"],
     "8c476a6ec5c5fc3d86e91cec8cb1c667cbd188baf24e47b5d60eb4934ea026c3"),
    # 17,472 witnesses, each set stepped once by the kept-set walk
    (["analyze", "--catalog", "cyclic", "--n", "21", "--conditional", "5"],
     "1dfa4f31c498df9eb96a74f9abb80bd845a14facda25394f13621cd1568d4efa"),
    # 2,080 witnesses past 64 qubits, from the same kept-set walk as below them
    (["analyze", "--catalog", "cyclic", "--n", "65", "--conditional", "2"],
     "a615104a1869cbfd47c82c11d3502405ab6f4185b4bc706e67712488963ac389"),
])
def test_symbolic_digest_pinned(capsys, argv, digest):
    # symbolic reports hold no floats: thresholds, witnesses, distances
    # and counts, so a refactor of the engine must leave these bytes alone
    assert run([*argv, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["manifest"]["result_digest"] == digest


@pytest.mark.parametrize("argv", [
    ["qss", "--parties", "5", "--rounds", "3000", "--seed", "4"],
    ["bc-demo", "--samples", "40", "--seed", "6"],
    ["scan-cyclic", "--from", "7", "--to", "9"],
    ["qss", "--parties", "16", "--rounds", "3000", "--seed", "4"],  # no party cap
])
def test_digest_stable(capsys, argv):
    # analyze and verify-paper have their own two-run tests
    digests = []
    for _ in range(2):
        assert run([*argv, "--json"]) == 0
        digests.append(json.loads(capsys.readouterr().out)["manifest"]["result_digest"])
    assert digests[0] == digests[1]


def test_qss_attack_human(capsys):
    rc = run(["qss", "--strategy", "delay_discriminate", "--rounds", "2000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "attacker solo" in out
    assert "aborted            True" in out


def test_bc_demo_json(capsys):
    rc = run(["bc-demo", "--samples", "50", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["result"]["sender_open_success"] == {"0": 1.0, "1": 1.0}
    assert doc["result"]["samples"] == 50


def test_verify_paper(capsys):
    rc = run(["verify-paper"])
    captured = capsys.readouterr()
    assert rc == 0
    lines = [l for l in captured.err.splitlines() if l.startswith("claim")]
    assert len(lines) == 12
    assert all(" PASS " in l for l in lines)
    assert "12/12 claims passed" in captured.out


def test_verify_paper_digest_stable(tmp_path, capsys):
    docs = []
    for name in ("a.json", "b.json"):
        assert run(["verify-paper", "--json", str(tmp_path / name)]) == 0
        docs.append(json.loads((tmp_path / name).read_text()))
    capsys.readouterr()
    a, b = docs
    assert a["manifest"]["result_digest"] == b["manifest"]["result_digest"]
    assert a["result"] == b["result"]
    # timings stay out of the hashed result, in the manifest
    assert sorted(a["manifest"]["timings_s"]) == sorted(f"claim_{i}" for i in range(1, 13))
    assert "elapsed_s" not in json.dumps(a["result"])


def test_analyze_distance_past_n16(capsys):
    # rank 16 is inside the rank cap, so the class tables give the distance and E_D
    rc = run(["analyze", "--catalog", "ghz", "--n", "17", "--json"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    result = json.loads(captured.out)["result"]
    assert result["w_min"] == 17
    assert result["minimal_unconditional_d"] == 1
    assert result["distance"] == 1
    assert result["x_set_size"] == 2 ** 17
    assert result["e_d_table"] == {"1": {"count": 17, "binomial": 17, "pass": True}}
    assert not any("not computed" in note for note in result["notes"])
    assert "distance d = 1" in captured.err


def test_analyze_past_coset_rank_cap(capsys):
    # rank 21 is past the coset cap, but every GHZ class meets its bound
    # at entry 0, so only the E_D table, which reads blocks, is left out
    rc = run(["analyze", "--catalog", "ghz", "--n", "22", "--json"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    result = json.loads(captured.out)["result"]
    assert result["rank"] == 21
    assert result["w_min"] == 22
    assert result["minimal_unconditional_d"] == 1
    assert result["threshold_shares"] == 22
    assert result["x_set_size"] == 2 ** 22
    assert result["distance"] == 1
    assert result["e_d_table"] == {}
    assert result["notes"][1:] == ["e_d_table not computed: rank 21 exceeds enumeration cap 20"]
    assert "difference-coset minimum weight = 22" in captured.err
    assert "minimal unconditional D = 1" in captured.err


def test_analyze_cyclic_past_coset_rank_cap(capsys):
    # cyclic 22 has rank 21 and floor 0, so w_min and the distance need
    # a scan past the cap: null, each with its reason
    jsonschema = pytest.importorskip("jsonschema")
    rc = run(["analyze", "--catalog", "cyclic", "--n", "22", "--json"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    doc = json.loads(captured.out)
    result = doc["result"]
    assert result["rank"] == 21
    assert result["w_min"] is None and result["minimal_unconditional_d"] is None
    assert result["distance"] is None
    assert result["e_d_table"] == {}
    assert result["notes"][1:] == [
        "w_min and minimal_unconditional_d not computed: rank 21 exceeds enumeration cap 20",
        "distance not computed: rank 21 exceeds enumeration cap 20",
    ]
    assert "difference-coset minimum weight = not computed" in captured.err
    assert "distance d = not computed" in captured.err
    schema = json.loads((Path(__file__).resolve().parent.parent / "docs"
                         / "undetermined_report.schema.json").read_text())
    jsonschema.validate(doc, schema)


def test_analyze_conditional_past_coset_rank_cap(capsys):
    # kept-set verdicts need no coset table, so the rank cap leaves them alone
    rc = run(["analyze", "--catalog", "ghz", "--n", "22", "--conditional", "1", "--json"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    scan = json.loads(captured.out)["result"]["conditional"]["1"]
    assert scan["undetermined"] == [[q] for q in range(1, 23)]
    assert scan["determined"] == []
    assert "conditional D'=1: 22 undetermined, 0 determined" in captured.err


def test_analyze_conditional_past_row_cap(capsys):
    # past 64 qubits each traced set is decided by its own Python-int elimination
    jsonschema = pytest.importorskip("jsonschema")
    rc = run(["analyze", "--catalog", "ghz", "--n", "65", "--conditional", "1", "--json"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    doc = json.loads(captured.out)
    result = doc["result"]
    assert result["conditional"]["1"] == {
        "d_prime": 1, "undetermined": [[q] for q in range(1, 66)], "determined": []}
    assert "conditional D'=1: 65 undetermined, 0 determined" in captured.err
    schema = json.loads((Path(__file__).resolve().parent.parent / "docs"
                         / "undetermined_report.schema.json").read_text())
    jsonschema.validate(doc, schema)
    # a D' outside 1..n-1 is still an input error
    assert run(["analyze", "--catalog", "ghz", "--n", "65", "--conditional", "65"]) == 1
    capsys.readouterr()


def test_analyze_mixed_pair_past_coset_rank_cap(tmp_path, capsys):
    # a k=2 code of rank 21: entry 0 settles w_min, but the mixed pair's
    # weight-D members read blocks past the cap, so it is null
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(zz_chain_doc(23)))
    rc = run(["analyze", "--spec", str(path), "--json"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    result = json.loads(captured.out)["result"]
    assert (result["k"], result["rank"]) == (2, 21)
    assert (result["w_min"], result["minimal_unconditional_d"]) == (23, 1)
    assert result["mixed"] is None
    assert "mixed not computed: rank 21 exceeds enumeration cap 20" in result["notes"]


@pytest.mark.parametrize("extra", [[], ["--oracle"]])
def test_analyze_spec_without_stabilizers(tmp_path, capsys, extra):
    path = tmp_path / "one.json"
    path.write_text(json.dumps({"name": "one", "n": 1, "k": 1,
                                "stabilizers": [], "logical_z": ["Z"]}))
    rc = run(["analyze", "--spec", str(path), "--json"] + extra)
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    result = json.loads(captured.out)["result"]
    assert (result["n"], result["rank"], result["w_min"]) == (1, 0, 1)
    assert result["methods"] == ["symbolic"] + ["oracle"] * bool(extra)


def test_analyze_mixed_pair_members_past_n16(tmp_path, capsys):
    # a k=2 code at n = 17: the class tables list X12's weight-D members
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(zz_chain_doc()))
    rc = run(["analyze", "--spec", str(path), "--json"])
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    result = json.loads(captured.out)["result"]
    assert result["rank"] == 15
    assert result["mixed"]["d_mixed"] == 1
    assert result["mixed"]["x12_size"] == 2 ** (2 * 17 - 15 - 1)
    # Y or Z on the free qubit 17, and Z on any chain qubit, in letters order
    assert result["mixed"]["weight_d_members"] == ["I" * 16 + "Y"] + [
        "I" * (q - 1) + "Z" + "I" * (17 - q) for q in range(17, 0, -1)
    ]
    assert not any("not computed" in note for note in result["notes"])


def test_main_raises_system_exit(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["qundet", "bc-demo", "--samples", "5"])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0
    capsys.readouterr()


def test_module_entry_point(tmp_path):
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "qundet.cli", "analyze", "--catalog", "ghz",
         "--n", "3", "--json", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text())["result"]["name"] == "ghz_3"
    assert f"wrote {out}" in proc.stderr
