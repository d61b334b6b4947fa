import json
import time
from pathlib import Path

import pytest

from ualgebra.cli import main, run

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def test_endos_semilattice(capsys):
    code = main(["endos", str(FIXTURES / "semilattice2.json")])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["report"]["count"] == 16
    assert set(out) == {"report", "timings"}


def test_endos_methods_agree():
    brute, code_b = run(["endos", str(FIXTURES / "boolean.json"), "--method", "brute",
                         "--list"])
    back, code_k = run(["endos", str(FIXTURES / "boolean.json"), "--method", "backtrack",
                        "--list"])
    assert code_b == code_k == 0
    assert brute["report"]["endos"] == back["report"]["endos"]
    assert len(brute["report"]["endos"]) == 4


def test_endos_guard():
    out, code = run(["--max-carrier", "2",
                     "endos", str(FIXTURES / "semilattice2.json")])
    assert code == 1
    assert out["report"]["status"] == "guard-exceeded"


def test_basis_pass():
    out, code = run(["basis", str(FIXTURES / "semilattice2.json"),
                     str(FIXTURES / "semilattice2_frame.json")])
    assert code == 0
    body = out["report"]
    assert body["basis"] and body["status"] == "pass"
    assert body["basis_equivalence"]["biconditional_ok"]


def test_basis_failure_is_reported():
    out, code = run(["basis", str(FIXTURES / "semilattice2.json"),
                     str(FIXTURES / "semilattice2_constant_frame.json")])
    body = out["report"]
    assert not body["basis"]
    assert "failure" in body
    # the biconditional still holds, so the run can pass overall
    assert body["basis_equivalence"]["biconditional_ok"]


def test_dilatations_with_monoid(tmp_path):
    emitted = tmp_path / "monoid.json"
    out, code = run(["dilatations", str(FIXTURES / "semilattice2.json"),
                     str(FIXTURES / "semilattice2_frame.json"),
                     "--emit-monoid", str(emitted)])
    assert code == 0
    body = out["report"]
    assert body["delta_size"] == 2 and body["full"] and body["monoid"]
    assert body["distributivities"] == "pass"
    assert body["fullness_pipeline"] == "pass"
    doc = json.loads(emitted.read_text())
    assert set(doc) == {"delta", "unit", "product", "image_ops"}
    assert len(doc["delta"]) == 2


def test_dilatations_skipped_without_bijection():
    out, code = run(["dilatations", str(FIXTURES / "semilattice2.json"),
                     str(FIXTURES / "semilattice2_constant_frame.json")])
    assert code == 1
    assert out["report"]["status"] == "skipped"


def test_commutative_boolean():
    out, code = run(["commutative", str(FIXTURES / "boolean.json"),
                     "--frame", str(FIXTURES / "boolean_frame.json")])
    body = out["report"]
    assert not body["commutative"]
    assert body["closure_commutation"]["status"] == "skipped"
    witnesses = [p for p in body["pairs"] if not p["holds"]]
    assert witnesses and all("witness" in p for p in witnesses)


def test_commutative_semilattice_with_conjugates():
    out, code = run(["commutative", str(FIXTURES / "semilattice2.json"),
                     "--frame", str(FIXTURES / "semilattice2_frame.json"),
                     "--Y", "2"])
    assert code == 0
    body = out["report"]
    assert body["commutative"]
    assert body["closure_commutation"] == {"status": "pass", "closure_size": 4}
    assert body["conjugate_commutation"] == "pass"


def test_gallery_runs():
    for argv in (["gallery", "semilattice", "--size", "3"],
                 ["gallery", "boolean"],
                 ["gallery", "integers"],
                 ["gallery", "gaussian"],
                 ["gallery", "pert", str(FIXTURES / "diamond_project.json"), "--forward"]):
        out, code = run(argv)
        assert code == 0, out
        assert out["report"]["status"] == "pass"


def test_gallery_pert_trajectory():
    out, _code = run(["gallery", "pert", str(FIXTURES / "diamond_project.json"),
                      "--forward", "--seed-event", "a"])
    body = out["report"]
    assert body["trajectory"] == [{"b": 1, "c": 3}, {"d": 8}, {}]
    assert body["oracle_agrees"]


def test_gallery_pert_needs_project():
    out, code = run(["gallery", "pert"])
    assert code == 1
    assert "error" in out["report"]


def test_reports_are_deterministic():
    for argv in (["--seed", "0", "gallery", "integers"],
                 ["--seed", "0", "gallery", "gaussian"],
                 ["--seed", "0", "commutative", str(FIXTURES / "semilattice2.json")]):
        first, _ = run(argv)
        second, _ = run(argv)
        a = json.dumps(first["report"], sort_keys=True)
        b = json.dumps(second["report"], sort_keys=True)
        assert a.encode() == b.encode()


def test_seed_changes_sampled_reports():
    one, _ = run(["--seed", "1", "gallery", "integers"])
    two, _ = run(["--seed", "2", "gallery", "integers"])
    assert one["report"]["seed"] == 1 and two["report"]["seed"] == 2


def test_out_file_and_text_mode(tmp_path, capsys):
    target = tmp_path / "report.txt"
    code = main(["--text", "--out", str(target),
                 "endos", str(FIXTURES / "trivial.json")])
    assert code == 0
    assert capsys.readouterr().out == ""
    content = target.read_text()
    assert content.startswith("endos: pass")
    assert "count: 1" in content


def test_missing_file_errors():
    with pytest.raises(FileNotFoundError):
        run(["endos", "no-such-file.json"])


def test_duplicate_operation_symbol_fails(tmp_path):
    # with two operations named meet, a witness term could name either one
    doc = json.loads((FIXTURES / "boolean.json").read_text())
    for od in doc["operations"]:
        if od["symbol"] == "neg":
            od["symbol"] = "meet"
    path = tmp_path / "boolean_dup.json"
    path.write_text(json.dumps(doc))
    out, code = run(["commutative", str(path), "--Y", "1"])
    assert code == 1
    assert out["report"]["status"] == "fail"
    assert "duplicate operation symbols" in out["report"]["error"]


def test_gallery_semilattice_size_out_of_range():
    for size in ("0", "5", "-1"):
        started = time.perf_counter()
        out, code = run(["gallery", "semilattice", "--size", size])
        assert time.perf_counter() - started < 1.0
        assert code == 1
        assert out["report"]["status"] == "fail"
        assert "1..4" in out["report"]["error"]


def test_commutative_frame_skipped_when_not_commutative():
    out, code = run(["commutative", str(FIXTURES / "boolean.json"),
                     "--frame", str(FIXTURES / "boolean_frame.json")])
    assert code == 0
    body = out["report"]
    assert not body["commutative"] and body["status"] == "pass"
    assert body["conjugate_commutation"] == "skipped"


def _run_with(tmp_path, doc, argv_of) -> dict:
    path = tmp_path / "doc.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    out, code = run(argv_of(str(path)))
    assert code == 1
    assert out["report"]["status"] == "fail"
    return out["report"]


def test_non_json_file_fails(tmp_path):
    body = _run_with(tmp_path, "{not json", lambda p: ["endos", p])
    assert "not a JSON document" in body["error"]


@pytest.mark.parametrize("field", ["symbol", "rank", "table", "args", "value"])
def test_algebra_missing_field_fails(tmp_path, field):
    doc = json.loads((FIXTURES / "boolean.json").read_text())
    op = doc["operations"][0]
    if field in ("args", "value"):
        del op["table"][0][field]
    else:
        del op[field]
    body = _run_with(tmp_path, doc, lambda p: ["endos", p])
    assert body["error"] == f"missing field '{field}'"


@pytest.mark.parametrize("field", ["X", "U", "index", "value"])
def test_frame_missing_field_fails(tmp_path, field):
    doc = json.loads((FIXTURES / "semilattice2_frame.json").read_text())
    if field in ("index", "value"):
        del doc["U"][0][field]
    else:
        del doc[field]
    algebra = str(FIXTURES / "semilattice2.json")
    body = _run_with(tmp_path, doc, lambda p: ["basis", algebra, p])
    assert body["error"] == f"missing field '{field}'"


def test_non_string_element_names_fail(tmp_path):
    doc = {"elements": [0, 1], "operations": [
        {"symbol": "f", "rank": ["a"],
         "table": [{"args": [0], "value": 1}, {"args": [1], "value": 0}]}]}
    body = _run_with(tmp_path, doc, lambda p: ["endos", p])
    assert "element names must be strings" in body["error"]


def test_non_string_frame_value_fails(tmp_path):
    doc = json.loads((FIXTURES / "semilattice2_frame.json").read_text())
    doc["U"][0]["value"] = ["{x}"]
    algebra = str(FIXTURES / "semilattice2.json")
    body = _run_with(tmp_path, doc, lambda p: ["basis", algebra, p])
    assert "frame values must be strings" in body["error"]
