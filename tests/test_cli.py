import json
import time
from pathlib import Path

import pytest

from ualgebra.cli import build_parser, main, run

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


def test_basis_on_a_point_with_the_empty_frame(tmp_path):
    """One element, no nullary operation, the empty frame: the sampling is
    bijective (one endomorphism, one empty matrix), but the empty set
    generates nothing, so the biconditional fails and the run exits 1.
    Whether the paper's hypotheses exclude this case is open; this pins the
    report, so that a change to it is made on purpose."""
    frame = tmp_path / "empty_frame.json"
    frame.write_text('{"X": [], "U": []}')
    out, code = run(["basis", str(FIXTURES / "trivial.json"), str(frame)])
    body = out["report"]
    assert code == 1 and body["status"] == "fail"
    assert body["basis"] and body["endo_count"] == 1
    assert body["basis_equivalence"] == {"bijective": True, "generator": False,
                                         "chi_exists": False, "biconditional_ok": False,
                                         "missing_elements": ["e"]}


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


def test_runs_share_one_parser_without_leaks():
    """The parser is built once per process; back-to-back runs of different
    commands and flags parse exactly as a fresh parser would, and no flag or
    default of one run reaches the next."""
    assert build_parser() is build_parser()
    algebra, frame = str(FIXTURES / "semilattice2.json"), str(FIXTURES / "semilattice2_frame.json")
    commands = [["endos", algebra, "--list", "--method", "brute"], ["endos", algebra],
                ["--seed", "7", "commutative", algebra, "--frame", frame],
                ["commutative", algebra, "--Y", "2"], ["basis", algebra, frame],
                ["--samples", "5", "commutative", algebra], ["endos", algebra]]
    for argv in commands:
        assert vars(build_parser().parse_args(argv)) == \
            vars(build_parser.__wrapped__().parse_args(argv))
    reports = [run(argv)[0]["report"] for argv in commands]
    assert reports[0]["method"] == "brute" and len(reports[0]["endos"]) == 16
    assert reports[1]["method"] == "backtrack" and "endos" not in reports[1]
    assert reports[2]["seed"] == 7 and reports[2]["conjugate_commutation"] == "pass"
    assert reports[3]["seed"] == 0 and "conjugate_commutation" not in reports[3]
    assert reports[3]["inputs"] == [algebra]
    assert reports[3]["closure_commutation"]["closure_size"] == 4
    assert reports[5]["pairs"] == reports[3]["pairs"]
    assert reports[5]["closure_commutation"]["closure_size"] == 2  # --Y back to 1
    assert reports[6] == reports[1]


@pytest.mark.parametrize("command, reason", [
    (["commutative", str(FIXTURES / "semilattice3.json"),
      "--frame", str(FIXTURES / "semilattice3_frame.json")],
     "medial check for ('chi_{}', 'chi_{}') needs 134217728 cases"),
    (["endos", str(FIXTURES / "semilattice3.json"), "--method", "brute"],
     "brute-force space 8^8 exceeds cap 100000"),
], ids=["conjugate-pairs", "brute-endos"])
def test_tripped_guard_is_reported_as_such(command, reason):
    """Every size guard, not only --max-carrier, reports guard-exceeded and
    says which guard tripped."""
    out, code = run(command)
    assert code == 1
    body = out["report"]
    assert (body["status"], body["reason"]) == ("guard-exceeded", reason)
    assert "error" not in body


def test_commutative_closure_guard_is_not_a_pass():
    out, code = run(["--guard-tables", "0", "commutative", str(FIXTURES / "semilattice2.json")])
    assert code == 1
    body = out["report"]
    # the closure stopped at its one seed, the projection
    assert body["closure_commutation"] == {"status": "guard-exceeded", "closure_size": 1}
    assert body["status"] == "guard-exceeded"


def _count_calls(monkeypatch, module, name, calls=None) -> list:
    """Wrap ``module.name`` so each call is appended to ``calls``."""
    calls = [] if calls is None else calls
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_commutative_checks_the_medial_law_once(monkeypatch):
    import ualgebra.cli
    import ualgebra.commutativity
    calls = _count_calls(monkeypatch, ualgebra.cli, "is_commutative")
    _count_calls(monkeypatch, ualgebra.commutativity, "is_commutative", calls)
    out, code = run(["commutative", str(FIXTURES / "semilattice2.json")])
    assert code == 0 and out["report"]["closure_commutation"]["status"] == "pass"
    assert len(calls) == 1


def test_commutative_tabulates_only_the_fundamental_operations(monkeypatch):
    # operations and closure members already hold their codes, so nothing is
    # tabulated, in core or through a combinator
    import ualgebra.combinator
    import ualgebra.core
    calls = _count_calls(monkeypatch, ualgebra.core, "tabulate")
    _count_calls(monkeypatch, ualgebra.combinator, "tabulate", calls)
    out, code = run(["commutative", str(FIXTURES / "semilattice3.json"), "--Y", "2"])
    assert code == 0 and out["report"]["closure_commutation"]["closure_size"] == 4
    assert calls == []


def test_gallery_runs():
    for argv in (["gallery", "semilattice", "--size", "3"],
                 ["gallery", "boolean"],
                 ["gallery", "integers"],
                 ["gallery", "gaussian"],
                 ["gallery", "pert", str(FIXTURES / "diamond_project.json"), "--forward"]):
        out, code = run(argv)
        assert code == 0, out
        assert out["report"]["status"] == "pass"


def test_gallery_semilattice_reports_a_broken_twin(monkeypatch):
    # the incidence twin is checked on its names, so a wrong table reads false
    import ualgebra.gallery
    from test_gallery import corrupt
    real = ualgebra.gallery.incidence_transform
    monkeypatch.setattr(ualgebra.gallery, "incidence_transform",
                        lambda alg, ground: (corrupt(real(alg, ground)[0], "union", 1, 0), None))
    out, code = run(["gallery", "semilattice", "--size", "2"])
    assert code == 1
    assert out["report"]["incidence_isomorphic"] is False
    assert out["report"]["status"] == "fail"


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


@pytest.mark.parametrize("alg, frame", [
    ("boolean", "boolean_frame"), ("semilattice2", "semilattice2_frame"),
    ("semilattice2", "semilattice2_constant_frame"), ("semilattice3", "semilattice3_frame")])
def test_basis_does_not_depend_on_the_seed(alg, frame):
    argv = ["basis", str(FIXTURES / f"{alg}.json"), str(FIXTURES / f"{frame}.json")]
    (zero, code_zero), (seven, code_seven) = (run(["--seed", seed, *argv]) for seed in ("0", "7"))
    assert code_zero == code_seven
    assert zero["report"].pop("seed") == 0 and seven["report"].pop("seed") == 7
    assert zero["report"] == seven["report"]


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
    out, code = run(["endos", "no-such-file.json"])
    assert code == 1
    assert out["report"]["status"] == "fail"
    assert "cannot read no-such-file.json" in out["report"]["error"]


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


def test_commutative_frame_skipped_when_not_commutative(monkeypatch):
    # the conjugate check is skipped, so no endomorphism search runs for it
    import ualgebra.cli
    calls = _count_calls(monkeypatch, ualgebra.cli, "build_representation")
    out, code = run(["commutative", str(FIXTURES / "boolean.json"),
                     "--frame", str(FIXTURES / "boolean_frame.json")])
    assert code == 0
    body = out["report"]
    assert not body["commutative"] and body["status"] == "pass"
    assert body["conjugate_commutation"] == "skipped"
    assert calls == []


def test_dilatations_builds_the_monoid_once(monkeypatch):
    import ualgebra.cli
    import ualgebra.dilatation
    calls = _count_calls(monkeypatch, ualgebra.cli, "build_endowed_monoid")
    _count_calls(monkeypatch, ualgebra.dilatation, "build_endowed_monoid", calls)
    out, code = run(["dilatations", str(FIXTURES / "semilattice3.json"),
                     str(FIXTURES / "semilattice3_frame.json")])
    assert code == 0 and out["report"]["fullness_pipeline"] == "pass"
    assert len(calls) == 1


@pytest.mark.parametrize("command", [
    ["basis", str(FIXTURES / "boolean.json")],
    ["dilatations", str(FIXTURES / "boolean.json")],
    ["commutative", str(FIXTURES / "boolean.json"), "--frame"],
    ["commutative", str(FIXTURES / "semilattice2.json"), "--frame"],
], ids=["basis", "dilatations", "commutative-boolean", "commutative-semilattice2"])
def test_frame_outside_carrier_fails(tmp_path, command):
    doc = {"X": ["x"], "U": [{"index": "x", "value": "nope"}]}
    body = _run_with(tmp_path, doc, lambda p: [*command, p])
    assert body["error"] == "frame value outside carrier: nope"


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


def test_duplicate_frame_rows_fail(tmp_path):
    # x -> {x} then x -> {y}: the frame is malformed, not a non-injective sampling
    doc = {"X": ["x", "y"], "U": [{"index": "x", "value": "{x}"},
                                  {"index": "x", "value": "{y}"},
                                  {"index": "y", "value": "{y}"}]}
    algebra = str(FIXTURES / "semilattice2.json")
    body = _run_with(tmp_path, doc, lambda p: ["basis", algebra, p])
    assert body["error"] == "duplicate U rows for frame label 'x'"
    assert "failure" not in body


def _boolean_doc():
    return json.loads((FIXTURES / "boolean.json").read_text())


def _set_table_row(row):
    doc = _boolean_doc()
    doc["operations"][0]["table"][0] = row
    return doc


@pytest.mark.parametrize("doc, error", [
    ([1, 2], "an algebra document must be an object: [1, 2]"),
    ({**_boolean_doc(), "operations": [["meet"]]}, "an operation must be an object: ['meet']"),
    (_set_table_row(["bot", "bot"]), "a table row must be an object: ['bot', 'bot']"),
    (_set_table_row({"args": "bot", "value": "bot"}), "args must be an array: 'bot'"),
])
def test_algebra_wrong_shape_fails(tmp_path, doc, error):
    body = _run_with(tmp_path, doc, lambda p: ["endos", p])
    assert body["error"].endswith(error)


@pytest.mark.parametrize("doc, error", [
    (["x"], "a frame document must be an object: ['x']"),
    ({"X": ["x"], "U": [["x", "{x}"]]}, "a U row must be an object: ['x', '{x}']"),
])
def test_frame_wrong_shape_fails(tmp_path, doc, error):
    algebra = str(FIXTURES / "semilattice2.json")
    body = _run_with(tmp_path, doc, lambda p: ["basis", algebra, p])
    assert body["error"] == error


def _project(**changes):
    doc = {"events": ["a", "b"],
           "M": [{"event": "a", "successors": [{"event": "b", "time": 1}]},
                 {"event": "b", "successors": []}]}
    doc.update(changes)
    return doc


def _successor(**changes):
    return _project(M=[{"event": "a", "successors": [{"event": "b", "time": 1, **changes}]},
                       {"event": "b", "successors": []}])


@pytest.mark.parametrize("doc, error", [
    ({"events": ["a"]}, "missing field 'M'"),
    ({"M": []}, "missing field 'events'"),
    (_project(M=[{"successors": []}]), "missing field 'event'"),
    (_project(M=[{"event": "a"}]), "missing field 'successors'"),
    (_project(M=[{"event": "a", "successors": [{"event": "b"}]}]), "missing field 'time'"),
    (["a"], "a project document must be an object: ['a']"),
    (_project(events="ab"), "events must be an array: 'ab'"),
    (_project(M=[["a", []]]), "an M row must be an object: ['a', []]"),
    (_project(M=[{"event": "a", "successors": {"b": 1}}]),
     "successors of a must be an array: {'b': 1}"),
    (_successor(time="1"), "time of a -> b must be an integer: '1'"),
    (_successor(time=True), "time of a -> b must be an integer: True"),
    (_project(M=[{"event": "a", "successors": []}] * 2), "duplicate M rows for event 'a'"),
    (_project(M=[{"event": "a", "successors": [{"event": "b", "time": 1}] * 2},
                 {"event": "b", "successors": []}]), "duplicate successor 'b' of event 'a'"),
    (_successor(event="z"), "successor 'z' of event 'a' is not an event"),
    ({"events": [], "M": []}, "a project needs at least one event"),
])
def test_gallery_pert_bad_project_fails(tmp_path, doc, error):
    body = _run_with(tmp_path, doc, lambda p: ["gallery", "pert", p, "--forward"])
    assert body["error"] == error


@pytest.mark.parametrize("argv, error", [
    (["--samples", "-3", "basis", str(FIXTURES / "semilattice3.json"),
      str(FIXTURES / "semilattice3_frame.json")], "--samples -3 is below 1"),
    (["--max-carrier", "0", "basis", str(FIXTURES / "semilattice2.json"),
      str(FIXTURES / "semilattice2_frame.json")], "--max-carrier 0 is below 1"),
    (["commutative", str(FIXTURES / "semilattice2.json"), "--Y", "-1"], "--Y -1 is below 0"),
    (["--guard-tables", "-1", "commutative", str(FIXTURES / "semilattice2.json")],
     "--guard-tables -1 is below 0"),
], ids=["samples", "max-carrier", "Y", "guard-tables"])
def test_out_of_range_flag_fails(argv, error):
    # each of these ran before, drawing no sample or clamping the value
    out, code = run(argv)
    assert code == 1
    assert out["report"]["status"] == "fail"
    assert out["report"]["error"] == error


@pytest.mark.parametrize("command", [
    ["basis", str(FIXTURES / "semilattice2.json"), str(FIXTURES / "semilattice2_frame.json")],
    ["dilatations", str(FIXTURES / "semilattice2.json"),
     str(FIXTURES / "semilattice2_frame.json")],
    ["commutative", str(FIXTURES / "semilattice2.json")],
], ids=["basis", "dilatations", "commutative"])
def test_max_carrier_guards_every_algebra_command(command):
    out, code = run(["--max-carrier", "2", *command])
    endos, _ = run(["--max-carrier", "2", "endos", str(FIXTURES / "semilattice2.json")])
    assert code == 1
    body = out["report"]
    assert body["status"] == "guard-exceeded"
    assert {k: body[k] for k in ("status", "reason")} == \
        {k: endos["report"][k] for k in ("status", "reason")}
    assert set(body) == set(endos["report"])


GOLDEN = Path(__file__).resolve().parent / "golden_reports.json"
MONOID = "{monoid}"  # stands for the --emit-monoid file in a golden command


def _golden_commands() -> list[list[str]]:
    """Every fixture through the pipeline commands, and the gallery, under two
    seeds; the inputs are paths relative to the repository root."""
    fixture = "fixtures/{}.json".format
    runs = []
    for alg, frame in (("boolean", "boolean_frame"), ("semilattice2", "semilattice2_frame"),
                       ("semilattice2", "semilattice2_constant_frame"),
                       ("semilattice3", "semilattice3_frame")):
        runs += [["basis", fixture(alg), fixture(frame)],
                 ["dilatations", fixture(alg), fixture(frame), "--emit-monoid", MONOID],
                 ["commutative", fixture(alg), "--frame", fixture(frame)]]
    for alg in ("boolean", "semilattice2", "semilattice3", "trivial"):
        runs += [["endos", fixture(alg), "--list", "--method", "backtrack"],
                 ["endos", fixture(alg), "--list", "--method", "brute"],
                 ["commutative", fixture(alg), "--Y", "2"],
                 ["--guard-tables", "0", "commutative", fixture(alg)]]
    runs += [["gallery", "semilattice", "--size", size] for size in ("1", "2", "3")]
    runs += [["gallery", name] for name in ("boolean", "integers", "gaussian")]
    runs.append(["gallery", "pert", fixture("diamond_project"), "--forward"])
    return [["--seed", seed, *argv] for seed in ("0", "7") for argv in runs]


def _golden_record(argv: list[str], monoid_path: Path) -> dict:
    """The exit code, report body and emitted monoid of one golden command,
    run from the repository root."""
    monoid_path.unlink(missing_ok=True)
    out, code = run([str(monoid_path) if a == MONOID else a for a in argv])
    monoid = json.loads(monoid_path.read_text()) if monoid_path.exists() else None
    return {"code": code, "report": json.loads(json.dumps(out["report"])), "monoid": monoid}


def test_golden_report_bodies(tmp_path, monkeypatch):
    monkeypatch.chdir(FIXTURES.parent)
    golden = json.loads(GOLDEN.read_text())
    assert set(golden) == {" ".join(argv) for argv in _golden_commands()}
    for argv in _golden_commands():
        assert _golden_record(argv, tmp_path / "monoid.json") == golden[" ".join(argv)], argv


if __name__ == "__main__":
    # re-record tests/golden_reports.json: PYTHONPATH=src python tests/test_cli.py
    import os
    import tempfile

    os.chdir(FIXTURES.parent)
    with tempfile.TemporaryDirectory() as tmp:
        records = {" ".join(argv): _golden_record(argv, Path(tmp) / "monoid.json")
                   for argv in _golden_commands()}
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
