"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench
"""

import itertools
import json
import random
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import ualgebra.cli  # noqa: E402,F401  (loads every layer)
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMALL_FIXTURES = ("boolean", "boolean_frame", "semilattice2", "semilattice2_frame",
                  "semilattice2_constant_frame", "trivial", "diamond_project")


@pytest.fixture
def small_root(tmp_path):
    """A source root whose fixtures/ holds only the small fixtures."""
    (tmp_path / "fixtures").mkdir()
    for name in SMALL_FIXTURES:
        shutil.copy(ROOT / "fixtures" / f"{name}.json", tmp_path / "fixtures")
    return tmp_path


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every generated workload to a fraction of a second."""
    monkeypatch.setattr(workloads, "CHAIN_SIZES", (3, 4))
    monkeypatch.setattr(workloads, "CHAIN_PASSES", 2)
    monkeypatch.setattr(inputs, "STRATA", tuple(s for s in inputs.STRATA if s[1] < 4))
    monkeypatch.setattr(workloads, "PROJECTS_PER_PASS", 3)
    monkeypatch.setattr(workloads, "GALLERY_PASSES", 2)
    monkeypatch.setattr(workloads, "CHECK_SAMPLES", 20)
    monkeypatch.setattr(workloads, "MEDIAL_SAMPLES", 10)


_dirs = itertools.count()


def _setup(name, seed, tmp_path, root):
    return workloads.setup(name, seed, tmp_path / f"{name}-{next(_dirs)}", root)


@pytest.mark.parametrize("name", sorted(workloads.SETUPS))
def test_each_workload_runs_tiny(name, tiny, small_root, tmp_path):
    workload = _setup(name, 3, tmp_path, small_root)
    outcome, plain_s, traced_s, tracer = run.measure(workload, 0, trace=True)
    assert len(plain_s) == len(traced_s) == 1
    assert outcome.correct, outcome.failures
    metrics = run.end_to_end(outcome, setup_s=0.1, slowness=outcome.host.slowness())
    assert set(metrics) == {name for name, _unit in run.END_TO_END}
    assert metrics["ops_per_s"] > 0 and metrics["op_p90_s"] >= metrics["op_p50_s"] > 0
    layers = run.per_layer(tracer, plain_s, traced_s)
    assert all(value >= 0 for key, value in layers.items() if key != "trace.overhead_s")


def test_cli_fixtures_known_failures(small_root, tmp_path):
    workload = _setup("cli-fixtures", 0, tmp_path, small_root)
    outcome, *_ = run.measure(workload, 0, trace=False)
    assert outcome.correct
    assert [label for label, _problem, known in outcome.failures] == \
        ["commutative boolean boolean_frame"]
    assert all(known for *_rest, known in outcome.failures)


def test_oracle_rejects_a_wrong_count(tmp_path, small_root):
    workload = _setup("cli-fixtures", 0, tmp_path, small_root)
    op = next(op for op in workload.passes[0] if op.label == "endos semilattice2")
    output, code = op.call(spans.client_api())
    assert op.check((output, code)) is None
    output["report"]["count"] = 15
    assert "count" in op.check((output, code))


def test_traced_report_is_byte_identical(small_root, tmp_path):
    workload = _setup("cli-fixtures", 5, tmp_path, small_root)
    tracer = spans.Tracer()
    plain, traced_api = spans.client_api(), spans.client_api(tracer)
    for op in workload.passes[0]:
        untraced, code = op.call(plain)
        with tracer.installed(), tracer.operation(workload.root):
            traced, traced_code = op.call(traced_api)
        assert code == traced_code
        assert json.dumps(traced["report"], sort_keys=True).encode() == \
            json.dumps(untraced["report"], sort_keys=True).encode()
    # every wrapper is removed again
    for module, attr, _span in spans.BOUNDARIES + spans.FOLDED:
        assert not hasattr(getattr(sys.modules[module], attr), "__wrapped__")


def test_self_times_add_up_to_each_operation(tiny, small_root, tmp_path):
    workload = _setup("cli-fixtures", 1, tmp_path, small_root)
    _outcome, _plain, traced_s, tracer = run.measure(workload, 0, trace=True)
    per_op = tracer.per_operation()
    assert len(per_op) == len(workload.passes[0])
    for root_s, total_s in per_op.values():
        assert total_s == pytest.approx(root_s, abs=1e-9)
    assert sum(root for root, _total in per_op.values()) <= traced_s[0]
    names = {span.name for span in tracer.spans}
    assert {"cli.self", "core.load", "representation.verify", "elementary.generator",
            "commutativity.medial", "dilatation.analyze", "gallery.pert"} <= names


def test_folded_calls_are_counted_not_spanned(tiny, tmp_path):
    workload = _setup("closure-random", 2, tmp_path, ROOT)
    _outcome, _plain, _traced, tracer = run.measure(workload, 0, trace=True)
    assert tracer.counters()["combinator.compose_calls"] > 0
    assert not any(span.name == "combinator.compose" for span in tracer.spans)
    assert tracer.self_times()["combinator.compose"] > 0


def test_same_seed_same_counts(tiny, small_root, tmp_path):
    def counts(name, seed):
        workload = _setup(name, seed, tmp_path, small_root)
        outcome, _plain, _traced, tracer = run.measure(workload, 0, trace=True)
        return tracer.counters(), outcome.attempted

    for name in sorted(workloads.SETUPS):
        assert counts(name, 7) == counts(name, 7)


def test_inputs_repeat_per_seed():
    def draw(seed):
        rng = random.Random(seed)
        return (inputs.relabeled_chain(rng, 5), inputs.random_algebra(rng),
                inputs.random_project(rng, 6, 0.5))
    assert draw(4) == draw(4)
    assert draw(4) != draw(5)


def test_closure_levels_match_the_program(tmp_path):
    rng = random.Random(11)
    core, elementary = sys.modules["ualgebra.core"], sys.modules["ualgebra.elementary"]
    for _ in range(30):
        doc, _frame = inputs.random_algebra(rng, max_size=3)
        closure = elementary.elementary_closure(core.algebra_from_dict(doc), ("y",))
        assert inputs.closure_levels(doc)[-1] == len(closure.functions)


def test_quantile_is_the_mean_of_its_band():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert run.quantile(values, 0.5) == pytest.approx(50.5)  # mean of 46..55
    assert run.quantile(values, 0.9) == pytest.approx(90.5)  # mean of 86..95
    assert run.quantile([3.0], 0.9) == 3.0


def test_closure_picks_lie_near_their_targets():
    passes = inputs.stratified_algebras(random.Random(8), 2)
    assert passes[0][-3:] == passes[1][-3:]  # shared 4-element picks
    picks = iter(passes[1])
    for name, _size, _full, _quota in inputs.STRATA:
        for target in inputs.WORK_TARGETS[name]:
            work = next(picks)["work"]
            if name in ("n3-full", "n4-full"):
                assert abs(work - target) <= 0.05 * target


def test_chain_counts():
    assert [inputs.chain_count(n) for n in (6, 7, 8)] == [462, 1716, 6435]


def test_missing_source_exits_without_result(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "endos-chains", "--seed", "0", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_names_every_reported_metric(tiny, tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _unit in run.END_TO_END]
    workload = _setup("closure-random", 1, tmp_path, ROOT)
    _outcome, plain_s, traced_s, tracer = run.measure(workload, 0, trace=True)
    layers = run.per_layer(tracer, plain_s, traced_s)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: run.unit(name) for name in layers}
    # no span's self time goes unreported
    spanned = {span for *_where, span in spans.BOUNDARIES + spans.FOLDED + spans.CLIENT if span}
    assert spanned <= set(run.PER_LAYER_TIMES)
