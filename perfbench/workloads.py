"""The four workloads: seeded inputs, the operations run on them, and the
oracle each operation's result is checked against.

``setup(name, seed, workdir, root)`` writes the workload's inputs under
``workdir``, loads them back through the program's loaders and returns the
operations, grouped into passes.  A run repeats whole passes, so every run
holds the same mix of operations.  Operations call the program only through
``api`` (see ``spans.client_api``); oracles use functions captured at set-up,
so they never run traced.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import inputs


@dataclass
class Op:
    label: str
    call: Callable[[SimpleNamespace], Any]
    # the oracle: None when the result is right, else what is wrong
    check: Callable[[Any], str | None]
    # why this operation fails as of this benchmark, if it does
    known_failure: str | None = None


@dataclass
class Workload:
    root: str  # name of the root span of each operation
    passes: list[list[Op]]


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _program():
    """The program's modules, as imported by the current set-up."""
    m = sys.modules
    return SimpleNamespace(
        core=m["ualgebra.core"], representation=m["ualgebra.representation"],
        elementary=m["ualgebra.elementary"], gallery=m["ualgebra.gallery"],
        pert=m["ualgebra.gallery.pert"])


def _cli_check(want_code: int, want: dict) -> Callable:
    """Compare a CLI result's exit code and report fields ("a.b" reaches into
    nested dicts) with frozen values."""
    def check(result) -> str | None:
        output, code = result
        if code != want_code:
            return f"exit {code}, want {want_code}: {output['report'].get('error', '')}"
        for path, value in want.items():
            got = output["report"]
            for part in path.split("."):
                got = got.get(part) if isinstance(got, dict) else None
            if got != value:
                return f"{path} = {got!r}, want {value!r}"
        return None
    return check


# --------------------------------------------------------------- cli-fixtures

# Report fields per (command, algebra, frame or option), frozen from tests/
# where the suite pins them (endomorphism counts, basis and dilatation results,
# closure sizes, the diamond trajectory) and otherwise from the reports the
# program gave when this benchmark was written.  The dilatations run on the
# constant frame exits 1 by design: the sampling is not bijective, and
# tests/test_cli.py pins that exit code.
PASS = {"status": "pass"}
CLI_EXPECTED: dict[tuple, tuple[int, dict]] = {
    ("endos", "boolean"): (0, {**PASS, "count": 4}),
    ("endos", "semilattice2"): (0, {**PASS, "count": 16}),
    ("endos", "semilattice3"): (0, {**PASS, "count": 512}),
    ("endos", "trivial"): (0, {**PASS, "count": 1}),
    ("basis", "boolean", "boolean_frame"): (0, {**PASS, "basis": True, "endo_count": 4,
                                                "basis_equivalence.e_chi_equals_e_alpha": True}),
    ("basis", "semilattice2", "semilattice2_frame"): (
        0, {**PASS, "basis": True, "endo_count": 16,
            "basis_equivalence.e_chi_equals_e_alpha": True}),
    ("basis", "semilattice2", "semilattice2_constant_frame"): (
        0, {**PASS, "basis": False, "failure.reason": "not-injective",
            "basis_equivalence.biconditional_ok": True}),
    ("basis", "semilattice3", "semilattice3_frame"): (
        0, {**PASS, "basis": True, "endo_count": 512,
            "basis_equivalence.e_chi_equals_e_alpha": True}),
    ("dilatations", "boolean", "boolean_frame"): (
        0, {**PASS, "delta_size": 1, "full": False, "monoid": False}),
    ("dilatations", "semilattice2", "semilattice2_frame"): (
        0, {**PASS, "delta_size": 2, "full": True, "monoid": True,
            "distributivities": "pass", "fullness_pipeline": "pass"}),
    ("dilatations", "semilattice2", "semilattice2_constant_frame"): (
        1, {"status": "skipped"}),
    ("dilatations", "semilattice3", "semilattice3_frame"): (
        0, {**PASS, "delta_size": 2, "full": True, "monoid": True,
            "distributivities": "pass", "fullness_pipeline": "pass"}),
    ("commutative", "boolean", "--Y 2"): (
        0, {**PASS, "commutative": False, "closure_commutation.status": "skipped"}),
    ("commutative", "semilattice2", "--Y 2"): (
        0, {**PASS, "commutative": True, "closure_commutation.closure_size": 4}),
    ("commutative", "semilattice3", "--Y 2"): (
        0, {**PASS, "commutative": True, "closure_commutation.closure_size": 4}),
    ("commutative", "trivial", "--Y 2"): (
        0, {**PASS, "commutative": True, "closure_commutation.closure_size": 1}),
    ("commutative", "boolean", "boolean_frame"): (
        0, {**PASS, "conjugate_commutation": "skipped"}),
    ("commutative", "semilattice2", "semilattice2_frame"): (
        0, {**PASS, "conjugate_commutation": "pass"}),
    ("commutative", "semilattice2", "semilattice2_constant_frame"): (
        0, {**PASS, "conjugate_commutation": "skipped"}),
    ("commutative", "semilattice3", "semilattice3_frame"): (
        0, {**PASS, "conjugate_commutation": "pass"}),
    ("gallery", "diamond_project"): (
        0, {**PASS, "oracle_agrees": True,
            "trajectory": [{"b": 1, "c": 3}, {"d": 8}, {}]}),
}

# Operations that fail as of this benchmark.  They stay in the workload and
# count as failed; they do not make the run incorrect.
KNOWN_FAILURES = {
    ("commutative", "boolean", "boolean_frame"):
        "check_conjugate_commutation reports fail on a non-commutative algebra "
        "where check_closure_commutation skips",
    ("commutative", "semilattice3", "semilattice3_frame"):
        "the conjugate medial check trips PAIR_GUARD (8^9 cases)",
}


def _cli_op(key: tuple, argv: list[str]) -> Op:
    want_code, want = CLI_EXPECTED.get(key, (0, {}))
    check = _cli_check(want_code, want) if key in CLI_EXPECTED \
        else (lambda _r: f"no frozen expectation for {key}")
    return Op(" ".join(key), lambda api: api.run(argv), check, KNOWN_FAILURES.get(key))


CLI_PASSES = 8


def setup_cli_fixtures(seed: int, workdir: Path, root: Path) -> Workload:
    """Every fixture through each CLI command that accepts it: basis and
    dilatations per algebra/frame pair, endos and commutative --Y 2 per
    algebra, commutative --frame per pair, gallery pert --forward per project.
    Files are told apart by content and paired by name (``<algebra>_*.json``
    is a frame of ``<algebra>.json``)."""
    p = _program()
    algebras, frames, projects = {}, {}, {}
    for path in sorted((root / "fixtures").glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if "elements" in doc:
            p.core.load_algebra(path)
            algebras[path.stem] = str(path)
        elif "X" in doc:
            p.representation.load_frame(path)
            frames[path.stem] = str(path)
        elif "events" in doc:
            p.gallery.load_project(path)
            projects[path.stem] = str(path)
    pairs = [(a, f) for a in algebras for f in frames if f.startswith(a + "_")]
    s = ["--seed", str(seed)]
    ops = []
    for a, f in pairs:
        ops.append(_cli_op(("basis", a, f), s + ["basis", algebras[a], frames[f]]))
        ops.append(_cli_op(("dilatations", a, f), s + ["dilatations", algebras[a], frames[f]]))
        ops.append(_cli_op(("commutative", a, f),
                           s + ["commutative", algebras[a], "--frame", frames[f]]))
    for a in algebras:
        ops.append(_cli_op(("endos", a), s + ["endos", algebras[a]]))
        ops.append(_cli_op(("commutative", a, "--Y 2"),
                           s + ["commutative", algebras[a], "--Y", "2"]))
    for name, path in projects.items():
        ops.append(_cli_op(("gallery", name), s + ["gallery", "pert", path, "--forward"]))
    # every pass runs the commands in another seeded order, so that no command
    # always follows the same one
    rng = random.Random(seed)
    return Workload("cli.self", [rng.sample(ops, len(ops)) for _ in range(CLI_PASSES)])


# --------------------------------------------------------------- endos-chains

# Chain sizes in one pass.  Relabelings change the search's cost by up to a
# third, and the median latency falls among the 7-chains, so a pass holds
# three of them to average more relabelings into it.
CHAIN_SIZES = (6, 7, 7, 7, 8)
CHAIN_PASSES = 8  # passes of distinct relabelings; runs longer than this cycle


def setup_endos_chains(seed: int, workdir: Path, root: Path) -> Workload:
    p = _program()
    rng = random.Random(seed)
    passes = []
    for k in range(CHAIN_PASSES):
        ops = []
        for j, n in enumerate(CHAIN_SIZES):
            path = _write(workdir / f"chain{n}-{k}-{j}.json", inputs.relabeled_chain(rng, n))
            p.core.load_algebra(path)
            want = inputs.chain_count(n)
            ops.append(Op(f"endos chain{n}-{k}-{j}",
                          lambda api, argv=["--seed", str(seed), "endos", path]: api.run(argv),
                          _cli_check(0, {**PASS, "count": want})))
        passes.append(ops)
    return Workload("cli.self", passes)


# ------------------------------------------------------------- closure-random

Y = ("y",)


class ClosureOracle:
    """Checks one algebra's pipeline result.  The first result is verified
    from scratch: endomorphisms against brute force, every closure witness
    re-tabulated with term_table, the closure size against the benchmark's
    own semi-naive closure, and the biconditional.  Later results of the same
    input must equal the verified one."""

    def __init__(self, program, alg, frame, closure_size: int):
        self.p, self.alg, self.frame, self.size = program, alg, frame, closure_size
        self.reference = None

    def signature(self, result) -> tuple:
        endos, rep, check, closure = result
        return (frozenset(h.values for h in endos), frozenset(h.values for h in rep.endos),
                json.dumps(check, sort_keys=True, default=str), closure.complete,
                tuple((f.witness, f.table.key()) for f in closure.functions))

    def __call__(self, result) -> str | None:
        sig = self.signature(result)
        if self.reference is not None:
            return None if sig == self.reference else "differs from the verified result"
        endos, rep, check, closure = result
        brute = self.p.representation.enumerate_endomorphisms(self.alg, method="brute")
        if set(endos) != brute or rep.endos != frozenset(brute):
            return "endomorphisms differ from brute force"
        if not check["biconditional_ok"]:
            return "biconditional fails"
        if check["chi_exists"] and check["bijective"] and not (
                check["chi_routes_agree"] and check["e_chi_equals_e_alpha"]):
            return "generator and sampling routes disagree"
        if not closure.complete or len(closure.functions) != self.size:
            return f"closure has {len(closure.functions)} functions, want {self.size}"
        if len(closure.tables()) != self.size:
            return "closure holds duplicate tables"
        for f in closure.functions:
            if self.p.elementary.term_table(self.alg, f.witness, Y) != f.table:
                return f"witness {f.witness} does not re-tabulate to its table"
        self.reference = sig
        return None


CLOSURE_PASSES = 8  # passes with fresh 2- and 3-element picks; see inputs.SHARED


def setup_closure_random(seed: int, workdir: Path, root: Path) -> Workload:
    """Each algebra is one operation: endomorphisms, representation, the
    biconditional check, and the one-slot elementary closure."""
    p = _program()
    loaded: dict[int, Op] = {}  # a shared pick is written, loaded and checked once
    passes = []
    for k, draws in enumerate(inputs.stratified_algebras(random.Random(seed), CLOSURE_PASSES)):
        ops = []
        for i, draw in enumerate(draws):
            if id(draw) not in loaded:
                name = f"random{k}-{i}"
                alg = p.core.load_algebra(_write(workdir / f"{name}.json", draw["algebra"]))
                frame = p.representation.load_frame(
                    _write(workdir / f"{name}_frame.json", draw["frame"]))

                def call(api, alg=alg, frame=frame):
                    endos = api.enumerate_endomorphisms(alg)
                    rep = api.build_representation(alg, frame, endos=endos)
                    check = api.verify_basis_equivalence(alg, frame, rep=rep, seed=seed)
                    return endos, rep, check, api.elementary_closure(alg, Y)

                loaded[id(draw)] = Op(
                    f"{name} n={len(draw['algebra']['elements'])} closure={draw['closure_size']}",
                    call, ClosureOracle(p, alg, frame, draw["closure_size"]))
            ops.append(loaded[id(draw)])
        passes.append(ops)
    return Workload("bench.self", passes)


# ---------------------------------------------------------- gallery-rulebased

# A pass is 14 forward passes, one integers and one Gaussian check, and four
# medial checks: the 90th percentile then falls in the middle of the medial
# checks, well away from the two gallery checks, whose latencies overlap.
PROJECTS_PER_PASS = 14
MEDIAL_CHECKS = 4
GALLERY_PASSES = 4
PROJECT_EVENTS = 60
ARC_PROBABILITY = 0.3
CHECK_SAMPLES = 5000
MEDIAL_SAMPLES = 1000
MEDIAL_EVENTS = 8


def setup_gallery_rulebased(seed: int, workdir: Path, root: Path) -> Workload:
    """Rule-based operations only: PERT forward passes on seeded projects,
    the integers and Gaussian checks, and sampled medial checks of the
    schedule algebra (which is commutative, so every pair must hold)."""
    p = _program()
    oracle_accumulated, oracle_longest = p.pert.accumulated_times, p.pert.longest_path_times
    rng = random.Random(seed)
    passes = []
    for k in range(GALLERY_PASSES):
        ops = []
        for i in range(PROJECTS_PER_PASS):
            doc = inputs.random_project(rng, PROJECT_EVENTS, ARC_PROBABILITY)
            project = p.gallery.load_project(_write(workdir / f"project{k}-{i}.json", doc))
            start = p.gallery.Schedule.of({e: 0 for e in inputs.sources(doc)})

            def check_pass(trajectory, project=project, start=start):
                if not trajectory or not trajectory[-1].is_empty():
                    return "forward pass did not drain"
                if oracle_accumulated(trajectory) != oracle_longest(project, start):
                    return "accumulated times differ from longest paths"
                return None

            ops.append(Op(f"pert project{k}-{i}",
                          lambda api, project=project, start=start:
                              api.pert_forward_pass(project, start),
                          check_pass))
        check_seed = rng.randrange(2**31)

        def check_findings(findings, check_seed=check_seed):
            if findings["status"] != "pass" or findings["seed"] != check_seed:
                return f"findings {findings}"
            return None

        ops.append(Op(f"integers_check {k}",
                      lambda api, s=check_seed: api.integers_check(samples=CHECK_SAMPLES, seed=s),
                      check_findings))
        ops.append(Op(f"gaussian_check {k}",
                      lambda api, s=check_seed: api.gaussian_check(samples=CHECK_SAMPLES, seed=s),
                      check_findings))
        events = tuple(f"e{i}" for i in range(MEDIAL_EVENTS))
        for j in range(MEDIAL_CHECKS):
            medial_seed = rng.randrange(2**31)

            def medial(api, s=medial_seed):
                return api.is_commutative(api.pert_algebra(events), samples=MEDIAL_SAMPLES, seed=s)

            def check_medial(result, s=medial_seed):
                holds, reports = result
                mode = f"sampled:{MEDIAL_SAMPLES}:seed={s}"
                if not holds or len(reports) != 6 or any(r.mode != mode for r in reports):
                    return "schedule algebra fails a sampled medial check"
                return None

            ops.append(Op(f"medial pert {k}-{j}", medial, check_medial))
        passes.append(ops)
    return Workload("bench.self", passes)


SETUPS = {
    "cli-fixtures": setup_cli_fixtures,
    "endos-chains": setup_endos_chains,
    "closure-random": setup_closure_random,
    "gallery-rulebased": setup_gallery_rulebased,
}


def setup(name: str, seed: int, workdir: Path, root: Path) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    return SETUPS[name](seed, workdir, root)
