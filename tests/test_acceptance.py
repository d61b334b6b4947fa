"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single ``criterion N: PASS``/``FAIL`` line (visible with
``pytest -s``) and then asserts, so a red line always comes with a red test.
"""

import json
import random
import time
from pathlib import Path

from ualgebra.cli import run as cli_run
from ualgebra.combinator import set_ary_compose
from ualgebra.commutativity import (
    check_conjugate_commutation,
    check_closure_commutation,
    is_commutative,
    ops_commute,
)
from ualgebra.dilatation import (
    analyze_dilatations,
    build_endowed_monoid,
    check_distributivities,
    check_fullness_pipeline,
)
from ualgebra.elementary import elementary_closure
from ualgebra.gallery.gaussian import gaussian_check
from ualgebra.gallery.integers import bounded_generated_closure, integers_check
from ualgebra.gallery.pert import (
    EMPTY,
    Schedule,
    accumulated_times,
    apply_descriptor,
    diamond_project,
    join,
    longest_path_times,
    nu_oplus,
    nu_successor,
    pert_forward_pass,
    pert_gamma,
    pert_nu,
    random_project,
    random_schedule,
    shift,
    successor,
)
from ualgebra.representation import (
    build_representation,
    enumerate_endomorphisms,
    verify_basis_equivalence,
)

from conftest import random_algebra


def report(number: int, ok: bool, detail: str = ""):
    tail = f"  ({detail})" if detail else ""
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_small_semilattice(semilattice2):
    alg, frame = semilattice2
    started = time.perf_counter()
    endos = enumerate_endomorphisms(alg, "brute")
    rep = build_representation(alg, frame, endos=endos)
    ok = len(endos) == 16 == len(alg.carrier) ** len(frame.X) and rep.bijective
    ok = ok and all(rep.extension[rep.sampling[h]] == h for h in endos)
    ok = ok and all(rep.sampling[rep.extension[M]] == M for M in rep.matrices())
    elapsed = time.perf_counter() - started
    report(1, ok and elapsed < 1.0, f"16 endos, bijective, {elapsed:.3f}s")


def test_criterion_02_larger_semilattice(semilattice3):
    alg, frame = semilattice3
    started = time.perf_counter()
    endos = enumerate_endomorphisms(alg, "backtrack")
    rep = build_representation(alg, frame, endos=endos)
    elapsed = time.perf_counter() - started
    ok = len(endos) == 512 and rep.bijective and elapsed < 30.0
    report(2, ok, f"512 endos, bijective, {elapsed:.3f}s")


def test_criterion_03_biconditional(semilattice2, semilattice3, boolean):
    cases = [semilattice2, semilattice3, boolean]
    rng = random.Random(42)
    while len(cases) < 3 + 20:
        cases.append(random_algebra(rng, max_size=4))
    ok = True
    both_held = 0
    for alg, frame in cases:
        out = verify_basis_equivalence(alg, frame)
        ok = ok and out["biconditional_ok"]
        if out["chi_exists"] and out["bijective"]:
            both_held += 1
            ok = ok and out["chi_routes_agree"] and out["commutation_members_ok"]
            ok = ok and out["e_chi_equals_e_alpha"]
    report(3, ok, f"{len(cases)} algebras, both sides held on {both_held}")


def test_criterion_04_elementary_pairs_commute(semilattice2):
    alg, _frame = semilattice2
    commutative, _ = is_commutative(alg)
    one = check_closure_commutation(alg, ("y0",), commutative)
    two = check_closure_commutation(alg, ("y0", "y1"), commutative)
    ok = one["status"] == "pass" and two["status"] == "pass"
    # composing elementary functions under a fundamental op keeps commutation
    arity = ("y0", "y1")
    closure = [ef.table for ef in elementary_closure(alg, arity).functions]
    rng = random.Random(0)
    union = alg.op("union")
    for _ in range(50):
        inner = {lbl: rng.choice(closure) for lbl in union.rank}
        composed = set_ary_compose(union, inner, alg.carrier, arity)
        ok = ok and all(ops_commute(f, composed, carrier=alg.carrier).holds
                        for f in alg.ops)
    report(4, ok, f"closures of size {one['closure_size']} and {two['closure_size']}")


def test_criterion_05_conjugates_commute(semilattice2):
    alg, frame = semilattice2
    rep = build_representation(alg, frame)
    out = check_conjugate_commutation(rep)
    instances = out["pairs"] * len(alg.carrier) ** (len(frame.X) * len(frame.X))
    ok = out["status"] == "pass" and out["pairs"] == 16 and instances == 4 * 4 * 256
    report(5, ok, f"{instances} exhaustive instances, zero failures")


def test_criterion_06_endowed_monoid(semilattice2):
    alg, frame = semilattice2
    out = check_fullness_pipeline(alg, frame)
    ok = out["status"] == "pass" and out["commutative"] and out["full"]
    rep = build_representation(alg, frame)
    analysis = analyze_dilatations(rep)
    monoid, _info = build_endowed_monoid(analysis)
    ok = ok and monoid is not None and len(monoid.members) == 2
    # table-isomorphic to the two-element bounded lattice: composition is the
    # meet, the transported union is the join, both constants present
    lo, hi = 1 - monoid.unit, monoid.unit
    tables = {symbol: table for symbol, _rank, table in monoid.image_ops}
    ok = ok and monoid.product[lo][lo] == lo and monoid.product[lo][hi] == lo
    ok = ok and monoid.product[hi][lo] == lo and monoid.product[hi][hi] == hi
    ok = ok and tables["union"] == {(lo, lo): lo, (lo, hi): hi,
                                    (hi, lo): hi, (hi, hi): hi}
    ok = ok and tables["0"][()] == lo
    ok = ok and check_distributivities(monoid, analysis)["status"] == "pass"
    report(6, ok, "two-element bounded lattice, distributivities exhaustive")


def test_criterion_07_negative_example(boolean):
    alg, frame = boolean
    commutative, reports = is_commutative(alg)
    witness = next((r for r in reports if not r.holds), None)
    ok = not commutative and witness is not None and "meet" in witness.pair \
        and "neg" in witness.pair
    analysis = analyze_dilatations(build_representation(alg, frame))
    ok = ok and len(analysis.delta) == 1 and set(analysis.gamma) == {alg.carrier.index["x"]}
    ok = ok and not analysis.full
    monoid, _info = build_endowed_monoid(analysis)
    ok = ok and monoid is None
    report(7, ok, "meet/neg witness, one dilatation, not full, no monoid")


def test_criterion_08_forward_pass():
    project = diamond_project()
    trajectory = pert_forward_pass(project, Schedule.of({"a": 0}))
    ok = trajectory == [Schedule.of({"b": 1, "c": 3}), Schedule.of({"d": 8}), EMPTY]
    ok = ok and longest_path_times(project, Schedule.of({"a": 0}))["d"] == 8
    rng = random.Random(9)
    for _ in range(200):
        p = random_project(rng, max_events=6, max_time=9)
        seed = random_schedule(rng, p.events)
        ok = ok and accumulated_times(pert_forward_pass(p, seed)) \
            == longest_path_times(p, seed)
    report(8, ok, "worked trajectory plus 200 random projects against the oracle")


def test_criterion_09_nu_homomorphism():
    events = ("e0", "e1", "e2", "e3")
    rng = random.Random(0)
    ok = True
    for _ in range(1000):
        a = random_schedule(rng, events)
        b = random_schedule(rng, events)
        c = random_schedule(rng, events)
        ok = ok and pert_nu(join(a, b)) == max(pert_nu(a), pert_nu(b))
        ok = ok and pert_nu(successor(a)) == nu_successor(pert_nu(a))
        n = nu_oplus(pert_nu(a), pert_nu(b))
        composed = apply_descriptor(pert_gamma(a), apply_descriptor(pert_gamma(b), c))
        ok = ok and composed == (EMPTY if n == 0 else shift(c, n - 1))
        ok = ok and nu_oplus(pert_nu(a), 1) == pert_nu(a)
        ok = ok and nu_oplus(pert_nu(a), pert_nu(b)) == nu_oplus(pert_nu(b), pert_nu(a))
    report(9, ok, "1000 seeded samples, exact integer equality")


def test_criterion_10_integers():
    findings = integers_check(samples=1000, seed=0, max_multiplier=100,
                              closure_steps=50)
    ok = findings["status"] == "pass"
    ok = ok and bounded_generated_closure(50) == set(range(1, 52))
    report(10, ok, "multiplier identities, ring laws, bounded closure")


def test_criterion_11_gaussian():
    findings = gaussian_check(samples=1000, seed=0, entry_bound=50, box=10)
    report(11, findings["status"] == "pass",
           "matrix identities, dilatation formula, box round-trip")


def test_criterion_12_determinism():
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    commands = [
        ["--seed", "0", "endos", str(fixtures / "semilattice2.json")],
        ["--seed", "0", "basis", str(fixtures / "semilattice2.json"),
         str(fixtures / "semilattice2_frame.json")],
        ["--seed", "0", "dilatations", str(fixtures / "semilattice2.json"),
         str(fixtures / "semilattice2_frame.json")],
        ["--seed", "0", "commutative", str(fixtures / "boolean.json"),
         "--frame", str(fixtures / "boolean_frame.json")],
        ["--seed", "0", "gallery", "integers"],
        ["--seed", "0", "gallery", "gaussian"],
        ["--seed", "0", "gallery", "pert", str(fixtures / "diamond_project.json"), "--forward"],
    ]
    ok = True
    for argv in commands:
        first, _ = cli_run(argv)
        second, _ = cli_run(argv)
        a = json.dumps(first["report"], sort_keys=True).encode()
        b = json.dumps(second["report"], sort_keys=True).encode()
        ok = ok and a == b
    report(12, ok, f"{len(commands)} commands, byte-identical report bodies")
