import random
from dataclasses import replace

import pytest

from ualgebra.core import AlgebraError
from ualgebra.gallery.gaussian import (
    apply_endo,
    gamma,
    gamma_via_extension,
    gaussian_check,
    j_inverse,
    j_map,
    sample as gauss_sample,
)
from ualgebra.gallery.integers import (
    bounded_generated_closure,
    integers_check,
    sample_at_one,
)
from ualgebra.gallery.pert import (
    EMPTY,
    PertProject,
    Schedule,
    accumulated_times,
    apply_descriptor,
    diamond_project,
    join,
    load_project,
    longest_path_times,
    mu,
    nu_oplus,
    nu_successor,
    pert_eta,
    pert_forward_pass,
    pert_gamma,
    pert_j,
    pert_j_inverse,
    pert_nu,
    project_to_dict,
    random_project,
    random_schedule,
    shift,
    successor,
)
from ualgebra.gallery.semilattice import (
    build_powerset_semilattice,
    incidence_matrix,
    incidence_transform,
    is_bitwise_twin,
    semilattice_eta,
)
from ualgebra.representation import build_representation


# ---------------------------------------------------------------- semilattice

def test_eta_formula_matches_generic_extension(semilattice2, semilattice3):
    # the closed-form union rule must agree with the generic extension on
    # every matrix and every argument
    for alg, frame in (semilattice2, semilattice3):
        ground = frame.X
        rep = build_representation(alg, frame)
        assert rep.bijective
        for M in rep.matrices():
            as_dict = dict(zip(ground, (alg.carrier.elements[v] for v in M)))
            h = rep.extension[M]
            for a in alg.carrier.elements:
                assert h(a) == semilattice_eta(as_dict, ground, a)


def test_graph_extension_values():
    # the four-node graph with arcs a->{b,c}, b->d, c->d
    ground = ("a", "b", "c", "d")
    M = {"a": "{b,c}", "b": "{d}", "c": "{d}", "d": "{}"}
    assert semilattice_eta(M, ground, "{a}") == "{b,c}"
    assert semilattice_eta(M, ground, "{a,b}") == "{b,c,d}"
    assert semilattice_eta(M, ground, "{}") == "{}"
    assert semilattice_eta(M, ground, "{d}") == "{}"


def test_eta_is_join_homomorphism(semilattice3):
    alg, frame = semilattice3
    ground = frame.X
    union = alg.op("union")
    rng = random.Random(2)
    for _ in range(100):
        M = {x: rng.choice(alg.carrier.elements) for x in ground}
        a, b = rng.choice(alg.carrier.elements), rng.choice(alg.carrier.elements)
        assert semilattice_eta(M, ground, union((a, b))) == union((
            semilattice_eta(M, ground, a), semilattice_eta(M, ground, b)))


def test_incidence_matrix_rows():
    ground = ("a", "b", "c", "d")
    M = {"a": "{b,c}", "b": "{d}", "c": "{d}", "d": "{}"}
    assert incidence_matrix(M, ground) == ["0110", "0001", "0001", "0000"]


def test_incidence_transform_is_isomorphism(semilattice2):
    alg, _frame = semilattice2
    twin, j = incidence_transform(alg, ("x", "y"))
    assert twin.carrier.elements == ("00", "10", "01", "11")
    assert j["{x,y}"] == "11"
    # transported union is bitwise or
    assert twin.op("union")(("10", "01")) == "11"
    assert twin.op("0")(()) == "00"


def corrupt(twin, symbol: str, code: int, value: int):
    """The twin with one code of operation ``symbol`` overwritten."""
    ops = tuple(replace(f, table=replace(f.table, codes=tuple(
        value if c == code else v for c, v in enumerate(f.table.codes))))
        if f.symbol == symbol else f for f in twin.ops)
    return replace(twin, ops=ops)


def test_bitwise_twin_check(semilattice2, semilattice3):
    for alg, frame in (semilattice2, semilattice3):
        twin, _j = incidence_transform(alg, frame.X)
        assert is_bitwise_twin(twin)
        assert not is_bitwise_twin(corrupt(twin, "union", 1, 0))  # 10 | 00 read as 00
        n = len(twin.carrier)
        assert not is_bitwise_twin(corrupt(twin, "union", n + 1, 2))  # 10... | 10... read as 01...
        assert not is_bitwise_twin(corrupt(twin, "0", 0, 1))  # 0 read as 10


def test_ground_size_limits():
    with pytest.raises(AlgebraError):
        build_powerset_semilattice(())
    with pytest.raises(AlgebraError):
        build_powerset_semilattice(("a", "b", "c", "d", "e"))


# ----------------------------------------------------------------------- pert

def test_schedule_basics():
    a = Schedule.of({"b": 3, "a": 1})
    assert a.entries == (("a", 1), ("b", 3))
    assert a.domain() == ("a", "b")
    assert join(a, Schedule.of({"b": 1, "c": 2})) == Schedule.of(
        {"a": 1, "b": 3, "c": 2})
    assert successor(a) == Schedule.of({"a": 2, "b": 4})
    assert shift(a, 3) == Schedule.of({"a": 4, "b": 6})
    with pytest.raises(AlgebraError):
        Schedule.of({"a": -1})


def test_graph_forward_pass():
    project = diamond_project()
    trajectory = pert_forward_pass(project, Schedule.of({"a": 0}))
    assert trajectory == [
        Schedule.of({"b": 1, "c": 3}),
        Schedule.of({"d": 8}),
        EMPTY,
    ]
    assert accumulated_times(trajectory) == {"b": 1, "c": 3, "d": 8}


def test_forward_pass_matches_longest_paths():
    rng = random.Random(9)
    for _ in range(200):
        project = random_project(rng)
        seed = random_schedule(rng, project.events)
        trajectory = pert_forward_pass(project, seed)
        assert trajectory[-1].is_empty()
        assert accumulated_times(trajectory) == longest_path_times(project, seed)


def test_cycle_detected():
    project = PertProject(("a", "b"), {
        "a": Schedule.of({"b": 1}),
        "b": Schedule.of({"a": 1}),
    })
    with pytest.raises(AlgebraError, match="cycle"):
        pert_forward_pass(project, Schedule.of({"a": 0}))
    with pytest.raises(AlgebraError, match="cycle"):
        longest_path_times(project, Schedule.of({"a": 0}))


def test_project_roundtrip(tmp_path):
    project = diamond_project()
    path = tmp_path / "project.json"
    path.write_text(__import__("json").dumps(project_to_dict(project)))
    assert load_project(path) == project


def test_gamma_matches_constant_matrix_route():
    # the dilatation indicated by a, applied to b, is the one-step extension
    # of a through the matrix constantly equal to b
    events = ("e0", "e1", "e2", "e3")
    rng = random.Random(4)
    for _ in range(1000):
        a = random_schedule(rng, events)
        b = random_schedule(rng, events)
        constant = PertProject(events, {x: b for x in events})
        assert apply_descriptor(pert_gamma(a), b) == pert_eta(constant, a)


def test_gamma_descriptors():
    assert pert_gamma(EMPTY) == ("empty",)
    assert pert_gamma(Schedule.of({"a": 2, "b": 5})) == ("delay", 5)
    assert apply_descriptor(("empty",), Schedule.of({"a": 1})) == EMPTY
    assert apply_descriptor(("delay", 2), Schedule.of({"a": 1})) == Schedule.of({"a": 3})


def test_nu_is_a_homomorphism():
    events = ("e0", "e1", "e2")
    rng = random.Random(8)
    for _ in range(1000):
        a = random_schedule(rng, events)
        b = random_schedule(rng, events)
        # unary successor transports to the successor on identifiers
        assert pert_nu(successor(a)) == nu_successor(pert_nu(a))
        # composing the indicated dilatations adds the delays
        c = random_schedule(rng, events)
        composed = apply_descriptor(pert_gamma(a), apply_descriptor(pert_gamma(b), c))
        n = nu_oplus(pert_nu(a), pert_nu(b))
        expected = EMPTY if n == 0 else shift(c, n - 1)
        assert composed == expected
        # join transports to max
        assert pert_nu(join(a, b)) == max(pert_nu(a), pert_nu(b))


def test_nu_oplus_laws():
    for n in range(0, 12):
        for m in range(0, 12):
            assert nu_oplus(n, m) == nu_oplus(m, n)
            for k in range(0, 12):
                assert nu_oplus(nu_oplus(n, m), k) == nu_oplus(n, nu_oplus(m, k))
        assert nu_oplus(n, 1) == n
        assert nu_oplus(n, 0) == 0


def test_j_roundtrip():
    events = ("e0", "e1", "e2", "e3")
    rng = random.Random(6)
    for _ in range(1000):
        a = random_schedule(rng, events)
        d = pert_j(a, events)
        assert set(d) == set(events)
        assert pert_j_inverse(d) == a
    with pytest.raises(AlgebraError):
        pert_j(Schedule.of({"zz": 1}), events)


def test_mu_of_empty_is_undefined():
    with pytest.raises(ValueError):
        mu(EMPTY)


# --------------------------------------------------------------- number rings

def test_integers_report():
    findings = integers_check(samples=500, seed=0)
    assert findings["status"] == "pass"
    assert findings["extension_after_sampling_identity"]
    assert findings["sampling_after_extension_identity"]
    assert findings["ring_laws"]
    assert findings["bounded_closure_exact"]
    assert findings["zero_unreachable"]


def test_integers_closure_values():
    assert bounded_generated_closure(0) == {1}
    assert bounded_generated_closure(3) == {1, 2, 3, 4}
    assert sample_at_one(-7) == -7


def test_gaussian_report():
    findings = gaussian_check(samples=500, seed=0)
    assert findings["status"] == "pass"


def test_gaussian_worked_values():
    # multiplication by 2+3 = 5
    assert gamma((2, 3), (1, -1)) == (5, -5)
    assert gamma_via_extension((2, 3), (1, -1)) == (5, -5)
    # the matrix with columns h(1) = (0,1), h(i) = (-1,0) is multiplication by i
    rot = ((0, 1), (-1, 0))
    assert apply_endo(rot, (1, 0)) == (0, 1)
    assert apply_endo(rot, (0, 1)) == (-1, 0)
    assert gauss_sample(rot) == rot
    assert j_map((3, -4)) == (3, -4) == j_inverse((3, -4))
