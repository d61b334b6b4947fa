import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import op_from_rows, random_algebra
from ualgebra.core import Algebra, AlgebraError, Carrier, Operation, UnaryMap
from ualgebra.gallery.pert import pert_algebra
from ualgebra.representation import (
    Frame,
    _compile_plan,
    build_representation,
    commutation_checker,
    enumerate_endomorphisms,
    verify_basis_equivalence,
)


def conjugate_commutation_defect(rep, h: UnaryMap):
    """First (a, M) violating h(chi_a(M)) = chi_a(h . M), or None if none.

    Element-at-a-time oracle for ``commutation_checker``, on element names.
    """
    names = rep.algebra.carrier.elements
    for a, chi_a in enumerate(rep.conjugates):
        for m in rep.matrices():
            m = tuple(names[v] for v in m)
            if h(chi_a(m)) != chi_a(tuple(h(v) for v in m)):
                return (a, m)
    return None


def test_semilattice_endo_count(semilattice2):
    alg, _frame = semilattice2
    assert len(enumerate_endomorphisms(alg, "brute")) == 16


def test_boolean_endo_count(boolean):
    alg, _frame = boolean
    assert len(enumerate_endomorphisms(alg, "brute")) == 4


def test_trivial_endo_count(trivial):
    alg, _frame = trivial
    assert enumerate_endomorphisms(alg) == {UnaryMap(alg.carrier, (0,))}


def test_methods_agree_on_fixtures(semilattice2, boolean, trivial):
    for alg, _frame in (semilattice2, boolean, trivial):
        assert enumerate_endomorphisms(alg, "brute") == enumerate_endomorphisms(alg, "backtrack")


def test_methods_agree_on_random_algebras():
    rng = random.Random(7)
    for _ in range(20):
        alg, _frame = random_algebra(rng, max_size=4)
        assert enumerate_endomorphisms(alg, "brute") == enumerate_endomorphisms(alg, "backtrack")


def test_methods_agree_at_size_five():
    rng = random.Random(11)
    for _ in range(5):
        alg, _frame = random_algebra(rng, max_size=5)
        assert enumerate_endomorphisms(alg, "brute") == enumerate_endomorphisms(alg, "backtrack")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dropped=st.sets(st.sampled_from(("f", "u"))),
       constants=st.lists(st.integers(0, 4), max_size=2),
       ternary=st.sampled_from((None, "random", "conservative")))
def test_backtrack_matches_brute(seed, dropped, constants, ternary):
    # random_algebra adds a nullary operation half the time; extra constants
    # make several nullary rows seed the search together.  Without the random
    # binary operation most maps survive long enough for propagation chains.
    # A ternary operation has rows that repeat an argument, so the branched
    # element fills several positions of one row; a conservative one (each
    # value is one of its arguments) keeps every subset a subuniverse, so its
    # rows become unit rows of every pattern.
    rng = random.Random(seed)
    alg, _frame = random_algebra(rng, max_size=5)
    elements = alg.carrier.elements
    ops = tuple(f for f in alg.ops if f.symbol not in dropped)
    ops += tuple(op_from_rows(alg.carrier, f"k{i}", (), {(): elements[c % len(elements)]})
                 for i, c in enumerate(constants))
    if ternary:
        ops += (ternary_operation(rng, alg.carrier, ternary == "conservative"),)
    assume(ops)
    alg = Algebra(alg.name, alg.carrier, ops)
    assert enumerate_endomorphisms(alg, "backtrack") == enumerate_endomorphisms(alg, "brute")


def ternary_operation(rng: random.Random, carrier, conservative: bool) -> Operation:
    elements = carrier.elements
    table = {args: args[rng.randrange(3)] if conservative else rng.choice(elements)
             for args in itertools.product(elements, repeat=3)}
    return op_from_rows(carrier, "t", ("a", "b", "c"), table)


@settings(max_examples=30, deadline=None)
@given(generators=st.lists(st.integers(1, 7), min_size=1, max_size=3), order=st.randoms())
def test_backtrack_matches_brute_on_join_semilattices(generators, order):
    # a union-closed family of subsets of {0, 1, 2}, listed in a random order:
    # the join of two branched members is often assigned by no earlier row,
    # so the plan derives it with a set step
    members = set(generators)
    while len(members | {a | b for a in members for b in members}) > len(members):
        members |= {a | b for a in members for b in members}
    assume(len(members) <= 5)
    elements = [f"s{m}" for m in members]
    order.shuffle(elements)
    table = {(f"s{a}", f"s{b}"): f"s{a | b}" for a in members for b in members}
    carrier = Carrier(tuple(elements))
    alg = Algebra("join", carrier, (op_from_rows(carrier, "join", ("l", "r"), table),))
    assert enumerate_endomorphisms(alg, "backtrack") == enumerate_endomorphisms(alg, "brute")


def _horner(values, n):
    code = 0
    for v in values:
        code = code * n + v
    return code


def check_plan(alg: Algebra, rng: random.Random) -> list:
    """Walk the compiled plan of ``alg`` and check each part of it; return the
    rows it consumes, as (table index, args), in plan order."""
    n = len(alg.carrier)
    tables = alg.tables
    seed, levels = _compile_plan(alg)
    assigned, seen = set(), []

    def walk(steps):
        for args, res, codes, is_set in steps:
            assert set(args) <= assigned and is_set == (res not in assigned)
            assigned.add(res)
            seen.append((next(t for t, table in enumerate(tables) if table.codes is codes), args))

    walk(seed)
    for level in levels:
        e = level.element
        assert e == min(set(range(n)) - assigned)
        assigned.add(e)
        rows = [(args, tables[t].codes[_horner(args, n)], tables[t].codes)
                for t, args in level.unit_rows]
        # a unit row mentions e and otherwise only elements assigned before
        assert all(e in args and res in assigned for args, res, _codes in rows)
        # the masks allow exactly the values of h(e) that every unit row allows
        for _ in range(20):
            h = [rng.randrange(n) for _ in range(n)]
            mask = level.mask
            for others, masks in level.units:
                mask &= masks[_horner((h[o] for o in others), n)]
            allowed = 0
            for v in range(n):
                h[e] = v
                if all(codes[_horner((h[a] for a in args), n)] == h[res]
                       for args, res, codes in rows):
                    allowed |= 1 << v
            assert mask == allowed
        seen += level.unit_rows
        walk(level.steps)
    assert assigned == set(range(n))
    return seen


def test_plan_consumes_every_row_once(semilattice2, semilattice3, boolean, trivial):
    rng = random.Random(13)
    algebras = [semilattice2[0], semilattice3[0], boolean[0], trivial[0], max_chain(rng, 6)]
    for _ in range(12):
        alg, _frame = random_algebra(rng, max_size=4)
        ternary = ternary_operation(rng, alg.carrier, rng.random() < 0.5)
        algebras.append(Algebra(alg.name, alg.carrier, alg.ops + (ternary,)))
    for alg in algebras:
        n = len(alg.carrier)
        every_row = [(t, args) for t, table in enumerate(alg.tables)
                     for args in itertools.product(range(n), repeat=len(table.rank))]
        assert sorted(check_plan(alg, rng)) == sorted(every_row)
    # on a join semilattice, propagation derives joins of branched elements
    for alg, _frame in (semilattice2, semilattice3):
        _seed, levels = _compile_plan(alg)
        assert any(is_set for level in levels for *_, is_set in level.steps)


def max_chain(rng: random.Random, n: int) -> Algebra:
    """The max-semilattice of an n-chain, its carrier listed in a shuffled order."""
    height = list(range(n))
    rng.shuffle(height)
    elements = tuple(f"c{i}" for i in range(n))
    table = {(a, b): a if height[i] >= height[j] else b
             for i, a in enumerate(elements) for j, b in enumerate(elements)}
    carrier = Carrier(elements)
    return Algebra("chain", carrier, (op_from_rows(carrier, "max", ("l", "r"), table),))


@pytest.mark.parametrize("n", [5, 6])
def test_relabeled_chain_endo_count(n):
    # endomorphisms of a max-chain are the monotone self-maps: C(2n-1, n)
    rng = random.Random(n)
    for _ in range(3):
        assert len(enumerate_endomorphisms(max_chain(rng, n))) == math.comb(2 * n - 1, n)


def test_rule_based_rejected():
    alg = pert_algebra(("a", "b"))
    with pytest.raises(AlgebraError):
        enumerate_endomorphisms(alg)


def test_semilattice_representation_bijective(semilattice2):
    alg, frame = semilattice2
    rep = build_representation(alg, frame)
    assert rep.bijective
    assert len(rep.endos) == 16 == len(alg.carrier) ** len(frame.X)
    # both inverse identities, exhaustively
    for h in rep.endos:
        assert rep.extension[rep.sampling[h]] == h
    for M in rep.matrices():
        assert rep.sampling[rep.extension[M]] == M
    # sampling really samples at the frame
    names = alg.carrier.elements
    for h in rep.endos:
        assert tuple(names[v] for v in rep.sampling[h]) == tuple(h(frame.U[x]) for x in frame.X)


def test_chi_satisfies_extension_identity(semilattice2):
    alg, frame = semilattice2
    rep = build_representation(alg, frame)
    for a in range(len(alg.carrier)):
        for M in rep.matrices():
            assert rep.conjugates[a].at(M) == rep.extension[M].codes[a]


def test_constant_frame_not_bijective(semilattice2):
    alg, _frame = semilattice2
    rep = build_representation(alg, Frame(("p", "q"), {"p": "{x}", "q": "{x}"}))
    assert not rep.bijective
    assert rep.failure["reason"] in ("not-injective", "not-surjective")
    if rep.failure["reason"] == "not-injective":
        h1, h2 = rep.failure["endos"]
        assert h1 != h2 and rep.sampling[h1] == rep.sampling[h2]
    else:
        assert rep.failure["matrix"] not in rep.sampling.values()


def test_injectivity_of_basis_frames():
    # a bijective sampling forces the frame itself to be one to one
    rng = random.Random(3)
    seen = 0
    for _ in range(60):
        alg, frame = random_algebra(rng, max_size=4)
        rep = build_representation(alg, frame)
        if rep.bijective and len(alg.carrier) > 1:
            seen += 1
            columns = frame.codes(alg.carrier)
            assert len(set(columns)) == len(columns)
    assert seen > 0


def test_empty_frame_on_singleton(trivial):
    alg, frame = trivial
    rep = build_representation(alg, frame)
    assert rep.bijective
    assert [chi.codes for chi in rep.conjugates] == [(0,)]


def test_empty_frame_on_nontrivial(semilattice2):
    alg, _frame = semilattice2
    rep = build_representation(alg, Frame((), {}))
    assert not rep.bijective
    assert "identity" in rep.failure["reason"]


def test_basis_equivalence_semilattice(semilattice2):
    alg, frame = semilattice2
    report = verify_basis_equivalence(alg, frame)
    assert report["biconditional_ok"]
    assert report["chi_routes_agree"]
    assert report["commutation_members_ok"]
    assert report["e_chi_equals_e_alpha"]
    assert report["nonmember_check"] == "exhaustive"


def test_basis_equivalence_sampled_nonmembers(semilattice2):
    alg, frame = semilattice2
    # 4^4 candidate maps exceed the cap, so non-members are drawn at random
    report = verify_basis_equivalence(alg, frame, samples=200, seed=3, reject_cap=100)
    assert report["nonmember_check"] == "sampled:200:seed=3"
    assert report["nonmembers_rejected"] and report["e_chi_equals_e_alpha"]
    assert report == verify_basis_equivalence(alg, frame, samples=200, seed=3, reject_cap=100)


def test_basis_equivalence_boolean(boolean):
    alg, frame = boolean
    report = verify_basis_equivalence(alg, frame)
    assert report["biconditional_ok"] and report["e_chi_equals_e_alpha"]


def test_basis_equivalence_non_generator_frame(semilattice2):
    alg, _frame = semilattice2
    frame = Frame(("u",), {"u": "{x,y}"})
    report = verify_basis_equivalence(alg, frame)
    # both diagnoses agree: no single generator, no bijection
    assert not report["generator"]
    assert not report["chi_exists"] and not report["bijective"]
    assert report["biconditional_ok"]


def test_conjugates_are_elementary(semilattice2, boolean):
    from ualgebra.elementary import elementary_closure
    for alg, frame in (semilattice2, boolean):
        rep = build_representation(alg, frame)
        tables = elementary_closure(alg, frame.X).tables()
        assert len(rep.conjugates) == len(alg.carrier)
        for chi in rep.conjugates:
            assert chi in tables


def _first_defect(rep, h: UnaryMap):
    """First M in canonical order with h(chi_a(M)) != chi_a(h . M) for some a."""
    for m in rep.matrices():
        hm = tuple(h.codes[v] for v in m)
        if any(h.codes[chi_a.at(m)] != chi_a.at(hm) for chi_a in rep.conjugates):
            return m
    return None


def test_commutation_checker_matches_oracle(semilattice2, boolean):
    reps = [build_representation(alg, frame) for alg, frame in (semilattice2, boolean)]
    rng = random.Random(5)
    while len(reps) < 8:
        rep = build_representation(*random_algebra(rng, max_size=4))
        if rep.bijective:
            reps.append(rep)
    for rep in reps:
        carrier = rep.algebra.carrier
        defect = commutation_checker(rep)
        # every map A -> A: the members and every non-member
        for values in itertools.product(range(len(carrier)), repeat=len(carrier)):
            h = UnaryMap(carrier, values)
            found = defect(values)
            assert (found is None) == (conjugate_commutation_defect(rep, h) is None)
            assert found == _first_defect(rep, h)
            assert (found is None) == (h in rep.endos)
