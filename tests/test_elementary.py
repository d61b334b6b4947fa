import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import op_from_rows, random_algebra
from ualgebra.combinator import constant_fn, projection, set_ary_compose
from ualgebra.core import Algebra, AlgebraError, Carrier, FunctionTable
from ualgebra.elementary import (
    ElementaryFunction,
    GeneratorResult,
    _fixpoint,
    _horner_tables,
    elementary_closure,
    elementary_generator,
    generated_subuniverse,
    rankless,
    subuniverse_with_terms,
    term_table,
)
from ualgebra.representation import Frame


def brute_closure_tables(alg, Y, max_depth=4):
    """Independent oracle: evaluate every term up to a fixed depth.

    Grows terms level by level instead of deduplicating tables inside a
    worklist, so it shares no code with the production closure.
    """
    levels = [{projection(alg.carrier, Y, x) for x in Y}]
    for _ in range(max_depth):
        current = set().union(*levels)
        nxt = set()
        for g in alg.ops:
            for combo in itertools.product(sorted(current, key=lambda t: t.key()),
                                           repeat=len(g.rank)):
                table = {
                    args: g(tuple(t(args) for t in combo))
                    for args in alg.carrier.assignments(Y)
                }
                from ualgebra.combinator import tabulate
                nxt.add(tabulate(alg.carrier, Y, table.__getitem__))
        levels.append(nxt)
    return set().union(*levels)


def naive_close(alg, seeds, width, guard=math.inf):
    """Oracle for ``_fixpoint``: every round applies each operation to every
    combination of the members so far, through ``Operation.__call__`` on
    element names, and keeps the first term reaching each new vector."""
    members = dict(seeds)
    while True:
        if len(members) > guard:
            return members, False
        new = {}
        order = list(members)
        for g in alg.ops:
            for combo in itertools.product(order, repeat=len(g.rank)):
                value = tuple(map(g, zip(*combo))) if combo else (g(()),) * width
                if value not in members and value not in new:
                    new[value] = ("op", g.symbol, tuple(members[v] for v in combo))
        if not new:
            return members, True
        members.update(new)


def closure_case(seed, shape):
    """A random algebra and seed vectors for one of the three closures.

    The algebra keeps ``random_algebra``'s binary and unary operations, may
    gain a ternary one and has zero to two constants, in shuffled order.
    ``shape`` picks the seeds: elements (width 1, as for generated
    subuniverses), (U(x), M(x)) pairs (width 2, as for the generator) or the
    projections over A^Y (width |A|^|Y|, as for elementary functions).
    """
    rng = random.Random(seed)
    alg, frame = random_algebra(rng, max_size=3)
    el = alg.carrier.elements
    ops = [g for g in alg.ops if g.rank]
    if rng.random() < 0.3:
        ops.append(op_from_rows(alg.carrier, "t", ("a", "b", "c"), {
            args: rng.choice(el) for args in itertools.product(el, repeat=3)}))
    ops += [op_from_rows(alg.carrier, f"c{i}", (), {(): rng.choice(el)})
            for i in range(rng.randint(0, 2))]
    rng.shuffle(ops)
    alg = Algebra("varied", alg.carrier, tuple(ops))
    seeds = {}
    if shape == "elements":
        for i in range(rng.randint(0, 2)):
            seeds.setdefault((rng.choice(el),), ("proj", f"x{i}"))
        return alg, seeds, 1
    if shape == "pairs":
        for x in frame.X:
            seeds.setdefault((frame.U[x], rng.choice(el)), ("proj", x))
        return alg, seeds, 2
    Y = ("p", "q")[: rng.randint(1, 2)]
    assigns = list(alg.carrier.assignments(Y))
    for pos, x in enumerate(Y):
        seeds.setdefault(tuple(args[pos] for args in assigns), ("proj", x))
    return alg, seeds, len(assigns)


def indexed_seeds(alg, seeds):
    """Seed vectors of element names as vectors of carrier indices."""
    return {tuple(map(alg.carrier.index.__getitem__, v)): term for v, term in seeds.items()}


def term_depth(term):
    return 0 if term[0] == "proj" else 1 + max(map(term_depth, term[2]), default=0)


class CountingTable(list):
    """A Horner table that adds its lookups, also those through its slices,
    to ``count[0]``."""

    def __init__(self, values, count):
        super().__init__(values)
        self.count = count

    def __getitem__(self, code):
        if isinstance(code, slice):
            return CountingTable(super().__getitem__(code), self.count)
        self.count[0] += 1
        return super().__getitem__(code)


SHAPES = st.sampled_from(["elements", "pairs", "functions"])
GUARDS = st.sampled_from([3, 7, 40, math.inf])


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=SHAPES, guard=GUARDS)
def test_close_matches_naive_rounds(seed, shape, guard):
    """Same members in the same order, the same witnesses and the same
    ``complete`` flag as the naive rounds, including guards that stop the
    closure part-way."""
    assume(shape != "functions" or guard < math.inf)
    alg, seeds, width = closure_case(seed, shape)
    members, complete = _fixpoint(len(alg.carrier), _horner_tables(alg),
                                  indexed_seeds(alg, seeds), width, guard)
    expected, expected_complete = naive_close(alg, seeds, width, guard)
    assert list(members.items()) == list(indexed_seeds(alg, expected).items())
    assert complete == expected_complete


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=SHAPES, guard=GUARDS)
def test_close_evaluates_only_new_combinations(seed, shape, guard):
    """Each round looks up exactly the combinations that touch the previous
    round's new members: width lookups for each such combination of a
    non-nullary operation, and one per nullary operation in the first round."""
    assume(shape != "functions" or guard < math.inf)
    alg, seeds, width = closure_case(seed, shape)
    count = [0]
    ops = [(symbol, k, CountingTable(flat, count)) for symbol, k, flat in _horner_tables(alg)]
    members, complete = _fixpoint(len(alg.carrier), ops, indexed_seeds(alg, seeds), width, guard)
    # seeds have depth 0 and round r finds the members of depth r + 1, so the
    # rounds run are one per depth found plus, when complete, the round that
    # found nothing
    depths = [term_depth(term) for term in members.values()]
    rounds = max(depths, default=0) + complete
    expected, start = 0, 0
    for r in range(rounds):
        end = sum(d <= r for d in depths)
        for _symbol, k, _flat in ops:
            expected += width * (end**k - start**k) if k else r == 0
        start = end
    assert count[0] == expected


def test_semilattice_unary_closure(semilattice2):
    alg, _frame = semilattice2
    result = elementary_closure(alg, ("p",))
    assert result.complete
    tables = result.tables()
    assert tables == brute_closure_tables(alg, ("p",))
    # only the identity and the constant-empty map are reachable
    assert len(tables) == 2
    assert projection(alg.carrier, ("p",), "p") in tables
    assert constant_fn(alg.carrier, "{}", ("p",)) in tables


def test_boolean_unary_closure(boolean):
    alg, _frame = boolean
    result = elementary_closure(alg, ("p",))
    tables = result.tables()
    assert tables == brute_closure_tables(alg, ("p",))
    assert len(tables) == 4  # identity, complement, both constants


def test_empty_arity_without_nullary():
    carrier = Carrier(("a", "b"))
    alg = Algebra("no-nullary", carrier, (
        op_from_rows(carrier, "f", ("l", "r"), {
            (x, y): "a" for x in carrier.elements for y in carrier.elements
        }),
    ))
    assert elementary_closure(alg, ()).tables() == set()


def test_empty_arity_with_nullary(semilattice2):
    alg, _frame = semilattice2
    tables = elementary_closure(alg, ()).tables()
    assert tables == {constant_fn(alg.carrier, "{}", ())}


def test_witness_terms_reproduce_tables(semilattice2, boolean):
    for alg, _frame in (semilattice2, boolean):
        for Y in (("p",), ("p", "q")):
            for ef in elementary_closure(alg, Y).functions:
                assert term_table(alg, ef.witness, Y) == ef.table


def test_projections_always_members(semilattice2, boolean):
    for alg, _frame in (semilattice2, boolean):
        for Y in (("p",), ("p", "q")):
            tables = elementary_closure(alg, Y).tables()
            for x in Y:
                assert projection(alg.carrier, Y, x) in tables


def test_guard_abandons():
    carrier = Carrier(("a", "b", "c"))
    # a random-ish binary op generates lots of distinct term functions
    values = ("b", "c", "a", "c", "a", "b", "a", "b", "c")
    table = dict(zip(itertools.product(carrier.elements, repeat=2), values))
    alg = Algebra("wild", carrier, (op_from_rows(carrier, "f", ("l", "r"), table),))
    result = elementary_closure(alg, ("p", "q"), guard=5)
    assert not result.complete


def test_rankless_semilattice(semilattice2):
    alg, _frame = semilattice2
    maps = rankless(alg)
    assert {m.values for m in maps} == {
        alg.carrier.elements,                       # identity
        ("{}",) * 4,                                # constant empty
    }


def test_rankless_boolean(boolean):
    alg, _frame = boolean
    assert len(rankless(alg)) == 4


def test_rankless_only_nullary():
    carrier = Carrier(("a", "b"))
    alg = Algebra("consts", carrier, (op_from_rows(carrier, "c", (), {(): "b"}),))
    maps = rankless(alg)
    assert {m.values for m in maps} == {("a", "b"), ("b", "b")}


def names_of(alg, indices) -> set[str]:
    return {alg.carrier.elements[a] for a in indices}


def test_generated_subuniverse(semilattice2, boolean):
    alg, frame = semilattice2
    assert names_of(alg, generated_subuniverse(alg, frame)) == set(alg.carrier.elements)
    # the top-less singleton frame misses the atoms
    small = Frame(("u",), {"u": "{x,y}"})
    assert names_of(alg, generated_subuniverse(alg, small)) == {"{}", "{x,y}"}
    balg, bframe = boolean
    assert names_of(balg, generated_subuniverse(balg, bframe)) == set(balg.carrier.elements)
    # an empty frame reaches only the nullary closure
    empty = Frame((), {})
    assert names_of(alg, generated_subuniverse(alg, empty)) == {"{}"}


def test_frame_outside_carrier_fails(semilattice2):
    alg, _frame = semilattice2
    frame = Frame(("x",), {"x": "nope"})
    for decide in (elementary_generator, generated_subuniverse):
        with pytest.raises(AlgebraError, match="frame value outside carrier: nope"):
            decide(alg, frame)


def test_generator_semilattice(semilattice2):
    alg, frame = semilattice2
    result = elementary_generator(alg, frame)
    assert result.exists
    top = result.chi[alg.carrier.index["{x,y}"]]
    for M in alg.carrier.assignments(frame.X):
        union = alg.op("union")
        assert top.table(M) == union(M)
    # the defining identity: chi at l(U) coincides with l, for every elementary l
    closure = elementary_closure(alg, frame.X)
    for ef in closure.functions:
        at_frame = ef.table.at(frame.codes(alg.carrier))
        assert result.chi[at_frame].table == ef.table


def test_generator_boolean(boolean):
    alg, frame = boolean
    result = elementary_generator(alg, frame)
    assert result.exists
    top = result.chi[alg.carrier.index["top"]]
    assert top.table == constant_fn(alg.carrier, "top", frame.X)


def test_not_generator_diagnosis(semilattice2):
    alg, _frame = semilattice2
    result = elementary_generator(alg, Frame(("u",), {"u": "{x,y}"}))
    assert result.status == "not-generator"
    assert names_of(alg, result.missing) == {"{x}", "{y}"}


def test_not_independent_diagnosis():
    # one generator, one idempotent unary op: both x and u(x) reach the same
    # element while the witnessing terms have different tables
    carrier = Carrier(("a", "b"))
    alg = Algebra("dep", carrier, (
        op_from_rows(carrier, "u", ("p",), {("a",): "b", ("b",): "b"}),
    ))
    result = elementary_generator(alg, Frame(("x", "y"), {"x": "a", "y": "b"}))
    assert result.status == "not-independent"
    ell, ell2 = result.witness
    U = ("a", "b")
    assert ell.table(U) == ell2.table(U)
    assert ell.table != ell2.table


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), Y=st.sampled_from([("p",), ("p", "q")]))
def test_closure_engine_against_composition(seed, Y):
    """Closures of random algebras, checked only through set_ary_compose and
    term_table: projections are members, every witness re-tabulates to its
    table and, when complete, the closure is closed under every operation."""
    alg, _frame = random_algebra(random.Random(seed), max_size=3)
    result = elementary_closure(alg, Y, guard=40)
    tables = [ef.table for ef in result.functions]
    assert len(set(tables)) == len(tables)
    for x in Y:
        assert projection(alg.carrier, Y, x) in tables
    for ef in result.functions:
        assert term_table(alg, ef.witness, Y) == ef.table
    if not result.complete:
        assert len(tables) > 40
        return
    members = set(tables)
    for g in alg.ops:
        for combo in itertools.product(tables, repeat=len(g.rank)):
            assert set_ary_compose(g, dict(zip(g.rank, combo)), alg.carrier, Y) in members


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_subuniverse_terms_evaluate_to_members(seed):
    """Each generated element's term, evaluated at the frame, gives that
    element, and the generated set is closed under every operation."""
    alg, frame = random_algebra(random.Random(seed), max_size=3)
    U = frame.codes(alg.carrier)
    reach = subuniverse_with_terms(alg, {u: ("proj", x) for x, u in zip(frame.X, U)})
    names = names_of(alg, reach)
    for a, term in reach.items():
        assert term_table(alg, term, frame.X).at(U) == a
    for g in alg.ops:
        for args in itertools.product(names, repeat=len(g.rank)):
            assert g(args) in names


def pair_closure_generator(alg, frame) -> GeneratorResult:
    """Oracle for ``elementary_generator``: for every matrix M, close the pairs
    (U(x), M(x)) inside A x A.  That pair subalgebra is the set of
    (l(U), l(M)) over elementary l, so two pairs with one first coordinate
    are a fork (no single generator), and otherwise chi_a(M) is the second
    coordinate of the pair starting with a."""
    X, n = frame.X, len(alg.carrier)
    U = frame.codes(alg.carrier)
    reach = subuniverse_with_terms(alg, {u: ("proj", x) for x, u in zip(X, U)})
    if len(reach) < n:
        return GeneratorResult("not-generator", missing=frozenset(range(n)) - reach.keys())
    ops = _horner_tables(alg)
    chi_codes = [[0] * n ** len(X) for _ in range(n)]
    for code, M in enumerate(itertools.product(range(n), repeat=len(X))):
        seeds = {}
        for x, u, m in zip(X, U, M):
            seeds.setdefault((u, m), ("proj", x))
        pairs, _complete = _fixpoint(n, ops, seeds, 2)
        by_first = {}
        for (a, b), term in pairs.items():
            if a in by_first and by_first[a][0] != b:
                return GeneratorResult("not-independent", witness=tuple(
                    ElementaryFunction(term_table(alg, t, X), t) for t in (by_first[a][1], term)))
            by_first.setdefault(a, (b, term))
        for a, (b, _term) in by_first.items():
            chi_codes[a][code] = b
    return GeneratorResult("ok", chi=tuple(
        ElementaryFunction(FunctionTable(alg.carrier, X, tuple(codes)), reach[a])
        for a, codes in enumerate(chi_codes)))


@pytest.mark.parametrize("max_size", [4, 5])
def test_generator_matches_pair_closures(max_size):
    """The one guarded closure decides as the n**k pair closures do, on 200
    random algebras per carrier bound."""
    rng = random.Random(max_size)
    statuses = []
    for _ in range(200):
        alg, frame = random_algebra(rng, max_size=max_size)
        U = frame.codes(alg.carrier)
        result, expected = elementary_generator(alg, frame), pair_closure_generator(alg, frame)
        statuses.append(result.status)
        assert result.status == expected.status
        assert result.missing == expected.missing
        if result.exists:
            assert [ef.table for ef in result.chi] == [ef.table for ef in expected.chi]
            for ef in result.chi:
                assert term_table(alg, ef.witness, frame.X) == ef.table
        if result.status == "not-independent":
            ell, ell2 = result.witness
            assert ell.table.at(U) == ell2.table.at(U)
            assert ell.table != ell2.table
            for ef in result.witness:
                assert term_table(alg, ef.witness, frame.X) == ef.table
    # every outcome is exercised
    assert {"ok", "not-generator", "not-independent"} <= set(statuses)
