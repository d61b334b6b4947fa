import dataclasses
import itertools
import math
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (based_algebra, extension, matrices, max_chain, op_from_rows,
                      random_algebra, relabeled, sampling, vector_space)
from ualgebra import cli, representation
from ualgebra.core import Algebra, AlgebraError, Carrier, FunctionTable, Operation, UnaryMap
from ualgebra.gallery import build_boolean_example, build_powerset_semilattice
from ualgebra.gallery.pert import pert_algebra
from ualgebra.representation import (
    BRUTE_CAP,
    Frame,
    _column_search,
    _derive_plan,
    _enumerate_backtrack,
    _enumerate_brute,
    _enumerate_columns,
    _search_kernel,
    build_representation,
    commutation_checker,
    endomorphism_generators,
    enumerate_endomorphisms,
    verify_basis_equivalence,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def named_conjugates(rep) -> list[dict]:
    """Each chi_a as a dict from matrices to values, on element names, with
    the matrices in canonical order."""
    names = rep.algebra.carrier.elements
    named = [tuple(names[v] for v in m) for m in matrices(rep)]
    return [{m: chi(m) for m in named} for chi in rep.conjugates]


def conjugate_commutation_defect(conjugates: list[dict], h: UnaryMap):
    """First (a, M) violating h(chi_a(M)) = chi_a(h . M), or None if none.

    Element-at-a-time oracle for ``commutation_checker``, on element names
    (``conjugates`` from ``named_conjugates``).
    """
    image = dict(zip(h.carrier.elements, h.values)).__getitem__
    for a, chi_a in enumerate(conjugates):
        for m, value in chi_a.items():
            if image(value) != chi_a[tuple(map(image, m))]:
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
    assert enumerate_endomorphisms(alg).codes == kernels_agree(alg) == {(0,)}
    assert kernels_agree(constant_algebra(1, (0,))) == {(0,)}  # a constant alone


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


def kernels_agree(alg: Algebra) -> set:
    """The byte kernel's endomorphisms, checked against the depth-first
    kernel, and against brute force when n**n is within its cap."""
    found = _enumerate_columns(alg)
    assert found == _enumerate_backtrack(alg)
    n = len(alg.carrier)
    if n**n <= BRUTE_CAP:
        assert found == _enumerate_brute(alg, BRUTE_CAP)
    return found


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
    alg, _frame = random_algebra(rng, max_size=6)
    elements = alg.carrier.elements
    ops = tuple(f for f in alg.ops if f.symbol not in dropped)
    ops += tuple(op_from_rows(alg.carrier, f"k{i}", (), {(): elements[c % len(elements)]})
                 for i, c in enumerate(constants))
    if ternary:
        ops += (ternary_operation(rng, alg.carrier, ternary == "conservative"),)
    assume(ops)
    alg = Algebra(alg.name, alg.carrier, ops)
    assert _search_kernel(alg) is _enumerate_columns
    assert enumerate_endomorphisms(alg, "backtrack").codes == kernels_agree(alg)


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


def sorted_in_runs(args: tuple, symmetric: set) -> tuple:
    """``args`` with each run of positions p, p + 1, .. (every adjacent pair of
    the run in ``symmetric``) sorted."""
    out, start = list(args), 0
    for p in range(1, len(args) + 1):
        if p == len(args) or p - 1 not in symmetric:
            out[start:p] = sorted(out[start:p])
            start = p
    return tuple(out)


def split_rows(alg: Algebra) -> tuple[list, list]:
    """Every row of ``alg`` as (table index, args, res), split into the rows the
    plan must keep and the rows it may drop.  A table's symmetric adjacent
    positions and its idempotence are read off its rows here: a row is
    dropped when it is the diagonal of an idempotent table of positive arity,
    or when sorting its arguments within runs of symmetric positions changes
    it (its twin, the sorted row, is kept)."""
    n = len(alg.carrier)
    kept, dropped = [], []
    for t, table in enumerate(alg.tables):
        k = len(table.rank)
        rows = dict(zip(itertools.product(range(n), repeat=k), table.codes))
        symmetric = {p for p in range(k - 1)
                     if all(res == rows[args[:p] + (args[p + 1], args[p]) + args[p + 2:]]
                            for args, res in rows.items())}
        idempotent = k > 0 and all(rows[(a,) * k] == a for a in range(n))
        for args, res in rows.items():
            diagonal = idempotent and len(set(args)) == 1
            twin = sorted_in_runs(args, symmetric)
            (dropped if diagonal or twin != args else kept).append((t, args, res))
            if twin != args:
                assert rows[twin] == res  # the twin states the same equation
    return kept, dropped


def check_plan(alg: Algebra) -> list:
    """Walk the derived plan of ``alg``, each table stood for by its index,
    and check each part of it; return the rows it consumes, as (table index,
    args, res), in plan order."""
    n = len(alg.carrier)
    kept, _dropped = split_rows(alg)
    seed, levels = _derive_plan(alg, list(range(len(alg.tables))))
    assigned, seen = set(), []

    def walk(steps):
        for t, args, res, is_set in steps:
            # a step's result is its table's value at its arguments
            assert alg.tables[t].codes[_horner(args, n)] == res
            assert set(args) <= assigned and is_set == (res not in assigned)
            assigned.add(res)
            seen.append((t, args, res))

    walk(seed)
    for e, steps in levels:
        assert e == min(set(range(n)) - assigned)
        assigned.add(e)
        # the level opens with its unit rows, as checks: the kept rows that
        # mention e and otherwise only elements assigned before, result included
        units = {(t, args, res) for t, args, res in kept
                 if e in args and set(args) | {res} <= assigned}
        head = steps[:len(units)]
        assert {(t, args, res) for t, args, res, _ in head} == units
        assert not any(is_set for *_, is_set in head)
        walk(steps)
    assert assigned == set(range(n))
    return seen


def symmetric_operation(rng: random.Random, carrier, arity: int, symmetric: list,
                        idempotent: bool = False, symbol: str = "s") -> Operation:
    """A random table of ``arity`` that keeps its values when the arguments at
    any two positions of one set in ``symmetric`` swap (the sets are
    disjoint), and with f(a, .., a) = a when ``idempotent``."""
    n = len(carrier)
    values: dict[tuple, int] = {}
    codes = []
    for args in itertools.product(range(n), repeat=arity):
        key = list(args)
        for positions in symmetric:
            for p, v in zip(sorted(positions), sorted(args[p] for p in positions)):
                key[p] = v
        if idempotent and len(set(args)) == 1:
            codes.append(args[0])
        else:
            codes.append(values.setdefault(tuple(key), rng.randrange(n)))
    rank = tuple(f"x{i}" for i in range(arity))
    return Operation(symbol, rank, table=FunctionTable(carrier, rank, tuple(codes)))


def test_plan_consumes_every_row_once(semilattice2, semilattice3, boolean, trivial):
    # the plan consumes every kept row once, and every row it drops is an
    # argument-order twin of a kept row or the diagonal of an idempotent table
    rng = random.Random(13)
    algebras = [semilattice2[0], semilattice3[0], boolean[0], trivial[0], max_chain(rng, 6),
                vector_space(3, 2), projection_algebra(3)]
    for _ in range(12):
        alg, _frame = random_algebra(rng, max_size=4)
        ternary = ternary_operation(rng, alg.carrier, rng.random() < 0.5)
        algebras.append(Algebra(alg.name, alg.carrier, alg.ops + (ternary,)))
    for symmetric in ([{0, 1}], [{1, 2}], [{0, 1, 2}], [{0, 2}], [{0, 1}, {2, 3}]):
        carrier = Carrier(tuple(f"a{i}" for i in range(rng.randint(2, 4))))
        arity = 1 + max(max(positions) for positions in symmetric)
        ops = (symmetric_operation(rng, carrier, arity, symmetric, rng.random() < 0.5),
               symmetric_operation(rng, carrier, 2, [{0, 1}], True, "join"))
        algebras.append(Algebra("symmetric", carrier, ops))
    dropped_some = 0
    for alg in algebras:
        kept, dropped = split_rows(alg)
        assert sorted(check_plan(alg)) == sorted(kept)
        dropped_some += bool(dropped)
    assert dropped_some >= 10
    # on a join semilattice, propagation derives joins of branched elements
    for alg, _frame in (semilattice2, semilattice3):
        _seed, levels = _derive_plan(alg, alg.tables)
        assert any(is_set for _e, steps in levels for *_, is_set in steps)


def test_plan_keeps_tables_symmetric_only_in_outer_arguments():
    # a table symmetric in positions 0 and 2 but in no adjacent pair keeps
    # every row in the plan
    rng = random.Random(5)
    carrier = Carrier(("a0", "a1", "a2"))
    op = symmetric_operation(rng, carrier, 3, [{0, 2}])
    alg = Algebra("outer", carrier, (op,))
    _kept, dropped = split_rows(alg)
    assert not dropped
    assert len(check_plan(alg)) == 27


def plan_steps(alg: Algebra) -> int:
    seed, levels = _derive_plan(alg, alg.tables)
    return len(seed) + sum(len(steps) for _e, steps in levels)


def test_plan_step_counts_in_closed_form():
    # a max-chain's max is commutative and idempotent: the n(n + 1)/2 rows
    # with l <= r, less the n diagonal ones; GF(p)^k's plus is commutative
    # but not idempotent: p^k (p^k + 1)/2 rows, and one for zero
    chain = relabeled(max_chain(random.Random(3), 8), random.Random(4))
    assert plan_steps(chain) == 8 * 9 // 2 - 8 == 28
    assert plan_steps(vector_space(3, 3)) == 27 * 28 // 2 + 1 == 379
    assert plan_steps(vector_space(5, 2)) == 25 * 26 // 2 + 1 == 326


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5),
       shape=st.sampled_from(((2, [{0, 1}]), (3, [{0, 1}]), (3, [{1, 2}]), (3, [{0, 1, 2}]),
                              (3, [{0, 2}]))),
       idempotent=st.booleans(), unary=st.booleans())
def test_kernels_match_brute_on_symmetric_tables(seed, n, shape, idempotent, unary):
    # binary tables, idempotent or not, and ternary tables symmetric in (0, 1)
    # only, in (1, 2) only, in all three positions, or in (0, 2) only, which
    # no adjacent pair shows, so that its rows stay in the plan
    rng = random.Random(seed)
    carrier = Carrier(tuple(f"a{i}" for i in range(n)))
    arity, symmetric = shape
    ops = (symmetric_operation(rng, carrier, arity, symmetric, idempotent),)
    if unary:
        ops += (Operation("u", ("x",), table=FunctionTable(
            carrier, ("x",), tuple(rng.randrange(n) for _ in range(n)))),)
    alg = Algebra("symmetric", carrier, ops)
    kept, _dropped = split_rows(alg)
    assert sorted(check_plan(alg)) == sorted(kept)
    assert enumerate_endomorphisms(alg).codes == kernels_agree(alg)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_relabeled_chain_endo_count(n):
    # endomorphisms of a max-chain are the monotone self-maps: C(2n-1, n)
    rng = random.Random(n)
    for _ in range(3):
        alg = max_chain(rng, n)
        assert len(enumerate_endomorphisms(alg)) == len(kernels_agree(alg)) == math.comb(2 * n - 1, n)


def constant_algebra(n: int, arities) -> Algebra:
    """n elements and one operation per arity, each constantly the first element."""
    carrier = Carrier(tuple(f"a{i}" for i in range(n)))
    ops = tuple(Operation(f"k{i}", rank, table=FunctionTable(carrier, rank, (0,) * n ** k))
                for i, k in enumerate(arities)
                for rank in [tuple(f"x{j}" for j in range(k))])
    return Algebra("constant", carrier, ops)


def test_kernels_agree_on_based_algebras():
    for seed in range(12):
        alg, _frame = based_algebra(random.Random(seed))
        assert len(kernels_agree(alg)) == len(alg.carrier) ** len(_frame.X)


def linear_maps(p: int, k: int) -> set[tuple]:
    """The endomorphisms of GF(p)^k in closed form: each of the p**(k*k)
    matrices, as the map sending every vector to its product with the matrix,
    in the element order of ``vector_space``."""
    vectors = list(itertools.product(range(p), repeat=k))
    index = {v: i for i, v in enumerate(vectors)}
    return {tuple(index[tuple(sum(row[j] * v[j] for j in range(k)) % p for row in matrix)]
                  for v in vectors)
            for matrix in itertools.product(vectors, repeat=k)}


@pytest.mark.parametrize("p, k, kernel", [
    (3, 2, _enumerate_columns),
    (2, 3, _enumerate_columns),
    (5, 2, _enumerate_backtrack),  # plus has 625 codes
])
def test_vector_space_endomorphisms_are_the_matrices(p, k, kernel):
    alg = vector_space(p, k)
    assert _search_kernel(alg) is kernel
    found = enumerate_endomorphisms(alg).codes
    assert len(found) == p ** (k * k)
    assert found == linear_maps(p, k)
    assert found == _enumerate_backtrack(alg)


def projection_algebra(n: int) -> Algebra:
    """n elements with the unary identity and the binary left projection.  An
    algebra needs an operation, and these constrain nothing: every map A -> A
    is an endomorphism, as with no operations at all."""
    carrier = Carrier(tuple(f"a{i}" for i in range(n)))
    identity = FunctionTable(carrier, ("x",), tuple(range(n)))
    left = FunctionTable(carrier, ("l", "r"), tuple(a for a in range(n) for _ in range(n)))
    return Algebra("projections", carrier, (Operation("id", ("x",), table=identity),
                                            Operation("left", ("l", "r"), table=left)))


def test_kernels_agree_without_constraints():
    # no row prunes, and every element is branched on
    for n in (1, 2, 3, 4, 5):
        alg = projection_algebra(n)
        assert kernels_agree(alg) == set(itertools.product(range(n), repeat=n))


def test_kernels_agree_past_the_block_size(semilattice3, monkeypatch):
    # blocks of a few partial maps: every level of these searches runs in
    # many blocks, some of which lose every map.  Without random_algebra's
    # binary operation more maps survive to the later levels.
    rng = random.Random(17)
    algebras = [semilattice3[0], max_chain(rng, 6), projection_algebra(4)]
    for _ in range(10):
        alg, _frame = random_algebra(rng, max_size=5)
        ops = alg.ops + (ternary_operation(rng, alg.carrier, True),)
        algebras.append(Algebra(alg.name, alg.carrier, ops[1:]))
    whole = [_enumerate_columns(alg) for alg in algebras]
    for rows in (8, 16, 24):
        monkeypatch.setattr(representation, "BLOCK_ROWS", rows)
        assert [kernels_agree(alg) for alg in algebras] == whole


@pytest.mark.parametrize("n, arities, kernel", [
    (16, (2,), _enumerate_columns),
    (6, (3,), _enumerate_columns),
    (255, (1,), _enumerate_columns),
    (16, (0, 1, 2), _enumerate_columns),
    (17, (2,), _enumerate_backtrack),
    (7, (3,), _enumerate_backtrack),
    (256, (1,), _enumerate_backtrack),  # no byte value left to mark failed maps
    (257, (0,), _enumerate_backtrack),  # one code, but a value past a byte
    (16, (1, 2, 3), _enumerate_backtrack),
])
def test_shape_rule(n, arities, kernel):
    # the byte kernel when n is below 256 and every table has at most 256 codes
    assert _search_kernel(constant_algebra(n, arities)) is kernel


@pytest.mark.parametrize("n, kernel", [(255, _enumerate_columns), (256, _enumerate_backtrack)])
def test_successor_algebra_at_the_byte_boundary(n, kernel):
    # a successor map whose last element returns to 128, and a constant map,
    # which forces h(0) = 0; h is then the identity on the successor's orbit
    # of 0, which is everything.  255 elements is the byte kernel's largest
    # carrier; 256 leave no byte value to mark failed maps, so the depth-first
    # kernel runs
    carrier = Carrier(tuple(f"a{i}" for i in range(n)))
    rank = ("x",)
    succ = FunctionTable(carrier, rank, tuple(range(1, n)) + (128,))
    ops = (Operation("s", rank, table=succ),
           Operation("z", rank, table=FunctionTable(carrier, rank, (0,) * n)))
    alg = Algebra("rho", carrier, ops)
    assert _search_kernel(alg) is kernel
    assert kernel(alg) == {tuple(range(n))} == _enumerate_backtrack(alg)
    # without the constant map, h(0) is free and fixes all of h
    alg = Algebra("rho", carrier, ops[:1])
    found = kernel(alg)
    assert len(found) == n and found == _enumerate_backtrack(alg)


def retract_algebra(n: int) -> Algebra:
    """One unary operation that fixes every element but the last, which it
    sends to the first: the search branches on every element, each level
    keeps the n - 1 fixed values, and the last level's row u(last) = first
    keeps the maps whose h(last) is sent to h(first)."""
    carrier = Carrier(tuple(f"a{i}" for i in range(n)))
    table = FunctionTable(carrier, ("x",), tuple(range(n - 1)) + (0,))
    return Algebra("retract", carrier, (Operation("u", ("x",), table=table),))


def traced_search(alg: Algebra) -> tuple[list[bytes], int]:
    tracemalloc.start()
    try:
        columns = _column_search(alg)
        return columns, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_split_search_memory(monkeypatch):
    # 7 elements: the last level expands 6**6 partial maps to 7 * 6**6, whose
    # 7 columns take 2.3 MB; 6**5 * 7 maps survive (h(6) in {0, 6} when h(0)
    # is 0, and h(6) = h(0) otherwise)
    n = 7
    alg = retract_algebra(n)
    expanded = n * 6 ** 6 * n  # bytes of the expanded last level
    columns, peak = traced_search(alg)
    assert len(columns[0]) == 6 ** 5 * 7
    assert set(zip(*columns)) == _enumerate_backtrack(alg)
    monkeypatch.setattr(representation, "BLOCK_ROWS", 1 << 30)
    unsplit, unsplit_peak = traced_search(alg)
    # the blocks order the maps differently, but hold the same ones
    assert set(zip(*unsplit)) == set(zip(*columns))
    # blocks of at most 2**16 partial maps never hold the expanded level at once
    assert peak < expanded < unsplit_peak
    assert 2 * peak < unsplit_peak


def test_rule_based_rejected():
    alg = pert_algebra(("a", "b"))
    with pytest.raises(AlgebraError):
        enumerate_endomorphisms(alg)


def test_semilattice_representation_bijective(semilattice2):
    alg, frame = semilattice2
    rep = build_representation(alg, frame)
    assert rep.bijective
    assert len(rep.endos) == 16 == len(alg.carrier) ** len(frame.X)
    # both inverse identities, exhaustively, with the extension read off the conjugates
    sample, extend = sampling(rep), extension(rep)
    for h in sample:
        assert extend[sample[h]] == h
    for M in matrices(rep):
        assert sample[extend[M]] == M
    # sampling really samples at the frame, on element names
    names = alg.carrier.elements
    for h in rep.endos:
        image = dict(zip(names, h.values))
        assert tuple(names[v] for v in sample[h.codes]) == tuple(image[frame.U[x]]
                                                                 for x in frame.X)


def test_chi_satisfies_extension_identity(semilattice2):
    alg, frame = semilattice2
    rep = build_representation(alg, frame)
    # h_M(a) = chi_a(M), where h_M is the endomorphism that samples to M
    by_matrix = {M: h for h, M in sampling(rep).items()}
    for a in range(len(alg.carrier)):
        for M in matrices(rep):
            assert rep.conjugates[a].at(M) == by_matrix[M][a]


def test_constant_frame_not_bijective(semilattice2):
    alg, _frame = semilattice2
    rep = build_representation(alg, Frame(("p", "q"), {"p": "{x}", "q": "{x}"}))
    assert not rep.bijective
    assert rep.failure["reason"] in ("not-injective", "not-surjective")
    sample = sampling(rep)
    if rep.failure["reason"] == "not-injective":
        h1, h2 = rep.failure["endos"]
        assert h1 != h2 and sample[h1] == sample[h2] == rep.failure["matrix"]
    else:
        assert rep.failure["matrix"] not in sample.values()


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


def test_commutation_checker_on_the_empty_frame(trivial):
    """k = 0 on one element: one matrix, the empty one, and the identity
    commutes with its one conjugate."""
    rep = build_representation(*trivial)
    assert list(matrices(rep)) == [()]
    assert commutation_checker(rep)((0,)) is None


def test_empty_frame_on_nontrivial(semilattice2):
    alg, _frame = semilattice2
    rep = build_representation(alg, Frame((), {}))
    assert not rep.bijective
    assert "identity" in rep.failure["reason"]


def dict_representation(rep) -> tuple:
    """``rep`` rebuilt by the dict-based construction from its endomorphisms
    and a non-empty frame: sample every map, scan the maps in code order into
    a dict from matrices to maps (the first repeated matrix is the collision),
    then look every matrix up in canonical order.  Returns (bijective,
    failure, the conjugates' codes), the oracle for the sorted build."""
    assert rep.frame.X
    sample = sampling(rep)
    by_matrix: dict = {}
    for h in sorted(sample):
        m = sample[h]
        if m in by_matrix:
            return False, {"reason": "not-injective", "matrix": m, "endos": (by_matrix[m], h)}, None
        by_matrix[m] = h
    every = list(matrices(rep))
    unhit = [m for m in every if m not in by_matrix]
    if unhit:
        return False, {"reason": "not-surjective", "matrix": unhit[0]}, None
    return True, None, tuple(zip(*(by_matrix[m] for m in every)))


def unit_vector_frame(p: int, k: int) -> Frame:
    """The unit vectors of ``vector_space(p, k)`` as a frame."""
    labels = tuple(f"x{i}" for i in range(k))
    return Frame(labels, {x: "".join("1" if j == i else "0" for j in range(k))
                          for i, x in enumerate(labels)})


def random_frame(alg, rng: random.Random) -> Frame:
    labels = tuple(f"x{i}" for i in range(rng.randint(1, 3)))
    return Frame(labels, {x: rng.choice(alg.carrier.elements) for x in labels})


def test_sorted_build_matches_the_dict_construction():
    rng = random.Random(16)
    cases = [random_algebra(rng) for _ in range(300)]
    for _ in range(12):
        alg, frame = based_algebra(rng)
        cases += [(alg, frame), (alg, random_frame(alg, rng))]
    for p, k in ((2, 2), (3, 2), (2, 3)):
        alg = relabeled(vector_space(p, k), rng)
        cases += [(alg, unit_vector_frame(p, k)), (alg, random_frame(alg, rng))]
    outcomes = []
    for alg, frame in cases:
        rep = build_representation(alg, frame)
        bijective, failure, conjugates = dict_representation(rep)
        assert rep.bijective == bijective
        assert rep.failure == failure
        assert (rep.conjugates and tuple(chi.codes for chi in rep.conjugates)) == conjugates
        outcomes.append((len(alg.carrier), failure["reason"] if failure else "bijective"))
    reasons = [reason for _n, reason in outcomes]
    assert {"bijective", "not-injective", "not-surjective"} <= set(reasons[:300])
    # bijective past two elements: the based draws and the three vector spaces
    assert {n for n, reason in outcomes if reason == "bijective"} >= {4, 8, 9}
    assert all(reason == "bijective" for reason in reasons[-6::2])


def test_basis_equivalence_semilattice(semilattice2):
    alg, frame = semilattice2
    report = verify_basis_equivalence(alg, frame)
    assert report["biconditional_ok"]
    assert report["chi_routes_agree"]
    assert report["commutation_members_ok"]
    assert report["e_chi_equals_e_alpha"]
    assert report["nonmember_check"] == "exact"


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
    for m in matrices(rep):
        hm = tuple(h.codes[v] for v in m)
        if any(h.codes[chi_a.at(m)] != chi_a.at(hm) for chi_a in rep.conjugates):
            return m
    return None


def bijective_random_reps() -> list:
    """The bijective representations among 400 seeded random algebras."""
    reps = []
    for seed in range(400):
        rep = build_representation(*random_algebra(random.Random(seed)))
        if rep.bijective:
            reps.append(rep)
    return reps


def check_defect(rep, defect, conjugates, values) -> tuple | None:
    """``defect(values)`` against both oracles (``conjugates`` are the named
    tables of ``rep``); returns it."""
    h = UnaryMap(rep.algebra.carrier, values)
    found = defect(values)
    assert found == _first_defect(rep, h)
    witness = conjugate_commutation_defect(conjugates, h)
    assert (found is None) == (witness is None)
    if witness is not None:
        # the oracle runs a before M, so its M is at or after the first defective M
        index = rep.algebra.carrier.index
        assert tuple(index[v] for v in witness[1]) >= found
    return found


def with_conjugate_changed(rep, a: int, at: int, shift: int = 1):
    """``rep`` with the code of chi_a at Horner code ``at`` moved by ``shift``."""
    n = len(rep.algebra.carrier)
    codes = list(rep.conjugates[a].codes)
    codes[at] = (codes[at] + shift) % n
    chi = FunctionTable(rep.algebra.carrier, rep.frame.X, tuple(codes))
    return dataclasses.replace(rep, conjugates=rep.conjugates[:a] + (chi,) + rep.conjugates[a + 1:])


def test_commutation_checker_matches_oracle(semilattice2, semilattice3, boolean):
    reps = [build_representation(alg, frame) for alg, frame in (semilattice2, boolean)]
    # a wrong code in the last block: the members' defects lie past the first block
    mutated = with_conjugate_changed(reps[0], 1, 13)
    reps += [mutated] + bijective_random_reps()
    blocks = set()
    for rep in reps:
        carrier = rep.algebra.carrier
        defect, conjugates = commutation_checker(rep), named_conjugates(rep)
        # every map A -> A: the members and every non-member
        for values in itertools.product(range(len(carrier)), repeat=len(carrier)):
            found = check_defect(rep, defect, conjugates, values)
            if rep is not mutated:
                assert (found is None) == (UnaryMap(carrier, values) in rep.endos)
            if found is not None:
                blocks.add(found[0])
    assert blocks == {0, 1, 2, 3}
    # on semilattice3, 2000 seeded maps: uniform ones, and members with one value changed
    rep = build_representation(*semilattice3)
    defect, conjugates = commutation_checker(rep), named_conjugates(rep)
    rng = random.Random(9)
    members = sorted(h.codes for h in rep.endos)
    for i in range(2000):
        if i % 2:
            values = [rng.randrange(8) for _ in range(8)]
        else:
            values = list(rng.choice(members))
            at = rng.randrange(8)
            values[at] = (values[at] + rng.randrange(1, 8)) % 8
        found = check_defect(rep, defect, conjugates, tuple(values))
        assert (found is None) == (tuple(values) in members)


def all_members_ok(rep) -> bool:
    """The members half of E_chi = E_alpha on every endomorphism: the oracle
    for the check on a generating set."""
    defect = commutation_checker(rep)
    return all(defect(h.codes) is None for h in rep.endos)


def monoid_closure(maps, n: int) -> set:
    """Every composite of ``maps`` (the identity included), by naive rounds."""
    closure = {tuple(range(n))}
    while True:
        grown = closure | {tuple(f[v] for v in g) for f in closure for g in maps}
        if grown == closure:
            return closure
        closure = grown


def greedy_generators(members: set, n: int) -> list:
    """The greedy generating set by its definition, on naive closures."""
    generators: list = []
    closure = monoid_closure(generators, n)
    for h in sorted(members, key=lambda h: (-len(set(h)), h)):
        if h not in closure:
            generators.append(h)
            closure = monoid_closure(generators, n)
    return generators


def semilattice_reps() -> list:
    examples = [build_powerset_semilattice("xyz"[:size]) for size in (1, 2, 3)]
    examples.append(build_boolean_example())
    return [build_representation(alg, frame) for alg, frame in examples]


def based_reps(count: int = 12) -> list:
    """The representations of ``count`` seeded ``based_algebra`` draws."""
    return [build_representation(*based_algebra(random.Random(seed))) for seed in range(count)]


def test_members_on_generators_match_all_members():
    reps = semilattice_reps() + bijective_random_reps() + based_reps()
    assert len(reps) > 20
    sizes = []
    for rep in reps:
        alg, carrier = rep.algebra, rep.algebra.carrier
        members = {h.codes for h in rep.endos}
        generators = endomorphism_generators(members, carrier)
        assert monoid_closure(generators, len(carrier)) == members
        assert generators == greedy_generators(members, len(carrier))
        report = verify_basis_equivalence(alg, rep.frame, rep=rep)
        assert report["commutation_members_ok"] == all_members_ok(rep)
        sizes.append(len(generators))
    assert sizes[2] == 5  # semilattice3


def test_members_routes_agree_on_a_mutated_conjugate():
    # one code of one conjugate changed: both routes see the same wrong tables
    rng = random.Random(23)
    reps = semilattice_reps()
    mutated = []
    for rep in reps + bijective_random_reps():
        n = len(rep.algebra.carrier)
        if n > 1:
            mutated.append(with_conjugate_changed(rep, rng.randrange(n),
                                                  rng.randrange(n ** len(rep.frame.X)),
                                                  rng.randrange(1, n)))
    # on semilattice3, chi_{x} sends the all-{} matrix to {x,y,z}: every
    # automorphism still commutes, since it fixes both, but the constant {} does not
    mutated.append(with_conjugate_changed(reps[2], 1, 0, 7))
    verdicts = []
    for rep in mutated:
        report = verify_basis_equivalence(rep.algebra, rep.frame, rep=rep)
        assert report["commutation_members_ok"] == all_members_ok(rep)
        verdicts.append(report["commutation_members_ok"])
    assert not verdicts[-1] and True in verdicts


def test_generators_leaving_the_endomorphisms_fail(semilattice3, monkeypatch):
    # semilattice3's representation with one endomorphism, not a generator, dropped
    rep = build_representation(*semilattice3)
    generators = endomorphism_generators({h.codes for h in rep.endos}, rep.algebra.carrier)
    dropped = next(h for h in sorted(rep.endos, key=lambda h: h.codes)
                   if h.codes not in generators and h.codes != tuple(range(len(h.codes))))
    rep = dataclasses.replace(rep, endos=rep.endos - {dropped})
    with pytest.raises(AlgebraError, match="not closed under composition"):
        verify_basis_equivalence(rep.algebra, rep.frame, rep=rep)
    # through the CLI, a structured fail without commutation_members_ok
    monkeypatch.setattr(cli, "build_representation", lambda alg, frame: rep)
    out, code = cli.run(["basis", str(FIXTURES / "semilattice3.json"),
                         str(FIXTURES / "semilattice3_frame.json")])
    assert code == 1
    assert out["report"]["status"] == "fail"
    assert "not closed under composition" in out["report"]["error"]
    assert "basis_equivalence" not in out["report"]


def swept_nonmembers_rejected(rep) -> bool:
    """The E_chi within E_alpha half by sweeping: the defect test finds a
    defect in every map A -> A outside the endomorphisms, over all of them
    when n**n <= BRUTE_CAP and over 1000 seeded draws otherwise.  The oracle
    for the exact check on the conjugates' columns."""
    defect = commutation_checker(rep)
    members = {h.codes for h in rep.endos}
    n = len(rep.algebra.carrier)
    if n**n <= BRUTE_CAP:
        candidates = itertools.product(range(n), repeat=n)
    else:
        rng = random.Random(0)
        candidates = (tuple(rng.randrange(n) for _ in range(n)) for _ in range(1000))
    return all(h in members or defect(h) is not None for h in candidates)


def nonmembers_rejected(rep) -> bool:
    report = verify_basis_equivalence(rep.algebra, rep.frame, rep=rep)
    assert report["nonmember_check"] == "exact"
    return report["nonmembers_rejected"]


def test_exact_nonmember_check_matches_sweep(semilattice2, semilattice3, boolean):
    reps = [build_representation(alg, frame) for alg, frame in (semilattice2, semilattice3, boolean)]
    reps += bijective_random_reps() + based_reps()
    assert {len(rep.algebra.carrier) for rep in reps} == {2, 4, 8}
    for rep in reps:
        assert rep.bijective
        assert nonmembers_rejected(rep) == swept_nonmembers_rejected(rep)


def code_of_U(rep) -> int:
    """The Horner code of the frame's own matrix U."""
    return list(matrices(rep)).index(rep.frame.codes(rep.algebra.carrier))


def with_columns_swapped(rep, i: int, j: int):
    """``rep`` with the columns chi_.(M) at Horner codes i and j exchanged."""
    columns = list(zip(*(chi.codes for chi in rep.conjugates)))
    columns[i], columns[j] = columns[j], columns[i]
    conjugates = tuple(FunctionTable(rep.algebra.carrier, rep.frame.X, codes)
                       for codes in zip(*columns))
    return dataclasses.replace(rep, conjugates=conjugates)


def test_exact_pass_implies_sweep_pass_on_mutated_conjugates():
    """On wrong conjugates the exact check is only sufficient: when it passes,
    the sweep finds no non-member without a defect either."""
    rng = random.Random(31)
    reps = [rep for rep in semilattice_reps() + bijective_random_reps() + based_reps()
            if len(rep.algebra.carrier) > 1]
    verdicts = []
    for rep in reps:
        n, size = len(rep.algebra.carrier), len(rep.conjugates[0].codes)
        mutated = [with_conjugate_changed(rep, rng.randrange(n), rng.randrange(size),
                                          rng.randrange(1, n))]
        if size > 2:
            # two columns other than the one at U, swapped: every column is still a member
            at_U = code_of_U(rep)
            others = [c for c in range(size) if c != at_U]
            mutated.append(with_columns_swapped(rep, *rng.sample(others, 2)))
        for wrong in mutated:
            exact = nonmembers_rejected(wrong)
            if exact:
                assert swept_nonmembers_rejected(wrong)
            verdicts.append(exact)
    assert True in verdicts and False in verdicts


def test_conjugate_changed_at_the_frame_fails_basis(semilattice3, monkeypatch):
    # chi_.(U) is no longer the identity, so the columns prove nothing: one
    # code of chi_a moved, or the column at U swapped with the last one, which
    # leaves every column an endomorphism
    rep = build_representation(*semilattice3)
    at_U = code_of_U(rep)
    moved = with_conjugate_changed(rep, 3, at_U)
    swapped = with_columns_swapped(rep, at_U, len(rep.conjugates[0].codes) - 1)
    for wrong in (moved, swapped):
        report = verify_basis_equivalence(wrong.algebra, wrong.frame, rep=wrong)
        assert report["nonmember_check"] == "exact"
        assert report["nonmembers_rejected"] is False
        assert report["e_chi_equals_e_alpha"] is False
    monkeypatch.setattr(cli, "build_representation", lambda alg, frame: moved)
    out, code = cli.run(["basis", str(FIXTURES / "semilattice3.json"),
                         str(FIXTURES / "semilattice3_frame.json")])
    assert code == 1
    assert out["report"]["status"] == "fail"
    assert out["report"]["basis_equivalence"]["nonmembers_rejected"] is False
