import gc
import inspect
import itertools
import math
import operator
import random
import sys
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import op_from_rows, random_algebra, vector_space
from ualgebra import elementary
from ualgebra.combinator import constant_fn, projection, set_ary_compose
from ualgebra.core import Algebra, AlgebraError, Carrier, FunctionTable
from ualgebra.elementary import (
    ElementaryFunction,
    GeneratorResult,
    _code_fixpoint,
    _code_tables,
    _fixpoint,
    _horner_tables,
    _Lifts,
    _projection_seeds,
    _row_fixpoint,
    _vector_fixpoint,
    elementary_closure,
    elementary_generator,
    generated_subuniverse,
    rankless,
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
    element names, and keeps the first term reaching each new vector.  It
    stops as soon as it holds more than ``guard`` members."""
    members = dict(seeds)
    if len(members) > guard:
        return members, False
    while True:
        new = {}
        order = list(members)
        for g in alg.ops:
            for combo in itertools.product(order, repeat=len(g.rank)):
                value = tuple(map(g, zip(*combo))) if combo else (g(()),) * width
                if value not in members and value not in new:
                    new[value] = ("op", g.symbol, tuple(members[v] for v in combo))
                    if len(members) + len(new) > guard:
                        return members | new, False
        if not new:
            return members, True
        members.update(new)


def closure_case(seed, shape):
    """A random algebra and seed vectors for one of the three closures.

    The algebra has two to four elements, so a one-slot closure of
    elementary functions may fill all 4**4 = 256 points of its power.  It
    keeps ``random_algebra``'s binary and unary operations, may gain a
    ternary one and has zero to two constants, in shuffled order.
    ``shape`` picks the seeds: elements (width 1, as for generated
    subuniverses), (U(x), M(x)) pairs (width 2, as for the generator) or the
    projections over A^Y (width |A|^|Y|, as for elementary functions).  An
    (n, width) pair picks ``boundary_case`` instead.
    """
    if isinstance(shape, tuple):
        return boundary_case(seed, *shape)
    rng = random.Random(seed)
    alg, frame = random_algebra(rng, max_size=4)
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


# (carrier size, width) at the 256-point boundary of the code kernel: powers
# of 256, 256, 256 and 243 points, then of 512 and 729
BOUNDARY = [(4, 4), (16, 2), (2, 8), (3, 5), (2, 9), (3, 6)]


def boundary_case(seed, n, width):
    """An algebra on n elements with a binary, a unary and a ternary
    operation and zero or one constant, in shuffled order, and one to three
    random seed vectors of the given width."""
    rng = random.Random(seed)
    carrier = Carrier(tuple(f"a{i}" for i in range(n)))
    el = carrier.elements
    ops = [op_from_rows(carrier, symbol, rank, {
        args: rng.choice(el) for args in itertools.product(el, repeat=len(rank))})
        for symbol, rank in (("f", ("l", "r")), ("u", ("a",)), ("t", ("a", "b", "c")))]
    if rng.random() < 0.5:
        ops.append(op_from_rows(carrier, "c", (), {(): rng.choice(el)}))
    rng.shuffle(ops)
    seeds = {}
    for i in range(rng.randint(1, 3)):
        seeds.setdefault(tuple(rng.choice(el) for _ in range(width)), ("proj", f"x{i}"))
    return Algebra("boundary", carrier, tuple(ops)), seeds, width


def indexed_seeds(alg, seeds):
    """Seed vectors of element names as vectors of carrier indices."""
    return {tuple(map(alg.carrier.index.__getitem__, v)): term for v, term in seeds.items()}


def term_depth(term):
    return 0 if term[0] == "proj" else 1 + max(map(term_depth, term[2]), default=0)


class CountingTable(list):
    """A Horner table that adds its lookups to ``count[0]``."""

    def __init__(self, values, count):
        super().__init__(values)
        self.count = count

    def __getitem__(self, code):
        self.count[0] += 1
        return super().__getitem__(code)


def round_combinations(members, complete, ranks):
    """(round, arity, count) for each round a closure ran and each operation
    rank: the count of argument combinations that touch the previous round's
    new members, end**k - start**k for end members of which start are old."""
    # seeds have depth 0 and round r finds the members of depth r + 1, so the
    # rounds run are one per depth found plus, when complete, the round that
    # found nothing
    depths = [term_depth(term) for term in members.values()]
    start = 0
    for r in range(max(depths, default=0) + complete):
        end = sum(d <= r for d in depths)
        for k in ranks:
            yield r, k, end**k - start**k
        start = end


def assert_evaluates_only_new_combinations(evaluated, members, complete, ranks, cost):
    """Every round evaluates exactly its combinations that touch the previous
    round's new members, ``cost(round, arity, count)`` in all, except a last
    round stopped by the guard, which evaluates some of them."""
    rounds: dict[int, int] = {}
    for r, k, c in round_combinations(members, complete, ranks):
        rounds[r] = rounds.get(r, 0) + cost(r, k, c)
    total = sum(rounds.values())
    if complete:
        assert evaluated == total
    else:
        assert total - rounds[max(rounds)] <= evaluated <= total


def evaluated_pairs(kernel, run, member_size=1):
    """Call ``run()`` under a line trace and add up the lengths of the
    last-slot blocks that a byte kernel (``_code_fixpoint`` or
    ``_row_fixpoint``) evaluates on its one line ``= block.translate(``, in
    members of ``member_size`` bytes: the number of (head, last-slot member)
    pairs it evaluated."""
    lines, first = inspect.getsourcelines(kernel)
    sites = [i for i, text in enumerate(lines) if "= block.translate(" in text]
    assert len(sites) == 1
    line = first + sites[0]
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        if event == "line" and frame.f_lineno == line:
            count += len(frame.f_locals["block"]) // member_size
        return trace

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg:
                 trace if frame.f_code is kernel.__code__ else None)
    try:
        return run(), count
    finally:
        sys.settrace(previous)


SHAPES = st.sampled_from(["elements", "pairs", "functions", *BOUNDARY])
GUARDS = st.sampled_from([3, 7, 40, math.inf])


def costly(shape, guard):
    """Closures without a guard that may take seconds: ternary operations
    over hundreds of members."""
    return guard == math.inf and shape not in ("elements", "pairs")


def fits_bytes(alg):
    """Whether the row kernel can close over ``alg``: at most 256 elements
    and every table of at most 256 codes."""
    return len(alg.carrier) <= 256 and all(len(t.codes) <= 256 for t in alg.tables)


def assert_matches_naive_rounds(seed, shape, guard, kernel=_fixpoint):
    alg, seeds, width = closure_case(seed, shape)
    members, complete = kernel(len(alg.carrier), _horner_tables(alg),
                               indexed_seeds(alg, seeds), width, guard)
    expected, expected_complete = naive_close(alg, seeds, width, guard)
    assert list(members.items()) == list(indexed_seeds(alg, expected).items())
    assert complete == expected_complete


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(["elements", "pairs", "functions"]),
       guard=GUARDS)
def test_close_matches_naive_rounds(seed, shape, guard):
    """Same members in the same order, the same witnesses and the same
    ``complete`` flag as the naive rounds, including guards that stop the
    closure part-way."""
    assume(not costly(shape, guard))
    assert_matches_naive_rounds(seed, shape, guard)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(BOUNDARY),
       guard=st.sampled_from([3, 7, 40]))
def test_close_matches_naive_rounds_at_the_boundary(seed, shape, guard):
    """The same on powers of 243 to 729 points, either side of the code
    kernel's 256, with a ternary operation (naive rounds over 40 members
    take a third of a second here, hence fewer examples)."""
    assert_matches_naive_rounds(seed, shape, guard)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=SHAPES, guard=GUARDS)
def test_row_kernel_matches_naive_rounds(seed, shape, guard):
    """The row kernel against the naive rounds on every shape whose tables
    fit a byte, on and past 256 points: nullary and ternary operations,
    and guards that stop the closure part-way."""
    assume(not costly(shape, guard) and fits_bytes(closure_case(seed, shape)[0]))
    assert_matches_naive_rounds(seed, shape, guard, _row_fixpoint)


def assert_kernels_agree(*args, kernel=_code_fixpoint):
    members, complete = kernel(*args)
    expected, expected_complete = _vector_fixpoint(*args)
    assert list(members.items()) == list(expected.items())
    assert complete == expected_complete
    return members


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=SHAPES, guard=GUARDS)
def test_code_kernel_matches_vector_kernel(seed, shape, guard):
    """Both kernels on the same inputs of at most 256 points: the same
    members in the same order, the same witnesses and the same ``complete``
    flag, with the vector kernel as the oracle."""
    assume(not costly(shape, guard))
    alg, seeds, width = closure_case(seed, shape)
    n = len(alg.carrier)
    assume(n ** width <= 256)
    assert_kernels_agree(n, _horner_tables(alg), indexed_seeds(alg, seeds), width, guard)


def test_kernels_agree_on_full_one_slot_closures():
    """One-slot closures of ``random_algebra`` draws on four elements that
    fill all 256 points, without a guard."""
    full = 0
    for seed in range(40):
        alg, _frame = random_algebra(random.Random(seed), max_size=4)
        if len(alg.carrier) < 4:
            continue
        members = assert_kernels_agree(4, _horner_tables(alg), {(0, 1, 2, 3): ("proj", "p")}, 4)
        full += len(members) == 256
    assert full >= 2


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=SHAPES, guard=GUARDS)
def test_row_kernel_matches_vector_kernel(seed, shape, guard):
    """The row kernel against the vector kernel on every shape whose tables
    fit a byte, whatever the size of the power."""
    assume(not costly(shape, guard))
    alg, seeds, width = closure_case(seed, shape)
    assume(fits_bytes(alg))
    assert_kernels_agree(len(alg.carrier), _horner_tables(alg), indexed_seeds(alg, seeds),
                         width, guard, kernel=_row_fixpoint)


@pytest.mark.parametrize("n, rank", [(16, 2), (6, 3)])
@pytest.mark.parametrize("guard", [5, 40])
def test_row_kernel_at_the_table_boundary(n, rank, guard):
    """Tables of 256 and 216 codes, whose largest code is where a head's
    prefix plus a last-slot value comes closest to carrying into the next
    byte, with a unary operation and a constant, on powers of width 3."""
    rng = random.Random(n * 1000 + rank)
    ops = [("f", rank, [rng.randrange(n) for _ in range(n ** rank)]),
           ("u", 1, [rng.randrange(n) for _ in range(n)]), ("c", 0, [n - 1])]
    ops[0][2][-1] = n - 1
    seeds = {(n - 1, n - 2, 0): ("proj", "x"), (n - 1, 0, n - 1): ("proj", "y")}
    members = assert_kernels_agree(n, ops, seeds, 3, guard, kernel=_row_fixpoint)
    assert len(members) == guard + 1


def chosen_kernels(monkeypatch, run):
    """The kernels that ``_fixpoint`` runs during ``run()``, in order."""
    chosen = []
    for name in ("code", "row", "vector"):
        kernel = getattr(elementary, f"_{name}_fixpoint")
        monkeypatch.setattr(elementary, f"_{name}_fixpoint", lambda *args, name=name, kernel=kernel:
                            chosen.append(name) or kernel(*args))
    return run(), chosen


@pytest.mark.parametrize("n, width, kernel", [
    (4, 4, "code"), (16, 2, "code"), (2, 8, "code"), (3, 5, "code"), (256, 1, "code"),
    (1, 1, "code"), (2, 9, "row"), (3, 6, "row"), (16, 3, "row"), (17, 2, "vector"),
    (257, 1, "vector"), (16, 16**4, "row")])
def test_kernel_is_chosen_by_the_power_size(monkeypatch, n, width, kernel):
    """Under one binary operation, the code kernel runs exactly when A^width
    has at most 256 points; past that, the row kernel runs while the table
    has at most 256 codes (16 elements), as for the generator on the
    16-element semilattice, and the vector kernel beyond."""
    ops = [("f", 2, [0] * n**2)]
    _result, chosen = chosen_kernels(monkeypatch, lambda: _fixpoint(n, ops, {}, width))
    assert chosen == [kernel]


@pytest.mark.parametrize("n, width, ranks, kernel", [
    (6, 4, (3,), "row"), (7, 3, (3,), "vector"), (6, 4, (0, 1, 3), "row"),
    (7, 3, (0, 1, 2, 3), "vector"), (16, 3, (1, 2, 2), "row"), (16, 3, (2, 3), "vector"),
    (256, 2, (0,), "row"), (256, 2, (1,), "row"), (257, 2, (0,), "vector"),
    (257, 1, (), "vector"), (2, 16, (), "row")])
def test_kernel_is_chosen_by_the_table_size(monkeypatch, n, width, ranks, kernel):
    """Past 256 points the row kernel runs when the carrier has at most 256
    elements and every table at most 256 codes: 6**3 = 216 runs it and
    7**3 = 343 does not; 257 elements do not even with only constants."""
    ops = [(f"f{i}", k, [0] * n**k) for i, k in enumerate(ranks)]
    _result, chosen = chosen_kernels(monkeypatch, lambda: _fixpoint(n, ops, {}, width))
    assert chosen == [kernel]


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=SHAPES, guard=GUARDS)
def test_close_evaluates_only_new_combinations(seed, shape, guard):
    """Each round of the vector kernel looks up exactly the combinations that
    touch the previous round's new members: width lookups for each such
    combination of a non-nullary operation, and one per nullary operation in
    the first round."""
    assume(not costly(shape, guard))
    alg, seeds, width = closure_case(seed, shape)
    count = [0]
    ops = [(symbol, k, CountingTable(flat, count)) for symbol, k, flat in _horner_tables(alg)]
    members, complete = _vector_fixpoint(len(alg.carrier), ops, indexed_seeds(alg, seeds),
                                         width, guard)
    assert_evaluates_only_new_combinations(
        count[0], members, complete, [k for _symbol, k, _flat in ops],
        lambda r, k, c: width * c if k else r == 0)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=SHAPES, guard=GUARDS)
def test_code_kernel_evaluates_only_new_combinations(seed, shape, guard):
    """The code kernel evaluates the same combinations, a last-slot block per
    head: its (head, last-slot) pairs are exactly the combinations of
    non-nullary operations that touch the previous round's new members, but
    for a round stopped by the guard."""
    assume(not costly(shape, guard))
    alg, seeds, width = closure_case(seed, shape)
    n = len(alg.carrier)
    assume(n ** width <= 256)
    ops = _horner_tables(alg)
    (members, complete), pairs = evaluated_pairs(
        _code_fixpoint, lambda: _code_fixpoint(n, ops, indexed_seeds(alg, seeds), width, guard))
    assert_evaluates_only_new_combinations(
        pairs, members, complete, [k for _symbol, k, _flat in ops], lambda r, k, c: c if k else 0)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=SHAPES, guard=GUARDS)
def test_row_kernel_evaluates_only_new_combinations(seed, shape, guard):
    """The row kernel evaluates the same combinations: its last-slot
    blocks, cut into rows, hold exactly the (head, last-slot) pairs that
    touch the previous round's new members, but for a round stopped by the
    guard."""
    assume(not costly(shape, guard))
    alg, seeds, width = closure_case(seed, shape)
    assume(fits_bytes(alg))
    ops = _horner_tables(alg)
    (members, complete), pairs = evaluated_pairs(_row_fixpoint, lambda: _row_fixpoint(
        len(alg.carrier), ops, indexed_seeds(alg, seeds), width, guard), width)
    assert_evaluates_only_new_combinations(
        pairs, members, complete, [k for _symbol, k, _flat in ops], lambda r, k, c: c if k else 0)


@pytest.mark.parametrize("n, width", [(2, 2), (2, 4), (2, 8), (3, 3), (4, 4)])
def test_kept_lifts_match_lifts_from_table_rows(n, width):
    """Every lifted table that ``_Lifts`` keeps, each summed from kept
    per-coordinate terms and read in a random order, equals the one read
    off the table rows code by code; so do the tables it builds for heads
    of two members, which it does not keep."""
    rng = random.Random(n * 100 + width)
    points, weights, _digits = _code_tables(n, width)

    def from_rows(flat, head):
        prefixes = [0] * width
        for code in head:
            prefixes = [(p + d) * n for p, d in zip(prefixes, points[code])]
        values = [[flat[p + d] for p, d in zip(prefixes, v)] for v in points]
        return bytes(sum(map(operator.mul, v, weights)) for v in values).ljust(256, b"\0")

    for rank in (1, 2, 3):
        flat = [rng.randrange(n) for _ in range(n ** rank)]
        lifts = _Lifts(n, width, flat)
        if rank == 3:
            for _ in range(20):
                head = (rng.randrange(n ** width), rng.randrange(n ** width))
                assert lifts.build(head) == from_rows(flat, head)
            assert not lifts
            continue
        heads = list(range(n ** width)) if rank == 2 else [0]
        rng.shuffle(heads)
        for code in heads:
            lifts[code]
        assert len(lifts) == len(heads)
        for code, lift in lifts.items():
            assert lift == from_rows(flat, (code,) if rank == 2 else ())


@pytest.mark.parametrize("seed, size", [(0, 221), (1, 211)])
def test_code_kernel_peaks_no_higher_than_vector_kernel(seed, size):
    """A one-slot closure on four elements under one ternary operation,
    stopped by the guard at the last member that its round over 9 members
    finds (81 heads, each a pair of members): the code kernel keeps no lifted
    table per head pair, so tracemalloc sees it peak no higher than the
    vector kernel.  Keeping one per head pair adds about 27 kB, six to ten
    times the margin."""
    carrier = Carrier(("a", "b", "c", "d"))
    rng = random.Random(seed)
    el = carrier.elements
    alg = Algebra("ternary", carrier, (op_from_rows(carrier, "t", ("a", "b", "c"), {
        args: rng.choice(el) for args in itertools.product(el, repeat=3)}),))
    args = (4, _horner_tables(alg), {(0, 1, 2, 3): ("proj", "p")}, 4, size - 1)
    peaks = []
    for kernel in (_code_fixpoint, _vector_fixpoint):
        kernel(*args)  # builds the code tables of A^4, kept for the process
        # a full collection also empties the free lists of tuples, so both
        # kernels are measured from the same state, whatever ran before
        gc.collect()
        tracemalloc.start()
        try:
            members, _complete = kernel(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(members) == size
    assert peaks[0] <= peaks[1]


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


def test_projection_seeds_match_the_assignments():
    # each projection repeated in blocks is the comprehension over all of
    # A^Y, in the same dict order; on one element the labels share a vector
    for n in range(1, 5):
        for size in range(4):
            Y = tuple("pqr"[:size])
            assigns = list(itertools.product(range(n), repeat=size))
            seeds = {}
            for pos, x in enumerate(Y):
                seeds.setdefault(tuple(args[pos] for args in assigns), ("proj", x))
            assert list(_projection_seeds(n, Y).items()) == list(seeds.items())


def test_guard_abandons():
    carrier = Carrier(("a", "b", "c"))
    # a random-ish binary op generates lots of distinct term functions
    values = ("b", "c", "a", "c", "a", "b", "a", "b", "c")
    table = dict(zip(itertools.product(carrier.elements, repeat=2), values))
    alg = Algebra("wild", carrier, (op_from_rows(carrier, "f", ("l", "r"), table),))
    result = elementary_closure(alg, ("p", "q"), guard=5)
    assert not result.complete


def test_guard_stops_inside_the_round():
    """The closure stops as soon as it holds guard + 1 members; on this draw
    the round that passes the default guard would end with 19 678."""
    alg, _frame = random_algebra(random.Random(9), max_size=4)
    result = elementary_closure(alg, ("p", "q"))
    assert len(result.functions) == elementary.DEFAULT_GUARD + 1 == 10_001
    assert not result.complete


def test_rankless_semilattice(semilattice2):
    alg, _frame = semilattice2
    maps = rankless(alg)
    assert {tuple(alg.carrier.elements[v] for v in m) for m in maps} == {
        alg.carrier.elements,                       # identity
        ("{}",) * 4,                                # constant empty
    }


def test_rankless_boolean(boolean):
    alg, _frame = boolean
    assert len(rankless(alg)) == 4


def test_rankless_only_nullary():
    carrier = Carrier(("a", "b"))
    alg = Algebra("consts", carrier, (op_from_rows(carrier, "c", (), {(): "b"}),))
    assert rankless(alg) == {(0, 1), (1, 1)}  # the identity, and the constant b


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


def subuniverse_with_terms(alg, seeds: dict) -> dict:
    """Subalgebra closure of seed elements (carrier indices), keeping one
    reaching term each."""
    members, _complete = _fixpoint(len(alg.carrier), _horner_tables(alg),
                                   {(a,): term for a, term in seeds.items()}, 1)
    return {a: term for (a,), term in members.items()}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_subuniverse_terms_evaluate_to_members(seed):
    """Each generated element's term, evaluated at the frame, gives that
    element, and the generated set is closed under every operation."""
    alg, frame = random_algebra(random.Random(seed), max_size=3)
    U = frame.codes(alg.carrier)
    reach = subuniverse_with_terms(alg, {u: ("proj", x) for x, u in zip(frame.X, U)})
    assert generated_subuniverse(alg, frame) == reach.keys()
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


@pytest.mark.parametrize("p, k, kernel", [(2, 3, "row"), (3, 2, "row"), (2, 4, "row"),
                                          (5, 2, "vector")])
def test_generator_on_vector_spaces_is_the_linear_forms(monkeypatch, p, k, kernel):
    """On GF(p)^k with the unit vectors as frame, chi_a is the linear form
    M -> sum of a_i M(x_i), computed here in integers from the coordinates.
    The closure of the frame's arity runs the row kernel while ``plus`` has
    at most 256 codes, and the vector kernel on GF(5)^2 (625 codes); the
    generated subuniverse before it runs the code kernel."""
    alg = vector_space(p, k)
    n = len(alg.carrier)
    X = tuple(f"x{i}" for i in range(k))
    units = ("".join("1" if j == i else "0" for j in range(k)) for i in range(k))
    frame = Frame(X, dict(zip(X, units)))
    result, chosen = chosen_kernels(monkeypatch, lambda: elementary_generator(alg, frame))
    assert chosen == ["code", kernel]
    assert result.status == "ok"

    def coordinates(v):  # carrier index -> vector, the first coordinate slowest
        return [v // p ** (k - 1 - j) % p for j in range(k)]

    def index(vector):
        return sum(x * p ** (k - 1 - j) for j, x in enumerate(vector))

    plus = [[index((x + y) % p for x, y in zip(coordinates(u), coordinates(v))) for v in range(n)]
            for u in range(n)]
    times = [[index(s * x % p for x in coordinates(v)) for v in range(n)] for s in range(p)]
    for a, chi in enumerate(result.chi):
        table = [0]  # chi_a over the first i labels, in Horner order of the matrices
        for a_i in coordinates(a):
            table = [plus[t][times[a_i][m]] for t in table for m in range(n)]
        assert chi.table.codes == tuple(table)
