import gc
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import op_from_rows, random_algebra
from ualgebra import commutativity
from ualgebra.combinator import constant_fn, projection, set_ary_compose
from ualgebra.commutativity import (
    MedialReport,
    _byte_medial_defect,
    _medial_defect,
    _row_columns,
    check_conjugate_commutation,
    check_closure_commutation,
    is_commutative,
    medial_check,
    ops_commute,
)
from ualgebra.core import Algebra, Carrier, FunctionTable, Operation
from ualgebra.elementary import elementary_closure
from ualgebra.gallery.pert import pert_algebra
from ualgebra.representation import build_representation


def naive_ops_commute(f, g, carrier):
    """Oracle for ``ops_commute`` on a finite carrier: every m in canonical
    order, one at a time, through ``medial_check`` on element names."""
    name = (getattr(f, "symbol", "<table>"), getattr(g, "symbol", "<table>"))
    for m_rows in itertools.product(
            itertools.product(carrier.elements, repeat=len(g.rank)), repeat=len(f.rank)):
        bad = medial_check(f, g, m_rows)
        if bad is not None:
            return MedialReport(name, False, "exhaustive", bad)
    return MedialReport(name, True, "exhaustive")


def medial_pool(seed):
    """Operations of ranks 0 to 3 over a random carrier, and tables of mixed
    ranks: closure members over one and two slots, a ternary projection and a
    nullary constant."""
    rng = random.Random(seed)
    alg, _frame = random_algebra(rng, max_size=3)
    el = alg.carrier.elements
    ops = list(alg.ops)
    ops.append(op_from_rows(alg.carrier, "t", ("a", "b", "c"), {
        args: rng.choice(el) for args in itertools.product(el, repeat=3)}))
    if all(g.rank for g in ops):
        ops.append(op_from_rows(alg.carrier, "c", (), {(): rng.choice(el)}))
    alg = Algebra("varied", alg.carrier, tuple(ops))
    tables = [ef.table for Y in (("p",), ("p", "q"))
              for ef in elementary_closure(alg, Y, guard=8).functions]
    tables += [projection(alg.carrier, ("x", "y", "z"), rng.choice("xyz")),
               constant_fn(alg.carrier, rng.choice(el), ())]
    return alg.carrier, ops, tables, rng


def test_semilattice_is_commutative(semilattice2):
    alg, _frame = semilattice2
    ok, reports = is_commutative(alg)
    assert ok
    # one report per unordered pair, each operation with itself included
    symbols = [f.symbol for f in alg.ops]
    assert [r.pair for r in reports] == [
        (f, g) for i, f in enumerate(symbols) for g in symbols[i:]]
    assert all(r.mode == "exhaustive" for r in reports)


def test_symmetry_of_the_law(semilattice2, boolean):
    # f commutes with g exactly when g commutes with f
    for alg, _frame in (semilattice2, boolean):
        for f in alg.ops:
            for g in alg.ops:
                a = ops_commute(f, g, carrier=alg.carrier)
                b = ops_commute(g, f, carrier=alg.carrier)
                assert a.holds == b.holds


def test_boolean_witness(boolean):
    alg, _frame = boolean
    ok, reports = is_commutative(alg)
    assert not ok
    bad = {r.pair for r in reports if not r.holds}
    # complement against the meet is the failing pair
    assert ("meet", "neg") in bad or ("neg", "meet") in bad
    witness = next(r for r in reports if not r.holds)
    m_rows, lhs, rhs = witness.witness
    assert lhs != rhs
    assert medial_check(alg.op(witness.pair[0]), alg.op(witness.pair[1]),
                        m_rows) == witness.witness


def test_empty_rank_cases(semilattice2):
    alg, _frame = semilattice2
    zero, union = alg.op("0"), alg.op("union")
    # a nullary op commutes with anything: both sides collapse to the constant
    assert ops_commute(zero, union, carrier=alg.carrier).holds
    assert ops_commute(union, zero, carrier=alg.carrier).holds
    assert ops_commute(zero, zero, carrier=alg.carrier).holds


def test_nullary_constant_commutes_iff_fixed_point():
    # with a nullary f the law collapses to a = g(a, ..., a)
    carrier = Carrier(("a", "b"))
    u = op_from_rows(carrier, "u", ("p",), {("a",): "a", ("b",): "a"})
    k_fixed = constant_fn(carrier, "a", ())
    k_moved = constant_fn(carrier, "b", ())
    assert ops_commute(k_fixed, u, carrier=carrier).holds
    assert ops_commute(u, k_fixed, carrier=carrier).holds
    assert not ops_commute(k_moved, u, carrier=carrier).holds


def test_projections_commute_with_ops(semilattice2, boolean):
    for alg, _frame in (semilattice2, boolean):
        for f in alg.ops:
            for x in ("p", "q"):
                p = projection(alg.carrier, ("p", "q"), x)
                assert ops_commute(f, p, carrier=alg.carrier).holds


def test_composition_preserves_commutation(semilattice2):
    # closing under composition keeps everything commuting with the base ops:
    # spot-check with randomly composed functions
    alg, _frame = semilattice2
    arity = ("p", "q")
    closure = [ef.table for ef in elementary_closure(alg, arity).functions]
    rng = random.Random(5)
    union = alg.op("union")
    for _ in range(50):
        inner = {lbl: rng.choice(closure) for lbl in union.rank}
        composed = set_ary_compose(union, inner, alg.carrier, arity)
        for f in alg.ops:
            assert ops_commute(f, composed, carrier=alg.carrier).holds


def test_closure_pairs_commute(semilattice2):
    alg, _frame = semilattice2
    commutative, _ = is_commutative(alg)
    one = check_closure_commutation(alg, ("p",), commutative)
    assert one["status"] == "pass"
    assert one["closure_size"] == 2
    two = check_closure_commutation(alg, ("p", "q"), commutative)
    assert two["status"] == "pass"
    assert two["closure_size"] == 4


def test_closure_check_skips_non_commutative(boolean):
    alg, _frame = boolean
    commutative, _ = is_commutative(alg)
    assert check_closure_commutation(alg, ("p",), commutative)["status"] == "skipped"


def test_conjugates_commute(semilattice2):
    alg, frame = semilattice2
    rep = build_representation(alg, frame)
    result = check_conjugate_commutation(rep)
    assert result["status"] == "pass"
    assert result["pairs"] == 10


def test_conjugate_pairs_are_checked_once(boolean):
    """``boolean`` is bijective and not commutative: the failures are the
    a <= b half of the ordered pairs' failures, with the oracle's witnesses,
    and the ordered failures are their mirror image, so none is lost."""
    rep = build_representation(*boolean)
    assert rep.bijective
    result = check_conjugate_commutation(rep)
    carrier = rep.algebra.carrier
    chi = [Operation(f"chi_{x}", t.rank, t) for x, t in zip(carrier.elements, rep.conjugates)]
    n = len(chi)
    verdicts = {(a, b): naive_ops_commute(chi[a], chi[b], carrier)
                for a in range(n) for b in range(n)}
    failing = {pair for pair, report in verdicts.items() if not report.holds}
    assert failing and failing == {(b, a) for a, b in failing}
    assert result["status"] == "fail" and result["pairs"] == n * (n + 1) // 2
    assert result["failures"] == [(a, b, verdicts[a, b]) for a, b in sorted(failing) if a <= b]


def test_conjugate_check_needs_bijection(boolean):
    alg, frame = boolean
    rep = build_representation(alg, frame)
    if rep.bijective:
        assert check_conjugate_commutation(rep)["status"] in ("pass", "fail")
    else:
        assert check_conjugate_commutation(rep)["status"] == "skipped"


def test_sampled_rule_based_commutativity():
    alg = pert_algebra(("a", "b", "c"))
    ok, reports = is_commutative(alg, samples=200, seed=1)
    assert ok
    assert all(r.mode.startswith("sampled") for r in reports)


def test_nullary_pair_evaluates_its_point_once():
    """With f or g nullary, m has no entries, so every sample is the same
    point: the sampled check evaluates it once, and its mode still names the
    requested sample count."""
    calls = []

    def counted(op):
        return Operation(op.symbol, op.rank,
                         fn=lambda *args: (calls.append(op.symbol), op.fn(*args))[1])

    alg = pert_algebra(("a", "b", "c"))
    zero, join, succ = map(counted, alg.ops)
    one = counted(Operation("1", (), fn=lambda: 1))  # not fixed by the successor
    plus_one = counted(Operation("s", ("a",), fn=lambda x: x + 1))
    pairs = ((zero, zero), (zero, join), (join, zero), (zero, succ), (one, plus_one),
             (plus_one, one))
    for f, g in pairs:
        calls.clear()
        single = ops_commute(f, g, sampler=alg.sampler, samples=1, seed=4)
        single_calls = sorted(calls)
        calls.clear()
        report = ops_commute(f, g, sampler=alg.sampler, samples=300, seed=4)
        assert sorted(calls) == single_calls
        assert report.mode == "sampled:300:seed=4"
        assert (report.pair, report.holds, report.witness) == \
            (single.pair, single.holds, single.witness)
    assert not ops_commute(one, plus_one, samples=300).holds


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_coded_check_matches_element_oracle(seed):
    """Same holds, mode, pair and first witness as the element-at-a-time loop,
    for operation/operation, table/table and mixed pairs in both orders."""
    carrier, ops, tables, rng = medial_pool(seed)
    pairs = [(f, g) for f in ops for g in ops]
    pairs += [rng.choice(((f, g), (g, f))) for f in ops for g in rng.sample(tables, 2)]
    pairs += [(rng.choice(tables), rng.choice(tables)) for _ in range(4)]
    for f, g in pairs:
        if len(carrier) ** (len(f.rank) * len(g.rank)) > 3**6:
            continue  # ternary against ternary on three elements: 19683 cases
        assert ops_commute(f, g, carrier=carrier) == naive_ops_commute(f, g, carrier)


def kernel_codes(rng, n, k, kind):
    """Horner codes of a rank-k function over n elements: a random table, a
    projection (it commutes with every function), a constant (it commutes
    with a g that fixes it), or a projection changed at its last code, so a
    defect, if any, comes late in canonical order."""
    points = list(itertools.product(range(n), repeat=k))
    if kind == "random":
        return [rng.randrange(n) for _ in points]
    if kind == "constant" or not k:
        return [rng.randrange(n)] * len(points)
    i = rng.randrange(k)
    codes = [p[i] for p in points]
    if kind == "late":
        codes[-1] = rng.randrange(n)
    return codes


KINDS = ("random", "projection", "constant", "late")


def table_of(carrier, k, codes):
    return FunctionTable(carrier, tuple(f"x{i}" for i in range(k)), tuple(codes))


# (n, r, s) the byte kernel takes, with at most 50 000 matrices m
BYTE_SHAPES = [(n, r, s) for n in range(1, 7) for r in range(4) for s in range(4)
               if n ** r <= 256 and n ** s <= 256 and n ** (r * s) <= 50_000]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shape=st.sampled_from(BYTE_SHAPES),
       kinds=st.tuples(st.sampled_from(KINDS), st.sampled_from(KINDS)))
def test_byte_kernel_matches_per_head_kernel(seed, shape, kinds):
    """Same verdict and first witness as the per-head kernel, and, on small
    shapes, as the element-at-a-time oracle through ``ops_commute``."""
    n, r, s = shape
    rng = random.Random(seed)
    F, G = (kernel_codes(rng, n, k, kind) for k, kind in zip((r, s), kinds))
    assert _byte_medial_defect(F, G, n, r, s) == _medial_defect(F, G, n, r, s)
    if n ** (r * s) <= 1_000:
        carrier = Carrier(tuple(f"e{a}" for a in range(n)))
        f, g = table_of(carrier, r, F), table_of(carrier, s, G)
        assert ops_commute(f, g, carrier=carrier) == naive_ops_commute(f, g, carrier)


def _spy_kernels(monkeypatch) -> list:
    """Record which kernel each ``ops_commute`` runs."""
    chosen = []
    for kernel in (_byte_medial_defect, _medial_defect):
        monkeypatch.setattr(commutativity, kernel.__name__,
                            lambda *args, kernel=kernel: chosen.append(kernel) or kernel(*args))
    return chosen


@pytest.mark.parametrize("n, r, s", [
    (16, 2, 1), (16, 2, 2), (16, 1, 2), (4, 4, 1), (4, 4, 2), (2, 8, 1), (2, 8, 2),
    (256, 1, 1), (17, 2, 1), (17, 1, 2), (2, 9, 1), (4, 1, 5), (3, 6, 1), (257, 1, 1),
])
def test_kernel_is_chosen_by_the_code_count_at_the_boundary(monkeypatch, n, r, s):
    """The byte kernel runs exactly when f and g have at most 256 codes each;
    at the boundary it agrees with the per-head kernel, and past it the
    per-head kernel agrees with the element-at-a-time oracle."""
    fits = n ** r <= 256 and n ** s <= 256
    carrier = Carrier(tuple(f"e{a}" for a in range(n)))
    rng = random.Random(n * 100 + r * 10 + s)
    for kinds in (("random", "random"), ("projection", "random"), ("late", "projection"),
                  ("constant", "constant")):
        F, G = (kernel_codes(rng, n, k, kind) for k, kind in zip((r, s), kinds))
        f, g = table_of(carrier, r, F), table_of(carrier, s, G)
        chosen = _spy_kernels(monkeypatch)
        report = ops_commute(f, g, carrier=carrier)
        assert chosen == [_byte_medial_defect if fits else _medial_defect]
        if fits:
            assert _byte_medial_defect(F, G, n, r, s) == _medial_defect(F, G, n, r, s)
        else:
            assert report == naive_ops_commute(f, g, carrier)
        monkeypatch.undo()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_nullary_and_one_element_shapes(monkeypatch, n):
    """Nullary f or g, and every shape on one element, run the byte kernel
    and agree with the oracle."""
    carrier = Carrier(tuple(f"e{a}" for a in range(n)))
    rng = random.Random(n)
    for r, s in itertools.product(range(4), repeat=2):
        if r and s and n > 1:
            continue
        for kinds in itertools.product(KINDS, repeat=2):
            F, G = (kernel_codes(rng, n, k, kind) for k, kind in zip((r, s), kinds))
            f, g = table_of(carrier, r, F), table_of(carrier, s, G)
            chosen = _spy_kernels(monkeypatch)
            assert ops_commute(f, g, carrier=carrier) == naive_ops_commute(f, g, carrier)
            assert chosen == [_byte_medial_defect]
            monkeypatch.undo()


@pytest.mark.parametrize("kinds", [("projection", "random"), ("random", "random")])
def test_byte_kernel_peak_memory(kinds):
    """One check over N = 2**21 matrices (n = 2, r = 3, s = 7), a full scan
    and a failing one, peaks below 16 bytes per matrix, the cached row
    columns included."""
    n, r, s = 2, 3, 7
    size = n ** (r * s)
    carrier = Carrier(("a", "b"))
    rng = random.Random(7)
    f, g = (table_of(carrier, k, kernel_codes(rng, n, k, kind))
            for k, kind in zip((r, s), kinds))
    _row_columns.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        report = ops_commute(f, g, carrier=carrier, guard=size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.holds == (kinds[0] == "projection")
    assert peak < 16 * size


def test_closure_check_reports_each_failing_pair_once(boolean):
    """Told that a non-commutative algebra is commutative, the closure check
    still runs and reports every failing pair with f at or before g, with the
    oracle's witnesses; the ordered failures are symmetric, so none is lost."""
    alg, _frame = boolean
    result = check_closure_commutation(alg, ("p", "q"), commutative=True)
    assert result["status"] == "fail"
    tables = [ef.table for ef in elementary_closure(alg, ("p", "q")).functions]
    assert result["closure_size"] == len(tables)
    verdicts = {(i, j): naive_ops_commute(f, g, alg.carrier)
                for i, f in enumerate(tables) for j, g in enumerate(tables)}
    failing = {pair for pair, report in verdicts.items() if not report.holds}
    assert failing and failing == {(j, i) for i, j in failing}
    assert result["pair_failures"] == [verdicts[i, j] for i, j in sorted(failing) if i <= j]
