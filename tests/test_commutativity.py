import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import op_from_rows, random_algebra
from ualgebra.combinator import constant_fn, projection, set_ary_compose
from ualgebra.commutativity import (
    MedialReport,
    check_conjugate_commutation,
    check_closure_commutation,
    is_commutative,
    medial_check,
    ops_commute,
)
from ualgebra.core import Algebra, Carrier, Operation
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
    assert result["pairs"] == 16


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
