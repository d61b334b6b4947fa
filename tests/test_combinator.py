import random

import pytest
from hypothesis import given, strategies as st

from ualgebra.combinator import (
    FunctionTable,
    constant_fn,
    exchange,
    projection,
    set_ary_compose,
    tabulate,
)
from ualgebra.core import AlgebraError, Carrier

CARRIER = Carrier(("a", "b", "c"))


def test_constant_table(semilattice2):
    alg, _frame = semilattice2
    k = constant_fn(alg.carrier, "{}", ("p", "q"))
    assert all(k(args) == "{}" for args in alg.carrier.assignments(("p", "q")))
    assert len(k.codes) == 16


def test_constant_nullary():
    k = constant_fn(CARRIER, "b", ())
    assert k(()) == "b"


def test_constant_absorbs_reindexing():
    # pre-composing a constant with any reindexing of its arguments changes nothing
    k = constant_fn(CARRIER, "a", ("p", "q"))
    for args in CARRIER.assignments(("p", "q")):
        assert k(args) == k((args[1], args[0])) == "a"


def test_post_composition_maps_the_constant():
    # mapping a constant's value through a unary table gives the constant at the image
    u = tabulate(CARRIER, ("x",), lambda args: {"a": "b", "b": "c", "c": "a"}[args[0]])
    k = constant_fn(CARRIER, "a", ("p",))
    composed = tabulate(CARRIER, ("p",), lambda args: u((k(args),)))
    assert composed == constant_fn(CARRIER, "b", ("p",))


def test_exchange_transposes():
    m = {0: {"a": "u", "b": "v"}, 1: {"a": "w", "b": "z"}}
    c = exchange(m)
    assert c == {"a": {0: "u", 1: "w"}, "b": {0: "v", 1: "z"}}


def test_exchange_empty_needs_inner_labels():
    with pytest.raises(AlgebraError):
        exchange({})
    assert exchange({}, inner_labels=("a",)) == {"a": {}}


def test_exchange_inconsistent_inner_ranks():
    with pytest.raises(AlgebraError):
        exchange({0: {"a": "u"}, 1: {"b": "v"}})


@given(st.integers(0, 10**9))
def test_exchange_involution_random(seed):
    rng = random.Random(seed)
    I = range(rng.randint(1, 3))
    J = [f"j{k}" for k in range(rng.randint(1, 2))]
    m = {i: {j: rng.choice(CARRIER.elements) for j in J} for i in I}
    assert exchange(exchange(m)) == m


def test_exchange_involution_exhaustive_small():
    import itertools
    carrier = Carrier(("a", "b"))
    I, J = (0, 1), ("p", "q")
    cells = list(itertools.product(I, J))
    for values in itertools.product(carrier.elements, repeat=len(cells)):
        m = {i: {} for i in I}
        for (i, j), v in zip(cells, values):
            m[i][j] = v
        assert exchange(exchange(m)) == m


def test_compose_idempotent_op_collapses(semilattice2):
    alg, _frame = semilattice2
    p = projection(alg.carrier, ("p", "q"), "p")
    ell = set_ary_compose(alg.op("union"), {"l": p, "r": p}, alg.carrier, ("p", "q"))
    assert ell == p


def test_compose_nullary_gives_constant(semilattice2):
    alg, _frame = semilattice2
    ell = set_ary_compose(alg.op("0"), {}, alg.carrier, ("p",))
    assert ell == constant_fn(alg.carrier, "{}", ("p",))


def test_compose_union_of_projections(semilattice2):
    alg, _frame = semilattice2
    arity = ("p", "q")
    pp = projection(alg.carrier, arity, "p")
    pq = projection(alg.carrier, arity, "q")
    ell = set_ary_compose(alg.op("union"), {"l": pp, "r": pq}, alg.carrier, arity)
    for args in alg.carrier.assignments(arity):
        assert ell(args) == alg.op("union")(args)


def test_compose_with_projection_outer_selects(semilattice2):
    alg, _frame = semilattice2
    arity = ("p",)
    inner = {"l": constant_fn(alg.carrier, "{x}", arity),
             "r": projection(alg.carrier, arity, "p")}
    outer = projection(alg.carrier, ("l", "r"), "r")
    ell = set_ary_compose(outer, inner, alg.carrier, arity)
    assert ell == inner["r"]


def test_compose_arity_mismatch(semilattice2):
    alg, _frame = semilattice2
    with pytest.raises(AlgebraError):
        set_ary_compose(alg.op("union"),
                        {"l": projection(alg.carrier, ("p",), "p"),
                         "r": projection(alg.carrier, ("p", "q"), "q")},
                        alg.carrier, ("p",))


def test_equalize():
    t = tabulate(CARRIER, ("p", "q"), lambda args: max(args))
    assert t.equalize() == tuple(range(len(CARRIER)))  # max(a, a) = a
    with pytest.raises(AlgebraError):
        constant_fn(CARRIER, "a", ()).equalize()
