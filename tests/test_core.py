import json

import pytest

from ualgebra.core import (
    Algebra,
    AlgebraError,
    Carrier,
    Operation,
    algebra_from_dict,
    algebra_to_dict,
    load_algebra,
    save_algebra,
)


def test_eval_union(semilattice2):
    alg, _frame = semilattice2
    union = alg.op("union")
    assert union(("{x}", "{y}")) == "{x,y}"
    assert alg.op("0")(()) == "{}"


def test_eval_boolean_meet(boolean):
    alg, _frame = boolean
    assert alg.op("meet")(("top", "bot")) == "bot"


def test_eval_rank_mismatch(semilattice2):
    alg, _frame = semilattice2
    with pytest.raises(AlgebraError):
        alg.op("union")(("{x}",))


def test_empty_carrier_rejected():
    with pytest.raises(AlgebraError, match="empty carrier"):
        Carrier(())


def test_duplicate_elements_rejected():
    with pytest.raises(AlgebraError, match="duplicate"):
        Carrier(("a", "a"))


def test_empty_operation_list_rejected():
    with pytest.raises(AlgebraError, match="empty operation list"):
        Algebra("bad", Carrier(("a",)), ())


def test_duplicate_operation_symbols_rejected():
    unary = Operation("u", ("x",), table={("a",): "a"})
    with pytest.raises(AlgebraError, match="duplicate operation symbols"):
        Algebra("bad", Carrier(("a",)), (unary, unary))


def test_value_outside_carrier_rejected():
    doc = {
        "name": "bad",
        "elements": ["a", "b"],
        "operations": [{
            "symbol": "u", "rank": ["x"],
            "table": [{"args": ["a"], "value": "zz"}, {"args": ["b"], "value": "a"}],
        }],
    }
    with pytest.raises(AlgebraError, match="outside carrier"):
        algebra_from_dict(doc)


def test_partial_table_rejected():
    doc = {
        "name": "bad",
        "elements": ["a", "b"],
        "operations": [{
            "symbol": "f", "rank": ["l", "r"],
            "table": [{"args": ["a", "a"], "value": "a"},
                      {"args": ["a", "b"], "value": "b"},
                      {"args": ["b", "a"], "value": "b"}],
        }],
    }
    with pytest.raises(AlgebraError, match="partial table"):
        algebra_from_dict(doc)


def test_eval_total_over_all_assignments(semilattice2, boolean):
    for alg, _frame in (semilattice2, boolean):
        for f in alg.ops:
            for args in alg.carrier.assignments(f.rank):
                assert f(args) in alg.carrier


def test_roundtrip(tmp_path, semilattice2):
    alg, _frame = semilattice2
    path = tmp_path / "alg.json"
    save_algebra(alg, path)
    back = load_algebra(path)
    assert back.carrier.elements == alg.carrier.elements
    for f, g in zip(alg.ops, back.ops):
        assert f.symbol == g.symbol and f.rank == g.rank and f.table == g.table
    assert json.loads(path.read_text()) == algebra_to_dict(alg)


def test_nullary_table_shape():
    op = Operation("c", (), table={(): "a"})
    assert op(()) == "a"
