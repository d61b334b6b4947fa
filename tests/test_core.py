import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import op_from_rows, random_algebra
from ualgebra.core import (
    Algebra,
    AlgebraError,
    Carrier,
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


def test_eval_outside_carrier(semilattice2):
    # a tabulated operation looks names up in its table's carrier
    alg, _frame = semilattice2
    with pytest.raises(AlgebraError, match="outside carrier"):
        alg.op("union")(("{x}", "{z}"))


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
    carrier = Carrier(("a",))
    unary = op_from_rows(carrier, "u", ("x",), {("a",): "a"})
    with pytest.raises(AlgebraError, match="duplicate operation symbols"):
        Algebra("bad", carrier, (unary, unary))


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


@pytest.mark.parametrize("labels", [3, 40, 1000])
def test_long_rank_with_short_table_fails_on_the_count(labels):
    """The row count is checked before a table of n**rank codes is built, so
    a short document with a long rank fails at once."""
    doc = {
        "elements": ["a", "b"],
        "operations": [{"symbol": "f", "rank": [f"x{i}" for i in range(labels)],
                        "table": [{"args": ["a"] * labels, "value": "zz"}]}],
    }
    with pytest.raises(AlgebraError, match=rf"operation f: partial table \(1 of {2**labels} rows\)"):
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
    op = op_from_rows(Carrier(("a",)), "c", (), {(): "a"})
    assert op(()) == "a"


SEEDS = st.integers(0, 2**32 - 1)
NON_STRINGS = st.none() | st.booleans() | st.integers() | st.lists(st.text(max_size=2), max_size=2)


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS)
def test_document_roundtrip(seed):
    alg, _frame = random_algebra(random.Random(seed), max_size=5)
    back = algebra_from_dict(algebra_to_dict(alg))
    assert back.carrier.elements == alg.carrier.elements
    assert [(f.symbol, f.rank, f.table) for f in back.ops] == \
        [(f.symbol, f.rank, f.table) for f in alg.ops]
    assert back.tables == alg.tables
    for f, table in zip(back.ops, back.tables):
        assert all(table(args) == f(args) for args in back.carrier.assignments(f.rank))


def _some_row(doc, draw):
    od = draw(st.sampled_from(doc["operations"]))
    return od, draw(st.sampled_from(od["table"]))


@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, kind=st.sampled_from(
    ["drop row", "change value", "change args", "duplicate symbol", "non-string element",
     "top-level shape"]),
    data=st.data())
def test_mutated_documents_load_or_fail(seed, kind, data):
    """A mutated document either loads as a valid algebra or raises
    AlgebraError; the mutations that break the format always raise."""
    alg, _frame = random_algebra(random.Random(seed), max_size=4)
    doc = algebra_to_dict(alg)
    draw = data.draw
    error = ""  # what the raised AlgebraError must say
    if kind == "drop row":
        od, row = _some_row(doc, draw)
        od["table"].remove(row)
    elif kind == "change value":
        _od, row = _some_row(doc, draw)
        row["value"] = draw(st.sampled_from(doc["elements"]) | st.text(max_size=3) | NON_STRINGS)
    elif kind == "change args":
        od, row = _some_row(doc, draw)
        others = [r["args"] for r in od["table"] if r is not row]
        how = draw(st.sampled_from(["outside"] * bool(row["args"]) + ["length"]
                                   + ["another row"] * bool(others)))
        if how == "outside":
            row["args"][draw(st.integers(0, len(row["args"]) - 1))] = draw(
                st.text(max_size=3).filter(lambda a: a not in doc["elements"]))
            error = "argument outside carrier"
        elif how == "length":
            k = draw(st.integers(0, 3).filter(lambda k: k != len(row["args"])))
            row["args"] = draw(st.lists(st.sampled_from(doc["elements"]), min_size=k, max_size=k))
            error = "bad row arity"
        else:
            row["args"] = list(draw(st.sampled_from(others)))
            error = "duplicate table rows"
    elif kind == "duplicate symbol":
        doc["operations"].append(dict(draw(st.sampled_from(doc["operations"]))))
    elif kind == "non-string element":
        where = draw(st.sampled_from(["elements", "args"]))
        target = doc["elements"] if where == "elements" else _some_row(doc, draw)[1]["args"]
        if not target:  # a nullary row has no arguments
            target = doc["elements"]
        target[draw(st.integers(0, len(target) - 1))] = draw(NON_STRINGS)
    else:
        doc = draw(st.sampled_from([
            [doc], doc["operations"], json.dumps(doc), None,
            {**doc, "operations": {"f": doc["operations"]}},
            {**doc, "elements": " ".join(doc["elements"])},
            {"algebra": doc},
        ]))
    try:
        back = algebra_from_dict(doc)
    except AlgebraError as exc:
        assert error in str(exc)
        return
    assert kind == "change value", f"{kind} loaded"
    assert [f.symbol for f in back.ops] == [f.symbol for f in alg.ops]
    for f, table in zip(back.ops, back.tables):
        assert all(table(args) == f(args) for args in back.carrier.assignments(f.rank))
