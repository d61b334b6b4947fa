import dataclasses
import itertools

import pytest

from ualgebra.core import AlgebraError
from ualgebra.dilatation import (
    analyze_dilatations,
    build_endowed_monoid,
    check_distributivities,
    check_fullness_pipeline,
    monoid_to_dict,
)
from ualgebra.elementary import rankless
from ualgebra.representation import Frame, build_representation


@pytest.fixture(scope="module")
def semilattice_analysis(semilattice2):
    alg, frame = semilattice2
    return analyze_dilatations(build_representation(alg, frame))


def identity(carrier) -> tuple:
    return tuple(range(len(carrier)))


def constant(carrier, value: str) -> tuple:
    return (carrier.index[value],) * len(carrier)


def indicators(analysis) -> dict:
    """delta member -> the carrier indices of the elements indicating it,
    derived from the generator gamma."""
    return {member: {d for d, g in analysis.gamma.items() if g == member}
            for member in analysis.delta}


def test_semilattice_delta(semilattice_analysis, semilattice2):
    alg, _frame = semilattice2
    carrier = alg.carrier
    assert semilattice_analysis.delta == frozenset({identity(carrier), constant(carrier, "{}")})
    assert semilattice_analysis.full
    assert semilattice_analysis.routes_agree
    assert set(semilattice_analysis.gamma) == set(range(len(carrier)))


def test_semilattice_indicators(semilattice_analysis, semilattice2):
    alg, _frame = semilattice2
    carrier = alg.carrier
    ind = indicators(semilattice_analysis)
    idx = carrier.index
    # the empty set indicates the constant collapse, everything else the identity
    assert ind[constant(carrier, "{}")] == {idx["{}"]}
    assert ind[identity(carrier)] == {idx["{x}"], idx["{y}"], idx["{x,y}"]}


def test_two_routes_agree_in_general(semilattice2, semilattice3, trivial):
    for alg, frame in (semilattice2, semilattice3, trivial):
        analysis = analyze_dilatations(build_representation(alg, frame))
        assert analysis.routes_agree
        # every generator value really is in both sets
        endos = {h.codes for h in analysis.rep.endos}
        assert set(analysis.gamma.values()) <= (rankless(alg) & endos)


def test_at_most_one_constant_dilatation(semilattice_analysis):
    constants = [d for d in semilattice_analysis.delta if len(set(d)) == 1]
    assert len(constants) <= 1


def test_monoid_laws(semilattice_analysis):
    monoid, info = build_endowed_monoid(semilattice_analysis)
    assert monoid is not None
    assert info["delta_size"] == 2
    n = len(monoid.members)
    prod = monoid.product
    # unit, associativity, and (here) commutativity of composition
    for a, b, c in itertools.product(range(n), repeat=3):
        assert prod[monoid.unit][a] == a == prod[a][monoid.unit]
        assert prod[prod[a][b]][c] == prod[a][prod[b][c]]
        assert prod[a][b] == prod[b][a]


def test_monoid_matches_composition(semilattice_analysis):
    monoid, _info = build_endowed_monoid(semilattice_analysis)
    for i, a in enumerate(monoid.members):
        for j, b in enumerate(monoid.members):
            # a after b
            assert monoid.members[monoid.product[i][j]] == tuple(a[v] for v in b)


def test_image_ops_on_two_element_lattice(semilattice_analysis):
    # with members ordered (collapse, identity) the transported union is max
    # and the transported empty-set constant is the collapse itself
    monoid, _info = build_endowed_monoid(semilattice_analysis)
    tables = {symbol: table for symbol, _rank, table in monoid.image_ops}
    lo = 1 - monoid.unit
    hi = monoid.unit
    assert tables["0"][()] == lo
    assert tables["union"] == {(lo, lo): lo, (lo, hi): hi,
                               (hi, lo): hi, (hi, hi): hi}


def test_distributivities(semilattice_analysis):
    monoid, _info = build_endowed_monoid(semilattice_analysis)
    assert check_distributivities(monoid, semilattice_analysis)["status"] == "pass"


def test_distributivity_failures_name_the_member(semilattice_analysis):
    # the identity replaced by a map that is no endomorphism of union: {y} -> {x}
    monoid, _info = build_endowed_monoid(semilattice_analysis)
    broken = dataclasses.replace(monoid, members=(monoid.members[0], (0, 1, 1, 3)))
    result = check_distributivities(broken, semilattice_analysis)
    assert result["status"] == "fail"
    assert result["failures"][0] == ("heterogeneous", "union",
                                     ("{}", "{x}", "{x}", "{x,y}"), ("{x}", "{y}"))


def test_boolean_not_full(boolean):
    alg, frame = boolean
    analysis = analyze_dilatations(build_representation(alg, frame))
    assert not analysis.full
    assert set(analysis.gamma) == {alg.carrier.index["x"]}
    monoid, info = build_endowed_monoid(analysis)
    assert monoid is None
    assert info["non_indicators"] == ["bot", "notx", "top"]
    # partial inheritance: the meet image stays inside delta, the rest escape
    assert info["inherited"] == {"meet": True, "neg": False, "bot": False}


def test_fullness_pipeline_semilattice(semilattice2):
    alg, frame = semilattice2
    out = check_fullness_pipeline(alg, frame)
    assert out["status"] == "pass"
    assert out["commutative"] and out["full"]
    assert out["monoid_built"]


def test_fullness_pipeline_semilattice3(semilattice3):
    alg, frame = semilattice3
    out = check_fullness_pipeline(alg, frame)
    assert out["status"] == "pass"
    assert out["monoid_info"]["delta_size"] == 2


def test_fullness_pipeline_boolean_contrapositive(boolean):
    alg, frame = boolean
    out = check_fullness_pipeline(alg, frame)
    assert out["status"] == "pass"
    assert not out["commutative"]
    assert not out["full"]
    assert out["witness_pair"] is not None


def test_analysis_requires_bijection(semilattice2):
    alg, _frame = semilattice2
    rep = build_representation(alg, Frame(("u",), {"u": "{x,y}"}))
    with pytest.raises(AlgebraError):
        analyze_dilatations(rep)


def test_monoid_serialization(semilattice_analysis):
    monoid, _info = build_endowed_monoid(semilattice_analysis)
    doc = monoid_to_dict(monoid)
    assert set(doc) == {"delta", "unit", "product", "image_ops"}
    assert doc["delta"][doc["unit"]] == list(semilattice_analysis.rep.algebra.carrier.elements)
    assert len(doc["product"]) == len(doc["delta"])
    for op in doc["image_ops"]:
        assert len(op["table"]) == len(doc["delta"]) ** len(op["rank"])
