"""End(A) as code tuples: the ``Endomorphisms`` view against the frozenset of
``UnaryMap`` the searches used to return, the commands that read End(A)
without making a ``UnaryMap``, and the generators composed on the right
against the generators composed on the left."""

import ast
import itertools
import random
import re
from pathlib import Path

import pytest

from conftest import based_algebra, max_chain, random_algebra, vector_space
from ualgebra import cli, representation
from ualgebra.core import AlgebraError, Carrier, Endomorphisms, UnaryMap, save_algebra
from ualgebra.representation import (BRUTE_CAP, _enumerate_backtrack, _enumerate_columns,
                                     _search_kernel, build_representation,
                                     endomorphism_generators, enumerate_endomorphisms)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def unary_map_set(alg, codes) -> frozenset:
    """End(A) as the searches built it before the view: one ``UnaryMap`` per map."""
    return frozenset(UnaryMap(alg.carrier, c) for c in codes)


def view_algebras() -> list:
    rng = random.Random(29)
    algebras = [random_algebra(rng, max_size=6)[0] for _ in range(12)]
    algebras += [based_algebra(random.Random(seed))[0] for seed in range(6)]
    return algebras + [vector_space(2, 3), vector_space(3, 2)]


def check_view(view, oracle: frozenset) -> None:
    """``view`` behaves as the frozenset of ``UnaryMap`` ``oracle``."""
    carrier = next(iter(oracle)).carrier
    n = len(carrier)
    assert isinstance(view, Endomorphisms)
    assert len(view) == len(oracle)
    assert all(h in view for h in oracle)
    assert next(iter(view.codes)) not in view  # a bare tuple is not a member
    outside = next(c for c in itertools.product(range(n), repeat=n) if c not in view.codes)
    assert UnaryMap(carrier, outside) not in view
    for other in (oracle, set(oracle)):
        assert view == other and other == view
        assert not view != other and not other != view
    h = min(oracle, key=lambda h: h.codes)
    smaller = oracle - {h}
    assert view != smaller and smaller != view and not view == smaller
    assert set(view) == oracle
    assert hash(view) == hash(oracle)
    rest = view - {h}
    assert isinstance(rest, Endomorphisms) and rest.codes == view.codes - {h.codes}
    assert rest == smaller and h not in rest
    assert sorted(h.values for h in view) == sorted(h.values for h in oracle)


def test_view_matches_the_unary_map_set(monkeypatch):
    methods = set()
    for alg in view_algebras():
        oracle = unary_map_set(alg, _enumerate_backtrack(alg))
        found = {"byte" if _search_kernel(alg) is _enumerate_columns else "depth-first":
                 enumerate_endomorphisms(alg, "backtrack")}
        if len(alg.carrier) ** len(alg.carrier) <= BRUTE_CAP:
            found["brute"] = enumerate_endomorphisms(alg, "brute")
        with monkeypatch.context() as patched:
            patched.setattr(representation, "_search_kernel", lambda alg: _enumerate_backtrack)
            found["depth-first"] = enumerate_endomorphisms(alg, "backtrack")
        for view in found.values():
            check_view(view, oracle)
        first, *others = found.values()
        assert all(first == view for view in others)
        methods.update(found)
    assert methods == {"byte", "depth-first", "brute"}


def test_commands_make_no_unary_map(tmp_path, monkeypatch):
    chain = tmp_path / "chain8.json"
    save_algebra(max_chain(random.Random(8), 8), chain)
    semilattice3 = str(FIXTURES / "semilattice3.json")
    frame = str(FIXTURES / "semilattice3_frame.json")

    def refuse(self, *args, **kwargs):
        raise AssertionError("a UnaryMap was made")

    monkeypatch.setattr(UnaryMap, "__init__", refuse)
    for argv, key, value in ((["endos", str(chain)], "count", 6435),
                             (["endos", semilattice3], "count", 512),
                             (["endos", semilattice3, "--list"], "count", 512),
                             (["basis", semilattice3, frame], "endo_count", 512),
                             (["dilatations", semilattice3, frame], "status", "pass")):
        out, code = cli.run(argv)
        assert code == 0 and out["report"][key] == value, argv
    # the patch is live: iterating End(A) makes maps
    with pytest.raises(AssertionError, match="a UnaryMap was made"):
        list(enumerate_endomorphisms(max_chain(random.Random(8), 8)))


def left_generators(members: set, carrier: Carrier) -> list:
    """``endomorphism_generators`` composing on the left (g . f, f applied
    first) in Python, as it did before the right multiplication in C: the
    oracle for its generators and their order."""
    reached = {tuple(range(len(carrier)))}
    generators: list = []
    for h in sorted(members, key=lambda h: (-len(set(h)), h)):
        if h in reached:
            continue
        generators.append(h)
        frontier, apply = reached, (h,)
        while frontier:
            new = set()
            for g in apply:
                new.update(tuple(g[v] for v in f) for f in frontier)
            new -= reached
            if stray := new - members:
                raise AlgebraError("endomorphisms not closed under composition: the composite "
                                   f"{[carrier.elements[v] for v in min(stray)]} is not one")
            reached |= new
            frontier, apply = new, generators
    return generators


def generator_algebras() -> list:
    rng = random.Random(37)
    algebras = [random_algebra(rng, max_size=5)[0] for _ in range(30)]
    algebras += [based_algebra(random.Random(seed))[0] for seed in range(6)]
    return algebras + [vector_space(2, 3), vector_space(3, 2)]


def test_generators_match_left_composition(semilattice3):
    sizes = set()
    for alg in generator_algebras() + [semilattice3[0]]:
        members = enumerate_endomorphisms(alg).codes
        generators = endomorphism_generators(members, alg.carrier)
        assert generators == left_generators(members, alg.carrier)
        sizes.add(len(generators))
    assert len(sizes) > 3


def test_generators_on_one_element():
    # itemgetter of one index returns a scalar: on one element nothing is composed
    carrier = Carrier(("e",))
    assert endomorphism_generators({(0,)}, carrier) == left_generators({(0,)}, carrier) == []


def composite_named(error: str, carrier: Carrier) -> tuple:
    names = ast.literal_eval(re.search(r"the composite (\[.*\]) is not one", error).group(1))
    return tuple(carrier.index[name] for name in names)


def test_both_compositions_reject_a_dropped_member(semilattice3):
    cases = 0
    for alg in generator_algebras() + [semilattice3[0]]:
        members = enumerate_endomorphisms(alg).codes
        generators = endomorphism_generators(members, alg.carrier)
        identity = tuple(range(len(alg.carrier)))
        dropped = [h for h in sorted(members) if h not in generators and h != identity][:3]
        for h in dropped:
            rest = members - {h}
            with pytest.raises(AlgebraError, match="not closed under composition") as right:
                endomorphism_generators(rest, alg.carrier)
            with pytest.raises(AlgebraError, match="not closed under composition"):
                left_generators(rest, alg.carrier)
            composite = composite_named(str(right.value), alg.carrier)
            assert composite not in rest and composite in members
            cases += 1
    assert cases > 10


def test_representation_stays_hashable(semilattice2):
    rep, again = build_representation(*semilattice2), build_representation(*semilattice2)
    assert rep == again and hash(rep) == hash(again)
