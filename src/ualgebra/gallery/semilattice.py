"""Powerset union semilattices and their incidence-matrix twin.

Elements are subsets of a ground set, named "{a,b}" with members listed in
ground-set order.  The canonical carrier order is bitmask counting with the
first ground element as the lowest bit, so the empty set always comes first.
"""

from __future__ import annotations

import itertools

from ..core import Algebra, AlgebraError, Carrier, FunctionTable, Operation
from ..representation import Frame

MAX_GROUND = 4


def subset_name(subset, ground) -> str:
    return "{" + ",".join(x for x in ground if x in subset) + "}"


def name_to_subset(name: str, ground) -> frozenset:
    body = name.strip("{}")
    return frozenset(body.split(",")) if body else frozenset()


def build_powerset_semilattice(ground) -> tuple[Algebra, Frame]:
    ground = tuple(ground)
    if not 1 <= len(ground) <= MAX_GROUND:
        raise AlgebraError(f"ground set size {len(ground)} outside 1..{MAX_GROUND}")
    subsets = [
        frozenset(x for i, x in enumerate(ground) if mask >> i & 1)
        for mask in range(2 ** len(ground))
    ]
    names = {s: subset_name(s, ground) for s in subsets}
    carrier = Carrier(tuple(names[s] for s in subsets))

    ops = (
        Operation("0", (), table=FunctionTable.from_rows(carrier, (), [((), names[frozenset()])])),
        Operation("union", ("l", "r"), table=FunctionTable.from_rows(
            carrier, ("l", "r"), [((names[a], names[b]), names[a | b])
                                  for a in subsets for b in subsets])),
    )
    alg = Algebra(f"powerset-semilattice-{len(ground)}", carrier, ops)
    frame = Frame(ground, {x: names[frozenset({x})] for x in ground})
    return alg, frame


def semilattice_eta(M: dict, ground, a_name: str) -> str:
    """Closed-form extension: the union of the columns selected by the argument.

    Oracle for the generic extension: M maps each ground element to a subset
    name; the result is the union of M_y over the members y of the argument.
    """
    out = frozenset()
    for y in name_to_subset(a_name, ground):
        out |= name_to_subset(M[y], ground)
    return subset_name(out, ground)


def bits_name(subset, ground) -> str:
    return "".join("1" if x in subset else "0" for x in ground)


def incidence_transform(alg: Algebra, ground) -> tuple[Algebra, dict]:
    """Transport the semilattice along the characteristic-function bijection.

    Returns the isomorphic algebra on 0/1 vectors plus the element map: the
    carrier is relabelled and the operation tables keep their codes, so the
    transport commutes with every operation by construction.
    """
    ground = tuple(ground)
    j = {
        name: bits_name(name_to_subset(name, ground), ground)
        for name in alg.carrier.elements
    }
    carrier = Carrier(tuple(j[name] for name in alg.carrier.elements))
    ops = tuple(Operation(f.symbol, f.rank, table=FunctionTable(carrier, f.rank, f.table.codes))
                for f in alg.ops)
    return Algebra(alg.name + "-incidence", carrier, ops), j


def is_bitwise_twin(twin: Algebra) -> bool:
    """Whether the twin's union is the bitwise or of its 0/1 names on every
    row and its 0 is the all-zero string, read off the names alone."""
    union, zero = twin.op("union"), twin.op("0")
    width = len(twin.carrier.elements[0])
    return zero(()) == "0" * width and all(
        union((a, b)) == "".join(map(max, a, b))  # "1" > "0", so max is or
        for a, b in twin.carrier.assignments(union.rank))


def incidence_matrix(M: dict, ground) -> list[str]:
    """Rows of the 0/1 incidence matrix of a graph given as column subsets."""
    return [bits_name(name_to_subset(M[x], ground), ground) for x in ground]
