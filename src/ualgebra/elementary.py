"""Elementary-function closures, generators and independence.

An elementary function is anything reachable from the projections by
composing with the algebra's operations.  Each one kept by the closure
carries a witness term: ("proj", x) leaves and ("op", symbol, children)
nodes, children ordered by the operation's rank.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from .combinator import projection, set_ary_compose
from .core import Algebra, AlgebraError, FunctionTable, Rank, UnaryMap

DEFAULT_GUARD = 10_000

Term = tuple


@dataclass(frozen=True)
class ElementaryFunction:
    table: FunctionTable
    witness: Term


@dataclass(frozen=True)
class ClosureResult:
    functions: tuple[ElementaryFunction, ...]
    complete: bool

    def tables(self) -> set[FunctionTable]:
        return {f.table for f in self.functions}


def term_table(alg: Algebra, term: Term, arity: Rank) -> FunctionTable:
    """Re-tabulate a witness term from scratch (oracle for closure results)."""
    kind = term[0]
    if kind == "proj":
        return projection(alg.carrier, arity, term[1])
    _, symbol, children = term
    g = alg.op(symbol)
    G = {s: term_table(alg, child, arity) for s, child in zip(g.rank, children)}
    return set_ary_compose(g, G, alg.carrier, arity)


def _horner_tables(alg: Algebra) -> list[tuple[str, int, list[int]]]:
    """Each operation as (symbol, arity, Horner codes), read off ``alg.tables``;
    the codes as a list, whose bound ``__getitem__`` maps faster than a tuple's."""
    return [(g.symbol, len(t.rank), list(t.codes)) for g, t in zip(alg.ops, alg.tables)]


def _fixpoint(n: int, ops: list[tuple[str, int, list[int]]], seeds: dict[tuple, Term],
              width: int, guard: float = math.inf) -> tuple[dict[tuple, Term], bool]:
    """Subuniverse of A^width generated by the seed vectors, over carrier indices.

    Operations act coordinatewise through their Horner tables (``n`` is the
    carrier size).  Round by round, each operation is applied to combinations
    of the members in lexicographic order of their positions, and the first
    term reaching each new vector is kept, so witnesses have minimal depth.  A round evaluates only the combinations
    with an argument among the previous round's new members: any other was
    evaluated a round earlier and its value is already a member.  So nullary
    operations run in the first round only, and the last slot is restricted
    to the new members when no earlier slot holds one.  Before each round a
    member count over ``guard`` stops the closure with the partial set
    flagged incomplete.
    """
    members = dict(seeds)
    order = list(members)
    columns = [[v[c] for v in order] for c in range(width)]

    def add(value, term):
        members[value] = term
        order.append(value)
        for col, a in zip(columns, value):
            col.append(a)

    first, start = True, 0  # start: position of the previous round's first new member
    while True:
        if len(order) > guard:
            return members, False
        end = len(order)
        for symbol, k, flat in ops:
            if not k:
                if first:
                    value = (flat[0],) * width
                    if value not in members:
                        add(value, ("op", symbol, ()))
                continue
            for head in itertools.product(range(end), repeat=k - 1):
                # Horner code of the head's arguments, shifted for the last slot
                prefix = (0,) * width
                for i in head:
                    prefix = tuple(map(n.__mul__, map(operator.add, prefix, order[i])))
                lo = start if max(head, default=-1) < start else 0
                # the values over every last-slot member, a coordinate at a time:
                # coordinate code c reads the table row flat[c:c + n]
                values = list(zip(*[map(flat[c:c + n].__getitem__, col[lo:end])
                                    for c, col in zip(prefix, columns)]))
                if all(map(members.__contains__, values)):
                    continue
                for j, value in enumerate(values, lo):
                    if value not in members:
                        add(value, ("op", symbol, tuple(members[order[i]] for i in (*head, j))))
        if len(order) == end:
            return members, True
        first, start = False, end


def elementary_closure(alg: Algebra, Y: Rank, guard: int = DEFAULT_GUARD) -> ClosureResult:
    """Least fixpoint of composition over the projections, deduplicated by table.

    A Y-ary function is its value vector over A^Y, so this is the subuniverse
    of A^(A^Y) generated by the projections.  Breadth-first by term depth, so
    each kept function carries a minimal-depth witness (first reached in
    canonical order).  Exceeding the table-count guard aborts with the partial
    set flagged incomplete.
    """
    ops = _horner_tables(alg)
    carrier = alg.carrier
    n = len(carrier)
    # a member's vector over A^Y in canonical order is its table's codes
    assigns = list(itertools.product(range(n), repeat=len(Y)))
    seeds: dict[tuple, Term] = {}
    for pos, x in enumerate(Y):
        seeds.setdefault(tuple(args[pos] for args in assigns), ("proj", x))
    members, complete = _fixpoint(n, ops, seeds, len(assigns), guard)
    functions = tuple(ElementaryFunction(FunctionTable(carrier, Y, vector), witness)
                      for vector, witness in members.items())
    return ClosureResult(functions, complete)


RANKLESS_ARITY: Rank = ("*",)


def rankless(alg: Algebra, guard: int = DEFAULT_GUARD) -> set[UnaryMap]:
    """All unary maps obtained by equalizing the arguments of elementary functions.

    Setting the arity to a single slot already yields every such map, so this
    is the image of the one-slot closure under argument equalization.
    """
    closure = elementary_closure(alg, RANKLESS_ARITY, guard)
    if not closure.complete:
        raise AlgebraError("closure guard exceeded while computing rank-less functions")
    return {ef.table.equalize() for ef in closure.functions}


def subuniverse_with_terms(alg: Algebra, seeds: dict[int, Term]) -> dict[int, Term]:
    """Subalgebra closure of seed elements (carrier indices), keeping one
    reaching term each."""
    members, _complete = _fixpoint(len(alg.carrier), _horner_tables(alg),
                                   {(a,): term for a, term in seeds.items()}, 1)
    return {a: term for (a,), term in members.items()}


def generated_subuniverse(alg: Algebra, frame) -> set[str]:
    """Everything reachable from the frame's range; equals the carrier iff
    the frame is a generator."""
    seeds = {alg.carrier.index[frame.U[x]]: ("proj", x) for x in frame.X}
    return {alg.carrier.elements[a] for a in subuniverse_with_terms(alg, seeds)}


@dataclass(frozen=True)
class GeneratorResult:
    """Outcome of the single-generator construction for a frame.

    status is "ok", "not-generator" or "not-independent".  On success ``chi``
    maps each element to its elementary function of the frame's arity.  On
    independence failure ``witness`` holds two elementary functions with the
    same value at the frame but different tables.
    """

    status: str
    chi: dict[str, ElementaryFunction] | None = None
    missing: frozenset[str] | None = None
    witness: tuple[ElementaryFunction, ElementaryFunction] | None = None

    @property
    def exists(self) -> bool:
        return self.status == "ok"


def elementary_generator(alg: Algebra, frame) -> GeneratorResult:
    """Decide whether the frame admits a single elementary-function generator.

    Instead of materializing the full closure (whose size is doubly
    exponential), this closes pairs (value at U, value at M) inside A x A for
    every matrix M: the pair subalgebra generated by the columns is exactly
    the set of (l(U), l(M)) over elementary l, so independence is the absence
    of a fork and the generator property is first-coordinate totality.
    """
    X = frame.X
    carrier = alg.carrier
    n = len(carrier)
    U = [carrier.index[frame.U[x]] for x in X]
    reach = subuniverse_with_terms(alg, {u: ("proj", x) for x, u in zip(X, U)})
    if len(reach) < n:
        return GeneratorResult("not-generator", missing=frozenset(
            a for i, a in enumerate(carrier.elements) if i not in reach))

    ops = _horner_tables(alg)
    # chi_codes[a][c] is chi_a at the matrix M of Horner code c
    chi_codes = [[0] * n ** len(X) for _ in range(n)]
    for code, M in enumerate(itertools.product(range(n), repeat=len(X))):
        seeds: dict[tuple[int, int], Term] = {}
        for x, u, m in zip(X, U, M):
            seeds.setdefault((u, m), ("proj", x))
        pairs, _complete = _fixpoint(n, ops, seeds, 2)
        by_first: dict[int, tuple[int, Term]] = {}
        for (a, b), term in pairs.items():
            if a in by_first and by_first[a][0] != b:
                ell = ElementaryFunction(term_table(alg, by_first[a][1], X), by_first[a][1])
                ell2 = ElementaryFunction(term_table(alg, term, X), term)
                return GeneratorResult("not-independent", witness=(ell, ell2))
            by_first.setdefault(a, (b, term))
        for a, (b, _term) in by_first.items():
            chi_codes[a][code] = b

    chi = {
        a: ElementaryFunction(FunctionTable(carrier, X, tuple(codes)), reach[i])
        for i, (a, codes) in enumerate(zip(carrier.elements, chi_codes))
    }
    return GeneratorResult("ok", chi=chi)
