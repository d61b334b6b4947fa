"""Elementary-function closures, generators and independence.

An elementary function is anything reachable from the projections by
composing with the algebra's operations.  Each one kept by the closure
carries a witness term: ("proj", x) leaves and ("op", symbol, children)
nodes, children ordered by the operation's rank.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .combinator import FunctionTable, projection, set_ary_compose
from .core import Algebra, AlgebraError, Rank, UnaryMap

DEFAULT_GUARD = 10_000

Term = tuple


@dataclass(frozen=True)
class ElementaryFunction:
    table: FunctionTable
    witness: Term

    def __call__(self, args: tuple) -> str:
        return self.table(args)


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


def _require_tabulated(alg: Algebra) -> None:
    if not alg.is_tabulated:
        raise AlgebraError("elementary closure needs a fully tabulated algebra")


def _close(alg: Algebra, seeds: dict[tuple, Term], width: int,
           guard: float = math.inf) -> tuple[dict[tuple, Term], bool]:
    """Subuniverse of A^width generated by the seed vectors, one term each.

    Operations act coordinatewise.  Every round applies each operation to
    every combination of the members so far (in insertion order) and keeps
    the first term reaching each new vector, so witnesses have minimal depth.
    Before each round a member count over ``guard`` stops the closure with
    the partial set flagged incomplete.
    """
    members = dict(seeds)
    while True:
        if len(members) > guard:
            return members, False
        new: dict[tuple, Term] = {}
        order = list(members)
        for g in alg.ops:
            for combo in itertools.product(order, repeat=len(g.rank)):
                value = tuple(map(g, zip(*combo))) if combo else (g(()),) * width
                if value not in members and value not in new:
                    new[value] = ("op", g.symbol, tuple(members[v] for v in combo))
        if not new:
            return members, True
        members.update(new)


def elementary_closure(alg: Algebra, Y: Rank, guard: int = DEFAULT_GUARD) -> ClosureResult:
    """Least fixpoint of composition over the projections, deduplicated by table.

    A Y-ary function is its value vector over A^Y, so this is the subuniverse
    of A^(A^Y) generated by the projections.  Breadth-first by term depth, so
    each kept function carries a minimal-depth witness (first reached in
    canonical order).  Exceeding the table-count guard aborts with the partial
    set flagged incomplete.
    """
    _require_tabulated(alg)
    carrier = alg.carrier
    assigns = list(carrier.assignments(Y))
    seeds: dict[tuple, Term] = {}
    for x in Y:
        pos = Y.index(x)
        seeds.setdefault(tuple(args[pos] for args in assigns), ("proj", x))
    members, complete = _close(alg, seeds, len(assigns), guard)
    functions = tuple(
        ElementaryFunction(FunctionTable(carrier, Y, dict(zip(assigns, vector))), witness)
        for vector, witness in members.items()
    )
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


def subuniverse_with_terms(alg: Algebra, seeds: dict[str, Term]) -> dict[str, Term]:
    """Subalgebra closure of seed elements, keeping one reaching term each."""
    _require_tabulated(alg)
    members, _complete = _close(alg, {(a,): term for a, term in seeds.items()}, 1)
    return {a: term for (a,), term in members.items()}


def generated_subuniverse(alg: Algebra, frame) -> set[str]:
    """Everything reachable from the frame's range; equals the carrier iff
    the frame is a generator."""
    seeds = {frame.U[x]: ("proj", x) for x in frame.X}
    return set(subuniverse_with_terms(alg, seeds))


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
    _require_tabulated(alg)
    X = frame.X
    carrier = alg.carrier
    reach = subuniverse_with_terms(alg, {frame.U[x]: ("proj", x) for x in X})
    if set(reach) != set(carrier.elements):
        return GeneratorResult("not-generator",
                               missing=frozenset(set(carrier.elements) - set(reach)))

    chi_tables: dict[str, dict[tuple, str]] = {a: {} for a in carrier.elements}
    for M in carrier.assignments(X):
        seeds: dict[tuple[str, str], Term] = {}
        for x, m in zip(X, M):
            seeds.setdefault((frame.U[x], m), ("proj", x))
        pairs, _complete = _close(alg, seeds, 2)
        by_first: dict[str, tuple[str, Term]] = {}
        for (a, b), term in pairs.items():
            if a in by_first and by_first[a][0] != b:
                ell = ElementaryFunction(term_table(alg, by_first[a][1], X), by_first[a][1])
                ell2 = ElementaryFunction(term_table(alg, term, X), term)
                return GeneratorResult("not-independent", witness=(ell, ell2))
            by_first.setdefault(a, (b, term))
        for a, (b, _term) in by_first.items():
            chi_tables[a][M] = b

    chi = {
        a: ElementaryFunction(FunctionTable(carrier, X, chi_tables[a]), reach[a])
        for a in carrier.elements
    }
    return GeneratorResult("ok", chi=chi)
