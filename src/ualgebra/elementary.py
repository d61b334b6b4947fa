"""Elementary-function closures, generators and independence.

An elementary function is anything reachable from the projections by
composing with the algebra's operations.  Each one kept by the closure
carries a witness term: ("proj", x) leaves and ("op", symbol, children)
nodes, children ordered by the operation's rank.  The single-generator
decision reads its answer off the elementary closure of the frame's arity.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass

from .combinator import projection, set_ary_compose
from .core import Algebra, AlgebraError, FunctionTable, Rank

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


CODE_POINTS = 256  # a byte holds a code below this: a point of A^width, or a table's value


def _fixpoint(n: int, ops: list[tuple[str, int, list[int]]], seeds: dict[tuple, Term],
              width: int, guard: float = math.inf) -> tuple[dict[tuple, Term], bool]:
    """Subuniverse of A^width generated by the seed vectors, over carrier indices.

    Operations act coordinatewise through their Horner tables (``n`` is the
    carrier size).  Round by round, each operation is applied to combinations
    of the members in lexicographic order of their positions, and the first
    term reaching each new vector is kept, so witnesses have minimal depth.  A
    round evaluates only the combinations with an argument among the previous
    round's new members: any other was evaluated a round earlier and its value
    is already a member.  So nullary operations run in the first round only,
    and the last slot is restricted to the new members when no earlier slot
    holds one.  The closure stops as soon as it holds more than ``guard``
    members, inside a round if need be, with the partial set (the seeds and
    then the members in order of discovery) flagged incomplete; so it is
    complete exactly when it has at most ``guard`` members.

    Three kernels compute it with identical results, picked from the shape.
    When A^width has at most CODE_POINTS points, every member fits one byte
    and ``_code_fixpoint`` runs; the power n**width is only formed for
    width <= 8, which a carrier of two or more elements needs to fit.
    Otherwise, when the carrier has at most CODE_POINTS elements and every
    table at most CODE_POINTS codes, every member is one ``bytes`` row and
    ``_row_fixpoint`` runs.  Any other shape runs ``_vector_fixpoint``.
    """
    if width <= 8 and n ** width <= CODE_POINTS:
        kernel = _code_fixpoint
    elif n <= CODE_POINTS and all(len(flat) <= CODE_POINTS for _symbol, _k, flat in ops):
        kernel = _row_fixpoint
    else:
        kernel = _vector_fixpoint
    return kernel(n, ops, seeds, width, guard)


def _vector_fixpoint(n: int, ops: list[tuple[str, int, list[int]]], seeds: dict[tuple, Term],
                     width: int, guard: float = math.inf) -> tuple[dict[tuple, Term], bool]:
    """``_fixpoint`` over member vectors, also laid end to end in one flat
    list.  A head's whole last-slot block is one ``map``: the head's Horner
    prefix, repeated once per last-slot member, plus that slice of the list,
    through the table; ``zip(*[it] * width)`` cuts the values into vectors."""
    members = dict(seeds)
    order = list(members)
    flat_members = [a for v in order for a in v]

    def add(value, term):  # True when the members pass the guard
        members[value] = term
        order.append(value)
        flat_members.extend(value)
        return len(order) > guard

    first, start = True, 0  # start: position of the previous round's first new member
    while True:
        if len(order) > guard:  # the seeds alone; a round stops at the member that passes it
            return members, False
        end = len(order)
        for symbol, k, flat in ops:
            if not k:
                if first and (value := (flat[0],) * width) not in members \
                        and add(value, ("op", symbol, ())):
                    return members, False
                continue
            for head in itertools.product(range(end), repeat=k - 1):
                # Horner code of the head's arguments, shifted for the last slot
                prefix = (0,) * width
                for i in head:
                    prefix = tuple(map(n.__mul__, map(operator.add, prefix, order[i])))
                lo = start if max(head, default=-1) < start else 0
                codes = map(operator.add, prefix * (end - lo), flat_members[lo * width:end * width])
                values = list(zip(*[map(flat.__getitem__, codes)] * width))
                if all(map(members.__contains__, values)):
                    continue
                for j, value in enumerate(values, lo):
                    if value not in members and add(
                            value, ("op", symbol, tuple(members[order[i]] for i in (*head, j)))):
                        return members, False
        if len(order) == end:
            return members, True
        first, start = False, end


def _row_fixpoint(n: int, ops: list[tuple[str, int, list[int]]], seeds: dict[tuple, Term],
                  width: int, guard: float = math.inf) -> tuple[dict[tuple, Term], bool]:
    """``_fixpoint`` for at most CODE_POINTS elements and tables of at most
    CODE_POINTS codes, each member held as one ``bytes`` row of its width,
    and the rows also laid end to end in one bytearray.

    A head's Horner prefix is a big integer, ``(prefix + row) * n`` over the
    head's rows read as integers: byte c of it is the Horner code of the
    head's arguments at coordinate c, shifted for the last slot, and no byte
    carries, as each stays below the table's length.  The head's whole
    last-slot block is that slice of the rows plus the prefix repeated once
    per last-slot member, one ``to_bytes``, and one ``translate`` through
    the table padded to 256 bytes.
    """
    members = {bytes(v): term for v, term in seeds.items()}
    order = list(members)
    every = bytearray().join(order)
    tables = [bytes(flat).ljust(256, b"\0") for _symbol, _k, flat in ops]

    def add(row, term):  # True when the members pass the guard
        members[row] = term
        order.append(row)
        every.extend(row)
        return len(order) > guard

    def result(complete):
        return {tuple(row): term for row, term in members.items()}, complete

    first, start = True, 0  # start: position of the previous round's first new member
    while True:
        if len(order) > guard:  # the seeds alone; a round stops at the member that passes it
            return result(False)
        end = len(order)
        # the last-slot blocks from the previous round's new members and from all
        blocks = {lo: bytes(every[lo * width:]) for lo in (start, 0)}
        numbers = {lo: int.from_bytes(block, "big") for lo, block in blocks.items()}
        for (symbol, k, flat), table in zip(ops, tables):
            if not k:
                if first and (row := bytes(flat[:1]) * width) not in members \
                        and add(row, ("op", symbol, ())):
                    return result(False)
                continue
            for head in itertools.product(range(end), repeat=k - 1):
                prefix = 0
                for i in head:
                    prefix = (prefix + int.from_bytes(order[i], "big")) * n
                lo = start if max(head, default=-1) < start else 0
                block = blocks[lo]
                if prefix:
                    repeated = int.from_bytes(prefix.to_bytes(width, "big") * (end - lo), "big")
                    block = (numbers[lo] + repeated).to_bytes(len(block), "big")
                values = block.translate(table)
                for j, x in enumerate(range(0, len(values), width), lo):
                    if (row := values[x:x + width]) not in members and add(
                            row, ("op", symbol, tuple(members[order[i]] for i in (*head, j)))):
                        return result(False)
        if len(order) == end:
            return result(True)
        first, start = False, end


@functools.cache  # at most one entry per (n, width) with n**width <= CODE_POINTS
def _code_tables(n: int, width: int) -> tuple[tuple[tuple, ...], tuple[int, ...],
                                              tuple[bytes, ...]]:
    """The vector of each code, the Horner weight of each coordinate, and for
    each coordinate c the digit c of every code, in code order."""
    points = tuple(itertools.product(range(n), repeat=width))
    weights = tuple(n ** (width - 1 - c) for c in range(width))
    return points, weights, tuple(bytes(v[c] for v in points) for c in range(width))


class _Lifts(dict):
    """The lifted tables of one operation over A^width of at most CODE_POINTS
    points.  A head's lifted table maps each code to the code of the value
    with that member in the last slot.  It is a sum of big integers, one term
    per coordinate c: the digits c of all codes, translated through the table
    row that the head selects at c and scaled by the weight of c.  No byte of
    the sum carries, as each is a code below 256.

    ``self[code]`` is the table of the head whose one member has that code,
    built on first use from terms kept by coordinate and head digit, and then
    kept; the empty head of a unary operation is the head of code 0, the zero
    vector.  ``build`` makes the table of a longer head from kept rows alone:
    such heads are quadratically many, and neither their tables nor their
    terms are kept.
    """

    def __init__(self, n: int, width: int, flat: list[int]):
        super().__init__()
        self.n, self.flat = n, flat
        self.points, self.weights, self.digits = _code_tables(n, width)
        self.rows: dict[int, bytes] = {}  # table rows padded to 256 bytes, by Horner prefix
        self.terms: list[list[int | None]] = [[None] * n for _ in range(width)]

    def __missing__(self, code: int) -> bytes:
        digits = self.points[code]
        parts = list(map(list.__getitem__, self.terms, digits))
        if None in parts:
            for c, d in enumerate(digits):
                if parts[c] is None:
                    parts[c] = self.terms[c][d] = self.term(c, d * self.n)
        lift = self[code] = self.lift(sum(parts))
        return lift

    def build(self, head) -> bytes:
        """The lifted table of the head of these member codes."""
        prefix = (0,) * len(self.weights)  # the head's Horner code, shifted for the last slot
        for code in head:
            prefix = tuple(map(self.n.__mul__, map(operator.add, prefix, self.points[code])))
        return self.lift(sum(map(self.term, itertools.count(), prefix)))

    def term(self, c: int, p: int) -> int:
        """The term of coordinate c for a head of Horner prefix p there."""
        if (row := self.rows.get(p)) is None:
            row = self.rows[p] = bytes(self.flat[p:p + self.n]).ljust(256, b"\0")
        return int.from_bytes(self.digits[c].translate(row), "big") * self.weights[c]

    def lift(self, total: int) -> bytes:
        return total.to_bytes(len(self.points), "big").ljust(256, b"\0")


def _code_fixpoint(n: int, ops: list[tuple[str, int, list[int]]], seeds: dict[tuple, Term],
                   width: int, guard: float = math.inf) -> tuple[dict[tuple, Term], bool]:
    """``_fixpoint`` for A^width of at most CODE_POINTS points, each member
    held as one byte, the Horner code of its vector, in a bytearray of the
    member codes in order.

    For a head, its lifted table (see ``_Lifts``) maps each member's code to
    the code of the value with that member in the last slot, so
    ``block.translate(lift)`` evaluates a whole last-slot block and
    ``translate(None, codes)`` leaves the values that are not members yet.
    """
    points, weights, _digits = _code_tables(n, width)
    codes = bytearray([sum(map(operator.mul, v, weights)) for v in seeds])
    terms = list(seeds.values())
    kept = [_Lifts(n, width, flat) for _symbol, _k, flat in ops]

    def add(code, term):  # True when the members pass the guard
        codes.append(code)
        terms.append(term)
        return len(codes) > guard

    def result(complete):
        return dict(zip(map(points.__getitem__, codes), terms)), complete

    first, start = True, 0  # start: position of the previous round's first new member
    while True:
        if len(codes) > guard:  # the seeds alone; a round stops at the member that passes it
            return result(False)
        end = len(codes)
        every = bytes(codes)
        fresh = every[start:]
        for (symbol, k, flat), lifts in zip(ops, kept):
            if not k:
                if first and (code := flat[0] * sum(weights)) not in codes \
                        and add(code, ("op", symbol, ())):
                    return result(False)
                continue
            # (i, head, lifted table) per head, i its latest member (-1 for none)
            if k == 1:
                heads = [(-1, (), lifts[0])]
            elif k == 2:
                heads = zip(range(end), zip(range(end)), map(lifts.__getitem__, every))
            else:
                heads = ((max(head), head, lifts.build(map(codes.__getitem__, head)))
                         for head in itertools.product(range(end), repeat=k - 1))
            for i, head, lift in heads:
                block, lo = (fresh, start) if i < start else (every, 0)
                values = block.translate(lift)
                if new := values.translate(None, codes):
                    for code in dict.fromkeys(new):
                        j = values.index(code) + lo
                        if add(code, ("op", symbol, (*map(terms.__getitem__, head), terms[j]))):
                            return result(False)
        if len(codes) == end:
            return result(True)
        first, start = False, end


def _projection_seeds(n: int, Y: Rank) -> dict[tuple, Term]:
    """Each projection's vector over A^Y in canonical order (its table's
    codes), with its term; labels whose vectors coincide (n = 1) keep the
    first.  The projection to position pos repeats each value n^(k-1-pos)
    times, and that pattern n^pos times, for k = |Y|."""
    k = len(Y)
    seeds: dict[tuple, Term] = {}
    for pos, x in enumerate(Y):
        block = n ** (k - 1 - pos)
        pattern = tuple(itertools.chain.from_iterable([(a,) * block for a in range(n)]))
        seeds.setdefault(pattern * n**pos, ("proj", x))
    return seeds


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
    members, complete = _fixpoint(n, ops, _projection_seeds(n, Y), n ** len(Y), guard)
    functions = tuple(ElementaryFunction(FunctionTable(carrier, Y, vector), witness)
                      for vector, witness in members.items())
    return ClosureResult(functions, complete)


RANKLESS_ARITY: Rank = ("*",)


def rankless(alg: Algebra, guard: int = DEFAULT_GUARD) -> set[tuple[int, ...]]:
    """All unary maps (as codes) obtained by equalizing the arguments of
    elementary functions.

    Setting the arity to a single slot already yields every such map, and
    equalizing a one-slot table leaves it as it is, so these are the codes
    of the one-slot closure.
    """
    closure = elementary_closure(alg, RANKLESS_ARITY, guard)
    if not closure.complete:
        raise AlgebraError("closure guard exceeded while computing rank-less functions")
    return {ef.table.codes for ef in closure.functions}


def generated_subuniverse(alg: Algebra, frame) -> frozenset[int]:
    """The carrier indices reachable from the frame's range; all of them iff
    the frame is a generator."""
    seeds = {(u,): ("proj", x) for x, u in zip(frame.X, frame.codes(alg.carrier))}
    members, _complete = _fixpoint(len(alg.carrier), _horner_tables(alg), seeds, 1)
    return frozenset(a for (a,) in members)


@dataclass(frozen=True)
class GeneratorResult:
    """Outcome of the single-generator construction for a frame.

    status is "ok", "not-generator" or "not-independent".  On success
    ``chi[a]`` is the elementary function of the frame's arity for the
    element of carrier index a; ``missing`` holds the indices not generated.
    On independence failure ``witness`` holds two elementary functions with
    the same value at the frame but different tables.
    """

    status: str
    chi: tuple[ElementaryFunction, ...] | None = None
    missing: frozenset[int] | None = None
    witness: tuple[ElementaryFunction, ElementaryFunction] | None = None

    @property
    def exists(self) -> bool:
        return self.status == "ok"


def elementary_generator(alg: Algebra, frame) -> GeneratorResult:
    """Decide whether the frame admits a single elementary-function generator.

    The X-ary elementary functions l are the closure of the projections, and
    their values l(U) at the frame are the subuniverse that U's values
    generate.  So the frame is a generator when that subuniverse is all of A,
    and independent when no two functions agree at U; then chi_a is the one
    function with value a at U.
    """
    n = len(alg.carrier)
    reach = generated_subuniverse(alg, frame)
    if len(reach) < n:
        return GeneratorResult("not-generator", missing=frozenset(range(n)) - reach)

    # Guard n stops the closure at n + 1 members, two of which agree at U
    # (pigeonhole); the first such pair lies among them, so the witness holds.
    U = frame.codes(alg.carrier)
    chi: dict[int, ElementaryFunction] = {}
    for ef in elementary_closure(alg, frame.X, guard=n).functions:
        a = ef.table.at(U)
        if a in chi:
            # the witness tables come from their terms, not from the closure
            return GeneratorResult("not-independent", witness=tuple(
                ElementaryFunction(term_table(alg, f.witness, frame.X), f.witness)
                for f in (chi[a], ef)))
        chi[a] = ef
    # no two members agree at U, so the closure is complete and its values at
    # U are the whole generated subuniverse: chi has every element
    return GeneratorResult("ok", chi=tuple(chi[a] for a in range(n)))
