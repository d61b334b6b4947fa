"""Finite carriers, set-ary operations and the algebra container.

Operations are indexed by a rank: an ordered tuple of distinct labels.  An
argument tuple is always ordered by the rank labels.  Every tabulated
function, whether an operation's body, a closure member or a conjugate, is a
``FunctionTable`` of Horner codes over carrier indices, and a unary map is the
tuple of its images' indices.  End(A) is a set of such tuples, seen from
outside as a set of ``UnaryMap``, which pairs a tuple with its carrier and
reports its images by name; one is made only when a reader iterates.  Element
names appear only when a document is read or written and when a value is
looked up by name.  Rule-based bodies exist only for the gallery's infinite
carriers; they refuse exhaustive enumeration.
"""

from __future__ import annotations

import itertools
import json
from collections.abc import Set
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


class AlgebraError(Exception):
    """Raised for malformed algebra documents or misuse of an algebra."""


class GuardExceeded(AlgebraError):
    """Raised when an enumeration would exceed a configured size guard."""


Rank = tuple[str, ...]


def make_rank(labels) -> Rank:
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise AlgebraError(f"duplicate rank labels: {labels}")
    return labels


@dataclass(frozen=True)
class Carrier:
    """An ordered, non-empty set of distinct element names.

    The order is canonical for the whole process: every tabulation and every
    brute-force enumeration keys on it, so runs are reproducible.
    """

    elements: tuple[str, ...]
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.elements:
            raise AlgebraError("empty carrier")
        if len(set(self.elements)) != len(self.elements):
            raise AlgebraError("duplicate element names")
        object.__setattr__(self, "index", {e: i for i, e in enumerate(self.elements)})

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, e) -> bool:
        return e in self.index

    def assignments(self, rank: Rank) -> Iterator[tuple[str, ...]]:
        """All argument tuples over the rank, in canonical order."""
        return itertools.product(self.elements, repeat=len(rank))


@dataclass(frozen=True)
class Operation:
    """A total set-ary operation, tabulated or rule-based.

    A tabulated body is the operation's ``FunctionTable``; ``fn`` supplies a
    rule-based body for gallery algebras on infinite carriers.
    """

    symbol: str
    rank: Rank
    table: FunctionTable | None = None
    fn: Callable | None = field(default=None, compare=False)

    def __post_init__(self):
        if (self.table is None) == (self.fn is None):
            raise AlgebraError(f"operation {self.symbol}: need exactly one of table or fn")
        if self.table is not None and self.table.rank != self.rank:
            raise AlgebraError(f"operation {self.symbol}: table rank {self.table.rank}")

    @property
    def is_tabulated(self) -> bool:
        return self.table is not None

    def __call__(self, args: tuple) -> Any:
        if len(args) != len(self.rank):
            raise AlgebraError(
                f"operation {self.symbol}: expected {len(self.rank)} arguments, got {len(args)}"
            )
        if self.table is not None:
            return self.table(args)
        return self.fn(*args)


@dataclass(frozen=True)
class UnaryMap:
    """A total map A -> A: ``codes[i]`` is the carrier index of the image of
    the i-th element, as in ``FunctionTable.codes``."""

    carrier: Carrier = field(compare=False)
    codes: tuple[int, ...]

    @property
    def values(self) -> tuple[str, ...]:
        """The images as element names, in carrier order."""
        return tuple(map(self.carrier.elements.__getitem__, self.codes))


class Endomorphisms(Set):
    """End(A): ``codes`` is a frozenset of maps as carrier-index tuples.  Seen
    from outside it is a set of ``UnaryMap``, equal to a set or frozenset of
    the same maps; a map is made only when a reader iterates."""

    __slots__ = ("carrier", "codes")
    __hash__ = Set._hash

    def __init__(self, carrier: Carrier, codes: frozenset):
        self.carrier, self.codes = carrier, codes

    def __len__(self) -> int:
        return len(self.codes)

    def __contains__(self, h) -> bool:
        return isinstance(h, UnaryMap) and h.codes in self.codes

    def __iter__(self) -> Iterator[UnaryMap]:
        return (UnaryMap(self.carrier, codes) for codes in self.codes)

    def _from_iterable(self, maps) -> "Endomorphisms":
        return Endomorphisms(self.carrier, frozenset(h.codes for h in maps))


@dataclass(frozen=True)
class FunctionTable:
    """A total function A^rank -> A: ``codes[c]`` is the carrier index of its
    value at the arguments whose indices have Horner code c (the layout of
    UACalc's operation tables), so the codes follow ``assignments`` order."""

    carrier: Carrier = field(compare=False, repr=False)
    rank: Rank
    codes: tuple[int, ...]

    @classmethod
    def from_rows(cls, carrier: Carrier, rank: Rank, rows) -> "FunctionTable":
        """The table of (args, value) pairs of element names. Repeated args, a
        row count other than n**len(rank), a row of the wrong arity and a name
        outside the carrier raise AlgebraError, in that order; the counts are
        compared first, so the codes are never longer than the rows given."""
        rows = list(rows)
        if len({args for args, _value in rows}) != len(rows):
            raise AlgebraError("duplicate table rows")
        expected = len(carrier) ** len(rank)
        if len(rows) != expected:
            raise AlgebraError(f"partial table ({len(rows)} of {expected} rows)")
        index = carrier.index
        codes = [0] * expected
        for args, value in rows:
            if len(args) != len(rank):
                raise AlgebraError(f"bad row arity {args}")
            code = 0
            for a in args:
                if a not in index:
                    raise AlgebraError(f"argument outside carrier: {a}")
                code = code * len(carrier) + index[a]
            if value not in index:
                raise AlgebraError(f"value outside carrier: {value}")
            codes[code] = index[value]
        return cls(carrier, rank, tuple(codes))

    def __call__(self, args: tuple) -> str:
        if len(args) != len(self.rank):
            raise AlgebraError(f"expected {len(self.rank)} arguments, got {len(args)}")
        index = self.carrier.index
        if not all(a in index for a in args):
            raise AlgebraError(f"argument outside carrier: {args}")
        return self.carrier.elements[self.at([index[a] for a in args])]

    def at(self, indices) -> int:
        """The value's index at argument indices (in rank order)."""
        code = 0
        for i in indices:
            code = code * len(self.carrier) + i
        return self.codes[code]

    def key(self) -> tuple:
        return (self.rank, self.codes)  # what equality and hashing compare

    def equalize(self) -> tuple[int, ...]:
        """Feed every argument slot the same element (compose with k): the
        codes of the unary map that results."""
        if not self.rank:
            raise AlgebraError("cannot equalize a nullary table")
        n, k = len(self.carrier), len(self.rank)
        step = (n**k - 1) // (n - 1) if n > 1 else 1  # the code of (1, ..., 1)
        return self.codes[::step]  # the codes of (a, ..., a), a * step for each a


def tabulate(carrier: Carrier, rank: Rank, fn) -> FunctionTable:
    idx = carrier.index
    return FunctionTable(carrier, rank, tuple(idx[fn(args)] for args in carrier.assignments(rank)))


@dataclass(frozen=True)
class Algebra:
    """A carrier plus a non-empty indexed family of operations.

    ``carrier`` is None for rule-based algebras on infinite carriers; those
    additionally carry a ``sampler`` (rng -> element) so law checks can fall
    back to seeded randomized sampling.
    """

    name: str
    carrier: Carrier | None
    ops: tuple[Operation, ...]
    sampler: Callable | None = field(default=None, compare=False)

    def __post_init__(self):
        if not self.ops:
            raise AlgebraError("empty operation list")
        symbols = [f.symbol for f in self.ops]
        if len(set(symbols)) != len(symbols):
            raise AlgebraError(f"duplicate operation symbols: {symbols}")
        if self.carrier is None and self.sampler is None:
            raise AlgebraError("rule-based algebra needs a sampler")
        for f in self.ops if self.carrier is not None else ():
            if not f.is_tabulated:
                raise AlgebraError(f"operation {f.symbol}: rule-based body in tabulated algebra")
            if f.table.carrier != self.carrier:
                raise AlgebraError(f"operation {f.symbol}: table over another carrier")

    @property
    def tables(self) -> tuple[FunctionTable, ...]:
        """Each operation's table, in ``ops`` order."""
        if not self.is_tabulated:
            raise AlgebraError(f"{self.name} is rule-based and has no operation tables")
        return tuple(f.table for f in self.ops)

    @property
    def is_tabulated(self) -> bool:
        return self.carrier is not None

    def op(self, symbol: str) -> Operation:
        for f in self.ops:
            if f.symbol == symbol:
                return f
        raise AlgebraError(f"no operation named {symbol}")


_JSON_KINDS = {dict: "an object", list: "an array", str: "a string"}


def expect_json(value, kind: type, what: str):
    """``value`` when it is a JSON object, array or string (``kind`` dict, list
    or str); anything else raises AlgebraError naming ``what``."""
    if not isinstance(value, kind):
        raise AlgebraError(f"{what} must be {_JSON_KINDS[kind]}: {value!r}")
    return value


def expect_strings(value, what: str) -> list[str]:
    """``value`` when it is a JSON array of strings, else AlgebraError."""
    expect_json(value, list, what)
    if not all(isinstance(v, str) for v in value):
        raise AlgebraError(f"{what} must be strings: {value!r}")
    return value


def algebra_from_dict(doc) -> Algebra:
    expect_json(doc, dict, "an algebra document")
    try:
        carrier = Carrier(tuple(expect_strings(doc["elements"], "element names")))
        ops = []
        for od in expect_json(doc["operations"], list, "operations"):
            expect_json(od, dict, "an operation")
            symbol = expect_json(od["symbol"], str, "an operation symbol")
            rank = make_rank(expect_strings(od["rank"], f"operation {symbol}: rank labels"))
            rows = expect_json(od["table"], list, f"operation {symbol}: table")
            row_what, args_what, value_what = (
                f"operation {symbol}: {noun}" for noun in ("a table row", "args", "a value"))
            rows = [(tuple(expect_strings(expect_json(row, dict, row_what)["args"], args_what)),
                     expect_json(row["value"], str, value_what)) for row in rows]
            try:
                table = FunctionTable.from_rows(carrier, rank, rows)
            except AlgebraError as exc:
                raise AlgebraError(f"operation {symbol}: {exc}") from None
            ops.append(Operation(symbol, rank, table=table))
    except KeyError as exc:
        raise AlgebraError(f"missing field {exc}") from None
    return Algebra(doc.get("name", "algebra"), carrier, tuple(ops))


def algebra_to_dict(alg: Algebra) -> dict:
    if not alg.is_tabulated:
        raise AlgebraError("cannot serialize a rule-based algebra")
    return {
        "name": alg.name,
        "elements": list(alg.carrier.elements),
        "operations": [
            {
                "symbol": f.symbol,
                "rank": list(f.rank),
                "table": [
                    {"args": list(args), "value": alg.carrier.elements[v]}
                    for args, v in zip(alg.carrier.assignments(f.rank), f.table.codes)
                ],
            }
            for f in alg.ops
        ],
    }


def read_json(path):
    """Parse a JSON file; a file that cannot be read, or is not JSON, raises
    AlgebraError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise AlgebraError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:  # a JSONDecodeError, or bytes that are not UTF-8
        raise AlgebraError(f"{path} is not a JSON document: {exc}") from None


def load_algebra(path) -> Algebra:
    return algebra_from_dict(read_json(path))


def save_algebra(alg: Algebra, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(algebra_to_dict(alg), fh, indent=2, sort_keys=True)
        fh.write("\n")
