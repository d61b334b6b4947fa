"""Medial-law checking for operation pairs, elementary functions and conjugates.

Two operations f: A^R -> A and g: A^S -> A commute when
f(g . m) = g(f . c_m) for every m: R -> A^S.  Tabulated pairs are checked
exhaustively over Horner codes in canonical order (first counterexample wins,
so witnesses are reproducible); rule-based pairs fall back to seeded
randomized sampling.  Two kernels give identical results: when f and g
have at most CODE_POINTS codes each (n**r, n**s <= 256), every code fits a
byte and ``_byte_medial_defect`` evaluates both sides at every m at once;
any other shape runs the per-head ``_medial_defect``, also its test oracle.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random
from dataclasses import dataclass

from .core import Algebra, FunctionTable, GuardExceeded, Operation
from .elementary import CODE_POINTS, DEFAULT_GUARD, _code_tables, elementary_closure
from .representation import Representation

PAIR_GUARD = 2_000_000


@dataclass(frozen=True)
class MedialReport:
    pair: tuple[str, str]
    holds: bool
    mode: str
    witness: tuple | None = None  # (m rows ordered by R, lhs, rhs)


def medial_check(f, g, m_rows) -> tuple | None:
    """Evaluate both sides of the medial law at one m (rows ordered by f's rank)."""
    lhs = f(tuple(g(row) for row in m_rows))
    rhs = g(tuple(f(tuple(row[j] for row in m_rows)) for j in range(len(g.rank))))
    if lhs != rhs:
        return (m_rows, lhs, rhs)
    return None


def _medial_defect(F: list[int], G: list[int], n: int, r: int, s: int) -> tuple | None:
    """The first m (r rows of s carrier indices) in canonical order with
    f(g . m) != g(f . c_m), as (m, lhs, rhs), for the Horner codes F of f and G
    of g over n elements.  The last row runs fastest, so the loop runs over
    the other rows, by their Horner codes, and evaluates every last row at once.
    """
    if not r:  # m is empty: f() against g(f(), ..., f())
        rhs = G[F[0] * sum(n**j for j in range(s))]
        return None if F[0] == rhs else ((), F[0], rhs)
    rows = list(itertools.product(range(n), repeat=s))  # a row's entries by its code
    columns = list(zip(*rows))
    for head in itertools.product(range(len(rows)), repeat=r - 1):
        # Horner prefixes over the head rows: of g . m, and of each column of m
        top, prefixes = 0, [0] * s
        for c in head:
            top = top * n + G[c]
            prefixes = [p * n + a for p, a in zip(prefixes, rows[c])]
        lhs = list(map(F[top * n:top * n + n].__getitem__, G))
        codes = [0] * len(rows)  # of g's arguments f . c_m, a column at a time
        for p, column in zip(prefixes, columns):
            values = map(F[p * n:p * n + n].__getitem__, column)
            codes = map(operator.add, map(n.__mul__, codes), values)
        rhs = list(map(G.__getitem__, codes))
        if lhs != rhs:
            last = next(i for i, (x, y) in enumerate(zip(lhs, rhs)) if x != y)
            return tuple(rows[c] for c in (*head, last)), lhs[last], rhs[last]
    return None


@functools.lru_cache(maxsize=16)  # r * n**(r*s) bytes per shape
def _row_columns(n: int, r: int, s: int) -> tuple[bytes, ...]:
    """For each row k of m, the Horner code of row k at every m in canonical
    order, one byte per m (so n**s <= 256)."""
    size = n ** s
    return tuple(b"".join(bytes([c]) * size ** (r - 1 - k) for c in range(size)) * size ** k
                 for k in range(r))


def _byte_medial_defect(F: list[int], G: list[int], n: int, r: int,
                        s: int) -> tuple | None:
    """``_medial_defect`` for n**r, n**s <= CODE_POINTS, over all m at once,
    each side a few ``translate`` passes over byte columns indexed by m.
    Left: g at each row, Horner-combined over the rows, then f.  Right: entry
    j of each row (its digit j), combined over the rows, then f; those
    combined over j, then g.  Columns are combined as big integers, which
    cannot carry, as every partial code is below 256."""
    size = len(G) ** r  # the number of m

    def horner(columns) -> bytes:
        total = 0
        for column in columns:
            total = total * n + int.from_bytes(column, "big")
        return total.to_bytes(size, "big")

    rows = _row_columns(n, r, s)
    f, g = (bytes(t).ljust(256, b"\0") for t in (F, G))
    points, _weights, digits = _code_tables(n, s)
    lhs = horner(row.translate(g) for row in rows).translate(f)
    rhs = horner(horner(row.translate(d.ljust(256, b"\0")) for row in rows).translate(f)
                 for d in digits).translate(g)
    if lhs == rhs:
        return None
    # the first differing m holds the highest differing byte
    x = int.from_bytes(lhs, "big") ^ int.from_bytes(rhs, "big")
    i = size - 1 - (x.bit_length() - 1) // 8
    return tuple(points[row[i]] for row in rows), lhs[i], rhs[i]


def _codes(f) -> list[int]:
    """The Horner codes of an ``Operation`` or ``FunctionTable``, as a list: a
    list's bound __getitem__ maps faster than a tuple's."""
    return list((f if isinstance(f, FunctionTable) else f.table).codes)


def ops_commute(f, g, carrier=None, sampler=None, samples: int = 1000,
                seed: int = 0, guard: int = PAIR_GUARD) -> MedialReport:
    """The medial law for f and g, each an ``Operation`` or a ``FunctionTable``."""
    R, S = f.rank, g.rank
    name = (getattr(f, "symbol", "<table>"), getattr(g, "symbol", "<table>"))
    if carrier is not None:
        total = len(carrier) ** (len(R) * len(S))
        if total > guard:
            raise GuardExceeded(f"medial check for {name} needs {total} cases")
        F, G = _codes(f), _codes(g)
        fits = len(F) <= CODE_POINTS and len(G) <= CODE_POINTS
        bad = (_byte_medial_defect if fits else _medial_defect)(F, G, len(carrier), len(R), len(S))
        if bad is None:
            return MedialReport(name, True, "exhaustive")
        m, lhs, rhs = bad
        names = carrier.elements
        m_rows = tuple(tuple(names[a] for a in row) for row in m)
        return MedialReport(name, False, "exhaustive", (m_rows, names[lhs], names[rhs]))

    rng = random.Random(seed)
    mode = f"sampled:{samples}:seed={seed}"
    # with f or g nullary, m has no entries: every sample is the same point
    for _ in range(samples if R and S else 1):
        m_rows = tuple(tuple(sampler(rng) for _ in S) for _ in R)
        bad = medial_check(f, g, m_rows)
        if bad is not None:
            return MedialReport(name, False, mode, bad)
    return MedialReport(name, True, mode)


def is_commutative(alg: Algebra, samples: int = 1000,
                   seed: int = 0) -> tuple[bool, list[MedialReport]]:
    """Check the medial law for every pair of fundamental operations.

    The law is symmetric in f and g, so each unordered pair (f with itself
    included) is checked once, with f before g in ``alg.ops``.
    """
    reports = []
    ok = True
    kwargs = dict(samples=samples, seed=seed)
    for i, f in enumerate(alg.ops):
        for g in alg.ops[i:]:
            rep = ops_commute(f, g, carrier=alg.carrier, sampler=alg.sampler, **kwargs)
            reports.append(rep)
            ok = ok and rep.holds
    return ok, reports


def check_closure_commutation(alg: Algebra, Y, commutative: bool,
                              guard: int = DEFAULT_GUARD) -> dict:
    """All pairs of Y-ary elementary functions of a commutative algebra commute.

    ``commutative`` is ``is_commutative``'s verdict on ``alg``, which the
    caller has already computed."""
    if not commutative:
        return {"status": "skipped", "reason": "algebra is not commutative"}
    closure = elementary_closure(alg, tuple(Y), guard=guard)
    if not closure.complete:
        return {"status": "guard-exceeded", "closure_size": len(closure.functions)}
    tables = [ef.table for ef in closure.functions]
    failures = []
    for i, f in enumerate(tables):
        for g in tables[i:]:  # the law is symmetric in f and g
            rep = ops_commute(f, g, carrier=alg.carrier)
            if not rep.holds:
                failures.append(rep)
    # base case: fundamental ops against every projection
    projection_failures = []
    proj = [ef.table for ef in closure.functions if ef.witness[0] == "proj"]
    for f in alg.tables:
        for p in proj:
            rep = ops_commute(f, p, carrier=alg.carrier)
            if not rep.holds:
                projection_failures.append(rep)
    ok = not failures and not projection_failures
    return {
        "status": "pass" if ok else "fail",
        "closure_size": len(tables),
        "pair_failures": failures,
        "projection_failures": projection_failures,
    }


def check_conjugate_commutation(rep: Representation, guard: int = PAIR_GUARD) -> dict:
    """The conjugate algebra of a commutative based algebra is commutative;
    a failure is (a, b, report) for the conjugates of carrier indices a, b,
    and reports and guard messages name the conjugate of element a "chi_a"."""
    if not rep.bijective:
        return {"status": "skipped", "reason": "sampling is not bijective"}
    carrier = rep.algebra.carrier
    chi = [Operation(f"chi_{x}", t.rank, t) for x, t in zip(carrier.elements, rep.conjugates)]
    failures = []
    for a, chi_a in enumerate(chi):
        for b, chi_b in enumerate(chi):
            r = ops_commute(chi_a, chi_b, carrier=carrier, guard=guard)
            if not r.holds:
                failures.append((a, b, r))
    return {"status": "pass" if not failures else "fail",
            "pairs": len(rep.conjugates) ** 2,
            "failures": failures}
