"""Endomorphism enumeration and analytic representations over a frame.

A frame U: X -> A samples every endomorphism h to the matrix h . U in A^X.
When the sampling is a bijection, the endomorphisms sorted by their matrices
are the extension, and their columns are the conjugate functions.  Frames
(``Frame.codes``), matrices and conjugates are in carrier indices; names
return in report fields.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

from .core import (Algebra, AlgebraError, Carrier, Endomorphisms, FunctionTable, GuardExceeded,
                   Rank, expect_json, expect_strings, make_rank, read_json)
from .elementary import CODE_POINTS, elementary_generator

BRUTE_CAP = 100_000

Matrix = tuple  # one carrier index per frame label, in frame order


@dataclass(frozen=True)
class Frame:
    X: Rank
    U: dict[str, str] = field(compare=False)

    def __post_init__(self):
        if set(self.U) != set(self.X):
            raise AlgebraError("frame assignment does not match its index set")

    def codes(self, carrier: Carrier) -> Matrix:
        """U's values as carrier indices, in X order; a value outside the
        carrier raises AlgebraError."""
        for x in self.X:
            if self.U[x] not in carrier:
                raise AlgebraError(f"frame value outside carrier: {self.U[x]}")
        return tuple(carrier.index[self.U[x]] for x in self.X)


def load_frame(path) -> Frame:
    doc = expect_json(read_json(path), dict, "a frame document")
    try:
        X = make_rank(expect_strings(doc["X"], "frame labels"))
        U = {}
        for row in expect_json(doc["U"], list, "U"):
            expect_json(row, dict, "a U row")
            label = expect_json(row["index"], str, "a frame label")
            if label in U:
                raise AlgebraError(f"duplicate U rows for frame label {label!r}")
            U[label] = row["value"]
    except KeyError as exc:
        raise AlgebraError(f"missing field {exc}") from None
    if not all(isinstance(v, str) for v in U.values()):
        raise AlgebraError(f"frame values must be strings: {list(U.values())}")
    return Frame(X, U)


def _indexed_rows(alg: Algebra):
    """Each operation as a dict from argument indices to the result's index
    (the brute-force oracle's own layout)."""
    n = len(alg.carrier)
    return [dict(zip(itertools.product(range(n), repeat=len(t.rank)), t.codes))
            for t in alg.tables]


def _is_endo(values: tuple[int, ...], tables) -> bool:
    for table in tables:
        for args, res in table.items():
            if table[tuple(values[a] for a in args)] != values[res]:
                return False
    return True


def _enumerate_brute(alg: Algebra, cap: int) -> set[tuple[int, ...]]:
    n = len(alg.carrier)
    if n**n > cap:
        raise GuardExceeded(f"brute-force space {n}^{n} exceeds cap {cap}")
    tables = _indexed_rows(alg)
    out = set()
    for values in itertools.product(range(n), repeat=n):
        if _is_endo(values, tables):
            out.add(values)
    return out


def _swaps_to_itself(codes: tuple, n: int, k: int, p: int) -> bool:
    """Whether a table of arity k keeps its codes when arguments p and p + 1
    swap.  Fixing the other arguments, each value a of argument p gives two
    slices of n codes: a's row (a, b) and a's column (b, a) over every b.
    All rows but the last are compared, as the last row's codes were seen in
    the other columns."""
    m = n ** (k - p - 2)  # codes per value of argument p + 1
    width = n * m  # codes per value of argument p
    if codes[m:m + 1] != codes[width:width + 1]:  # most tables differ at (.., 0, 1, ..)
        return False
    for pre in range(0, n**k, n * width):
        for base in range(pre, pre + m):
            for a in range(n - 1):
                if (codes[base + a * width:base + (a + 1) * width:m]
                        != codes[base + a * m:base + n * width:width]):
                    return False
    return True


def _derive_plan(alg: Algebra, tables: list) -> tuple[tuple, list[tuple]]:
    """The endomorphism search of ``alg`` as the seed's steps and one level per
    branched element, shared by both search kernels; ``tables`` holds each
    operation's table in the form the kernel evaluates.

    Which elements propagation assigns depends only on which were branched
    on, not on their values: it is the subuniverse they generate with the
    constants.  So with a fixed branching order (the lowest unassigned
    element), every branch at a depth evaluates the same rows, and those rows
    are derived here once: forward checking under a static variable order
    (Haralick & Elliott 1980).  A step is (table, args, res, set): h[res] is
    set to, or checked against, the table at h . args.  A level is (element,
    steps), and its steps open with the unit rows: checks of the rows that
    mention the element and otherwise only elements assigned before, result
    included.

    Two kinds of rows are left out, as constraints implied by the others
    (Gent, Petrie & Puget 2006), read off each table's codes.  Where a table
    is symmetric in adjacent arguments, a row whose arguments decrease
    within a run of such positions states the same equation as the row with
    them sorted: f(.., b, a, ..) = f(.., a, b, ..) and f(.., h(b), h(a), ..)
    = f(.., h(a), h(b), ..), and the two rows share their argument set and
    result, so they become ready together.  Where a table of positive arity
    is idempotent, the diagonal row f(a, .., a) = a reads h(a) =
    f(h(a), .., h(a)), which holds for every h.  Neither kind of row can
    reject a map or assign an element that the kept rows do not, so both
    kernels find the same endomorphisms.
    """
    n = len(alg.carrier)
    identity = tuple(range(n))
    # every kept row as (table, args, res)
    pending = []
    for table, t in zip(tables, alg.tables):
        k, codes = len(t.rank), t.codes
        rows = [(table, args, res)
                for args, res in zip(itertools.product(range(n), repeat=k), codes)]
        if k:
            sorted_at = [p for p in range(k - 1) if _swaps_to_itself(codes, n, k, p)]
            idempotent = codes[0] == 0 and t.equalize() == identity  # most fail at f(0, .., 0)
            if sorted_at or idempotent:
                rows = [row for row in rows if all(row[1][p] <= row[1][p + 1] for p in sorted_at)
                        and not (idempotent and row[1].count(row[1][0]) == k)]
        pending += rows
    assigned: set[int] = set()
    covered = assigned.issuperset  # whether a row's arguments are all assigned

    def split() -> tuple[list, list]:
        # the pending rows that mention only assigned elements, as those whose
        # result is assigned too and the rest, in one pass
        nonlocal pending
        units, ready, waiting = [], [], []
        for row in pending:
            if covered(row[1]):
                (units if row[2] in assigned else ready).append(row)
            else:
                waiting.append(row)
        pending = waiting
        return units, ready

    def derive(ready: list) -> tuple:
        # the ready rows and the rows they make ready in turn, in derivation order
        nonlocal pending
        steps = []
        while ready:
            before = len(assigned)
            for table, args, res in ready:
                steps.append((table, args, res, res not in assigned))
                assigned.add(res)
            if len(assigned) == before:  # no new element, so no row becomes ready
                break
            ready, waiting = [], []
            for row in pending:
                (ready if covered(row[1]) else waiting).append(row)
            pending = waiting
        return tuple(steps)

    seed = derive(split()[1])  # nothing is assigned: the nullary rows are ready
    levels = []
    e = 0
    while len(assigned) < n:
        while e in assigned:  # branch on the lowest unassigned element
            e += 1
        assigned.add(e)
        # the unit rows mention e and otherwise only elements assigned before
        units, ready = split()
        levels.append((e, tuple((table, args, res, False) for table, args, res in units)
                       + derive(ready)))
    return seed, levels


def _enumerate_backtrack(alg: Algebra) -> set[tuple[int, ...]]:
    """Depth-first search over the derived plan: at each depth, try every value
    of h(element) and run the level's steps, its unit-row checks first."""
    n = len(alg.carrier)
    seed, levels = _derive_plan(alg, [t.codes for t in alg.tables])
    out: set[tuple[int, ...]] = set()
    # the positions written at a depth are the same on every branch, so one
    # list serves the whole search: nothing is copied or undone
    h = [0] * n

    def run(steps, h=h, n=n) -> bool:
        """Run plan steps on h; False when a check fails.  The defaults bind
        h and n as locals: this is the search's inner loop."""
        for codes, args, res, is_set in steps:
            code = 0
            for a in args:
                code = code * n + h[a]
            if is_set:
                h[res] = codes[code]
            elif h[res] != codes[code]:
                return False
        return True

    def search(depth: int):
        if depth == len(levels):
            out.add(tuple(h))
            return
        e, steps = levels[depth]
        for v in range(n):
            h[e] = v
            if run(steps):
                search(depth + 1)

    run(seed)  # h becomes the identity on the constants' subuniverse: no check fails
    search(0)
    return out


BLOCK_ROWS = 1 << 16  # the most partial maps the byte kernel expands at once
_DROP = b"\0" + b"\xff" * (CODE_POINTS - 1)  # a zero defect byte keeps its map, any other drops it


def _column_search(alg: Algebra) -> list[bytes]:
    """Breadth-first search over the derived plan, for n < CODE_POINTS and
    tables of at most CODE_POINTS codes: the endomorphisms as one column per
    element, holding h(element) for every h, one byte each.

    The columns hold the partial maps alive at a level.  The level repeats
    them once per value of the branched element and adds the element's
    column, value-major.  Each table row the level makes ready is evaluated
    on all partial maps at once: its argument columns are Horner-combined as
    big integers, which cannot carry, as every partial code is below
    CODE_POINTS, and one ``translate`` through the table gives the values.
    A check ORs the XOR of those values and the result's column into a
    defect, whose zero bytes mark the maps kept in every column.  At most
    BLOCK_ROWS partial maps are expanded at once.
    """
    n = len(alg.carrier)
    seed, levels = _derive_plan(alg, [bytes(t.codes).ljust(CODE_POINTS, b"\0")
                                      for t in alg.tables])

    def evaluate(block: list, size: int, rows) -> tuple[list, int]:
        """Run the plan ``rows`` on the ``size`` partial maps of ``block``, its
        columns read as big integers (None where unassigned); return the
        columns of the maps that pass every check, and their number."""
        defect = 0
        for table, args, res, is_set in rows:
            total = 0
            for a in args:
                total = total * n + block[a]
            values = int.from_bytes(total.to_bytes(size, "big").translate(table), "big")
            if is_set:
                block[res] = values
            else:
                defect |= values ^ block[res]
        if not defect:
            return [c if c is None else c.to_bytes(size, "big") for c in block], size
        marks = defect.to_bytes(size, "big")
        # a failed map reads 255, which no element is, in every column: delete it
        drop = int.from_bytes(marks.translate(_DROP), "big")
        columns = [c if c is None else (c | drop).to_bytes(size, "big").translate(None, b"\xff")
                   for c in block]
        return columns, marks.count(0)

    columns, size = evaluate([None] * n, 1, seed)  # no check of the seed fails
    width = max(1, BLOCK_ROWS // n)  # partial maps per block, before expanding
    for e, rows in levels:
        parts = []
        for lo in range(0, size, width):
            count = min(width, size - lo)
            block = [c if c is None else int.from_bytes(c[lo:lo + width] * n, "big")
                     for c in columns]
            block[e] = int.from_bytes(b"".join(bytes([v]) * count for v in range(n)), "big")
            parts.append(evaluate(block, count * n, rows))
        if len(parts) == 1:
            columns, size = parts[0]
        else:
            size = sum(count for _, count in parts)
            columns = [c if c is None else b"".join(part[a] for part, _ in parts)
                       for a, c in enumerate(parts[0][0])]
        if not size:
            return [b""] * n
    return columns


def _enumerate_columns(alg: Algebra) -> frozenset[tuple[int, ...]]:
    return frozenset(zip(*_column_search(alg)))


def _search_kernel(alg: Algebra):
    """The search for ``alg``'s shape: the byte kernel when the carrier has
    fewer than CODE_POINTS elements and every table at most CODE_POINTS codes,
    so that each value and each Horner code fits a byte and 255 is free to
    mark failed maps; else the depth-first kernel, which is also the byte
    kernel's test oracle."""
    fits = len(alg.carrier) < CODE_POINTS and all(len(t.codes) <= CODE_POINTS
                                                  for t in alg.tables)
    return _enumerate_columns if fits else _enumerate_backtrack


def enumerate_endomorphisms(alg: Algebra, method: str = "backtrack",
                            cap: int = BRUTE_CAP) -> Endomorphisms:
    """End(A): "brute" tries every map A -> A (at most ``cap``), "backtrack"
    runs the derived plan in the kernel that the shape picks."""
    if not alg.is_tabulated:
        raise AlgebraError("endomorphism enumeration needs a tabulated algebra; "
                           "gallery algebras supply symbolic families instead")
    if method == "brute":
        codes = _enumerate_brute(alg, cap)
    elif method == "backtrack":
        codes = _search_kernel(alg)(alg)
    else:
        raise AlgebraError(f"unknown method {method!r}")
    return Endomorphisms(alg.carrier, frozenset(codes))


@dataclass(frozen=True)
class Representation:
    algebra: Algebra
    frame: Frame
    endos: Endomorphisms
    bijective: bool = False
    failure: dict | None = field(default=None, compare=False)
    # conjugates[a] is chi_a, the conjugate function of the element of index a
    conjugates: tuple[FunctionTable, ...] | None = field(default=None, compare=False)


def build_representation(alg: Algebra, frame: Frame, endos: Endomorphisms | None = None,
                         method: str = "backtrack") -> Representation:
    """Sample every endomorphism h at U, h . U, and invert the sampling when
    it is a bijection End(A) -> A^X.

    One sort by (h . U, h's codes) decides it all: the sampling is injective
    when no two neighbours share a sample, and then surjective when there
    are n^k of them.  The sorted samples are then the matrices in canonical
    (Horner) order, so the conjugates chi_a(M) = h_M(a) are the columns of
    the sorted maps.
    """
    carrier = alg.carrier
    n, k = len(carrier), len(frame.X)
    U = frame.codes(carrier)
    if endos is None:
        endos = enumerate_endomorphisms(alg, method=method)
    if not k and n > 1:
        # every endomorphism samples to the empty matrix, so only a one-point
        # algebra (where the identity is the sole endomorphism) can work
        return Representation(alg, frame, endos,
                              failure={"reason": "empty frame on a non-trivial "
                                                 "algebra: only the identity "
                                                 "can be recovered",
                                       "matrix": ()})

    rows = sorted((tuple(map(h.__getitem__, U)), h) for h in endos.codes)
    # the least second map of two neighbours that share a sample is the
    # collision that a scan in code order meets first
    collisions = [(second, (m, first))
                  for (m, first), (sample, second) in zip(rows, rows[1:]) if m == sample]
    if collisions:
        second, (m, first) = min(collisions)
        return Representation(alg, frame, endos, failure={"reason": "not-injective",
                                                          "matrix": m,
                                                          "endos": (first, second)})
    if len(rows) != n**k:
        # the first matrix in canonical order that no sample equals
        missing = next(m for m, (sample, _h) in itertools.zip_longest(
            itertools.product(range(n), repeat=k), rows, fillvalue=(None, None)) if m != sample)
        return Representation(alg, frame, endos,
                              failure={"reason": "not-surjective", "matrix": missing})

    # chi_a(M) = h_M(a): column a of the maps in canonical order of M
    conjugates = tuple(FunctionTable(carrier, frame.X, codes)
                       for codes in zip(*(h for _m, h in rows)))
    return Representation(alg, frame, endos, bijective=True, conjugates=conjugates)


def endomorphism_generators(members: set[tuple[int, ...]], carrier: Carrier) -> list[tuple]:
    """A generating set G of the monoid ``members`` (maps as index tuples),
    chosen greedily: in order of falling image size, then by codes, a member
    joins G when the monoid that G generates so far does not hold it.

    That monoid grows semi-naively from the identity by right multiplication
    (f . g, g applied first, which reaches the same monoid as the left): the
    maps reached before meet a new generator, and each newly reached map
    meets every generator.  Each reached map must be a member, and each
    member is reached (it is a generator if nothing reached it first), so the
    monoid ends equal to ``members``: that is the proof that G generates it.
    A reached map outside ``members`` means they are not closed under
    composition, and raises AlgebraError.
    """
    reached = {tuple(range(len(carrier)))}
    generators: list[tuple] = []
    # itemgetter(*g)(f) is f . g = (f[g[0]], f[g[1]], ...), composed in C.  On
    # one element the identity is the only map, so no getter is ever made
    # (itemgetter of one index would return a scalar)
    getters = []
    for h in sorted(members, key=lambda h: (-len(set(h)), h)):
        if h in reached:
            continue
        generators.append(h)
        getters.append(operator.itemgetter(*h))
        frontier, apply = reached, getters[-1:]
        while frontier:
            new = set()
            for pick in apply:
                new.update(map(pick, frontier))
            new -= reached
            if stray := new - members:
                raise AlgebraError("endomorphisms not closed under composition: the composite "
                                   f"{[carrier.elements[v] for v in min(stray)]} is not one")
            reached |= new
            frontier, apply = new, getters
    return generators


def commutation_checker(rep: Representation):
    """The defect test of h in E_chi, for a bijective representation.

    Returns ``defect(values)``: for the map h given as carrier indices, the
    first matrix M in canonical order with h . chi_.(M) != chi_.(h . M), or
    None.  chi_.(M) is the vector (chi_a(M))_a, so this checks every pair
    h(chi_a(M)) = chi_a(h . M), over all matrices in one pass.
    """
    n = len(rep.algebra.carrier)
    k = len(rep.frame.X)
    # chi_.(M) for every M in canonical order, which is Horner-code order.
    # Each vector is a string of code points, so that str.translate applies h
    # and str.join gathers vectors element by element in C.
    vectors = ["".join(map(chr, column)) for column in
               zip(*(chi.codes for chi in rep.conjugates))]
    chi = "".join(vectors)
    # the vectors in rows of n, one row per code of M's first k - 1 entries
    rows = [vectors[i:i + n] for i in range(0, len(vectors), n)]

    def defect(values: tuple[int, ...]) -> Matrix | None:
        after = chi.translate(values)
        if k:
            heads = [0]  # the Horner codes of h . M's first k - 1 entries, in M's order
            for _ in range(k - 1):
                heads = [c * n + v for c in heads for v in values]
            # M's last entry runs fastest: h . M over a row is the row picked at h
            pick = operator.itemgetter(*values) if n > 1 else tuple  # n = 1: one value, 0
            before = "".join(itertools.chain.from_iterable(map(pick, map(rows.__getitem__, heads))))
        else:
            before = chi  # the one matrix is empty, and so is h of it
        if after == before:
            return None
        i = next(i for i, (a, b) in enumerate(zip(after, before)) if a != b)
        return next(itertools.islice(itertools.product(range(n), repeat=k), i // n, None))

    return defect


def verify_basis_equivalence(alg: Algebra, frame: Frame, rep: Representation | None = None,
                             seed: int = 0) -> dict:
    """Check the biconditional: a single elementary generator exists iff the
    sampling is bijective; when both hold, check the two endomorphism sets
    coincide via the conjugate-commutation identity.

    ``seed`` has no effect: every check here is exact."""
    if rep is None:
        rep = build_representation(alg, frame)
    gen = elementary_generator(alg, frame)
    report = {
        "generator": gen.status != "not-generator",
        "chi_exists": gen.exists,
        "bijective": rep.bijective,
        "biconditional_ok": gen.exists == rep.bijective,
    }
    carrier = alg.carrier
    if gen.status == "not-generator":
        report["missing_elements"] = sorted(carrier.elements[a] for a in gen.missing)
    if not (gen.exists and rep.bijective):
        if rep.failure:
            report["failure"] = rep.failure["reason"]
        return report

    # the two routes must produce the same conjugate tables
    report["chi_routes_agree"] = all(
        chi.table == conjugate for chi, conjugate in zip(gen.chi, rep.conjugates))

    defect = commutation_checker(rep)
    members = rep.endos.codes
    # E_chi holds the identity and is closed under composition, since
    # (h1 h2) . M = h1 . (h2 . M): it holds E_alpha iff it holds E_alpha's generators
    report["commutation_members_ok"] = all(
        defect(h) is None for h in endomorphism_generators(members, carrier))

    # E_chi within E_alpha: when every chi_a(U) = a, the defect test of h at U
    # reads h(a) = chi_a(h . U), so h is the column chi_.(h . U) of the
    # conjugates, and it is a member when every column is.  This test is
    # sufficient, and the conjugates of a representation always pass it.
    U = rep.frame.codes(carrier)
    rejected_ok = all(chi.at(U) == a for a, chi in enumerate(rep.conjugates)) \
        and members.issuperset(zip(*(chi.codes for chi in rep.conjugates)))
    report["nonmember_check"] = "exact"
    report["nonmembers_rejected"] = rejected_ok
    report["e_chi_equals_e_alpha"] = report["commutation_members_ok"] and rejected_ok
    return report
