"""Endomorphism enumeration and analytic representations over a frame.

A frame U: X -> A samples every endomorphism h to the matrix h . U in A^X.
When the sampling is a bijection both ways we invert it into the extension
and tabulate the conjugate function of every element.  Frames (``Frame.codes``),
matrices and conjugates are in carrier indices; names return in report fields.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass, field
from typing import NamedTuple

from .core import (Algebra, AlgebraError, Carrier, FunctionTable, GuardExceeded, Rank,
                   UnaryMap, expect_json, expect_strings, make_rank, read_json)
from .elementary import elementary_generator

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


def _enumerate_brute(alg: Algebra, cap: int) -> set[UnaryMap]:
    carrier = alg.carrier
    n = len(carrier)
    if n**n > cap:
        raise GuardExceeded(f"brute-force space {n}^{n} exceeds cap {cap}")
    tables = _indexed_rows(alg)
    out = set()
    for values in itertools.product(range(n), repeat=n):
        if _is_endo(values, tables):
            out.add(UnaryMap(carrier, values))
    return out


def _unit_masks(codes, n: int, rank: int, positions: tuple[int, ...],
                result_is_e: bool) -> list[int]:
    """For a row in which e fills ``positions`` among the arguments, and the
    result too when ``result_is_e``: the bitmask of the values of h(e) that
    satisfy it, indexed by the Horner code of the other arguments' values,
    followed by the result's value when the result is not e."""
    # the Horner code of the arguments is base + v * step, where base holds
    # the other arguments' values and step the place values of e's positions
    step = sum(n ** (rank - 1 - i) for i in positions)
    places = [n ** (rank - 1 - i) for i in range(rank) if i not in positions]
    masks = [0] * n ** (len(places) + (not result_is_e))
    for key, rest in enumerate(itertools.product(range(n), repeat=len(places))):
        base = sum(map(operator.mul, rest, places))
        for v in range(n):
            value = codes[base + v * step]
            if not result_is_e:
                masks[key * n + value] |= 1 << v
            elif value == v:
                masks[key] |= 1 << v
    return masks


class _Level(NamedTuple):
    """One depth of the search plan: branch on h(element), then run ``steps``."""

    element: int
    mask: int  # the values of h(element) allowed by rows that mention no other element
    units: tuple  # (other elements, the allowed values per Horner code of theirs)
    steps: tuple  # (args, res, codes, set): h[res] is set to, or checked against, codes[h . args]
    unit_rows: tuple  # (table index, args) of every row folded into mask and units


def _compile_plan(alg: Algebra) -> tuple[tuple, tuple[_Level, ...]]:
    """The endomorphism search of ``alg`` as the seed's steps and one level per
    branched element.

    Which elements propagation assigns depends only on which were branched
    on, not on their values: it is the subuniverse they generate with the
    constants.  So with a fixed branching order (the lowest unassigned
    element), every branch at a depth evaluates the same rows, and those rows
    are compiled here once: forward checking under a static variable order
    (Haralick & Elliott 1980).
    """
    n = len(alg.carrier)
    tables = alg.tables
    # every row as (table index, args, res, the set of its arguments)
    pending = [(t, args, res, frozenset(args)) for t, table in enumerate(tables)
               for args, res in zip(itertools.product(range(n), repeat=len(table.rank)),
                                    table.codes)]
    assigned: set[int] = set()

    def derive() -> tuple:
        # the rows whose arguments become assigned, in derivation order
        nonlocal pending
        steps = []
        while ready := [row for row in pending if row[3] <= assigned]:
            pending = [row for row in pending if not row[3] <= assigned]
            for t, args, res, _ in ready:
                steps.append((args, res, tables[t].codes, res not in assigned))
                assigned.add(res)
        return tuple(steps)

    seed = derive()
    cache: dict[tuple, list[int]] = {}  # (table, positions of e, result is e) -> masks
    levels = []
    while len(assigned) < n:
        e = min(set(range(n)) - assigned)
        assigned.add(e)
        # the rows that mention e and otherwise only elements assigned before
        unit_rows = [row for row in pending if row[3] <= assigned and row[2] in assigned]
        pending = [row for row in pending if not (row[3] <= assigned and row[2] in assigned)]
        grouped: dict[tuple, list[int]] = {}  # other elements -> their rows' masks, ANDed
        for t, args, res, _ in unit_rows:
            key = (t, tuple(i for i, a in enumerate(args) if a == e), res == e)
            if key not in cache:
                cache[key] = _unit_masks(tables[t].codes, n, len(args), *key[1:])
            others = tuple(a for a in args if a != e) + ((res,) if res != e else ())
            prior = grouped.get(others, cache[key])
            grouped[others] = [a & b for a, b in zip(prior, cache[key])]
        mask = grouped.pop((), [(1 << n) - 1])[0]
        levels.append(_Level(e, mask, tuple(grouped.items()), derive(),
                             tuple((t, args) for t, args, *_ in unit_rows)))
    return seed, tuple(levels)


def _run(steps, h: list, n: int) -> bool:
    """Run plan steps on h; False when a check fails."""
    for args, res, codes, is_set in steps:
        code = 0
        for a in args:
            code = code * n + h[a]
        if is_set:
            h[res] = codes[code]
        elif h[res] != codes[code]:
            return False
    return True


def _enumerate_backtrack(alg: Algebra) -> set[UnaryMap]:
    """Depth-first search over the compiled plan: at each depth, try the values
    of h(element) that every unit mask allows, then run the level's steps."""
    carrier = alg.carrier
    n = len(carrier)
    seed, levels = _compile_plan(alg)
    out: set[UnaryMap] = set()
    # the positions written at a depth are the same on every branch, so one
    # list serves the whole search: nothing is copied or undone
    h = [0] * n

    def search(depth: int):
        if depth == len(levels):
            out.add(UnaryMap(carrier, tuple(h)))
            return
        e, mask, units, steps, _ = levels[depth]
        for others, masks in units:
            code = 0
            for o in others:
                code = code * n + h[o]
            mask &= masks[code]
        while mask:
            low = mask & -mask
            mask ^= low
            h[e] = low.bit_length() - 1
            if _run(steps, h, n):
                search(depth + 1)

    _run(seed, h, n)  # h becomes the identity on the constants' subuniverse: no check fails
    search(0)
    return out


def enumerate_endomorphisms(alg: Algebra, method: str = "backtrack",
                            cap: int = BRUTE_CAP) -> set[UnaryMap]:
    if not alg.is_tabulated:
        raise AlgebraError("endomorphism enumeration needs a tabulated algebra; "
                           "gallery algebras supply symbolic families instead")
    if method == "brute":
        return _enumerate_brute(alg, cap)
    if method == "backtrack":
        return _enumerate_backtrack(alg)
    raise AlgebraError(f"unknown method {method!r}")


@dataclass(frozen=True)
class Representation:
    algebra: Algebra
    frame: Frame
    endos: frozenset[UnaryMap]
    sampling: dict[UnaryMap, Matrix] = field(compare=False)
    bijective: bool = False
    failure: dict | None = field(default=None, compare=False)
    extension: dict[Matrix, UnaryMap] | None = field(default=None, compare=False)
    # conjugates[a] is chi_a, the conjugate function of the element of index a
    conjugates: tuple[FunctionTable, ...] | None = field(default=None, compare=False)

    def matrices(self):
        """Every matrix, in canonical (Horner) order."""
        return itertools.product(range(len(self.algebra.carrier)), repeat=len(self.frame.X))


def build_representation(alg: Algebra, frame: Frame, endos=None,
                         method: str = "backtrack") -> Representation:
    carrier = alg.carrier
    U = frame.codes(carrier)
    if endos is None:
        endos = enumerate_endomorphisms(alg, method=method)
    sampling = {h: tuple(map(h.codes.__getitem__, U)) for h in endos}

    if not frame.X and len(carrier) > 1:
        # every endomorphism samples to the empty matrix, so only a one-point
        # algebra (where the identity is the sole endomorphism) can work
        return Representation(alg, frame, frozenset(endos), sampling,
                              failure={"reason": "empty frame on a non-trivial "
                                                 "algebra: only the identity "
                                                 "can be recovered",
                                       "matrix": ()})

    by_matrix: dict[Matrix, UnaryMap] = {}
    # in name order, which decides the collision that a failure reports
    for h in sorted(endos, key=lambda h: h.values):
        m = sampling[h]
        if m in by_matrix:
            return Representation(alg, frame, frozenset(endos), sampling,
                                  failure={"reason": "not-injective",
                                           "matrix": m,
                                           "endos": (by_matrix[m], h)})
        by_matrix[m] = h
    matrices = list(itertools.product(range(len(carrier)), repeat=len(frame.X)))
    unhit = [m for m in matrices if m not in by_matrix]
    if unhit:
        return Representation(alg, frame, frozenset(endos), sampling,
                              failure={"reason": "not-surjective", "matrix": unhit[0]})

    # chi_a(M) = h_M(a): column a of the extension's maps in canonical order of M
    images = [by_matrix[m].codes for m in matrices]
    conjugates = tuple(FunctionTable(carrier, frame.X, codes) for codes in zip(*images))
    return Representation(alg, frame, frozenset(endos), sampling, bijective=True,
                          extension=by_matrix, conjugates=conjugates)


def commutation_checker(rep: Representation):
    """The defect test of h in E_chi, for a bijective representation.

    Returns ``defect(values)``: for the map h given as carrier indices, the
    first matrix M in canonical order with h . chi_.(M) != chi_.(h . M), or
    None.  chi_.(M) is the vector (chi_a(M))_a, so this checks every pair
    h(chi_a(M)) = chi_a(h . M), one M at a time.
    """
    n = len(rep.algebra.carrier)
    k = len(rep.frame.X)
    matrices = list(rep.matrices())
    # chi_.(M) for every M in canonical order, which is Horner-code order.
    # Each vector is a string of code points, so that str.translate applies h
    # and str.join gathers vectors element by element in C.
    vectors = ["".join(map(chr, column)) for column in
               zip(*(chi.codes for chi in rep.conjugates))]
    chi = "".join(vectors)

    def defect(values: tuple[int, ...]) -> Matrix | None:
        moved = [0]  # Horner codes of h . M, in canonical order of M
        for _ in range(k):
            moved = [c * n + v for c in moved for v in values]
        after = chi.translate(values)
        before = "".join(map(vectors.__getitem__, moved))
        if after == before:
            return None
        return next(m for i, m in enumerate(matrices)
                    if after[i * n:(i + 1) * n] != before[i * n:(i + 1) * n])

    return defect


def verify_basis_equivalence(alg: Algebra, frame: Frame, rep: Representation | None = None,
                       samples: int = 1000, seed: int = 0,
                       reject_cap: int = BRUTE_CAP) -> dict:
    """Check the biconditional: a single elementary generator exists iff the
    sampling is bijective; when both hold, check the two endomorphism sets
    coincide via the conjugate-commutation identity."""
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
    n = len(carrier)
    members = {h.codes for h in rep.endos}
    report["commutation_members_ok"] = all(defect(h) is None for h in members)

    if n**n <= reject_cap:
        report["nonmember_check"] = "exhaustive"
        candidates = itertools.product(range(n), repeat=n)
    else:
        report["nonmember_check"] = f"sampled:{samples}:seed={seed}"
        rng = random.Random(seed)
        candidates = (tuple(rng.choice(range(n)) for _ in range(n))
                      for _ in range(samples))
    rejected_ok = True
    for h in candidates:
        if h in members:
            continue
        if defect(h) is None:
            rejected_ok = False
            report["nonmember_witness_missing"] = tuple(carrier.elements[v] for v in h)
            break
    report["nonmembers_rejected"] = rejected_ok
    report["e_chi_equals_e_alpha"] = report["commutation_members_ok"] and rejected_ok
    return report
