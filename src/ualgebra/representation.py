"""Endomorphism enumeration and analytic representations over a frame.

A frame U: X -> A samples every endomorphism h to the matrix h . U in A^X.
When the sampling is a bijection both ways we invert it into the extension
and tabulate the conjugate function of every element.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .core import (Algebra, AlgebraError, FunctionTable, GuardExceeded, Rank, UnaryMap,
                   expect_json, expect_strings, make_rank, read_json)
from .elementary import elementary_generator

BRUTE_CAP = 100_000

Matrix = tuple  # one carrier element per frame label, in frame order


@dataclass(frozen=True)
class Frame:
    X: Rank
    U: dict[str, str] = field(compare=False)

    def __post_init__(self):
        if set(self.U) != set(self.X):
            raise AlgebraError("frame assignment does not match its index set")

    def columns(self) -> Matrix:
        return tuple(self.U[x] for x in self.X)


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
    """Each tabulated op as a dict from argument indices to the result's index,
    read from the name tables (the brute-force oracle's own layout)."""
    idx = alg.carrier.index
    out = []
    for g in alg.ops:
        table = {tuple(idx[a] for a in args): idx[v] for args, v in g.table.items()}
        out.append(table)
    return out


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
            out.add(UnaryMap(carrier, tuple(carrier.elements[v] for v in values)))
    return out


def _enumerate_backtrack(alg: Algebra) -> set[UnaryMap]:
    carrier = alg.carrier
    n = len(carrier)
    # every row as (arguments, result, the operation's Horner codes), watched
    # by each element it mentions
    watch: list[list] = [[] for _ in range(n)]
    nullary = []
    for table in alg.tables:
        for args, res in zip(itertools.product(range(n), repeat=len(table.rank)), table.codes):
            row = (args, res, table.codes)
            for e in {*args, res}:
                watch[e].append(row)
            if not args:
                nullary.append(res)

    def assign(h: list, e: int, v: int) -> bool:
        # set h(e) = v and derive h(f(args)) = f(h . args) for every row
        # whose arguments become all assigned; False on a contradiction
        if h[e] is not None:
            return h[e] == v
        h[e] = v
        queue = [e]
        while queue:
            for args, res, flat in watch[queue.pop()]:
                code = 0
                for a in args:
                    img = h[a]
                    if img is None:
                        break
                    code = code * n + img
                else:
                    forced = flat[code]
                    if h[res] is None:
                        h[res] = forced
                        queue.append(res)
                    elif h[res] != forced:
                        return False
        return True

    out: set[UnaryMap] = set()

    def search(h: list, pos: int):
        while pos < n and h[pos] is not None:
            pos += 1
        if pos == n:
            out.add(UnaryMap(carrier, tuple(carrier.elements[v] for v in h)))
            return
        for v in range(n):
            trial = list(h)
            if assign(trial, pos, v):
                search(trial, pos + 1)

    # a nullary value c satisfies h(c) = c in every endomorphism
    seed = [None] * n
    if all(assign(seed, c, c) for c in nullary):
        search(seed, 0)
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
    conjugates: dict[str, FunctionTable] | None = field(default=None, compare=False)

    def matrices(self):
        return self.algebra.carrier.assignments(self.frame.X)


def build_representation(alg: Algebra, frame: Frame, endos=None,
                         method: str = "backtrack") -> Representation:
    carrier = alg.carrier
    for v in frame.U.values():
        if v not in carrier:
            raise AlgebraError(f"frame value outside carrier: {v}")
    if endos is None:
        endos = enumerate_endomorphisms(alg, method=method)
    sampling = {h: tuple(h(frame.U[x]) for x in frame.X) for h in endos}

    if not frame.X and len(carrier) > 1:
        # every endomorphism samples to the empty matrix, so only a one-point
        # algebra (where the identity is the sole endomorphism) can work
        return Representation(alg, frame, frozenset(endos), sampling,
                              failure={"reason": "empty frame on a non-trivial "
                                                 "algebra: only the identity "
                                                 "can be recovered",
                                       "matrix": ()})

    by_matrix: dict[Matrix, UnaryMap] = {}
    for h in sorted(endos, key=lambda h: h.values):
        m = sampling[h]
        if m in by_matrix:
            return Representation(alg, frame, frozenset(endos), sampling,
                                  failure={"reason": "not-injective",
                                           "matrix": m,
                                           "endos": (by_matrix[m], h)})
        by_matrix[m] = h
    unhit = [m for m in carrier.assignments(frame.X) if m not in by_matrix]
    if unhit:
        return Representation(alg, frame, frozenset(endos), sampling,
                              failure={"reason": "not-surjective", "matrix": unhit[0]})

    # chi_a(M) = h_M(a): column a of the extension's maps in canonical order of M
    idx = carrier.index
    images = [[idx[v] for v in by_matrix[m].values] for m in carrier.assignments(frame.X)]
    conjugates = {a: FunctionTable(carrier, frame.X, codes)
                  for a, codes in zip(carrier.elements, zip(*images))}
    return Representation(alg, frame, frozenset(endos), sampling, bijective=True,
                          extension=by_matrix, conjugates=conjugates)


def commutation_checker(rep: Representation):
    """The defect test of h in E_chi, for a bijective representation.

    Returns ``defect(values)``: for the map h given as carrier indices, the
    first matrix M in canonical order with h . chi_.(M) != chi_.(h . M), or
    None.  chi_.(M) is the vector (chi_a(M))_a, so this checks every pair
    h(chi_a(M)) = chi_a(h . M), one M at a time.
    """
    carrier = rep.algebra.carrier
    n = len(carrier)
    k = len(rep.frame.X)
    matrices = list(rep.matrices())
    # chi_.(M) for every M in canonical order, which is Horner-code order.
    # Each vector is a string of code points, so that str.translate applies h
    # and str.join gathers vectors element by element in C.
    vectors = ["".join(map(chr, column)) for column in
               zip(*(rep.conjugates[a].codes for a in carrier.elements))]
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
    if gen.status == "not-generator":
        report["missing_elements"] = sorted(gen.missing)
    if not (gen.exists and rep.bijective):
        if rep.failure:
            report["failure"] = rep.failure["reason"]
        return report

    # the two routes must produce the same conjugate tables
    report["chi_routes_agree"] = all(
        gen.chi[a].table == rep.conjugates[a] for a in alg.carrier.elements
    )

    defect = commutation_checker(rep)
    carrier = alg.carrier
    n = len(carrier)
    idx = carrier.index
    members = {tuple(idx[v] for v in h.values) for h in rep.endos}
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
