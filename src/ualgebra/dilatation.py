"""Dilatations, indicators, fullness and the endowed dilatation monoid.

A dilatation is an endomorphism that is also a rank-less elementary
function.  An element d indicates the dilatation obtained by equalizing the
arguments of its conjugate function; when every element is an indicator the
carrier is full and the dilatation generator transports the parent
operations onto the dilatation set.  Elements are carrier indices throughout;
the indicator names appear only in the reports built from an analysis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .commutativity import is_commutative
from .core import Algebra, AlgebraError, UnaryMap, identity_map
from .elementary import DEFAULT_GUARD, rankless
from .representation import Frame, Representation, build_representation


@dataclass(frozen=True)
class DilatationAnalysis:
    rep: Representation = field(compare=False)
    delta: frozenset[UnaryMap]
    # delta member -> the carrier indices of the elements indicating it
    indicators: dict[UnaryMap, frozenset[int]] = field(compare=False)
    # carrier index of an indicator d -> the dilatation it indicates
    gamma: dict[int, UnaryMap] = field(compare=False)
    full: bool = False
    routes_agree: bool = True


def analyze_dilatations(rep: Representation, guard: int = DEFAULT_GUARD) -> DilatationAnalysis:
    """Compute the dilatation set by two independent routes and compare them.

    Route one intersects the endomorphisms with the rank-less elementary
    functions; route two equalizes every conjugate function and keeps the
    results that are endomorphisms.  The generator values must land inside
    the intersection, which may additionally contain indicator-less members.
    """
    if not rep.bijective:
        raise AlgebraError("dilatation analysis needs a bijective sampling")
    alg = rep.algebra
    carrier = alg.carrier
    delta = frozenset(rankless(alg, guard=guard) & rep.endos)

    gamma: dict[int, UnaryMap] = {}
    for d, chi_d in enumerate(rep.conjugates):
        # a nullary conjugate (the empty frame) equalizes to its constant value
        candidate = (chi_d.equalize() if chi_d.rank
                     else UnaryMap(carrier, chi_d.codes * len(carrier)))
        if candidate in rep.endos:
            gamma[d] = candidate

    routes_agree = set(gamma.values()) <= delta
    indicators = {
        delta_member: frozenset(d for d, g in gamma.items() if g == delta_member)
        for delta_member in delta
    }
    full = len(gamma) == len(carrier)
    return DilatationAnalysis(rep, delta, indicators, gamma, full, routes_agree)


@dataclass(frozen=True)
class EndowedMonoid:
    """The dilatation composition monoid enriched with the image operations.

    Members are indexed canonically (sorted by their codes); tables are over
    member indices.
    """

    members: tuple[UnaryMap, ...]
    unit: int
    product: tuple[tuple[int, ...], ...]
    image_ops: tuple[tuple[str, tuple, dict], ...]  # (symbol, rank, args-idx -> idx)

    def index(self, delta: UnaryMap) -> int:
        return self.members.index(delta)


def build_endowed_monoid(analysis: DilatationAnalysis) -> tuple[EndowedMonoid | None, dict]:
    """Transport the parent operations onto the dilatations via the generator.

    Requires a full carrier; otherwise returns no monoid plus a diagnosis
    listing the non-indicator elements and which image operations would
    still be inherited (their transported tables stay inside the
    dilatation set).
    """
    rep = analysis.rep
    alg = rep.algebra
    carrier = alg.carrier
    n = len(carrier)
    members = tuple(sorted(analysis.delta, key=lambda d: d.codes))
    pos = {d: i for i, d in enumerate(members)}

    info: dict = {"delta_size": len(members)}

    image_ops = []
    inherited = {}
    for f in alg.ops:
        table = {}
        closed = True
        for combo in itertools.product(members, repeat=len(f.rank)):
            value = UnaryMap(carrier, tuple(f.table.at([d.codes[a] for d in combo])
                                            for a in range(n)))
            if value not in pos:
                closed = False
                break
            table[tuple(pos[d] for d in combo)] = pos[value]
        inherited[f.symbol] = closed
        if closed:
            image_ops.append((f.symbol, f.rank, table))
    info["inherited"] = inherited

    if not analysis.full:
        info["non_indicators"] = [a for d, a in enumerate(carrier.elements)
                                  if d not in analysis.gamma]
        return None, info

    unit = pos[identity_map(carrier)]
    product = tuple(
        tuple(pos[a.compose(b)] for b in members) for a in members
    )
    for f in alg.ops:
        if not inherited[f.symbol]:
            # a full carrier guarantees closure, so this indicates a real bug
            raise AlgebraError(f"image of {f.symbol} escapes the dilatation set")

    # the generator must be a homomorphism onto every image operation
    gamma = [pos[analysis.gamma[a]] for a in range(n)]
    op_tables = dict((s, t) for s, _r, t in image_ops)
    for f in alg.ops:
        table = op_tables[f.symbol]
        for code, args in enumerate(itertools.product(range(n), repeat=len(f.rank))):
            if table[tuple(gamma[a] for a in args)] != gamma[f.table.codes[code]]:
                at = tuple(carrier.elements[a] for a in args)
                raise AlgebraError(f"dilatation generator is not a homomorphism at {at}")

    return EndowedMonoid(members, unit, product, tuple(image_ops)), info


def check_distributivities(monoid: EndowedMonoid, analysis: DilatationAnalysis) -> dict:
    """The homogeneous law: composing after a transported operation equals
    transporting the member-wise compositions; the heterogeneous law:
    members act as endomorphisms of every parent operation."""
    carrier = analysis.rep.algebra.carrier
    n = len(carrier)
    members = monoid.members
    failures = []
    for symbol, rank, table in monoid.image_ops:
        for d_idx, d in enumerate(members):
            for args in itertools.product(range(len(members)), repeat=len(rank)):
                lhs = monoid.product[d_idx][table[args]]
                rhs = table[tuple(monoid.product[d_idx][e] for e in args)]
                if lhs != rhs:
                    failures.append(("homogeneous", symbol, d_idx, args))
    for f in analysis.rep.algebra.ops:
        for d in members:
            for code, args in enumerate(itertools.product(range(n), repeat=len(f.rank))):
                if d.codes[f.table.codes[code]] != f.table.at([d.codes[a] for a in args]):
                    at = tuple(carrier.elements[a] for a in args)
                    failures.append(("heterogeneous", f.symbol, d.values, at))
    return {"status": "pass" if not failures else "fail", "failures": failures}


def check_fullness_pipeline(alg: Algebra, frame: Frame, rep: Representation | None = None,
                      samples: int = 1000, seed: int = 0,
                      analysis: DilatationAnalysis | None = None,
                      endowed: tuple[EndowedMonoid | None, dict] | None = None) -> dict:
    """Commutative based algebras are dilatation full with an endowed monoid.

    Its ``full`` field reports the underlying mechanism: every equalized
    conjugate is an endomorphism.  ``analysis`` reuses the caller's
    dilatation analysis of ``rep``, and ``endowed`` the caller's
    ``build_endowed_monoid(analysis)``.
    """
    if rep is None:
        rep = build_representation(alg, frame)
    commutative, reports = is_commutative(alg, samples=samples, seed=seed)
    out: dict = {"commutative": commutative}
    if not rep.bijective:
        out["status"] = "skipped"
        out["reason"] = "sampling is not bijective"
        return out
    if analysis is None:
        analysis = analyze_dilatations(rep)
    out["full"] = analysis.full
    if not commutative:
        witness = next(r for r in reports if not r.holds)
        out["witness_pair"] = witness.pair
        out["status"] = "pass"  # nothing to assert; record the contrapositive facts
        return out

    monoid, info = endowed or build_endowed_monoid(analysis)
    out["monoid_built"] = monoid is not None
    out["monoid_info"] = info
    ok = analysis.full and monoid is not None
    out["status"] = "pass" if ok else "fail"
    return out


def monoid_to_dict(monoid: EndowedMonoid) -> dict:
    return {
        "delta": [list(d.values) for d in monoid.members],
        "unit": monoid.unit,
        "product": [list(row) for row in monoid.product],
        "image_ops": [
            {
                "symbol": symbol,
                "rank": list(rank),
                "table": [
                    {"args": list(args), "value": value}
                    for args, value in sorted(table.items())
                ],
            }
            for symbol, rank, table in monoid.image_ops
        ],
    }
