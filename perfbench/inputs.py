"""Seeded input generators for the benchmark workloads.

Every generator takes a ``random.Random`` seeded from the workload seed and
returns plain JSON documents in the formats the CLI reads (algebra files,
PERT project files), so the program under test only ever sees generated
inputs.  Nothing here imports ``ualgebra``: the documents are loaded back
through the program's own loaders during set-up.

Run ``python3 perfbench/inputs.py`` to recompute ``WORK_TARGETS`` from a
large reference draw (takes under a minute).
"""

from __future__ import annotations

import itertools
import math
import random
import sys

# ---------------------------------------------------------------- chains


def chain_count(n: int) -> int:
    """Order-preserving self-maps of an n-chain: C(2n-1, n)."""
    return math.comb(2 * n - 1, n)


def relabeled_chain(rng: random.Random, n: int) -> dict:
    """A max-chain on n elements whose carrier order is a random permutation
    of the chain order, so the backtracking search branches differently."""
    rank = list(range(n))
    rng.shuffle(rank)
    elements = [f"c{i}" for i in range(n)]
    table = [
        {"args": [a, b], "value": a if rank[i] >= rank[j] else b}
        for i, a in enumerate(elements)
        for j, b in enumerate(elements)
    ]
    return {"name": f"chain{n}", "elements": elements,
            "operations": [{"symbol": "max", "rank": ["l", "r"], "table": table}]}


# ------------------------------------------------------- random algebras


def random_algebra(rng: random.Random, max_size: int = 4) -> tuple[dict, dict]:
    """Algebra and frame documents drawn like ``tests/conftest.py::random_algebra``:
    a binary and a unary operation, sometimes a constant, 2..max_size elements,
    a frame on one or two labels.  Draws happen in the same order."""
    n = rng.randint(2, max_size)
    elements = [f"a{i}" for i in range(n)]
    binary = [{"args": [a, b], "value": rng.choice(elements)}
              for a in elements for b in elements]
    unary = [{"args": [a], "value": rng.choice(elements)} for a in elements]
    ops = [{"symbol": "f", "rank": ["l", "r"], "table": binary},
           {"symbol": "u", "rank": ["a"], "table": unary}]
    if rng.random() < 0.5:
        constant = [{"args": [], "value": rng.choice(elements)}]
        ops.append({"symbol": "c", "rank": [], "table": constant})
    k = rng.randint(1, 2)
    labels = [f"x{i}" for i in range(k)]
    frame = {"X": labels, "U": [{"index": x, "value": rng.choice(elements)} for x in labels]}
    return {"name": "random", "elements": elements, "operations": ops}, frame


def closure_levels(doc: dict) -> list[int]:
    """Sizes of the breadth-first rounds of the one-slot elementary closure.

    Round r composes every operation over all functions found before it, as
    ``elementary_closure`` does; the last entry is the closure size.  Unary
    maps are value tuples over element indices.  Only combinations touching
    the previous round's new functions are evaluated (semi-naive), so this
    is an independent and much cheaper route to the same sets.
    """
    elements = doc["elements"]
    n = len(elements)
    index = {e: i for i, e in enumerate(elements)}
    ops = []
    for od in doc["operations"]:
        flat = [0] * n ** len(od["rank"])
        for row in od["table"]:
            code = 0
            for a in row["args"]:
                code = code * n + index[a]
            flat[code] = index[row["value"]]
        ops.append((len(od["rank"]), flat))

    def compose(k, flat, combo):
        if k == 0:
            return (flat[0],) * n
        if k == 1:
            return tuple(flat[a] for a in combo[0])
        if k == 2:
            return tuple(flat[a * n + b] for a, b in zip(*combo))
        out = []
        for i in range(n):
            code = 0
            for m in combo:
                code = code * n + m[i]
            out.append(flat[code])
        return tuple(out)

    every_map = n ** n
    old: list[tuple] = []
    delta = [tuple(range(n))]
    found = set(delta)
    sizes = [1]
    while delta:
        cur = old + delta
        fresh = []
        for k, flat in ops:
            if k == 0:
                combos = [()] if not old else []
            else:
                # at least one argument from delta: the first such slot is j
                combos = itertools.chain.from_iterable(
                    itertools.product(*([old] * j + [delta] + [cur] * (k - 1 - j)))
                    for j in range(k))
            for combo in combos:
                value = compose(k, flat, combo)
                if value not in found:
                    found.add(value)
                    fresh.append(value)
                    if len(found) == every_map:  # this round ends full
                        return sizes + [every_map]
        old, delta = cur, fresh
        sizes.append(len(found))
    return sizes[:-1]


def closure_work(doc: dict, sizes: list[int]) -> int:
    """Compositions the round-by-round closure evaluates: every round,
    including the last one that finds nothing new, tries all argument
    combinations over the functions found so far."""
    arities = [len(od["rank"]) for od in doc["operations"]]
    return sum(size ** k for size in sizes for k in arities)


# Strata of the random-algebra distribution: carrier size, and whether the
# one-slot closure reaches every unary map (n^n of them).  Quotas per pass
# follow the distribution: each carrier size has probability 1/3; about 60%
# of the 3-element and 70% of the 4-element algebras reach the full closure.
# (name, carrier size, full closure or None for either, picks per pass)
STRATA = (
    ("n2", 2, None, 3),
    ("n3-partial", 3, False, 1),
    ("n3-full", 3, True, 2),
    ("n4-partial", 4, False, 1),
    ("n4-full", 4, True, 2),
)
# Candidates drawn per pick.  Every seed classifies the same number of
# candidates, so set-up costs the same from seed to seed, and enough of them
# that the nearest lies close to its target where picks set a reported
# figure: the 3-element full closures hold the median latency, the 4-element
# full ones the 90th percentile and most of a pass's time.  Picks of the
# SHARED strata are drawn once and repeat in every pass (classifying a
# 4-element algebra costs a closure of up to 256 maps); the other strata get
# fresh picks in each pass.
CANDIDATES_PER_PICK = {"n2": 4, "n3-partial": 8, "n3-full": 16, "n4-partial": 4, "n4-full": 16}
SHARED = ("n4-partial", "n4-full")

# closure_work at the quantiles (i + 0.5) / picks of each stratum, from 3000
# draws of random.Random(0); see reference_targets().
WORK_TARGETS = {
    "n2": (8, 24, 37),
    "n3-partial": (172,),
    "n3-full": (1222, 1617),
    "n4-partial": (7410,),
    "n4-full": (83229, 134448),
}


def stratum_of(doc: dict, sizes: list[int]) -> str:
    n = len(doc["elements"])
    full = sizes[-1] == n ** n
    for name, size, want_full, _picks in STRATA:
        if size == n and want_full in (None, full):
            return name
    raise ValueError(f"no stratum for carrier size {n}")


def stratified_algebras(rng: random.Random, passes: int) -> list[list[dict]]:
    """Passes of random algebras.  Draws from the distribution are sorted into
    strata until every stratum holds CANDIDATES_PER_PICK candidates per pick
    (per pass, unless the stratum is SHARED); each pick is the unused
    candidate closest in closure work to one of the stratum's targets.  The
    quotas fix how many heavy closures a pass holds and the targets fix how
    heavy they are, so the work of a pass varies little from seed to seed
    while every algebra is still a seeded draw."""
    wanted = {name: picks * CANDIDATES_PER_PICK[name] * (1 if name in SHARED else passes)
              for name, _n, _f, picks in STRATA}
    buckets: dict[str, list] = {name: [] for name in wanted}
    while any(len(buckets[s]) < wanted[s] for s in wanted):
        alg, frame = random_algebra(rng)
        n = len(alg["elements"])
        if all(len(buckets[s]) >= wanted[s] for s, size, _f, _p in STRATA if size == n):
            continue
        sizes = closure_levels(alg)
        name = stratum_of(alg, sizes)
        if len(buckets[name]) < wanted[name]:
            buckets[name].append({"algebra": alg, "frame": frame, "closure_size": sizes[-1],
                                  "work": closure_work(alg, sizes)})

    def pick(name):
        chosen = []
        for target in WORK_TARGETS[name]:
            best = min(buckets[name], key=lambda c: abs(c["work"] - target))
            buckets[name].remove(best)
            chosen.append(best)
        return chosen

    shared = {name: pick(name) for name, *_ in STRATA if name in SHARED}
    return [[draw for name, *_ in STRATA for draw in (shared.get(name) or pick(name))]
            for _ in range(passes)]


def reference_targets(draws: int = 3000, seed: int = 0) -> dict:
    rng = random.Random(seed)
    works: dict[str, list[int]] = {name: [] for name, *_ in STRATA}
    for _ in range(draws):
        alg, _frame = random_algebra(rng)
        sizes = closure_levels(alg)
        works[stratum_of(alg, sizes)].append(closure_work(alg, sizes))
    out = {}
    for name, _n, _f, picks in STRATA:
        ws = sorted(works[name])
        out[name] = tuple(ws[int((i + 0.5) / picks * len(ws))] for i in range(picks))
        print(f"{name}: {len(ws)} draws ({len(ws) / draws:.3f}), targets {out[name]}",
              file=sys.stderr)
    return out


# ---------------------------------------------------------- PERT projects


def random_project(rng: random.Random, events: int, arc_probability: float,
                   max_time: int = 9) -> dict:
    """A project document on a random DAG: events in a shuffled order, each
    pair joined forward with the given probability."""
    names = [f"e{i}" for i in range(events)]
    order = list(names)
    rng.shuffle(order)
    successors: dict[str, list] = {x: [] for x in names}
    for i, x in enumerate(order):
        for y in order[i + 1:]:
            if rng.random() < arc_probability:
                successors[x].append({"event": y, "time": rng.randint(0, max_time)})
    return {"events": names,
            "M": [{"event": x, "successors": successors[x]} for x in names]}


def sources(doc: dict) -> list[str]:
    """Events with no predecessor: where a project's schedule starts."""
    targets = {s["event"] for row in doc["M"] for s in row["successors"]}
    return [e for e in doc["events"] if e not in targets]


if __name__ == "__main__":
    print(reference_targets())
