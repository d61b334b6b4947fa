import itertools
import random

import pytest

from ualgebra.core import Algebra, Carrier, FunctionTable, Operation
from ualgebra.gallery import build_boolean_example, build_powerset_semilattice
from ualgebra.representation import Frame


def op_from_rows(carrier: Carrier, symbol: str, rank: tuple, rows) -> Operation:
    """A tabulated operation from a dict of element-name rows."""
    return Operation(symbol, rank, table=FunctionTable.from_rows(carrier, rank, rows.items()))


@pytest.fixture(scope="session")
def semilattice2():
    return build_powerset_semilattice(("x", "y"))


@pytest.fixture(scope="session")
def semilattice3():
    return build_powerset_semilattice(("x", "y", "z"))


@pytest.fixture(scope="session")
def boolean():
    return build_boolean_example()


@pytest.fixture(scope="session")
def trivial():
    carrier = Carrier(("e",))
    alg = Algebra("trivial", carrier,
                  (op_from_rows(carrier, "star", ("l", "r"), {("e", "e"): "e"}),))
    return alg, Frame((), {})


def random_algebra(rng: random.Random, max_size: int = 4):
    """A random tabulated algebra with a binary and a unary operation,
    sometimes a nullary one, plus a random frame."""
    n = rng.randint(2, max_size)
    elements = tuple(f"a{i}" for i in range(n))
    carrier = Carrier(elements)
    binary = op_from_rows(carrier, "f", ("l", "r"), {
        (a, b): rng.choice(elements) for a in elements for b in elements
    })
    unary = op_from_rows(carrier, "u", ("a",), {(a,): rng.choice(elements) for a in elements})
    ops = [binary, unary]
    if rng.random() < 0.5:
        ops.append(op_from_rows(carrier, "c", (), {(): rng.choice(elements)}))
    alg = Algebra("random", carrier, tuple(ops))
    k = rng.randint(1, 2)
    labels = tuple(f"x{i}" for i in range(k))
    frame = Frame(labels, {x: rng.choice(elements) for x in labels})
    return alg, frame


def vector_space(p: int, k: int) -> Algebra:
    """GF(p)^k with ``plus`` and ``zero``, each vector named by its
    coordinates, the first one running slowest."""
    vectors = list(itertools.product(range(p), repeat=k))
    carrier = Carrier(tuple("".join(map(str, v)) for v in vectors))
    index = {v: i for i, v in enumerate(vectors)}
    plus = tuple(index[tuple((a + b) % p for a, b in zip(u, v))] for u in vectors for v in vectors)
    return Algebra(f"GF({p})^{k}", carrier,
                   (Operation("plus", ("l", "r"), table=FunctionTable(carrier, ("l", "r"), plus)),
                    Operation("zero", (), table=FunctionTable(carrier, (), (0,)))))


def max_chain(rng: random.Random, n: int) -> Algebra:
    """The max-semilattice of an n-chain, its carrier listed in a shuffled order."""
    height = list(range(n))
    rng.shuffle(height)
    elements = tuple(f"c{i}" for i in range(n))
    table = {(a, b): a if height[i] >= height[j] else b
             for i, a in enumerate(elements) for j, b in enumerate(elements)}
    carrier = Carrier(elements)
    return Algebra("chain", carrier, (op_from_rows(carrier, "max", ("l", "r"), table),))


def relabeled(alg: Algebra, rng: random.Random) -> Algebra:
    """``alg`` with its carrier listed in a random order.  The order changes
    every Horner code and the search's branching, but not the mathematics."""
    names = alg.carrier.elements
    carrier = Carrier(tuple(rng.sample(names, len(names))))
    ops = tuple(op_from_rows(carrier, f.symbol, f.rank,
                             dict(zip(alg.carrier.assignments(f.rank),
                                      map(names.__getitem__, f.table.codes))))
                for f in alg.ops)
    return Algebra(alg.name, carrier, ops)


def based_algebra(rng: random.Random):
    """A based algebra with its frame: a semilattice on 1 to 3 ground points
    or ``boolean``, its carrier ``relabeled``."""
    size = rng.randint(0, 3)
    alg, frame = build_powerset_semilattice("xyz"[:size]) if size else build_boolean_example()
    return relabeled(alg, rng), frame


# The sampling and the extension, rebuilt from a representation as the tests'
# own vocabulary: maps and matrices as carrier indices.

def matrices(rep):
    """Every matrix A^X of ``rep``'s frame, in canonical (Horner) order."""
    return itertools.product(range(len(rep.algebra.carrier)), repeat=len(rep.frame.X))


def sampling(rep) -> dict:
    """h -> h . U for every endomorphism h of ``rep``."""
    U = rep.frame.codes(rep.algebra.carrier)
    return {h.codes: tuple(h.codes[u] for u in U) for h in rep.endos}


def extension(rep) -> dict:
    """M -> h_M, read off the conjugates: h_M(a) = chi_a(M)."""
    return {M: tuple(chi.at(M) for chi in rep.conjugates) for M in matrices(rep)}
