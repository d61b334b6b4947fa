"""The two combinators everything else is built from.

``constant_fn`` generates constant function tables, ``exchange`` is the
transposition-like swap between an indexing I -> A^J and its J -> A^I
counterpart, and ``set_ary_compose`` composes an outer operation with an
indexing of inner function tables.  The missing context the symbols carry
implicitly (which carrier, which index sets) is always an explicit argument
here; in particular an empty outer index set never infers the inner one.
The tables themselves (``FunctionTable``, ``tabulate``) live in ``core``.
"""

from __future__ import annotations

from .core import AlgebraError, Carrier, FunctionTable, Rank, tabulate


def constant_fn(carrier: Carrier, a: str, rank: Rank) -> FunctionTable:
    """The table of ``rank`` constantly ``a``.  Only tests call it, as oracle vocabulary."""
    if a not in carrier:
        raise AlgebraError(f"constant value outside carrier: {a}")
    return tabulate(carrier, rank, lambda _args: a)


def projection(carrier: Carrier, rank: Rank, x: str) -> FunctionTable:
    pos = rank.index(x)
    return tabulate(carrier, rank, lambda args: args[pos])


def exchange(m: dict, inner_labels=None) -> dict:
    """Swap an indexing ``{i: {j: value}}`` into ``{j: {i: value}}``.

    When the outer index set is empty the inner labels cannot be recovered
    from ``m`` and must be supplied explicitly; the result then sends each
    inner label to the empty indexing.  Only tests call it, as oracle vocabulary.
    """
    if not m:
        if inner_labels is None:
            raise AlgebraError("exchange of an empty indexing needs explicit inner labels")
        return {j: {} for j in inner_labels}
    inner_sets = [tuple(inner) for inner in m.values()]
    if len(set(map(frozenset, inner_sets))) != 1:
        raise AlgebraError("inconsistent inner index sets")
    return {j: {i: m[i][j] for i in m} for j in inner_sets[0]}


def set_ary_compose(g, G: dict[str, FunctionTable], carrier: Carrier, rank: Rank) -> FunctionTable:
    """Compose an outer operation or table g with an indexing G: g.rank -> tables.

    All inner tables must share ``rank``; the result sends M to
    g(s -> G_s(M)).  A nullary g collapses to the constant table at g's value.
    """
    if set(G) != set(g.rank):
        raise AlgebraError("indexing does not match the outer rank")
    for s, t in G.items():
        if t.rank != rank:
            raise AlgebraError(f"inner table at {s} has rank {t.rank}, expected {rank}")

    def value(args):
        return g(tuple(G[s](args) for s in g.rank))

    return tabulate(carrier, rank, value)
