"""The free Boolean algebra on one generator, as a negative example.

Four elements bot < x, notx < top with meet, complement and the nullary
bottom.  Commutativity fails (complement against meet), only the identity is
a dilatation, and only x indicates it, so the carrier is not full.
"""

from __future__ import annotations

from ..core import Algebra, Carrier, FunctionTable, Operation
from ..representation import Frame

BOT, X, NOTX, TOP = "bot", "x", "notx", "top"
_ELEMENTS = (BOT, X, NOTX, TOP)


def _meet(a: str, b: str) -> str:
    if a == BOT or b == BOT:
        return BOT
    if a == TOP:
        return b
    if b == TOP:
        return a
    return a if a == b else BOT


_NEG = {BOT: TOP, TOP: BOT, X: NOTX, NOTX: X}


def build_boolean_example() -> tuple[Algebra, Frame]:
    carrier = Carrier(_ELEMENTS)
    ops = (
        Operation("meet", ("l", "r"), table=FunctionTable.from_rows(
            carrier, ("l", "r"), [((a, b), _meet(a, b)) for a in _ELEMENTS for b in _ELEMENTS])),
        Operation("neg", ("a",), table=FunctionTable.from_rows(
            carrier, ("a",), [((a,), _NEG[a]) for a in _ELEMENTS])),
        Operation("bot", (), table=FunctionTable.from_rows(carrier, (), [((), BOT)])),
    )
    alg = Algebra("free-boolean-1", carrier, ops)
    frame = Frame(("*",), {"*": X})
    return alg, frame
