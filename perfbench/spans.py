"""Span tracing from outside the program.

The program is not instrumented.  Instead, for a traced pass, the names each
``ualgebra`` module imports from another layer are replaced in that module's
namespace by wrappers that record a span (name, start, end, parent, operation
id).  Calls a module makes to its own functions are not boundaries and stay
inside the caller's span.  High-frequency boundaries (``set_ary_compose``)
record no span of their own: their calls and total time are folded into the
parent span, so memory stays bounded by the number of coarse spans.

A span's self time is its duration minus its child spans and folded calls.
The self times of one operation's spans add up to its root span.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict
from types import SimpleNamespace

# (module, name) -> span.  The span name is "<layer>.<stage>"; its self time
# is reported as "<layer>.<stage>_s".
BOUNDARIES = (
    ("ualgebra.cli", "load_algebra", "core.load"),
    ("ualgebra.cli", "load_frame", "representation.frame_load"),
    ("ualgebra.cli", "enumerate_endomorphisms", "representation.endos"),
    ("ualgebra.cli", "build_representation", "representation.build"),
    ("ualgebra.cli", "verify_basis_equivalence", "representation.verify"),
    ("ualgebra.cli", "is_commutative", "commutativity.medial"),
    ("ualgebra.cli", "check_closure_commutation", "commutativity.closure_pairs"),
    ("ualgebra.cli", "check_conjugate_commutation", "commutativity.conjugate"),
    ("ualgebra.cli", "analyze_dilatations", "dilatation.analyze"),
    ("ualgebra.cli", "build_endowed_monoid", "dilatation.monoid"),
    ("ualgebra.cli", "monoid_to_dict", "dilatation.monoid"),
    ("ualgebra.cli", "check_distributivities", "dilatation.distributivity"),
    ("ualgebra.cli", "check_fullness_pipeline", "dilatation.fullness"),
    # cli reaches the gallery through the package's attributes, and imports
    # the two PERT helpers from their module when the command runs
    ("ualgebra.gallery", "load_project", "gallery.pert"),
    ("ualgebra.gallery", "pert_forward_pass", "gallery.pert"),
    ("ualgebra.gallery", "integers_check", "gallery.integers"),
    ("ualgebra.gallery", "gaussian_check", "gallery.gaussian"),
    ("ualgebra.gallery.pert", "accumulated_times", "gallery.pert"),
    ("ualgebra.gallery.pert", "longest_path_times", "gallery.pert"),
    ("ualgebra.representation", "elementary_generator", "elementary.generator"),
    ("ualgebra.commutativity", "elementary_closure", "elementary.closure"),
    ("ualgebra.dilatation", "is_commutative", "commutativity.medial"),
    ("ualgebra.dilatation", "rankless", "elementary.closure"),
    ("ualgebra.dilatation", "build_representation", "representation.build"),
)
FOLDED = (("ualgebra.elementary", "set_ary_compose", "combinator.compose"),)

# What the benchmark itself calls.  ``cli.run`` is an operation's root, so
# its span is the one the measuring loop opens.
CLIENT = (
    ("ualgebra.cli", "run", None),
    ("ualgebra.representation", "enumerate_endomorphisms", "representation.endos"),
    ("ualgebra.representation", "build_representation", "representation.build"),
    ("ualgebra.representation", "verify_basis_equivalence", "representation.verify"),
    ("ualgebra.elementary", "elementary_closure", "elementary.closure"),
    ("ualgebra.commutativity", "is_commutative", "commutativity.medial"),
    ("ualgebra.gallery.pert", "pert_forward_pass", "gallery.pert"),
    ("ualgebra.gallery.pert", "pert_algebra", "gallery.pert"),
    ("ualgebra.gallery.integers", "integers_check", "gallery.integers"),
    ("ualgebra.gallery.gaussian", "gaussian_check", "gallery.gaussian"),
)

# Counters read at a boundary; each is summed over a pass.
COUNTS = (
    "core.load_calls",
    "representation.verify_calls",
    "representation.endos_found",
    "elementary.closure_size",
    "elementary.closure_depth",
    "elementary.closure_incomplete",
    "combinator.compose_calls",
    "commutativity.guard_trips",
    "dilatation.delta_size",
)


def client_api(tracer: "Tracer | None" = None) -> SimpleNamespace:
    """The program's entry points as the benchmark calls them, wrapped in
    spans when a tracer is given."""
    api = {}
    for module_name, attr, span in CLIENT:
        fn = getattr(sys.modules[module_name], attr)
        api[attr] = tracer.wrap(fn, span) if tracer and span else fn
    return SimpleNamespace(**api)


class Span:
    __slots__ = ("name", "op_id", "parent", "start", "end", "child_s", "folded")

    def __init__(self, name, op_id, parent):
        self.name = name
        self.op_id = op_id
        self.parent = parent
        self.child_s = 0.0
        self.folded: dict[str, list] = {}  # name -> [calls, seconds]
        self.start = time.perf_counter()
        self.end = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def self_s(self) -> float:
        return self.seconds - self.child_s - sum(s for _c, s in self.folded.values())


def _witness_depth(witness, memo) -> int:
    if witness[0] == "proj":
        return 0
    key = id(witness)
    if key not in memo:
        memo[key] = 1 + max((_witness_depth(c, memo) for c in witness[2]), default=0)
    return memo[key]


def _observe(counts, name, args, kwargs, result) -> None:
    """Update the counters a boundary's result carries."""
    if name == "core.load":
        counts["core.load_calls"] += 1
    elif name == "representation.verify":
        counts["representation.verify_calls"] += 1
    elif name == "representation.endos":
        counts["representation.endos_found"] += len(result)
    elif name == "representation.build":
        given = args[2] if len(args) > 2 else kwargs.get("endos")
        if given is None:  # the search ran inside this span
            counts["representation.endos_found"] += len(result.endos)
    elif name == "elementary.closure" and hasattr(result, "functions"):
        counts["elementary.closure_size"] += len(result.functions)
        memo: dict = {}
        counts["elementary.closure_depth"] += max(
            (_witness_depth(f.witness, memo) for f in result.functions), default=0)
        counts["elementary.closure_incomplete"] += not result.complete
    elif name == "dilatation.analyze":
        counts["dilatation.delta_size"] += len(result.delta)


class Tracer:
    """Collects spans for traced operations.  Wrappers outside an operation
    (no open root span) call straight through and record nothing."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[Span] = []
        self._op_id = 0
        self._guard_error = sys.modules["ualgebra.core"].GuardExceeded

    # -- recording ----------------------------------------------------

    @contextlib.contextmanager
    def operation(self, root: str):
        """Root span of one operation; every span opened inside shares its id."""
        self._op_id += 1
        span = Span(root, self._op_id, None)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(span)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            parent = self._stack[-1]
            span = Span(name, parent.op_id, parent)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except self._guard_error:
                # commutativity spans never nest, so each trip is counted once
                if name.startswith("commutativity."):
                    self.counts["commutativity.guard_trips"] += 1
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                parent.child_s += span.seconds
                self.spans.append(span)
            _observe(self.counts, name, args, kwargs, result)
            return result
        return traced

    def fold(self, fn, name: str):
        @functools.wraps(fn)
        def folded(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                slot = self._stack[-1].folded.setdefault(name, [0, 0.0])
                slot[0] += 1
                slot[1] += time.perf_counter() - start
        return folded

    @contextlib.contextmanager
    def installed(self):
        """Replace every boundary name in its importing module for the duration."""
        saved = []
        try:
            for table, wrapper in ((BOUNDARIES, self.wrap), (FOLDED, self.fold)):
                for module_name, attr, span in table:
                    module = sys.modules[module_name]
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, wrapper(original, span))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- reporting ----------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name, folded calls under their own name."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += span.self_s()
            for name, (_calls, seconds) in span.folded.items():
                out[name] += seconds
        return dict(out)

    def counters(self) -> dict[str, int]:
        """Every counter in COUNTS; folded calls count as "<name>_calls"."""
        out = {name: self.counts.get(name, 0) for name in COUNTS}
        for span in self.spans:
            for name, (calls, _s) in span.folded.items():
                out[f"{name}_calls"] += calls
        return out

    def per_operation(self) -> dict[int, tuple[float, float]]:
        """op id -> (root span seconds, sum of the op's self times)."""
        total: dict[int, float] = defaultdict(float)
        root: dict[int, float] = {}
        for span in self.spans:
            total[span.op_id] += span.self_s() + sum(s for _c, s in span.folded.values())
            if span.parent is None:
                root[span.op_id] = span.seconds
        return {op: (root[op], total[op]) for op in root}
