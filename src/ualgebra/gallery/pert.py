"""CPM-PERT scheduling as a max-plus algebra on partial schedules.

A partial schedule assigns natural-number times to some events.  The
operations are the empty schedule, the pointwise-max join, and the parallel
successor that defers every time by one.  A project matrix maps each event
to the schedule of its successors' execution times; one extension step is
exactly the forward-pass iteration of the CPM-PERT algorithm.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..core import Algebra, AlgebraError, Operation, expect_json, expect_strings, read_json


@dataclass(frozen=True)
class Schedule:
    """A partial map event -> time, stored as sorted (event, time) pairs."""

    entries: tuple[tuple[str, int], ...]

    @staticmethod
    def of(mapping) -> "Schedule":
        items = tuple(sorted(dict(mapping).items()))
        for _e, t in items:
            if t < 0:
                raise AlgebraError(f"negative time in schedule: {items}")
        return Schedule(items)

    def domain(self) -> tuple[str, ...]:
        return tuple(e for e, _t in self.entries)

    def get(self, event: str) -> int:
        return dict(self.entries)[event]

    def as_dict(self) -> dict[str, int]:
        return dict(self.entries)

    def is_empty(self) -> bool:
        return not self.entries


EMPTY = Schedule(())


def join(a: Schedule, b: Schedule) -> Schedule:
    da, db = a.as_dict(), b.as_dict()
    return Schedule.of({e: max(da.get(e, -1), db.get(e, -1)) for e in set(da) | set(db)})


def successor(a: Schedule) -> Schedule:
    return Schedule.of({e: t + 1 for e, t in a.entries})


def shift(a: Schedule, n: int) -> Schedule:
    return Schedule.of({e: t + n for e, t in a.entries})


@dataclass(frozen=True)
class PertProject:
    """A project matrix: every event's schedule of successor execution times."""

    events: tuple[str, ...]
    M: dict[str, Schedule]

    def __post_init__(self):
        if not self.events:
            raise AlgebraError("a project needs at least one event")
        if set(self.M) != set(self.events):
            raise AlgebraError("project matrix must be total over the event set")
        if not {y for s in self.M.values() for y, _t in s.entries} <= self.M.keys():
            x, y = next((x, y) for x, y, _t in self.arcs() if y not in self.M)
            raise AlgebraError(f"successor {y!r} of event {x!r} is not an event")

    def arcs(self):
        for x in self.events:
            for y, t in self.M[x].entries:
                yield x, y, t


def load_project(path) -> PertProject:
    doc = expect_json(read_json(path), dict, "a project document")
    try:
        events = tuple(expect_strings(doc["events"], "events"))
        M = {}
        for row in expect_json(doc["M"], list, "M"):
            expect_json(row, dict, "an M row")
            event = expect_json(row["event"], str, "an event")
            if event in M:
                raise AlgebraError(f"duplicate M rows for event {event!r}")
            times = {}
            for succ in expect_json(row["successors"], list, f"successors of {event}"):
                y = expect_json(expect_json(succ, dict, "a successor")["event"], str, "an event")
                t = succ["time"]
                if type(t) is not int:  # a JSON true or false is a bool, not a time
                    raise AlgebraError(f"time of {event} -> {y} must be an integer: {t!r}")
                if y in times:
                    raise AlgebraError(f"duplicate successor {y!r} of event {event!r}")
                times[y] = t
            M[event] = Schedule.of(times)
    except KeyError as exc:
        raise AlgebraError(f"missing field {exc}") from None
    return PertProject(events, M)


def project_to_dict(project: PertProject) -> dict:
    return {
        "events": list(project.events),
        "M": [
            {"event": x,
             "successors": [{"event": y, "time": t} for y, t in project.M[x].entries]}
            for x in project.events
        ],
    }


def diamond_project() -> PertProject:
    return PertProject(
        ("a", "b", "c", "d"),
        {
            "a": Schedule.of({"b": 1, "c": 3}),
            "b": Schedule.of({"d": 7}),
            "c": Schedule.of({"d": 2}),
            "d": EMPTY,
        },
    )


def pert_eta(project: PertProject, a: Schedule) -> Schedule:
    """One extension step: earliest times of the events one activity ahead."""
    adict = a.as_dict()
    if not set(adict) <= set(project.events):
        raise AlgebraError("schedule mentions events outside the project")
    out: dict[str, int] = {}
    for x, t0 in adict.items():
        for y, w in project.M[x].entries:
            out[y] = max(out.get(y, -1), w + t0)
    return Schedule.of(out)


def pert_forward_pass(project: PertProject, seed: Schedule) -> list[Schedule]:
    """Iterate the extension until the empty schedule; the whole trajectory.

    A DAG drains in at most one step per event, so running longer than that
    means the arc relation has a cycle.
    """
    trajectory = []
    current = seed
    for _ in range(len(project.events) + 1):
        current = pert_eta(project, current)
        trajectory.append(current)
        if current.is_empty():
            return trajectory
    raise AlgebraError("cycle detected: forward pass does not drain")


def longest_path_times(project: PertProject, seed: Schedule) -> dict[str, int]:
    """Independent oracle: longest-path distances from the seeded events.

    Plain dynamic programming over a topological order of the arcs; only
    events reached by at least one activity are reported, matching what the
    forward pass can produce.
    """
    order = []
    marks: dict[str, int] = {}

    def visit(x: str):
        if marks.get(x) == 2:
            return
        if marks.get(x) == 1:
            raise AlgebraError("cycle detected in project")
        marks[x] = 1
        for y, _t in project.M[x].entries:
            visit(y)
        marks[x] = 2
        order.append(x)

    for x in project.events:
        visit(x)
    order.reverse()

    seed_times = seed.as_dict()
    reached: dict[str, int] = {}
    for x in order:
        # best value available at x: seeded directly or reached along a path
        avail = max(seed_times.get(x, -1), reached.get(x, -1))
        if avail < 0:
            continue
        for y, w in project.M[x].entries:
            reached[y] = max(reached.get(y, -1), avail + w)
    return reached


def accumulated_times(trajectory) -> dict[str, int]:
    out: dict[str, int] = {}
    for sched in trajectory:
        for e, t in sched.entries:
            out[e] = max(out.get(e, -1), t)
    return out


def mu(a: Schedule) -> int:
    return max(t for _e, t in a.entries)


def pert_gamma(a: Schedule):
    """Dilatation descriptor of a schedule: the empty constant, or a delay."""
    if a.is_empty():
        return ("empty",)
    return ("delay", mu(a))


def apply_descriptor(descriptor, b: Schedule) -> Schedule:
    if descriptor[0] == "empty":
        return EMPTY
    return shift(b, descriptor[1])


def pert_nu(a: Schedule) -> int:
    """Identify a schedule's dilatation by a natural number, keeping 0 for empty."""
    return 0 if a.is_empty() else mu(a) + 1


def nu_successor(n: int) -> int:
    return 0 if n == 0 else n + 1


def nu_oplus(n: int, m: int) -> int:
    return n + m - 1 if n and m else 0


def pert_j(a: Schedule, events) -> dict:
    """Per-event dilatation descriptors; the isomorphism onto descriptor tuples."""
    adict = a.as_dict()
    if not set(adict) <= set(events):
        raise AlgebraError("schedule mentions events outside the event set")
    return {
        x: ("delay", adict[x]) if x in adict else ("empty",) for x in events
    }


def pert_j_inverse(delta: dict) -> Schedule:
    return Schedule.of({x: d[1] for x, d in delta.items() if d[0] == "delay"})


def random_schedule(rng: random.Random, events, max_time: int = 9) -> Schedule:
    return Schedule.of({
        e: rng.randint(0, max_time) for e in events if rng.random() < 0.5
    })


def random_project(rng: random.Random, max_events: int = 6,
                   max_time: int = 9) -> PertProject:
    n = rng.randint(1, max_events)
    events = tuple(f"e{i}" for i in range(n))
    order = list(events)
    rng.shuffle(order)
    M = {x: {} for x in events}
    for i, x in enumerate(order):
        for y in order[i + 1:]:
            if rng.random() < 0.4:
                M[x][y] = rng.randint(0, max_time)
    return PertProject(events, {x: Schedule.of(M[x]) for x in events})


def pert_algebra(events) -> Algebra:
    """Rule-based algebra of partial schedules over a fixed event set."""
    events = tuple(events)
    ops = (
        Operation("0", (), fn=lambda: EMPTY),
        Operation("join", ("l", "r"), fn=join),
        Operation("s", ("a",), fn=successor),
    )
    return Algebra(f"cpm-pert-{len(events)}", None, ops,
                   sampler=lambda rng: random_schedule(rng, events))
