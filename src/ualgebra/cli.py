"""Command-line surface: endomorphism counts, basis checks, dilatation
analysis, commutativity reports and the gallery runners.

Reports are deterministic given the same inputs and --seed: the report body
is assembled in a fixed order and serialized with sorted keys; wall-clock
timings live outside the body.  Exit code 0 means every finding passed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

from . import gallery
from .commutativity import check_conjugate_commutation, check_closure_commutation, is_commutative
from .core import AlgebraError, GuardExceeded, load_algebra
from .dilatation import (
    analyze_dilatations,
    build_endowed_monoid,
    check_distributivities,
    check_fullness_pipeline,
    monoid_to_dict,
)
from .gallery.semilattice import MAX_GROUND
from .representation import build_representation, enumerate_endomorphisms, load_frame, verify_basis_equivalence


def _check_flags(args) -> None:
    """Reject flag values that would be clamped or make a check vacuous."""
    for flag, least in (("samples", 1), ("max_carrier", 1), ("guard_tables", 0), ("Y", 0)):
        value = getattr(args, flag, least)  # --Y exists for commutative only
        if value < least:
            raise AlgebraError(f"--{flag.replace('_', '-')} {value} is below {least}")


def _load_algebra(args):
    alg = load_algebra(args.algebra)
    if len(alg.carrier) > args.max_carrier:
        raise GuardExceeded(f"carrier size {len(alg.carrier)} over --max-carrier")
    return alg


def _medial_as_dict(r):
    out = {"pair": list(r.pair), "holds": r.holds, "mode": r.mode}
    if r.witness is not None:
        m_rows, lhs, rhs = r.witness
        out["witness"] = {"m": [list(row) for row in m_rows], "lhs": lhs, "rhs": rhs}
    return out


def cmd_endos(args) -> dict:
    alg = _load_algebra(args)
    endos = enumerate_endomorphisms(alg, method=args.method)
    report = {"status": "pass", "count": len(endos), "method": args.method}
    if args.list:
        report["endos"] = sorted(list(h.values) for h in endos)
    return report


def cmd_basis(args) -> dict:
    alg = _load_algebra(args)
    frame = load_frame(args.frame)
    rep = build_representation(alg, frame)
    check = verify_basis_equivalence(alg, frame, rep=rep, samples=args.samples,
                                     seed=args.seed)
    report = {"basis": rep.bijective, "endo_count": len(rep.endos), "basis_equivalence": check}
    if rep.failure:
        report["failure"] = {
            "reason": rep.failure["reason"],
            "matrix": [alg.carrier.elements[a] for a in rep.failure["matrix"]],
        }
    ok = check["biconditional_ok"] and check.get("e_chi_equals_e_alpha", True) \
        and check.get("chi_routes_agree", True)
    report["status"] = "pass" if ok else "fail"
    return report


def cmd_dilatations(args) -> dict:
    alg = _load_algebra(args)
    frame = load_frame(args.frame)
    rep = build_representation(alg, frame)
    if not rep.bijective:
        return {"status": "skipped", "reason": "sampling is not bijective",
                "failure": rep.failure["reason"]}
    analysis = analyze_dilatations(rep, guard=args.guard_tables)
    report = {
        "delta_size": len(analysis.delta),
        "indicator_count": len(analysis.gamma),
        "full": analysis.full,
        "routes_agree": analysis.routes_agree,
    }
    monoid, info = build_endowed_monoid(analysis)
    report["monoid"] = monoid is not None
    report["monoid_info"] = info
    if monoid is not None:
        dist = check_distributivities(monoid, analysis)
        report["distributivities"] = dist["status"]
        if args.emit_monoid:
            with open(args.emit_monoid, "w", encoding="utf-8") as fh:
                json.dump(monoid_to_dict(monoid), fh, indent=2, sort_keys=True)
                fh.write("\n")
    check = check_fullness_pipeline(alg, frame, rep=rep, samples=args.samples, seed=args.seed,
                                    analysis=analysis, endowed=(monoid, info))
    report["fullness_pipeline"] = check["status"]
    ok = analysis.routes_agree and check["status"] == "pass" \
        and report.get("distributivities", "pass") == "pass"
    report["status"] = "pass" if ok else "fail"
    return report


def cmd_commutative(args) -> dict:
    alg = _load_algebra(args)
    frame = load_frame(args.frame) if args.frame else None
    if frame is not None:
        frame.codes(alg.carrier)  # a frame outside the carrier fails before any check
    commutative, reports = is_commutative(alg, samples=args.samples, seed=args.seed)
    report = {
        "commutative": commutative,
        "pairs": [_medial_as_dict(r) for r in reports],
        "status": "pass",
    }
    Y = tuple(f"y{i}" for i in range(args.Y))
    cc = check_closure_commutation(alg, Y, commutative, guard=args.guard_tables)
    report["closure_commutation"] = {"status": cc["status"],
                                     "closure_size": cc.get("closure_size")}
    if cc["status"] in ("fail", "guard-exceeded"):
        # a closure never checked to the end is not a pass
        report["status"] = cc["status"]
    if frame is not None:
        if not commutative:
            # as for closure_commutation: the claim is about commutative algebras
            report["conjugate_commutation"] = "skipped"
        else:
            cor = check_conjugate_commutation(build_representation(alg, frame))
            report["conjugate_commutation"] = cor["status"]
            if cor["status"] == "fail":
                report["status"] = "fail"
    return report


def cmd_gallery(args) -> dict:
    name = args.name
    if name == "semilattice":
        if not 1 <= args.size <= MAX_GROUND:
            raise AlgebraError(f"--size {args.size} outside 1..{MAX_GROUND}")
        ground = tuple("xyzw"[: args.size])
        alg, frame = gallery.build_powerset_semilattice(ground)
        rep = build_representation(alg, frame)
        twin, _j = gallery.incidence_transform(alg, ground)
        isomorphic = gallery.is_bitwise_twin(twin)
        return {
            "status": "pass" if rep.bijective and isomorphic else "fail",
            "carrier": len(alg.carrier),
            "endo_count": len(rep.endos),
            "bijective": rep.bijective,
            "incidence_isomorphic": isomorphic,
        }
    if name == "boolean":
        alg, frame = gallery.build_boolean_example()
        rep = build_representation(alg, frame)
        analysis = analyze_dilatations(rep)
        commutative, _ = is_commutative(alg)
        return {
            "status": "pass",
            "endo_count": len(rep.endos),
            "commutative": commutative,
            "delta_size": len(analysis.delta),
            "indicators": sorted(alg.carrier.elements[d] for d in analysis.gamma),
            "full": analysis.full,
        }
    if name == "integers":
        rep = gallery.integers_check(samples=args.samples, seed=args.seed)
        return rep
    if name == "gaussian":
        rep = gallery.gaussian_check(samples=args.samples, seed=args.seed)
        return rep
    if name == "pert":
        if not args.project:
            raise AlgebraError("gallery pert needs a project file")
        project = gallery.load_project(args.project)
        report = {"events": list(project.events)}
        if args.forward:
            seed_event = args.seed_event or project.events[0]
            seed = gallery.Schedule.of({seed_event: 0})
            trajectory = gallery.pert_forward_pass(project, seed)
            from .gallery.pert import accumulated_times, longest_path_times
            acc = accumulated_times(trajectory)
            oracle = longest_path_times(project, seed)
            report["trajectory"] = [s.as_dict() for s in trajectory]
            report["accumulated"] = acc
            report["oracle_agrees"] = acc == oracle
            report["status"] = "pass" if acc == oracle else "fail"
        else:
            report["status"] = "pass"
        return report
    raise AlgebraError(f"unknown gallery entry {name!r}")


@functools.cache  # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ualgebra",
                                     description="finite universal algebra workbench")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=1000)
    parser.add_argument("--max-carrier", type=int, default=8)
    parser.add_argument("--guard-tables", type=int, default=10_000)
    parser.add_argument("--text", action="store_true", help="plain text instead of JSON")
    parser.add_argument("--out", help="write the report to a file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("endos", help="enumerate endomorphisms of an algebra file")
    p.add_argument("algebra")
    p.add_argument("--method", choices=("brute", "backtrack"), default="backtrack")
    p.add_argument("--list", action="store_true")
    p.set_defaults(run=cmd_endos)

    p = sub.add_parser("basis", help="check a frame is a basis and the generator-bijection equivalence")
    p.add_argument("algebra")
    p.add_argument("frame")
    p.set_defaults(run=cmd_basis)

    p = sub.add_parser("dilatations", help="dilatation analysis and endowed monoid")
    p.add_argument("algebra")
    p.add_argument("frame")
    p.add_argument("--emit-monoid", help="write the endowed monoid to this JSON file")
    p.set_defaults(run=cmd_dilatations)

    p = sub.add_parser("commutative", help="medial-law checks")
    p.add_argument("algebra")
    p.add_argument("--frame", help="frame file, enables the conjugate-algebra check")
    p.add_argument("--Y", type=int, default=1, help="arity for the elementary-pair check")
    p.set_defaults(run=cmd_commutative)

    p = sub.add_parser("gallery", help="run a built-in example")
    p.add_argument("name", choices=("semilattice", "pert", "integers", "gaussian", "boolean"))
    p.add_argument("project", nargs="?", help="project file (pert only)")
    p.add_argument("--size", type=int, default=2, help="ground-set size (semilattice)")
    p.add_argument("--forward", action="store_true", help="run the forward pass (pert)")
    p.add_argument("--seed-event", help="event seeded at time 0 (pert)")
    p.set_defaults(run=cmd_gallery)

    return parser


def run(argv=None) -> tuple[dict, int]:
    return execute(build_parser().parse_args(argv))


def execute(args) -> tuple[dict, int]:
    started = time.perf_counter()
    try:
        _check_flags(args)
        body = args.run(args)
    except GuardExceeded as exc:  # says which guard tripped
        body = {"status": "guard-exceeded", "reason": str(exc)}
    except AlgebraError as exc:
        body = {"status": "fail", "error": str(exc)}
    body = {
        "command": args.command,
        "inputs": _inputs_of(args),
        "seed": args.seed,
        **body,
    }
    elapsed = time.perf_counter() - started
    output = {"report": body, "timings": {"seconds": round(elapsed, 3)}}
    code = 0 if body.get("status") == "pass" else 1
    return output, code


def _inputs_of(args) -> list[str]:
    out = []
    for attr in ("algebra", "frame", "name", "project"):
        value = getattr(args, attr, None)
        if value:
            out.append(value)
    return out


def render(output: dict, text: bool) -> str:
    if not text:
        return json.dumps(output, indent=2, sort_keys=True)
    body = output["report"]
    lines = [f"{body['command']}: {body.get('status')}"]
    for key, value in body.items():
        if key in ("command", "status"):
            continue
        lines.append(f"  {key}: {value}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    output, code = execute(args)
    rendered = render(output, args.text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
    else:
        print(rendered)
    return code


if __name__ == "__main__":
    sys.exit(main())
