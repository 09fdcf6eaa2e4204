"""Command-line entry point.

Subcommands:

* ``generate``  write a random workload XML file
* ``run``       simulate one workload under one heuristic
* ``compare``   sweep heuristics x seeds over generated or given workloads
* ``verify``    cross-check the router and placement heuristics against
                exhaustive oracles

Exit codes: 0 success, 1 usage, 2 I/O, 3 validation, 4 oracle failure
(``verify``) or broken engine invariant (``run --check``).
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .heuristics import HEURISTIC_NAMES
from .model import ArchGraph, ValidationError
from .oracles import InvariantError, check_placement, check_routing, check_spiral
from .routing import RoutePolicy
from .sim import DeadlockError, Scenario, SimReport, run_comparison, simulate, write_event_log
from .workload import GenConfig, generate_workload, parse_workload_file, write_report, write_workload

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_VALIDATION = 3
EXIT_ORACLE = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _build_arch(args: argparse.Namespace) -> ArchGraph:
    layout_file = getattr(args, "layout_file", None)
    if layout_file:
        with open(layout_file, "r", encoding="utf-8") as fh:
            try:
                layout = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"layout file {layout_file}: {exc}") from None
        try:
            return ArchGraph.uniform(
                layout["width"],
                layout["height"],
                manager=tuple(layout.get("manager", (0, 0))),
                ra=[tuple(c) for c in layout.get("ra", ())],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"layout file {layout_file}: bad structure ({exc})") from None
    width = getattr(args, "width", 8)
    height = getattr(args, "height", 8)
    if (width, height) == (8, 8):
        return ArchGraph.default_8x8()
    # Custom meshes without a layout file carry no hardware tiles; workloads
    # with hardware tasks then fail platform validation.
    return ArchGraph.uniform(width, height)


def _add_mesh_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--width", type=int, default=8, help="mesh width (default 8)")
    p.add_argument("--height", type=int, default=8, help="mesh height (default 8)")
    p.add_argument("--layout-file", help="JSON tile layout overriding width/height")


def cmd_generate(args: argparse.Namespace) -> int:
    if args.apps < 1:
        raise _UsageError("--apps must be >= 1")
    apps = generate_workload(GenConfig(app_count=args.apps, seed=args.seed))
    write_workload(apps, args.out)
    print(f"wrote {len(apps)} applications to {args.out}")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    apps = parse_workload_file(args.workload)
    arch = _build_arch(args)
    report = simulate(
        Scenario(apps=apps, heuristic=args.heuristic, route_policy=args.route,
                 seed=args.seed, arch=arch),
        check=args.check,
    )
    write_report([report], args.out)
    if args.events:
        write_event_log(report.event_log, args.events)
    print(
        f"{report.heuristic}: makespan={report.makespan} total_energy={report.total_energy} "
        f"peak_link_load={report.peak_link_load}"
    )
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    heuristics = [h.strip() for h in args.heuristics.split(",") if h.strip()]
    if not heuristics:
        raise _UsageError(f"--heuristics names no heuristic: {args.heuristics!r}")
    for h in heuristics:
        if h not in HEURISTIC_NAMES:
            raise _UsageError(
                f"unknown heuristic {h!r} (valid: {', '.join(HEURISTIC_NAMES)})"
            )
    if args.seeds < 1:
        raise _UsageError("--seeds must be >= 1")
    if (args.workload is None) == (args.apps is None):
        raise _UsageError("exactly one of --workload or --apps is required")
    if args.apps is not None and args.apps < 1:
        raise _UsageError("--apps must be >= 1")
    arch = _build_arch(args)
    given = None if args.workload is None else parse_workload_file(args.workload)
    reports: list[SimReport] = []
    for seed in range(1, args.seeds + 1):
        apps = given or generate_workload(GenConfig(app_count=args.apps, seed=seed))
        reports += run_comparison(
            [Scenario(apps=apps, heuristic=h, route_policy=args.route, seed=seed, arch=arch)
             for h in heuristics]
        )
    write_report(reports, args.out)
    for line in summarize(reports):
        print(line)
    return EXIT_OK


def summarize(reports: Sequence[SimReport]) -> list[str]:
    """Per-heuristic means over the sorted report rows."""
    ordered = sorted(reports, key=lambda r: (r.heuristic, r.seed))
    lines = []
    for h in sorted({r.heuristic for r in ordered}):
        rows = [r for r in ordered if r.heuristic == h]
        n = len(rows)
        lines.append(
            f"{h} runs={n}"
            f" makespan={sum(r.makespan for r in rows) / n!r}"
            f" total_energy={sum(r.total_energy for r in rows) / n!r}"
            f" peak_link_load={sum(r.peak_link_load for r in rows) / n!r}"
            f" mapping_evaluations={sum(r.mapping_evaluations for r in rows) / n!r}"
            f" max_queue_wait={sum(r.max_queue_wait for r in rows) / n!r}"
        )
    return lines


# ---------------------------------------------------------------------------
# verify: oracle suites


def cmd_verify(args: argparse.Namespace) -> int:
    suites = {"routing": check_routing, "placement": check_placement, "spiral": check_spiral}
    if args.suite:
        if args.suite not in suites:
            raise _UsageError(f"unknown suite {args.suite!r} (valid: {', '.join(suites)})")
        suites = {args.suite: suites[args.suite]}
    total_failures = 0
    for name, run_suite in suites.items():
        checks, failures, counterexample = run_suite()
        if counterexample is not None:
            print(f"  counterexample: {counterexample}")
        total_failures += failures
        print(f"suite {name}: {checks} checks, {failures} failures")
    return EXIT_ORACLE if total_failures else EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nocmap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a random workload XML file")
    p.add_argument("--apps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("run", help="simulate one workload under one heuristic")
    p.add_argument("--workload", required=True)
    p.add_argument("--heuristic", required=True, choices=HEURISTIC_NAMES)
    p.add_argument("--route", choices=[rp.value for rp in RoutePolicy])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--events", help="also write the event log CSV here")
    p.add_argument("--check", action="store_true",
                   help="check the engine invariants after every event batch (exit 4 if one breaks)")
    _add_mesh_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="sweep heuristics x seeds")
    p.add_argument("--heuristics", required=True, help="comma-separated heuristic names")
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--apps", type=int, help="generate workloads with this many applications")
    p.add_argument("--workload", help="use this workload file for every cell")
    p.add_argument("--route", choices=[rp.value for rp in RoutePolicy])
    p.add_argument("--out", required=True)
    _add_mesh_flags(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify", help="run the oracle cross-check suites")
    p.add_argument("--suite", help="run only this suite (routing, placement, spiral)")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValidationError, DeadlockError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except InvariantError as exc:
        print(f"invariant failed: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
