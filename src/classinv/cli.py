"""Command-line entry point.

Subcommands:
  run         run catalogued verification cases (default when flags given)
  degenerate  compute a flat limit for a case and report target equality
  tangent     run a case's tangent-space checks
  dims        closed-form dimension/flatness data for a situation
  orbit       nilpotent orbit facts from a partition

Exit codes: 0 all checks pass, 1 some check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import List, Optional

from . import catalog, checks, degeneration, orbits, tangent
from .groebner import ideal_equal
from .poly import serialize


def _print_report_text(report: checks.Report, out) -> None:
    out.write(f"case {report.case}\n")
    for c in report.checks:
        out.write(f"  [{c.verdict:>11s}] {c.name}: {c.citation}\n")
        if c.verdict == "fail":
            out.write(f"      expected {c.expected}\n")
            out.write(f"      computed {c.computed}\n")


def _cmd_run(args) -> int:
    if args.list_cases:
        for name in catalog.case_names():
            print(name)
        return 0
    deadline = (
        time.monotonic() + args.time_budget if args.time_budget is not None else None
    )
    if args.all:
        names = None
    elif args.case:
        if args.case not in catalog.case_names():
            print(f"unknown case {args.case!r}", file=sys.stderr)
            return 2
        names = [args.case]
    else:
        print("choose --case NAME, --all, or --list-cases", file=sys.stderr)
        return 2
    reports = checks.run_all(pmax=args.pmax, deadline=deadline, names=names)
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    else:
        for r in reports:
            _print_report_text(r, sys.stdout)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_degenerate(args) -> int:
    try:
        case = catalog.get_case(args.case)
        weights = tuple(int(v) for v in args.weights.split(","))
    except (KeyError, ValueError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    cols = degeneration._column_letters(case.ring)
    if len(weights) != len(cols):
        print(f"need {len(cols)} weights for case {args.case}", file=sys.stderr)
        return 2
    w = degeneration.expand_column_weights(case.ring, weights, cols)
    try:
        source = case.ideal("L")
    except KeyError:
        print(f"case {args.case!r} has no catalogued fiber ideal", file=sys.stderr)
        return 2
    limit = degeneration.flat_limit(source, w)
    basis = limit.groebner_basis()
    print(f"flat limit of the fiber ideal under column weights {weights}:")
    for g in basis:
        print(f"  {serialize(g)}")
    verdicts = []
    for dname, ideal in case.ideals.items():
        if dname.startswith("I") and ideal.is_homogeneous():
            verdicts.append((dname, ideal_equal(limit, ideal)))
    for dname, ok in verdicts:
        print(f"equal to {dname}: {ok}")
    return 0 if any(ok for _, ok in verdicts) else 1


def _cmd_tangent(args) -> int:
    try:
        report = tangent.tangent_report(args.case)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    print(f"case {report.case}")
    if report.generates is not None:
        print(f"  generators generate the ideal: {report.generates}")
    for name, ok in report.relation_results:
        print(f"  relation {name}: {'ok' if ok else 'FAILED'}")
    if report.rank is not None:
        print(f"  rank of the pairing matrix: {report.rank}"
              + (f" (expected {report.expected_rank})" if report.expected_rank else ""))
    lo, hi = report.bounds
    print(f"  tangent dimension bounds: [{lo}, {hi}]")
    for d in report.details:
        print(f"  note: {d}")
    ok = (
        (report.generates in (None, True))
        and all(okk for _, okk in report.relation_results)
        and (report.rank is None or report.rank == report.expected_rank)
    )
    return 0 if ok else 1


def _cmd_dims(args) -> int:
    sit = args.situation
    try:  # every line is computed, so every parameter checked, before any is printed
        params = tuple(int(v) for v in args.params.split(","))
        lines = [f"situation {sit}, parameters {params}"]
        if sit not in ("SL", "SO"):  # no closed-form nilcone for SL or SO
            lines.append(f"  nilcone dimension: {orbits.nilcone_dim(sit, params)}")
        if sit in ("GL", "O", "Sp"):
            locus = orbits.flatness_locus(sit, params)
            lines.append(f"  flatness locus (stratum indices): {locus}")
            lines.append(f"  flat everywhere: {orbits.flat_everywhere(sit, params)}")
            N = orbits.max_rank(sit, params)
            fibers = [orbits.fiber_dim(sit, params, r) for r in range(N + 1)]
            lines.append(f"  fiber dimensions by stratum: {fibers}")
        if sit in ("GL", "O", "SL", "SO", "Sp"):
            lines.append(f"  gorenstein: {orbits.gorenstein(sit, params)}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


def _cmd_orbit(args) -> int:
    try:
        p = orbits.Partition(tuple(int(v) for v in args.partition.split(",")))
        label = orbits.OrbitLabel(args.type, p.total, p, tag=args.tag)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"orbit {label}")
    print(f"  dimension: {orbits.orbit_dim(label)}")
    print(f"  very even partition: {p.is_very_even()}")
    if args.type in ("sp", "so"):
        print(f"  admits a symplectic resolution: {orbits.has_symplectic_resolution(label)}")
    return 0


def _nonnegative(kind):
    """An argparse type: a finite `kind` (int or float) value >= 0."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
        if not value < math.inf:  # inf, or nan, which no comparison holds for
            raise argparse.ArgumentTypeError(f"must be finite, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="classinv",
        description="verification suite for classical invariant-theory computations",
    )
    sub = ap.add_subparsers(dest="command")

    run = sub.add_parser("run", help="run catalogued verification cases")
    run.add_argument("--case", help="single case to run")
    run.add_argument("--all", action="store_true", help="run every case")
    run.add_argument("--list-cases", action="store_true", help="list the registry")
    run.add_argument("--pmax", type=_nonnegative(int), default=6, help="largest Hilbert degree")
    run.add_argument("--format", choices=("text", "json"), default="text")
    run.add_argument("--time-budget", type=_nonnegative(float), default=None, metavar="SECONDS")

    deg = sub.add_parser("degenerate", help="compute a one-parameter flat limit")
    deg.add_argument("--case", required=True)
    deg.add_argument("--weights", required=True, help="comma-separated column weights")

    tan = sub.add_parser("tangent", help="tangent-space checks for a case")
    tan.add_argument("--case", required=True)

    dims = sub.add_parser("dims", help="closed-form dimension data")
    dims.add_argument("--situation", required=True, choices=("GL", "SL", "O", "SO", "Sp", "GLsym", "Osym", "Spsym"))
    dims.add_argument("--params", required=True, help="comma-separated parameters")

    orb = sub.add_parser("orbit", help="nilpotent orbit facts")
    orb.add_argument("--type", required=True, choices=("gl", "sp", "so"))
    orb.add_argument("--partition", required=True, help="comma-separated parts")
    orb.add_argument("--tag", choices=("I", "II"), default=None)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.command == "run" or args.command is None:
        if args.command is None:
            # bare invocation: behave like `run --list-cases`
            args = ap.parse_args(["run", "--list-cases"])
        return _cmd_run(args)
    if args.command == "degenerate":
        return _cmd_degenerate(args)
    if args.command == "tangent":
        return _cmd_tangent(args)
    if args.command == "dims":
        return _cmd_dims(args)
    if args.command == "orbit":
        return _cmd_orbit(args)
    ap.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())
