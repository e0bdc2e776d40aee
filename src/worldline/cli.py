"""Command line front end.

Verbs:

* ``integral``: evaluate one named two-time integral, optionally with
  the reduction move log.
* ``verify``: run a named check case or the whole battery.
* ``catalog``: list the diagrams of a model at a given order.
* ``sphere``: run the spectral, scaling, and zeta cross-checks.
* ``measure-cancel``: run the measure cancellation rings.

Each handler imports only the layers its verb runs, so building the
parser loads no engine module.

Exit codes: 0 when everything passes, 1 when a check fails, 2 for
invalid input or a check that could not run.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from fractions import Fraction

# Annotations are not evaluated, so ``reports.CheckReport`` needs no import here.


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _fraction_argument(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as error:
        raise argparse.ArgumentTypeError(
            f"not a rational number: {text!r}"
        ) from error


def _report_payload(report: CheckReport, dump_moves: bool) -> dict:
    payload = {
        "check": report.check_name,
        "status": report.status,
        "expected": report.expected,
        "actual": report.actual,
        "tolerance": str(report.tolerance),
        "details": list(report.details),
    }
    if dump_moves and report.move_logs:
        payload["move_logs"] = report.move_logs
    return payload


def _print_moves(log: list[dict], indent: str) -> None:
    for entry in log:
        print(indent + ", ".join(f"{k}={v}" for k, v in sorted(entry.items())))


def _print_report(report: CheckReport, dump_moves: bool) -> None:
    print(f"[{report.status.upper()}] {report.check_name}")
    for detail in report.details:
        print(f"    {detail}")
    if report.status == "fail":
        for key in report.mismatches():
            expected = report.expected.get(key, "-")
            actual = report.actual.get(key, "-")
            print(f"    {key}: expected {expected}, got {actual}")
    if dump_moves and report.move_logs:
        for name, log in sorted(report.move_logs.items()):
            print(f"    moves[{name}]:")
            _print_moves(log, " " * 8)


def _emit_reports(reports: list[CheckReport], as_json: bool, dump_moves: bool) -> int:
    if as_json:
        payload = [_report_payload(report, dump_moves) for report in reports]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for report in reports:
            _print_report(report, dump_moves)
    if any(report.status == "error" for report in reports):
        return 2
    if any(report.status == "fail" for report in reports):
        return 1
    return 0


# ---------------------------------------------------------------------------
# verb handlers
# ---------------------------------------------------------------------------


def _run_integral(args: argparse.Namespace) -> int:
    from .integration import RULESETS
    from .reduction import evaluate_named

    rules = RULESETS[args.ruleset]
    log: list[dict] | None = [] if args.dump_moves else None
    try:
        value = evaluate_named(args.name, rules, log=log)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    if args.json:
        payload: dict[str, object] = {
            "name": args.name,
            "ruleset": rules.name,
            "value": value.text(),
        }
        if log is not None:
            payload["moves"] = log
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(f"{args.name} = {value.text()}")
        if log is not None:
            _print_moves(log, " " * 4)
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    from .checks import check_constraints, check_flat, check_seeley, run_standard_checks
    from .integration import RULESETS

    rules = RULESETS[args.ruleset]
    if args.case is None:
        reports = run_standard_checks(rules)
    elif args.case == "flat":
        reports = [check_flat(args.order, rules)]
    elif args.case == "arbitrary":
        reports = [check_constraints(rules)]
    else:  # "normal" and "seeley" are the same comparison
        reports = [check_seeley(args.order)]
    return _emit_reports(reports, args.json, args.dump_moves)


def _run_catalog(args: argparse.Namespace) -> int:
    from .diagrams import catalog
    from .geometry import FlatTransform, NormalCoords
    from .integration import RULESETS

    models = {"flat": FlatTransform, "normal": NormalCoords}
    rows = catalog(models[args.model](), args.order, RULESETS[args.ruleset])
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    for index, row in enumerate(rows, start=1):
        edges = " ".join(f"{kind}({a},{b})" for kind, a, b in row["edges"])
        print(
            f"{index:2d}. {row['shape']:13s} {' * '.join(row['vertices'])}"
            f" | weight {row['weight']} | edges {edges}"
            f" | label {row['tensor_label']} | value {row['value']}"
        )
    print(f"total {len(rows)} diagrams")
    return 0


def _run_sphere(args: argparse.Namespace) -> int:
    from .spectral import sphere_scaling_check, sphere_spectral_check, zeta_series_check

    reports = [
        sphere_spectral_check(
            dimension=args.dimension,
            radius=args.radius,
            beta=args.beta,
            l_max=args.lmax,
            tolerance=args.tolerance,
        ),
        sphere_scaling_check(
            dimension=args.dimension,
            radius=args.radius,
            l_max=args.lmax,
        ),
        zeta_series_check(),
    ]
    return _emit_reports(reports, args.json, dump_moves=False)


def _run_measure_cancel(args: argparse.Namespace) -> int:
    from .rings import PROFILES, measure_cancellation

    profiles = PROFILES if args.profile is None else [args.profile]
    reports = [
        measure_cancellation(profile, max_order=args.max_order)
        for profile in profiles
    ]
    return _emit_reports(reports, args.json, dump_moves=False)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="worldline",
        description="One-dimensional sigma-model regularization toolkit.",
    )
    subparsers = parser.add_subparsers(dest="verb", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--ruleset",
            choices=("dimreg", "modereg"),  # the keys of integration.RULESETS
            default="dimreg",
            help="regularization scheme (default: dimreg)",
        )
        sub.add_argument(
            "--json", action="store_true", help="machine-readable output"
        )

    integral = subparsers.add_parser(
        "integral", help="evaluate a named two-time integral"
    )
    integral.add_argument("name", help="integral name, for example I14")
    add_common(integral)
    integral.add_argument(
        "--dump-moves", action="store_true", help="print the reduction move log"
    )
    integral.set_defaults(handler=_run_integral)

    verify = subparsers.add_parser("verify", help="run consistency checks")
    verify.add_argument(
        "--case",
        choices=("flat", "normal", "arbitrary", "seeley"),
        default=None,
        help="single check case (default: the whole battery)",
    )
    verify.add_argument(
        "--order", type=int, choices=(1, 2), default=2, help="expansion order"
    )
    add_common(verify)
    verify.add_argument(
        "--dump-moves", action="store_true", help="print reduction move logs"
    )
    verify.set_defaults(handler=_run_verify)

    catalog_verb = subparsers.add_parser(
        "catalog", help="list the diagrams of a model"
    )
    catalog_verb.add_argument(
        "--model", choices=("flat", "normal"), default="flat", help="metric model"
    )
    catalog_verb.add_argument(
        "--order", type=int, choices=(1, 2), default=2, help="expansion order"
    )
    add_common(catalog_verb)
    catalog_verb.set_defaults(handler=_run_catalog)

    sphere = subparsers.add_parser("sphere", help="sphere spectrum cross-checks")
    sphere.add_argument("--dimension", type=int, default=3, help="embedding dimension")
    sphere.add_argument(
        "--radius", type=_fraction_argument, default=Fraction(1), help="sphere radius"
    )
    sphere.add_argument(
        "--beta",
        type=_fraction_argument,
        default=Fraction(1, 100),
        help="propagation time (rational, for example 0.01 or 1/100)",
    )
    sphere.add_argument("--lmax", type=int, default=1000, help="spectrum cutoff")
    sphere.add_argument(
        "--tolerance", type=float, default=1e-6, help="relative deviation bound"
    )
    sphere.add_argument("--json", action="store_true", help="machine-readable output")
    sphere.set_defaults(handler=_run_sphere)

    measure = subparsers.add_parser(
        "measure-cancel", help="measure cancellation rings"
    )
    measure.add_argument(
        "--profile",
        default=None,
        help="mass profile formula (default: all known profiles)",
    )
    measure.add_argument(
        "--max-order", type=int, default=6, help="highest ring order"
    )
    measure.add_argument("--json", action="store_true", help="machine-readable output")
    measure.set_defaults(handler=_run_measure_cancel)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_signal:
        code = exit_signal.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
