"""Command line front end.

Verbs:

* ``integral``: evaluate one named two-time integral, optionally with
  the reduction move log.
* ``verify``: run a named check case or the whole battery.
* ``catalog``: list the diagrams of a model at a given order.
* ``sphere``: run the spectral, scaling, and zeta cross-checks.
* ``measure-cancel``: run the measure cancellation rings.

One table lists every verb and its options.  ``main`` parses a command
line it fully understands from that table alone; help and every refusal
go through ``build_parser``, the argparse parser of the same table, so
only they load argparse.  Each handler imports only the layers its verb
runs, so parsing loads no engine module.

Exit codes: 0 when everything passes, 1 when a check fails or the
reader closes the pipe early, 2 for invalid input or a check that could
not run.
"""

from __future__ import annotations

import gc
import os
import sys
from collections.abc import Sequence
from fractions import Fraction
from types import SimpleNamespace

# Annotations are not evaluated, so ``reports.CheckReport`` and
# ``argparse.ArgumentParser`` need no import here.


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


# ``Fraction`` expands a decimal exponent into an exact power of ten, for
# seconds from 1e4000000 on, while both sphere routes leave double range past
# 1e+-308: an exponent beyond this bound is refused before ``Fraction`` sees it.
_MAX_EXPONENT = 1000


def _fraction_argument(text: str) -> Fraction:
    _, e, exponent = text.lower().partition("e")
    try:
        if not e or abs(int(exponent)) <= _MAX_EXPONENT:
            return Fraction(text)
        reason = f"decimal exponent out of range [-{_MAX_EXPONENT}, {_MAX_EXPONENT}]"
    except (ValueError, ZeroDivisionError):
        reason = "not a rational number"
    from argparse import ArgumentTypeError  # only a refusal pays for it

    raise ArgumentTypeError(f"{reason}: {text!r}")


def _print_json(payload: object) -> None:
    import json  # only a --json run pays for it

    print(json.dumps(payload, indent=2, sort_keys=True))


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
        _print_json([_report_payload(report, dump_moves) for report in reports])
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


def _run_integral(args: SimpleNamespace) -> int:
    from .integration import RULESETS
    from .reduction import evaluate_named

    rules = RULESETS[args.ruleset]
    log: list[dict] | None = [] if args.dump_moves else None
    value = evaluate_named(args.name, rules, log=log)
    if args.json:
        payload: dict[str, object] = {"name": args.name, "ruleset": rules.name, "value": value.text()}
        if log is not None:
            payload["moves"] = log
        _print_json(payload)
    else:
        print(f"{args.name} = {value.text()}")
        if log is not None:
            _print_moves(log, " " * 4)
    return 0


def _run_verify(args: SimpleNamespace) -> int:
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


def _run_catalog(args: SimpleNamespace) -> int:
    from .diagrams import catalog
    from .geometry import FlatTransform, NormalCoords
    from .integration import RULESETS

    models = {"flat": FlatTransform, "normal": NormalCoords}
    rows = catalog(models[args.model](), args.order, RULESETS[args.ruleset])
    if args.json:
        _print_json(rows)
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


def _run_sphere(args: SimpleNamespace) -> int:
    from .spectral import sphere_scaling_check, sphere_spectral_check, zeta_series_check

    reports = [
        sphere_spectral_check(
            dimension=args.dimension, radius=args.radius, beta=args.beta, l_max=args.lmax,
            tolerance=args.tolerance,
        ),
        sphere_scaling_check(dimension=args.dimension, radius=args.radius, l_max=args.lmax),
        zeta_series_check(),
    ]
    return _emit_reports(reports, args.json, dump_moves=False)


def _run_measure_cancel(args: SimpleNamespace) -> int:
    from .rings import PROFILES, measure_cancellation

    profiles = PROFILES if args.profile is None else [args.profile]
    reports = [measure_cancellation(profile, max_order=args.max_order) for profile in profiles]
    return _emit_reports(reports, args.json, dump_moves=False)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# Each verb: its help, its positional argument as (name, help) or None, its
# handler, and its options in the order argparse lists them, each as (flag,
# type, choices, default, help), with ``bool`` for a flag and None for a
# string.  The choices spell out the engine's tables (``--ruleset`` takes the
# keys of ``integration.RULESETS``), so parsing loads no engine module.
_RULESET = ("--ruleset", None, ("dimreg", "modereg"), "dimreg", "regularization scheme (default: dimreg)")
_JSON = ("--json", bool, None, False, "machine-readable output")
_ORDER = ("--order", int, (1, 2), 2, "expansion order")
_VERBS = {
    "integral": ("evaluate a named two-time integral", ("name", "integral name, for example I14"), _run_integral, (
        _RULESET, _JSON, ("--dump-moves", bool, None, False, "print the reduction move log"))),
    "verify": ("run consistency checks", None, _run_verify, (
        ("--case", None, ("flat", "normal", "arbitrary", "seeley"), None,
         "single check case (default: the whole battery)"),
        _ORDER, _RULESET, _JSON, ("--dump-moves", bool, None, False, "print reduction move logs"))),
    "catalog": ("list the diagrams of a model", None, _run_catalog, (
        ("--model", None, ("flat", "normal"), "flat", "metric model"), _ORDER, _RULESET, _JSON)),
    "sphere": ("sphere spectrum cross-checks", None, _run_sphere, (
        ("--dimension", int, None, 3, "embedding dimension"),
        ("--radius", _fraction_argument, None, Fraction(1), "sphere radius"),
        ("--beta", _fraction_argument, None, Fraction(1, 100),
         "propagation time (rational, for example 0.01 or 1/100)"),
        ("--lmax", int, None, 1000, "spectrum cutoff"),
        ("--tolerance", float, None, 1e-6, "relative deviation bound"),
        _JSON)),
    "measure-cancel": ("measure cancellation rings", None, _run_measure_cancel, (
        ("--profile", None, None, None, "mass profile formula (default: all known profiles)"),
        ("--max-order", int, None, 6, "highest ring order"),
        _JSON)),
}


def _parse_exact(argv: list[str]) -> SimpleNamespace | None:
    """The attributes argparse sets for ``argv``, or None where only argparse can tell.

    It takes a known verb first, exact long options each at most once, option
    values that do not start with ``-``, conversions that succeed, choices
    that are met and the verb's number of positional arguments.  Help,
    abbreviations, ``--opt=value``, repeats, negative numbers and every
    refusal are argparse's.
    """
    if not argv or argv[0] not in _VERBS:
        return None
    _, positional, handler, options = _VERBS[argv[0]]
    unseen = {option[0]: option for option in options}
    found = {option[0]: option[3] for option in options}
    words = []
    rest = iter(argv[1:])
    for word in rest:
        if not word.startswith("-"):
            words.append(word)
            continue
        option = unseen.pop(word, None)
        if option is None:
            return None
        _, kind, choices, _, _ = option
        if kind is bool:
            found[word] = True
            continue
        text = next(rest, "-")  # a missing value reads as "-"
        if text.startswith("-"):
            return None
        try:
            value = text if kind is None else kind(text)
        except Exception:  # argparse converts it again and words the refusal
            return None
        if choices is not None and value not in choices:
            return None
        found[word] = value
    if len(words) != (positional is not None):
        return None
    found = {flag[2:].replace("-", "_"): value for flag, value in found.items()}
    return SimpleNamespace(verb=argv[0], handler=handler, **found, **dict(zip(positional or (), words)))


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the verb table, which ``main`` runs for help and refusals."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="worldline", description="One-dimensional sigma-model regularization toolkit."
    )
    subparsers = parser.add_subparsers(dest="verb", required=True)
    for verb, (text, positional, handler, options) in _VERBS.items():
        sub = subparsers.add_parser(verb, help=text)
        if positional is not None:
            sub.add_argument(positional[0], help=positional[1])
        for flag, kind, choices, default, text in options:
            if kind is bool:
                sub.add_argument(flag, action="store_true", help=text)
            else:
                sub.add_argument(flag, type=kind, choices=choices, default=default, help=text)
        sub.set_defaults(handler=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command line and return its exit code.

    Without ``argv``, as all three entry points call it, ``main`` is the
    program: it freezes the garbage collector before it returns, since the
    process exits next, and finalization's full collection, run even under
    ``gc.disable()``, then skips the ~12,000 objects a verb leaves tracked.
    Given ``argv``, the caller runs on, so nothing is frozen.
    """
    if argv is None:
        try:
            code = main(sys.argv[1:])
            # A closed pipe raises here, not at exit; print skips a closed stdout.
            print(end="", flush=True)
            return code
        except BrokenPipeError:
            # The exit flushes stdout again: send it nowhere.
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
            return 1
        finally:
            gc.freeze()
    argv = list(argv)
    args = _parse_exact(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
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
