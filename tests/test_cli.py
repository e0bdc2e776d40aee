"""Tests for the command line front end."""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from worldline import diagrams, geometry
from worldline.cli import (
    _fraction_argument,
    _parse_exact,
    _run_catalog,
    _run_integral,
    _run_measure_cancel,
    _run_sphere,
    _run_verify,
    build_parser,
    main,
)
from worldline.integration import RULESETS
from worldline.reduction import FINITE_ALIASES, NAMED_INTEGRALS

# ---------------------------------------------------------------------------
# integral verb
# ---------------------------------------------------------------------------


def test_integral_prints_the_value(capsys: pytest.CaptureFixture) -> None:
    code = main(["integral", "I14"])
    assert code == 0
    assert capsys.readouterr().out == "I14 = 1/24 * beta\n"


def test_integral_honors_the_ruleset(capsys: pytest.CaptureFixture) -> None:
    assert main(["integral", "I15R", "--ruleset", "modereg"]) == 0
    assert capsys.readouterr().out == "I15R = -1/4 * beta\n"


_UNKNOWN_I99 = (
    "unknown integral name 'I99'; known names: "
    "I10, I11, I12, I13, I14, I15, I2, I4, I6, I7, I8, I9, I15R, I2R, I8R\n"
)


def test_integral_rejects_unknown_names(capsys: pytest.CaptureFixture) -> None:
    # Refused on main's one path for bad input: one line, exit 2.
    assert main(["integral", "I99"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", _UNKNOWN_I99)
    run = subprocess.run(
        [sys.executable, "-m", "worldline", "integral", "I99"], capture_output=True, text=True, env=_ENV
    )
    assert (run.returncode, run.stdout, run.stderr) == (2, "", _UNKNOWN_I99)


def test_integral_json_is_deterministic(capsys: pytest.CaptureFixture) -> None:
    assert main(["integral", "I7", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["integral", "I7", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload == {"name": "I7", "ruleset": "DimReg", "value": "-1/720 * beta^2"}


def test_integral_dump_moves(capsys: pytest.CaptureFixture) -> None:
    assert main(["integral", "I14", "--dump-moves", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    moves = [entry["move"] for entry in payload["moves"]]
    assert "PartialIntegration" in moves
    assert "FixedPoint" in moves


# ---------------------------------------------------------------------------
# verify verb
# ---------------------------------------------------------------------------


def test_verify_battery_passes(capsys: pytest.CaptureFixture) -> None:
    code = main(["verify"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[PASS]") == 11
    assert "[FAIL]" not in out


def test_verify_battery_flags_mode_scheme(capsys: pytest.CaptureFixture) -> None:
    code = main(["verify", "--ruleset", "modereg"])
    out = capsys.readouterr().out
    assert code == 1
    assert "[FAIL] flat_sum_order2" in out
    assert "[FAIL] first_order_constraints" in out
    assert "expected 0, got -1/36 * beta^2" in out


def test_verify_single_cases(capsys: pytest.CaptureFixture) -> None:
    for case in ("flat", "normal", "arbitrary", "seeley"):
        assert main(["verify", "--case", case]) == 0
        assert "[PASS]" in capsys.readouterr().out


def test_verify_order_one_flat(capsys: pytest.CaptureFixture) -> None:
    assert main(["verify", "--case", "flat", "--order", "1"]) == 0
    assert "flat_sum_order1" in capsys.readouterr().out


def test_verify_json_payload(capsys: pytest.CaptureFixture) -> None:
    assert main(["verify", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 11
    assert all(report["status"] == "pass" for report in payload)
    names = [report["check"] for report in payload]
    assert names[0] == "flat_sum_order1"


def test_verify_dump_moves_includes_logs(capsys: pytest.CaptureFixture) -> None:
    assert main(["verify", "--case", "arbitrary", "--dump-moves"]) == 0
    out = capsys.readouterr().out
    assert "moves[I14]:" in out
    assert "move=FixedPoint" in out


@pytest.mark.parametrize(
    "argv, code, digest",
    [
        (["integral", "I14", "--dump-moves"], 0,
         "3727336619b7a706c595e5ca7699422ef08df64974fb0f750972ad42b1cfebd8"),
        (["integral", "I14", "--dump-moves", "--ruleset", "modereg"], 0,
         "7caa6fc94a9b37efae1ea3931ccda10a9a72cc3c84ae313f37b19fdbf65163f1"),
        (["verify", "--case", "arbitrary", "--json", "--dump-moves"], 0,
         "5044c2451e1dfc4dc3e500451c96b24f07def3952173e39d47cf3a37a4a58979"),
        (["verify", "--case", "arbitrary", "--json", "--dump-moves", "--ruleset", "modereg"], 1,
         "886a70f991cd49b8c96a270570961d3a69167532fa1651a3f46aa1efd5f5b66e"),
    ],
)
def test_move_logs_keep_their_output(argv: list, code: int, digest: str, capsys: pytest.CaptureFixture) -> None:
    # No stored reference covers the move-log paths; these hashes pin their
    # stdout, cold or warm memo alike.
    for _ in range(2):
        assert main(argv) == code
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_verify_rejects_unknown_case(capsys: pytest.CaptureFixture) -> None:
    assert main(["verify", "--case", "spherical"]) == 2
    assert "invalid choice" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# catalog verb
# ---------------------------------------------------------------------------


def test_catalog_lists_flat_second_order(capsys: pytest.CaptureFixture) -> None:
    assert main(["catalog", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 17
    shapes = Counter(row["shape"] for row in rows)
    assert shapes == {
        "single_vertex": 3,
        "measure_pair": 4,
        "three_bubble": 7,
        "watermelon": 3,
    }


def test_catalog_text_mode_counts(capsys: pytest.CaptureFixture) -> None:
    assert main(["catalog", "--model", "normal", "--order", "1"]) == 0
    out = capsys.readouterr().out
    assert "total 3 diagrams" in out
    assert "curvature_kinetic" in out


def test_catalog_json_is_deterministic(capsys: pytest.CaptureFixture) -> None:
    assert main(["catalog", "--model", "normal", "--order", "2", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["catalog", "--model", "normal", "--order", "2", "--json"]) == 0
    assert first == capsys.readouterr().out


@pytest.mark.parametrize(
    "model, order, ruleset, digest",
    [
        ("flat", "1", "dimreg", "ba3770734e3a07ee800f3533b7b11a3d9529065f846a070fac85e80fa7f506d9"),
        ("flat", "1", "modereg", "ba3770734e3a07ee800f3533b7b11a3d9529065f846a070fac85e80fa7f506d9"),
        ("flat", "2", "dimreg", "28a76b0e332f6c602b49612dc1ef421826fe98288667d28c3f86c3d7122a6124"),
        ("flat", "2", "modereg", "ca2a53f9b1abaa587a5a47c0013ca23d9d3a49145eec60dff3fda1eaf884c36b"),
        ("normal", "1", "dimreg", "f784ed7ac78275c2071c16aee9496d9bfeb3a29fa6edd9d07c49fe6ca1a04ae1"),
        ("normal", "1", "modereg", "f784ed7ac78275c2071c16aee9496d9bfeb3a29fa6edd9d07c49fe6ca1a04ae1"),
        ("normal", "2", "dimreg", "088e63f03d2586c20d694b298f8a4777f090e057436be7cdaf04880b9b19e02d"),
        ("normal", "2", "modereg", "28445de80fb995be90119c6e7e88841af46030aa1a255e67c85c51ce563e8f9c"),
    ],
)
def test_catalog_json_keeps_its_output(
    model: str, order: str, ruleset: str, digest: str, capsys: pytest.CaptureFixture
) -> None:
    # perfbench's references hold the order-2 catalogs and tests/catalogs the
    # order-1 ones; these hashes pin all eight listings, row order included.
    assert main(["catalog", "--json", "--model", model, "--order", order, "--ruleset", ruleset]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("ruleset", ["dimreg", "modereg"])
@pytest.mark.parametrize("model", ["flat", "normal"])
def test_order1_catalogs_match_their_stored_files(model: str, ruleset: str, capsys: pytest.CaptureFixture) -> None:
    assert main(["catalog", "--json", "--model", model, "--order", "1", "--ruleset", ruleset]) == 0
    stored = pathlib.Path(__file__).parent / "catalogs" / f"order1-{model}-{ruleset}.json"
    assert capsys.readouterr().out.encode() == stored.read_bytes()


# ---------------------------------------------------------------------------
# sphere verb
# ---------------------------------------------------------------------------


def test_sphere_defaults_pass(capsys: pytest.CaptureFixture) -> None:
    code = main(["sphere"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] sphere_spectral" in out
    assert "[PASS] sphere_scaling" in out
    assert "[PASS] zeta_series" in out


def test_sphere_small_cutoff_is_an_error(capsys: pytest.CaptureFixture) -> None:
    assert main(["sphere", "--lmax", "50"]) == 2
    assert "[ERROR] sphere_spectral" in capsys.readouterr().out


def test_sphere_rejects_non_rational_beta(capsys: pytest.CaptureFixture) -> None:
    assert main(["sphere", "--beta", "abc"]) == 2
    assert "not a rational number" in capsys.readouterr().err


@pytest.mark.parametrize("option, text", [("--radius", "1e40000000"), ("--beta", "1e-40000000")])
def test_sphere_refuses_a_huge_exponent_at_once(
    option: str, text: str, capsys: pytest.CaptureFixture
) -> None:
    # Fraction would spend minutes expanding 10**40000000 exactly.
    start = time.perf_counter()
    assert main(["sphere", option, text]) == 2
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert err.startswith("usage: worldline sphere ")
    (refusal,) = [line for line in err.splitlines() if "error:" in line]
    assert err.endswith(f"{refusal}\n")
    assert refusal == (
        f"worldline sphere: error: argument {option}: "
        f"decimal exponent out of range [-1000, 1000]: '{text}'"
    )


def test_fraction_argument_takes_exponents_up_to_the_bound() -> None:
    assert _fraction_argument("1e1000") == 10**1000
    assert _fraction_argument("2.5E-1000") == Fraction(25, 10**1001)
    assert _fraction_argument(" 1e+01 ") == 10
    for text in ("1e1001", "1E-1001", "0.0e99999999999", "1e", "1e1.5", "e5"):
        with pytest.raises(argparse.ArgumentTypeError):
            _fraction_argument(text)


@pytest.mark.parametrize(
    "argv",
    [
        ["--dimension", "2"],
        ["--dimension", "400", "--lmax", "100"],
        ["--tolerance", "nan"],
        ["--tolerance", "-1"],
        ["--tolerance", "inf"],
    ],
)
def test_sphere_bad_input_is_an_error_not_a_traceback(
    argv: list, capsys: pytest.CaptureFixture
) -> None:
    assert main(["sphere", *argv]) == 2
    out = capsys.readouterr().out
    assert "[ERROR] sphere_" in out
    assert "[FAIL]" not in out


def test_sphere_degeneracy_overflow_keeps_its_text(capsys: pytest.CaptureFixture) -> None:
    # The level sum stops early, but a degeneracy at l_max that no float can
    # hold still ends both sphere checks with the full loop's message.
    assert main(["sphere", "--dimension", "300", "--lmax", "2000"]) == 2
    out = capsys.readouterr().out
    detail = (
        "the spectral sum for dimension 300 is out of numeric range: "
        "integer division result too large for a float"
    )
    assert f"[ERROR] sphere_spectral\n    {detail}\n" in out
    assert f"[ERROR] sphere_scaling\n    {detail}\n" in out


@pytest.mark.parametrize(
    ("argv", "detail"),
    [
        # The dimension is checked first, then the radius, then beta.
        (["--dimension", "1"], "the sphere model needs an embedding dimension of at least 2"),
        (
            ["--dimension", "1", "--radius", "0"],
            "the sphere model needs an embedding dimension of at least 2",
        ),
        (["--radius", "0"], "the sphere radius must be positive"),
        (["--radius=-1/2", "--beta", "0"], "the sphere radius must be positive"),
    ],
)
def test_sphere_refuses_its_dimension_and_radius(
    argv: list, detail: str, capsys: pytest.CaptureFixture
) -> None:
    assert main(["sphere", *argv]) == 2
    out = capsys.readouterr().out
    assert f"[ERROR] sphere_spectral\n    {detail}\n" in out
    assert f"[ERROR] sphere_scaling\n    {detail}\n" in out


def test_sphere_spectral_fails_below_the_double_floor(capsys: pytest.CaptureFixture) -> None:
    argv = ["sphere", "--radius", "20", "--lmax", "2000", "--beta", "1/50"]
    assert main([*argv, "--tolerance", "1e-17"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] sphere_spectral\n" in out
    assert "relative_deviation: expected <= 1.0e-17, got 1.984e-16\n" in out


# ---------------------------------------------------------------------------
# measure-cancel verb
# ---------------------------------------------------------------------------


def test_measure_cancel_runs_all_profiles(capsys: pytest.CaptureFixture) -> None:
    code = main(["measure-cancel"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("[PASS]") == 3


def test_measure_cancel_single_profile(capsys: pytest.CaptureFixture) -> None:
    code = main(["measure-cancel", "--profile", "tau / beta", "--max-order", "4"])
    assert code == 0
    assert "measure_cancellation[tau/beta]" in capsys.readouterr().out


def test_measure_cancel_unknown_profile(capsys: pytest.CaptureFixture) -> None:
    assert main(["measure-cancel", "--profile", "sin"]) == 2
    assert "known profiles" in capsys.readouterr().err


def test_measure_cancel_order_out_of_range(capsys: pytest.CaptureFixture) -> None:
    for order in ("9", "0", "-1"):
        assert main(["measure-cancel", "--max-order", order]) == 2
        err = capsys.readouterr().err
        assert "through order" in err
        assert err.endswith(f"must be in 1..8, got {order}\n")


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------


def test_missing_verb_is_invalid_input(capsys: pytest.CaptureFixture) -> None:
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_help_exits_cleanly(capsys: pytest.CaptureFixture) -> None:
    assert main(["--help"]) == 0
    assert "worldline" in capsys.readouterr().out


def _choices(dest: str) -> list:
    """The choices of option ``dest``, which every verb that has it shares."""
    actions = build_parser()._actions
    (verbs,) = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        tuple(action.choices)
        for verb in verbs.choices.values()
        for action in verb._actions
        if action.dest == dest
    }
    (choices,) = found
    return list(choices)


def test_parser_choices_are_the_engine_tables(monkeypatch, capsys) -> None:
    # The parser spells its choices out so that building it loads no engine
    # module; a ruleset or model added to the engine must still be reachable.
    # A model is a class of ``geometry`` that builds vertices.
    assert _choices("ruleset") == sorted(RULESETS)
    models = []
    monkeypatch.setattr(diagrams, "catalog", lambda model, *_: models.append(model) or [])
    for name in _choices("model"):
        assert main(["catalog", "--json", "--model", name]) == 0
    assert sorted(type(model).__name__ for model in models) == sorted(
        name for name, value in vars(geometry).items() if isinstance(value, type) and "vertices" in vars(value)
    )


def _old_build_parser() -> argparse.ArgumentParser:
    """``cli.build_parser`` as it was before the verb table, kept verbatim."""
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


def _captured(call, argv: list) -> tuple:
    """(exit code, stdout, stderr) of ``call(argv)``, a SystemExit read as its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exit_signal:
            code = exit_signal.code
    return code, out.getvalue(), err.getvalue()


_VERB_NAMES = ("integral", "verify", "catalog", "sphere", "measure-cancel")
_HELPS = [["--help"], ["-h"], *([verb, "--help"] for verb in _VERB_NAMES)]
_REFUSALS = [
    [],  # no verb
    ["bogus"],  # an unknown verb
    ["--json", "sphere"],  # an option before the verb
    ["verify", "--case", "spherical"],  # a bad choice
    ["catalog", "--order", "3"],
    ["sphere", "--lmax", "x"],  # a bad int
    ["sphere", "--radius", "1/0"],
    ["sphere", "--lmax"],  # a missing value
    ["sphere", "--bogus"],  # an unknown option
    ["integral"],  # a missing positional argument
    ["integral", "I14", "I2"],
]


@pytest.mark.parametrize("argv", _HELPS + _REFUSALS, ids=" ".join)
def test_help_and_refusals_print_what_the_old_parser_printed(argv: list, monkeypatch) -> None:
    # Compared with the old parser at run time, not with stored text, since
    # argparse words its help differently from one Python version to the next.
    monkeypatch.setenv("COLUMNS", "80")
    want = _captured(lambda words: _old_build_parser().parse_args(words), argv)
    assert want[0] == (0 if argv in _HELPS else 2)
    assert _captured(main, argv) == want


def test_an_abbreviated_option_still_works(capsys: pytest.CaptureFixture) -> None:
    assert main(["integral", "I14", "--dump-moves"]) == 0
    full = capsys.readouterr()
    assert main(["integral", "I14", "--dump"]) == 0
    assert capsys.readouterr() == full


def _same_attributes(fast, slow) -> bool:
    """Equal attributes, the handler by identity (repr tells nan from nan)."""
    fast, slow = dict(vars(fast)), dict(vars(slow))
    if fast.pop("handler") is not slow.pop("handler"):
        return False
    return repr(sorted(fast.items())) == repr(sorted(slow.items()))


def test_every_reference_command_line_takes_the_table_parser() -> None:
    # The benchmark's command lines never need argparse.
    root = pathlib.Path(__file__).resolve().parent.parent
    indexes = sorted((root / "perfbench" / "reference").glob("*/index.json"))
    argvs = [entry["argv"] for index in indexes for entry in json.loads(index.read_text())]
    assert len(argvs) == 44
    for argv in argvs:
        fast = _parse_exact(argv)
        assert fast is not None, argv
        assert _same_attributes(fast, build_parser().parse_args(argv)), argv


# ---------------------------------------------------------------------------
# per-verb imports
# ---------------------------------------------------------------------------

# argv (None: import the CLI and build the parser only), then either the
# exact set of package modules the process loads or the package modules it
# must not load.  No case may load the standard library's dataclasses,
# inspect or typing either: they cost a fresh process more than the smaller
# verbs' own work.  A well-formed command line loads neither argparse nor
# what it imports (gettext, locale), and json only under --json.  The child
# runs under -S, as the CI stdlib-only step does, so that no .pth hook of
# site imports them first.
_IMPORT_CASES = {
    "parser": (None, {"cli"}, None),
    "sphere": (["sphere", "--json"], {"cli", "spectral", "reports"}, None),
    "sphere-text": (["sphere"], {"cli", "spectral", "reports"}, None),
    "integral": (
        ["integral", "I14", "--json"],
        None,
        {"checks", "spectral", "rings", "diagrams", "tensors", "geometry"},
    ),
    "measure-cancel": (
        ["measure-cancel", "--json", "--max-order", "2"],
        {"cli", "rings", "integration", "values", "reports"},
        None,
    ),
    "catalog": (["catalog", "--json", "--order", "1"], None, {"checks", "spectral", "rings"}),
    "verify": (["verify", "--json"], None, set()),
}

# The script reads sys.modules before it imports json for its own output.
_IMPORT_SCRIPT = r"""
import contextlib, io, sys
import worldline.cli
code = None
if sys.argv[1] == "parser":
    worldline.cli.build_parser()
else:
    with contextlib.redirect_stdout(io.StringIO()):
        code = worldline.cli.main(sys.argv[2:])
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "worldline")
watched = {"argparse", "dataclasses", "gettext", "inspect", "json", "locale", "typing"}
stdlib = sorted(watched & set(sys.modules))
import json
print(json.dumps({"exit": code, "loaded": loaded, "stdlib": stdlib}))
"""


@pytest.mark.parametrize("case", sorted(_IMPORT_CASES))
def test_each_verb_imports_only_its_layers(case: str) -> None:
    argv, exactly, forbidden = _IMPORT_CASES[case]
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    words = ["parser"] if argv is None else ["run", *argv]
    run = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_SCRIPT, *words],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert result["exit"] == (None if argv is None else 0)
    slow = {"dataclasses", "inspect", "typing"}
    if argv is not None:
        slow |= {"argparse", "gettext", "locale"}
    if "--json" not in (argv or []):
        slow.add("json")
    assert not slow & set(result["stdlib"]), sorted(slow & set(result["stdlib"]))
    loaded = {name.partition(".")[2] for name in result["loaded"]} - {""}
    if exactly is not None:
        assert loaded == exactly
    else:
        assert "cli" in loaded and not loaded & forbidden, sorted(loaded & forbidden)


# ---------------------------------------------------------------------------
# program entry point
# ---------------------------------------------------------------------------

_ROOT = pathlib.Path(__file__).resolve().parent.parent
_ENV = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))

# main() without argv, as the worldline script calls it: the handler
# registered before it must still run after the collector is frozen.
_PROGRAM_SCRIPT = r"""
import atexit, gc, sys
import worldline.cli
atexit.register(print, "atexit handler ran", file=sys.stderr)
sys.argv = ["worldline", "sphere", "--json"]
code = worldline.cli.main()
print(f"frozen {gc.get_freeze_count()}", file=sys.stderr)
sys.exit(code)
"""


def test_main_without_argv_freezes_the_collector_and_exits_as_before() -> None:
    run = subprocess.run([sys.executable, "-c", _PROGRAM_SCRIPT], capture_output=True, env=_ENV)
    assert run.returncode == 0, run.stderr
    assert run.stdout == (_ROOT / "perfbench" / "reference" / "spectral" / "00.stdout").read_bytes()
    frozen, marker = run.stderr.decode().splitlines()
    assert frozen.startswith("frozen ") and int(frozen.split()[1]) > 0
    assert marker == "atexit handler ran"


def test_main_with_argv_freezes_nothing(capsys: pytest.CaptureFixture) -> None:
    before = gc.get_freeze_count()
    assert main(["sphere", "--json"]) == 0
    assert main(["sphere", "--lmax", "x"]) == 2
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("workload", ["battery", "diagrams", "rings", "spectral"])
def test_both_module_entry_points_print_the_reference(workload: str) -> None:
    directory = _ROOT / "perfbench" / "reference" / workload
    entry = json.loads((directory / "index.json").read_text())[0]
    want = (entry["exit"], (directory / entry["stdout"]).read_bytes(), b"")
    for module in ("worldline", "worldline.cli"):
        run = subprocess.run([sys.executable, "-m", module, *entry["argv"]], capture_output=True, env=_ENV)
        assert (run.returncode, run.stdout, run.stderr) == want, (module, entry["argv"])


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("module", ["worldline", "worldline.cli"])
def test_a_closed_pipe_ends_with_exit_1_and_no_traceback(module: str, buffered: bool) -> None:
    # The reader is gone before the child starts, so its first write, or
    # with buffered stdout its flush, meets a broken pipe every time.
    read, write = os.pipe()
    os.close(read)
    env = {key: value for key, value in _ENV.items() if key != "PYTHONUNBUFFERED"}
    flags = ["-X", "dev"] if buffered else ["-X", "dev", "-u"]
    try:
        run = subprocess.run([sys.executable, *flags, "-m", module, "sphere"], stdout=write, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write)
    assert (run.returncode, run.stderr.decode()) == (1, "")


# ---------------------------------------------------------------------------
# fuzzing
# ---------------------------------------------------------------------------

_GARBAGE = ("", "x", "-1", "-3", "-1/2", "-0.5", "0", "1/0", "nan", "inf", "1e999")


def _values(*valid: str) -> st.SearchStrategy[str]:
    # Three draws in four are valid, so most command lines reach real work.
    return st.one_of(*[st.sampled_from(valid)] * 3, st.sampled_from(_GARBAGE))


_RULESET_VALUES = _values("dimreg", "modereg")

# Per verb: the words it starts with, and each option with the values it
# draws (None for a flag).  Sphere inputs stay small: radius <= 20 and
# --lmax <= 20000 keep every level sum well under a second.
_VERBS = {
    "integral": (
        ["integral"],
        {"--ruleset": _RULESET_VALUES, "--json": None, "--dump-moves": None},
    ),
    "sphere": (
        ["sphere"],
        {
            "--dimension": _values("2", "3", "4", "7", "300", "400"),
            "--radius": _values("1", "1/2", "3", "20", "0.7"),
            "--beta": _values("1/100", "1/50", "1/7", "0.03", "1/1000", "2"),
            "--lmax": _values("50", "1000", "3000", "20000"),
            "--tolerance": _values("1e-6", "1e-8", "1e-11", "1e-17", "0.5"),
            "--json": None,
        },
    ),
    "measure-cancel": (
        ["measure-cancel"],
        {
            "--profile": _values("1", "constant", "tau / beta", "tau*(beta-tau)/beta^2", "sin"),
            "--max-order": _values("1", "2", "3", "9"),
            "--json": None,
        },
    ),
    "catalog": (
        ["catalog", "--order", "1"],
        {"--model": _values("flat", "normal"), "--ruleset": _RULESET_VALUES, "--json": None},
    ),
    "verify": (
        ["verify", "--case", "flat", "--order", "1"],
        {"--ruleset": _RULESET_VALUES, "--json": None, "--dump-moves": None},
    ),
}


@st.composite
def command_lines(draw) -> list:
    verb = draw(st.sampled_from(sorted(_VERBS)))
    words, options = _VERBS[verb]
    argv = list(words)
    if verb == "integral":
        argv.append(draw(_values(*sorted(NAMED_INTEGRALS), *sorted(FINITE_ALIASES))))
    for option in draw(st.lists(st.sampled_from(sorted(options)), unique=True)):
        # Most options are spelled out; some are abbreviated, given as
        # --opt=value, or repeated, all of which argparse takes.
        spelling = draw(st.sampled_from(("exact",) * 7 + ("abbreviated", "joined", "repeated")))
        flag = option[: draw(st.integers(3, len(option) - 1))] if spelling == "abbreviated" else option
        for _ in range(2 if spelling == "repeated" else 1):
            if options[option] is None:
                argv.append(flag)
            elif spelling == "joined":
                argv.append(f"{flag}={draw(options[option])}")
            else:
                argv += [flag, draw(options[option])]
    if draw(st.integers(0, 9)) == 0:
        stray = st.sampled_from(("--bogus", "x", "-h", "--help", "-5"))
        argv.insert(draw(st.integers(1, len(argv))), draw(stray))
    return argv


@settings(max_examples=150, deadline=None)
@given(command_lines())
def test_main_returns_an_exit_code_and_never_raises(argv: list) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2), argv


@settings(max_examples=300, deadline=None)
@given(command_lines())
def test_the_table_parser_agrees_with_argparse(argv: list) -> None:
    # Wherever the table parser takes a command line, argparse takes it too
    # and sets the same attributes.
    fast = _parse_exact(argv)
    if fast is not None:
        assert _same_attributes(fast, build_parser().parse_args(argv)), argv
