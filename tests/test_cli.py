"""Tests for the command line front end."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from worldline.cli import main

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


def test_integral_rejects_unknown_names(capsys: pytest.CaptureFixture) -> None:
    code = main(["integral", "I99"])
    captured = capsys.readouterr()
    assert code == 2
    assert "unknown integral name" in captured.err
    assert captured.out == ""


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
    assert main(["measure-cancel", "--max-order", "9"]) == 2
    assert "through order" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------


def test_missing_verb_is_invalid_input(capsys: pytest.CaptureFixture) -> None:
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err


def test_help_exits_cleanly(capsys: pytest.CaptureFixture) -> None:
    assert main(["--help"]) == 0
    assert "worldline" in capsys.readouterr().out
