"""Checks of the benchmark itself, not of worldline.

Run from the repository root (takes a few minutes)::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

from run import END_TO_END_UNITS, per_layer_units  # noqa: E402
from workloads import POOLS  # noqa: E402


def _bench(cwd: Path, workload: str, trace: int = 0, seed: int = 3) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(done: subprocess.CompletedProcess) -> dict:
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def _failed_ratio(stdout: str) -> float:
    return float(re.search(r"^\s+failed_ratio\s+(\S+) ratio$", stdout, re.M).group(1))


def test_benchmark_json_names_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(POOLS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()


@pytest.mark.parametrize("workload", list(POOLS))
def test_every_metric_is_printed_with_its_unit_and_nothing_fails(workload):
    done = _bench(ROOT, workload)
    assert done.returncode == 0, done.stdout + done.stderr
    result = _result(done)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == END_TO_END_UNITS
    for name, unit in END_TO_END_UNITS.items():
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$", done.stdout, re.M)
    assert _failed_ratio(done.stdout) == 0


def test_traced_counts_repeat_for_the_same_seed():
    runs = [_bench(ROOT, "diagrams", trace=1, seed=5) for _ in range(2)]
    counts = []
    for done in runs:
        assert done.returncode == 0, done.stdout + done.stderr
        assert "differ between traced rounds" not in done.stdout
        metrics = _result(done)["metrics"]
        assert {name: m["unit"] for name, m in metrics.items()} == per_layer_units()
        counts.append({n: m["value"] for n, m in metrics.items() if m["unit"] in ("count", "ratio")
                       and not n.startswith("tracing.")})
    assert counts[0] == counts[1]
    assert counts[0]["tensors.invariant_coefficients.calls"] > counts[0]["tensors.invariant_coefficients.distinct"]


def _copy_checkout(target: Path, with_source: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", target / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", target / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    if with_source:
        shutil.copytree(ROOT / "src", target / "src", ignore=shutil.ignore_patterns("__pycache__"))


def test_one_altered_reference_byte_fails_the_gate(tmp_path):
    _copy_checkout(tmp_path, with_source=True)
    reference = tmp_path / "perfbench" / "reference" / "diagrams" / "00.stdout"
    data = bytearray(reference.read_bytes())
    data[len(data) // 2] ^= 0x01
    reference.write_bytes(bytes(data))
    done = _bench(tmp_path, "diagrams")
    assert done.returncode == 1
    result = _result(done)
    assert not result["correct"] and result["failed"] > 0
    assert _failed_ratio(done.stdout) > 0


def test_without_the_program_there_is_no_result(tmp_path):
    _copy_checkout(tmp_path, with_source=False)
    done = _bench(tmp_path, "battery")
    assert done.returncode not in (0, None)
    assert '"metrics"' not in done.stdout
