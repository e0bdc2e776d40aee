#!/usr/bin/env python3
"""Benchmark of the worldline CLI: fresh processes, byte-exact outputs.

Usage, from the repository root::

    python3 perfbench/run.py --workload battery --seed 1 --seconds 20 --trace 0

``--workload`` takes one of the names in ``workloads.POOLS``, a
comma-separated list of them, or ``all``.

Every invocation is ``python -m worldline.cli ARGV`` in a fresh process,
one at a time (a closed loop with one client), because users pay import
time and cache fill on every CLI call. Its stdout must equal the stored
reference byte for byte and its exit code must match; anything else,
including a crash or a timeout, is a failed invocation. stderr is
ignored. Wall times are rescaled by a calibration loop timed just before
each child (see ``rescale``) and reported in reference seconds.

With ``--trace 0`` the run reports the end-to-end metrics. With
``--trace 1`` it alternates rounds run under ``tracer.py`` with plain
rounds and reports per-layer metrics per round of the pool, plus the
traced and plain median invocation times.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 when every
invocation passed, 1 when one failed, and 2 when the benchmark cannot
run here (no ``src/worldline`` in the working directory, or no stored
reference), in which case no result is printed.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import TRACE_PREFIX  # noqa: E402
from workloads import POOLS, rounds  # noqa: E402

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

TIMEOUT_S = 60.0
# Typical wall time of ``calibration_s`` on a quiet core of the machine the
# benchmark was built on (2-vCPU Xeon VM, Python 3.11).
CALIBRATION_REFERENCE_S = 0.012
# Calibrations this close to an invocation set its scale.
CALIBRATION_WINDOW_S = 2.0
# The tail percentile and the sample count that leaves ten samples beyond it.
TAIL = 0.70
MIN_SAMPLES = 34
SETUP_SAMPLES = 20
SETUP_CODE = "import worldline.cli as cli; cli.build_parser()"

END_TO_END_UNITS = {
    "invocation_s.p50": "s",
    "invocation_s.p70": "s",
    "throughput_inv_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer stats reported from the traced rounds, by layer.
LAYER_STATS: Dict[str, Tuple[str, ...]] = {
    "cli.main": ("self_s",),
    "checks.run_standard_checks": ("total_s",),
    "checks.check_flat": ("total_s",),
    "checks.check_seeley": ("total_s",),
    "checks.check_constraints": ("total_s",),
    "checks.measure_cancellation": ("total_s",),
    "checks.sphere_spectral_check": ("self_s",),
    "checks.sphere_scaling_check": ("self_s",),
    "diagrams.wick": ("calls", "self_s"),
    "diagrams.sum_order": ("calls", "self_s", "distinct"),
    "diagrams.evaluate_diagram": ("calls", "self_s"),
    "diagrams.catalog": ("calls", "self_s"),
    "tensors.invariant_coefficients": ("calls", "distinct", "self_s"),
    "reduction.reduce_terms": ("calls", "distinct", "self_s"),
    "reduction.equal_time_substitute": ("calls",),
    "reduction.field_equation": ("calls",),
    "reduction.partial_integration": ("calls",),
    "reduction.divergence_split": ("calls",),
    "reduction.return_to_1d": ("calls",),
    "integrands.product": ("calls", "self_s", "terms_out"),
    "integrands.canonicalize": ("calls", "self_s", "terms_in", "terms_out"),
    "integration.integrate": ("calls", "self_s", "distinct"),
    "integration.integrate_term": ("calls", "self_s"),
    "polynomials.Poly.mul": ("calls", "self_s", "terms_out"),
    "polynomials.Poly.integrate_sector": ("calls", "self_s"),
    "values.RegValue.ops": ("calls", "self_s"),
    "geometry.vertices": ("calls",),
    "geometry.seeley_reference": ("calls",),
    "propagators": ("calls",),
}
COUNT_STATS = ("calls", "distinct", "terms_in", "terms_out")
# Layers whose share of repeated inputs is reported as distinct/calls.
WASTE_LAYERS = (
    "reduction.reduce_terms",
    "tensors.invariant_coefficients",
    "integration.integrate",
    "diagrams.sum_order",
)


class BenchmarkUnavailable(Exception):
    """The benchmark cannot run in this directory."""


# ---------------------------------------------------------------------------
# invocations
# ---------------------------------------------------------------------------


@dataclass
class Invocation:
    started: float
    wall_s: float
    exit_code: int
    stdout: bytes
    stderr: bytes
    peak_rss_kb: int
    timed_out: bool
    calibration_s: float
    reference_s: float = math.nan  # set by ``rescale``


def calibration_s() -> float:
    """Wall time of a fixed pure-Python loop of Fraction and dict work.

    The host this benchmark runs on is shared, and its speed for this
    process swings by up to 2x over minutes. The loop runs in this
    process, pinned to the child's core, just before each child starts, so
    it sees the same contention the child will see.
    """

    start = time.perf_counter()
    total = Fraction(0)
    counts: Dict[int, int] = {}
    for i in range(1, 3000):
        total += Fraction(1, i)
        counts[i % 97] = counts.get(i % 97, 0) + i * i
    return time.perf_counter() - start


def rescale(timeline: List[Invocation]) -> None:
    """Set each invocation's wall time rescaled to the reference speed.

    One calibration is noisy on its own. The scale is the median of the
    calibrations taken from ``CALIBRATION_WINDOW_S`` before the invocation
    started to as long after it ended, which follows the host's load over
    seconds without that noise. ``timeline`` is in the order run.
    """

    starts = [invocation.started for invocation in timeline]
    for invocation in timeline:
        low = bisect.bisect_left(starts, invocation.started - CALIBRATION_WINDOW_S)
        high = bisect.bisect_right(
            starts, invocation.started + invocation.wall_s + CALIBRATION_WINDOW_S
        )
        calibration = statistics.median(t.calibration_s for t in timeline[low:high])
        invocation.reference_s = invocation.wall_s * CALIBRATION_REFERENCE_S / calibration


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def invoke(command: Sequence[str], env: Dict[str, str], keep_stderr: bool = False) -> Invocation:
    """Run one child to completion; time it from spawn to reaping.

    The child is reaped with ``wait4`` so that its own peak RSS is read,
    and killed if it outlives ``TIMEOUT_S``.
    """

    killed = threading.Event()
    calibration = calibration_s()
    start = time.perf_counter()
    proc = subprocess.Popen(
        list(command),
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE if keep_stderr else subprocess.DEVNULL,
    )

    def kill() -> None:
        killed.set()
        proc.kill()

    timer = threading.Timer(TIMEOUT_S, kill)
    timer.start()
    stderr_chunks: List[bytes] = []
    reader = None
    if keep_stderr:
        reader = threading.Thread(target=lambda: stderr_chunks.append(proc.stderr.read()))
        reader.start()
    try:
        stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    finally:
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if reader is not None:
        reader.join()
    proc.stdout.close()
    if proc.stderr is not None:
        proc.stderr.close()
    return Invocation(
        started=start,
        wall_s=wall,
        exit_code=proc.returncode,
        stdout=stdout,
        stderr=b"".join(stderr_chunks),
        peak_rss_kb=usage.ru_maxrss,
        timed_out=killed.is_set(),
        calibration_s=calibration,
    )


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Reference:
    argv: Tuple[str, ...]
    exit_code: int
    stdout: bytes


def load_references(workload: str) -> List[Reference]:
    """Stored stdout and exit code of every command in the workload's pool."""

    directory = REFERENCE_DIR / workload
    try:
        index = json.loads((directory / "index.json").read_text())
        references = [
            Reference(tuple(entry["argv"]), entry["exit"], (directory / entry["stdout"]).read_bytes())
            for entry in index
        ]
    except (OSError, ValueError, KeyError) as error:
        raise BenchmarkUnavailable(f"no usable reference for {workload}: {error}") from error
    if [list(ref.argv) for ref in references] != POOLS[workload]:
        raise BenchmarkUnavailable(f"reference for {workload} does not match its command pool")
    return references


def passes(result: Invocation, reference: Reference) -> bool:
    return (
        not result.timed_out
        and result.exit_code == reference.exit_code
        and result.stdout == reference.stdout
    )


# ---------------------------------------------------------------------------
# statistics and environment
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""

    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    lower = math.floor(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower)


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> Dict[str, object]:
    return {
        "git_sha": _git_sha(),
        "source_digest": _source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "load_average": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    timed_out: bool = False

    def record(self, result: Invocation, reference: Reference) -> bool:
        self.attempted += 1
        if passes(result, reference):
            return True
        self.failed += 1
        self.timed_out = self.timed_out or result.timed_out
        reason = "timeout" if result.timed_out else f"exit {result.exit_code}"
        if not result.timed_out and result.exit_code == reference.exit_code:
            reason = "stdout differs from the reference"
        self.failures.append(f"{' '.join(reference.argv)}: {reason}")
        return False


def _fresh_process(code: str, env: Dict[str, str]) -> Invocation:
    """Run ``python -c CODE``, which must exit 0."""

    command = [sys.executable, "-c", code]
    result = invoke(command, env)
    if result.exit_code != 0:
        raise BenchmarkUnavailable(f"{' '.join(command)} exited with {result.exit_code}")
    return result


def cli_command(argv: Sequence[str]) -> List[str]:
    return [sys.executable, "-m", "worldline.cli", *argv]


def _tracer_command(argv: Sequence[str]) -> List[str]:
    return [sys.executable, str(BENCH_DIR / "tracer.py"), *argv]


def _run_round(
    order: Sequence[int],
    references: List[Reference],
    command: Callable[[Sequence[str]], List[str]],
    env: Dict[str, str],
    tally: Tally,
    keep_stderr: bool = False,
) -> Iterator[Invocation]:
    """Invoke the pool in the given order, checking each output.

    A timeout ends the round, and the caller ends the run, so a program
    that hangs cannot hold the benchmark past its time limit.
    """

    for index in order:
        reference = references[index]
        result = invoke(command(reference.argv), env, keep_stderr)
        tally.record(result, reference)
        yield result
        if result.timed_out:
            return


def _keep_going(samples: int, elapsed: float, rounds_done: int, seconds: float) -> bool:
    """Start another whole round while it is expected to end in time.

    Runs always end on a round boundary so that every command counts the
    same number of times, and never before the tail percentile has ten
    samples beyond it.
    """

    return samples < MIN_SAMPLES or elapsed + elapsed / rounds_done <= seconds


def _unscaled_note(results: List[Invocation]) -> str:
    walls = [result.wall_s for result in results]
    calibration = statistics.median(result.calibration_s for result in results)
    return (
        f"unscaled wall p50 {statistics.median(walls):.6g} s, p70 {percentile(walls, TAIL):.6g} s;"
        f" calibration median {calibration:.6g} s against {CALIBRATION_REFERENCE_S} s"
    )


def run_untraced(workload: str, seed: int, seconds: float, tally: Tally) -> Tuple[Dict[str, float], List[str]]:
    """End-to-end metrics, and notes for the human-readable report."""

    references = load_references(workload)
    env = child_env()
    timeline = [_fresh_process(SETUP_CODE, env)]  # compiles bytecode caches; not a sample
    setup: List[Invocation] = []
    results: List[Invocation] = []
    start = time.perf_counter()
    for rounds_done, order in enumerate(rounds(workload, seed), start=1):
        for result in _run_round(order, references, cli_command, env, tally):
            results.append(result)
            timeline.append(result)
            # Setup samples are spread over the run so that their median
            # sees the same machine load as the workload's invocations.
            if len(setup) < SETUP_SAMPLES and time.perf_counter() - start >= len(setup) * seconds / SETUP_SAMPLES:
                setup.append(_fresh_process(SETUP_CODE, env))
                timeline.append(setup[-1])
        elapsed = time.perf_counter() - start
        if tally.timed_out or not _keep_going(len(results), elapsed, rounds_done, seconds):
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(_fresh_process(SETUP_CODE, env))
        timeline.append(setup[-1])
    rescale(timeline)
    walls = [result.reference_s for result in results]
    metrics = {
        "invocation_s.p50": statistics.median(walls),
        "invocation_s.p70": percentile(walls, TAIL),
        # One client in a closed loop: invocations per second of invocation time.
        "throughput_inv_per_s": len(walls) / sum(walls),
        "peak_rss_mb": max(result.peak_rss_kb for result in results) / 1024,
        "setup_s": statistics.median(result.reference_s for result in setup),
    }
    return metrics, [f"{len(results)} samples; " + _unscaled_note(results)]


def _parse_trace(stderr: bytes) -> Dict[str, Dict[str, float]]:
    for line in reversed(stderr.decode(errors="replace").splitlines()):
        if line.startswith(TRACE_PREFIX):
            return json.loads(line[len(TRACE_PREFIX):])
    return {}


def _add_round(total: Dict[str, Dict[str, float]], stats: Dict[str, Dict[str, float]]) -> None:
    for layer, entry in stats.items():
        into = total.setdefault(layer, {})
        for stat, value in entry.items():
            into[stat] = into.get(stat, 0) + value


def run_traced(workload: str, seed: int, seconds: float, tally: Tally) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics per round, and notes for the human-readable report."""

    references = load_references(workload)
    env = child_env()
    timeline = [_fresh_process(SETUP_CODE, env)]  # compiles bytecode caches; not a sample
    floor = [_fresh_process("pass", env) for _ in range(SETUP_SAMPLES)]
    setup = [_fresh_process(SETUP_CODE, env) for _ in range(SETUP_SAMPLES)]
    timeline += floor + setup
    traced: List[Invocation] = []
    plain: List[Invocation] = []
    per_round: List[Dict[str, Dict[str, float]]] = []
    schedule = rounds(workload, seed)
    start = time.perf_counter()
    pairs = 0
    while True:
        round_stats: Dict[str, Dict[str, float]] = {}
        for result in _run_round(next(schedule), references, _tracer_command, env, tally, True):
            traced.append(result)
            timeline.append(result)
            _add_round(round_stats, _parse_trace(result.stderr))
        per_round.append(round_stats)
        if tally.timed_out:
            break
        for result in _run_round(next(schedule), references, cli_command, env, tally):
            plain.append(result)
            timeline.append(result)
        pairs += 1
        elapsed = time.perf_counter() - start
        if tally.timed_out or elapsed + elapsed / pairs > seconds:
            break

    def counts(stats: Dict[str, Dict[str, float]]) -> Dict[str, Dict[str, float]]:
        return {
            layer: {stat: value for stat, value in entry.items() if stat in COUNT_STATS}
            for layer, entry in stats.items()
        }

    repeatable = all(counts(stats) == counts(per_round[0]) for stats in per_round)
    rescale(timeline)
    floor_s = statistics.median(result.reference_s for result in floor)
    metrics: Dict[str, float] = {
        "python.startup_s": floor_s,
        "cli.import_s": statistics.median(result.reference_s for result in setup) - floor_s,
    }
    for layer, stats in LAYER_STATS.items():
        for stat in stats:
            if stat in COUNT_STATS:
                value = per_round[0].get(layer, {}).get(stat, 0)
            else:
                value = statistics.median(r.get(layer, {}).get(stat, 0.0) for r in per_round)
            metrics[f"{layer}.{stat}"] = value
    for layer in WASTE_LAYERS:
        calls = metrics[f"{layer}.calls"]
        metrics[f"{layer}.distinct_per_call"] = metrics[f"{layer}.distinct"] / calls if calls else 1.0
    traced_p50 = statistics.median(result.reference_s for result in traced)
    plain_p50 = statistics.median(result.reference_s for result in plain) if plain else math.nan
    metrics["tracing.traced_invocation_s.p50"] = traced_p50
    metrics["tracing.untraced_invocation_s.p50"] = plain_p50
    metrics["tracing.overhead_ratio"] = traced_p50 / plain_p50
    notes = [f"{len(per_round)} traced rounds; " + _unscaled_note(traced + plain)]
    if not repeatable:
        notes.append("per-layer counts differ between traced rounds")
    return metrics, notes


def per_layer_units() -> Dict[str, str]:
    units = {"python.startup_s": "s", "cli.import_s": "s"}
    for layer, stats in LAYER_STATS.items():
        for stat in stats:
            units[f"{layer}.{stat}"] = "count" if stat in COUNT_STATS else "s"
    for layer in WASTE_LAYERS:
        units[f"{layer}.distinct_per_call"] = "ratio"
    units["tracing.traced_invocation_s.p50"] = "s"
    units["tracing.untraced_invocation_s.p50"] = "s"
    units["tracing.overhead_ratio"] = "ratio"
    return units


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def _workloads(text: str) -> List[str]:
    names = list(POOLS) if text == "all" else text.split(",")
    unknown = [name for name in names if name not in POOLS]
    if unknown or not names:
        raise argparse.ArgumentTypeError(
            f"unknown workload {', '.join(unknown)}; known: {', '.join(POOLS)}, all"
        )
    return names


def _report(workload: str, metrics: Dict[str, float], units: Dict[str, str], tally: Tally, notes: List[str]) -> None:
    print(f"workload {workload}: {tally.attempted} invocations, {tally.failed} failed")
    for note in notes:
        print(f"  {note}")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:.6g} {units[name]}")
    print(f"  {'failed_ratio':44s} {tally.failed / tally.attempted:.6g} ratio")
    for failure in tally.failures[:10]:
        print(f"  FAILED {failure}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", type=_workloads, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "worldline" / "cli.py").is_file():
        print(f"perfbench: no src/worldline/cli.py under {ROOT}", file=sys.stderr)
        return 2
    # Children inherit the affinity, so the calibration loop and the child
    # it scales share one core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print("environment " + json.dumps(environment(), sort_keys=True), flush=True)

    units = per_layer_units() if args.trace else END_TO_END_UNITS
    results: Dict[str, Tuple[Dict[str, float], Tally]] = {}
    try:
        for workload in args.workload:
            tally = Tally()
            run = run_traced if args.trace else run_untraced
            metrics, notes = run(workload, args.seed, args.seconds, tally)
            results[workload] = (metrics, tally)
            _report(workload, metrics, units, tally, notes)
    except BenchmarkUnavailable as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2

    failed = sum(tally.failed for _, tally in results.values())
    # Several workloads in one run prefix each metric with its workload.
    prefix = len(results) > 1
    line = {
        "correct": failed == 0,
        "attempted": sum(tally.attempted for _, tally in results.values()),
        "failed": failed,
        "metrics": {
            (f"{workload}.{name}" if prefix else name): {"value": value, "unit": units[name]}
            for workload, (metrics, _) in results.items()
            for name, value in metrics.items()
        },
    }
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
