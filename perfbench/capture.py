#!/usr/bin/env python3
"""Store the reference stdout and exit code of every pooled command.

Usage, from the repository root::

    python3 perfbench/capture.py

Run it only at a commit whose outputs are known to be right: the
benchmark fails every invocation whose stdout differs from what this
writes. Each command runs twice in fresh processes under different hash
seeds and must print the same bytes both times. The expected exit code
is 0, except for verify runs under ``--ruleset modereg``, which must exit
1 with only ``flat_sum_order2`` and ``first_order_constraints`` among the
failing checks.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import REFERENCE_DIR, child_env, cli_command, invoke  # noqa: E402
from workloads import POOLS  # noqa: E402

MODEREG_FAILURES = {"flat_sum_order2", "first_order_constraints"}


def _expected_exit(argv, stdout: bytes) -> int:
    if argv[0] == "verify" and "modereg" in argv:
        failing = {r["check"] for r in json.loads(stdout) if r["status"] != "pass"}
        if not failing or not failing <= MODEREG_FAILURES:
            raise SystemExit(f"{' '.join(argv)}: unexpected failing checks {sorted(failing)}")
        return 1
    return 0


def main() -> int:
    env = child_env()
    for workload, pool in POOLS.items():
        directory = REFERENCE_DIR / workload
        shutil.rmtree(directory, ignore_errors=True)
        directory.mkdir(parents=True)
        index = []
        for number, argv in enumerate(pool):
            runs = [invoke(cli_command(argv), dict(env, PYTHONHASHSEED=str(seed))) for seed in (1, 2)]
            if runs[0].stdout != runs[1].stdout or runs[0].exit_code != runs[1].exit_code:
                raise SystemExit(f"{' '.join(argv)}: output depends on the hash seed")
            if runs[0].exit_code != _expected_exit(argv, runs[0].stdout):
                raise SystemExit(f"{' '.join(argv)}: exit {runs[0].exit_code}")
            name = f"{number:02d}.stdout"
            (directory / name).write_bytes(runs[0].stdout)
            index.append({"argv": argv, "exit": runs[0].exit_code, "stdout": name})
            print(f"{workload} {name} exit {runs[0].exit_code} {runs[0].wall_s:.3f} s  {' '.join(argv)}")
        (directory / "index.json").write_text(json.dumps(index, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
