"""Command pools of the benchmark workloads and their seeded schedule.

Each workload is a finite pool of ``worldline`` CLI argument lists. A
run walks the pool in rounds; every round is a seeded permutation of the
whole pool, so each command runs equally often and two seeds differ only
in order. Drawing with replacement would let the mix of cheap and
expensive commands change from seed to seed, and with it every
percentile the run reports.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List

Argv = List[str]

_PROFILES = ("1", "tau/beta", "tau*(beta-tau)/beta^2")

_NAMED_INTEGRALS = (
    "I2", "I4", "I6", "I7", "I8", "I9", "I10", "I11", "I12", "I13", "I14",
    "I15", "I2R", "I8R", "I15R",
)

POOLS: Dict[str, List[Argv]] = {
    # The users' main command, in both schemes. Rings at u^6 take most of
    # it; diagrams, reduction and tensors take the rest.
    "battery": [
        ["verify", "--json"],
        ["verify", "--json", "--ruleset", "modereg"],
    ],
    # Expansion, delta collapse and Poly products only: no diagram runs and
    # no command repeats within a round.
    "rings": [
        ["measure-cancel", "--json", "--profile", profile, "--max-order", str(order)]
        for profile in _PROFILES
        for order in (6, 7, 8)
    ],
    # Wick contraction, tensor decomposition and the reduction move search,
    # with no rings. Topologies and pairings repeat across commands.
    "diagrams": [
        ["catalog", "--json", "--model", model, "--order", "2", "--ruleset", rules]
        for model in ("flat", "normal")
        for rules in ("dimreg", "modereg")
    ]
    + [
        ["verify", "--json", "--case", "flat", "--order", "2"],
        ["verify", "--json", "--case", "flat", "--order", "2", "--ruleset", "modereg"],
        ["verify", "--json", "--case", "normal", "--order", "2"],
        ["verify", "--json", "--case", "arbitrary"],
        ["verify", "--json", "--case", "arbitrary", "--ruleset", "modereg"],
    ]
    + [["integral", name, "--json", "--dump-moves"] for name in _NAMED_INTEGRALS],
    # Sphere sums: four draws land within a decade of their tolerance and
    # take the 50-digit Decimal recompute, five stay in double precision.
    "spectral": [
        ["sphere", "--json"],
        ["sphere", "--json", "--lmax", "20000"],
        ["sphere", "--json", "--beta", "1/1000", "--lmax", "20000"],
        ["sphere", "--json", "--dimension", "4", "--lmax", "5000"],
        ["sphere", "--json", "--beta", "1/50", "--lmax", "3000"],
        ["sphere", "--json", "--beta", "1/50", "--lmax", "3000", "--tolerance", "1e-7"],
        ["sphere", "--json", "--lmax", "10000", "--tolerance", "1e-8"],
        ["sphere", "--json", "--lmax", "20000", "--tolerance", "1e-8"],
        ["sphere", "--json", "--beta", "1/1000", "--lmax", "20000", "--tolerance", "1e-11"],
    ],
}


def rounds(workload: str, seed: int) -> Iterator[List[int]]:
    """Endless rounds of pool indices, each a permutation fixed by the seed."""

    rng = random.Random(f"{workload}/{seed}")
    size = len(POOLS[workload])
    while True:
        yield rng.sample(range(size), size)
