"""Every small propagator product, reduced and integrated, against pinned hashes.

The products are the multisets of ``(kind, i, j)`` factors with i <= j on
1-2 variables with up to 5 factors and on 3 variables with up to 4 factors,
where every variable occurs and carries 0 or 2 dotted ends.  Each one runs
through ``reduction._reduce_product``; its factors, value or error text, move
log and eps-power notes go into one sha256 per rule set.  A refactor of the
reducer or the integrator that changes any value, refusal, move or note of
these 2,502 products changes the hash.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from itertools import combinations_with_replacement

import pytest

from worldline.integrands import ParsedProduct
from worldline.integration import DIMREG, MODEREG, UnreducedSingularStructureError
from worldline.reduction import ReductionError, _reduce_lifted, _reduce_product
from worldline.values import RegValue

# (variable count, most factors) of the enumerated products.
SIZES = ((1, 5), (2, 5), (3, 4))

EXPECTED = {
    "DimReg": "041c23da4787dd4742d78f4958a7285d8599b7337405f4f8314e914b33bbb322",
    "ModeReg": "4101915085839893f7a7c6364faa5c6d742e25d50867f38bd3c89fd2832e9fa0",
}


# The ends of each kind that carry a time derivative: (left, right).
_DOTS = {"D": (0, 0), "Dl": (1, 0), "Dr": (0, 1), "DD": (1, 1)}


def enumerated_products(sizes=SIZES):
    """(factors, variable count) of every product of the given sizes."""
    for nvars, most in sizes:
        slots = [
            (kind, i, j)
            for kind in ("D", "Dl", "Dr", "DD")
            for i in range(nvars)
            for j in range(i, nvars)
        ]
        for count in range(1, most + 1):
            for factors in combinations_with_replacement(slots, count):
                if len({v for _, i, j in factors for v in (i, j)}) < nvars:
                    continue
                dots = Counter()
                for kind, i, j in factors:
                    left, right = _DOTS[kind]
                    dots[i] += left
                    dots[j] += right
                if all(dots[v] in (0, 2) for v in range(nvars)):
                    yield factors, nvars


def outcome_digest(rules, sizes=SIZES) -> tuple[int, str]:
    """(product count, sha256 of every product's reduced outcome) under ``rules``."""
    digest = hashlib.sha256()
    count = 0
    for factors, nvars in enumerated_products(sizes):
        log: list[dict] = []
        notes: list[str] = []
        try:
            text = _reduce_product(rules, ParsedProduct(RegValue.one(), factors, nvars), log, notes).text()
        except (ReductionError, UnreducedSingularStructureError) as error:
            text = f"{type(error).__name__}: {error}"
        described = [(kind, i, j) for kind, i, j in factors]
        digest.update(repr((described, text, log, notes)).encode())
        digest.update(b"\n")
        count += 1
    return count, digest.hexdigest()


@pytest.mark.parametrize("rules", [DIMREG, MODEREG], ids=lambda rules: rules.name)
def test_every_small_product_keeps_its_outcome(rules):
    assert outcome_digest(rules) == (2502, EXPECTED[rules.name])


def test_the_enumeration_holds_the_refused_triangle():
    # DD(1,2)*DD(1,3)*DD(2,3): a closed delta triangle that the reducer refuses.
    triangle = (("DD", 0, 1), ("DD", 0, 2), ("DD", 1, 2))
    assert (triangle, 3) in set(enumerated_products())
    with pytest.raises((ReductionError, UnreducedSingularStructureError)):
        _reduce_product(DIMREG, ParsedProduct(RegValue.one(), triangle, 3), None, [])


@pytest.mark.parametrize("rules", [DIMREG, MODEREG], ids=lambda rules: rules.name)
def test_a_memo_hit_replays_the_search(rules):
    # Cold, the memo searches every lifted term; warm, it answers every one
    # from what it recorded.  Any value, refusal, move or note that a hit
    # replays differently changes the digest.
    _reduce_lifted.cache_clear()
    cold = outcome_digest(rules, ((2, 4),))
    searched = _reduce_lifted.cache_info().misses
    warm = outcome_digest(rules, ((2, 4),))
    assert _reduce_lifted.cache_info().misses == searched > 0
    assert warm == cold
