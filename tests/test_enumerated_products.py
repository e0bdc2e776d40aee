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
from hypothesis import given, settings, strategies as st

from worldline.integrands import ParsedProduct
from worldline.integration import DIMREG, MODEREG, UnreducedSingularStructureError
from worldline.reduction import ReductionError, _integrate_leaf, _reduce_lifted, _reduce_product
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


def outcome(rules, factors, nvars) -> tuple[str, list[dict], list[str]]:
    """(value or error text, move log, notes) of one product reduced under ``rules``."""
    log: list[dict] = []
    notes: list[str] = []
    try:
        text = _reduce_product(rules, ParsedProduct(RegValue.one(), factors, nvars), log, notes).text()
    except (ReductionError, UnreducedSingularStructureError) as error:
        text = f"{type(error).__name__}: {error}"
    return text, log, notes


def outcome_digest(rules, sizes=SIZES) -> tuple[int, str]:
    """(product count, sha256 of every product's reduced outcome) under ``rules``."""
    digest = hashlib.sha256()
    count = 0
    for factors, nvars in enumerated_products(sizes):
        described = [(kind, i, j) for kind, i, j in factors]
        digest.update(repr((described, *outcome(rules, factors, nvars))).encode())
        digest.update(b"\n")
        count += 1
    return count, digest.hexdigest()


def clear_memos():
    _reduce_lifted.cache_clear()
    _integrate_leaf.cache_clear()


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
    # Cold, the memos search every lifted term and integrate every leaf;
    # warm, they answer each from what they recorded, and a search or an
    # integration would add an entry.  Any value, refusal, move or note that
    # a hit replays differently changes the digest.
    memos = (_reduce_lifted, _integrate_leaf)
    clear_memos()
    cold = outcome_digest(rules, ((2, 4),))
    searched = [memo.cache_info()["currsize"] for memo in memos]
    warm = outcome_digest(rules, ((2, 4),))
    assert [memo.cache_info()["currsize"] for memo in memos] == searched
    assert min(searched) > 0
    assert warm == cold


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(list(enumerated_products(((1, 4), (2, 4), (3, 4))))),
    st.sampled_from([(DIMREG, MODEREG), (MODEREG, DIMREG)]),
)
def test_one_memo_serves_both_rule_sets_as_two_fresh_ones_would(product, schemes):
    # An entry that never looked up an eps power serves the other rule set
    # too.  Whichever scheme runs first, each one's value or refusal, move
    # log and notes are those of a fresh memo.
    fresh = []
    for rules in schemes:
        clear_memos()
        fresh.append(outcome(rules, *product))
    clear_memos()
    assert [outcome(rules, *product) for rules in schemes] == fresh
    clear_memos()
