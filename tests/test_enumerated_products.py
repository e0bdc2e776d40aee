"""Every small propagator product, reduced and integrated, against pinned hashes.

The products are the multisets of ``(kind, i, j)`` factors with i <= j on
1-2 variables with up to 5 factors and on 3 variables with up to 4 factors,
where every variable occurs and carries 0 or 2 dotted ends.  Each one runs
through ``reduction._reduce_product``; its factors, value or error text, move
log and eps-power notes go into one sha256 per rule set.  A refactor of the
reducer or the integrator that changes any value, refusal, move or note of
these 2,502 products changes the hash.  The same outcomes, with each
product's direct integral, must not change under a renaming of the
variables, and must satisfy the convolution int dtau DD(a,tau) DD(tau,b) =
DD(a,b), for a = b too.  Where the reducer and the direct route disagree,
each exception set is pinned by its cause.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import given, settings, strategies as st

from worldline import reduction
from worldline.integration import (
    DIMREG,
    MODEREG,
    RuleSet,
    SingularAtom,
    UnreducedSingularStructureError,
    _reads_rules,
    integrate_product,
)
from worldline.reduction import (
    ParsedProduct,
    ReductionError,
    TProp,
    TTerm,
    _integrate_leaf,
    _integrate_leaves,
    _reduce_lifted,
    _reduce_product,
    _resolve,
    _signature,
    lift,
)
from worldline.values import RegValue

# (variable count, most factors) of the enumerated products.
SIZES = ((1, 5), (2, 5), (3, 4))

EXPECTED = {
    "DimReg": "cfeefec7eb56aaab2abd51853a3b65fa43cb50363f02d73135e0b43fc5ce1e0a",
    "ModeReg": "3c01bd75749b6d7af91e61698ea8c056b65e05c6b62e96cd3ff55657b9891b7d",
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


def direct(rules, factors, nvars) -> str:
    """The value or refusal text of one product integrated directly under ``rules``."""
    try:
        return integrate_product(list(factors), nvars, rules).text()
    except UnreducedSingularStructureError as error:
        return f"{type(error).__name__}: {error}"


def outcome_digest(outcomes: dict) -> tuple[int, str]:
    """(product count, sha256 of every product's reduced outcome), in enumeration order."""
    digest = hashlib.sha256()
    for (factors, _), reduced in outcomes.items():
        described = [(kind, i, j) for kind, i, j in factors]
        digest.update(repr((described, *reduced)).encode())
        digest.update(b"\n")
    return len(outcomes), digest.hexdigest()


def clear_memos():
    _reduce_lifted.cache_clear()
    _integrate_leaf.cache_clear()


@pytest.fixture(scope="module")
def enumerated():
    """Per rule set, computed once: each product's reducer outcome and its direct value."""
    tables = {}

    def table(rules):
        if rules.name not in tables:
            products = list(enumerated_products())
            tables[rules.name] = (
                {product: outcome(rules, *product) for product in products},
                {product: direct(rules, *product) for product in products},
            )
        return tables[rules.name]

    return table


@pytest.mark.parametrize("rules", [DIMREG, MODEREG], ids=lambda rules: rules.name)
def test_every_small_product_keeps_its_outcome(rules, enumerated):
    reduced, _ = enumerated(rules)
    assert outcome_digest(reduced) == (2502, EXPECTED[rules.name])


# -- relabelling and convolution -------------------------------------------------

_KINDS = ("D", "Dl", "Dr", "DD")
_REVERSED = {"D": "D", "Dl": "Dr", "Dr": "Dl", "DD": "DD"}  # Dl(i,j) = Dr(j,i)


def listed(factors) -> tuple[tuple[str, int, int], ...]:
    """Factors with i <= j in the order the enumeration lists them."""
    ordered = []
    for kind, i, j in factors:
        ordered.append((kind, i, j) if i <= j else (_REVERSED[kind], j, i))
    return tuple(sorted(ordered, key=lambda f: (_KINDS.index(f[0]), f[1], f[2])))


def contractions(factors, nvars, closed=False):
    """Each product that int dtau DD(a,tau) DD(tau,b) = DD(a,b) turns this one into.

    Exact, since DD = delta - 1/beta is the projection 1 - P0.  It applies
    where a variable tau touches exactly two DD factors, neither at equal
    times, and nothing else; the variables above tau move down by one.  The
    cases have a != b, or with ``closed`` a = b, where DD(a,a) is the
    equal-time DD.
    """
    for tau in range(nvars):
        touching = [f for f in factors if tau in f[1:]]
        if len(touching) != 2 or any(kind != "DD" or i == j for kind, i, j in touching):
            continue
        a, b = sorted(i + j - tau for _, i, j in touching)
        if (a == b) != closed:
            continue
        rest = list(factors)
        for f in touching:
            rest.remove(f)
        shifted = [(kind, i - (i > tau), j - (j > tau)) for kind, i, j in rest + [("DD", a, b)]]
        yield listed(shifted), nvars - 1


@pytest.mark.parametrize("rules", [DIMREG, MODEREG], ids=lambda rules: rules.name)
def test_renaming_the_variables_keeps_the_value(rules, enumerated):
    # Every renaming of an enumerated product is enumerated too; the reducer
    # and the direct route each give it the same value, or refuse both.
    reduced, directly = enumerated(rules)
    for texts in ({p: reduced[p][0] for p in reduced}, directly):
        values = {p: text.partition(":")[0] for p, text in texts.items()}  # a refusal by its class
        changed = {
            (factors, nvars)
            for (factors, nvars), value in values.items()
            for order in permutations(range(nvars))
            if values[listed((kind, order[i], order[j]) for kind, i, j in factors), nvars] != value
        }
        assert changed == set()


# The closed delta triangle DD(1,2)*DD(1,3)*DD(2,3), which the reducer refuses
# (ROADMAP direction 15), and under ModeReg the I14 chain
# Dl(1,2)*Dr(1,2)*DD(1,3)*DD(2,3) with its renamings: the reducer gives 0,
# where the convolution puts I14's beta/12.
_TRIANGLE = {("DD", 0, 1), ("DD", 0, 2), ("DD", 1, 2)}
_I14_CHAINS = {
    (("Dl", 0, 1), ("Dr", 0, 1), ("DD", 0, 2), ("DD", 1, 2)),
    (("Dl", 0, 2), ("Dr", 0, 2), ("DD", 0, 1), ("DD", 1, 2)),
    (("Dl", 1, 2), ("Dr", 1, 2), ("DD", 0, 1), ("DD", 0, 2)),
}


@pytest.mark.parametrize("rules", [DIMREG, MODEREG], ids=lambda rules: rules.name)
def test_a_variable_between_two_dd_factors_integrates_to_one_dd(rules, enumerated):
    reduced, directly = enumerated(rules)
    # The direct route, with the four-variable products whose contraction is
    # enumerated: the identity holds in every case.
    four = {
        product: direct(rules, *product)
        for product in enumerated_products(((4, 4),))
        if any(contractions(*product))
    }
    values = {**directly, **four}
    cases = [(p, q) for p in values for q in contractions(*p)]
    assert len(cases) == 183
    assert [(p, q) for p, q in cases if ":" in values[p] or values[p] != values[q]] == []
    # The reducer fails only where it refuses the triangle, and on the I14
    # chains under ModeReg.
    failed = [
        p for p in reduced for q in contractions(*p)
        if ":" in reduced[p][0] or reduced[p][0] != reduced[q][0]
    ]
    triangles = [p for p in failed if _TRIANGLE <= set(p[0])]
    assert len(triangles) == 12
    assert all(reduced[p][0].startswith("ReductionError") for p in triangles)
    chains = {factors for factors, _ in failed} - {factors for factors, _ in triangles}
    assert chains == (_I14_CHAINS if rules is MODEREG else set())
    for factors in chains:
        assert reduced[factors, 3][0] == "0"
        assert reduced[listed([("Dl", 0, 1), ("Dr", 0, 1), ("DD", 0, 1)]), 2][0] == "1/12 * beta"


def squared_dd(factors) -> bool:
    """Whether the product holds some DD(i,j)**2 with i != j."""
    return any(kind == "DD" and i != j and factors.count((kind, i, j)) > 1 for kind, i, j in factors)


def isolated_square(factors) -> bool:
    """Whether some DD(i,j)**2 with i != j is the only factor on i and on j."""
    return any(
        kind == "DD" and i != j and factors.count((kind, i, j)) == 2
        and all(f == (kind, i, j) or not {i, j} & set(f[1:]) for f in factors)
        for kind, i, j in factors
    )


def test_a_closed_dd_loop_integrates_to_the_equal_time_dd(enumerated):
    # int dtau DD(a,tau) DD(tau,a) = DD(a,a) = delta0 - 1/beta.  The direct
    # route meets every case.  The reducer gives a DD(i,j)**2 that nothing
    # else touches beta*delta0, and DD(a,a) beta*delta0 - 1, so it fails
    # both cases of each such product, in both schemes.  That set is known
    # until ROADMAP direction 17 settles which delta0 a lifted square carries.
    for rules in (DIMREG, MODEREG):
        reduced, directly = enumerated(rules)
        cases = [(p, q) for p in reduced for q in contractions(*p, closed=True)]
        assert len(cases) == 110
        assert [(p, q) for p, q in cases if ":" in directly[p] or directly[p] != directly[q]] == []
        failed = [p for p, q in cases if ":" in reduced[p][0] or reduced[p][0] != reduced[q][0]]
        assert len(failed) == 44
        assert set(failed) == {p for p, _ in cases if isolated_square(p[0])}
        assert len(set(failed)) == 22


# Dl(1,2)*Dl(2,3)*DD(1,3)*DD(2,3) and its renamings: eps atoms on two pairs
# of one delta component (ROADMAP direction 3).
_TWO_PAIR_CHAINS = {
    (listed((kind, order[i], order[j]) for kind, i, j in (("Dl", 0, 1), ("Dl", 1, 2), ("DD", 0, 2), ("DD", 1, 2))), 3)
    for order in permutations(range(3))
}


def test_the_dimreg_reducer_meets_the_direct_route_but_for_known_causes(enumerated):
    # The route-agreement table of ROADMAP direction 18: the DimReg reducer
    # against the direct route with int eps^2 delta = x.  x = 0 and 1/3 are
    # DimReg's and ModeReg's values; 1/2 is the value that raw products
    # seem to need.  Each set of products where the routes differ is
    # pinned by its cause.
    reduced, at_zero = enumerated(DIMREG)
    modereg, at_third = enumerated(MODEREG)
    at_half = {p: direct(RuleSet("X", Fraction(1, 2)), *p) for p in reduced}
    answered = {p for p, (text, _, _) in reduced.items() if ":" not in text}
    squares = {p for p in answered if squared_dd(p[0])}
    assert (len(answered), len(squares)) == (2495, 125)
    # Without a square the routes differ at x = 0 and 1/3 exactly where the
    # reducer gives the two schemes different values, and at x = 1/2 on the
    # two-pair chains alone.
    scheme_dependent = {p for p in answered - squares if reduced[p][0] != modereg[p][0]}
    assert len(scheme_dependent) == 31
    table = ((at_zero, scheme_dependent), (at_third, scheme_dependent), (at_half, _TWO_PAIR_CHAINS))
    # With a square (ROADMAP direction 17), the same 47 differ at every x.
    failing_squares = set()
    for directly, differ_without_square in table:
        differ = {p for p in answered if directly[p] != reduced[p][0]}
        assert differ - squares == differ_without_square
        failing_squares.add(frozenset(differ & squares))
    assert [len(s) for s in failing_squares] == [47]


def test_the_leaf_check_flags_exactly_the_leaves_that_read_the_rule_set(monkeypatch):
    # Every leaf that a search reaches, in a branch it keeps or drops, is
    # integrated under both schemes.  ``_reads_rules`` must flag exactly the
    # leaves that look an eps power up: a leaf it missed would hand one
    # scheme's value to the other through the leaf memo.
    leaves = set()
    return_to_1d = reduction.return_to_1d

    def recording(term):
        factors, deltas = return_to_1d(term)
        leaves.add((tuple(factors), term.nvars, deltas))
        return factors, deltas

    # Each leaf that the search memo holds carries the check's flag with it.
    held = set()
    reduce_lifted = reduction._reduce_lifted

    def holding(*args):
        found = reduce_lifted(*args)
        held.update(leaf for _, leaf in found[0])
        return found

    monkeypatch.setattr(reduction, "return_to_1d", recording)
    monkeypatch.setattr(reduction, "_reduce_lifted", holding)
    clear_memos()  # a memo hit reaches no leaf
    for factors, nvars in enumerated_products():
        try:
            _resolve(lift(ParsedProduct(RegValue.one(), factors, nvars)), reduction._MAX_DEPTH, [], [])
        except ReductionError:
            pass
    clear_memos()
    assert held and all(reads == _reads_rules(factors, deltas) for factors, _, deltas, reads in held)
    assert {leaf[:3] for leaf in held} <= leaves
    monkeypatch.undo()
    lookups = []
    eps_power_delta_value = RuleSet.eps_power_delta_value
    monkeypatch.setattr(
        RuleSet, "eps_power_delta_value", lambda rules, power: lookups.append(power) or eps_power_delta_value(rules, power)
    )
    flagged = {leaf for leaf in leaves if _reads_rules(leaf[0], leaf[2])}
    for rules in (DIMREG, MODEREG):
        reading = set()
        for factors, nvars, deltas in leaves:
            lookups.clear()
            integrate_product(list(factors), nvars, rules, extra_atoms=deltas)
            if lookups:
                reading.add((factors, nvars, deltas))
        assert reading == flagged
    assert (len(leaves), len(flagged)) == (2020, 60)


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
    products = list(enumerated_products(((2, 4),)))
    clear_memos()
    cold = outcome_digest({product: outcome(rules, *product) for product in products})
    searched = [memo.cache_info().currsize for memo in memos]
    warm = outcome_digest({product: outcome(rules, *product) for product in products})
    assert [memo.cache_info().currsize for memo in memos] == searched
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


# -- confluence ----------------------------------------------------------------

_REFUSALS = (ReductionError, UnreducedSingularStructureError)


def _candidate_values(rules, term, depth) -> dict[tuple[int, int], RegValue]:
    """The value of ``term`` through each partial-integration candidate that succeeds.

    Each candidate is taken as ``_search`` takes one: its pieces are reduced,
    and the ones that repeat the term solve for it as a fixed point.  The
    leaves of the other pieces are integrated under ``rules``.
    """
    values = {}
    signature = _signature(term)
    for idx, prop in enumerate(term.props):
        for side, labels in ((0, prop.left), (1, prop.right)):
            if len(labels) != 1:
                continue
            try:
                ratio, leaves = Fraction(0), []
                for piece in reduction.partial_integration(term, idx, side):
                    terms = dict(piece.coefficient.items())
                    if terms.keys() <= {(0, 0)} and _signature(piece) == signature:
                        ratio += terms.get((0, 0), 0)
                    else:
                        _resolve(piece, depth - 1, [], leaves)
                total = _integrate_leaves(rules, leaves, [])
            except _REFUSALS:
                continue
            if ratio != 1:
                values[idx, side] = total / (1 - ratio)
    return values


def _node_text(term) -> tuple[str, ...]:
    deltas = [f"delta({d.i + 1},{d.j + 1})" for d in term.deltas]
    return tuple(sorted(prop.describe() for prop in term.props)) + tuple(sorted(deltas))


# [mu]D[](1,1) [mu]D[nu](1,2) [nu]D[](2,3) times delta(1,3): before partial
# integrations refused a delta on their variable, its candidates gave
# beta/12 or beta/6.
_SPLIT_NODE = TTerm(
    RegValue.one(), 3,
    (TProp(0, 0, ("mu",), ()), TProp(0, 1, ("mu",), ("nu",)), TProp(1, 2, ("nu",), ())),
    (SingularAtom("delta", 0, 2),),
)
@pytest.mark.parametrize("rules", [DIMREG, MODEREG], ids=lambda rules: rules.name)
def test_every_succeeding_partial_integration_gives_one_value(rules, monkeypatch):
    # Every other three-variable product that holds a DD, plus the one whose
    # search reaches the split node, is reduced with cold memos; each node
    # whose search tries a partial integration is recorded with its depth.
    # At each node every candidate that succeeds must give the same value.
    products = [(f, n) for f, n in enumerated_products(((3, 4),)) if any(k == "DD" for k, _, _ in f)]
    reaching = ((("D", 0, 0), ("DD", 0, 1), ("DD", 0, 2), ("DD", 1, 2)), 3)
    sample = products[::2] + [reaching] * (reaching not in products[::2])
    stack, nodes = [], {}
    search, partial_integration = reduction._search, reduction.partial_integration

    def recording_search(term, depth, log, leaves):
        stack.append((term, depth))
        try:
            return search(term, depth, log, leaves)
        finally:
            stack.pop()

    def recording_partial_integration(term, idx, side):
        nodes.setdefault(stack[-1])
        return partial_integration(term, idx, side)

    monkeypatch.setattr(reduction, "_search", recording_search)
    monkeypatch.setattr(reduction, "partial_integration", recording_partial_integration)
    clear_memos()
    for factors, nvars in sample:
        try:
            _reduce_product(rules, ParsedProduct(RegValue.one(), factors, nvars), None, [])
        except _REFUSALS:
            pass
    monkeypatch.undo()
    assert any(_signature(term) == _signature(_SPLIT_NODE) for term, _ in nodes)
    split = {
        _node_text(term) for term, depth in nodes if len(set(_candidate_values(rules, term, depth).values())) > 1
    }
    clear_memos()
    assert split == set()
