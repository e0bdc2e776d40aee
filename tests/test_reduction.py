"""The dimensional lift: frozen table, constraints, moves, and error paths."""

from __future__ import annotations

import hashlib
import itertools
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from worldline import reduction
from worldline.checks import run_standard_checks
from worldline.integration import DIMREG, MODEREG, SingularAtom, UnreducedSingularStructureError, integrate_product
from worldline.reduction import (
    NAMED_INTEGRALS,
    ParsedProduct,
    ReductionError,
    TProp,
    TTerm,
    _integrate_leaf,
    _reduce_lifted,
    _reduce_product,
    divergence_split,
    equal_time_substitute,
    evaluate_named,
    field_equation,
    lift,
    parse,
    partial_integration,
    reduce_terms,
    return_to_1d,
    tag,
)
from worldline.values import RegValue


def beta(power, coeff):
    return RegValue.beta(power, Fraction(coeff))


def term(power, coeff, d0pow):
    return RegValue.term(Fraction(coeff), power, d0pow)


# The full reduction table.  Finite entries are exact in beta; the two
# divergent integrals keep their delta0 grade explicitly.
DIMREG_TABLE = [
    ("I2", term(3, "1/30", 1) + beta(2, "-7/180")),
    ("I2R", beta(2, "-7/180")),
    ("I4", beta(2, "1/90")),
    ("I6", beta(2, "1/144")),
    ("I7", beta(2, "-1/720")),
    ("I8", term(3, "1/30", 1) + beta(2, "-1/72")),
    ("I8R", beta(2, "-1/72")),
    ("I9", beta(2, "-1/720")),
    ("I10", beta(2, "1/90")),
    ("I11", beta(1, "1/12")),
    ("I12", beta(1, "-1/12")),
    ("I13", beta(1, "1/12")),
    ("I14", beta(1, "1/24")),
    ("I15", term(2, "1/6", 1) + beta(1, "-1/8")),
    ("I15R", beta(1, "-1/8")),
]

MODEREG_TABLE = [
    ("I2R", beta(2, "-7/180")),
    ("I4", beta(2, "1/90")),
    ("I7", beta(2, "-1/720")),
    ("I8R", beta(2, "-1/18")),
    ("I9", beta(2, "1/180")),
    ("I10", beta(2, "1/90")),
    ("I11", beta(1, "1/12")),
    ("I12", beta(1, "-1/12")),
    ("I13", beta(1, "1/12")),
    ("I14", beta(1, "1/12")),
    ("I15R", beta(1, "-1/4")),
]


@pytest.mark.parametrize("name,expected", DIMREG_TABLE, ids=[n for n, _ in DIMREG_TABLE])
def test_dimreg_table(name, expected):
    assert evaluate_named(name, DIMREG) == expected


@pytest.mark.parametrize("name,expected", MODEREG_TABLE, ids=[n for n, _ in MODEREG_TABLE])
def test_modereg_table(name, expected):
    assert evaluate_named(name, MODEREG) == expected


def test_dimreg_constraints():
    i8, i9, i10 = (evaluate_named(n, DIMREG) for n in ("I8R", "I9", "I10"))
    i14, i15 = evaluate_named("I14", DIMREG), evaluate_named("I15R", DIMREG)
    assert i8 + 4 * i9 + i10 == beta(2, "-1/120")
    assert i8 - 2 * i9 + i10 == RegValue.zero()
    assert i14 + i15 == beta(1, "-1/12")
    assert 3 * i14 + i15 == RegValue.zero()


def test_modereg_breaks_one_constraint():
    i14, i15 = evaluate_named("I14", MODEREG), evaluate_named("I15R", MODEREG)
    # The homogeneous combination still holds; the inhomogeneous one shifts.
    assert 3 * i14 + i15 == RegValue.zero()
    assert i14 + i15 == beta(1, "-1/6")


def test_i6_plus_i7():
    total = evaluate_named("I6", DIMREG) + evaluate_named("I7", DIMREG)
    assert total == beta(2, "1/180")


# -- lift structure -----------------------------------------------------------


def test_lift_pairs_vertex_ends():
    parsed = parse("Dl(1,2)*Dr(1,2)*DD(1,2)")[0]
    lifted = lift(parsed)
    tags = sorted(tag(p) for p in lifted.props)
    assert tags == ["MuNu", "SingleLeft", "SingleRight"]
    munu = next(p for p in lifted.props if tag(p) == "MuNu")
    single_left = next(p for p in lifted.props if tag(p) == "SingleLeft")
    single_right = next(p for p in lifted.props if tag(p) == "SingleRight")
    assert munu.left == single_left.left
    assert munu.right == single_right.right


def test_lift_equal_time_double_dot_is_self_contracted():
    parsed = parse("DD(1,1)*D(1,2)*DD(2,2)")[0]
    lifted = lift(parsed)
    tags = sorted(tag(p) for p in lifted.props)
    assert tags == ["MuMuEqualTime", "MuMuEqualTime", "None"]


def test_lift_rejects_odd_vertex():
    parsed = parse("Dl(1,2)*D(1,2)")[0]
    with pytest.raises(ReductionError, match="zero or two"):
        lift(parsed)


def test_lift_refuses_an_unknown_kind():
    product = ParsedProduct(RegValue.one(), (("Dx", 0, 1),), 2)
    with pytest.raises(ReductionError) as info:
        reduce_terms([product])
    assert str(info.value) == "no legal reduction: unknown propagator kind 'Dx'"


def test_a_lifted_delta_is_a_delta_atom_with_sorted_ends():
    term = TTerm(RegValue.one(), 2, (TProp(1, 0, (), ("mu", "mu")),), ())
    reduced = field_equation(term, 0)
    assert reduced.deltas == (SingularAtom("delta", 0, 1),)
    assert return_to_1d(reduced) == ([], reduced.deltas)


def test_tag_classification():
    assert tag(TProp(0, 1, ("mu",), ("nu",))) == "MuNu"
    assert tag(TProp(0, 0, ("mu",), ("mu",))) == "MuMuEqualTime"
    assert tag(TProp(0, 1, ("mu", "mu"), ())) == "Laplacian"
    assert tag(TProp(0, 1, (), ("mu", "mu"))) == "Laplacian"
    assert tag(TProp(0, 1, ("mu",), ())) == "SingleLeft"
    assert tag(TProp(0, 1, (), ("mu",))) == "SingleRight"
    assert tag(TProp(0, 1, (), ())) == "None"
    # A mixed second derivative with an extra spectator index is outside
    # the move table.
    assert tag(TProp(0, 1, ("mu", "mu"), ("nu",))) == "Unknown"
    assert tag(TProp(0, 1, ("mu",), ("mu",))) == "Unknown"


# -- move log -----------------------------------------------------------------


def test_move_log_records_the_chain():
    log = []
    value = reduce_terms("Dl(1,2)*Dr(1,2)*DD(1,2)", DIMREG, log)
    assert value == beta(1, "1/24")
    moves = [entry["move"] for entry in log]
    assert moves[0] == "Lift"
    assert "PartialIntegration" in moves
    assert "FieldEquation" in moves
    assert "ReturnTo1D" in moves
    assert "FixedPoint" in moves


def test_no_delta_substitution_on_munu():
    # The equation of motion is only ever applied to Laplacian-tagged
    # factors, never to the mixed-derivative factor itself: exactly the
    # discipline the naive routes violate.
    for name in ("I14", "I15", "I8", "I9", "I2"):
        log = []
        text = {
            "I14": "Dl(1,2)*Dr(1,2)*DD(1,2)",
            "I15": "D(1,2)*DD(1,2)*DD(1,2)",
            "I8": "D(1,2)*D(1,2)*DD(1,2)*DD(1,2)",
            "I9": "D(1,2)*Dl(1,2)*Dr(1,2)*DD(1,2)",
            "I2": "D(1,1)*DD(1,2)*DD(1,2)*D(2,2)",
        }[name]
        reduce_terms(text, DIMREG, log)
        for entry in log:
            if entry["move"] in ("FieldEquation", "EqualTimeSubstitute"):
                assert entry["tag"] != "MuNu"
        assert any(entry["move"] == "ReturnTo1D" for entry in log)


def test_forbidden_shortcut_raises_naming_the_factor():
    # Lift, then come straight back to one dimension: the shortcut that
    # would let the naive manipulations back in.
    for name, match in (("I14", "MuNu"), ("I15", "no legal reduction")):
        with pytest.raises(ReductionError, match=match):
            return_to_1d(lift(parse(NAMED_INTEGRALS[name])[0]))


def test_return_to_1d_blocked_by_munu():
    parsed = parse("Dl(1,2)*Dr(1,2)*DD(1,2)")[0]
    lifted = lift(parsed)
    with pytest.raises(ReductionError, match="blocked"):
        return_to_1d(lifted)


def test_reduction_is_deterministic():
    runs = []
    for _ in range(3):
        log = []
        value = reduce_terms("D(1,2)*Dl(1,2)*Dr(1,2)*DD(1,2)", DIMREG, log)
        runs.append((value, tuple(str(e) for e in log)))
    assert len(set(runs)) == 1


def test_unliftable_product_raises():
    with pytest.raises(ReductionError, match="no legal reduction"):
        reduce_terms("Dl(1,2)", DIMREG)


def test_regular_product_reduces_without_moves():
    # No derivatives at all: the lift is trivial and the value matches the
    # straight integral.
    log = []
    value = reduce_terms("D(1,2)*D(1,2)", DIMREG, log)
    assert value == beta(4, "1/90")
    assert [e["move"] for e in log] == ["Lift", "ReturnTo1D"]


def test_parameter_dependence_matches_rule_value():
    # I14 under the two rule sets differs exactly by e/8 * beta with
    # e = 1/3: the single place the regularization choice enters.
    gap = evaluate_named("I14", MODEREG) - evaluate_named("I14", DIMREG)
    assert gap == beta(1, Fraction(1, 3) / 8)


@pytest.mark.parametrize("rules", [DIMREG, MODEREG], ids=lambda r: r.name)
def test_move_search_falls_back_to_a_later_candidate(rules):
    # This product reduces only because the move search backtracks past the
    # first partial-integration candidate of a node below the top, which a
    # delta on its variable refuses; a search that stops after the first
    # candidate raises ReductionError.  The value follows from the exact
    # convolution int dtau_3 DD(1,3) DD(2,3) = DD(1,2) (DD = delta - 1/beta)
    # and Dl(1,1)*Dr(1,2)*DD(1,2) = beta/12.
    value = reduce_terms("Dl(1,1)*Dr(1,2)*DD(1,3)*DD(2,3)", rules)
    assert value == beta(1, "1/12") == reduce_terms("Dl(1,1)*Dr(1,2)*DD(1,2)", rules)


# -- refusals of the public moves ----------------------------------------------

MU_NU = TProp(0, 1, ("mu",), ("nu",))


def lifted(*props):
    return TTerm(RegValue.one(), 2, props, ())


@pytest.mark.parametrize(
    "move,args,message",
    [
        (
            partial_integration,
            (lifted(TProp(0, 1, (), ())), 0, 0),
            "PartialIntegration needs a single derivative on the chosen side of []D[](1,2)",
        ),
        (
            partial_integration,
            (lifted(TProp(0, 0, ("mu",), ("nu",)), MU_NU), 0, 0),
            "a partial integration in variable 1 leaves a nonzero endpoint term",
        ),
        (
            partial_integration,
            (lifted(TProp(0, 1, ("mu",), ()), TProp(0, 1, ("nu",), ())), 0, 0),
            "partial integration would pile a third derivative onto [nu]D[](1,2)",
        ),
        (
            partial_integration,
            (lifted(TProp(0, 1, ("mu",), ()), TProp(0, 1, (), ("mu",))), 0, 0),
            "the product rule would turn []D[mu](1,2) into [mu]D[mu](1,2), "
            "a self-contracted mixed derivative at distinct times",
        ),
        (
            divergence_split,
            (lifted(MU_NU, TProp(0, 1, ("nu",), ("mu",))), 0, 1),
            "the add-and-subtract split needs an identical pair of mixed-derivative factors",
        ),
        (
            divergence_split,
            (lifted(MU_NU, MU_NU, TProp(0, 1, ("rho",), ())), 0, 1),
            "the split cannot differentiate [rho]D[](1,2) again",
        ),
        (
            divergence_split,
            (lifted(MU_NU, MU_NU, TProp(0, 1, (), ("rho",))), 0, 1),
            "the split cannot differentiate []D[rho](1,2) again",
        ),
        (
            equal_time_substitute,
            (lifted(TProp(0, 1, (), ())), 0),
            "EqualTimeSubstitute applies only to the self-contracted equal-time factor, "
            "not []D[](1,2)",
        ),
        (
            field_equation,
            (lifted(MU_NU), 0),
            "FieldEquation applies only to a Laplacian factor, not [mu]D[nu](1,2) (tag MuNu)",
        ),
    ],
    ids=[
        "pi-no-single-derivative",
        "pi-nonzero-endpoint",
        "pi-third-derivative",
        "pi-self-contracted-mixed",
        "split-not-identical",
        "split-i-side",
        "split-j-side",
        "equal-time-wrong-tag",
        "field-equation-wrong-tag",
    ],
)
def test_move_refusals(move, args, message):
    # These texts can appear inside "every candidate move failed; tried N:",
    # so they are pinned word for word.
    with pytest.raises(ReductionError) as info:
        move(*args)
    assert str(info.value) == "no legal reduction: " + message


# -- exhaustive audit of small products -----------------------------------------

KINDS = ("D", "Dl", "Dr", "DD")


def small_liftable_products():
    """Every multiset of factors (kind, i, j), i <= j, that uses each variable
    and gives each one zero or two dotted ends: up to four factors on one or
    two variables, up to three on three."""
    for nvars, most in ((1, 4), (2, 4), (3, 3)):
        pairs = [(i, j) for i in range(nvars) for j in range(i, nvars)]
        factors = [(kind, i, j) for i, j in pairs for kind in KINDS]
        for size in range(1, most + 1):
            for combo in itertools.combinations_with_replacement(factors, size):
                ends = [0] * nvars
                used = set()
                for kind, i, j in combo:
                    used.update((i, j))
                    ends[i] += kind in ("Dl", "DD")
                    ends[j] += kind in ("Dr", "DD")
                if len(used) == nvars and all(e in (0, 2) for e in ends):
                    yield ParsedProduct(RegValue.one(), combo, nvars)


@pytest.mark.parametrize("rules", [DIMREG, MODEREG], ids=lambda r: r.name)
def test_every_small_liftable_product_reduces_or_refuses(rules):
    triangle = (
        ("DD", 0, 1),
        ("DD", 0, 2),
        ("DD", 1, 2),
    )
    products = list(small_liftable_products())
    assert len(products) == 537
    refused = []
    for parsed in products:
        log = []
        try:
            value = _reduce_product(rules, parsed, log, [])
        except ReductionError:
            refused.append(parsed.factors)
        else:
            assert isinstance(value, RegValue)
            assert any(entry["move"] == "ReturnTo1D" for entry in log), parsed.factors
        assert log[0]["move"] == "Lift", parsed.factors
        for entry in log:
            if entry["move"] in ("FieldEquation", "EqualTimeSubstitute"):
                assert entry["tag"] != "MuNu", parsed.factors
    assert refused == [triangle]


@st.composite
def small_products(draw):
    """Text of a product of 1-4 propagator factors on 1-3 variables."""
    nvars = draw(st.integers(1, 3))
    index = st.integers(1, nvars)
    kind = st.sampled_from(("D", "Dl", "Dr", "DD"))
    factors = draw(st.lists(st.tuples(kind, index, index), min_size=1, max_size=4))
    return "*".join(f"{kind}({i},{j})" for kind, i, j in factors)


@settings(max_examples=300, deadline=None)
@given(small_products(), st.sampled_from([DIMREG, MODEREG]))
def test_reduce_terms_returns_or_raises_value_error(text, rules):
    # Any product, liftable or not: the library answers with a value or a
    # ValueError subclass (ReductionError included), never another error.
    try:
        value = reduce_terms(text, rules)
    except ValueError:
        return
    assert isinstance(value, RegValue)


# -- the memo ------------------------------------------------------------------


def clear_memos():
    _reduce_lifted.cache_clear()
    _integrate_leaf.cache_clear()


@pytest.fixture
def searched(monkeypatch):
    """Counts each search of a lifted term by memo key; the memos start and end empty."""
    counts = Counter()
    search = reduction._search

    def counted(term, depth, log, leaves):
        counts[term.nvars, term.props, term.deltas, depth] += 1
        return search(term, depth, log, leaves)

    monkeypatch.setattr(reduction, "_search", counted)
    clear_memos()
    yield counts
    clear_memos()


@pytest.mark.parametrize(
    "text, integrations, value, entries, digest",
    [
        (  # I2: 7 integrations without a memo, 4 with the lifted-term memo alone
            "D(1,1)*DD(1,2)*DD(1,2)*D(2,2)", 4, "-7/180 * beta^2 + 1/30 * beta^3 * delta0", 19,
            "42ca27a5ff9893bdb4a2b3a70133bb2dbc46b8827205b17b8b5e0f3a9e6655bf",
        ),
        (  # I8: 7 without a memo, 5 with the lifted-term memo alone
            "D(1,2)*D(1,2)*DD(1,2)*DD(1,2)", 4, "-1/72 * beta^2 + 1/30 * beta^3 * delta0", 17,
            "a5eb5944b95bd9b8c65278e06f02dee052db7fb8e555870ede4892a79fb02069",
        ),
        (  # beta/12 by the convolution int dtau_3 DD(1,3) DD(2,3) = DD(1,2)
            "Dl(1,1)*Dr(1,2)*DD(1,3)*DD(2,3)", 2, "1/12 * beta", 42,
            "36fd6a303879a612413fddd6f7faa6380c8d64fc304f72301a09552981e79c86",
        ),
    ],
)
def test_each_distinct_leaf_is_integrated_once(text, integrations, value, entries, digest, searched, monkeypatch):
    # Lifted terms that differ only in their labels return to the same
    # one-dimensional leaf, which the leaf memo integrates once.
    leaves = []

    def counted(factors, nvars, rules, notes, extra_atoms):
        leaves.append((tuple(factors), nvars, extra_atoms))
        return integrate_product(factors, nvars, rules, notes, extra_atoms=extra_atoms)

    monkeypatch.setattr(reduction, "integrate_product", counted)
    log = []
    assert reduce_terms(text, DIMREG, log).text() == value
    assert len(leaves) == len(set(leaves)) == integrations
    # The move log is the one the search without a memo wrote.
    assert len(log) == entries
    assert hashlib.sha256(repr(log).encode()).hexdigest() == digest
    assert max(searched.values()) == 1


@pytest.mark.parametrize("rules", [DIMREG, MODEREG], ids=lambda r: r.name)
def test_the_battery_searches_no_term_twice(rules, searched):
    run_standard_checks(rules)
    assert searched and max(searched.values()) == 1


@pytest.mark.parametrize("name, searches", [("I10", 0), ("I12", 0), ("I14", 0)])
def test_modereg_after_dimreg_searches_only_the_terms_that_read_the_rule_set(name, searches, searched):
    # No search reads the rule set, so the terms DimReg searched serve
    # ModeReg as they are, I14's included; only the leaves that look the
    # eps^2*delta value up are integrated again.
    runs = []
    for rules in (DIMREG, MODEREG):
        before = sum(searched.values())
        log = []
        runs.append((evaluate_named(name, rules, log).text(), log))
    assert sum(searched.values()) - before == searches
    assert max(searched.values()) == 1
    clear_memos()
    log = []
    assert (evaluate_named(name, MODEREG, log).text(), log) == runs[1]


def test_a_cold_modereg_battery_integrates_at_most_32_leaves(searched, monkeypatch):
    # 98 without the leaf memo, 77 of which never read the rule set.  They
    # are 26 distinct leaves, and 3 of those read it under both schemes,
    # since the heat-kernel checks run in DimReg.
    leaves = []
    monkeypatch.setattr(
        reduction, "integrate_product", lambda *args, **kw: leaves.append(args) or integrate_product(*args, **kw)
    )
    run_standard_checks(MODEREG)
    assert 0 < len(leaves) <= 32


def _memo_work(searched, run) -> tuple[int, int]:
    """(leaf integrations, lifted-term searches) that ``run()`` makes."""
    integrations, searches = _integrate_leaf.cache_info().misses, sum(searched.values())
    run()
    return _integrate_leaf.cache_info().misses - integrations, sum(searched.values()) - searches


@pytest.mark.parametrize(
    "first, second, cold, after",
    [(DIMREG, MODEREG, (26, 76), (4, 0)), (MODEREG, DIMREG, (29, 76), (1, 0))],
    ids=["DimReg first", "ModeReg first"],
)
def test_the_battery_memo_figures(first, second, cold, after, searched):
    # The figures README states.  The second scheme searches nothing, and
    # integrates again only the leaves that read the rule set.
    assert _memo_work(searched, lambda: run_standard_checks(first)) == cold
    assert _memo_work(searched, lambda: run_standard_checks(second)) == after


def test_the_search_of_i8_reaches_7_leaves_and_integrates_4(searched, monkeypatch):
    leaves = []
    integrate_leaves = reduction._integrate_leaves

    def counted(rules, found, notes):
        leaves.extend(leaf for _, leaf in found)
        return integrate_leaves(rules, found, notes)

    monkeypatch.setattr(reduction, "_integrate_leaves", counted)
    integrations, _ = _memo_work(searched, lambda: evaluate_named("I8", DIMREG))
    assert (len(leaves), len(set(leaves)), integrations) == (7, 4, 4)


def test_the_slow_refusal_searches_each_term_once(searched):
    # The search refuses 599 terms, each once.  Quoting every nested
    # "every candidate move failed" made a line of 45,569 characters; the
    # nested failures are counted instead, and the first one's deepest
    # reason is named.
    with pytest.raises(ReductionError) as refusal:
        reduce_terms("Dr(2,3)*Dr(3,2)*DD(3,1)*Dr(1,1)*Dr(1,2)")
    assert len(searched) == 599
    assert max(searched.values()) == 1
    assert str(refusal.value) == (
        "no legal reduction: every candidate move failed; tried 6, 5 after a deeper search; "
        "the first failed with: no legal reduction: move search exceeded its depth budget"
    )


def test_every_refusal_of_the_move_search_is_one_short_line(monkeypatch):
    # Direct refusals keep their list of reasons (the triangle's 273
    # characters); a node above nested failures stays as short at any depth.
    triangle = (
        "no legal reduction: every candidate move failed; tried 6: "
        "no legal reduction: factor [mu,mu]D[nu](1,2) is outside the move table; "
        "no legal reduction: factor [mu,mu]D[rho](1,3) is outside the move table; "
        "no legal reduction: factor [mu]D[nu,nu](1,2) is outside the move table"
    )
    refusals = []
    search = reduction._search

    def recorded(term, depth, log, leaves):
        try:
            return search(term, depth, log, leaves)
        except ReductionError as error:
            refusals.append(str(error))
            raise

    monkeypatch.setattr(reduction, "_search", recorded)
    clear_memos()
    try:
        for product in ("DD(1,2)*DD(1,3)*DD(2,3)", "Dr(2,3)*Dr(3,2)*DD(3,1)*Dr(1,1)*Dr(1,2)"):
            with pytest.raises(ReductionError):
                reduce_terms(product)
    finally:
        clear_memos()
    assert triangle in refusals
    # Every node searched on the way down refused in one short line.
    assert max(map(len, refusals)) < 500 and not any("\n" in text for text in refusals)


def test_a_refusal_replays_its_text_and_log():
    triangle = "DD(1,2)*DD(1,3)*DD(2,3)*D(1,1)"
    runs = []
    for _ in range(2):
        log = []
        with pytest.raises(ReductionError) as refusal:
            reduce_terms(triangle, MODEREG, log)
        runs.append((str(refusal.value), log))
    assert runs[0] == runs[1]
    assert runs[0][0].startswith("no legal reduction: every candidate move failed")


def test_an_integrator_refusal_replays_as_the_same_error(searched, monkeypatch):
    def refuse(*args, **kw):
        raise UnreducedSingularStructureError("unreduced singular structure: probe")

    monkeypatch.setattr(reduction, "integrate_product", refuse)
    runs = []
    for _ in range(2):
        log = []
        with pytest.raises(UnreducedSingularStructureError, match="probe"):
            reduce_terms("Dl(1,2)*Dr(1,2)*DD(1,2)", DIMREG, log)
        runs.append(log)
    # The leaves are integrated after the search, so the log holds all of it.
    assert runs[0] == runs[1]
    assert runs[0][-1]["move"] == "FixedPoint"
    assert max(searched.values()) == 1


def test_a_caller_gets_its_own_log_entries():
    first, second = [], []
    reduce_terms("Dl(1,2)*Dr(1,2)*DD(1,2)", DIMREG, first)
    for entry in first:
        entry.get("factors", []).append("tampered")
        entry["move"] = "tampered"
    reduce_terms("Dl(1,2)*Dr(1,2)*DD(1,2)", DIMREG, second)
    assert "tampered" not in repr(second)


def test_a_bare_coefficient_records_no_moves():
    log = []
    assert reduce_terms("3", log=log).text() == "3"
    assert log == []


def test_a_zero_product_records_only_its_lift():
    log = []
    assert reduce_terms("0*Dl(1,2)*Dr(1,2)*DD(1,2)", log=log).text() == "0"
    assert log == [
        {"move": "Lift", "factors": ["[mu]D[](1,2)", "[]D[nu](1,2)", "[mu]D[nu](1,2)"], "variables": 2}
    ]
    assert list(log[0]) == ["move", "factors", "variables"]


def test_a_sum_records_one_lift_led_segment_per_product():
    first, second = "Dl(1,2)*Dr(1,2)*DD(1,2)", "D(1,1)*DD(1,2)*DD(1,2)*D(2,2)"
    segments = []
    for text in (first, second):
        segments.append([])
        reduce_terms(text, DIMREG, segments[-1])
    log = []
    reduce_terms(f"{first} + 2*{second}", DIMREG, log)
    assert log == segments[0] + segments[1]
    assert [index for index, entry in enumerate(log) if entry["move"] == "Lift"] == [0, len(segments[0])]


def test_eps_notes_do_not_depend_on_the_coefficient():
    # The search runs at unit coefficient, so a note is recorded once per
    # collapse, not once per delta0 grade of the coefficient that the
    # equal-time substitute of DD(3,3) brings in.
    factors = (("D", 0, 1), ("Dl", 0, 1), ("Dr", 0, 1), ("DD", 0, 1), ("DD", 2, 2), ("D", 0, 2))
    notes = []
    for coefficient in (RegValue.one(), RegValue.delta0() - RegValue.beta(-1)):
        notes.append([])
        _reduce_product(MODEREG, ParsedProduct(coefficient, factors, 3), None, notes[-1])
    assert notes[0] == notes[1] == ["eps^3*delta resolved to 0 (odd power)"] * 2
