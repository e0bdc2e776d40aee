"""The dimensional lift: frozen table, constraints, moves, and error paths."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from worldline.integrands import ParsedProduct, parse
from worldline.integration import DIMREG, MODEREG
from worldline.propagators import Kind
from worldline.reduction import (
    Reducer,
    ReductionError,
    TProp,
    TTerm,
    divergence_split,
    equal_time_substitute,
    evaluate_named,
    field_equation,
    forbidden_one_dimensional_return,
    lift,
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
    with pytest.raises(ReductionError, match="MuNu"):
        forbidden_one_dimensional_return("I14")
    with pytest.raises(ReductionError, match="no legal reduction"):
        forbidden_one_dimensional_return("I15")


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
    # Pins current behaviour: this product reduces only because the move
    # search backtracks past its first partial-integration candidate; a
    # search that stops after the first candidate raises ReductionError.
    # There is no independent oracle, because the direct integral is the
    # naive route.
    value = reduce_terms("Dl(1,1)*Dr(1,2)*DD(1,3)*DD(2,3)", rules)
    assert value == beta(1, "1/6")


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

KINDS = (Kind.D, Kind.DOT_LEFT, Kind.DOT_RIGHT, Kind.DOT_DOT)


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
                    ends[i] += kind in (Kind.DOT_LEFT, Kind.DOT_DOT)
                    ends[j] += kind in (Kind.DOT_RIGHT, Kind.DOT_DOT)
                if len(used) == nvars and all(e in (0, 2) for e in ends):
                    yield ParsedProduct(RegValue.one(), combo, nvars)


@pytest.mark.parametrize("rules", [DIMREG, MODEREG], ids=lambda r: r.name)
def test_every_small_liftable_product_reduces_or_refuses(rules):
    triangle = (
        (Kind.DOT_DOT, 0, 1),
        (Kind.DOT_DOT, 0, 2),
        (Kind.DOT_DOT, 1, 2),
    )
    products = list(small_liftable_products())
    assert len(products) == 537
    refused = []
    for parsed in products:
        log = []
        try:
            value = Reducer(rules, log).reduce_product(parsed)
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
