"""Closed forms, boundary values, and identities of the pinned propagators."""

from __future__ import annotations

from fractions import Fraction

import pytest

from worldline import integration, reduction
from worldline.checks import run_standard_checks
from worldline.integration import _ROWS, EQUAL_TIME_DD, SingularAtom, _expand_factor, _ring_chain, _rows
from worldline.reduction import (
    _ONE_D_KINDS,
    ParsedProduct,
    TProp,
    TTerm,
    _boundary_is_zero,
    field_equation,
    lift,
    return_to_1d,
    tag,
)
from worldline.values import Poly, RegValue

_HALF = Fraction(1, 2)


def _region(kind: str, sign: int) -> Poly:
    """The kind away from the diagonal, where eps(t - t') = sign."""
    smooth, eps, _ = _ROWS[kind]
    return smooth + eps * sign


def _diagonal(kind: str) -> Poly:
    """Equal-time value of a kind other than DD, as a polynomial in t."""
    return _ROWS[kind][0].remap((0, 0), 1)  # eps(0) = 0 drops the eps part


def _equal_time(row: tuple[Poly, Poly, Poly]) -> RegValue:
    """A constant row at t' = t: its smooth part plus its delta coefficient times delta0."""
    smooth, _, delta = (part.remap((None, None), 0) for part in row)
    return RegValue(((b, k), c) for k, part in enumerate((smooth, delta)) for (b,), c in part.terms().items())


def test_regions_match_closed_forms():
    # The module docstring's closed forms, keyed (beta, t, t') exponents.
    for sign in (1, -1):
        half = Fraction(sign, 2)
        closed = {
            "D": {(0, 1, 0): _HALF - half, (0, 0, 1): _HALF + half, (-1, 1, 1): -1},
            "Dl": {(0, 0, 0): _HALF - half, (-1, 0, 1): -1},
            "Dr": {(0, 0, 0): _HALF + half, (-1, 1, 0): -1},
            "DD": {(-1, 0, 0): -1},  # its delta part lives on the diagonal
        }
        for kind, terms in closed.items():
            assert _region(kind, sign) == Poly(2, terms), (kind, sign)


def _pinned(kind: str, slot: int, at_beta: bool) -> Poly:
    """The closed form with argument ``slot`` (0 is t, 1 is t') at 0 or at beta."""
    # The pinned argument lies below the other one at 0 and above it at beta.
    items = []
    for key, coeff in _region(kind, 1 if (slot == 0) == at_beta else -1).terms().items():
        power = key[slot + 1]
        if power and not at_beta:
            continue
        moved = list(key)
        moved[0] += power
        moved[slot + 1] = 0
        items.append((tuple(moved), coeff))
    return Poly(2, items)


def test_diagonals():
    # D(tau, tau) = tau - tau^2/beta; the single-dotted diagonals coincide.
    d = _diagonal("D")
    assert d == Poly.monomial(1, 1, 0, (1,)) + Poly.monomial(1, -1, -1, (2,))
    half_minus = Poly.const(1, Fraction(1, 2)) + Poly.monomial(1, -1, -1, (1,))
    assert _diagonal("Dl") == half_minus
    assert _diagonal("Dr") == half_minus
    assert EQUAL_TIME_DD == RegValue.delta0() - RegValue.beta(-1)


def test_diagonal_derivative_identities():
    # d/dtau D(tau,tau) = 2 * Dl(tau,tau) and d/dtau Dl(tau,tau) = -1/beta.
    def derivative(p: Poly) -> Poly:
        return Poly(1, {(b, e - 1): c * e for (b, e), c in p.terms().items() if e})

    d = _diagonal("D")
    dl = _diagonal("Dl")
    assert derivative(d) == dl * 2
    assert derivative(dl) == Poly.const(1, -1, beta_power=-1)


def test_diagonal_integrals():
    assert _diagonal("D").integrate_cube() == RegValue.beta(2, Fraction(1, 6))
    square = _diagonal("Dl") * _diagonal("Dl")
    assert square.integrate_cube() == RegValue.beta(1, Fraction(1, 12))
    d_square = _diagonal("D") * _diagonal("D")
    assert d_square.integrate_cube() == RegValue.beta(3, Fraction(1, 30))


def test_boundary_values():
    # The undotted propagator vanishes at either pinned argument.
    for slot in (0, 1):
        for at_beta in (False, True):
            assert not _pinned("D", slot, at_beta)
    # Dl vanishes when its second argument is pinned, Dr when its first is.
    for at_beta in (False, True):
        assert not _pinned("Dl", 1, at_beta)
        assert not _pinned("Dr", 0, at_beta)
    # Dr(tau, 0) = 1 - tau/beta and Dr(tau, beta) = -tau/beta.
    at_zero = _pinned("Dr", 1, False)
    at_beta = _pinned("Dr", 1, True)
    expect_zero = Poly.const(2, 1) + Poly.monomial(2, -1, -1, (1, 0))
    expect_beta = Poly.monomial(2, -1, -1, (1, 0))
    assert at_zero == expect_zero
    assert at_beta == expect_beta
    # Cubes integrate to +beta/4 and -beta/4: the endpoint asymmetry that
    # feeds the purely boundary route.
    cube_zero = (expect_zero * expect_zero * expect_zero).integrate_cube()
    cube_beta = (expect_beta * expect_beta * expect_beta).integrate_cube()
    assert cube_zero == RegValue.beta(2, Fraction(1, 4))
    assert cube_beta == RegValue.beta(2, Fraction(-1, 4))


def test_average_of_regions_on_diagonal():
    # eps(0) = 0 means the diagonal value is the average of the two regions.
    avg = (_region("Dl", -1) + _region("Dl", 1)) * Fraction(1, 2)
    collapsed = avg.remap((0, 0), 1)
    assert collapsed == _diagonal("Dl")


def test_kind_tables_solve_the_field_equation():
    """Derive every kind from d^2/dt^2 D = -delta(t - t') with D pinned at 0 and beta."""
    sp = pytest.importorskip("sympy")
    t, tp, beta, delta0 = sp.symbols("t tp beta delta0", positive=True)
    a, b, c, d = sp.symbols("a b c d")
    # D'' = 0 on either side of t': linear below (eps = -1) and above (eps = +1),
    # zero at t = 0 and t = beta, continuous at t', with dD/dt dropping by 1 there.
    below, above = a * t + b, c * t + d
    conditions = [
        below.subs(t, 0),
        above.subs(t, beta),
        (above - below).subs(t, tp),
        sp.diff(above - below, t).subs(t, tp) + 1,
    ]
    solution = sp.solve(conditions, [a, b, c, d], dict=True)[0]
    regions = {"D": (below.subs(solution), above.subs(solution))}
    regions["Dl"] = tuple(sp.diff(f, t) for f in regions["D"])
    regions["Dr"] = tuple(sp.diff(f, tp) for f in regions["D"])
    regions["DD"] = tuple(sp.diff(f, t, tp) for f in regions["D"])

    def expr(poly: Poly) -> sp.Expr:
        return sum(
            (sp.Rational(q.numerator, q.denominator) * beta**e_b * t**e_t * tp**e_tp
             for (e_b, e_t, e_tp), q in poly.terms().items()),
            sp.Integer(0),
        )

    smooth, eps = {}, {}
    for kind, (low, high) in regions.items():
        smooth[kind], eps[kind] = (high + low) / 2, (high - low) / 2
        assert sp.simplify(expr(_ROWS[kind][0]) - smooth[kind]) == 0, kind
        assert sp.simplify(expr(_ROWS[kind][1]) - eps[kind]) == 0, kind

    # eps' = 2 delta: a derivative on t (on t') of eps(t - t') * C leaves
    # +2 C (-2 C) times delta(t - t'), with C at t = t'.
    weights = {"D": 0}
    for kind, (source, factor) in {"Dl": ("D", 2), "Dr": ("D", -2), "DD": ("Dl", -2)}.items():
        weights[kind] = sp.simplify(factor * eps[source].subs(t, tp))
    assert weights == {"D": 0, "Dl": 0, "Dr": 0, "DD": 1}
    for kind, weight in weights.items():
        assert sp.simplify(expr(_ROWS[kind][2]) - weight) == 0, kind
        pieces = _expand_factor(kind, 0, 1, 2)
        deltas = [expr(poly) for _, poly, atoms in pieces if atoms and atoms[0].kind == "delta"]
        assert deltas == ([weight] if weight else []), kind

    # DD's equal-time substitute: delta0 for its delta part, plus its smooth part.
    substitute = sum(
        (sp.Rational(q.numerator, q.denominator) * beta**e_b * delta0**e_d
         for (e_b, e_d), q in EQUAL_TIME_DD.items()),
        sp.Integer(0),
    )
    assert sp.simplify(substitute - (delta0 + smooth["DD"].subs(t, tp))) == 0


# ---------------------------------------------------------------------------
# the rows derived from D, and the reducer's facts about them
# ---------------------------------------------------------------------------

# The arguments each kind differentiates D in: 1 is t, 2 is t'.
_DOTS = {"D": (), "Dl": (1,), "Dr": (2,), "DD": (1, 2)}


def _differentiated(slots: tuple[int, ...]) -> tuple[Poly, Poly, Poly]:
    """D's row differentiated in each slot in turn, as ``_rows`` differentiates D."""
    row = _ROWS["D"]
    for slot in slots:
        row = _rows(*row[:2])["Dl" if slot == 1 else "Dr"]
    return row


def test_each_kind_is_d_differentiated_at_its_dotted_ends():
    for kind, slots in _DOTS.items():
        assert _differentiated(slots) == _ROWS[kind], kind
    # The mixed derivative does not depend on the order.
    assert _differentiated((2, 1)) == _ROWS["DD"]
    assert EQUAL_TIME_DD == _equal_time(_ROWS["DD"])


def test_the_field_equation_is_the_second_derivative_of_d():
    # d^2 D/dt^2 and d^2 D/dt'^2 are -delta alone, so FieldEquation turns a
    # Laplacian factor into -delta(t - t'), and at equal times into -delta0.
    zero, minus_delta = Poly(2), Poly.const(2, -1)
    for slots in ((1, 1), (2, 2)):
        assert _differentiated(slots) == (zero, zero, minus_delta), slots
    (laplacian,) = {_differentiated((1, 1)), _differentiated((2, 2))}
    one = RegValue.one()
    apart = field_equation(TTerm(one, 2, (TProp(0, 1, (), ("mu", "mu")),), ()), 0)
    assert apart.props == () and apart.deltas == (SingularAtom("delta", 0, 1),)
    assert apart.coefficient == laplacian[2].terms()[0, 0, 0]
    together = field_equation(TTerm(one, 1, (TProp(0, 0, ("mu", "mu"), ()),), ()), 0)
    assert together.props == together.deltas == ()
    assert together.coefficient == _equal_time(laplacian) == -RegValue.delta0()


def _lifted(kind: str) -> TProp:
    """The kind at distinct times with one label on each dotted end."""
    return TProp(0, 1, ("mu",) * (1 in _DOTS[kind]), ("nu",) * (2 in _DOTS[kind]))


def test_the_boundary_facts_are_the_rows_pinned_at_the_ends():
    # D vanishes with either argument at 0 or beta, Dl and Dr with their
    # undotted argument; ``_boundary_is_zero`` knows exactly these zeros.
    for kind in _DOTS:
        term = TTerm(RegValue.one(), 2, (_lifted(kind),), ())
        for slot in (0, 1):
            vanishes = not _pinned(kind, slot, False) and not _pinned(kind, slot, True)
            assert _boundary_is_zero(term, slot) is vanishes, (kind, slot)
            assert vanishes is (kind != "DD" and slot + 1 not in _DOTS[kind])


def test_lift_and_return_to_1d_put_the_dots_where_the_rows_differentiate():
    for kind, slots in _DOTS.items():
        factors = ((kind, 0, 1), (kind, 0, 1))
        term = lift(ParsedProduct(RegValue.one(), factors, 2))
        assert [(bool(p.left), bool(p.right)) for p in term.props] == [(1 in slots, 2 in slots)] * 2
        if len(slots) < 2:
            assert return_to_1d(term)[0] == list(factors)
    assert _ONE_D_KINDS == {tag(_lifted(kind)): kind for kind, slots in _DOTS.items() if len(slots) < 2}


# ---------------------------------------------------------------------------
# mutants of D's row
# ---------------------------------------------------------------------------


@pytest.fixture
def battery(monkeypatch):
    """Run the battery on patched rows, with every memo cleared before and after."""

    def clear():
        reduction._reduce_lifted.cache_clear()
        reduction._integrate_leaf.cache_clear()

    def run(rows: dict, equal_time: RegValue = EQUAL_TIME_DD) -> list:
        monkeypatch.setattr(integration, "_ROWS", rows)
        # ``reduction`` imports the name itself, so it is patched there too.
        monkeypatch.setattr(integration, "EQUAL_TIME_DD", equal_time)
        monkeypatch.setattr(reduction, "EQUAL_TIME_DD", equal_time)
        clear()
        return run_standard_checks()

    clear()
    yield run
    clear()


_SUM, _PRODUCT = {(0, 1, 0), (0, 0, 1)}, {(-1, 1, 1)}
_WICK = ["flat_sum_order1", "flat_sum_order2", "first_order_constraints", "heat_kernel_order1", "heat_kernel_order2"]
_RINGS = [f"measure_cancellation[{profile}]" for profile in ("1", "tau/beta", "tau*(beta-tau)/beta^2")]


@pytest.mark.parametrize(
    "term, scale, failing",
    [
        ("(t + t')/2", 2, _WICK[1:]),
        ("(t + t')/2", 0, _WICK),
        ("t*t'/beta", 2, [name for name in _WICK if name != "heat_kernel_order1"]),
        ("t*t'/beta", 0, [name for name in _WICK if name != "heat_kernel_order1"]),
        ("eps", 2, _WICK + _RINGS),
        ("eps", -1, _WICK + _RINGS),
    ],
)
def test_every_mutant_of_d_fails_the_battery(battery, term, scale, failing):
    """Scale one term of D's row, derive the other rows and EQUAL_TIME_DD from it."""
    reference = battery(_ROWS)
    assert all(report.status == "pass" for report in reference)
    smooth, eps, _ = _ROWS["D"]
    if term == "eps":
        eps = eps * scale
    else:
        keys = _SUM if term == "(t + t')/2" else _PRODUCT
        smooth = Poly(2, [(key, c * scale if key in keys else c) for key, c in smooth.terms().items()])
    rows = _rows(smooth, eps)
    reports = battery(rows, _equal_time(rows["DD"]))
    # The patch reached a computed value, and the battery saw it.
    assert [report.actual for report in reports] != [report.actual for report in reference]
    assert [report.check_name for report in reports if report.status == "fail"] == failing


@pytest.mark.parametrize("smooth", [Poly.const(2, -2, beta_power=-1), Poly(2)], ids=["-2/beta", "0"])
def test_the_derived_dd_smooth_part_alone_survives_the_battery(battery, smooth):
    # A known survivor: only the rings read DD's smooth part at distinct
    # times, and the battery compares only their delta0 grade.  A check of
    # each ring's finite grade (ROADMAP direction 5) is to kill it.
    weight = Poly.const(1, 1)
    reference = _ring_chain(weight, 3)
    reports = battery(dict(_ROWS, DD=(smooth, *_ROWS["DD"][1:])))
    assert _ring_chain(weight, 3) != reference
    assert all(report.status == "pass" for report in reports)
