"""The sparse kernel of int numerators over one denominator, against Fractions.

``RegValue`` and ``Poly`` add and multiply int numerators and scale them to
the lcm of two denominators; they reduce only where a value leaves the
kernel.  Every operation here is compared with ``tests/fraction_ring.py``,
which does the same work one Fraction at a time on exponent tuples.  The
inputs mix denominators, carry beta powers far beyond any field and
exponents up to the field bound, and include sums that cancel.
"""

from __future__ import annotations

import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import fraction_ring as ref
from worldline.values import _FIELD_MAX, Poly, RegValue

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=60)
nonzero_rationals = rationals.filter(bool)


@st.composite
def term_pairs(draw, keys):
    """Two term dicts; the second cancels a drawn subset of the first's terms."""
    a = draw(st.dictionaries(keys, rationals, max_size=4))
    b = draw(st.dictionaries(keys, rationals, max_size=4))
    for key in draw(st.sets(st.sampled_from(sorted(a)))) if a else ():
        b[key] = -a[key]
    return a, b


# A key packs its unsigned exponents into _FIELD_BITS-bit fields under the
# signed beta power.  An operand's exponents may sum to HALF, so that a
# product's reach the field bound; beta has no bound.
HALF = (_FIELD_MAX - 2) // 2
betas = st.integers(-3, 3) | st.integers(-(10**9), 10**9)


def exponents(bound):
    """Small exponents, or exponents just under ``bound``."""
    return st.integers(0, 3) | st.integers(max(bound - 3, 0), bound)


def reg_keys():
    return st.tuples(betas, exponents(HALF))


def poly_keys(nvars):
    # Each key's exponents sum to at most HALF.
    return st.tuples(betas, *[exponents(HALF // nvars - 3)] * nvars)


def nonzero(terms):
    return {key: Fraction(coeff) for key, coeff in terms.items() if coeff}


@given(term_pairs(reg_keys()), st.dictionaries(reg_keys(), rationals, max_size=3), nonzero_rationals)
def test_regvalue_matches_the_fraction_reference(pair, c, r):
    (a, b), c = map(nonzero, pair), nonzero(c)
    va, vb, vc = RegValue(a), RegValue(b), RegValue(c)
    cases = [
        (va + vb, ref.add(a, b)),
        (va - vb, ref.add(a, ref.neg(b))),
        (va * vb, ref.mul(a, b)),
        (va / r, ref.div(a, r)),
        (((va + vb) * vc - va) / r, ref.div(ref.add(ref.mul(ref.add(a, b), c), ref.neg(a)), r)),
    ]
    cases += [((va * vb + vc).grade(k), ref.grade(ref.add(ref.mul(a, b), c), k)) for k in range(3)]
    for got, want in cases:
        assert dict(got.items()) == want
        assert bool(got) == bool(want)


@given(st.data())
def test_poly_matches_the_fraction_reference(data):
    nvars = data.draw(st.integers(1, 3))
    p_terms, q_terms = map(nonzero, data.draw(term_pairs(poly_keys(nvars))))
    p, q = Poly(nvars, p_terms), Poly(nvars, q_terms)
    pq, pq_terms = p * q + p, ref.add(ref.mul(p_terms, q_terms), p_terms)
    index = data.draw(st.integers(0, nvars - 1))
    order = data.draw(st.permutations(range(nvars)))
    width = data.draw(st.integers(1, 3))
    targets = [
        data.draw(st.integers(0, width - 1) | (st.none() if not pq.depends_on(v) else st.nothing()))
        for v in range(nvars)
    ]
    cases = [
        (p + q, ref.add(p_terms, q_terms)),
        (p - q, ref.add(p_terms, ref.neg(q_terms))),
        (pq, pq_terms),
        (pq.remap(targets, width), ref.remap(pq_terms, targets, width)),
        (pq.integrate_out(index), ref.integrate_out(pq_terms, index)),
    ]
    for got, want in cases:
        assert got.terms() == want
        assert bool(got) == bool(want)
    sector = pq.integrate_out(index).integrate_sector(order)
    assert dict(sector.items()) == ref.integrate_sector(ref.integrate_out(pq_terms, index), order)
    assert dict(pq.integrate_cube().items()) == ref.integrate_cube(pq_terms, nvars)


@given(term_pairs(reg_keys()), nonzero_rationals)
def test_regvalues_built_by_two_routes_compare_and_hash_equal(pair, r):
    a, b = (RegValue(nonzero(terms)) for terms in pair)
    routes = [
        ((a + b) - b, a),
        ((a * r) / r, a),
        (a / r + b / r, (a + b) / r),
        ((a + b) - (b + a), RegValue.zero()),
    ]
    for left, right in routes:
        assert left == right
        assert hash(left) == hash(right)


@given(term_pairs(poly_keys(2)), nonzero_rationals)
def test_polys_built_by_two_routes_compare_and_hash_equal(pair, r):
    p, q = (Poly(2, nonzero(terms)) for terms in pair)
    routes = [
        ((p + q) - q, p),
        (p * r * Poly.const(2, 1 / r), p),
        ((p * r).integrate_out(0) * Poly.const(2, 1 / r), p.integrate_out(0)),
        ((p + q) - (q + p), Poly.const(2, 0)),
    ]
    for left, right in routes:
        assert left == right
        assert hash(left) == hash(right)


@given(rationals, st.integers(0, 3), reg_keys())
def test_a_constant_hashes_as_the_rational_it_equals(r, nvars, key):
    # Equal objects hash equal, so a set or dict holding a rational finds
    # the constant of either ring that equals it, and the other way round.
    constants = [RegValue.rational(r), Poly.const(nvars, r), Poly(nvars, {(0,) * (nvars + 1): r})]
    for constant in constants:
        assert constant == r and r == constant
        assert hash(constant) == hash(r)
        assert len({constant, r}) == 1
        assert {r: "found"}.get(constant) == "found"
        if r.denominator == 1:
            assert constant == int(r) and hash(constant) == hash(int(r))
    # A value with any other term equals no rational.
    if key != (0, 0):
        other = RegValue.rational(r) + RegValue({key: 1})
        assert other != r and len({other, r}) == 2


@pytest.mark.parametrize("value", [Poly(1, {(0, 1): Fraction(1, 2)}), RegValue({(0, 1): Fraction(1, 2)})])
def test_both_rings_mix_with_rationals_and_refuse_other_operands(value):
    def terms(x):
        return x.terms() if isinstance(x, Poly) else dict(x.items())

    assert terms(1 - value) == {(0, 0): 1, (0, 1): Fraction(-1, 2)}
    assert terms(value - 1) == {(0, 0): -1, (0, 1): Fraction(1, 2)}
    assert terms(Fraction(1, 3) - value) == {(0, 0): Fraction(1, 3), (0, 1): Fraction(-1, 2)}
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(value, "x")
        with pytest.raises(TypeError):
            op("x", value)


def test_polys_over_different_variable_counts_neither_mix_nor_compare_equal():
    # tau_0 of a one-variable Poly and tau_1 of a two-variable one have the
    # same packed key, so without the check they would combine.
    one, two = Poly.monomial(1, 1, 0, (1,)), Poly.monomial(2, 1, 0, (0, 1))
    for op in (operator.add, operator.sub, operator.mul):
        for left, right in ((one, two), (two, one), (Poly.const(1, 1), Poly.const(2, 1))):
            with pytest.raises(ValueError, match="different variable counts"):
                op(left, right)
    assert Poly.const(1, 1) != Poly.const(2, 1)
    assert Poly.const(1, 0) != Poly.const(2, 0)
    assert one != two


def test_an_exponent_that_could_carry_out_of_its_field_raises():
    top = Poly.monomial(2, 1, 0, (_FIELD_MAX - 1, 0))
    with pytest.raises(OverflowError):
        Poly.monomial(2, 1, 0, (_FIELD_MAX, 1))
    with pytest.raises(OverflowError):
        RegValue.delta0(_FIELD_MAX + 1)
    # A product whose exponent sums could pass the bound raises, even where
    # the terms that meet would fit: the check reads one bound per operand.
    with pytest.raises(OverflowError):
        top * Poly.monomial(2, 1, 0, (0, 2))
    with pytest.raises(OverflowError):
        RegValue.delta0(HALF + 2) * RegValue.delta0(HALF + 2)
    # Integrating tau_0 up to tau_1 raises tau_1's exponent by one more.
    with pytest.raises(OverflowError):
        (top * Poly.monomial(2, 1, 0, (0, 1))).integrate_sector((0, 1))
    # At the bound itself nothing carries: a product, a merge of two
    # variables into one field, and integrals up to beta and up to tau_1.
    at_bound = top * Poly.monomial(2, 1, 0, (1, 0))
    assert at_bound.terms() == {(0, _FIELD_MAX, 0): 1}
    merged = Poly.monomial(2, 1, -2, (_FIELD_MAX - 1, 1)).remap((0, 0), 1)
    assert merged.terms() == {(-2, _FIELD_MAX): 1}
    assert at_bound.integrate_out(0).terms() == {(_FIELD_MAX + 1, 0, 0): Fraction(1, _FIELD_MAX + 1)}
    assert dict(top.integrate_sector((0, 1)).items()) == {(_FIELD_MAX + 1, 0): Fraction(1, _FIELD_MAX * (_FIELD_MAX + 1))}
    assert (RegValue.delta0(_FIELD_MAX - 1) * RegValue.delta0()).items() == [((0, _FIELD_MAX), 1)]


def test_a_regvalue_never_equals_a_poly():
    for value, poly in [(RegValue.one(), Poly.const(0, 1)), (RegValue.zero(), Poly.const(0, 0))]:
        assert value != poly and poly != value
        assert not value == poly


def test_the_kernel_does_no_fraction_arithmetic(monkeypatch):
    # Fractions enter through the constructors and leave through items,
    # terms and text; in between every operation is int arithmetic.
    p = Poly(2, {(0, 1, 0): Fraction(1, 2), (-1, 1, 1): Fraction(-2, 3)})
    q = Poly(2, {(1, 0, 2): Fraction(5, 7), (0, 0, 0): Fraction(1, 6)})
    v = RegValue({(1, 0): Fraction(3, 4), (-2, 1): Fraction(-1, 9)})

    def refuse(*args):
        raise AssertionError("Fraction arithmetic inside the kernel")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__neg__", "__pos__"):
        monkeypatch.setattr(Fraction, name, refuse)
    pq = p * q + p - q
    value = (pq.integrate_out(1).integrate_sector((0, 1)) * v - v / Fraction(7, 5)).grade(0)
    text = (value + pq.integrate_cube() + pq.integrate_sector((1, 0))).text()
    monkeypatch.undo()
    assert text == (value + pq.integrate_cube() + pq.integrate_sector((1, 0))).text() != "0"
