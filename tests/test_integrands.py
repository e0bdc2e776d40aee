"""Expansion, canonical form, and text grammar of propagator products."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from expansion import canonicalize, product
from worldline.integration import SingularAtom
from worldline.reduction import (
    FINITE_ALIASES,
    NAMED_INTEGRALS,
    named_integral_text,
    parse,
    reduce_terms,
)
from worldline.values import Poly, RegValue


def test_singular_atom_validation():
    SingularAtom("eps", 0, 1)
    SingularAtom("delta", 1, 3, power=2)
    with pytest.raises(ValueError):
        SingularAtom("eps", 1, 1)
    with pytest.raises(ValueError):
        SingularAtom("eps", 2, 1)
    with pytest.raises(ValueError):
        SingularAtom("theta", 0, 1)
    with pytest.raises(ValueError):
        SingularAtom("delta", 0, 1, power=0)


def test_expand_equal_time_double_dot():
    terms = product([("DD", 0, 0)], 1)
    total = RegValue.zero()
    for term in terms:
        assert term.atoms == ()
        total = total + RegValue.delta0(term.delta0) * term.poly.integrate_cube()
    # integral of delta0 - 1/beta over [0, beta]
    assert total == RegValue.delta0() * RegValue.beta(1) - RegValue.one()


def test_product_splits_regions_and_atoms():
    terms = product([("Dl", 0, 1)], 2)
    kinds = sorted(
        tuple(atom.kind for atom in term.atoms) for term in terms
    )
    assert kinds == [(), ("eps",)]


def test_eps_square_drops_without_delta():
    # Away from coincidence eps^2 = 1, so the squared-eps piece merges into
    # the regular part.
    terms = product([("Dr", 0, 1), ("Dr", 0, 1)], 2)
    assert all(
        all(atom.kind != "eps" or atom.power == 1 for atom in term.atoms)
        for term in terms
    )


def test_eps_square_kept_under_delta():
    terms = product(
        [("Dr", 0, 1), ("Dr", 0, 1)],
        2,
        extra_atoms=(SingularAtom("delta", 0, 1),),
    )
    powers = sorted(
        max((a.power for a in t.atoms if a.kind == "eps"), default=0) for t in terms
    )
    assert powers == [0, 1, 2]


def test_orientation_flip():
    # Dl(2,1) must equal the transposed expansion of Dr-style pieces:
    # eps(tau2 - tau1) = -eps(tau1 - tau2).
    one_way = product([("Dl", 1, 0)], 2)
    eps_terms = [t for t in one_way if t.atoms]
    assert len(eps_terms) == 1
    atom = eps_terms[0].atoms[0]
    assert (atom.i, atom.j) == (0, 1)
    assert eps_terms[0].poly == Poly.const(2, Fraction(1, 2))


def test_canonicalize_merges_like_terms():
    a = product([("D", 0, 1)], 2)
    doubled = canonicalize(a + a)
    assert len(doubled) == len(a)
    for merged, single in zip(doubled, a):
        assert merged.poly == single.poly * 2


def test_canonicalize_moves_beta_content_to_poly():
    term_list = product([("D", 0, 1)], 2, coefficient=RegValue.beta(2, 3))
    for term in term_list:
        assert term.delta0 == 0



def test_product_scales_the_polys_by_a_ring_coefficient():
    # 3*beta^2 - delta0: the beta part scales the polys of grade 0, the
    # delta0 part becomes grade 1 with the polys negated.
    plain = product([("D", 0, 1)], 2)
    scaled = product([("D", 0, 1)], 2, RegValue.beta(2, 3) - RegValue.delta0())
    factor = Poly.const(2, 3, 2)
    assert [(t.delta0, t.poly, t.atoms) for t in scaled] == [
        (0, t.poly * factor, t.atoms) for t in plain
    ] + [(1, -t.poly, t.atoms) for t in plain]

def test_parse_simple_product():
    parsed = parse("Dl(1,2)*Dr(1,2)*DD(1,2)")
    assert len(parsed) == 1
    item = parsed[0]
    assert item.nvars == 2
    assert item.coefficient == RegValue.one()
    assert item.factors == (
        ("Dl", 0, 1),
        ("Dr", 0, 1),
        ("DD", 0, 1),
    )


def test_parse_signs_and_rationals():
    parsed = parse("-3/2 * D(1,2) + d0^2 * D(1,2) - d0 * D(1,1)")
    assert len(parsed) == 3
    assert parsed[0].coefficient == RegValue.rational(Fraction(-3, 2))
    assert parsed[1].coefficient == RegValue.delta0(2)
    assert parsed[2].coefficient == -RegValue.delta0()
    assert parse("3/05*D(1,2)")[0].coefficient == RegValue.rational(Fraction(3, 5))
    assert parse("0/7*D(1,2)")[0].coefficient == RegValue.zero()


def test_parse_remaps_variables_per_summand():
    parsed = parse("D(3,5)")
    assert parsed[0].nvars == 2
    assert parsed[0].factors == (("D", 0, 1),)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse("Dq(1,2)")
    with pytest.raises(ValueError):
        parse("D(1,2) *")


def test_parse_accepts_whitespace_at_either_end():
    assert parse("D(1,2) ") == parse(" D(1,2)\t\n") == parse("D(1,2)")
    with pytest.raises(ValueError, match=r"^cannot parse integrand text at: ' x'$"):
        parse("D(1,2) x")


@pytest.mark.parametrize("route", [parse, reduce_terms], ids=lambda f: f.__name__)
def test_zero_denominator_is_a_parse_error(route):
    # A zero denominator is not a rational token, so the text stops parsing
    # at the slash instead of dividing by zero.
    with pytest.raises(ValueError, match=r"^cannot parse integrand text at: '/0\*D\(1,2\)'$"):
        route("1/0*D(1,2)")


_GRAMMAR_ALPHABET = ["D", "Dl", "Dr", "DD", "d0", "^", "(", ")", ",", "/", "+", "-", "*", " "]
_NUMBER = st.integers(0, 12).map(str)
# Whole rationals and factors as well as loose symbols, so that drawn text
# often gets past its first token and reaches the later ones.
_RATIONAL = st.builds("{}/{}".format, _NUMBER, _NUMBER)
_FACTOR = st.builds(
    "{}({},{})".format, st.sampled_from(["D", "Dl", "Dr", "DD"]), _NUMBER, _NUMBER
)
_PIECE = st.one_of(st.sampled_from(_GRAMMAR_ALPHABET), _NUMBER, _RATIONAL, _FACTOR)


@settings(max_examples=400, deadline=None)
@given(st.lists(_PIECE, max_size=24))
def test_parse_returns_or_raises_value_error(pieces):
    # Only ValueError subclasses may escape the library, whatever the text.
    try:
        parse("".join(pieces))
    except ValueError:
        pass


def test_named_registry_contents():
    expected = {
        "I2",
        "I4",
        "I6",
        "I7",
        "I8",
        "I9",
        "I10",
        "I11",
        "I12",
        "I13",
        "I14",
        "I15",
    }
    assert expected <= set(NAMED_INTEGRALS)
    assert set(FINITE_ALIASES) == {"I2R", "I8R", "I15R"}
    text, finite = named_integral_text("I14")
    assert text == NAMED_INTEGRALS["I14"]
    assert finite is False
    text, finite = named_integral_text("I15R")
    assert text == NAMED_INTEGRALS["I15"]
    assert finite is True


def test_named_integral_unknown():
    with pytest.raises(KeyError, match="I14"):
        named_integral_text("I999")
