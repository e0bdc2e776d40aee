"""Expansion, canonical form, and text grammar of propagator products."""

from __future__ import annotations

from fractions import Fraction

import re

import pytest
from hypothesis import given, settings, strategies as st

from expansion import canonicalize, product
from worldline.integration import SingularAtom
from worldline.reduction import (
    _TOKEN,
    FINITE_ALIASES,
    NAMED_INTEGRALS,
    ParsedProduct,
    evaluate_named,
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


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 2", "missing operator before '2' in integrand text"),
        ("D(1,2)D(1,3)", "missing operator before 'D(1,3)' in integrand text"),
        ("d0 d0", "missing operator before 'd0' in integrand text"),
        ("--D(1,2)", "misplaced operator '-' in integrand text"),
        ("D(1,2)*-D(1,3)", "misplaced operator '-' in integrand text"),
        ("D(1,2)+-D(1,3)", "misplaced operator '-' in integrand text"),
    ],
)
def test_parse_refuses_juxtaposed_factors_and_inner_signs(text, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        parse(text)


def _old_parse(text: str) -> list[ParsedProduct]:
    """``reduction.parse`` as it was before the strict grammar, kept verbatim.

    It also took two factors side by side as a product, and a ``-`` in
    front of any factor as a sign flip.
    """
    tokens: list[tuple[str, object]] = []
    pos, end = 0, len(text.rstrip())
    while pos < end:
        match = _TOKEN.match(text, pos)
        if not match:
            raise ValueError(f"cannot parse integrand text at: {text[pos:]!r}")
        pos = match.end()
        if match["prop"]:
            tokens.append(("prop", (match["prop"], int(match["i"]), int(match["j"]))))
        elif match["d0"]:
            tokens.append(("d0", int(match["d0pow"] or 1)))
        elif match["rat"]:
            tokens.append(("rat", Fraction(match["rat"])))
        else:
            tokens.append(("op", match["op"]))

    products: list[ParsedProduct] = []
    sign = Fraction(1)
    current: list[tuple[str, object]] | None = None

    def flush() -> None:
        nonlocal current
        if current is None:
            return
        coeff = RegValue.rational(sign)
        raw_factors: list[tuple[str, int, int]] = []
        for token_kind, payload in current:
            if token_kind == "rat":
                coeff = coeff * payload
            elif token_kind == "d0":
                coeff = coeff * RegValue.delta0(payload)
            else:
                raw_factors.append(payload)
        indices = sorted({idx for (_, i, j) in raw_factors for idx in (i, j)})
        remap = {orig: new for new, orig in enumerate(indices)}
        factors = tuple((k, remap[i], remap[j]) for (k, i, j) in raw_factors)
        products.append(ParsedProduct(coeff, factors, len(indices)))
        current = None

    expecting_factor = True
    for token_kind, payload in tokens:
        if token_kind == "op" and payload in "+-" and not expecting_factor:
            flush()
            sign = Fraction(1) if payload == "+" else Fraction(-1)
            expecting_factor = True
            continue
        if token_kind == "op":
            if payload == "*" and not expecting_factor:
                expecting_factor = True
                continue
            if payload == "-" and expecting_factor:
                sign = -sign
                continue
            raise ValueError(f"misplaced operator {payload!r} in integrand text")
        if current is None:
            current = []
        current.append((token_kind, payload))
        expecting_factor = False
    if expecting_factor and tokens:
        raise ValueError("integrand text ends with a dangling operator")
    flush()
    if not products:
        raise ValueError("empty integrand text")
    return products


# The two reasons the strict grammar adds, for texts the old parser took.
_NEW_REASON = re.compile(r"missing operator before '.+' in integrand text|misplaced operator '-' in integrand text")
_TERM = st.one_of(_FACTOR, _RATIONAL, _NUMBER, st.just("d0"), st.builds("d0^{}".format, _NUMBER))
_JOIN = st.sampled_from(["*", " * ", "+", " + ", "-", " - ", " ", "", "--", "*-", "+-"])
# Sums of whole terms, mostly well formed, so that most draws parse.
_SUM = st.builds(
    "{}{}{}".format,
    st.sampled_from(["", "-", " -", "+"]),
    st.lists(_TERM, min_size=1, max_size=6).flatmap(
        lambda terms: st.lists(_JOIN, min_size=len(terms) - 1, max_size=len(terms) - 1).map(
            lambda joins: "".join(term + join for term, join in zip(terms, joins + [""]))
        )
    ),
    st.sampled_from(["", " ", "*", " -"]),
)


def _outcome(route, text):
    try:
        return route(text), None
    except ValueError as error:
        return None, str(error)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(_SUM, st.lists(_PIECE, max_size=24).map("".join)))
def test_strict_parse_differs_from_the_old_parse_only_by_the_new_refusals(text):
    # What the new parser takes, the old one took as the same products; every
    # refusal is the old one's, or one of the two new reasons.
    old, old_error = _outcome(_old_parse, text)
    new, new_error = _outcome(parse, text)
    if new_error is None:
        assert new == old
    else:
        assert new_error == old_error or _NEW_REASON.fullmatch(new_error)


@pytest.mark.parametrize("text", sorted(NAMED_INTEGRALS.values()))
def test_strict_parse_reads_every_registry_text_as_before(text):
    assert parse(text) == _old_parse(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("D(1,2) x", "cannot parse integrand text at: ' x'"),
        ("1/0*D(1,2)", "cannot parse integrand text at: '/0*D(1,2)'"),
        ("D(1,2) *", "integrand text ends with a dangling operator"),
        ("-", "integrand text ends with a dangling operator"),
        ("D(1,2) + ", "integrand text ends with a dangling operator"),
        ("", "empty integrand text"),
        (" \t\n", "empty integrand text"),
        ("+D(1,2)", "misplaced operator '+' in integrand text"),
        ("D(1,2)**D(1,3)", "misplaced operator '*' in integrand text"),
    ],
)
def test_strict_parse_keeps_the_old_refusals(text, message):
    assert _outcome(_old_parse, text) == (None, message)
    assert _outcome(parse, text) == (None, message)


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
    assert FINITE_ALIASES == {"I2R": "I2", "I8R": "I8", "I15R": "I15"}
    assert evaluate_named("I15R") == evaluate_named("I15").finite_part()


def test_named_integral_unknown():
    known = "I10, I11, I12, I13, I14, I15, I2, I4, I6, I7, I8, I9, I15R, I2R, I8R"
    with pytest.raises(ValueError, match=f"^unknown integral name 'I999'; known names: {known}$"):
        evaluate_named("I999")
