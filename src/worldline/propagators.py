"""Closed forms of the Dirichlet-interval correlation functions.

The four kinds, each named by its text, are the two-point function of a free
particle pinned to zero at both ends of [0, beta], and its left, right, and
mixed time derivatives:

    D(t, t')  = -eps(t - t')*(t - t')/2 + (t + t')/2 - t*t'/beta
    Dl(t, t') = -eps(t - t')/2 + 1/2 - t'/beta          (derivative on t)
    Dr(t, t') = +eps(t - t')/2 + 1/2 - t/beta           (derivative on t')
    DD(t, t') = delta(t - t') - 1/beta                  (one derivative each)

``eps`` is the sign function with eps(0) = 0, so the equal-time values of Dl
and Dr are the averages 1/2 - t/beta.  DD never has a pointwise value: its
delta part is kept as a singular atom and its equal-time substitute is the
formal combination delta0 - 1/beta.
"""

from __future__ import annotations

from fractions import Fraction

from .polynomials import Poly
from .values import RegValue


# -- two-variable building blocks (variable 0 is t, variable 1 is t') --------

_HALF = Fraction(1, 2)

# Smooth part and eps-coefficient of each kind, keyed (beta, t, t' exponents).
_SMOOTH: dict[str, Poly] = {
    "D": Poly(2, {(0, 1, 0): _HALF, (0, 0, 1): _HALF, (-1, 1, 1): -1}),
    "Dl": Poly(2, {(0, 0, 0): _HALF, (-1, 0, 1): -1}),
    "Dr": Poly(2, {(0, 0, 0): _HALF, (-1, 1, 0): -1}),
    "DD": Poly(2, {(-1, 0, 0): -1}),
}

_EPS_COEFF: dict[str, Poly] = {
    "D": Poly(2, {(0, 1, 0): -_HALF, (0, 0, 1): _HALF}),
    "Dl": Poly(2, {(0, 0, 0): -_HALF}),
    "Dr": Poly(2, {(0, 0, 0): _HALF}),
    "DD": Poly(2),
}

def smooth_part(kind: str) -> Poly:
    """The eps- and delta-free part of the kind's decomposition."""
    return _SMOOTH[kind]


def eps_coefficient(kind: str) -> Poly:
    """Polynomial multiplying eps(t - t') in the kind's decomposition."""
    return _EPS_COEFF[kind]


def has_delta(kind: str) -> bool:
    return kind == "DD"


def diagonal(kind: str) -> Poly | RegValue:
    """Equal-time value as a 1-variable polynomial in t.

    For DD there is no pointwise value; the formal substitute
    delta0 - 1/beta is returned as a RegValue instead.
    """
    if kind == "DD":
        return RegValue.delta0() - RegValue.beta(-1)
    return _SMOOTH[kind].remap((0, 0), 1)  # eps(0) = 0 drops the eps part
