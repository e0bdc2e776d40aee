"""Target-space models and their expansion data.

Each model fixes a metric in the neighborhood of the expansion point and
yields the interaction vertices of the transformed action and the
measure terms that accompany them.  The flat models must sum to zero,
the curved ones to the heat-kernel coefficients ``spectral.SEELEY``.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import factorial

from .values import RegValue


# ---------------------------------------------------------------------------
# vertices
# ---------------------------------------------------------------------------


class Vertex(
    namedtuple(
        "Vertex",
        "name order_in_eps q_power qdot_power delta0_power coefficient"
        " tensors q_slots qdot_slots internal",
        defaults=((), (), (), ()),
    )
):
    """One interaction monomial of the expanded action.

    ``coefficient`` multiplies the integrated monomial
    ``q^q_power qdot^qdot_power`` at a single time, together with
    ``delta0_power`` factors of the equal-time distributional constant.
    When the vertex carries curvature factors, ``tensors`` names their
    delta-expansion patterns, the slot tuples say which tensor slot each
    field index lives in, and ``internal`` lists slot pairs contracted
    inside the vertex itself.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> Vertex:
        self = super().__new__(cls, *args, **kwargs)
        if self.order_in_eps not in (1, 2):
            raise ValueError("vertex order must be 1 or 2")
        if self.qdot_power not in (0, 2):
            raise ValueError("vertices carry zero or two derivative fields")
        if self.delta0_power not in (0, 1):
            raise ValueError("vertices carry at most one equal-time constant")
        if self.tensors:
            if len(self.q_slots) != self.q_power:
                raise ValueError("each field needs a tensor slot")
            if len(self.qdot_slots) != self.qdot_power:
                raise ValueError("each derivative field needs a tensor slot")
            used = list(self.q_slots) + list(self.qdot_slots)
            for a, b in self.internal:
                used.extend((a, b))
            if sorted(used) != list(range(self.slot_count)):
                raise ValueError("tensor slots must cover 0..slot_count-1 exactly once")
        elif self.q_slots or self.qdot_slots or self.internal:
            raise ValueError("slot data requires tensor factors")
        return self

    @property
    def slot_count(self) -> int:
        """Number of tensor slots the vertex exposes."""
        return len(self.q_slots) + len(self.qdot_slots) + 2 * len(self.internal)


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------

# (order, q power, qdot power, delta0 power) of the kinetic and the measure
# vertex at q^2, then at q^4; each model names them in this order.
_SHAPES = ((1, 2, 2, 0), (1, 2, 0, 1), (2, 4, 2, 0), (2, 4, 0, 1))


def metric_series(model: FlatTransform | NormalCoords) -> dict[int, Fraction]:
    """The model's metric g = s^2 as an even power series, through q^4."""

    series = dict.fromkeys((0, 2, 4), Fraction(0))
    root = model._root_series()
    for pa, ca in root.items():
        for pb, cb in root.items():
            if pa + pb <= 4:
                series[pa + pb] += ca * cb
    return series


def _vertices(model: FlatTransform | NormalCoords) -> list[Vertex]:
    """The kinetic vertices g/2 and the measure vertices -(log g)/2 of the model's metric."""

    g = metric_series(model)
    log_g = {2: g[2], 4: g[4] - g[2] * g[2] / 2}
    return [
        Vertex(name, order, q, qdot, delta0, g[q] / 2 if qdot else -log_g[q] / 2, *slots)
        for (name, *slots), (order, q, qdot, delta0) in zip(model._vertex_table, _SHAPES)
    ]


class FlatTransform(
    namedtuple("FlatTransform", "f_coefficients", defaults=((Fraction(-1, 3), Fraction(1, 5)),))
):
    """Flat line reparametrized by an odd coordinate change.

    The new coordinate q is related to the Cartesian one by
    ``x = q + f_coefficients[0] q^3 + f_coefficients[1] q^5 + ...`` with
    unit slope at the origin, so the metric is the square of the series
    derivative and every curvature invariant vanishes identically.
    """

    __slots__ = ()
    _vertex_table = (("kinetic_quadratic",), ("logdet_quadratic",), ("kinetic_quartic",), ("logdet_quartic",))

    def _root_series(self) -> dict[int, Fraction]:
        """The slope dx/dq."""
        slope = {0: Fraction(1)}
        for index, coefficient in enumerate(self.f_coefficients):
            slope[2 * (index + 1)] = (2 * index + 3) * Fraction(coefficient)
        return slope

    def vertices(self) -> list[Vertex]:
        """Interaction vertices through second order, first order first."""
        return _vertices(self)

    def measure_terms(self) -> dict[str, RegValue]:
        """None: the flat models keep their measure inside the log-det vertices."""
        return {}


class NormalCoords(namedtuple("NormalCoords", ())):
    """Curved target in normal coordinates around the expansion point.

    The metric and the slot trace follow README "Metric convention",
    through quartic order in the fluctuation; results are polynomial in
    the curvature labels.
    """

    __slots__ = ()
    # The riem factors, the slot of each q and each qdot, and the slot pairs
    # traced inside the vertex: qdot M qdot, tr M, qdot M^2 qdot, tr M^2.
    _vertex_table = (
        ("curvature_kinetic", ("riem",), (1, 3), (0, 2)),
        ("curvature_measure", ("riem",), (1, 3), (), ((0, 2),)),
        ("curvature_kinetic_quartic", ("riem", "riem"), (0, 2, 4, 6), (1, 5), ((3, 7),)),
        ("curvature_measure_quartic", ("riem", "riem"), (0, 2, 4, 6), (), ((3, 5), (1, 7))),
    )

    def _root_series(self) -> dict[int, Fraction]:
        """sin z / z, with z^2 = M."""
        return {2 * k: Fraction((-1) ** k, factorial(2 * k + 1)) for k in range(3)}

    def vertices(self) -> list[Vertex]:
        """Interaction vertices through second order, first order first."""
        return _vertices(self)

    def measure_terms(self) -> dict[str, RegValue]:
        """Finite first-order measure contributions, by tensor label; none at second order."""
        return {"R": RegValue.beta(1, Fraction(1, 24))}


# ---------------------------------------------------------------------------
# metric-derivative contraction patterns (general coordinates)
# ---------------------------------------------------------------------------

# Quadratic patterns in the symmetrized metric slope
# G[ij,k] = (d_i g_jk + d_j g_ik - d_k g_ij) / 2 at the expansion point:
#
#   trace_trace       sum_l ( sum_i G[li,i] )^2
#   trace_gtrace      sum_l ( sum_i G[li,i] ) ( sum_i G[ii,l] )
#   gtrace_gtrace     sum_l ( sum_i G[ii,l] )^2
#   cross             sum_{iln} G[il,n] G[ni,l]
#   full_square       sum_{iln} G[il,n]^2
#
# and second-derivative patterns at the expansion point:
#
#   laplace_trace     sum_{ik} d_k d_k g_ii
#   double_divergence sum_{ik} d_i d_k g_ik

GAMMA_PATTERNS: tuple[str, ...] = (
    "trace_trace",
    "trace_gtrace",
    "gtrace_gtrace",
    "cross",
    "full_square",
    "laplace_trace",
    "double_divergence",
)

# Each first-order two-vertex contraction line: an overall prefactor, the
# pattern multiplicities it multiplies, and the named two-time integral
# carrying its propagator content.
GammaLine = tuple[Fraction, dict[str, int], str]

GAMMA_SQUARED_LINES: tuple[GammaLine, ...] = (
    (Fraction(1, 2), {"trace_trace": 1}, "I11"),
    (Fraction(1), {"trace_trace": 1, "trace_gtrace": 1}, "I12"),
    (Fraction(1, 2), {"gtrace_gtrace": 1, "trace_trace": 1, "trace_gtrace": 2}, "I13"),
    (Fraction(1, 2), {"full_square": 1, "cross": 3}, "I14"),
    (Fraction(1, 2), {"cross": 1, "full_square": 1}, "I15R"),
)

# Single-vertex (equal-time) contribution of the second-derivative
# vertices, already integrated.
SECOND_DERIVATIVE_TERMS: dict[str, RegValue] = {
    "laplace_trace": RegValue.beta(1, Fraction(1, 24)),
    "double_divergence": RegValue.beta(1, Fraction(-1, 24)),
}

# The scalar curvature at the expansion point in terms of the patterns.
CURVATURE_DICTIONARY: dict[str, Fraction] = {
    "double_divergence": Fraction(1),
    "laplace_trace": Fraction(-1),
    "full_square": Fraction(1),
    "gtrace_gtrace": Fraction(-1),
}
