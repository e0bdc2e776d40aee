"""Target-space models and their expansion data.

Each model fixes a metric in the neighborhood of the expansion point and
yields the interaction vertices of the transformed action, the measure
terms that accompany them, and reference values to compare totals
against: the flat models must sum to zero, the curved ones to the
heat-kernel coefficients, and the sphere provides an independent
spectral route to the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple, Union

from .diagrams import Vertex
from .values import RegValue


# ---------------------------------------------------------------------------
# models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlatTransform:
    """Flat line reparametrized by an odd coordinate change.

    The new coordinate q is related to the Cartesian one by
    ``x = q + f_coefficients[0] q^3 + f_coefficients[1] q^5 + ...`` with
    unit slope at the origin, so the metric is the square of the series
    derivative and every curvature invariant vanishes identically.
    """

    f_coefficients: Tuple[Fraction, ...] = (Fraction(-1, 3), Fraction(1, 5))


@dataclass(frozen=True)
class NormalCoords:
    """Curved target in normal coordinates around the expansion point.

    The metric expansion is organized through quartic order in the
    fluctuation; results are polynomial in the curvature labels.
    """


@dataclass(frozen=True)
class Sphere:
    """Round sphere of dimension ``dimension - 1`` embedded in ``dimension``.

    A reference-only model: it supplies exact curvature invariants and a
    spectral partition function, not vertices.
    """

    dimension: int
    radius: Fraction = Fraction(1)

    def __post_init__(self) -> None:
        if self.dimension < 2:
            raise ValueError("the sphere model needs an embedding dimension of at least 2")
        object.__setattr__(self, "radius", Fraction(self.radius))
        if self.radius <= 0:
            raise ValueError("the sphere radius must be positive")


MetricModel = Union[FlatTransform, NormalCoords, Sphere]


# ---------------------------------------------------------------------------
# metric series of the flat transform
# ---------------------------------------------------------------------------


def metric_series(model: FlatTransform) -> Dict[int, Fraction]:
    """Coefficients of the metric as an even power series in q, through q^4."""

    slope: Dict[int, Fraction] = {0: Fraction(1)}
    for index, coefficient in enumerate(model.f_coefficients):
        slope[2 * (index + 1)] = (2 * index + 3) * Fraction(coefficient)
    series: Dict[int, Fraction] = {}
    for pa, ca in slope.items():
        for pb, cb in slope.items():
            power = pa + pb
            if power <= 4:
                series[power] = series.get(power, Fraction(0)) + ca * cb
    return dict(sorted(series.items()))


def _log_series(series: Dict[int, Fraction]) -> Dict[int, Fraction]:
    """Logarithm of an even series with unit constant term, through q^4."""

    u2 = series.get(2, Fraction(0))
    u4 = series.get(4, Fraction(0))
    return {2: u2, 4: u4 - u2 * u2 / 2}


# ---------------------------------------------------------------------------
# vertices
# ---------------------------------------------------------------------------


def _flat_vertices(model: FlatTransform) -> List[Vertex]:
    g = metric_series(model)
    log_g = _log_series(g)
    return [
        Vertex(
            name="kinetic_quadratic",
            order_in_eps=1,
            q_power=2,
            qdot_power=2,
            delta0_power=0,
            coefficient=g[2] / 2,
        ),
        Vertex(
            name="logdet_quadratic",
            order_in_eps=1,
            q_power=2,
            qdot_power=0,
            delta0_power=1,
            coefficient=-log_g[2] / 2,
        ),
        Vertex(
            name="kinetic_quartic",
            order_in_eps=2,
            q_power=4,
            qdot_power=2,
            delta0_power=0,
            coefficient=g[4] / 2,
        ),
        Vertex(
            name="logdet_quartic",
            order_in_eps=2,
            q_power=4,
            qdot_power=0,
            delta0_power=1,
            coefficient=-log_g[4] / 2,
        ),
    ]


def _normal_vertices() -> List[Vertex]:
    # The quadratic coefficients are stored with the sign that combines
    # with the curvature measure term into the heat-kernel value; the
    # quartic vertices enter results squared or alone, with the written
    # sign.
    return [
        Vertex(
            name="curvature_kinetic",
            order_in_eps=1,
            q_power=2,
            qdot_power=2,
            delta0_power=0,
            coefficient=Fraction(-1, 6),
            tensors=("riem",),
            q_slots=(1, 3),
            qdot_slots=(0, 2),
        ),
        Vertex(
            name="curvature_measure",
            order_in_eps=1,
            q_power=2,
            qdot_power=0,
            delta0_power=1,
            coefficient=Fraction(-1, 6),
            tensors=("ric",),
            q_slots=(0, 1),
        ),
        Vertex(
            name="curvature_kinetic_quartic",
            order_in_eps=2,
            q_power=4,
            qdot_power=2,
            delta0_power=0,
            coefficient=Fraction(1, 45),
            tensors=("riem", "riem"),
            q_slots=(0, 2, 4, 6),
            qdot_slots=(1, 5),
            internal=((3, 7),),
        ),
        Vertex(
            name="curvature_measure_quartic",
            order_in_eps=2,
            q_power=4,
            qdot_power=0,
            delta0_power=1,
            coefficient=Fraction(1, 180),
            tensors=("riem", "riem"),
            q_slots=(0, 2, 4, 6),
            internal=((3, 5), (1, 7)),
        ),
    ]


def vertices(model: MetricModel) -> List[Vertex]:
    """Interaction vertices of a model through second order, first order first."""

    if isinstance(model, FlatTransform):
        return _flat_vertices(model)
    if isinstance(model, NormalCoords):
        return _normal_vertices()
    if isinstance(model, Sphere):
        raise ValueError(
            "the sphere model supplies spectra and reference values, not vertices"
        )
    raise TypeError(f"unknown model {model!r}")


def measure_terms(model: MetricModel) -> Dict[str, RegValue]:
    """Finite first-order measure contributions, by tensor label.

    The flat models keep their measure inside the log-det vertices, so
    only the normal-coordinate model has a nonvanishing entry; no model
    has one at second order.
    """

    if isinstance(model, Sphere):
        raise ValueError("the sphere model is reference-only and has no measure terms")
    if isinstance(model, NormalCoords):
        return {"R": RegValue.beta(1, Fraction(1, 24))}
    return {}


# ---------------------------------------------------------------------------
# heat-kernel reference
# ---------------------------------------------------------------------------


# Heat-kernel expansion coefficients in the curvature-label basis, by order.
SEELEY: Dict[int, Dict[str, Fraction]] = {
    1: {"R": Fraction(1, 12)},
    2: {
        "Rsq": Fraction(1, 288),
        "RiemannSq": Fraction(1, 720),
        "RicciSq": Fraction(-1, 720),
    },
}


def sphere_tensors(model: Sphere) -> Dict[str, Fraction]:
    """Exact curvature invariants of the round sphere."""

    n = model.dimension - 1
    r2 = model.radius * model.radius
    r4 = r2 * r2
    return {
        "one": Fraction(1),
        "R": Fraction(n * (n - 1)) / r2,
        "Rsq": Fraction(n * n * (n - 1) * (n - 1)) / r4,
        "RicciSq": Fraction(n * (n - 1) * (n - 1)) / r4,
        "RiemannSq": Fraction(2 * n * (n - 1)) / r4,
    }


def seeley_reference(model: MetricModel, order: int) -> Dict[str, RegValue]:
    """Expected heat-kernel term of a model at a given order."""

    if order not in SEELEY:
        raise ValueError("the heat-kernel reference is tabulated through second order")
    if isinstance(model, NormalCoords):
        return {
            label: RegValue.beta(order, coefficient)
            for label, coefficient in sorted(SEELEY[order].items())
        }
    if isinstance(model, Sphere):
        d = model.dimension
        r2 = model.radius * model.radius
        if order == 1:
            coefficient = Fraction((d - 1) * (d - 2), 12) / r2
        else:
            coefficient = Fraction(
                (d - 1) * (d - 2) * (5 * d * d - 17 * d + 18), 1440
            ) / (r2 * r2)
        return {"one": RegValue.beta(order, coefficient)}
    if isinstance(model, FlatTransform):
        return {}
    raise TypeError(f"no heat-kernel reference for {model!r}")


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

GAMMA_PATTERNS: Tuple[str, ...] = (
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
GammaLine = Tuple[Fraction, Dict[str, int], str]

GAMMA_SQUARED_LINES: Tuple[GammaLine, ...] = (
    (Fraction(1, 2), {"trace_trace": 1}, "I11"),
    (Fraction(1), {"trace_trace": 1, "trace_gtrace": 1}, "I12"),
    (Fraction(1, 2), {"gtrace_gtrace": 1, "trace_trace": 1, "trace_gtrace": 2}, "I13"),
    (Fraction(1, 2), {"full_square": 1, "cross": 3}, "I14"),
    (Fraction(1, 2), {"cross": 1, "full_square": 1}, "I15R"),
)

# Single-vertex (equal-time) contribution of the second-derivative
# vertices, already integrated.
SECOND_DERIVATIVE_TERMS: Dict[str, RegValue] = {
    "laplace_trace": RegValue.beta(1, Fraction(1, 24)),
    "double_divergence": RegValue.beta(1, Fraction(-1, 24)),
}

# The scalar curvature at the expansion point in terms of the patterns.
CURVATURE_DICTIONARY: Dict[str, Fraction] = {
    "double_divergence": Fraction(1),
    "laplace_trace": Fraction(-1),
    "full_square": Fraction(1),
    "gtrace_gtrace": Fraction(-1),
}
