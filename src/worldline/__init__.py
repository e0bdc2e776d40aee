"""Exact propagator integrals for quantum mechanical path integrals on a line segment.

The package computes the finite-time propagators with endpoints pinned to
zero, products of them with distributional pieces kept symbolic, and the
dimensional lift that makes order-of-operations ambiguities well defined.
On top of that sit the two-loop diagram catalogues for flat and curved
target spaces, the geometric side (curvature invariants, heat kernel
coefficients, sphere spectra), and consistency checks between all routes.

Values live in the exact ring of rationals times integer powers of the
total time ``beta`` and the formal equal-time divergence ``delta0``.
The package re-exports nothing; import from its modules, e.g.
``from worldline.integration import integrate_product``.
"""

__version__ = "0.1.0"
