"""Numerical and symbolic toolkit for tangential Cauchy-Riemann homotopy
operators on embedded quadric CR models.

Subpackage map:

- ``geometry``   quadric models, Levi eigenvalue data, concavity certification,
                 holomorphic tangent rows
- ``barrier``    phase sections, the correction projector, positivity and
                 expansion audits
- ``cf_forms``   the determinant form of a section as an array form on the
                 2n + 1 symbols dzbar, dzetabar, dt
- ``sections``   normalized section jets (euclidean, barrier, combined), the
                 closedness check of the determinant form
- ``fields``     form fields (coefficient arrays with an optional analytic
                 d-bar), chart functions, tangential components
- ``quadrature`` level-set grids and oriented surface integration
- ``homotopy``   solution / obstruction operators, whose ``extension=`` node
                 projection extends a field off the manifold
- ``indexcalc``  symbolic kernel index bookkeeping and decision procedures
- ``norms``      frame flows, anisotropic Holder estimators
- ``cli``        batch audit entry point
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULES = (
    "geometry", "barrier", "cf_forms", "sections", "fields", "quadrature",
    "homotopy", "indexcalc", "norms", "cli",
)

__all__ = list(_SUBMODULES)


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
