"""Differential form fields on the model chart.

A (0, r) form is a :class:`FormField`: the array of its coefficients over
the strictly increasing r-tuples of antiholomorphic indices, and its
ambient antiholomorphic differential where that is known analytically.
:func:`chart_form` builds one from "chart functions": functions of (z',
conj z', Re w) with a value and an ambient d/dzbar jet, the only derivative
the operators read.  Such functions are invariant under the graph extension
(coefficients constant along the defining coordinates), so their jets are
the differential of the extension, analytic for the polynomial-times-bump
test coefficients.  Extension off the manifold is the operators' node
projection (``extension=``, the graph projection by default).

Tangential components are the contraction with the conjugate tangent frame.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from math import prod

import numpy as np

from ._util import evaluate_form, index_combinations, wedge_table
from .errors import DerivativeOrderError
from .geometry import ManifoldModel, holomorphic_tangent_rows


# ---------------------------------------------------------------------------
# chart functions
# ---------------------------------------------------------------------------

class ChartFunction:
    """Function of the chart parameters (z', conj z', Re w).

    Subclasses provide ``value`` and ``jet``, the value with its ambient
    Wirtinger jet d/dzbar of shape (..., n) from one pass; ``d_zbar`` is the
    jet alone.  Independence of Im w makes every chart function its own
    graph extension.
    """

    def value(self, model, z):
        raise NotImplementedError

    def jet(self, model, z):
        raise NotImplementedError

    def d_zbar(self, model, z):
        return self.jet(model, z)[1]


def _chart_params(model, z):
    zp, w = model.split(np.asarray(z, dtype=complex))
    return zp, w.real


class PolyChart(ChartFunction):
    """Polynomial in (z'_i, conj z'_i, u_k); terms are
    (coeff, z_exponents, zbar_exponents, u_exponents)."""

    def __init__(self, model_dims, terms):
        self.d, self.m = model_dims
        self.terms = [(complex(c), np.asarray(a, int), np.asarray(b, int),
                       np.asarray(e, int)) for c, a, b, e in terms]
        # column j of the jet: the terms with the j-th exponent of (conj z',
        # u) lowered; jet applies d u_k / d wbar_k = 1/2
        self.lowered = [[] for _ in range(self.d + self.m)]
        for c, a, b, e in self.terms:
            p = np.concatenate([b, e])
            for j in np.flatnonzero(p):
                low = p - np.eye(p.size, dtype=int)[j]
                self.lowered[j].append((c * p[j], a, *np.split(low, [self.d])))

    def _sum(self, terms, zp, u):
        """Sum of the monomials ``terms`` at (z', u), the factors z'_i and
        conj z'_i taken per index i, then the u_k."""
        out = np.zeros(zp.shape[:-1], dtype=complex)
        for c, a, b, e in terms:
            t = c
            for i in range(self.d):
                if a[i]:
                    t = t * zp[..., i] ** a[i]
                if b[i]:
                    t = t * zp[..., i].conj() ** b[i]
            for k in range(self.m):
                if e[k]:
                    t = t * u[..., k] ** e[k]
            out = out + t
        return out

    def value(self, model, z):
        return self._sum(self.terms, *_chart_params(model, z))

    def jet(self, model, z):
        zp, u = _chart_params(model, z)
        out = np.zeros(np.shape(z), dtype=complex)
        for j, terms in enumerate(self.lowered):
            out[..., j] = self._sum(terms, zp, u)
        out[..., self.d:] *= 0.5
        return self._sum(self.terms, zp, u), out


def _smoothstep(x):
    """C-infinity step s(x), 0 for x <= 0 and 1 for x >= 1, and its slope,
    from fa = exp(-1/x) and fb = exp(-1/(1 - x)): s = fa / (fa + fb) and s'
    = fa fb (1/x^2 + 1/(1 - x)^2) / (fa + fb)^2.  Flooring each argument at
    1e-300 makes its exponential 0 where the argument is <= 0."""
    a = np.maximum(x, 1e-300)
    b = np.maximum(1.0 - x, 1e-300)
    fa = np.exp(-1.0 / a)
    fb = np.exp(-1.0 / b)
    total = fa + fb
    # fa / a / a, not fa / a**2: a**2 underflows to 0 at the floor
    return fa / total, (fa / a / a * fb + fb / b / b * fa) / (total * total)


class BumpChart(ChartFunction):
    """Radial bump in the chart parameters: 1 inside ``r_in``, 0 outside
    ``r_out``, measured from (center_zp, center_u)."""

    def __init__(self, center_zp, center_u, r_in, r_out):
        if not 0 < r_in < r_out:
            raise ValueError("need 0 < r_in < r_out")
        self.center_zp = np.asarray(center_zp, dtype=complex)
        self.center_u = np.asarray(center_u, dtype=float)
        self.r_in = float(r_in)
        self.r_out = float(r_out)

    def _offsets(self, model, z):
        """(r_out - dist) / (r_out - r_in), dist and the offsets (dz', du)."""
        zp, u = _chart_params(model, z)
        dz = zp - self.center_zp
        du = u - self.center_u
        dist = np.sqrt(np.sum(np.abs(dz) ** 2, axis=-1)
                       + np.sum(du ** 2, axis=-1))
        return (self.r_out - dist) / (self.r_out - self.r_in), dist, dz, du

    def value(self, model, z):
        return _smoothstep(self._offsets(model, z)[0])[0].astype(complex)

    def jet(self, model, z):
        """The value and, by the radial chain rule, d(bump)/d(dist^2) times
        d(dist^2)/dzbar, which is dz' on z' and du on w (d u^2 / d wbar =
        2 u / 2), from one distance."""
        x, dist, dz, du = self._offsets(model, z)
        step, slope = _smoothstep(x)
        dd2 = np.where(dist > 1e-150, slope * (-1.0 / (self.r_out - self.r_in))
                       / (2.0 * np.maximum(dist, 1e-150)), 0.0)
        out = np.zeros(np.shape(z), dtype=complex)
        out[..., :dz.shape[-1]] = dd2[..., None] * dz
        out[..., dz.shape[-1]:] = dd2[..., None] * du
        return step.astype(complex), out


class ProductChart(ChartFunction):
    def __init__(self, *factors):
        self.factors = factors

    def value(self, model, z):
        out = None
        for f in self.factors:
            v = f.value(model, z)
            out = v if out is None else out * v
        return out

    def jet(self, model, z):
        """The product of the factors' values, and its jet by the product
        rule, each factor evaluated once."""
        vals, jets = zip(*(f.jet(model, z) for f in self.factors))
        out = np.zeros(np.shape(z), dtype=complex)
        for i, term in enumerate(jets):
            for j, v in enumerate(vals):
                if j != i:
                    term = term * v[..., None]
            out = out + term
        value = vals[0]
        for v in vals[1:]:
            value = value * v
        return value, out


class ZeroChart(ChartFunction):
    """The zero function; :func:`chart_form` evaluates none of its
    components."""

    def value(self, model, z):
        return np.zeros(np.shape(z)[:-1], dtype=complex)

    def jet(self, model, z):
        return self.value(model, z), np.zeros(np.shape(z), dtype=complex)


# ---------------------------------------------------------------------------
# form fields
# ---------------------------------------------------------------------------

@dataclass
class FormField:
    """Ambient (0, r) form: ``fn(model, z)`` gives its coefficients over the
    increasing r-tuples of antiholomorphic indices, shape (..., C(n, r)),
    and ``dbar_fn(model, z)``, where it is known analytically, those of its
    ambient antiholomorphic differential."""

    n: int
    degree: int
    fn: Callable
    dbar_fn: Callable = None

    def values(self, model, z):
        """(..., C(n, r)) coefficient array at points z."""
        return self.fn(model, z)

    def dbar_field(self) -> "FormField":
        """The differential as a field of degree r + 1, without a d-bar of
        its own; :class:`DerivativeOrderError` if it is not known."""
        if self.dbar_fn is None:
            raise DerivativeOrderError(
                f"degree-{self.degree} form has no analytic differential")
        return FormField(n=self.n, degree=self.degree + 1, fn=self.dbar_fn)


def chart_form(n, degree, components) -> FormField:
    """Form whose coefficient on the i-th increasing r-tuple is the chart
    function ``components[i]``: the values, and the differential the wedge
    of their d/dzbar jets, exact since chart functions are their own
    extension.  Only the components that are not :class:`ZeroChart` are
    evaluated; a form's zero coefficients stay 0."""
    count = len(index_combinations(n, degree))
    if len(components) != count:
        raise ValueError(f"need {count} components, got {len(components)}")
    live = [(i, c) for i, c in enumerate(components)
            if not isinstance(c, ZeroChart)]
    # component J wedges into the outputs K = J + {l} at the entries J * n
    # + l of the wedge_jets table, with their signs
    index, sign = wedge_table(n, degree)
    entries = [(K, index[K, a] % n, sign[K, a])
               for K, a in (np.nonzero(index // n == i) for i, _ in live)]

    def values(model, z):
        out = np.zeros(np.shape(z)[:-1] + (count,), dtype=complex)
        for i, c in live:
            out[..., i] = c.value(model, z)
        return out

    def dbar_values(model, z):
        # summed over J in table order, as wedge_jets sums each K
        out = np.zeros(np.shape(z)[:-1] + (len(index),), dtype=complex)
        for (_, c), (K, l, s) in zip(live, entries):
            out[..., K] += c.d_zbar(model, z)[..., l] * s
        return out

    return FormField(n=n, degree=degree, fn=values, dbar_fn=dbar_values)


# ---------------------------------------------------------------------------
# tangential components
# ---------------------------------------------------------------------------

def conjugate_frame_rows(model: ManifoldModel, z):
    """Rows spanning the antiholomorphic tangent space T'' (coefficients of
    d/d zetabar), shape (..., n-m, n)."""
    return holomorphic_tangent_rows(model, z).conj()


def _evaluate_batched(values, rows, n, degree):
    """:func:`evaluate_form` of the degree-r forms ``values`` (..., C(n, r))
    on C^n at the sorted r-subsets of the vectors ``rows`` (..., count, n),
    the leading axes broadcast; returns (..., C(count, r))."""
    shape = np.broadcast_shapes(values.shape[:-1], rows.shape[:-2])
    size = prod(shape)
    F = np.broadcast_to(values, shape + values.shape[-1:]).reshape(size, -1)
    V = np.broadcast_to(rows, shape + rows.shape[-2:]).reshape(size, -1)
    out = evaluate_form(F.T, V.T, n, degree, degree)
    return out.T.reshape(shape + out.shape[:1])


def tangential_components(model: ManifoldModel, values, z, degree: int):
    """Contract ambient (0, r) coefficients with the conjugate tangent frame.

    Returns (..., C(n-m, r)) components against increasing frame tuples: the
    form evaluated at the frame rows, sum over J of values[J] det(frame[I, J]).
    """
    wb = conjugate_frame_rows(model, np.asarray(z, dtype=complex))
    return _evaluate_batched(values, wb, model.n, degree)


# ---------------------------------------------------------------------------
# bundled test data
# ---------------------------------------------------------------------------

# the radii of the test form's bump: 1 inside BUMP_R_IN, 0 beyond BUMP_R_OUT
BUMP_R_IN = 0.25
BUMP_R_OUT = 0.45


def bundled_test_form(model: ManifoldModel) -> FormField:
    """Smooth compactly supported (0,1) form with analytic differential:
    low-order polynomial times a radial bump on the first antiholomorphic
    component."""
    d, m = model.tangential_dim, model.m
    poly = PolyChart((d, m), [
        (1.0, np.zeros(d), np.zeros(d), np.zeros(m)),
        (0.35, np.eye(1, d, 0)[0], np.zeros(d), np.zeros(m)),
        (0.25j, np.zeros(d), np.eye(1, d, min(1, d - 1))[0], np.zeros(m)),
        (0.15, np.zeros(d), np.zeros(d), np.eye(1, m, 0)[0]),
    ])
    bump = BumpChart(np.zeros(d), np.zeros(m), BUMP_R_IN, BUMP_R_OUT)
    comps = [ZeroChart() for _ in range(model.n)]
    comps[0] = ProductChart(poly, bump)
    return chart_form(model.n, 1, comps)
