"""Anisotropic function-space machinery: frame flows, complex-tangential
curves, and sampling estimators of the anisotropic Holder
norms (ambient exponent counts half against tangential exponent).

All estimators are lower bounds: the definitional suprema run over
uncountable families of curves and fields, sampled here over seeded finite
families.

Control paths are integrated by the classical RK4 over all steps at once.
On a quadric the frame velocity's z'-part is the control u + iv, and its
w-part reads the state only through z'.  So the z' of every stage follows
from the controls by a running sum, every stage velocity comes from one
batched call, and the path is the running sum of the steps.  The
step-by-step RK4 in ``tests/oracles.py`` is its bit-identity reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import canonical_json
from .geometry import ManifoldModel, holomorphic_tangent_rows


# ---------------------------------------------------------------------------
# frame fields
# ---------------------------------------------------------------------------

def frame_velocity(model: ManifoldModel, z, controls):
    """Velocity of the control combination at z.

    controls = (x, y, u, v): defining-coordinate directions (x), transverse
    tangent directions (y), and the real/rotated complex-tangent frame (u, v).
    Returned as complex n-vectors (the real velocity in complex notation).
    Batched over leading axes: z of shape (..., n) and controls of shapes
    (..., m), (..., m), (..., d), (..., d), broadcast against each other; a
    single point is the call without leading axes.
    """
    x, y, u, v = (np.asarray(c, dtype=float) for c in controls)
    d = model.tangential_dim
    rows = holomorphic_tangent_rows(model, z)
    vel = ((u + 1j * v)[..., None, :] @ rows)[..., 0, :]
    # x moves each rho_k, y is the transverse tangent (Re w)
    vel[..., d:] += 1j * x + y
    return vel


# ---------------------------------------------------------------------------
# admissible curves
# ---------------------------------------------------------------------------

@dataclass
class TangentCurve:
    """Sampled curves, batched over leading axes: samples (..., k, n)."""

    samples: np.ndarray               # (..., k, n) points on the manifold
    s_values: np.ndarray              # (k,)
    velocity_samples: np.ndarray      # (..., k, n) analytic velocities

    def acceleration(self):
        ds = self.s_values[1] - self.s_values[0]
        return np.gradient(self.velocity_samples, ds, axis=-2)


def curve_audit(model: ManifoldModel, curve: TangentCurve):
    """Velocity/acceleration bounds and complex-tangency of sampled curves.

    Acceleration is measured on the interior samples (one-sided boundary
    differences overshoot); tangency uses the curve's analytic velocities.
    A curve passes when both bounds hold up to 5% and both the normal
    defect (2 Re of the d rho pairing) and the complex-tangency defect (its
    imaginary part, which a transverse Re w velocity leaves) are below
    1e-8.  Each value has the curves' leading shape.
    """
    vel = curve.velocity_samples
    acc = curve.acceleration()[..., 2:-2, :]
    vmax = np.max(np.linalg.norm(vel, axis=-1), axis=-1)
    amax = np.max(np.linalg.norm(acc, axis=-1), axis=-1, initial=0.0)
    pairing = np.einsum("...ski,...si->...sk",
                        model.holo_gradients(curve.samples), vel)
    normal_defect = np.max(np.abs(2.0 * pairing.real), axis=(-2, -1))
    trans_defect = np.max(np.abs(pairing.imag), axis=(-2, -1))
    return {
        "velocity_max": vmax,
        "acceleration_max": amax,
        "normal_defect": normal_defect,
        "complex_tangency_defect": trans_defect,
        "passes": ((vmax <= 1.05) & (amax <= 1.05)
                   & (normal_defect < 1e-8) & (trans_defect < 1e-8)),
    }


def _rk4_path(start, k1, k2, k3, k4, h):
    """start, (..., 1, width), followed by its classical 4th-order steps with
    stage velocities k1..k4, (..., steps, width): one running sum."""
    return np.cumsum(np.concatenate(
        [start, (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)], axis=-2), axis=-2)


def integrate_controls(model: ManifoldModel, z, controls_at,
                       samples: int = 51) -> TangentCurve:
    """Integrate s-dependent control paths with the classical 4th-order
    method, all steps at once (see the module docstring).

    z is one start (n,) or a batch of starts (C, n); controls_at(s) returns
    controls that broadcast against it (see :func:`frame_velocity`).  Returns
    the sampled curves, (..., samples, n), carrying analytic velocities.
    """
    z = np.asarray(z, dtype=complex)
    s_vals = np.linspace(0.0, 1.0, samples)
    h = s_vals[1] - s_vals[0]
    # each step's stage times s, s + h/2 and s + h, formed as a step forms
    # them (s + h need not equal the next sample); one draw per distinct time
    times, which = np.unique(np.concatenate(
        [s_vals, s_vals[:-1] + 0.5 * h, s_vals[:-1] + h]), return_inverse=True)
    at_s, at_mid, at_end = np.split(which, [samples, 2 * samples - 1])
    # x, y, u, v with the draws on axis -2: (..., times, width)
    ctrl = [np.stack(c, axis=-2).astype(float, copy=False)
            for c in zip(*(controls_at(t) for t in times))]
    lead = np.broadcast_shapes(z.shape[:-1], *(c.shape[:-2] for c in ctrl))
    ctrl = [np.broadcast_to(c, lead + c.shape[-2:]) for c in ctrl]
    start = np.broadcast_to(z, lead + z.shape[-1:])[..., None, :]
    # every stage's z'-velocity is its control u + iv, so the z' of every
    # stage follows from the controls alone; the w-velocity reads only z'
    tangent = ctrl[2] + 1j * ctrl[3]
    stage_at = np.stack([at_s[:-1], at_mid, at_mid, at_end])
    c1, c2, c3, c4 = np.moveaxis(tangent[..., stage_at, :], -3, 0)
    zp = _rk4_path(start[..., :model.tangential_dim], c1, c2, c3, c4,
                   h)[..., :-1, :]
    stages = np.stack([zp, zp + 0.5 * h * c1, zp + 0.5 * h * c2,
                       zp + h * c3], axis=-3)
    stages = np.concatenate(
        [stages, np.zeros(stages.shape[:-1] + (model.m,))], axis=-1)
    k = frame_velocity(model, stages, [c[..., stage_at, :] for c in ctrl])
    path = _rk4_path(start, *np.moveaxis(k, -3, 0), h)
    vel = frame_velocity(model, path, [c[..., at_s, :] for c in ctrl])
    return TangentCurve(samples=path, s_values=s_vals, velocity_samples=vel)


def random_admissible_curve(model: ManifoldModel, z, coeffs,
                            samples: int = 51):
    """Curves from the starts z, (C, n), under polynomial controls of degree
    <= 3 in the complex-tangent frame with coefficients coeffs, (C, 2, d, 4)
    (u rows, then v rows; the estimators draw them standard normal).

    Each curve's coefficients are rescaled until its velocity and
    acceleration are at most 0.9; the rounds integrate only the
    curves not yet accepted, and a curve still outside after 8 rounds keeps
    its last integration.
    """
    z = np.asarray(z, dtype=complex)
    coeffs = np.array(coeffs, dtype=float)        # a copy: rescaled below
    out = np.empty((z.shape[0], samples, model.n), dtype=complex)
    out_vel = np.empty_like(out)
    pending = np.arange(z.shape[0])
    for _ in range(8):
        live = coeffs[pending]

        def controls_at(s):
            powers = np.array([1.0, s, s * s, s ** 3])
            zero = np.zeros((pending.size, model.m))
            return zero, zero, live[:, 0] @ powers, live[:, 1] @ powers

        curve = integrate_controls(model, z[pending], controls_at, samples)
        audit = curve_audit(model, curve)
        out[pending] = curve.samples
        out_vel[pending] = curve.velocity_samples
        vmax, amax = audit["velocity_max"], audit["acceleration_max"]
        worst = np.maximum(vmax, np.sqrt(np.maximum(amax, 1e-12)))
        outside = ~((vmax <= 0.9) & (amax <= 0.9))
        coeffs[pending[outside]] *= (
            0.9 / np.maximum(worst[outside], 1e-9))[:, None, None, None]
        pending = pending[outside]
        if not pending.size:
            break
    return TangentCurve(samples=out, s_values=curve.s_values,
                        velocity_samples=out_vel)


# ---------------------------------------------------------------------------
# Holder estimators
# ---------------------------------------------------------------------------

@dataclass
class HolderEstimate:
    quotient_sup: float
    pair_count: int
    samples: list         # (id, quotient) rows for CSV export


@dataclass
class AnisotropicEstimate:
    ambient: HolderEstimate
    tangential: HolderEstimate


def tangential_holder_estimate(model: ManifoldModel, h_fn, beta: float,
                               z, curve_budget: int = 24,
                               pair_budget: int = 200, seed: int = 0,
                               scale: float = 0.2) -> AnisotropicEstimate:
    """Sampled lower bound of the anisotropic Holder norm near z.

    Ambient part: quotients |h(a) - h(b)| / |a - b|^(beta/2) over random
    manifold point pairs.  Tangential part: quotients along admissible
    complex-tangential curves at exponent beta.  ``h_fn`` maps a (K, n)
    batch of points to K values; it is called once on the pair points and
    once on the curve samples.  Each part keeps its individual quotients
    for CSV export.
    """
    if not 0 < beta < 2:
        raise ValueError("exponent must lie in (0, 2)")
    rng = np.random.default_rng(seed)
    d, m = model.tangential_dim, model.m
    zp0, w0 = model.split(np.asarray(z, dtype=complex))

    # ambient pairs: each draws Re dz (2, d), Im dz (2, d), du (2, m)
    draws = rng.standard_normal((pair_budget, 4 * d + 2 * m))
    dz = scale * (draws[:, :2 * d] + 1j * draws[:, 2 * d:4 * d])
    du = scale * draws[:, 4 * d:]
    ends = model.graph_point(zp0 + dz.reshape(-1, 2, d),
                             w0.real + du.reshape(-1, 2, m))
    values = np.asarray(h_fn(ends.reshape(-1, model.n))).reshape(-1, 2)
    dist = np.linalg.norm(ends[:, 0] - ends[:, 1], axis=-1)
    kept = np.flatnonzero(dist >= 1e-12)
    amb = (np.abs(values[kept, 0] - values[kept, 1])
           / dist[kept] ** (beta / 2.0))
    sup_amb = float(np.max(amb, initial=0.0))

    # tangential curves: per curve, the start, the control coefficients and
    # 16 sample picks are drawn in this order.  First differences up to
    # exponent one, symmetric second differences beyond (the correct
    # functional on 1 < beta < 2)
    samples = 51                            # points per curve
    start_dz = np.empty((curve_budget, d), dtype=complex)
    coeffs = np.empty((curve_budget, 2, d, 4))
    picks = []
    for cid in range(curve_budget):
        start_dz[cid] = 0.5 * scale * (rng.standard_normal(d)
                                       + 1j * rng.standard_normal(d))
        coeffs[cid] = rng.standard_normal((2, d, 4))
        for _ in range(16):
            if beta <= 1.0:
                i, j = rng.integers(0, samples, size=2)
                if i != j:
                    picks.append((cid, i, j))
            else:
                i = int(rng.integers(1, samples - 1))
                t = int(rng.integers(1, min(i, samples - 1 - i) + 1))
                picks.append((cid, i, t))
    curves = random_admissible_curve(
        model, model.graph_point(zp0 + start_dz, w0.real), coeffs, samples)
    vals = np.asarray(h_fn(curves.samples.reshape(-1, model.n))).reshape(
        curve_budget, samples)
    s = curves.s_values
    cid, i, k = np.array(picks, dtype=int).reshape(-1, 3).T
    if beta <= 1.0:                         # k is the second sample j
        tan = np.abs(vals[cid, i] - vals[cid, k]) / np.abs(s[i] - s[k]) ** beta
    else:                                   # k is the half-width t
        tan = (np.abs(vals[cid, i + k] - 2 * vals[cid, i] + vals[cid, i - k])
               / (s[i + k] - s[i]) ** beta)
    return AnisotropicEstimate(
        ambient=HolderEstimate(quotient_sup=sup_amb, pair_count=pair_budget,
                               samples=list(zip(kept.tolist(), amb.tolist()))),
        tangential=HolderEstimate(quotient_sup=float(np.max(tan, initial=0.0)),
                                  pair_count=len(picks),
                                  samples=list(zip(cid.tolist(),
                                                   tan.tolist()))),
    )


def regularity_gain_report(model: ManifoldModel, f_fn, rf_fn, alpha: float,
                           z, seed: int = 0, curve_budget: int = 24,
                           pair_budget: int = 200) -> str:
    """Comparative (non-probative) table of Holder quotients of an input
    coefficient and the corresponding solution-operator output; ``f_fn``
    and ``rf_fn`` map (K, n) point batches to K values, as in
    :func:`tangential_holder_estimate`."""
    rows = []
    for name, fn, exponent in (("input", f_fn, alpha),
                               ("output", rf_fn, alpha),
                               ("output_gain", rf_fn, min(1.99, alpha + 1.0))):
        est = tangential_holder_estimate(model, fn, exponent, z, seed=seed,
                                         curve_budget=curve_budget,
                                         pair_budget=pair_budget)
        rows.append({
            "field": name,
            "exponent": exponent,
            "ambient_quotient": est.ambient.quotient_sup,
            "tangential_quotient": est.tangential.quotient_sup,
        })
    return canonical_json({"table": rows, "seed": seed,
                           "note": "sampled lower bounds; demonstrative only"})
