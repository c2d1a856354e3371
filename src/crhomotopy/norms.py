"""Anisotropic function-space machinery: frame flows, complex-tangential
curves and projections, and sampling estimators of the anisotropic Holder
norms (ambient exponent counts half against tangential exponent).

All estimators are lower bounds: the definitional suprema run over
uncountable families of curves and fields, sampled here over seeded finite
families.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import canonical_json
from .errors import ChartExitError, FlowInversionError
from .geometry import ManifoldModel, holomorphic_tangent_rows


# ---------------------------------------------------------------------------
# frame fields and flows
# ---------------------------------------------------------------------------

def frame_velocity(model: ManifoldModel, z, controls):
    """Velocity of the control combination at z.

    controls = (x, y, u, v): defining-coordinate directions (x), transverse
    tangent directions (y), and the real/rotated complex-tangent frame (u, v).
    Returned as a complex n-vector (the real velocity in complex notation).
    """
    x, y, u, v = controls
    z = np.asarray(z, dtype=complex)
    d, m = model.tangential_dim, model.m
    vel = np.zeros(model.n, dtype=complex)
    vel[d:] += 1j * np.asarray(x, dtype=float)   # moves each rho_k
    vel[d:] += np.asarray(y, dtype=float)        # transverse tangent (Re w)
    rows = holomorphic_tangent_rows(model, z)
    cuv = np.asarray(u, dtype=float) + 1j * np.asarray(v, dtype=float)
    vel += cuv @ rows
    return vel


def _rk4_step(velocity, point, s, h):
    """One classical 4th-order step of point' = velocity(point, s)."""
    k1 = velocity(point, s)
    k2 = velocity(point + 0.5 * h * k1, s + 0.5 * h)
    k3 = velocity(point + 0.5 * h * k2, s + 0.5 * h)
    k4 = velocity(point + h * k3, s + h)
    return point + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def flow_from(model: ManifoldModel, z, controls, time: float = 1.0,
              steps: int = 64, return_path: bool = False):
    """Integrate the frame flow with a fixed-step classical 4th-order method.

    Zero controls return the start point; halving the step should contract
    the endpoint error by ~16 (tested).
    """
    z = np.asarray(z, dtype=complex)
    h = time / steps
    path = [z.copy()]
    point = z.copy()
    for _ in range(steps):
        point = _rk4_step(lambda p, s: frame_velocity(model, p, controls),
                          point, 0.0, h)
        if np.max(np.abs(point)) > 4.0 * model.radius:
            raise ChartExitError("flow left the coordinate chart")
        if return_path:
            path.append(point.copy())
    if return_path:
        return point, np.array(path)
    return point


def invert_flow(model: ManifoldModel, z, target, tol: float = 1e-9,
                max_iter: int = 40):
    """Controls c with flow endpoint(z, c) = target, by damped Newton with
    finite-difference Jacobian in the 2n real control coordinates."""
    z = np.asarray(z, dtype=complex)
    target = np.asarray(target, dtype=complex)
    d, m = model.tangential_dim, model.m

    def pack(vec):
        x = vec[:m]
        y = vec[m:2 * m]
        u = vec[2 * m:2 * m + d]
        v = vec[2 * m + d:]
        return x, y, u, v

    def residual(vec):
        end = flow_from(model, z, pack(vec), steps=32)
        diff = end - target
        return np.concatenate([diff.real, diff.imag])

    size = 2 * m + 2 * d
    vec = np.zeros(size)
    # linear warm start: tangential difference and transverse offsets
    zp_t, w_t = model.split(target)
    zp_0, w_0 = model.split(z)
    vec[2 * m:2 * m + d] = (zp_t - zp_0).real
    vec[2 * m + d:] = (zp_t - zp_0).imag
    vec[m:2 * m] = (w_t - w_0).real
    for it in range(max_iter):
        res = residual(vec)
        if np.linalg.norm(res) < tol:
            return pack(vec)
        jac = np.empty((res.size, size))
        h = 1e-6
        for j in range(size):
            probe = vec.copy()
            probe[j] += h
            jac[:, j] = (residual(probe) - res) / h
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise FlowInversionError(f"singular flow Jacobian: {exc}") from exc
        lam = 1.0
        base = np.linalg.norm(res)
        while lam > 1e-4:
            if np.linalg.norm(residual(vec + lam * step)) < base:
                break
            lam *= 0.5
        vec = vec + lam * step
    raise FlowInversionError(
        f"no convergence after {max_iter} iterations "
        f"(residual {np.linalg.norm(residual(vec)):.2e})")


@dataclass
class TangentProjection:
    point: np.ndarray          # projected point on the complex-tangent slice
    curve: np.ndarray          # sampled curve from the base point
    controls: tuple


def complex_tangent_projection(model: ManifoldModel, z, zeta,
                               samples: int = 51) -> TangentProjection:
    """Project through the flow chart onto the complex-tangent slice.

    Inverts the flow at zeta, keeps only the complex-tangential controls,
    and re-flows; the returned curve is the partial flow from z to the
    projected point.
    """
    x, y, u, v = invert_flow(model, z, zeta)
    controls = (np.zeros_like(x), np.zeros_like(y), u, v)
    end, path = flow_from(model, z, controls, steps=max(64, samples),
                          return_path=True)
    take = np.linspace(0, path.shape[0] - 1, samples).astype(int)
    pts = path[take]
    vels = np.array([frame_velocity(model, p, controls) for p in pts])
    curve = TangentCurve(samples=pts,
                         s_values=np.linspace(0.0, 1.0, samples),
                         velocity_samples=vels)
    return TangentProjection(point=end, curve=curve, controls=controls)


# ---------------------------------------------------------------------------
# admissible curves
# ---------------------------------------------------------------------------

@dataclass
class TangentCurve:
    samples: np.ndarray               # (k, n) points on the manifold
    s_values: np.ndarray
    velocity_samples: np.ndarray = None   # analytic velocities if available

    def velocity(self):
        if self.velocity_samples is not None:
            return self.velocity_samples
        ds = self.s_values[1] - self.s_values[0]
        return np.gradient(self.samples, ds, axis=0)

    def acceleration(self):
        ds = self.s_values[1] - self.s_values[0]
        return np.gradient(self.velocity(), ds, axis=0)


def curve_audit(model: ManifoldModel, curve: TangentCurve, slack=0.05):
    """Velocity/acceleration bounds and complex-tangency of a sampled curve.

    Acceleration is measured on the interior samples (one-sided boundary
    differences overshoot); tangency uses the analytic velocities when the
    curve carries them, sampled ones otherwise (with a correspondingly
    looser defect scale).
    """
    vel = curve.velocity()
    acc = curve.acceleration()[2:-2]
    vmax = float(np.max(np.linalg.norm(vel, axis=1)))
    amax = float(np.max(np.linalg.norm(acc, axis=1))) if acc.size else 0.0
    grads = np.stack([model.holo_gradients(p) for p in curve.samples])
    pairing = 2.0 * np.einsum("ski,si->sk", grads, vel).real
    normal_defect = float(np.max(np.abs(pairing)))
    trans = np.einsum("ski,si->sk", grads, vel).imag
    trans_defect = float(np.max(np.abs(trans)))
    defect_tol = 1e-8 if curve.velocity_samples is not None else 1e-2
    return {
        "velocity_max": vmax,
        "acceleration_max": amax,
        "normal_defect": normal_defect,
        "complex_tangency_defect": trans_defect,
        "passes": bool(vmax <= 1 + slack and amax <= 1 + slack
                       and normal_defect < defect_tol),
    }


def integrate_controls(model: ManifoldModel, z, controls_at,
                       samples: int = 51) -> TangentCurve:
    """Integrate an s-dependent control path with the 4th-order stepper.

    Returns the sampled curve carrying analytic velocities.
    """
    pts = [np.asarray(z, dtype=complex)]
    s_vals = np.linspace(0.0, 1.0, samples)
    h = s_vals[1] - s_vals[0]
    point = pts[0]
    for s in s_vals[:-1]:
        point = _rk4_step(lambda p, s_local: frame_velocity(
            model, p, controls_at(s_local)), point, s, h)
        pts.append(point.copy())
    pts = np.array(pts)
    vels = np.array([frame_velocity(model, p, controls_at(s))
                     for p, s in zip(pts, s_vals)])
    return TangentCurve(samples=pts, s_values=s_vals, velocity_samples=vels)


def random_admissible_curve(model: ManifoldModel, z, rng,
                            samples: int = 51, margin: float = 0.9):
    """Polynomial controls of degree <= 3 in the complex-tangent frame,
    rescaled to meet the unit velocity/acceleration bounds with margin."""
    d = model.tangential_dim
    coeffs = rng.standard_normal((2, d, 4))

    def controls_at(s):
        powers = np.array([1.0, s, s * s, s ** 3])
        u = coeffs[0] @ powers
        v = coeffs[1] @ powers
        return (np.zeros(model.m), np.zeros(model.m), u, v)

    for _ in range(8):
        curve = integrate_controls(model, z, controls_at, samples)
        audit = curve_audit(model, curve)
        worst = max(audit["velocity_max"],
                    np.sqrt(max(audit["acceleration_max"], 1e-12)))
        if audit["velocity_max"] <= margin and audit["acceleration_max"] <= margin:
            return curve
        coeffs *= margin / max(worst, 1e-9)
    return curve


# ---------------------------------------------------------------------------
# Holder estimators
# ---------------------------------------------------------------------------

@dataclass
class HolderEstimate:
    exponent: float
    quotient_sup: float
    pair_count: int
    regime: str
    samples: list = None  # optional (id, quotient) rows for CSV export


@dataclass
class AnisotropicEstimate:
    ambient: HolderEstimate
    tangential: HolderEstimate

    @property
    def total(self):
        return self.ambient.quotient_sup + self.tangential.quotient_sup


def tangential_holder_estimate(model: ManifoldModel, h_fn, beta: float,
                               z, curve_budget: int = 24,
                               pair_budget: int = 200, seed: int = 0,
                               scale: float = 0.2,
                               collect: bool = False) -> AnisotropicEstimate:
    """Sampled lower bound of the anisotropic Holder norm near z.

    Ambient part: quotients |h(a) - h(b)| / |a - b|^(beta/2) over random
    manifold point pairs.  Tangential part: quotients along admissible
    complex-tangential curves at exponent beta.  ``collect`` keeps the
    individual quotients for CSV export.
    """
    if not 0 < beta < 2:
        raise ValueError("exponent must lie in (0, 2)")
    rng = np.random.default_rng(seed)
    d, m = model.tangential_dim, model.m
    zp0, w0 = model.split(np.asarray(z, dtype=complex))

    # ambient pairs
    pairs = []
    for _ in range(pair_budget):
        dz = scale * (rng.standard_normal((2, d)) + 1j * rng.standard_normal((2, d)))
        du = scale * rng.standard_normal((2, m))
        a = model.graph_point(zp0 + dz[0], w0.real + du[0])
        b = model.graph_point(zp0 + dz[1], w0.real + du[1])
        pairs.append((a, b))
    sup_amb = 0.0
    amb_rows = [] if collect else None
    for pid, (a, b) in enumerate(pairs):
        dist = np.linalg.norm(a - b)
        if dist < 1e-12:
            continue
        quot = abs(h_fn(a) - h_fn(b)) / dist ** (beta / 2.0)
        if collect:
            amb_rows.append((pid, float(quot)))
        sup_amb = max(sup_amb, quot)

    # tangential curves: first differences up to exponent one, symmetric
    # second differences beyond (the correct functional on 1 < beta < 2)
    sup_tan = 0.0
    count = 0
    tan_rows = [] if collect else None
    for cid in range(curve_budget):
        start_dz = 0.5 * scale * (rng.standard_normal(d) + 1j * rng.standard_normal(d))
        start = model.graph_point(zp0 + start_dz, w0.real)
        curve = random_admissible_curve(model, start, rng)
        vals = np.array([h_fn(p) for p in curve.samples])
        s = curve.s_values
        for _ in range(16):
            if beta <= 1.0:
                i, j = rng.integers(0, s.size, size=2)
                if i == j:
                    continue
                quot = abs(vals[i] - vals[j]) / abs(s[i] - s[j]) ** beta
            else:
                i = int(rng.integers(1, s.size - 1))
                t = int(rng.integers(1, min(i, s.size - 1 - i) + 1))
                gap = s[i + t] - s[i]
                quot = abs(vals[i + t] - 2 * vals[i] + vals[i - t]) \
                    / gap ** beta
            count += 1
            if collect:
                tan_rows.append((cid, float(quot)))
            sup_tan = max(sup_tan, float(quot))
    return AnisotropicEstimate(
        ambient=HolderEstimate(exponent=beta / 2.0, quotient_sup=float(sup_amb),
                               pair_count=pair_budget, regime="ambient",
                               samples=amb_rows),
        tangential=HolderEstimate(exponent=beta, quotient_sup=float(sup_tan),
                                  pair_count=count, regime="tangential",
                                  samples=tan_rows),
    )


def regularity_gain_report(model: ManifoldModel, f_fn, rf_fn, alpha: float,
                           z, seed: int = 0, curve_budget: int = 24,
                           pair_budget: int = 200) -> str:
    """Comparative (non-probative) table of Holder quotients of an input
    coefficient and the corresponding solution-operator output."""
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
