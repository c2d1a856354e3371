"""Barrier phase construction and its numerical audits.

The barrier pairs a section P(zeta, z) with the bilinear phase

    Phi(zeta, z) = sum_i P_i (zeta_i - z_i)
                 = sum_k theta_k(zeta) F_k(zeta, z) + correction(theta, z, w),

where theta(zeta) = -rho_vec(zeta)/rho(zeta), F_k pairs the gradient section
with w = zeta - z and the correction is a sum of squared frame pairings.  The
pairing is the plain bilinear sum (no conjugation): it is the only reading
under which the section normalization equals one.

For the quadric models every quantity below is exact:

    rho_k(zeta) = rho_k(z) - 2 Re F_k + levi_k(w)         (no cubic remainder)
    Re Phi      = rho(zeta)/2 + levi_theta(w)/2 + correction(theta(zeta), w)

The second identity carries factors 1/2 on the first two terms; positivity of
the right-hand side is what the lower-bound audit measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import loglog_slope
from .errors import ThetaUndefinedError
from .geometry import CORRECTION_MARGIN, ManifoldModel, correction_frame

THETA_FD_STEP = 1e-5


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------

def gradient_section(model: ManifoldModel, k: int, zeta, z):
    """Section Q_k(zeta, z) = -d rho_k / d zeta (z) - (holomorphic Hessian term).

    The holomorphic (not mixed) Hessian of a graph quadric vanishes
    identically, so the section reduces to the constant gradient term; this is
    asserted here once rather than carried as dead code.
    """
    del zeta  # second-order term is identically zero for quadrics
    return -model.holo_gradient(k, z)


def normal_direction(model: ManifoldModel, zeta):
    """theta(zeta) = -rho_vec / rho; undefined on the manifold itself."""
    vec, norm = model.defining_values(zeta)
    if np.any(norm <= model.tol_on_manifold):
        raise ThetaUndefinedError("normal direction undefined where rho = 0")
    return -vec / norm[..., None]


# ---------------------------------------------------------------------------
# frame handling (theta-dependent correction frame, scaled)
# ---------------------------------------------------------------------------

def scaled_frame_rows(model: ManifoldModel, theta_vec) -> np.ndarray:
    """Correction frame rows multiplied by the positivity margin scale."""
    frame = correction_frame(model, _unit(theta_vec))
    return frame.scale * frame.rows


def _unit(theta_vec):
    v = np.asarray(theta_vec, dtype=float)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# pointwise evaluation
# ---------------------------------------------------------------------------

@dataclass
class BarrierEval:
    """All barrier quantities at one (zeta, z) pair."""

    zeta: np.ndarray
    z: np.ndarray
    theta: np.ndarray
    Q: np.ndarray          # (m, n) gradient sections
    F: np.ndarray          # (m,) bilinear pairings <Q_k, w>
    a: np.ndarray          # (n-q-m, n) scaled frame rows
    A: np.ndarray          # (n-q-m,) frame pairings with w
    script_A: float        # sum |A_j|^2  (real, >= 0)
    P: np.ndarray          # (n,) combined section
    Phi: complex           # bilinear phase


def evaluate_barrier(model: ManifoldModel, zeta, z) -> BarrierEval:
    """Evaluate the barrier at a point pair with rho(zeta) > 0.

    The pointwise reference, written independently of the batched
    :func:`barrier_jets` and :func:`barrier_phase`.
    """
    zeta = np.asarray(zeta, dtype=complex)
    z = np.asarray(z, dtype=complex)
    theta = normal_direction(model, zeta)
    w = zeta - z
    Q = np.stack([gradient_section(model, k, zeta, z) for k in range(model.m)])
    F = Q @ w
    a = scaled_frame_rows(model, theta)
    A = a @ w
    script_A = float(np.sum(np.abs(A) ** 2))
    P = np.einsum("k,ki->i", theta, Q)
    if a.size:
        P = P + np.einsum("ji,j->i", a, A.conj())
    Phi = complex(P @ w)
    return BarrierEval(zeta=zeta, z=z, theta=theta, Q=Q, F=F, a=a, A=A,
                       script_A=script_A, P=P, Phi=Phi)


# ---------------------------------------------------------------------------
# batched evaluation with first jets (quadrature backend)
# ---------------------------------------------------------------------------

@dataclass
class BarrierJetBatch:
    """Barrier section values and Wirtinger jets over a batch of zeta at
    fixed z.  All arrays lead with the batch axis."""

    P: np.ndarray              # (N, n)
    Phi: np.ndarray            # (N,)
    dP_dzbar: np.ndarray       # (N, n, n): [l, i] = d P_i / d zbar_l
    dP_dzetabar: np.ndarray    # (N, n, n)
    dPhi_dzbar: np.ndarray     # (N, n)
    dPhi_dzetabar: np.ndarray  # (N, n)
    # factors of the mixed jet d^2 P / d zetabar d zbar; None on the
    # two-sheet path, where theta is locally constant and the jet vanishes
    dQ_dzbar: np.ndarray = None   # (m, n, n): [k, l, i] = d Q_k,i / d zbar_l
    dtheta: np.ndarray = None     # (N, m, n): d theta_k / d zetabar_j
    rows: np.ndarray = None       # (N, c, n) scaled frame rows
    drows: np.ndarray = None      # (N, m, c, n): d rows / d theta_k

    def dP_mixed(self, V, blk):
        """sum_l V[a, l] d^2 P_i / d zetabar_j d zbar_l over the nodes
        ``blk``, shape (B, a, i, j), or None where it vanishes.

        P is affine in zbar: dP_dzbar[l, i] = sum_k theta_k dQ_k[l, i] -
        sum_c rows_c[i] conj(rows_c[l]) depends on zeta only through theta,
        so the mixed jet is its theta-derivative times d theta / d zetabar,
        from the arrays :func:`barrier_jets` already built.
        """
        if self.dtheta is None:
            return None
        rows, drows = self.rows[blk], self.drows[blk]
        pair = np.einsum("Ncl,al->Nac", rows.conj(), V)
        dpair = np.einsum("Nkcl,al->Nkac", drows.conj(), V)
        d_theta = (np.einsum("al,kli->kai", V, self.dQ_dzbar)[None]
                   - np.einsum("Nkci,Nac->Nkai", drows, pair)
                   - np.einsum("Nci,Nkac->Nkai", rows, dpair))
        return np.einsum("Nkai,Nkj->Naij", d_theta, self.dtheta[blk])


def _batched_scaled_rows(model: ManifoldModel, thetas) -> np.ndarray:
    """Scaled frame rows for a batch of unit directions, shape (N, c, n).

    Batched eigendecomposition with deterministic per-column phase fixing;
    matches :func:`scaled_frame_rows` pointwise away from eigenvalue
    crossings.
    """
    thetas = np.asarray(thetas, dtype=float)
    thetas = thetas / np.linalg.norm(thetas, axis=1, keepdims=True)
    N = thetas.shape[0]
    d = model.tangential_dim
    count = model.n - model.q - model.m
    H = np.stack(model.hermitian)                     # (m, d, d)
    mats = -np.tensordot(thetas, H, axes=(1, 0))      # (N, d, d)
    evals, evecs = np.linalg.eigh(mats)
    kept = evecs[:, :, :count].copy()                 # (N, d, count)
    idx = np.argmax(np.abs(kept), axis=1)             # (N, count)
    piv = np.take_along_axis(kept, idx[:, None, :], axis=1)[:, 0, :]
    phases = np.where(np.abs(piv) > 0, piv.conj() / np.abs(piv), 1.0)
    kept *= phases[:, None, :]
    rows = np.zeros((N, count, model.n), dtype=complex)
    rows[:, :, :d] = np.swapaxes(kept.conj(), 1, 2)
    scale = np.sqrt(CORRECTION_MARGIN
                    * np.maximum(1.0, -evals[:, 0]))
    return rows * scale[:, None, None]


def _frames_for_thetas(model: ManifoldModel, thetas, with_derivative=True):
    """Scaled frame rows per batch element, plus theta-derivatives.

    m = 1 fast path: only two distinct directions occur and the derivative
    vanishes.  Otherwise batched eigendecompositions, with derivatives by
    central differences along the ambient direction coordinates.
    """
    N = thetas.shape[0]
    count = model.n - model.q - model.m
    rows = np.empty((N, count, model.n), dtype=complex)
    drows = np.zeros((N, model.m, count, model.n), dtype=complex)
    if model.m == 1:
        plus = scaled_frame_rows(model, np.array([1.0]))
        minus = scaled_frame_rows(model, np.array([-1.0]))
        sel = thetas[:, 0] > 0
        rows[sel] = plus
        rows[~sel] = minus
        return rows, drows
    rows = _batched_scaled_rows(model, thetas)
    if with_derivative:
        for k in range(model.m):
            hi = thetas.copy(); hi[:, k] += THETA_FD_STEP
            lo = thetas.copy(); lo[:, k] -= THETA_FD_STEP
            drows[:, k] = (_batched_scaled_rows(model, hi)
                           - _batched_scaled_rows(model, lo)) \
                / (2.0 * THETA_FD_STEP)
    return rows, drows


def _barrier_jets_two_sheet(model: ManifoldModel, zetas, z) -> "BarrierJetBatch":
    """Codimension-one fast path: the direction field is locally constant,
    so the frame, the P-jets and the Phi-jet matrices take one value per
    sheet and only the pairings vary along the batch."""
    zetas = np.asarray(zetas, dtype=complex)
    z = np.asarray(z, dtype=complex)
    n, d = model.n, model.tangential_dim
    w = zetas - z[None, :]
    vec, norm = model.defining_values(zetas)
    if np.any(norm <= model.tol_on_manifold):
        raise ThetaUndefinedError("batch contains points on the manifold")
    plus = vec[:, 0] < 0          # theta = -rho/|rho|
    Q0 = gradient_section(model, 0, None, z)
    dQ = np.zeros((n, n), dtype=complex)
    dQ[:d, :d] = model.hermitian[0]

    P = np.empty((zetas.shape[0], n), dtype=complex)
    dP_dzbar = np.empty((zetas.shape[0], n, n), dtype=complex)
    dP_dzetabar = np.empty_like(dP_dzbar)
    for sheet, mask in ((1.0, plus), (-1.0, ~plus)):
        if not np.any(mask):
            continue
        rows = scaled_frame_rows(model, np.array([sheet]))
        A = w[mask] @ rows.T                          # (Nm, c)
        P[mask] = sheet * Q0[None, :] + A.conj() @ rows
        gram = rows.conj().T @ rows   # [l, i] = sum_j conj(rows[j,l]) rows[j,i]
        dP_dzbar[mask] = (sheet * dQ - gram)[None, :, :]
        dP_dzetabar[mask] = gram[None, :, :]
    dPhi_dzbar = np.einsum("Nli,Ni->Nl", dP_dzbar, w)
    dPhi_dzetabar = np.einsum("Nli,Ni->Nl", dP_dzetabar, w)
    Phi = np.einsum("Ni,Ni->N", P, w)
    return BarrierJetBatch(P=P, Phi=Phi, dP_dzbar=dP_dzbar,
                           dP_dzetabar=dP_dzetabar, dPhi_dzbar=dPhi_dzbar,
                           dPhi_dzetabar=dPhi_dzetabar)


def barrier_jets(model: ManifoldModel, zetas, z) -> BarrierJetBatch:
    """Analytic first jets of (P, Phi) over a zeta batch at fixed z."""
    if model.m == 1:
        return _barrier_jets_two_sheet(model, zetas, z)
    zetas = np.asarray(zetas, dtype=complex)
    z = np.asarray(z, dtype=complex)
    n, m, d = model.n, model.m, model.tangential_dim
    w = zetas - z[None, :]

    vec, norm = model.defining_values(zetas)
    if np.any(norm <= model.tol_on_manifold):
        raise ThetaUndefinedError("batch contains points on the manifold")
    thetas = -vec / norm[:, None]
    grads = model.holo_gradients(zetas)      # (N, m, n)
    dbar = grads.conj()
    drho = np.einsum("Ns,Nsl->Nl", vec, dbar) / norm[:, None]
    dtheta = (-dbar / norm[:, None, None]
              + np.einsum("Nk,Nl->Nkl", vec, drho) / (norm ** 2)[:, None, None])

    # gradient sections at z (constant over the batch)
    Q = np.stack([gradient_section(model, k, None, z) for k in range(m)])  # (m, n)
    # d Q_k,i / d zbar_l = H_k[l, i] on the z'-block
    dQ_dzbar = np.zeros((m, n, n), dtype=complex)
    for k in range(m):
        dQ_dzbar[k, :d, :d] = model.hermitian[k]

    rows, drows = _frames_for_thetas(model, thetas)   # (N,c,n), (N,m,c,n)
    A = np.einsum("Nci,Ni->Nc", rows, w)

    P = np.einsum("Nk,ki->Ni", thetas, Q) \
        + np.einsum("Nci,Nc->Ni", rows, A.conj())

    # --- zbar jets (frame rows are z-independent; conj(A) is zbar-linear)
    dconjA_dzbar = -rows.conj()                       # (N, c, l): d Abar_c / d zbar_l
    dP_dzbar = np.einsum("Nk,kli->Nli", thetas, dQ_dzbar) \
        + np.einsum("Nci,Ncl->Nli", rows, dconjA_dzbar)
    dPhi_dzbar = np.einsum("Nli,Ni->Nl", dP_dzbar, w)

    # --- zetabar jets
    # d conj(A_c)/d zetabar_l = conj(rows[c, l]) + sum_i wbar_i conj(d rows / d zeta_l)
    # with d rows/d zeta_l = sum_k (d rows/d theta_k) d theta_k / d zeta_l and
    # conj(d theta/d zeta_l) = d theta/d zetabar_l for the real direction field.
    mu_tau = rows.conj()                              # (N, c, l)
    dconj_rows = np.einsum("Nkci,Nkl->Ncil", drows.conj(), dtheta)
    mu_nu = np.einsum("Ni,Ncil->Ncl", w.conj(), dconj_rows)
    drows_dzetabar = np.einsum("Nkci,Nkl->Ncil", drows, dtheta)
    frame_var = np.einsum("Ncil,Nc->Nli", drows_dzetabar, A.conj())
    dP_dzetabar = np.einsum("Nkl,ki->Nli", dtheta, Q) + frame_var \
        + np.einsum("Nci,Ncl->Nli", rows, mu_tau + mu_nu)
    dPhi_dzetabar = np.einsum("Nli,Ni->Nl", dP_dzetabar, w)

    Phi = np.einsum("Ni,Ni->N", P, w)
    return BarrierJetBatch(P=P, Phi=Phi, dP_dzbar=dP_dzbar,
                           dP_dzetabar=dP_dzetabar, dPhi_dzbar=dPhi_dzbar,
                           dPhi_dzetabar=dPhi_dzetabar, dQ_dzbar=dQ_dzbar,
                           dtheta=dtheta, rows=rows, drows=drows)


def barrier_phase(model: ManifoldModel, zetas, z,
                  include_correction: bool = True) -> np.ndarray:
    """Phase values theta . F + sum |A|^2 over a zeta batch at fixed z.

    ``include_correction=False`` drops the quadratic correction
    (negative-control mode).  Raises :class:`ThetaUndefinedError` on the
    manifold, as :func:`barrier_jets` does.
    """
    zetas = np.asarray(zetas, dtype=complex)
    z = np.asarray(z, dtype=complex)
    w = zetas - z[None, :]
    thetas = normal_direction(model, zetas)
    Q = np.stack([gradient_section(model, k, None, z) for k in range(model.m)])
    F = np.einsum("ki,Ni->Nk", Q, w)
    phi = np.einsum("Nk,Nk->N", thetas, F)
    if include_correction:
        rows, _ = _frames_for_thetas(model, thetas, with_derivative=False)
        A = np.einsum("Nci,Ni->Nc", rows, w)
        phi = phi + np.sum(np.abs(A) ** 2, axis=1)
    return phi


# ---------------------------------------------------------------------------
# correction d-bar split
# ---------------------------------------------------------------------------

@dataclass
class MuDecomposition:
    """Split of d-bar_zeta of the conjugate frame pairings.

    mu_tau[j, l]: the frozen-frame part conj(a_jl).
    mu_nu[j, l]:  the frame-variation part sum_i wbar_i d conj(a_ji)/d zetabar_l.
    """

    mu_tau: np.ndarray
    mu_nu: np.ndarray


def split_correction_dbar(model: ManifoldModel, zeta, z,
                          step: float = None,
                          frozen_theta=None) -> MuDecomposition:
    """Decompose d-bar_zeta conj(A_j) into frame and variation parts.

    The variation part differentiates the frame through theta(zeta) by
    central Wirtinger differences of the composite map.
    """
    if step is None:
        step = THETA_FD_STEP * model.radius
    zeta = np.asarray(zeta, dtype=complex)
    z = np.asarray(z, dtype=complex)
    w = zeta - z
    theta = (np.asarray(frozen_theta, float) if frozen_theta is not None
             else normal_direction(model, zeta))
    rows = scaled_frame_rows(model, theta)
    mu_tau = rows.conj()
    count = rows.shape[0]
    mu_nu = np.zeros((count, model.n), dtype=complex)
    if frozen_theta is None and model.m > 1:
        for l in range(model.n):
            shifts = []
            for dz in (step, -step, 1j * step, -1j * step):
                pt = zeta.copy()
                pt[l] += dz
                shifts.append(scaled_frame_rows(
                    model, normal_direction(model, pt)).conj())
            fx = (shifts[0] - shifts[1]) / (2 * step)
            fy = (shifts[2] - shifts[3]) / (2 * step)
            dconj_dzetabar = 0.5 * (fx + 1j * fy)
            mu_nu[:, l] = dconj_dzetabar @ w.conj()
    return MuDecomposition(mu_tau=mu_tau, mu_nu=mu_nu)


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------

def _sample_pairs(model: ManifoldModel, z, count, scale, rng):
    """Sample (zeta, z) with zeta off the manifold near z: tangential
    parameter displacement up to ``scale`` and rho level in
    [0.25, 1] * 0.25 * scale^2 (quadratic terms comparable to the level)."""
    d = model.tangential_dim
    zp0, w0 = model.split(np.asarray(z, dtype=complex))
    dz = rng.standard_normal((count, d)) + 1j * rng.standard_normal((count, d))
    dz *= scale * rng.uniform(0.1, 1.0, size=(count, 1)) \
        / np.linalg.norm(dz, axis=1, keepdims=True)
    du = scale * rng.uniform(-1.0, 1.0, size=(count, model.m))
    sigma = rng.standard_normal((count, model.m))
    sigma /= np.linalg.norm(sigma, axis=1, keepdims=True)
    level = 0.25 * scale ** 2 * rng.uniform(0.25, 1.0, size=(count, 1))
    zetas = model.graph_point(zp0[None, :] + dz,
                              w0.real[None, :] + du,
                              level * sigma)
    return zetas


@dataclass
class BarrierBoundReport:
    c_hat: float               # min Re Phi / (rho + |w|^2)
    c_hat_abs: float           # min |Phi| / (rho + |w|^2)
    passed: bool
    argmin_zeta: np.ndarray
    argmin_z: np.ndarray
    sample_count: int
    scale: float
    seed: int
    quotients: np.ndarray

    def to_json_dict(self, model_hash=""):
        return {
            "model_hash": model_hash,
            "c_hat": float(self.c_hat),
            "c_hat_abs": float(self.c_hat_abs),
            "passed": self.passed,
            "argmin_zeta": [[float(v.real), float(v.imag)] for v in self.argmin_zeta],
            "argmin_z": [[float(v.real), float(v.imag)] for v in self.argmin_z],
            "sample_count": self.sample_count,
            "scale": float(self.scale),
            "seed": self.seed,
        }


def audit_barrier_bound(model: ManifoldModel, z, sample_count=10000,
                        neighborhood_scale=0.1, seed=0,
                        include_correction=True) -> BarrierBoundReport:
    """Minimum quotient audit of the lower bound |Phi| >= C (rho + |w|^2).

    Reports the real-part quotient (sign-sensitive, the pass criterion and
    the negative-control detector) alongside the modulus quotient (the
    uniform bound the estimates rest on).
    """
    rng = np.random.default_rng(seed)
    z = np.asarray(z, dtype=complex)
    zetas = _sample_pairs(model, z, sample_count, neighborhood_scale, rng)
    w = zetas - z[None, :]
    _, rho = model.defining_values(zetas)
    denom = rho + np.sum(np.abs(w) ** 2, axis=1)
    phi = barrier_phase(model, zetas, z, include_correction)
    quot_re = phi.real / denom
    quot_abs = np.abs(phi) / denom
    i = int(np.argmin(quot_re))
    return BarrierBoundReport(
        c_hat=float(quot_re[i]),
        c_hat_abs=float(np.min(quot_abs)),
        passed=bool(quot_re[i] > 0),
        argmin_zeta=zetas[i],
        argmin_z=z,
        sample_count=sample_count,
        scale=neighborhood_scale,
        seed=seed,
        quotients=quot_re,
    )


@dataclass
class ExpansionReport:
    slope: float
    exact: bool
    remainders: np.ndarray
    scales: np.ndarray


def audit_barrier_expansion(model: ManifoldModel, z, direction,
                            scales) -> ExpansionReport:
    """Order audit of Re Phi against its frozen-direction expansion.

    remainder(s) = Re Phi(z + s v, z)
                   - [rho(zeta)/2 + levi_ref(s v)/2 + correction_ref(s v)]

    with the reference direction taken from the leading rho-profile of the
    path.  Exact zero (reported as ``exact``) occurs whenever theta does not
    vary along the path; otherwise the remainder carries only
    direction-variation terms and its log-log slope is cubic.
    """
    z = np.asarray(z, dtype=complex)
    v = np.asarray(direction, dtype=complex)
    scales = np.asarray(scales, dtype=float)
    # leading rho profile: rho_k(z + s v) = s * lin_k + O(s^2)
    grads = model.holo_gradients(z)
    lin = 2.0 * np.einsum("ki,i->k", grads, v).real
    if np.linalg.norm(lin) < 1e-14:
        # quadratic-profile path: take the exact rho vector at the smallest scale
        lin, _ = model.defining_values(z + scales.min() * v)
    theta_ref = -lin / np.linalg.norm(lin)
    rows_ref = scaled_frame_rows(model, theta_ref)
    form = model.levi_form_full(theta_ref)

    rem = np.empty(scales.size)
    phimag = np.empty(scales.size)
    for idx, s in enumerate(scales):
        zeta = z + s * v
        ev = evaluate_barrier(model, zeta, z)
        w = zeta - z
        _, rho = model.defining_values(zeta)
        levi = float(np.einsum("i,ij,j->", w.conj(), form, w).real)
        corr = float(np.sum(np.abs(rows_ref @ w) ** 2))
        rem[idx] = ev.Phi.real - (0.5 * float(rho) + 0.5 * levi + corr)
        phimag[idx] = abs(ev.Phi)
    exact = bool(np.all(np.abs(rem) <= 1e-12 * np.maximum(phimag, 1e-30)))
    slope = 0.0 if exact else loglog_slope(scales, rem)
    return ExpansionReport(slope=slope, exact=exact, remainders=rem,
                           scales=scales)
