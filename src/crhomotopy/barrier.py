"""Barrier phase construction and its numerical audits.

The barrier pairs a section P(zeta, z) with the bilinear phase

    Phi(zeta, z) = sum_i P_i (zeta_i - z_i)
                 = sum_k theta_k(zeta) F_k(zeta, z) + correction(theta, z, w),

where theta(zeta) = -rho_vec(zeta)/rho(zeta) (-sigma on a level-set node, see
:mod:`crhomotopy.quadrature`), F_k pairs the gradient section with
w = zeta - z and the correction is a sum of squared frame pairings.  The
pairing is the plain bilinear sum (no conjugation): it is the only reading
under which the section normalization equals one.  The batched paths see the
frame only through G(theta) = s^2 Pi, the scaled spectral projector onto the
covered eigendirections, and its analytic theta-derivative dG, taken from the
eigen-equation so that it costs one product H_k V beyond the eigh: no
eigenvector phase is fixed and no finite difference is left in the jets.
Real Levi matrices run in real arithmetic (``ManifoldModel.hermitian_stack``).

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
from .errors import FrameGapError, ThetaUndefinedError
from .geometry import CORRECTION_MARGIN, FRAME_GAP_WARN, ManifoldModel


# ---------------------------------------------------------------------------
# batched evaluation with first jets (quadrature backend)
# ---------------------------------------------------------------------------

@dataclass
class BarrierJetBatch:
    """Barrier section values and Wirtinger jets over a batch of zeta at
    fixed z.  All arrays but the constant H lead with the batch axis; the
    mixed jet is never formed, only its pullback :meth:`dP_mixed` from H, dG
    and dtheta."""

    P: np.ndarray              # (N, n)
    Phi: np.ndarray            # (N,)
    dP_dzbar: np.ndarray       # (N, n, n): [l, i] = d P_i / d zbar_l
    dP_dzetabar: np.ndarray    # (N, n, n)
    dPhi_dzbar: np.ndarray     # (N, n); it and dP_dzbar None without z-jets
    dPhi_dzetabar: np.ndarray  # (N, n)
    # factors of the mixed jet d^2 P / d zetabar d zbar; None for m = 1,
    # where theta is constant on each sheet and the jet vanishes
    H: np.ndarray = None       # (m, d, d): the Levi matrices H_k
    dG: np.ndarray = None      # (N, m, d, d): d G / d theta_k
    dtheta: np.ndarray = None  # (N, m, n): d theta_k / d zetabar_j

    def dP_mixed(self, A):
        """Pullback of the mixed jet through the adjoint A (N, n, n) on the
        z'-block: the vector over l < d of the sum over the batch and (i, j)
        of A[:, i, j] d^2 P_i / d zetabar_j d zbar_l, shape (d,); for m >= 2
        only.  The entries l >= d are zero, as dP/dzbar_l is for l >= d.

        dP_dzbar = theta . H - G on the z'-block depends on zeta only through
        theta, so the mixed jet is (H_k - dG_k) dtheta_k^T on the z'-rows
        and zero on the rows i >= d.  Its pullback is sum_k (H_k - dG_k)
        . (A dtheta_k^T) on the z'-rows, the node sum taken first.
        """
        d = self.H.shape[1]
        Y = A[:, :d] @ np.swapaxes(self.dtheta, 1, 2)             # (N, d, m)
        return np.einsum("kli,ik->l", self.H, Y.sum(axis=0)) \
            - np.einsum("Nkli,Nik->l", self.dG, Y)


def _distinct_rows(a):
    """The distinct rows of a 2-D array and the index of each row among
    them: one lexicographic sort, a few times cheaper than ``np.unique``
    with ``axis=0``."""
    order = np.lexsort(a.T[::-1])
    ranked = a[order]
    new = np.ones(len(a), dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=new[1:])
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ranked[new], inverse


def _frames_for_thetas(model: ManifoldModel, thetas, with_derivative=True):
    """G = s^2 Pi on the z'-block, (N, d, d), and dG / d theta along the
    unit sphere, (N, m, d, d), or None without ``with_derivative``; one G per
    distinct row of thetas, indexed back to the rows.  A level-set node has
    theta = -sigma, so a chunk needs one frame per direction of its point
    set (two sheets for m = 1).

    From one batched eigh of the Levi pencil M = -theta . H
    (:meth:`ManifoldModel.levi_pencil`) with A_k = -(H_k + theta_k M),
    dPi_k = sum_{i kept, j dropped} (v_i v_i^H A_k v_j v_j^H + h.c.) /
    (lambda_i - lambda_j) (Kato, Perturbation Theory for Linear Operators,
    II sec. 2) and ds^2_k = -CORRECTION_MARGIN v_min^H A_k v_min.  By M v =
    lambda v both pairings need only H_k V: v_i^H A_k v_j = -v_i^H H_k v_j
    (i != j) and v_min^H A_k v_min = -v_min^H H_k v_min - theta_k lambda_min.
    Real Levi matrices keep the eigh, G and dG real.  Raises
    :class:`FrameGapError` where a kept/dropped gap is below FRAME_GAP_WARN.
    """
    thetas, inverse = _distinct_rows(np.asarray(thetas, dtype=float))
    thetas = thetas / np.linalg.norm(thetas, axis=1, keepdims=True)
    count = model.n - model.q - model.m
    H = model.hermitian_stack                             # (m, d, d)
    lam, vec = np.linalg.eigh(model.levi_pencil(thetas))
    kept, dropped = vec[:, :, :count], vec[:, :, count:]
    scale2 = CORRECTION_MARGIN * np.maximum(1.0, -lam[:, 0])
    G = kept @ np.swapaxes(kept.conj(), 1, 2)             # Pi
    if not with_derivative:
        G *= scale2[:, None, None]
        return G[inverse], None
    gap = lam[:, :count, None] - lam[:, None, count:]      # (N, c, d - c) < 0
    if np.any(gap > -FRAME_GAP_WARN):
        raise FrameGapError(f"frame gap {-gap.max():.1e} below FRAME_GAP_WARN")
    HV = np.tensordot(H, vec, axes=(2, 1)).transpose(2, 0, 1, 3)  # H_k V
    # kept^H A_k dropped / gap = -kept^H H_k dropped / gap, (N, m, c, d - c)
    B = (np.swapaxes(kept.conj(), 1, 2)[:, None] @ HV[..., count:]) \
        / -gap[:, None]
    half = kept[:, None] @ B @ np.swapaxes(dropped.conj(), 1, 2)[:, None]
    dlam = -np.einsum("Ni,Nki->Nk", vec[:, :, 0].conj(), HV[..., 0]).real \
        - thetas * lam[:, :1]
    # at the kink lambda_min = -1 the flat side (ds^2 = 0) is taken
    ds2 = np.where(lam[:, :1] < -1.0, -CORRECTION_MARGIN * dlam, 0.0)
    dG = scale2[:, None, None, None] * (half + np.swapaxes(half.conj(), 2, 3)) \
        + ds2[:, :, None, None] * G[:, None]
    G *= scale2[:, None, None]
    return G[inverse], dG[inverse]


def _batch_directions(model: ManifoldModel, zetas, thetas):
    """(theta, rho) over a zeta batch: the given directions, or -rho_vec /
    rho.  Raises :class:`ThetaUndefinedError` on the manifold either way."""
    vec, norm = model.defining_values(zetas)
    if np.any(norm <= model.tol_on_manifold):
        raise ThetaUndefinedError("batch contains points on the manifold")
    if thetas is None:
        thetas = -vec / norm[:, None]
    return thetas, norm


def barrier_jets(model: ManifoldModel, zetas, z, with_zbar=True,
                 thetas=None) -> BarrierJetBatch:
    """Analytic first jets of (P, Phi) over a zeta batch at fixed z: with
    w = zeta - z, G and dG of :func:`_frames_for_thetas` and dQ_k = H_k,

        P_i = theta . Q_i + sum_l G[l, i] conj(w_l),  dP/dzbar = theta . dQ - G,
        dP/dzetabar = G + sum_k dtheta_k (x) (Q_k + conj(w) . dG_k),

    where the dtheta terms are formed only when theta varies (m >= 2), and
    the z-jets dP/dzbar and dPhi/dzbar only ``with_zbar`` (else None).
    ``thetas`` passes theta(zeta) in, -sigma on a level-set node, so that
    nodes sharing a direction share its frame; by default it is recomputed
    as -rho_vec / rho.
    """
    zetas = np.asarray(zetas, dtype=complex)
    z = np.asarray(z, dtype=complex)
    N, n, d = zetas.shape[0], model.n, model.tangential_dim
    w = zetas - z[None, :]
    wbar = w[:, None, :d].conj()                           # (N, 1, d)
    thetas, norm = _batch_directions(model, zetas, thetas)
    Q = -model.holo_gradients(z)                           # (m, n)
    # theta varies with zeta only for m >= 2
    G, dG = _frames_for_thetas(model, thetas, with_derivative=model.m >= 2)

    P = thetas @ Q
    P[:, :d] += (wbar @ G)[:, 0]
    dP_dzbar = dPhi_dzbar = None
    if with_zbar:
        dP_dzbar = np.zeros((N, n, n), dtype=complex)
        dP_dzbar[:, :d, :d] = -model.levi_pencil(thetas) - G
        dPhi_dzbar = (dP_dzbar @ w[:, :, None])[:, :, 0]
    dP_dzetabar = np.zeros((N, n, n), dtype=complex)
    dtheta = None
    if dG is not None:
        # theta = -rho_vec / rho moves along the sphere: d theta / d zetabar
        # = -(1 - theta theta^T) d rho_vec / d zetabar / rho
        dbar = model.holo_gradients(zetas).conj()           # (N, m, n)
        dtheta = -(dbar - thetas[:, :, None] * (thetas[:, None] @ dbar)) \
            / norm[:, None, None]
        QW = np.repeat(Q[None], N, axis=0)  # Q_k + conj(w) . dG_k
        QW[:, :, :d] += (wbar[:, None] @ dG)[:, :, 0]
        dP_dzetabar = np.swapaxes(dtheta, 1, 2) @ QW
    dP_dzetabar[:, :d, :d] += G
    return BarrierJetBatch(
        P=P, Phi=np.einsum("Ni,Ni->N", P, w), dP_dzbar=dP_dzbar,
        dP_dzetabar=dP_dzetabar,
        dPhi_dzbar=dPhi_dzbar,
        dPhi_dzetabar=(dP_dzetabar @ w[:, :, None])[:, :, 0],
        H=model.hermitian_stack, dG=dG, dtheta=dtheta)


def barrier_phase(model: ManifoldModel, zetas, z,
                  include_correction: bool = True,
                  thetas=None) -> np.ndarray:
    """Phase values theta . F + conj(w')^T G w' over a zeta batch at fixed z,
    the correction being sum |A|^2 as a G-quadratic form on the z'-block.

    ``include_correction=False`` drops the correction (negative-control
    mode).  ``thetas`` passes theta(zeta) in, as for :func:`barrier_jets`.
    Raises :class:`ThetaUndefinedError` on the manifold, as
    :func:`barrier_jets` does.
    """
    zetas = np.asarray(zetas, dtype=complex)
    z = np.asarray(z, dtype=complex)
    w = zetas - z[None, :]
    thetas, _ = _batch_directions(model, zetas, thetas)
    Q = -model.holo_gradients(z)                           # (m, n)
    F = np.einsum("ki,Ni->Nk", Q, w)
    phi = np.einsum("Nk,Nk->N", thetas, F)
    if include_correction:
        G, _ = _frames_for_thetas(model, thetas, with_derivative=False)
        wp = w[:, :model.tangential_dim]
        phi = phi + np.einsum("Nl,Nli,Ni->N", wp.conj(), G, wp).real
    return phi


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
    c_hat_abs: float           # min |Phi| / (rho + |w|^2), sampled only
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
    the negative-control detector) alongside the modulus quotient, a sampled
    diagnostic and not a uniform bound.  On sig22_n6m2 at z = 0, with w' = 0
    and Re w moved by 0.05 orthogonally to sigma, |Phi| / (rho + |w|^2) is
    0.40, 0.14, 0.019 and 0.0020 at eps 1e-2, 1e-3, 1e-4 and 1e-5.
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


def audit_barrier_expansion(model: ManifoldModel, z, direction,
                            scales) -> ExpansionReport:
    """Order audit of Re Phi against its frozen-direction expansion.

    remainder(s) = Re Phi(z + s v, z)
                   - [rho(zeta)/2 + levi_ref(s v)/2 + correction_ref(s v)]

    with the reference direction theta_ref taken from the leading rho-profile
    of the path and correction_ref the quadratic form of G(theta_ref); Phi
    comes from one :func:`barrier_phase` call over all scales.  Exact zero (reported as ``exact``) occurs whenever theta does not
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
    G_ref, _ = _frames_for_thetas(model, theta_ref[None, :],
                                  with_derivative=False)
    form = model.levi_form_full(theta_ref)

    zetas = z[None, :] + scales[:, None] * v[None, :]
    w = zetas - z[None, :]
    phi = barrier_phase(model, zetas, z)
    _, rho = model.defining_values(zetas)
    levi = np.einsum("Ni,ij,Nj->N", w.conj(), form, w).real
    wp = w[:, :model.tangential_dim]
    corr = np.einsum("Nl,li,Ni->N", wp.conj(), G_ref[0], wp).real
    rem = phi.real - (0.5 * rho + 0.5 * levi + corr)
    phimag = np.abs(phi)
    exact = bool(np.all(np.abs(rem) <= 1e-12 * np.maximum(phimag, 1e-30)))
    slope = 0.0 if exact else loglog_slope(scales, rem)
    return ExpansionReport(slope=slope, exact=exact)
