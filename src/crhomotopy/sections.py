"""Normalized kernel sections and their Wirtinger jets.

A section is a map eta(zeta, z, t) with sum_k eta_k (zeta_k - z_k) = 1.  Two
concrete sections are provided: the euclidean (Bochner-Martinelli) section
and the barrier section; the homotopy kernel interpolates them linearly in t.
Their jets are computed over a zeta batch at fixed z (the quadrature path);
the single-point sections are N = 1 calls on the same functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import barrier as _barrier
from ._util import wedge_jets
from .cf_forms import cf_component, zbar_degree
from .errors import NearSingularPhaseError, SingularityError
from .geometry import ManifoldModel

PHASE_TOL = 1e-13


@dataclass
class SectionJet:
    """Section value with antiholomorphic and parameter jets.

    d_zbar[k, l] = d eta_k / d zbar_l, d_zetabar[k, l] = d eta_k / d zetabar_l.
    """

    value: np.ndarray
    d_zbar: np.ndarray
    d_zetabar: np.ndarray
    d_t: np.ndarray


# ---------------------------------------------------------------------------
# batched section jets over a zeta batch at fixed z
# ---------------------------------------------------------------------------

def bochner_martinelli_jets(zetas, z, with_zbar=True):
    """Euclidean section values/jets over a batch: eta, beta[k,l], gamma[k,l]
    and ``pullback``, with beta = d eta / d zbar and gamma = d eta / d
    zetabar; beta is None when ``with_zbar`` is False.

    pullback(x, A), x of shape (N, n) and A of shape (N, n, n), is the
    zbar-gradient, shape (n,), of the sum over the batch of x . eta + <A,
    gamma> at fixed adjoints (no conjugation): its entry l is the sum of
    x . d eta / d zbar_l + <A, d gamma / d zbar_l>.  It reads beta, so it
    needs ``with_zbar``; no mixed jet is formed.  With w = zeta - z and S =
    |w|^2, d gamma[k, j] / d zbar_l = (delta_kj w_l + delta_kl w_j) / S^2 -
    2 conj(w_k) w_j w_l / S^3, so <A, d gamma / d zbar_l> = (w_l (tr A - 2
    eta^T A w) + (A w)_l) / S^2, and x . d eta / d zbar_l = (beta^T x)_l.
    """
    w = zetas - z[None, :]
    S = np.sum(np.abs(w) ** 2, axis=1)
    if np.any(S == 0.0):
        raise SingularityError("euclidean section is singular at zeta = z")
    n = w.shape[1]
    eye = np.eye(n)
    outer = np.einsum("Nk,Nl->Nkl", w.conj(), w)
    inv_s = 1.0 / S
    inv_s2 = inv_s ** 2
    eta = w.conj() * inv_s[:, None]
    gamma = (eye[None, :, :] * inv_s[:, None, None]
             - outer * inv_s2[:, None, None])
    beta = -gamma if with_zbar else None

    def pullback(x, A):
        Aw = np.einsum("Nkj,Nj->Nk", A, w)
        c = np.einsum("Nkk->N", A) - 2.0 * np.einsum("Nk,Nk->N", eta, Aw)
        return (c * inv_s2) @ w + inv_s2 @ Aw + np.tensordot(x, beta, 2)

    return eta, beta, gamma, pullback


def barrier_section_jets(model: ManifoldModel, zetas, z, with_zbar=True,
                         thetas=None):
    """Barrier section values/jets over a batch (eta, beta, gamma, phi,
    pullback); beta is None when ``with_zbar`` is False.  ``thetas`` passes
    the directions theta(zeta) to :func:`crhomotopy.barrier.barrier_jets`.

    The returned phi is the raw phase (rejection decisions use it); the
    divisions are floored away from exact zero so a rejected node cannot
    poison the batch with non-finite values.

    ``pullback`` is the zbar-gradient of the adjoint sum, shape (n,), as for
    :func:`bochner_martinelli_jets`.  From gamma = (dP/dzetabar - eta (x)
    dPhi/dzetabar) / Phi and Phi = sum_i P_i w_i, with D = d / d zbar_l,

        D gamma = (D dP/dzetabar - D eta (x) dPhi/dzetabar
                   - eta (x) D dPhi/dzetabar - gamma D Phi) / Phi,

    where D dPhi/dzetabar = w^T D dP/dzetabar.  So, with y = x - A
    dPhi/dzetabar / Phi, the pullback is beta^T y - <A, gamma> dPhi/dzbar /
    Phi plus the pullback of the mixed jet D dP/dzetabar through (A - w
    (eta^T A)) / Phi, which is :meth:`BarrierJetBatch.dP_mixed` on the
    z'-block and zero for m = 1, where theta is constant.
    """
    jets = _barrier.barrier_jets(model, zetas, z, with_zbar=with_zbar,
                                 thetas=thetas)
    phi = jets.Phi
    phi_safe = np.where(np.abs(phi) < 1e-300, 1.0, phi)
    inv = 1.0 / phi_safe
    inv2 = inv ** 2
    eta = jets.P * inv[:, None]
    # beta[k, l] = dP[l, k]/phi - P[k] dphi[l]/phi^2
    beta = (np.swapaxes(jets.dP_dzbar, 1, 2) * inv[:, None, None]
            - jets.P[:, :, None] * jets.dPhi_dzbar[:, None, :]
            * inv2[:, None, None]) if with_zbar else None
    gamma = (np.swapaxes(jets.dP_dzetabar, 1, 2) * inv[:, None, None]
             - jets.P[:, :, None] * jets.dPhi_dzetabar[:, None, :]
             * inv2[:, None, None])
    # the pullback keeps jets alive: drop the (N, n, n) jets it does not read
    jets.dP_dzbar = jets.dP_dzetabar = None

    def pullback(x, A):
        y = x - np.einsum("Nkj,Nj->Nk", A, jets.dPhi_dzetabar) * inv[:, None]
        a_gamma = np.einsum("Nkj,Nkj->N", A, gamma) * inv
        out = np.tensordot(y, beta, 2) - a_gamma @ jets.dPhi_dzbar
        if jets.dG is not None:                 # m >= 2
            w = zetas - z[None, :]
            A_mixed = (A - w[:, :, None] * (eta[:, None, :] @ A)) \
                * inv[:, None, None]
            out[:model.tangential_dim] += jets.dP_mixed(A_mixed)
        return out

    return eta, beta, gamma, phi, pullback


# ---------------------------------------------------------------------------
# single-point sections (N = 1 calls on the batched jets)
# ---------------------------------------------------------------------------

def bochner_martinelli_section(zeta, z) -> SectionJet:
    """eta = conj(zeta - z) / |zeta - z|^2 with analytic jets."""
    zeta = np.asarray(zeta, dtype=complex)
    z = np.asarray(z, dtype=complex)
    eta, beta, gamma, _ = bochner_martinelli_jets(zeta[None, :], z)
    return SectionJet(value=eta[0], d_zbar=beta[0], d_zetabar=gamma[0],
                      d_t=np.zeros(z.shape[0], dtype=complex))


def _require_phase(phi):
    """Raise :class:`NearSingularPhaseError` at the first phase value below
    PHASE_TOL in magnitude."""
    small = np.abs(phi) < PHASE_TOL
    if np.any(small):
        raise NearSingularPhaseError(
            f"phase magnitude {abs(phi[np.argmax(small)]):.3e} below "
            f"tolerance {PHASE_TOL:.1e}")


def barrier_section(model: ManifoldModel, zeta, z) -> SectionJet:
    """eta = P / Phi with analytic jets from the barrier construction."""
    zeta = np.asarray(zeta, dtype=complex)
    z = np.asarray(z, dtype=complex)
    eta, beta, gamma, phi, _ = barrier_section_jets(model, zeta[None, :], z)
    _require_phase(phi)
    return SectionJet(value=eta[0], d_zbar=beta[0], d_zetabar=gamma[0],
                      d_t=np.zeros(model.n, dtype=complex))


def combined_section(s1: SectionJet, s2: SectionJet, t: float) -> SectionJet:
    """Affine interpolation (1-t) s1 + t s2; normalization is preserved."""
    one_minus = 1.0 - t
    return SectionJet(
        value=one_minus * s1.value + t * s2.value,
        d_zbar=one_minus * s1.d_zbar + t * s2.d_zbar,
        d_zetabar=one_minus * s1.d_zetabar + t * s2.d_zetabar,
        d_t=(s2.value - s1.value) + one_minus * s1.d_t + t * s2.d_t,
    )


def normalization_defects(model: ManifoldModel, zetas, z, t) -> np.ndarray:
    """|sum_k eta_k (zeta_k - z_k) - 1| over a zeta batch at fixed z, shape
    (3, N): rows for the euclidean section, the barrier section and their
    interpolation (1 - t) eta_0 + t eta_1 at the per-sample parameters t.

    One :func:`bochner_martinelli_jets` and one :func:`barrier_section_jets`
    call; a sample whose phase is below PHASE_TOL raises
    :class:`NearSingularPhaseError`, as :func:`barrier_section` does.
    """
    zetas = np.asarray(zetas, dtype=complex)
    z = np.asarray(z, dtype=complex)
    eta0 = bochner_martinelli_jets(zetas, z)[0]
    eta1, _, _, phi, _ = barrier_section_jets(model, zetas, z)
    _require_phase(phi)
    t = np.asarray(t, dtype=float)[:, None]
    values = np.stack([eta0, eta1, (1.0 - t) * eta0 + t * eta1])
    return np.abs(np.sum(values * (zetas - z[None, :]), axis=-1) - 1.0)


# ---------------------------------------------------------------------------
# closedness of the determinant form
# ---------------------------------------------------------------------------

@dataclass
class ClosednessReport:
    residual: float
    order: float
    scale: float


def _forms(jets):
    """Determinant forms of a list of section jets, one node per jet."""
    return cf_component(*(np.stack([getattr(jet, f) for jet in jets], axis=-1)
                          for f in ("value", "d_zbar", "d_zetabar", "d_t")))


def closedness_residual(jet_family, zeta, z, t, r: int, step: float,
                        n: int) -> float:
    """Max coefficient of d_t W_r + dbar_zeta W_r + dbar_z W_(r-1): the rows
    of degree r in dzbar of d W, W the determinant form, by central
    differences.

    W is formed at the 8n + 2 stencil points in one call: four shifts of each
    z_l, then of each zeta_l, then t +- step, so that the difference
    quotients are the jets of W along the symbols dzbar, dzetabar, dt.
    """
    zeta = np.asarray(zeta, dtype=complex)
    z = np.asarray(z, dtype=complex)
    shifts = step * np.array([1, -1, 1j, -1j])
    eye = np.eye(n)
    points = ([(zeta, z + h * eye[l], t) for l in range(n) for h in shifts]
              + [(zeta + h * eye[l], z, t) for l in range(n) for h in shifts]
              + [(zeta, z, t + step), (zeta, z, t - step)])
    W = _forms([jet_family(*p) for p in points])
    quad = W[:, :8 * n].reshape(-1, 2 * n, 4)
    wirtinger = ((quad[..., 0] - quad[..., 1])
                 + 1j * (quad[..., 2] - quad[..., 3])) / (4 * step)
    d_t = (W[:, -2] - W[:, -1]) / (2 * step)
    dW = wedge_jets(np.concatenate([wirtinger, d_t[:, None]], axis=1),
                    2 * n + 1, n - 1)
    return float(np.max(np.abs(dW[zbar_degree(n, n) == r])))


def closedness_check(jet_family, zeta, z, t, r: int, n: int,
                     step: float = 1e-3) -> ClosednessReport:
    """Residual of the closedness relation with a Richardson order estimate.

    PASS semantics: residual contracts at second order under step halving
    (or sits at the roundoff floor).
    """
    if not 0 <= r <= n - 1:
        raise ValueError(f"dzbar degree {r} out of range 0..{n - 1}")
    jet0 = jet_family(np.asarray(zeta, complex), np.asarray(z, complex), t)
    scale = float(np.max(np.abs(_forms([jet0])[zbar_degree(n, n - 1) == r])))
    res = closedness_residual(jet_family, zeta, z, t, r, step, n)
    res_half = closedness_residual(jet_family, zeta, z, t, r, step / 2, n)
    if res_half <= 1e-12 * max(scale, 1.0):
        order = np.inf
    else:
        order = float(np.log2(res / res_half))
    return ClosednessReport(residual=res, order=order, scale=scale)
