"""Normalized kernel sections and their Wirtinger jets.

A section is a map eta(zeta, z, t) with sum_k eta_k (zeta_k - z_k) = 1.  The
euclidean (Bochner-Martinelli) section and the barrier section are both
Cauchy-Fantappie quotients P / <P, w>, w = zeta - z, the euclidean one with
P = conj(w) (Range, Holomorphic Functions and Integral Representations in
Several Complex Variables, 1986, ch. IV sec. 1), with jets from one rule.
The homotopy kernel interpolates them linearly in t.  The jets are formed
over a zeta batch at fixed z; single-point sections are N = 1 calls.
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

class _Quotient:
    """eta = P / Phi over a batch at w = zeta - z, gamma = d eta / d zetabar
    and the quotient rule :meth:`over`, from the P-jets ``jets``
    (:class:`~crhomotopy.barrier.BarrierJetBatch`; dG is None where the
    mixed jet vanishes).  ``beta`` = d eta / d zbar is set by the section
    that reads the z-jets (None without them); :meth:`pullback` reads it.
    The divisions are floored away from exact zero so a rejected node
    cannot poison the batch with non-finite values.
    """

    def __init__(self, zetas, z, jets):
        self.jets, self.w = jets, zetas - z[None, :]
        self.inv = 1.0 / np.where(np.abs(jets.Phi) < 1e-300, 1.0, jets.Phi)
        self.eta = jets.P * self.inv[:, None]
        self.gamma = self.over(jets.dP_dzetabar, jets.dPhi_dzetabar)
        self.beta = None
        # the pullback keeps jets alive: drop the arrays it does not read
        jets.P = jets.dP_dzetabar = None

    def over(self, dP, dPhi):       # [k, l] from dP[l, k], dPhi[l]
        out = self.eta[:, :, None] * dPhi[:, None, :]   # one (N, n, n) array
        np.subtract(np.swapaxes(dP, 1, 2), out, out=out)
        out *= self.inv[:, None, None]
        return out

    def pullback(self, x, times, a_gamma):
        """The zbar-gradient, shape (n,), of the sum over the batch of x .
        eta + <A, gamma> at fixed adjoints x (N, n) and A (N, n, n) (no
        conjugation), A read only through ``times``, V (N, n, s) -> A V, and
        ``a_gamma`` = <A, gamma> (N,).  With D = d / d zbar_l, gamma =
        (dP/dzetabar - eta (x) dPhi/dzetabar) / Phi and Phi = sum_i P_i w_i
        give

            D gamma = (D dP/dzetabar - D eta (x) dPhi/dzetabar
                       - eta (x) w^T D dP/dzetabar - gamma D Phi) / Phi.

        So, with y = x - A dPhi/dzetabar / Phi, the pullback is beta^T y -
        <A, gamma> dPhi/dzbar / Phi plus that of the mixed jet D
        dP/dzetabar through (A - w (eta^T A)) / Phi, which
        :meth:`BarrierJetBatch.dP_mixed` reads only on the rows dtheta_k.
        So A is applied to the vectors dPhi/dzetabar and, for m >= 2,
        dtheta_k: one ``times`` call, O(n) per node beyond it.
        """
        jets, inv = self.jets, self.inv
        V = jets.dPhi_dzetabar[:, :, None]
        if jets.dG is not None:
            V = np.concatenate([V, np.swapaxes(jets.dtheta, 1, 2)], axis=2)
        AV = times(V) * inv[:, None, None]
        out = np.tensordot(x - AV[:, :, 0], self.beta, 2) \
            - (a_gamma * inv) @ jets.dPhi_dzbar
        if jets.dG is not None:                 # on the z'-block
            d = jets.H.shape[1]
            A_theta = AV[:, :d, 1:] - self.w[:, :d, None] \
                * (self.eta[:, None, :] @ AV[:, :, 1:])
            out[:d] += jets.dP_mixed(A_theta)
        return out


def bochner_martinelli_jets(zetas, z, with_zbar=True):
    """Euclidean section values/jets over a batch (eta, beta, gamma,
    pullback), the quotient of P = conj(w), w = zeta - z: Phi = |w|^2,
    dP/dzetabar = I, dPhi/dzetabar = w and no mixed jet.  P and Phi depend
    on z only through w, so dP/dzbar = -I, dPhi/dzbar = -w and beta =
    -gamma exactly (the quotient rule is odd in its jets); beta is None
    when ``with_zbar`` is False."""
    w = zetas - z[None, :]
    S = np.sum(np.abs(w) ** 2, axis=1)
    if np.any(S == 0.0):
        raise SingularityError("euclidean section is singular at zeta = z")
    jets = _barrier.BarrierJetBatch(
        P=w.conj(), Phi=S, dP_dzbar=None,
        dP_dzetabar=np.broadcast_to(np.eye(w.shape[1]), w.shape + w.shape[1:]),
        dPhi_dzbar=-w if with_zbar else None, dPhi_dzetabar=w)
    q = _Quotient(zetas, z, jets)
    if with_zbar:
        q.beta = -q.gamma
    return q.eta, q.beta, q.gamma, q.pullback


def barrier_section_jets(model: ManifoldModel, zetas, z, with_zbar=True,
                         directions=None):
    """Barrier section values/jets over a batch (eta, beta, gamma, phi,
    pullback), the quotient of the P-jets of
    :func:`crhomotopy.barrier.barrier_jets`, to which ``with_zbar`` and
    ``directions`` go; phi is the raw phase (rejection decisions use it).
    The mixed jet vanishes for m = 1, where theta is constant.
    """
    jets = _barrier.barrier_jets(model, zetas, z, with_zbar=with_zbar,
                                 directions=directions)
    q = _Quotient(zetas, z, jets)
    if with_zbar:
        q.beta = q.over(jets.dP_dzbar, jets.dPhi_dzbar)
        jets.dP_dzbar = None    # nor does the pullback read dP/dzbar
    return q.eta, q.beta, q.gamma, jets.Phi, q.pullback


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
    call, without the zbar-jets, which eta does not read; a sample whose
    phase is below PHASE_TOL raises :class:`NearSingularPhaseError`, as
    :func:`barrier_section` does.
    """
    zetas = np.asarray(zetas, dtype=complex)
    z = np.asarray(z, dtype=complex)
    eta0 = bochner_martinelli_jets(zetas, z, with_zbar=False)[0]
    eta1, _, _, phi, _ = barrier_section_jets(model, zetas, z,
                                              with_zbar=False)
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
