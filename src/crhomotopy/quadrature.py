"""Level-set grids and oriented surface integration support.

The level set {rho = eps} of a graph quadric is parameterized exactly by

    (z' in C^(n-m), u = Re w in R^m, sigma in S^(m-1)),  Im w = h(z') + eps sigma,

so every node satisfies the level equation to machine precision.  A node
carries the chart parameters, a Monte Carlo weight (inverse sampling density
in parameter measure), the complex velocity columns of the parameterization
(for pulling back differential forms), the boundary orientation sign of the
tube, and the Riemannian surface factor (for scalar kernel integrals).

Samplers:

- ``mc-uniform``: uniform in a parameter box times the uniform sphere;
- ``mc-shell``:   log-radial stratification around an evaluation center, the
                  variance reducer for near-singular kernels.

Node streams are regenerated from the seed on every pass (grids are cheap to
re-create and costly to store), in fixed chunk order, so accumulations are
bit-stable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ._util import gauss_legendre_01
from .errors import OutsideTubeError
from .geometry import ManifoldModel

CHUNK = 8192
MODES = ("mc-uniform", "mc-shell")


@dataclass
class NodeChunk:
    zeta: np.ndarray          # (N, n)
    weight: np.ndarray        # (N,) parameter-measure MC weight
    velocity: np.ndarray      # (N, n, 2n-1) complex velocity columns
    orient: np.ndarray        # (N,) boundary orientation signs
    surface_jac: np.ndarray   # (N,) Riemannian surface factor
    rho_vec: np.ndarray       # (N, m)


@dataclass
class QuadratureGrid:
    """Reproducible node stream on the level set {rho = eps}."""

    model: ManifoldModel
    epsilon: float
    budget: int
    mode: str = "mc-shell"
    seed: int = 0
    center_zp: np.ndarray = None
    center_u: np.ndarray = None
    box_radius: float = 0.7
    r_min_factor: float = 1e-3
    t_count: int = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown sampling mode {self.mode!r}")
        if not 0 < self.epsilon < 0.5 * self.model.radius:
            raise OutsideTubeError(
                f"epsilon {self.epsilon} outside (0, {0.5 * self.model.radius})")
        d, m = self.model.tangential_dim, self.model.m
        if self.center_zp is None:
            self.center_zp = np.zeros(d, dtype=complex)
        if self.center_u is None:
            self.center_u = np.zeros(m, dtype=float)
        if self.t_count is None:
            # the solution integrand has degree n - 2 in t (its eta column
            # is the t-independent eta0), so n // 2 Gauss nodes are exact
            self.t_count = self.model.n // 2
        self.t_nodes, self.t_weights = gauss_legendre_01(self.t_count)
        self.param_dim = 2 * d + m

    # -- node generation ---------------------------------------------------

    def chunks(self):
        rng = np.random.default_rng(self.seed)
        remaining = self.budget
        while remaining > 0:
            count = min(CHUNK, remaining)
            remaining -= count
            yield self._assemble(self._sample_params(rng, count))

    def _sample_params(self, rng, count):
        d, m = self.model.tangential_dim, self.model.m
        D = self.param_dim
        if self.mode == "mc-uniform":
            p = rng.uniform(-self.box_radius, self.box_radius, size=(count, D))
            density = (2.0 * self.box_radius) ** (-D)
        else:
            # mc-shell: box_radius acts as the covering radius, so every
            # parameter point within that distance of the center is reachable
            r_min = self.r_min_factor * self.epsilon
            r_max = 1.05 * self.box_radius
            xi = rng.standard_normal((count, D))
            xi /= np.linalg.norm(xi, axis=1, keepdims=True)
            r = r_min * np.exp(rng.uniform(0.0, np.log(r_max / r_min),
                                           size=count))
            p = r[:, None] * xi
            density = 1.0 / (_sphere_area(D) * r ** (D - 1) * r
                             * np.log(r_max / r_min))
        sigma = rng.standard_normal((count, m))
        sigma /= np.linalg.norm(sigma, axis=1, keepdims=True)
        if m == 1:
            sigma = np.sign(sigma)
        weight = _sphere_area(m) / (self.budget * density)
        if np.ndim(weight) == 0:
            weight = np.full(count, float(weight))
        return p, sigma, weight

    # -- geometry of the parameterization ----------------------------------

    def _assemble(self, params) -> NodeChunk:
        p, sigma, weight = params
        model = self.model
        d, m, n = model.tangential_dim, model.m, model.n
        N = p.shape[0]
        zp = (self.center_zp[None, :]
              + p[:, 0:2 * d:2] + 1j * p[:, 1:2 * d:2])
        u = self.center_u[None, :] + p[:, 2 * d:2 * d + m]
        rho_vec = self.epsilon * sigma
        zeta = model.graph_point(zp, u, rho_vec)

        # velocity columns of the parameterization (complex representation);
        # moving z' along the real direction c' drags Im w_k by
        # dh_k(c') = 2 Re(sum_i conj(c'_i) (H_k z')_i)
        cols = 2 * n - 1
        vel = np.zeros((N, n, cols), dtype=complex)
        hz = np.stack([np.einsum("ij,Nj->Ni", h, zp) for h in model.hermitian],
                      axis=1)                          # (N, m, d)
        for j in range(d):
            vel[:, j, 2 * j] = 1.0                      # Re z'_j direction
            vel[:, d:, 2 * j] = 1j * 2.0 * hz[:, :, j].real
            vel[:, j, 2 * j + 1] = 1j                   # Im z'_j direction
            vel[:, d:, 2 * j + 1] = 1j * 2.0 * hz[:, :, j].imag
        for k in range(m):
            vel[:, d + k, 2 * d + k] = 1.0
        if m >= 2:
            tang = _sphere_tangent_basis(sigma)        # (N, m, m-1)
            for a in range(m - 1):
                vel[:, d:, 2 * d + m + a] = 1j * self.epsilon * tang[:, :, a]

        # outward normal velocity: Im w moves along sigma
        nu = np.zeros((N, n), dtype=complex)
        nu[:, d:] = 1j * sigma

        orient, jac = _orientation_and_jacobian(nu, vel)
        return NodeChunk(zeta=zeta, weight=weight, velocity=vel,
                         orient=orient, surface_jac=jac, rho_vec=rho_vec)

    # -- caching -------------------------------------------------------------

    def header(self) -> dict:
        return {
            "schema": "crhomotopy-grid-v1",
            "model_hash": self.model.content_hash(),
            "epsilon": float(self.epsilon),
            "budget": int(self.budget),
            "mode": self.mode,
            "seed": int(self.seed),
            "center_zp": [[float(c.real), float(c.imag)] for c in self.center_zp],
            "center_u": [float(x) for x in self.center_u],
            "box_radius": float(self.box_radius),
            "r_min_factor": float(self.r_min_factor),
            "t_count": int(self.t_count),
        }

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.header(), fh, sort_keys=True)

    @classmethod
    def load(cls, path, model: ManifoldModel) -> "QuadratureGrid":
        with open(path, "r", encoding="utf-8") as fh:
            head = json.load(fh)
        if head.get("schema") != "crhomotopy-grid-v1":
            raise ValueError("unrecognized grid cache schema")
        if head["model_hash"] != model.content_hash():
            raise ValueError("grid cache was built for a different model")
        center_zp = np.array([complex(a, b) for a, b in head["center_zp"]])
        return cls(model=model, epsilon=head["epsilon"], budget=head["budget"],
                   mode=head["mode"], seed=head["seed"], center_zp=center_zp,
                   center_u=np.array(head["center_u"]),
                   box_radius=head["box_radius"],
                   r_min_factor=head["r_min_factor"], t_count=head["t_count"])


def _sphere_area(D):
    """Area of the unit sphere S^(D-1) in R^D, 2 pi^(D/2) / Gamma(D/2).

    For D = 1 it is the counting measure of {-1, +1}.
    """
    from math import gamma
    return 2.0 * np.pi ** (D / 2) / gamma(D / 2.0)


def _sphere_tangent_basis(sigma):
    """Orthonormal tangent bases of S^(m-1) at each sigma, (N, m, m-1).

    One stacked QR of [sigma | I]: the first column of each Q is +-sigma and
    the remaining columns span the tangent space.
    """
    N, m = sigma.shape
    eye = np.broadcast_to(np.eye(m), (N, m, m))
    q, _ = np.linalg.qr(np.concatenate([sigma[:, :, None], eye], axis=2))
    return q[:, :, 1:]


def _orientation_and_jacobian(nu, vel):
    """Boundary orientation signs and surface factors per node.

    orient = sign det [outward normal | velocity columns] in the oriented
    coordinates of C^n, where the reproduction constant (2 pi i)^n is exact.
    That orientation is the complex-blocked one (all dzeta before all
    dzeta-bar); relative to the interleaved real coordinates it differs by
    (-1)^(n(n-1)/2), folded in here.  Surface factor = sqrt(det(V^T V)) of
    the real velocity matrix.
    """
    N, n, cols = vel.shape
    stacked = np.empty((N, 2 * n, cols + 1))
    stacked[:, 0::2, 0] = nu.real
    stacked[:, 1::2, 0] = nu.imag
    stacked[:, 0::2, 1:] = vel.real
    stacked[:, 1::2, 1:] = vel.imag
    real_vel = stacked[:, :, 1:]
    block_reorder = (-1.0) ** (n * (n - 1) // 2)
    orient = block_reorder * np.sign(np.linalg.det(stacked))
    gram = np.einsum("Nij,Nik->Njk", real_vel, real_vel)
    jac = np.sqrt(np.abs(np.linalg.det(gram)))
    return orient, jac
