"""Level-set grids and oriented surface integration support.

The level set {rho = eps} of a graph quadric is parameterized exactly by

    (z' in C^(n-m), u = Re w in R^m, sigma in S^(m-1)),  Im w = h(z') + eps sigma,

so every node satisfies the level equation to machine precision.  A node
carries the chart point, a Monte Carlo weight (inverse sampling density in
parameter measure), its level direction sigma, the scaled conormal and the
Riemannian surface factor: what the operators read, and nothing else.  The
t-nodes of the solution operator are its own (:func:`homotopy._t_rule`).

The geometry is closed-form.  With S = sum_k sigma_k H_k z', the vector
v = (-2 S, i sigma) is 2 dbar(sigma . rho), rho_k = Im w_k - <H_k z', z'>.
The velocity matrix of the parameterization is block-triangular over
(z', u, sigma), so its (2n-1)-minors are the components of this conormal
(the coarea / Leray-form identity): the surface factor is eps^(m-1) |v|, and
the oriented minors that pull a form back are
(2i)^n / 2 * eps^(m-1) (-1)^k v_k (see
:func:`crhomotopy.homotopy._det9_blocks`).  ``conormal`` stores
eps^(m-1) v.  The sphere tangent basis drops out, so its sign is a gauge.
No node carries velocity columns: ``tests/oracles.py`` rebuilds them from
the chart point and sigma (with :func:`_sphere_tangent_basis`) for the
dense determinants that are the test oracle.

Samplers:

- ``mc-uniform``: uniform in a parameter box times the uniform sphere;
- ``mc-shell``:   log-radial stratification around an evaluation center, the
                  variance reducer for near-singular kernels.

The level direction sigma is a sign for m = 1, drawn iid.  For m >= 2 a
chunk draws one Haar-random rotation R of O(m), and its node j takes sigma =
R s_(j mod K) from a fixed set of K = SPHERE_POINTS points s on S^(m-1): the
regular K-gon for m = 2, a constant antipodal set for m >= 3.  Each sigma is
then uniform on the sphere, so the estimates stay unbiased (a randomly
rotated point set: Cranley and Patterson, SIAM J. Numer. Anal. 13 (1976);
Owen, Monte Carlo theory, methods and examples (2013), ch. 8), and a chunk
holds only K distinct directions.  Each chunk hands out its direction table
(the K rotated points for m >= 2, the two sheets +-1 for m = 1) and each
node's index into it, sigma = directions[direction_index].  The barrier
frames depend on a node only through theta = -sigma, so an operator solves
them once per chunk, on the table, and gathers them by node.

Node streams are regenerated from the seed on every pass (grids are cheap to
re-create and costly to store), in fixed chunk order, so accumulations are
bit-stable.  A stream is drawn per chunk of CHUNK nodes and handed out per
block of BLOCK nodes (:meth:`QuadratureGrid.chunks`): every node value is
pointwise in the chunk's draws, so the blocks are the chunk's nodes bit for
bit, each block of a chunk carries the chunk's one direction table, and no
consumer holds a per-node array longer than a block.  Every array operation
costs a block a fixed numpy overhead, so blocks are assembled in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutsideTubeError
from .geometry import ManifoldModel, direction_grid, levi_heights

CHUNK = 8192            # nodes per draw: one direction table, one rotation
BLOCK = 512             # nodes per yielded block: a quadrature loop's arrays
MODES = ("mc-uniform", "mc-shell")
R_MIN_FACTOR = 1e-3     # mc-shell inner radius, in units of epsilon
SPHERE_POINTS = 64      # K: distinct level directions per chunk for m >= 2


@dataclass
class NodeChunk:
    zeta: np.ndarray          # (N, n)
    weight: np.ndarray        # (N,) parameter-measure MC weight
    conormal: np.ndarray      # (N, n) eps^(m-1) (-2 S, i sigma)
    surface_jac: np.ndarray   # (N,) Riemannian surface factor |conormal|
    sigma: np.ndarray         # (N, m) level direction: rho_vec = eps sigma
    directions: np.ndarray    # (K, m) the chunk's distinct level directions
    direction_index: np.ndarray  # (N,) sigma = directions[direction_index]


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

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown sampling mode {self.mode!r}")
        if not self.budget >= 1:
            raise ValueError(f"budget {self.budget} is below one node")
        if not (np.isfinite(self.box_radius) and self.box_radius > 0):
            raise ValueError(
                f"box_radius {self.box_radius} is not a finite positive number")
        if not 0 < self.epsilon < 0.5 * self.model.radius:
            raise OutsideTubeError(
                f"epsilon {self.epsilon} outside (0, {0.5 * self.model.radius})")
        if (self.mode == "mc-shell"
                and 1.05 * self.box_radius <= R_MIN_FACTOR * self.epsilon):
            # the shell's outer radius must exceed its inner radius
            raise ValueError(
                f"mc-shell box_radius {self.box_radius} is inside the inner "
                f"radius {R_MIN_FACTOR * self.epsilon}")
        d, m = self.model.tangential_dim, self.model.m
        if self.center_zp is None:
            self.center_zp = np.zeros(d, dtype=complex)
        if self.center_u is None:
            self.center_u = np.zeros(m, dtype=float)
        self.param_dim = 2 * d + m

    # -- node generation ---------------------------------------------------

    def chunks(self):
        """The node stream as :class:`NodeChunk` blocks of at most BLOCK nodes.

        Nodes are drawn per CHUNK and yielded per BLOCK: the generator calls
        are those of whole chunks, so the stream does not depend on BLOCK,
        and every block of a chunk shares that chunk's one ``directions``
        array, so a consumer that tests ``block.directions is table`` does
        its per-direction work once per chunk.
        """
        rng = np.random.default_rng(self.seed)
        remaining = self.budget
        while remaining > 0:
            count = min(CHUNK, remaining)
            remaining -= count
            p, directions, index, weight = self._sample_params(rng, count)
            for lo in range(0, count, BLOCK):
                blk = slice(lo, lo + BLOCK)
                yield self._assemble((p[blk], directions, index[blk],
                                      weight[blk]))

    def _sample_params(self, rng, count):
        m = self.model.m
        D = self.param_dim
        if self.mode == "mc-uniform":
            p = rng.uniform(-self.box_radius, self.box_radius, size=(count, D))
            density = (2.0 * self.box_radius) ** (-D)
        else:
            # mc-shell: box_radius acts as the covering radius, so every
            # parameter point within that distance of the center is reachable
            r_min = R_MIN_FACTOR * self.epsilon
            r_max = 1.05 * self.box_radius
            # xi / |xi| (np.linalg.norm's sum, but no conj copy), then r xi
            p = rng.standard_normal((count, D))
            p /= np.sqrt(np.add.reduce(p * p, axis=1, keepdims=True))
            r = r_min * np.exp(rng.uniform(0.0, np.log(r_max / r_min),
                                           size=count))
            p *= r[:, None]
            density = 1.0 / (_sphere_area(D) * r ** (D - 1) * r
                             * np.log(r_max / r_min))
        if m == 1:
            directions = np.array([[1.0], [-1.0]])
            index = (rng.standard_normal(count) < 0).astype(np.intp)
        else:
            # Haar on O(m): QR of a Gaussian matrix, with the signs of the
            # triangular factor's diagonal moved into Q (Mezzadri, Notices
            # AMS 54 (2007))
            q, tri = np.linalg.qr(rng.standard_normal((m, m)))
            directions = _sphere_points(m) @ (q * np.sign(np.diag(tri))).T
            directions /= np.linalg.norm(directions, axis=1, keepdims=True)
            index = np.arange(count) % SPHERE_POINTS  # node j: point j mod K
        weight = _sphere_area(m) / (self.budget * density)
        if np.ndim(weight) == 0:
            weight = np.full(count, float(weight))
        return p, directions, index, weight

    # -- geometry of the parameterization ----------------------------------

    def _assemble(self, params) -> NodeChunk:
        """The nodes of a slice ``params`` of a chunk's draws, in place."""
        p, directions, index, weight = params
        sigma = directions.take(index, axis=0)
        model = self.model
        d, m = model.tangential_dim, model.m
        scale = self.epsilon ** (m - 1)
        zeta = np.empty((len(p), model.n), dtype=complex)
        conormal = np.empty_like(zeta)
        # the (Re, Im) parameter pairs of z' are complex numbers in memory
        zp = np.add(self.center_zp, p[:, :2 * d].view(complex),
                    out=zeta[:, :d])
        np.add(self.center_u, p[:, 2 * d:2 * d + m], out=zeta.real[:, d:])
        # one contraction H_k z' for the graph heights and the conormal
        hz = model.levi_products(zp)                          # (N, m, d)
        np.add(levi_heights(hz, zp), self.epsilon * sigma,
               out=zeta.imag[:, d:])
        # the conormal eps^(m-1) (-2 S, i sigma), S = sigma . H z'
        np.multiply((sigma[:, None] @ hz)[:, 0], -2.0 * scale,
                    out=conormal[:, :d])
        conormal.real[:, d:] = 0.0
        np.multiply(sigma, scale, out=conormal.imag[:, d:])
        return NodeChunk(zeta=zeta, weight=weight, conormal=conormal,
                         surface_jac=np.linalg.norm(conormal, axis=1),
                         sigma=sigma, directions=directions,
                         direction_index=index)

    # -- header --------------------------------------------------------------

    def header(self) -> dict:
        """The parameters that fix the node stream, as JSON values."""
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
            "r_min_factor": R_MIN_FACTOR,
        }


def _sphere_area(D):
    """Area of the unit sphere S^(D-1) in R^D, 2 pi^(D/2) / Gamma(D/2).

    For D = 1 it is the counting measure of {-1, +1}.
    """
    from math import gamma
    return 2.0 * np.pi ** (D / 2) / gamma(D / 2.0)


def _sphere_points(m):
    """The fixed K-point set on S^(m-1), (K, m), that each chunk rotates: the
    regular K-gon for m = 2; for m >= 3, K / 2 seeded Gaussian directions
    and their antipodes, so the set's mean is exactly zero."""
    if m == 2:
        return direction_grid(2, SPHERE_POINTS)
    half = np.random.default_rng(m).standard_normal((SPHERE_POINTS // 2, m))
    half /= np.linalg.norm(half, axis=1, keepdims=True)
    return np.concatenate([half, -half])


def _sphere_tangent_basis(sigma):
    """Orthonormal tangent bases of S^(m-1) at each sigma, (N, m, m-1): the
    sphere columns of the dense velocity matrix in ``tests/oracles.py``.

    One stacked QR of [sigma | I]: the first column of each Q is +-sigma and
    the remaining columns span the tangent space.
    """
    N, m = sigma.shape
    eye = np.broadcast_to(np.eye(m), (N, m, m))
    q, _ = np.linalg.qr(np.concatenate([sigma[:, :, None], eye], axis=2))
    return q[:, :, 1:]

