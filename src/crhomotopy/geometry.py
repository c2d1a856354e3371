"""Quadric CR models: defining functions, the Levi pencil, concavity
certification, the modified defining form and the holomorphic tangent rows.

A model is the graph quadric

    rho_k(z) = Im w_k - <H_k z', z'>,   z = (z', w) in C^(n-m) x C^m,

with Hermitian matrices H_k.  All first and second derivatives are analytic,
so downstream quadrature error is never polluted by geometric approximation.

Sign convention (single source of truth): the complex (mixed) Hessian of
rho_k on the z'-block, as the matrix F of the Hermitian form  v -> v^H F v,
equals -H_k.  The Levi pencil :meth:`ManifoldModel.levi_pencil` is the mixed
Hessian of the combination sum_k theta_k rho_k, i.e. -theta . H, batched over
directions theta; every Levi consumer (the certificate, the modified form,
the barrier's correction frames and jets) reads it.  Its nonpositive
eigendirections are exactly the directions the barrier's quadratic
correction must cover; certification over the whole direction sphere is
invariant under the sign flip theta -> -theta.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ModelParseError, ModelValidationError

TOL_EIG = 1e-9
TOL_HERMITIAN = 1e-12
FRAME_GAP_WARN = 1e-6
CORRECTION_MARGIN = 1.25
# the amplitude search: the margin it asks for, and the amplitudes it tries
AMPLITUDE_TARGET = 0.05
AMPLITUDES = tuple(0.25 * 2 ** k for k in range(10))


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

@dataclass
class ManifoldModel:
    """Graph quadric CR model of codimension m in C^n.

    n       ambient complex dimension (>= 3)
    m       real codimension (1 <= m < n - 1; m = 1 accepted for tests)
    q       concavity parameter (certification target; >= 1)
    hermitian  list of m Hermitian (n-m) x (n-m) arrays
    radius  coordinate chart radius
    """

    n: int
    m: int
    q: int
    hermitian: list
    radius: float = 1.0
    name: str = "model"

    def __post_init__(self):
        self.hermitian = [np.asarray(h, dtype=complex) for h in self.hermitian]
        if self.n < 3:
            raise ModelValidationError("ambient dimension n must be >= 3")
        if not (1 <= self.m < self.n - 1):
            raise ModelValidationError("codimension m must satisfy 1 <= m < n-1")
        if self.q < 1:
            raise ModelValidationError("concavity parameter q must be >= 1")
        if self.q > self.n - self.m:
            raise ModelValidationError(
                "q exceeds the complex tangential dimension n-m")
        if len(self.hermitian) != self.m:
            raise ModelValidationError(
                f"expected {self.m} Hermitian matrices, got {len(self.hermitian)}")
        d = self.n - self.m
        for k, h in enumerate(self.hermitian):
            if h.shape != (d, d):
                raise ModelValidationError(
                    f"matrix {k + 1} has shape {h.shape}, expected {(d, d)}")
            if not np.all(np.isfinite(h)):
                raise ModelValidationError(
                    f"matrix {k + 1} has non-finite entries")
            if np.max(np.abs(h - h.conj().T)) > TOL_HERMITIAN:
                raise ModelValidationError(f"matrix {k + 1} is not Hermitian")
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ModelValidationError("chart radius must be finite and positive")
        self.tol_on_manifold = 1e-9 * self.radius
        # (m, d, d) stack of the H_k, real (real arithmetic) if every H_k is
        H = np.stack(self.hermitian)
        self.hermitian_stack = H = H if H.imag.any() else H.real.copy()
        # flat layouts [j, (k, i)] of H_k z' and [i, (k, j)] of conj(z') H_k,
        # complex like z': one GEMM each, np.tensordot's without its rebuild
        self._column_layout, self._row_layout = (
            H.transpose(axes).reshape(self.n - self.m, -1).astype(complex)
            for axes in ((2, 0, 1), (1, 0, 2)))
        # d(rho_1) ^ ... ^ d(rho_m) != 0 holds automatically for graph
        # quadrics: the Im w_k gradient components form an identity block.

    # -- coordinates ------------------------------------------------------

    @property
    def tangential_dim(self) -> int:
        return self.n - self.m

    def split(self, z):
        z = np.asarray(z, dtype=complex)
        return z[..., :self.tangential_dim], z[..., self.tangential_dim:]

    def height(self, zp):
        """Graph heights h_k(z') = <H_k z', z'> (real array, shape (..., m))."""
        zp = np.asarray(zp, dtype=complex)
        return levi_heights(self.levi_products(zp), zp)

    def levi_products(self, zp):
        """The contractions H_k z', shape (..., m, d), of points (..., d)."""
        d = self.tangential_dim
        return np.dot(zp.reshape(-1, d), self._column_layout
                      ).reshape(zp.shape[:-1] + (self.m, d))

    def defining_values(self, z):
        """(rho_1, ..., rho_m) and the Euclidean norm rho(z)."""
        zp, w = self.split(z)
        vec = w.imag - self.height(zp)
        return vec, np.linalg.norm(vec, axis=-1)

    def graph_point(self, zp, re_w, rho_vec=None):
        """Assemble z with Im w_k = h_k(z') + rho_k (rho_vec defaults to 0)."""
        zp = np.asarray(zp, dtype=complex)
        re_w = np.asarray(re_w, dtype=float)
        im_w = self.height(zp)
        if rho_vec is not None:
            im_w = im_w + np.asarray(rho_vec, dtype=float)
        return np.concatenate([zp, re_w + 1j * im_w], axis=-1)

    def project_to_manifold(self, z):
        """Graph projection: reset Im w to the on-manifold height."""
        zp, w = self.split(z)
        return self.graph_point(zp, w.real)

    # -- derivatives (all exact for the quadric) --------------------------

    def holo_gradients(self, z):
        """All m holomorphic gradients stacked, shape (..., m, n)."""
        zp, d, m = self.split(z)[0], self.tangential_dim, self.m
        g = np.zeros(zp.shape[:-1] + (m, self.n), dtype=complex)
        g[..., :d] = -np.dot(zp.conj().reshape(-1, d), self._row_layout
                             ).reshape(zp.shape[:-1] + (m, d))
        g[..., range(m), range(d, d + m)] = 1.0 / 2.0j
        return g

    def levi_pencil(self, thetas):
        """Levi matrices -theta . H of sum_k theta_k rho_k on the z'-block,
        shape (..., d, d) for directions (..., m); real when every H_k is."""
        thetas, H = np.asarray(thetas), self.hermitian_stack
        return -np.dot(thetas.reshape(-1, self.m), H.reshape(self.m, -1)
                       ).reshape(thetas.shape[:-1] + H.shape[1:])

    def levi_form_full(self, thetas):
        """Full n x n form matrices of sum_k theta_k rho_k, (..., n, n): the
        pencil padded by the zero w-block."""
        thetas = np.asarray(thetas, dtype=float)
        d = self.tangential_dim
        out = np.zeros(thetas.shape[:-1] + (self.n, self.n), dtype=complex)
        out[..., :d, :d] = self.levi_pencil(thetas)
        return out

    # -- identity ---------------------------------------------------------

    def content_hash(self) -> str:
        payload = [self.n, self.m, self.q, self.radius]
        for h in self.hermitian:
            payload.extend(np.round(h, 14).ravel().view(float).tolist())
        digest = hashlib.sha256(repr(payload).encode()).hexdigest()
        return digest[:16]


# ---------------------------------------------------------------------------
# direction grids and the concavity certificate
# ---------------------------------------------------------------------------

def levi_heights(hz, zp):
    """Graph heights h_k(z') = <H_k z', z'> from the contractions hz = H_k
    z', shape (..., m, d), of the points zp (..., d)."""
    return np.einsum("...ki,...i->...k", hz, zp.conj()).real


def direction_grid(m: int, resolution: int = 16) -> np.ndarray:
    """Deterministic grid on the unit sphere S^(m-1), shape (count, m)."""
    if m == 1:
        return np.array([[1.0], [-1.0]])
    if m == 2:
        ang = 2.0 * np.pi * np.arange(resolution) / resolution
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    if m == 3:
        pts = [np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])]
        for i in range(1, resolution):
            phi = np.pi * i / resolution
            for j in range(resolution):
                psi = 2.0 * np.pi * j / resolution
                pts.append(np.array([np.sin(phi) * np.cos(psi),
                                     np.sin(phi) * np.sin(psi),
                                     np.cos(phi)]))
        return np.array(pts)
    raise ModelValidationError(f"direction grids implemented for m <= 3, got {m}")


@dataclass
class ConcavityReport:
    passed: bool
    required: int
    min_negative: int
    min_positive: int
    worst_direction: np.ndarray
    resolution: int
    frame_gap_warnings: list = field(default_factory=list)

    def to_json_dict(self):
        return {
            "passed": self.passed,
            "required": self.required,
            "min_negative_eigenvalues": self.min_negative,
            "min_positive_eigenvalues": self.min_positive,
            "worst_direction": [float(x) for x in self.worst_direction],
            "resolution": self.resolution,
            "frame_gap_warnings": self.frame_gap_warnings,
        }


def certify_concavity(model: ManifoldModel, resolution: int = 16) -> ConcavityReport:
    """Certify that every sampled direction sees >= q negative eigenvalues.

    One batched eigvalsh of the Levi pencil over the direction grid gives
    the counts, the first direction of fewest negative eigenvalues and the
    directions where the kept/dropped eigenvalue gap of the correction frame
    nearly closes, since frame smoothness degrades there.  FAIL is a report
    outcome, not an exception.
    """
    if model.m > 1 and resolution < 8:
        raise ModelValidationError("need at least 8 grid points per angle")
    grid = direction_grid(model.m, resolution)
    evals = np.linalg.eigvalsh(model.levi_pencil(grid))     # (count, d)
    neg = np.sum(evals < -TOL_EIG, axis=1)
    worst = int(np.argmin(neg))
    warnings = []
    split_at = model.n - model.q - model.m
    if 0 < split_at < model.tangential_dim:
        gap = evals[:, split_at] - evals[:, split_at - 1]
        warnings = [{"direction": [float(x) for x in grid[i]],
                     "gap": float(gap[i])}
                    for i in np.flatnonzero(gap < FRAME_GAP_WARN)]
    return ConcavityReport(
        passed=bool(neg[worst] >= model.q),
        required=model.q,
        min_negative=int(neg[worst]),
        min_positive=int(np.min(np.sum(evals > TOL_EIG, axis=1))),
        worst_direction=grid[worst],
        resolution=resolution,
        frame_gap_warnings=warnings,
    )


# ---------------------------------------------------------------------------
# defining-function modification (extra plurisubharmonic weight)
# ---------------------------------------------------------------------------

def directional_modified_form(model: ManifoldModel, thetas, z,
                              amplitude: float) -> np.ndarray:
    """Form matrices of (sum_k theta_k rho_k) + amplitude * sum_i rho_i^2
    at z, shape (..., n, n) over the broadcast leading axes of thetas
    (..., m) and z (..., n).

    The weight's form is 2 amplitude (sum_i conj(g_i) g_i^T + levi(rho_vec)),
    g_i the holomorphic gradients.  It is applied to the directional
    combination itself: combining the individually modified functions
    linearly in theta flips the weight's sign on half the sphere and can
    never be positive there.
    """
    vec, _ = model.defining_values(z)
    g = model.holo_gradients(z)                              # (..., m, n)
    weight = np.einsum("...ia,...ib->...ab", g.conj(), g) \
        + model.levi_form_full(vec)
    return model.levi_form_full(thetas) + 2.0 * amplitude * weight


def find_modification_amplitude(model: ManifoldModel, points,
                                resolution=16) -> dict:
    """Smallest amplitude of AMPLITUDES making the modified directional form
    positive with margin AMPLITUDE_TARGET on its top (q + m)-dimensional
    eigenspace, jointly with the scaled correction, over sampled (theta, z):
    one stacked eigvalsh over every (z, theta) pair per amplitude.

    The points must lie on the manifold (ValueError otherwise): there the
    weight is positive semidefinite, so positivity grows with the amplitude.
    Off it, the weight's Levi term levi(rho_vec) is indefinite and the
    lowest eigenvalue can fall as the amplitude grows.
    """
    from .barrier import _frames_for_thetas  # barrier imports this module
    grid = direction_grid(model.m, resolution)
    G, _ = _frames_for_thetas(model, grid, with_derivative=False)
    z = np.asarray(points, dtype=complex).reshape(-1, 1, model.n)
    if np.any(model.defining_values(z)[1] > model.tol_on_manifold):
        raise ValueError("amplitude search needs points on the manifold")
    d = model.tangential_dim
    for amp in AMPLITUDES:
        form = directional_modified_form(model, grid, z, amp)  # (P, T, n, n)
        form[..., :d, :d] += G
        if not np.any(np.linalg.eigvalsh(form)[..., 0] < AMPLITUDE_TARGET):
            return {"amplitude": float(amp), "margin": float(AMPLITUDE_TARGET),
                    "resolution": resolution}
    return {"amplitude": None, "margin": float(AMPLITUDE_TARGET),
            "resolution": resolution}


# ---------------------------------------------------------------------------
# holomorphic tangent rows
# ---------------------------------------------------------------------------

def holomorphic_tangent_rows(model: ManifoldModel, z):
    """Rows of W_i = d/dz'_i + 2i sum_l conj((H_l z')_i) d/dw_l.

    Supports batched points: z of shape (..., n) gives (..., n-m, n).  The
    w-columns are -2i times the transposed z'-part of the holomorphic
    gradients, so each row annihilates every d(rho_k).
    """
    z = np.asarray(z, dtype=complex)
    d = model.tangential_dim
    g = model.holo_gradients(z)                              # (..., m, n)
    rows = np.zeros(z.shape[:-1] + (d, model.n), dtype=complex)
    rows[..., range(d), range(d)] = 1.0
    rows[..., d:] = -2.0j * np.swapaxes(g[..., :d], -1, -2)
    return rows


# ---------------------------------------------------------------------------
# model files
# ---------------------------------------------------------------------------

def parse_model_text(text: str, name: str = "model") -> ManifoldModel:
    """Parse the plain-text model format.

    Scalar lines ``key = value`` for n, m, q, radius, each at most once;
    each matrix introduced by a line ``H <k>``, k in 1..m and at most once,
    followed by n-m rows of comma-separated "re,im" pairs separated by
    whitespace.
    """
    scalars = {}
    matrices = {}           # k -> (line of the H k header, rows)
    rows = None             # the rows of the open matrix block

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            rows = None
            key, _, val = line.partition("=")
            key = key.strip().lower()
            val = val.strip()
            if key not in ("n", "m", "q", "radius"):
                raise ModelParseError(f"line {lineno}: unknown key {key!r}")
            if key in scalars:
                raise ModelParseError(f"line {lineno}: repeated key {key!r}")
            try:
                scalars[key] = float(val) if key == "radius" else int(val)
            except ValueError as exc:
                raise ModelParseError(
                    f"line {lineno}: bad value for {key!r}: {val!r}") from exc
            continue
        if line.upper().startswith("H"):
            parts = line.split()
            if len(parts) != 2 or not parts[1].isdigit():
                raise ModelParseError(f"line {lineno}: bad matrix header {line!r}")
            k = int(parts[1])
            if k in matrices:
                raise ModelParseError(
                    f"line {lineno}: repeated matrix block H {k}")
            rows = []
            matrices[k] = lineno, rows
            continue
        if rows is None:
            raise ModelParseError(f"line {lineno}: unexpected content {line!r}")
        entries = []
        for tok in line.split():
            pieces = tok.split(",")
            if len(pieces) != 2:
                raise ModelParseError(
                    f"line {lineno}: matrix row entry {tok!r} is not 're,im'")
            try:
                entries.append(complex(float(pieces[0]), float(pieces[1])))
            except ValueError as exc:
                raise ModelParseError(
                    f"line {lineno}: matrix row entry {tok!r} is not numeric") from exc
        rows.append(entries)

    for key in ("n", "m", "q"):
        if key not in scalars:
            raise ModelParseError(f"missing scalar {key!r}")
    n, m, q = scalars["n"], scalars["m"], scalars["q"]
    radius = scalars.get("radius", 1.0)
    for k, (lineno, _) in matrices.items():
        if not 1 <= k <= m:
            raise ModelParseError(
                f"line {lineno}: matrix block H {k} outside 1..{m}")
    d = n - m
    herm = []
    for k in range(1, m + 1):
        if k not in matrices:
            raise ModelParseError(f"missing matrix block H {k}")
        mat = matrices[k][1]
        if len(mat) != d or any(len(r) != d for r in mat):
            raise ModelParseError(
                f"matrix H {k}: expected {d} rows of {d} entries")
        herm.append(np.array(mat, dtype=complex))
    return ManifoldModel(n=n, m=m, q=q, hermitian=herm, radius=radius, name=name)


def _read_model(source, name) -> ManifoldModel:
    """Parse the UTF-8 text of ``source`` (a path or a package resource); a
    source that cannot be read raises :class:`ModelParseError`."""
    try:
        text = source.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelParseError(f"cannot read model {name!r}: {exc}") from exc
    return parse_model_text(text, name=name)


def load_model_file(path) -> ManifoldModel:
    return _read_model(Path(path), str(path))


def load_bundled_model(name: str) -> ManifoldModel:
    """Load a model shipped with the package (e.g. "sig22_n5"); a name that
    is not the stem of a shipped model file, such as a path, raises
    :class:`ModelParseError`."""
    models = resources.files("crhomotopy").joinpath("models")
    shipped = sorted(p.name.removesuffix(".model") for p in models.iterdir()
                     if p.name.endswith(".model"))
    if name not in shipped:
        raise ModelParseError(f"cannot read model {name!r}: not a bundled "
                              f"model ({', '.join(shipped)})")
    return _read_model(models.joinpath(f"{name}.model"), name)
