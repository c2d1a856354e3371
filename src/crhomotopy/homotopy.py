"""Solution and obstruction operators by oriented surface quadrature.

The solution operator integrates the interpolated kernel over the level set
times the unit interval; the obstruction operator integrates the pure barrier
kernel over the level set.  Both pull the integrand form back through the
level-set parameterization: the form is contracted against the velocity
columns of each node, which reduces every monomial to a complex determinant.

Determinant factorization per node: functional rows are ordered
[dzetabar block (one index missing) | dzeta block | dt last].  The dt row
pairs only with the unit-interval direction, contributing a fixed sign
(-1)^n after being moved past the dzeta block; the remaining (2n-1) square
block is the per-node determinant det9[k].  This factorization is validated
against a dense determinant in the test suite.

Solution coefficients are det[eta0 | beta_t... | gamma_t... | tau], since the
t tau part of eta_t = eta0 + t tau cancels against the tau column: the
t-integrand has degree n - 2 and n // 2 Gauss-Legendre nodes are exact.  The
weighted degree-r form values g and det9 fold into the per-chunk weights
W = (-1)^(r n) i_delta *g, delta_j = (-1)^j det9[j], of degree k = n - 1 - r,
and the sum over M is taken before any coefficient is formed (generalized
Laplace expansion): sum_M W_M gamma_M is the k-vector G with G[S] = W(rows S
of gamma), k interior products of the k-form W, and the (n - k)-form *G(u) =
sum_M W_M det[u | gamma_M] gives every total as (-1)^n (*G)(eta, tau, beta_L)
(solution) or (*G)(eta, beta_L) (obstruction).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from ._util import RunningSum, evaluate_form, hodge_star, index_combinations
from .errors import GridTooCoarseError
from .fields import (FormField, lazy_field, tangential_components,
                     wedge_covector_values)
from .geometry import ManifoldModel, holomorphic_tangent_rows
from .quadrature import QuadratureGrid
from .sections import barrier_section_jets, bochner_martinelli_jets

PHASE_REJECT_FACTOR = 1e-10
REJECT_LIMIT = 0.01
BLOCK = 512             # nodes per kernel block: its gathers stay in cache


# ---------------------------------------------------------------------------
# coefficient assembly plans
# ---------------------------------------------------------------------------

def _fold_weights(gw, det9, r):
    """Point-independent contraction weights of one chunk, shape (N, nM):
    W = (-1)^(r n) i_delta *g, the weighted degree-r field g = gw contracted
    with delta_k = (-1)^k det9[:, k], so nM = C(n, n - 1 - r).  Term by term,
    W[:, M] sums sign(J + M) * gw[:, J] * det9[:, k] over the k and J that
    complete M to range(n), sign(J + M) being that of the sorting
    permutation.  A point's chunk total is then the sum over nodes and M of
    W[:, M] * coef[:, L, M]."""
    n = det9.shape[1]
    delta = det9.T * ((-1.0) ** (np.arange(n) + r * n))[:, None]
    return evaluate_form(hodge_star(gw.T, n, r), delta, n, n - r, 1).T


def _folded_coefficients(W, eta, beta, gamma, r_out, tau=None, start=None,
                         t_rule=((1.0, 1.0),)):
    """Sum over nodes and M of W[:, M] * coef[:, L, M], shape (nL,), with no
    coefficient formed.

    Without ``tau`` (obstruction kind) coef[:, L, M] = det[eta | beta_L |
    gamma_M]; with it (solution kind) coef is the sum over (t, weight) in
    ``t_rule`` of weight * det[eta | beta_t L | gamma_t M | tau], beta_t and
    gamma_t running linearly from ``start`` = (beta0, gamma0) at t = 0 to
    (beta, gamma) at t = 1.  The nodes are taken in blocks of BLOCK.
    """
    N, n = eta.shape
    front = eta.T if tau is None else np.concatenate([eta.T, tau.T])
    k = n - len(front) // n - r_out

    def layout(b, g):       # beta columns and gamma rows, (vector * n + c, N)
        return (b.transpose(2, 1, 0).reshape(n * n, N) if r_out else None,
                g.transpose(1, 2, 0).reshape(n * n, N))

    def at(zero, one, t):   # block of the jet at t
        return (one[:, blk] if zero is None
                else (1 - t) * zero[:, blk] + t * one[:, blk])

    def star_front(G):      # (*G)(eta, tau, .) or (*G)(eta, .) on the block
        return evaluate_form(hodge_star(G, n, k), front[:, blk], n, n - k,
                             n - k - r_out)

    W = W.T
    b1, g1 = layout(beta, gamma)
    b0, g0 = layout(*start) if start is not None else (None, None)
    total = np.zeros(len(index_combinations(n, r_out)), dtype=complex)
    for lo in range(0, N, BLOCK):
        blk = slice(lo, lo + BLOCK)
        gs = [weight * evaluate_form(W[:, blk], at(g0, g1, t), n, k, k)
              for t, weight in t_rule]
        if r_out:
            acc = sum(evaluate_form(star_front(G), at(b0, b1, t), n, r_out,
                                    r_out) for G, (t, _) in zip(gs, t_rule))
        else:   # no beta column: one eta ^ tau wedge for every t-node
            acc = star_front(sum(gs))
        total += acc.sum(axis=1)
    # det[eta | beta_L | gamma_M | tau] = (-1)^n (*G)(eta, tau, beta_L)
    return total if tau is None else (-1.0) ** n * total


def _field_plan(n, r, kind):
    """(r_out, sign) of the operator on degree-r input."""
    r_out = {"solution": r - 1, "obstruction": r}.get(kind)
    if r_out is None:
        raise ValueError(f"unknown kind {kind!r}")
    if r_out < 0:
        raise ValueError("solution operator needs input degree >= 1")
    if r_out > n - 1:
        raise ValueError("output degree exceeds the form bound")
    sign = (-1.0) ** (r * r_out)
    if kind == "solution":
        # (-1)^n moves the dt row past the dzeta block; the extra flip
        # realizes the interval-first product orientation, calibrated once
        # against the reproduction identity (see tests)
        sign *= -((-1.0) ** n)
    return r_out, sign


# ---------------------------------------------------------------------------
# kernel application
# ---------------------------------------------------------------------------

@dataclass
class OperatorResult:
    """Quadrature value of an operator at one evaluation point."""

    ambient: np.ndarray          # coefficients over increasing tuples
    degree: int
    rejected: int
    total_nodes: int

    def tangential(self, model, z):
        return tangential_components(model, self.ambient[None, :], z,
                                     self.degree)[0]


def _det9_blocks(velocity):
    """Per-node determinants of the functional rows with one dzetabar index
    removed, shape (N, n)."""
    N, n, cols = velocity.shape
    conj_rows = velocity.conj()
    out = np.empty((N, n), dtype=complex)
    for k in range(n):
        keep = [l for l in range(n) if l != k]
        mat = np.concatenate([conj_rows[:, keep, :], velocity], axis=1)
        out[:, k] = np.linalg.det(mat)
    return out


def apply_operator_multi(model: ManifoldModel, field, z_list,
                         grid: QuadratureGrid, kind: str = "solution",
                         extension=None):
    """Evaluate the operator at several points over one shared node stream.

    ``field`` is one :class:`FormField` for every point, or a sequence with
    one field per point.  Node geometry (velocities, orientation, per-node
    determinants), the form values and the contraction weights do not depend
    on the point and are computed once per chunk and field; only the section
    jets and coefficient determinants vary with the point.  Returns a list
    of :class:`OperatorResult`.
    """
    z_list = [np.asarray(z, dtype=complex) for z in z_list]
    field_of = (list(field) if isinstance(field, (list, tuple))
                else [field] * len(z_list))
    if len(field_of) != len(z_list):
        raise ValueError("need one field per evaluation point")
    n = model.n
    plans = {id(f): _field_plan(n, f.degree, kind) for f in field_of}
    accums = [RunningSum(shape=(len(index_combinations(n, plans[id(f)][0])),))
              for f in field_of]
    rejected = [0] * len(z_list)
    total = 0
    project = extension if extension is not None else model.project_to_manifold

    for chunk in grid.chunks():
        total += chunk.zeta.shape[0]
        on_manifold = project(chunk.zeta)
        base_w = chunk.weight * chunk.orient
        det9 = None
        weights = {}                                    # id(field) -> (live, W)
        for zi, (f, z) in enumerate(zip(field_of, z_list)):
            r_out, sign = plans[id(f)]
            if id(f) not in weights:
                g_vals = f.values(model, on_manifold)  # (N, nJ)
                live = np.any(g_vals != 0, axis=1)
                if np.any(live) and det9 is None:
                    det9 = _det9_blocks(chunk.velocity)  # (N, n)
                weights[id(f)] = live, (_fold_weights(
                    g_vals * base_w[:, None], det9, f.degree)
                    if np.any(live) else None)
            live, W = weights[id(f)]
            if W is None:
                accums[zi].add(np.zeros(accums[zi].shape, dtype=complex))
                continue
            eta1, beta1, gamma1, phi = barrier_section_jets(
                model, chunk.zeta, z)
            bad = np.abs(phi) < PHASE_REJECT_FACTOR * grid.epsilon
            rejected[zi] += int(np.sum(bad & live))
            W_kept = W * ~bad[:, None]
            if kind == "solution":
                eta0, beta0, gamma0 = bochner_martinelli_jets(chunk.zeta, z)
                folded = _folded_coefficients(
                    W_kept, eta0, beta1, gamma1, r_out, tau=eta1 - eta0,
                    start=(beta0, gamma0),
                    t_rule=tuple(zip(grid.t_nodes, grid.t_weights)))
            else:
                folded = _folded_coefficients(W_kept, eta1, beta1, gamma1,
                                              r_out)
            # adding to 0.0 turns -0.0 into +0.0, so a coefficient that is
            # exactly zero is reported as 0.0
            accums[zi].add(0.0 + sign * folded)

    out = []
    for zi in range(len(z_list)):
        if rejected[zi] > REJECT_LIMIT * max(total, 1):
            raise GridTooCoarseError(
                f"{rejected[zi]}/{total} nodes rejected near the phase "
                f"singularity at point {zi}")
        r = field_of[zi].degree
        prefactor = (-1.0) ** r * factorial(n - 1) / (2.0j * np.pi) ** n
        out.append(OperatorResult(ambient=prefactor * accums[zi].total(),
                                  degree=plans[id(field_of[zi])][0],
                                  rejected=rejected[zi], total_nodes=total))
    return out


def apply_operator(model: ManifoldModel, field: FormField, z,
                   grid: QuadratureGrid, kind: str = "solution",
                   extension=None) -> OperatorResult:
    """Evaluate the solution (interpolated kernel, with t-integral) or
    obstruction (pure barrier kernel) operator at a single point."""
    return apply_operator_multi(model, field, [z], grid, kind=kind,
                                extension=extension)[0]


# ---------------------------------------------------------------------------
# tangential derivative of quadrature-backed scalars
# ---------------------------------------------------------------------------

def tangential_dbar_scalar(model: ManifoldModel, scalar_fn, z,
                           step: float = 1e-4):
    """Components of dbar_M u against the conjugate tangent frame.

    u is any function evaluable near the manifold, taken at the
    graph-projected points of :func:`conjugate_frame_stencil` (matching the
    graph-constant extension) and assembled by
    :func:`assemble_conjugate_frame_derivative`.
    """
    values = [scalar_fn(p) for p in conjugate_frame_stencil(model, z, step)]
    return assemble_conjugate_frame_derivative(values, model.tangential_dim,
                                               step)


# ---------------------------------------------------------------------------
# partition-of-unity gluing
# ---------------------------------------------------------------------------

def glue_solution(model: ManifoldModel, covers, field: FormField, z,
                  grids) -> np.ndarray:
    """Global solution operator: sum of outer-cutoff-weighted local operators
    applied to inner-cutoff localizations.  Returns ambient coefficients of
    degree r-1."""
    z = np.asarray(z, dtype=complex)
    out = None
    for pair, grid in zip(covers, grids):
        local = apply_operator(model, field.scaled_by(pair.inner), z, grid,
                               kind="solution")
        weight = complex(pair.outer.value(model, z[None, :])[0])
        term = weight * local.ambient
        out = term if out is None else out + term
    return out


def glue_obstruction(model: ManifoldModel, covers, field: FormField, z,
                     grids) -> np.ndarray:
    """Global obstruction operator: cutoff-derivative term, localized
    differential term, and local obstruction term for each cover."""
    z = np.asarray(z, dtype=complex)
    r = field.degree
    out = np.zeros(len(index_combinations(model.n, r)), dtype=complex)
    for pair, grid in zip(covers, grids):
        localized = field.scaled_by(pair.inner)
        dbar_inner = _cutoff_wedge_field(model, pair.inner, field)
        sol, rplus = apply_operator_multi(model, [localized, dbar_inner],
                                          [z, z], grid, kind="solution")
        # - dbar(outer cutoff) wedge R(inner * f)
        cov = pair.outer.d_zbar(model, z[None, :])[0]
        out -= wedge_covector_values(model.n, r - 1, cov[None, :],
                                     sol.ambient[None, :])[0]
        # + outer * R_{r+1}(dbar(inner) wedge f)
        weight = complex(pair.outer.value(model, z[None, :])[0])
        out += weight * rplus.ambient
        # + outer * H(inner * f)
        obs = apply_operator(model, localized, z, grid, kind="obstruction")
        out += weight * obs.ambient
    return out


def _cutoff_wedge_field(model, cutoff, field: FormField) -> FormField:
    """(dbar cutoff) wedge field as an evaluable form field of degree r+1."""
    def values(z):
        return wedge_covector_values(model.n, field.degree,
                                     cutoff.d_zbar(model, z),
                                     field.values(model, z))

    return lazy_field(model.n, field.degree + 1, values, "cutoff")


# ---------------------------------------------------------------------------
# homotopy identity residual
# ---------------------------------------------------------------------------

@dataclass
class ResidualRow:
    point_index: int
    epsilon: float
    budget: int
    residual: float
    f_norm: float
    components: dict


def conjugate_frame_stencil(model: ManifoldModel, z, step: float):
    """Stencil points for the conjugate-frame derivative of an on-manifold
    scalar: 4 graph-projected shifts per frame direction."""
    z = np.asarray(z, dtype=complex)
    rows = holomorphic_tangent_rows(model, z)
    points = []
    for i in range(model.tangential_dim):
        a = rows[i]
        for shift in (step * a, -step * a, step * 1j * a, -step * 1j * a):
            points.append(model.project_to_manifold(z + shift))
    return points


def assemble_conjugate_frame_derivative(values, d, step: float):
    """Wbar_i(u) = (D_a u + i D_{ia} u) / 2 from stencil values ordered as
    produced by :func:`conjugate_frame_stencil`."""
    out = np.empty(d, dtype=complex)
    for i in range(d):
        va, vam, vb, vbm = values[4 * i: 4 * i + 4]
        du = (va - vam) / (2.0 * step)
        dv = (vb - vbm) / (2.0 * step)
        out[i] = 0.5 * (du + 1j * dv)
    return out


def identity_residual(model: ManifoldModel, field: FormField, z_points,
                      epsilon: float, budget: int, seed: int = 0,
                      box_radius: float = 0.7, fd_step: float = None,
                      extension=None):
    """Residual of f = dbar_M R_1 f + R_2 dbar_M f at the given points.

    The first term differentiates the quadrature-backed scalar through the
    conjugate frame; the second term integrates the analytic differential of
    the test form.  Both terms, at every stencil point, share one pass over
    one node stream.
    The obstruction term vanishes pointwise for input degree below the
    concavity parameter and is not assembled here.
    """
    if field.degree != 1:
        raise ValueError("identity residual is implemented for (0,1) inputs")
    if fd_step is None:
        fd_step = 2e-3 * epsilon
    dbar_field = field.dbar_field(model)
    d = model.tangential_dim
    rows = []
    for idx, z in enumerate(z_points):
        z = np.asarray(z, dtype=complex)
        zp, w = model.split(z)
        grid = QuadratureGrid(model=model, epsilon=epsilon, budget=budget,
                              mode="mc-shell", seed=seed + idx,
                              center_zp=zp, center_u=w.real,
                              box_radius=box_radius)
        stencil = conjugate_frame_stencil(model, z, fd_step)
        *r1, r2 = apply_operator_multi(
            model, [field] * len(stencil) + [dbar_field], stencil + [z],
            grid, kind="solution", extension=extension)
        values = [complex(res.ambient[0]) for res in r1]
        dbar_r1_tan = assemble_conjugate_frame_derivative(values, d, fd_step)
        r2_tan = r2.tangential(model, z)
        f_tan = tangential_components(model, field.values(model, z[None, :]),
                                      z[None, :], 1)[0]
        resid = f_tan - dbar_r1_tan - r2_tan
        rows.append(ResidualRow(
            point_index=idx, epsilon=epsilon, budget=budget,
            residual=float(np.max(np.abs(resid))),
            f_norm=float(np.max(np.abs(f_tan))),
            components={
                "f_tan": f_tan.tolist(),
                "dbar_r1_tan": dbar_r1_tan.tolist(),
                "r2_tan": r2_tan.tolist(),
            }))
    return rows

