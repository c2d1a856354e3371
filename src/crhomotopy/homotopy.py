"""Solution and obstruction operators by oriented surface quadrature.

The solution operator integrates the interpolated kernel over the level set
times the unit interval; the obstruction operator integrates the pure barrier
kernel over the level set.  Both pull the integrand form back through the
level-set parameterization, which reduces every monomial to a complex
determinant of the velocity columns.

Functional rows are ordered [dzetabar block (one index missing) | dzeta
block | dt last].  The dt row pairs only with the unit-interval direction,
contributing a fixed sign (-1)^n after being moved past the dzeta block; the
remaining (2n-1) square block is the minor det9[k].  Times the orientation
sign it is closed-form, (2i)^n / 2 * (-1)^k times the node's scaled
conormal eps^(m-1) (-2 S, i sigma) (see :mod:`crhomotopy.quadrature`), so
no per-node determinant is taken; the dense determinants are the test
oracle.

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

The identity residual needs dbar_M R_1 f, the conjugate-frame derivative
sum_l conj(a_il) d/dzbar_l of the degree-0 value.  It is analytic: the
mixed section jets d gamma / d zbar (closed form for the euclidean section;
for the barrier, P is affine in zbar with zeta-only coefficients) are
contracted with the adjoint dT / d gamma_t of the folded total, per block
of nodes, in the same pass that forms the value (:func:`_tangent_block`).
The 16-point finite-difference stencil (:func:`tangential_dbar_scalar`) is
its test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from ._util import (RunningSum, evaluate_form, hodge_star, index_combinations,
                    wedge_jets)
from .errors import GridTooCoarseError
from .fields import (FormField, conjugate_frame_rows, lazy_field,
                     tangential_components, wedge_covector_values)
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
                         t_rule=((1.0, 1.0),), tangent=None):
    """Sum over nodes and M of W[:, M] * coef[:, L, M], shape (nL,), with no
    coefficient formed.

    Without ``tau`` (obstruction kind) coef[:, L, M] = det[eta | beta_L |
    gamma_M]; with it (solution kind) coef is the sum over (t, weight) in
    ``t_rule`` of weight * det[eta | beta_t L | gamma_t M | tau], beta_t and
    gamma_t running linearly from ``start`` = (beta0, gamma0) at t = 0 to
    (beta, gamma) at t = 1.  The nodes are taken in blocks of BLOCK.

    ``tangent`` (solution kind, r_out = 0) is the pair of ``along``
    functions of the t = 0 and t = 1 section jets (see
    :func:`~crhomotopy.sections.bochner_martinelli_jets`); the derivatives
    of the sum along their directions are then returned too, as (sum,
    derivatives), by :func:`_tangent_block`.
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
    d_total = 0.0
    for lo in range(0, N, BLOCK):
        blk = slice(lo, lo + BLOCK)
        gammas = [at(g0, g1, t) for t, _ in t_rule]
        gs = [weight * evaluate_form(W[:, blk], g, n, k, k)
              for g, (_, weight) in zip(gammas, t_rule)]
        if r_out:
            acc = sum(evaluate_form(star_front(G), at(b0, b1, t), n, r_out,
                                    r_out) for G, (t, _) in zip(gs, t_rule))
        elif tangent is None:   # no beta column: one eta ^ tau wedge
            acc = star_front(sum(gs))
        else:
            acc, d_acc = _tangent_block(W[:, blk], front[:, blk], sum(gs),
                                        gammas, t_rule,
                                        [f(blk) for f in tangent])
            d_total = d_total + d_acc
        total += acc.sum(axis=1)
    # det[eta | beta_L | gamma_M | tau] = (-1)^n (*G)(eta, tau, beta_L)
    if tau is not None:
        total, d_total = (-1.0) ** n * total, (-1.0) ** n * d_total
    return total if tangent is None else (total, d_total)


def _tangent_block(W, front, G, gammas, t_rule, along):
    """One block of the degree-0 solution total T = (*G)(eta0, tau), G =
    sum_t weight_t W(rows of gamma_t), and its derivatives D_a T along the
    directions of ``along`` = ((D eta0, D gamma0), (D eta1, D gamma1)), the
    section derivatives of shapes (B, d, n) and (B, d, n, n), tau = eta1 -
    eta0.  Returns (T per node (1, B), D T summed over the block (d,)).

    eta0 enters through no term of its own: D eta0 = beta0 v, tau and every
    gamma_t column are bilinearly orthogonal to w = zeta - z (derivatives of
    sum_k eta_k w_k = 1 with w holomorphic), so det[D eta0 | gamma_M | tau]
    has n columns in a hyperplane and vanishes.  D tau enters through the
    1-form (*G)(eta0, .).  gamma_t enters by reverse mode: T = <c, G> with
    the k-vector c = *(eta0 ^ tau), so dT / d gamma_t[s, l] = weight_t
    (-1)^(k-1) sum_R (i_s c)[R] W(rows R of gamma_t, .)[l] over the
    (k-1)-subsets R, and the adjoints, weighted (1 - t) and t, are
    contracted with D gamma0 and D gamma1.  The cost does not grow with the
    number of directions.
    """
    n, B = front.shape[0] // 2, front.shape[1]
    k = n - 2
    eta, tau = front[:n], front[n:]
    X = evaluate_form(hodge_star(G, n, k), eta, n, 2, 1)     # (*G)(eta0, .)
    (d_eta0, d_gamma0), (d_eta1, d_gamma1) = along
    d_acc = np.einsum("cN,Nac->a", X, d_eta1 - d_eta0)
    c = hodge_star(wedge_jets(np.einsum("jN,lN->Njl", tau, eta), n, 1).T, n, 2)
    ic = evaluate_form(c, np.eye(n).reshape(-1, 1), n, k, 1)
    ic = ic.reshape(n, -1, B).transpose(2, 0, 1)                    # (B, s, R)
    adjoint = [0.0, 0.0]
    for gamma, (t, weight) in zip(gammas, t_rule):
        F = evaluate_form(W, gamma, n, k, k - 1).reshape(-1, n, B)  # (R, l, B)
        adj = weight * (ic @ F.transpose(2, 0, 1))                  # (B, s, l)
        adjoint[0] = adjoint[0] + (1.0 - t) * adj
        adjoint[1] = adjoint[1] + t * adj
    d_acc = d_acc + (-1.0) ** (k - 1) * (
        np.einsum("Nsl,Nasl->a", adjoint[0], d_gamma0)
        + np.einsum("Nsl,Nasl->a", adjoint[1], d_gamma1))
    return np.sum(X * tau, axis=0, keepdims=True), d_acc


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
    # sum_l v_a[l] d ambient[0] / d zbar_l along rows v_a, when asked for
    dbar: np.ndarray = None

    def tangential(self, model, z):
        return tangential_components(model, self.ambient[None, :], z,
                                     self.degree)[0]


def _det9_blocks(conormal):
    """Oriented per-node minors of the functional rows with one dzetabar index
    removed, shape (N, n): (2i)^n / 2 * (-1)^k conormal[:, k], the node's
    orientation sign times the (2n-1) determinant of [conj(velocity) without
    row k | velocity] (see :mod:`crhomotopy.quadrature`)."""
    n = conormal.shape[1]
    return conormal * ((2j) ** n / 2 * (-1.0) ** np.arange(n))


def apply_operator_multi(model: ManifoldModel, field, z_list,
                         grid: QuadratureGrid, kind: str = "solution",
                         extension=None, _frames=None):
    """Evaluate the operator at several points over one shared node stream.

    ``field`` is one :class:`FormField` for every point, or a sequence with
    one field per point.  Node geometry (the oriented minors, a scaling of
    the chunk's conormal), the form values and the contraction weights do
    not depend on the point and are computed once per chunk and field;
    only the section jets and the contracted kernel vary with the point, and
    consecutive points at the same z share their section jets.  Returns a
    list of :class:`OperatorResult`.

    ``_frames`` (private to :func:`identity_residual`) gives per point None
    or rows v_a of shape (d, n); such a point (solution kind, degree-1
    input) also gets ``dbar``, the derivatives sum_l v_a[l] d / d zbar_l of
    its value, from the mixed section jets by :func:`_tangent_block`.
    """
    z_list = [np.asarray(z, dtype=complex) for z in z_list]
    field_of = (list(field) if isinstance(field, (list, tuple))
                else [field] * len(z_list))
    if len(field_of) != len(z_list):
        raise ValueError("need one field per evaluation point")
    frames = list(_frames) if _frames is not None else [None] * len(z_list)
    n = model.n
    plans = {id(f): _field_plan(n, f.degree, kind) for f in field_of}
    accums = [RunningSum(shape=(len(index_combinations(n, plans[id(f)][0])),))
              for f in field_of]
    d_accums = [RunningSum(shape=(len(frame),)) if frame is not None else None
                for frame in frames]
    rejected = [0] * len(z_list)
    total = 0
    project = extension if extension is not None else model.project_to_manifold

    for chunk in grid.chunks():
        total += chunk.zeta.shape[0]
        on_manifold = project(chunk.zeta)
        det9 = None
        weights = {}                                    # id(field) -> (live, W)
        shared = None                   # (z, section jets) of the last point
        for zi, (f, z, frame) in enumerate(zip(field_of, z_list, frames)):
            r_out, sign = plans[id(f)]
            if id(f) not in weights:
                g_vals = f.values(model, on_manifold)  # (N, nJ)
                live = np.any(g_vals != 0, axis=1)
                if np.any(live) and det9 is None:
                    det9 = _det9_blocks(chunk.conormal)  # (N, n)
                weights[id(f)] = live, (_fold_weights(
                    g_vals * chunk.weight[:, None], det9, f.degree)
                    if np.any(live) else None)
            live, W = weights[id(f)]
            if W is None:
                accums[zi].add(np.zeros(accums[zi].shape, dtype=complex))
                if frame is not None:
                    d_accums[zi].add(np.zeros(len(frame), dtype=complex))
                continue
            if frame is not None or shared is None or not np.array_equal(
                    shared[0], z):
                shared = z, (
                    barrier_section_jets(model, chunk.zeta, z, frame),
                    bochner_martinelli_jets(chunk.zeta, z, frame)
                    if kind == "solution" else None)
            (eta1, beta1, gamma1, phi, *along1), euclid = shared[1]
            bad = np.abs(phi) < PHASE_REJECT_FACTOR * grid.epsilon
            rejected[zi] += int(np.sum(bad & live))
            W_kept = W * ~bad[:, None]
            if kind == "solution":
                eta0, beta0, gamma0, *along0 = euclid
                folded = _folded_coefficients(
                    W_kept, eta0, beta1, gamma1, r_out, tau=eta1 - eta0,
                    start=(beta0, gamma0),
                    t_rule=tuple(zip(grid.t_nodes, grid.t_weights)),
                    tangent=along0 + along1 if frame is not None else None)
            else:
                folded = _folded_coefficients(W_kept, eta1, beta1, gamma1,
                                              r_out)
            if frame is not None:
                folded, d_folded = folded
                d_accums[zi].add(0.0 + sign * d_folded)
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
        out.append(OperatorResult(
            ambient=prefactor * accums[zi].total(),
            degree=plans[id(field_of[zi])][0], rejected=rejected[zi],
            total_nodes=total,
            dbar=(prefactor * d_accums[zi].total()
                  if frames[zi] is not None else None)))
    return out


def apply_operator(model: ManifoldModel, field: FormField, z,
                   grid: QuadratureGrid, kind: str = "solution",
                   extension=None) -> OperatorResult:
    """Evaluate the solution (interpolated kernel, with t-integral) or
    obstruction (pure barrier kernel) operator at a single point."""
    return apply_operator_multi(model, field, [z], grid, kind=kind,
                                extension=extension)[0]


# ---------------------------------------------------------------------------
# tangential derivative of quadrature-backed scalars (finite differences: the
# test oracle of the analytic dbar that identity_residual uses)
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
    rejected: int       # the larger rejected count of the pass's two integrals
    total_nodes: int


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
                      box_radius: float = 0.7, extension=None):
    """Residual of f = dbar_M R_1 f + R_2 dbar_M f at the given points.

    The first term is the analytic conjugate-frame derivative of the
    quadrature value R_1 f: Wbar_i = sum_l conj(a_il) d/dzbar_l, a_i the
    holomorphic tangent rows, through the mixed section jets (the stencil of
    :func:`tangential_dbar_scalar` is its finite-difference oracle; the
    graph projection of the stencil points is the identity to first order
    along the complex tangent).  The second term integrates the analytic
    differential of the test form.  Both terms are evaluated at z alone,
    with one set of section jets per chunk, in one pass over one node
    stream.
    The obstruction term vanishes pointwise for input degree below the
    concavity parameter and is not assembled here.
    """
    if field.degree != 1:
        raise ValueError("identity residual is implemented for (0,1) inputs")
    dbar_field = field.dbar_field(model)
    rows = []
    for idx, z in enumerate(z_points):
        z = np.asarray(z, dtype=complex)
        zp, w = model.split(z)
        grid = QuadratureGrid(model=model, epsilon=epsilon, budget=budget,
                              mode="mc-shell", seed=seed + idx,
                              center_zp=zp, center_u=w.real,
                              box_radius=box_radius)
        r1, r2 = apply_operator_multi(
            model, [field, dbar_field], [z, z], grid, kind="solution",
            extension=extension,
            _frames=[conjugate_frame_rows(model, z), None])
        dbar_r1_tan = r1.dbar
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
            },
            rejected=max(r1.rejected, r2.rejected),
            total_nodes=r1.total_nodes))
    return rows

