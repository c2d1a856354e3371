"""Solution and obstruction operators by oriented surface quadrature.

The solution operator integrates the interpolated kernel over the level set
times the unit interval; the obstruction operator integrates the pure barrier
kernel over the level set.  Both pull the integrand form back through the
level-set parameterization, which reduces every monomial to a minor of its
velocity matrix; the minors are closed-form in the node's conormal, so no
node carries velocity columns.

Functional rows are ordered [dzetabar block (one index missing) | dzeta
block | dt last].  The dt row pairs only with the unit-interval direction,
contributing a fixed sign (-1)^n after being moved past the dzeta block; the
remaining (2n-1) square block is the minor det9[k].  Times the orientation
sign it is closed-form, (2i)^n / 2 * (-1)^k times the node's scaled
conormal eps^(m-1) (-2 S, i sigma) (see :mod:`crhomotopy.quadrature`), so
no per-node determinant is taken; the dense determinants of the velocity
columns that ``tests/oracles.py`` rebuilds are the test oracle.

Solution coefficients are det[eta0 | beta_t... | gamma_t... | tau], since the
t tau part of eta_t = eta0 + t tau cancels against the tau column: the
t-integrand has degree n - 2 and n // 2 Gauss-Legendre nodes are exact.  The
weighted degree-r form values g and det9 fold into the weights W = (-1)^(r
n) i_delta *g, delta_j = (-1)^j det9[j], of degree k = n - 1 - r.

Each chunk of the node stream is taken in kernel blocks of BLOCK nodes: the
form values and det9 are formed once per chunk, and per block the weights,
the section jets, the rejection mask, the contraction and the accumulation
of the block's total, so that no weight or jet array spans more than a
block.  Blocks and chunks are summed in node order, so the values do not
depend on BLOCK beyond rounding.  The barrier jets take each node's
direction theta = -sigma from the chunk, so a block's nodes share one
frame per distinct direction (:mod:`crhomotopy.quadrature`).

Each coefficient is taken on n - 1 rows.  With w = zeta - z, every section
has sum_k eta_k w_k = 1, so w^T eta = 1 and the columns beta, gamma and tau
are bilinearly orthogonal to w (Range, Holomorphic Functions and Integral
Representations in Several Complex Variables, ch. IV sec. 1); replacing row
p of the matrix by w^T gives det[eta | X] = (-1)^p / w_p det(X without row
p), and eta drops out.  The pivot p = argmax_k |w_k| is chosen per node.
The sum over M is taken before any coefficient is formed (generalized
Laplace expansion): sum_M W_M gamma'_M is the k-vector G with G[S] = W(rows
S of gamma'), gamma' the n - 1 non-pivot rows, k interior products of the
k-form W, and the Hodge star in n - 1 dimensions gives every total as
(-1)^n (*G)(tau', beta'_L) (solution) or (*G)(beta'_L) (obstruction),
times (-1)^p / w_p.

The identity residual needs dbar_M R_1 f.  The operator returns the
ambient d-bar of the degree-0 value, its derivatives d/dzbar_l for every l,
and :func:`identity_residual` applies the conjugate frame once, to the
assembled residual.  The derivatives are analytic and taken in reverse mode
(Griewank and Walther, Evaluating Derivatives, 2nd ed. 2008, ch. 3), per
block of nodes, in the same pass that forms the value
(:func:`_tangent_block`): the adjoints dT / d tau' and dT / d gamma'_t of
the folded total on the non-pivot rows, scattered back to n rows, are
pulled back through the sections.  Each section returns the zbar-gradient
of the sum over the block of x . eta + <A, gamma> for adjoints x and A, in
O(n^2) per node from the rank structure of its mixed jets (closed form for
the euclidean section; for the barrier, P is affine in zbar with zeta-only
coefficients), so no mixed-jet tensor is formed; w_p has no
zbar-derivative.  The value and the adjoint share one interior-product
chain: G_t is one more level on F_t = W(rows R of gamma'_t, .).  The
16-point finite-difference stencil (``tangential_dbar_scalar`` in
``tests/oracles.py``) is its test oracle, and the full-row contraction
there (``full_row_folded_coefficients``) on the mixed-jet tensors is the
oracle of the reduction and of the pullback.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from ._util import (RunningSum, evaluate_form, gauss_legendre_01, hodge_star,
                    index_combinations)
from .errors import GridTooCoarseError
from .fields import FormField, tangential_components, wedge_covector_values
from .geometry import ManifoldModel
from .quadrature import QuadratureGrid
from .sections import barrier_section_jets, bochner_martinelli_jets

PHASE_REJECT_FACTOR = 1e-10
REJECT_LIMIT = 0.01
BLOCK = 512             # nodes per kernel block: its jets stay in cache


# ---------------------------------------------------------------------------
# coefficient assembly plans
# ---------------------------------------------------------------------------

def _fold_weights(gw, det9, r):
    """Point-independent contraction weights of a block of nodes, shape
    (N, nM): W = (-1)^(r n) i_delta *g, the weighted degree-r field g = gw
    contracted with delta_k = (-1)^k det9[:, k], so nM = C(n, n - 1 - r).
    Term by term, W[:, M] sums sign(J + M) * gw[:, J] * det9[:, k] over the
    k and J that complete M to range(n), sign(J + M) being that of the
    sorting permutation.  A point's block total is then the sum over nodes
    and M of W[:, M] * coef[:, L, M]."""
    n = det9.shape[1]
    delta = det9.T * ((-1.0) ** (np.arange(n) + r * n))[:, None]
    return evaluate_form(hodge_star(gw.T, n, r), delta, n, n - r, 1).T


def _folded_coefficients(W, w, beta, gamma, r_out, tau=None, start=None,
                         t_rule=((1.0, 1.0),), tangent=None):
    """Sum over the given nodes and M of W[:, M] * coef[:, L, M], shape
    (nL,), with no coefficient formed.

    Without ``tau`` (obstruction kind) coef[:, L, M] = det[eta | beta_L |
    gamma_M]; with it (solution kind) coef is the sum over (t, weight) in
    ``t_rule`` of weight * det[eta | beta_t L | gamma_t M | tau], beta_t and
    gamma_t running linearly from ``start`` = (beta0, gamma0) at t = 0 to
    (beta, gamma) at t = 1.  ``beta`` is read only for r_out > 0.

    eta is not an argument: with w = zeta - z, shape (N, n), every section
    has w^T eta = 1 and w^T beta = w^T gamma = w^T tau = 0 on the row index
    (the derivatives of sum_k eta_k w_k = 1, w being holomorphic in z and
    zeta - z fixed under the t-interpolation).  Replacing row p of [eta | X]
    by w^T multiplies the determinant by w_p and leaves (1, 0, ..., 0) in
    row p, so det[eta | X] = (-1)^p / w_p det(X without row p).  Per node p
    = argmax_k |w_k|, so |w_p| >= |w| / sqrt(n); the non-pivot rows of the
    jets are gathered, and W is scaled by (-1)^p / w_p.

    ``tangent`` (solution kind, r_out = 0) is the pair of ``pullback``
    functions of the t = 0 and t = 1 section jets of these nodes (see
    :func:`~crhomotopy.sections.bochner_martinelli_jets`); the zbar-gradient
    of the sum is then returned too, as (sum, gradient), by
    :func:`_tangent_block`.  On that path one
    interior-product chain serves the value and the adjoint: per t-node, F_t
    = W(rows R of gamma'_t, .) over the (k - 1)-subsets R of the n - 1 rows
    is formed once, and G_t is one more level on it, G_t[S] = sum_l F_t[S
    without its last row][l] gamma'_t[last row of S, l] (no sign: the last
    interior product meets the empty tuple).
    """
    N, n = w.shape
    k = n - 1 - r_out - (tau is not None)
    pivot = np.argmax(np.abs(w), axis=1)
    w_p = w[np.arange(N), pivot]
    # w = 0 only at zeta = z, where the phase vanishes and W is zero
    scale = (-1.0) ** pivot / np.where(w_p == 0, 1.0, w_p)
    keep = np.arange(n) != pivot[:, None]
    beta0, gamma0 = start if start is not None else (None, None)

    def rows(x):            # the non-pivot rows, (N, n - 1, ...)
        flat = x.reshape((-1,) + x.shape[2:])
        return np.compress(keep.ravel(), flat, axis=0).reshape(
            (-1, n - 1) + x.shape[2:])

    def at_t(zero, one):    # rows of the jet at each t of the rule
        one = rows(one)
        if zero is None:
            return [one] * len(t_rule)
        zero = rows(zero)
        return [(1 - t) * zero + t * one for t, _ in t_rule]

    def star_front(G):      # (*G)(tau', .) or *G, in n - 1 dimensions
        star = hodge_star(G, n - 1, k)
        return star if tau is None else evaluate_form(
            star, front, n - 1, n - 1 - k, 1)

    W = W.T * scale
    front = rows(tau).T if tau is not None else None
    # gamma rows (row * n + c, N) and beta columns (column * (n-1) + row)
    gammas = [g.transpose(1, 2, 0).reshape((n - 1) * n, -1)
              for g in at_t(gamma0, gamma)]
    d_total = 0.0
    if tangent is not None:     # G[S] reads F[S[:-1]] and row S[-1]
        prefixes = index_combinations(n - 1, k - 1)
        subsets = index_combinations(n - 1, k)
        prefix = np.array([prefixes.index(S[:-1]) for S in subsets])
        last = np.array([S[-1] for S in subsets])
        Fs = [evaluate_form(W, g, n, k, k - 1).reshape(-1, n, N)
              for g in gammas]
        G = sum(weight * np.sum(F[prefix] * g.reshape(-1, n, N)[last], 1)
                for F, g, (_, weight) in zip(Fs, gammas, t_rule))
        acc, d_total = _tangent_block(front, G, Fs, t_rule, tangent, keep)
    else:
        gs = [weight * evaluate_form(W, g, n, k, k)
              for g, (_, weight) in zip(gammas, t_rule)]
        if r_out:
            acc = sum(evaluate_form(
                star_front(G),
                b.transpose(2, 1, 0).reshape(n * (n - 1), -1),
                n - 1, r_out, r_out)
                for G, b in zip(gs, at_t(beta0, beta)))
        else:                   # no beta column: tau' alone, or a 0-form
            acc = star_front(sum(gs))
    total = acc.sum(axis=1)
    # det[beta'_L | gamma'_M | tau'] = (-1)^n (*G)(tau', beta'_L)
    if tau is not None:
        total, d_total = (-1.0) ** n * total, (-1.0) ** n * d_total
    return total if tangent is None else (total, d_total)


def _tangent_block(tau, G, Fs, t_rule, pullbacks, keep):
    """One block of the degree-0 solution total T = (*G)(tau) on the n - 1
    non-pivot rows, G = sum_t weight_t W(non-pivot rows of gamma_t) already
    scaled by (-1)^p / w_p, and its zbar-gradient, tau = eta1 - eta0.
    ``Fs`` holds F_t = W(rows R of gamma_t, .), shape (R, l, B), of each
    t-node, ``pullbacks`` the section pullbacks (x, A) -> zbar-gradient of
    the sum over the block of x . eta + <A, gamma> of the t = 0 and t = 1
    sections, and ``keep`` (B, n) marks the non-pivot rows.  Returns (T per
    node (1, B), dT / dzbar summed over the block (n,)).

    In n - 1 rows *G is the 1-form X itself, and T = X . tau.  The scale
    (-1)^p / w_p has no derivative (w is holomorphic in z, p is locally
    constant), so with D = d / dzbar_l, D T = X . D tau + the gamma terms.
    gamma_t enters by reverse mode: T = <c, G> with the (n - 2)-vector c =
    (-1)^n *tau, so dT / d gamma_t[s, l] = weight_t (-1)^(k-1) sum_R (i_s
    c)[R] F_t[R][l] over the (k-1)-subsets R of the n - 1 rows.  X and the
    adjoints, weighted (1 - t) and t, are scattered back to n rows with a
    zero pivot row and pulled back through the sections, so no mixed-jet
    tensor is formed.
    """
    n1, B = tau.shape                           # n - 1 rows
    n, k = n1 + 1, n1 - 1
    X = hodge_star(G, n1, k)                                        # (n1, B)
    c = (-1.0) ** n * hodge_star(tau, n1, 1)
    ic = evaluate_form(c, np.eye(n1).reshape(-1, 1), n1, k, 1)
    ic = (-1.0) ** (k - 1) * ic.reshape(n1, -1, B).transpose(2, 0, 1)
    # F_t weighted (1 - t) and t: the adjoints of gamma0 and gamma1 in one @
    F01 = np.concatenate([
        sum((1.0 - t) * weight * F for F, (t, weight) in zip(Fs, t_rule)),
        sum(t * weight * F for F, (t, weight) in zip(Fs, t_rule))], axis=1)
    reduced = np.empty((B, n1, 2 * n + 1), dtype=complex)  # adj. 0, 1 | X
    np.matmul(ic, F01.transpose(2, 0, 1), out=reduced[:, :, :-1])
    reduced[:, :, -1] = X.T
    full = np.zeros((B, n, 2 * n + 1), dtype=complex)
    full[keep] = reduced.reshape(-1, 2 * n + 1)
    x = full[:, :, -1]
    d_acc = (pullbacks[0](-x, full[:, :, :n])
             + pullbacks[1](x, full[:, :, n:-1]))
    return np.sum(X * tau, axis=0, keepdims=True), d_acc


def _t_rule(n):
    """The (t, weight) pairs of the solution operator's t-integral: n // 2
    Gauss-Legendre nodes on [0, 1], exact for its integrand of degree n - 2
    (the eta column is the t-independent eta0)."""
    return tuple(zip(*gauss_legendre_01(n // 2)))


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
    # the ambient dbar coefficients d ambient[0] / d zbar_l, shape (n,), of
    # a degree-0 value, when asked for
    dbar: np.ndarray = None


def _det9_blocks(conormal):
    """Oriented per-node minors of the functional rows with one dzetabar index
    removed, shape (N, n): (2i)^n / 2 * (-1)^k conormal[:, k], the node's
    orientation sign times the (2n-1) determinant of [conj(velocity) without
    row k | velocity] (see :mod:`crhomotopy.quadrature`)."""
    n = conormal.shape[1]
    return conormal * ((2j) ** n / 2 * (-1.0) ** np.arange(n))


def apply_operator_multi(model: ManifoldModel, fields, z_list,
                         grid: QuadratureGrid, kind: str = "solution",
                         extension=None, _dbar=None):
    """Evaluate the operator at several points over one shared node stream.

    ``fields`` holds one :class:`FormField` per point.  The node geometry
    (the oriented minors, a scaling of the chunk's conormal) is computed
    once per chunk, the weighted form values once per point and chunk.
    Each chunk is then taken in kernel blocks of BLOCK nodes: per block and
    point the contraction weights, the section jets, the rejection mask and
    the contracted kernel, consecutive points at the same z sharing their
    section jets, so no jet tensor spans more than a block.  The d/dzbar jet
    beta is formed only when a point reads it (output degree above 0, or a
    d-bar).  Returns a list of :class:`OperatorResult`.

    ``_dbar`` (private to :func:`identity_residual`) flags per point whether
    it (solution kind, degree-1 input) also gets ``dbar``, the ambient d-bar
    of its value, by :func:`_tangent_block` and the section pullbacks.
    """
    z_list = [np.asarray(z, dtype=complex) for z in z_list]
    if len(fields) != len(z_list):
        raise ValueError("need one field per evaluation point")
    dbars = list(_dbar) if _dbar is not None else [False] * len(z_list)
    n = model.n
    plans = [_field_plan(n, f.degree, kind) for f in fields]
    accums = [RunningSum(shape=(len(index_combinations(n, r_out)),))
              for r_out, _ in plans]
    d_accums = [RunningSum(shape=(n,)) if dbar else None for dbar in dbars]
    with_zbar = any(dbars) or any(r_out > 0 for r_out, _ in plans)
    t_rule = _t_rule(n)
    rejected = [0] * len(z_list)
    total = 0
    project = extension if extension is not None else model.project_to_manifold

    for chunk in grid.chunks():
        N = chunk.zeta.shape[0]
        total += N
        on_manifold = project(chunk.zeta)
        det9 = _det9_blocks(chunk.conormal)             # (N, n)
        values = [f.values(model, on_manifold) for f in fields]  # (N, nJ)
        live = [np.any(g != 0, axis=1) for g in values]
        weighted = [g * chunk.weight[:, None] for g in values]
        sums = [np.zeros(acc.shape, dtype=complex) for acc in accums]
        d_sums = [np.zeros(n, dtype=complex) for _ in z_list]
        for lo in range(0, N, BLOCK):
            blk = slice(lo, lo + BLOCK)
            zeta, thetas = chunk.zeta[blk], -chunk.sigma[blk]
            shared = None           # (z, section jets) of the last point
            for zi, (f, z, dbar) in enumerate(zip(fields, z_list, dbars)):
                if shared is None or not np.array_equal(shared[0], z):
                    shared = z, (
                        barrier_section_jets(model, zeta, z,
                                             with_zbar=with_zbar,
                                             thetas=thetas),
                        bochner_martinelli_jets(zeta, z, with_zbar=with_zbar)
                        if kind == "solution" else None,
                        zeta - z[None, :])
                (eta1, beta1, gamma1, phi, pull1), euclid, w = shared[1]
                bad = np.abs(phi) < PHASE_REJECT_FACTOR * grid.epsilon
                rejected[zi] += int(np.sum(bad & live[zi][blk]))
                W_kept = _fold_weights(weighted[zi][blk], det9[blk],
                                       f.degree) * ~bad[:, None]
                r_out = plans[zi][0]
                if kind == "solution":
                    eta0, beta0, gamma0, pull0 = euclid
                    folded = _folded_coefficients(
                        W_kept, w, beta1, gamma1, r_out, tau=eta1 - eta0,
                        start=(beta0, gamma0), t_rule=t_rule,
                        tangent=(pull0, pull1) if dbar else None)
                else:
                    folded = _folded_coefficients(W_kept, w, beta1, gamma1,
                                                  r_out)
                if dbar:
                    folded, d_folded = folded
                    d_sums[zi] += d_folded
                sums[zi] += folded
        for zi, (_, sign) in enumerate(plans):
            # adding to 0.0 turns -0.0 into +0.0, so a coefficient that is
            # exactly zero is reported as 0.0
            accums[zi].add(0.0 + sign * sums[zi])
            if d_accums[zi] is not None:
                d_accums[zi].add(0.0 + sign * d_sums[zi])

    out = []
    for zi in range(len(z_list)):
        if rejected[zi] > REJECT_LIMIT * max(total, 1):
            raise GridTooCoarseError(
                f"{rejected[zi]}/{total} nodes rejected near the phase "
                f"singularity at point {zi}")
        r = fields[zi].degree
        prefactor = (-1.0) ** r * factorial(n - 1) / (2.0j * np.pi) ** n
        out.append(OperatorResult(
            ambient=prefactor * accums[zi].total(),
            degree=plans[zi][0], rejected=rejected[zi], total_nodes=total,
            dbar=(prefactor * d_accums[zi].total() if dbars[zi] else None)))
    return out


def apply_operator(model: ManifoldModel, field: FormField, z,
                   grid: QuadratureGrid, kind: str = "solution",
                   extension=None) -> OperatorResult:
    """Evaluate the solution (interpolated kernel, with t-integral) or
    obstruction (pure barrier kernel) operator at a single point."""
    return apply_operator_multi(model, [field], [z], grid, kind=kind,
                                extension=extension)[0]


# ---------------------------------------------------------------------------
# partition-of-unity gluing
# ---------------------------------------------------------------------------

def _cutoff_fields(cutoff, field: FormField):
    """The fields cutoff * field, of degree r, and (dbar cutoff) wedge
    field, of degree r + 1."""
    def times(model, z):
        return cutoff.value(model, z)[..., None] * field.values(model, z)

    def wedge(model, z):
        return wedge_covector_values(field.n, field.degree,
                                     cutoff.d_zbar(model, z),
                                     field.values(model, z))

    return (FormField(n=field.n, degree=field.degree, fn=times),
            FormField(n=field.n, degree=field.degree + 1, fn=wedge))


def glue_solution(model: ManifoldModel, covers, field: FormField, z,
                  grids) -> np.ndarray:
    """Global solution operator: sum of outer-cutoff-weighted local operators
    applied to inner-cutoff localizations, one grid per cover.  Returns
    ambient coefficients of degree r-1."""
    if not covers:
        raise ValueError("the gluing needs at least one cover")
    z = np.asarray(z, dtype=complex)
    out = 0
    for pair, grid in zip(covers, grids, strict=True):
        localized, _ = _cutoff_fields(pair.inner, field)
        local = apply_operator(model, localized, z, grid, kind="solution")
        weight = complex(pair.outer.value(model, z[None, :])[0])
        out = out + weight * local.ambient
    return out


def glue_obstruction(model: ManifoldModel, covers, field: FormField, z,
                     grids) -> np.ndarray:
    """Global obstruction operator: cutoff-derivative term, localized
    differential term, and local obstruction term for each cover, one grid
    per cover."""
    if not covers:
        raise ValueError("the gluing needs at least one cover")
    z = np.asarray(z, dtype=complex)
    r = field.degree
    out = np.zeros(len(index_combinations(model.n, r)), dtype=complex)
    for pair, grid in zip(covers, grids, strict=True):
        localized, wedged = _cutoff_fields(pair.inner, field)
        sol, rplus = apply_operator_multi(model, [localized, wedged], [z, z],
                                          grid, kind="solution")
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
    rejected: int       # the larger rejected count of the pass's two integrals
    total_nodes: int


def identity_residual(model: ManifoldModel, field: FormField, z_points,
                      epsilon: float, budget: int, seed: int = 0,
                      box_radius: float = 0.7):
    """Residual of f = dbar_M R_1 f + R_2 dbar_M f at the given points.

    The ambient residual f(z) - dbar R_1 f(z) - R_2 dbar_M f(z) is formed
    first, dbar R_1 f being the analytic ambient d-bar of the quadrature
    value R_1 f through the section pullbacks; one
    :func:`~crhomotopy.fields.tangential_components` call then projects it
    and f on the conjugate frame Wbar_i = sum_l conj(a_il) d/dzbar_l, a_i
    the holomorphic tangent rows, so the frame is applied once.  The stencil
    of ``tangential_dbar_scalar`` in ``tests/oracles.py`` is the
    finite-difference oracle of the first term (the graph projection of the
    stencil points is the identity to first order along the complex
    tangent).  The second term integrates the analytic differential of the
    field, so a field without one raises :class:`DerivativeOrderError`.
    Both terms are evaluated at z alone, with one set of section jets per
    chunk, in one pass over one node stream.  The obstruction term H f
    vanishes pointwise for input degree below the concavity parameter q and
    is not assembled here, so input degree q or above raises ValueError.
    """
    if field.degree != 1:
        raise ValueError("identity residual is implemented for (0,1) inputs")
    if field.degree >= model.q:
        raise ValueError(f"identity residual omits H f, which vanishes only "
                         f"for input degree below q = {model.q}")
    dbar_field = field.dbar_field()
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
            _dbar=[True, False])
        f_z = field.values(model, z[None, :])[0]
        f_tan, resid = tangential_components(
            model, np.stack([f_z, f_z - r1.dbar - r2.ambient]), z, 1)
        rows.append(ResidualRow(
            point_index=idx, epsilon=epsilon, budget=budget,
            residual=float(np.max(np.abs(resid))),
            f_norm=float(np.max(np.abs(f_tan))),
            rejected=max(r1.rejected, r2.rejected),
            total_nodes=r1.total_nodes))
    return rows

