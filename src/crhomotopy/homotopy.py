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
sign it is closed-form, (2i)^n / 2 * (-1)^k v_k, v the node's scaled
conormal eps^(m-1) (-2 S, i sigma) (see :mod:`crhomotopy.quadrature`), so
no per-node determinant is taken; the dense determinants of the velocity
columns that ``tests/oracles.py`` rebuilds are the test oracle of that
closed form (:func:`_det9_blocks`).

Solution coefficients are det[eta0 | beta_t... | gamma_t... | tau], since the
t tau part of eta_t = eta0 + t tau cancels against the tau column: the
t-integrand has degree n - 2 and n // 2 Gauss-Legendre nodes are exact.  The
weighted degree-r form values g fold with the conormal into the weights W =
i_v *g of degree k = n - 1 - r.  Every scale and sign of the operator, the
(2i)^n / 2 of det9 included, is one real constant per kind and input
degree, applied once to each point's total (:func:`_field_plan`):

    obstruction:  (-1)^(r n) (n - 1)! / (2 pi^n),
    solution:     (-1)^((r + 1)(n + 1)) (n - 1)! / (2 pi^n).

The obstruction kind's (-1)^(r n) has not yet been checked on a nonzero
value: H f vanishes identically at degrees 0 and 1 on both bundled models.

The node stream comes in blocks of BLOCK nodes
(:meth:`~crhomotopy.quadrature.QuadratureGrid.chunks`), and each block is
one unit of work: the projected nodes, the form values, the weights, the
section jets, the rejection mask, the contraction and the block's total,
added to an exact running sum, so that no per-node array spans more than a
block.  Form values are pointwise, so forming them per block changes no
value, and the totals do not depend on BLOCK beyond rounding.  Each block
comes with its barrier directions, theta = -sigma and the frames of its
chunk's direction table, solved once per chunk
(:func:`~crhomotopy.barrier.level_set_blocks`).  Per block the pivot of the
conormal, and per block and run of points at one z the w-pivot and the
non-pivot rows of the jets (:class:`_Run`), are formed once for all the
points that read them.

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

W = i_v *g annihilates v, so G is taken on the quotient by v
(:func:`_kernel_quotient`), for the value and the d-bar alike: per node the
coordinate a = argmax_c |v_c| is eliminated from the gamma' rows,
x -> x - (x_a / v_a) v, and W is read only on the components that
avoid a.  For degree-1 input (k = n - 2) the reduced W is decomposable and
its Hodge dual is a second kernel vector, eliminated the same way, which
leaves one component: the chain evaluates n - 1 vectors of C^(n-2).  The
projection is linear, so gamma0' and gamma1' are projected once and
interpolated per t-node; tau', beta', p and the star do not change.

The identity residual needs dbar_M R_1 f.  The operator returns the ambient
d-bar of the degree-0 value, its derivatives d/dzbar_l for every l, and
:func:`identity_residual` applies the conjugate frame once, to the assembled
residual.  The derivatives are analytic and taken in reverse mode (Griewank
and Walther, Evaluating Derivatives, 2nd ed. 2008, ch. 3), per block of
nodes, in the same pass and on the same chain as the value
(:func:`_tangent_block`): G_t is one more level on F_t = W(rows R of
gamma'_t, .).  The projection depends on the node alone (the scale (-1)^p /
w_p does not move the kernel of W), so it commutes with d/dzbar, and the
adjoints A' = dT / d gamma'_t stay on the quotient, shape (n - 1, dim, B):
a section reads the adjoint A = E A' Pi of its gamma (E the row placement,
Pi the projection) only through A v, for v = dPhi/dzetabar and, for m >=
2, the rows dtheta_k of its mixed jet, which is E A' (Pi v), and through
<A, gamma> = <A', gamma'> (:func:`_quotient_times`), so no (n, n) adjoint
is formed per node.  dT / d tau' goes to n rows with a zero pivot row, and
both are pulled back through the sections.  Each section returns the
zbar-gradient of the sum over the block of x . eta + <A, gamma> for
adjoints x and A, in O(n^2) per node, by one quotient rule for both
Cauchy-Fantappie sections P / <P, w>; the mixed jet of P is zero for the
euclidean P = conj(w) and, P being affine in zbar with zeta-only
coefficients, taken through its factors for the barrier, so no mixed-jet
tensor is formed; w_p has no zbar-derivative.  The 16-point stencil
(``tangential_dbar_scalar`` in ``tests/oracles.py``) is its test oracle,
the full-row contraction there (``full_row_folded_coefficients``) on the
mixed-jet tensors is the oracle of the reduction, the quotient and the
pullback, and the dense scatter of a quotient adjoint
(``quotient_scatter``) that of the adjoint kept on the quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial

import numpy as np

from ._util import (RunningSum, avoiding_table, basis_interior_table,
                    evaluate_form, gauss_legendre_01, hodge_star,
                    index_combinations)
from .barrier import level_set_blocks
from .errors import GridTooCoarseError, ObstructionOmittedError
from .fields import FormField, tangential_components
from .geometry import ManifoldModel
from .quadrature import QuadratureGrid
from .sections import barrier_section_jets, bochner_martinelli_jets

PHASE_REJECT_FACTOR = 1e-10
REJECT_LIMIT = 0.01


# ---------------------------------------------------------------------------
# coefficient assembly plans
# ---------------------------------------------------------------------------

def _fold_weights(gw, conormal, r):
    """Point-independent contraction weights of a block of nodes, shape
    (N, nM): W = i_v *g, the Hodge star of the weighted degree-r field g =
    gw contracted with the nodes' conormal v (N, n), so nM = C(n, n - 1 -
    r) and W annihilates v.  Term by term, W[:, M] sums (-1)^(k + r n)
    sign(J + M) * gw[:, J] * v[:, k] over the k and J that complete M to
    range(n), sign(J + M) being that of the sorting permutation.  A point's
    block total is then the sum over nodes and M of W[:, M] * coef[:, L,
    M]."""
    n = conormal.shape[1]
    return evaluate_form(hodge_star(gw.T, n, r), conormal.T, n, n - r, 1).T


class _Run:
    """The jets of a block of nodes at one z, and the row reduction that
    every point of a run at that z shares (:func:`_folded_coefficients`).

    Without ``tau`` (obstruction kind) the coefficients are det[eta | beta_L
    | gamma_M]; with it (solution kind) they are summed over (t, weight) in
    ``t_rule`` of weight * det[eta | beta_t L | gamma_t M | tau], beta_t and
    gamma_t running linearly from ``start`` = (beta0, gamma0) at t = 0 to
    (beta, gamma) at t = 1.  ``beta`` is read only for output degree above
    0.  ``kernel`` is :func:`_pivot` of the nodes' kernel vectors (n, N),
    nonzero vectors with W(kernel, ...) = 0 for every point's weights W
    (the conormal).

    eta is not an argument: with w = zeta - z, shape (N, n), every section
    has w^T eta = 1 and w^T beta = w^T gamma = w^T tau = 0 on the row index
    (the derivatives of sum_k eta_k w_k = 1, w being holomorphic in z and
    zeta - z fixed under the t-interpolation).  Replacing row p of [eta | X]
    by w^T multiplies the determinant by w_p and leaves (1, 0, ..., 0) in
    row p, so det[eta | X] = (-1)^p / w_p det(X without row p).  Per node p
    = argmax_k |w_k|, so |w_p| >= |w| / sqrt(n); ``scale`` is (-1)^p / w_p,
    and the non-pivot rows of tau and, when first read, of the beta_t are
    gathered once for the run.
    """

    def __init__(self, w, beta, gamma, kernel, tau=None, start=None,
                 t_rule=((1.0, 1.0),)):
        self.N, self.n = N, n = w.shape
        self.gamma, self.kernel, self.t_rule = gamma, kernel, t_rule
        self._beta = beta
        self.start = start if start is not None else (None, None)
        self.pivot = np.argmax(np.abs(w), axis=1)
        w_p = w[np.arange(N), self.pivot]
        # w = 0 only at zeta = z, where the phase vanishes and W is zero
        self.scale = (-1.0) ** self.pivot / np.where(w_p == 0, 1.0, w_p)
        # row j of the n - 1 non-pivot rows is row j + (j >= p) of the n
        self.below = np.arange(n - 1)[:, None] < self.pivot
        self.row = np.arange(n - 1)[:, None] + ~self.below
        self.front = self.rows(tau)

    def rows(self, x):      # the non-pivot rows, node-last: (n - 1, ..., N)
        if x is None:
            return None
        x = np.moveaxis(x, 0, -1)
        mask = self.below.reshape((self.n - 1,) + (1,) * (x.ndim - 2)
                                  + (self.N,))
        return np.where(mask, x[:-1], x[1:])

    def at_t(self, zero, one):  # the jet at each t of the rule, from its ends
        if zero is None:
            return [one] * len(self.t_rule)
        return [(1 - t) * zero + t * one for t, _ in self.t_rule]

    @cached_property
    def betas(self):        # beta'_t per t-node, (n (n - 1), N)
        n = self.n
        return [b.transpose(1, 0, 2).reshape(n * (n - 1), -1)
                for b in self.at_t(self.rows(self.start[0]),
                                   self.rows(self._beta))]


def _folded_coefficients(W, run, r_out, tangent=None):
    """Sum over the run's nodes and M of W[:, M] * coef[:, L, M], shape
    (nL,), with no coefficient formed: coef that of the jets of ``run``
    (:class:`_Run`) at output degree ``r_out``, W scaled by its (-1)^p /
    w_p.

    The gamma' rows go to the quotient by the run's kernel vectors
    (:func:`_kernel_quotient`); at k = 0 none is read.

    ``tangent`` (solution kind, r_out = 0) is the pair of ``pullback``
    functions of the t = 0 and t = 1 section jets of these nodes (see
    :func:`~crhomotopy.sections.bochner_martinelli_jets`); the zbar-gradient
    of the sum is then returned too, as (sum, gradient), by
    :func:`_tangent_block`.  Per t-node, F_t = W(rows R of gamma'_t, .)
    over the (k - 1)-subsets R of the n - 1 rows is formed once, and G_t is
    one more level on it, G_t[S] = sum_l F_t[S without its last row][l]
    gamma'_t[last row of S, l] (no sign: the last interior product meets
    the empty tuple).
    """
    N, n, t_rule, front = run.N, run.n, run.t_rule, run.front
    k = n - 1 - r_out - (front is not None)

    def star_front(G):      # (*G)(tau', .) or *G, in n - 1 dimensions
        star = hodge_star(G, n - 1, k)
        return star if front is None else evaluate_form(
            star, front, n - 1, n - 1 - k, 1)

    W = W.T * run.scale
    if k:       # the gamma rows on the quotient, (row * dim + c, N)
        W, ends, dim, reduce = _kernel_quotient(
            W, [run.start[1], run.gamma], run.kernel, run.row, k)
        gammas = [g.reshape((n - 1) * dim, -1) for g in run.at_t(*ends)]
    else:       # top output degree: W is a 0-form and reads no gamma column
        dim, gammas = n, [np.empty((0, N))] * len(t_rule)
    d_total = 0.0
    if tangent is not None:     # G[S] reads F[S[:-1]] and row S[-1]
        prefixes = index_combinations(n - 1, k - 1)
        subsets = index_combinations(n - 1, k)
        prefix = np.array([prefixes.index(S[:-1]) for S in subsets])
        last = np.array([S[-1] for S in subsets])
        Fs = [evaluate_form(W, g, dim, k, k - 1).reshape(-1, dim, N)
              for g in gammas]
        G = sum(weight * np.sum(F[prefix] * g.reshape(-1, dim, N)[last], 1)
                for F, g, (_, weight) in zip(Fs, gammas, t_rule))
        acc, d_total = _tangent_block(
            front, G, Fs, t_rule, tangent,
            run.row, ends, reduce)
    else:
        gs = [weight * evaluate_form(W, g, dim, k, k)
              for g, (_, weight) in zip(gammas, t_rule)]
        if r_out:
            acc = sum(evaluate_form(star_front(G), b, n - 1, r_out, r_out)
                      for G, b in zip(gs, run.betas))
        else:                   # no beta column: tau' alone, or a 0-form
            acc = star_front(sum(gs))
    total = acc.sum(axis=1)
    # det[beta'_L | gamma'_M | tau'] = (-1)^n (*G)(tau', beta'_L)
    if front is not None:
        total, d_total = (-1.0) ** n * total, (-1.0) ** n * d_total
    return total if tangent is None else (total, d_total)


def _kernel_quotient(W, jets, kernel, row, k):
    """The k-form W (C(n, k), N) and rows ``row`` (R, N) of the jets (N, n,
    n), on the quotient by kernel vectors of W: (W', rows', dim, reduce),
    rows' node-last (R, dim, N) with W'(rows') = W(rows) on dim < n
    coordinates (a None jet stays None), and ``reduce`` the same projection
    of vectors, (N, n, s) -> (dim, N, s).  An adjoint A' (R, dim, N) of
    rows' is the adjoint A = E A' Pi of the jets, E placing the rows at
    ``row`` and Pi the projection, so A v = E A' reduce(v) and <A, jet> =
    <A', rows'>: the adjoint stays on the quotient (:func:`_quotient_times`).

    ``kernel`` = (a, rho), :func:`_pivot` of the kernel vectors v (n, N),
    is eliminated first: per node the coordinate a = argmax_c |v_c| goes, x
    -> x - x_a rho with rho = v / v_a,
    since W(x_1, ...) = W(x_1 - x_1a rho, ...) by multilinearity, and W is
    read only on the components that avoid a
    (:func:`~crhomotopy._util.avoiding_table`).  W is then a k-form on
    C^(n-1); when k = n - 2 it is decomposable, W = i_u vol with the vector
    u = *W (:func:`~crhomotopy._util.hodge_star`), so W(u, ...) = 0 and u is
    eliminated too, at coordinate c, which leaves one component (every
    degree-1 input, of either kind).  The two projections compose to x ->
    x_K - x_c sigma - x_a (rho_K - rho_c sigma) on the kept coordinates K,
    so each jet is read once, by one gather.
    """
    a, rho = kernel
    n, N = len(rho) + 1, len(a)
    W = np.take(W, avoiding_table(n, k)[a].T * N + np.arange(N))
    dropped, coefs = [a], [rho]
    if k == n - 2:
        b, sigma = _pivot(hodge_star(W, n - 1, k))
        W = np.take(W, avoiding_table(n - 1, k)[b].T * N + np.arange(N))
        rho_b = np.take(rho, b * N + np.arange(N))
        below = np.arange(n - 2)[:, None] < b
        coefs = [np.where(below, rho[:-1], rho[1:]) - rho_b * sigma, sigma]
        dropped = [a, b + (b >= a)]
    dim = n - len(dropped)
    col = np.arange(dim)[:, None]               # kept coordinates, (dim, N)
    for c in np.sort(dropped, axis=0):
        col = col + (col >= c)
    base = np.arange(N) * (n * n) + row * n             # (R, N)
    kept = base[:, None] + col                           # (R, dim, N)
    node = np.arange(N) * n     # (N, n, s) -> (N n, s): row node + coordinate
    kept_v, dropped_v = node + col, [node + c for c in dropped]

    def project(x):         # (N, n, n) -> (R, dim, N)
        if x is None:
            return None
        out = np.take(x, kept)
        for c, coef in zip(dropped, coefs):
            out -= np.take(x, base + c)[:, None] * coef
        return out

    def reduce(V):          # (N, n, s) -> (dim, N, s)
        V = V.reshape(N * n, -1)
        out = V[kept_v]
        for c, coef in zip(dropped_v, coefs):
            out -= V[c] * coef[..., None]
        return out

    return W, [project(x) for x in jets], dim, reduce


def _quotient_times(A, reduce, row):
    """V (B, n, s) -> A V for the adjoint A = E A' Pi of an adjoint A' (n -
    1, dim, B) on the kernel quotient (:func:`_kernel_quotient`), E placing
    its rows at the non-pivot rows ``row`` (n - 1, B): zero on the pivot
    row, and no (B, n, n) array formed."""
    n1, dim, B = A.shape
    at = row + (n1 + 1) * np.arange(B)

    def times(V):
        u = reduce(V)                                       # (dim, B, s)
        out = np.zeros((B * (n1 + 1), V.shape[2]), dtype=complex)
        out[at] = sum(A[:, c, :, None] * u[c] for c in range(dim))
        return out.reshape(V.shape)
    return times


def _pivot(v):
    """The coordinate a = argmax_c |v_c| per node of v (n, N), and the
    ratios v_c / v_a (n - 1, N) over the other coordinates in order, each of
    modulus <= 1 (partial pivoting).  v is first scaled by an exact power of
    two that brings |v_a| into [1/2, 1), so a subnormal pivot (W of a
    field's bump tail) does not overflow the division; where v = 0 (a
    zero-field node, where W = 0) the ratios are 0."""
    n, N = v.shape
    a = np.argmax(np.abs(v), axis=0)
    at = a * N + np.arange(N)
    exponent = -np.frexp(np.abs(np.take(v, at)))[1]
    scaled = np.empty((n, N), dtype=complex)
    scaled.real = np.ldexp(v.real, exponent)
    scaled.imag = np.ldexp(v.imag, exponent)
    pivot = np.take(scaled, at)
    below = np.arange(n - 1)[:, None] < a     # coordinate j is j + (j >= a)
    return a, np.where(below, scaled[:-1], scaled[1:]) \
        / np.where(pivot == 0, 1.0, pivot)


def _tangent_block(tau, G, Fs, t_rule, pullbacks, row, ends, reduce):
    """One block of the degree-0 solution total T = (*G)(tau) on the n - 1
    non-pivot rows, G = sum_t weight_t W(non-pivot rows of gamma_t) already
    scaled by (-1)^p / w_p, and its zbar-gradient, tau = eta1 - eta0.
    ``Fs`` holds F_t = W(rows R of gamma_t, .), shape (R, dim, B), of each
    t-node on the kernel quotient, ``ends`` the quotient rows (n - 1, dim,
    B) of gamma0 and gamma1 and ``reduce`` its projection of vectors
    (:func:`_kernel_quotient`), ``pullbacks`` the section pullbacks (x,
    times, a_gamma) -> zbar-gradient of the sum over the block of x . eta +
    <A, gamma> of the t = 0 and t = 1 sections, and ``row`` (n - 1, B) the
    non-pivot rows.  Returns (T per node (1, B), dT / dzbar over the
    block (n,)).

    In n - 1 rows *G is the 1-form X itself, and T = X . tau.  The scale
    (-1)^p / w_p has no derivative (w is holomorphic in z, p is locally
    constant), so with D = d / dzbar_l, D T = X . D tau + the gamma terms.
    gamma_t enters by reverse mode: T = <c, G> with the (n - 2)-vector c =
    (-1)^n *tau, so dT / d gamma'_t[s, l] = weight_t (-1)^(k-1) sum_R (i_s
    c)[R] F_t[R][l] over the (k-1)-subsets R of the n - 1 rows, the i_s c
    one signed gather of c (:func:`~crhomotopy._util.basis_interior_table`)
    and the sum taken node-last.  These adjoints, weighted (1 - t) and t,
    stay on the quotient: each section reads its adjoint A through A v =
    E A' reduce(v) (:func:`_quotient_times`) and <A, gamma> = <A', gamma'>,
    and X goes to n rows with a zero pivot row, so neither a mixed-jet
    tensor nor an (n, n) adjoint per node is formed.
    """
    n1, B = tau.shape                           # n - 1 rows
    k = n1 - 1
    X = hodge_star(G, n1, k)                                        # (n1, B)
    # i_s c over the R that avoid s, c = (-1)^n *tau times the (-1)^(k - 1)
    # of the adjoint: -*tau
    index, subset, sign = basis_interior_table(n1, k)
    ic = sign[..., None] * -hodge_star(tau, n1, 1)[index]       # (n1, J, B)
    # the adjoint of each t-node, weighted (1 - t) and t: those of gamma0'
    # and gamma1', (n1, dim, B) each
    per_t = [sum(ic[:, j, None] * F[subset[:, j]]
                 for j in range(subset.shape[1])) for F in Fs]
    adjoints = [
        sum((1.0 - t) * weight * A for A, (t, weight) in zip(per_t, t_rule)),
        sum(t * weight * A for A, (t, weight) in zip(per_t, t_rule))]
    x = np.zeros(B * (n1 + 1), dtype=complex)     # X on n rows
    x[row + (n1 + 1) * np.arange(B)] = X
    x = x.reshape(B, n1 + 1)
    d_acc = sum(pull(sgn * x, _quotient_times(A, reduce, row),
                     np.sum(A * end, axis=(0, 1)))
                for pull, sgn, A, end in zip(pullbacks, (-1.0, 1.0),
                                             adjoints, ends))
    return np.sum(X * tau, axis=0, keepdims=True), d_acc


def _t_rule(n):
    """The (t, weight) pairs of the solution operator's t-integral: n // 2
    Gauss-Legendre nodes on [0, 1], exact for its integrand of degree n - 2
    (the eta column is the t-independent eta0)."""
    return tuple(zip(*gauss_legendre_01(n // 2)))


def _field_plan(n, r, kind):
    """(r_out, constant) of the operator on degree-r input: the output
    degree, and the real number that takes a point's total over the nodes,
    of the contraction with W = i_v *g (:func:`_fold_weights`), to the
    operator value.

    Five factors meet in it.  (1) The oriented minor of the functional rows
    without dzetabar index k is det9_k = (2i)^n / 2 (-1)^k v_k
    (:func:`_det9_blocks`).  (2) The fold of the field against the minors,
    term by term sign(J + M) g_J det9_k, is i_delta *g with delta_k = (-1)^(k
    + r n) det9_k = (-1)^(r n) (2i)^n / 2 v_k: the (-1)^k cancel.  (3) The
    cross sign of input and output degree is (-1)^(r r_out).  (4) The
    solution kind takes (-1)^n, which moves the dt row past the dzeta
    block, and one flip more, which realizes the interval-first product
    orientation, calibrated once against the reproduction identity (see
    tests).  (5) The Cauchy-Fantappie constant (n - 1)! / (2 pi i)^n
    (Range, ch. IV; Henkin and Leiterer, Andreotti-Grauert Theory by
    Integral Formulas, 1988) comes with (-1)^r.  Since (2i)^n / (2 pi i)^n
    = 1 / pi^n, the product is (n - 1)! / (2 pi^n) times

        obstruction (r_out = r):      (-1)^(r n) (-1)^(r r) (-1)^r
                                      = (-1)^(r n),
        solution (r_out = r - 1):     (-1)^(r n) (-1)^(r (r - 1)) (-(-1)^n)
                                      (-1)^r = (-1)^((r + 1)(n + 1)).

    The obstruction sign has not yet been checked on a nonzero value (see
    the module docstring).
    """
    r_out = {"solution": r - 1, "obstruction": r}.get(kind)
    if r_out is None:
        raise ValueError(f"unknown kind {kind!r}")
    if r_out < 0:
        raise ValueError("solution operator needs input degree >= 1")
    if r_out > n - 1:
        raise ValueError("output degree exceeds the form bound")
    power = r * n if kind == "obstruction" else (r + 1) * (n + 1)
    return r_out, (-1.0) ** power * factorial(n - 1) / (2.0 * np.pi ** n)


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
    row k | velocity] (see :mod:`crhomotopy.quadrature`).  The operators
    contract with the conormal itself and carry this scale in the constant
    of :func:`_field_plan`; the tests hold the closed form against the dense
    minors."""
    n = conormal.shape[1]
    return conormal * ((2j) ** n / 2 * (-1.0) ** np.arange(n))


def apply_operator_multi(model: ManifoldModel, fields, z_list,
                         grid: QuadratureGrid, kind: str = "solution",
                         extension=None, _dbar=None):
    """Evaluate the operator at several points over one shared node stream.

    ``fields`` holds one :class:`FormField` per point.  The blocks of the
    stream come with their directions from
    :func:`~crhomotopy.barrier.level_set_blocks`, the frames of a chunk's
    direction table solved at its first block.  Per block come the nodes'
    projection (``extension``, the graph projection by default) and the
    weighted form values of each point, and per block and point the
    contraction weights (on the block's conormal), the section jets (on the
    block's directions), the rejection mask and the contracted kernel,
    whose total goes straight into the point's running sum; consecutive
    points at the same z share their section jets and row reduction, so no
    value, weight or jet array spans more than a block.  Each point's sum
    is scaled once, at the end, by the constant of :func:`_field_plan`.
    The d/dzbar jet beta is formed only when a point reads it (output
    degree above 0, or a d-bar).  Returns a list of :class:`OperatorResult`.

    ``_dbar`` (private to :func:`identity_residual`) flags per point whether
    it (solution kind, degree-1 input) also gets ``dbar``, the ambient d-bar
    of its value, by :func:`_tangent_block` and the section pullbacks; any
    other flagged point raises ValueError before the quadrature.  The
    section pullbacks are kept only for the points that ask for a d-bar.
    """
    z_list = [np.asarray(z, dtype=complex) for z in z_list]
    if len(fields) != len(z_list):
        raise ValueError("need one field per evaluation point")
    dbars = list(_dbar) if _dbar is not None else [False] * len(z_list)
    n = model.n
    plans = [_field_plan(n, f.degree, kind) for f in fields]
    for zi, ((r_out, _), dbar) in enumerate(zip(plans, dbars)):
        if dbar and (kind != "solution" or r_out != 0):
            raise ValueError(
                f"point {zi}: the ambient d-bar needs the solution kind and "
                f"output degree 0, not the {kind} kind and output degree "
                f"{r_out}")
    # runs of consecutive points at the same z share their section jets
    runs = []
    for zi, z in enumerate(z_list):
        if runs and np.array_equal(z_list[runs[-1][0]], z):
            runs[-1].append(zi)
        else:
            runs.append([zi])
    accums = [RunningSum(shape=(len(index_combinations(n, r_out)),))
              for r_out, _ in plans]
    d_accums = [RunningSum(shape=(n,)) if dbar else None for dbar in dbars]
    with_zbar = any(dbars) or any(r_out > 0 for r_out, _ in plans)
    t_rule = _t_rule(n)
    rejected = [0] * len(z_list)
    total = 0
    project = extension if extension is not None else model.project_to_manifold

    def section_jets(zeta, z, directions, pulled):
        """The barrier and, for the solution kind, the euclidean jets of a
        block at z, and their pullbacks only when ``pulled``."""
        barrier = barrier_section_jets(model, zeta, z, with_zbar=with_zbar,
                                       directions=directions)
        euclid = (bochner_martinelli_jets(zeta, z, with_zbar=with_zbar)
                  if kind == "solution" else (None,) * 4)
        return (barrier[:4], euclid[:3],
                (euclid[3], barrier[4]) if pulled else None)

    # theta varies with zeta, so the jets read dG, only for m >= 2
    for block, directions in level_set_blocks(model, grid, model.m >= 2):
        total += block.zeta.shape[0]
        on_manifold = project(block.zeta)
        values = [f.values(model, on_manifold) for f in fields]  # (B, nJ)
        live = [np.any(g != 0, axis=1) for g in values]
        weighted = [g * block.weight[:, None] for g in values]
        # the conormal is the kernel of the weights
        kernel = _pivot(block.conormal.T)
        for run in runs:
            z = z_list[run[0]]
            (eta1, beta1, gamma1, phi), (eta0, beta0, gamma0), pulls = \
                section_jets(block.zeta, z, directions,
                             any(dbars[zi] for zi in run))
            bad = np.abs(phi) < PHASE_REJECT_FACTOR * grid.epsilon
            solution = (dict(tau=eta1 - eta0, start=(beta0, gamma0),
                             t_rule=t_rule) if kind == "solution" else {})
            shared = _Run(block.zeta - z[None, :], beta1, gamma1, kernel,
                          **solution)
            for zi in run:
                rejected[zi] += int(np.sum(bad & live[zi]))
                W_kept = _fold_weights(weighted[zi], block.conormal,
                                       fields[zi].degree) * ~bad[:, None]
                folded = _folded_coefficients(
                    W_kept, shared, plans[zi][0],
                    tangent=pulls if dbars[zi] else None)
                if dbars[zi]:
                    folded, d_folded = folded
                    d_accums[zi].add(d_folded)
                accums[zi].add(folded)

    out = []
    for zi, (r_out, constant) in enumerate(plans):
        if rejected[zi] > REJECT_LIMIT * max(total, 1):
            raise GridTooCoarseError(
                f"{rejected[zi]}/{total} nodes rejected near the phase "
                f"singularity at point {zi}")
        # adding to 0.0 turns -0.0 into +0.0, so a coefficient that is
        # exactly zero is reported as 0.0
        out.append(OperatorResult(
            ambient=0.0 + constant * accums[zi].total(),
            degree=r_out, rejected=rejected[zi], total_nodes=total,
            dbar=(0.0 + constant * d_accums[zi].total() if dbars[zi]
                  else None)))
    return out


def apply_operator(model: ManifoldModel, field: FormField, z,
                   grid: QuadratureGrid, kind: str = "solution",
                   extension=None) -> OperatorResult:
    """Evaluate the solution (interpolated kernel, with t-integral) or
    obstruction (pure barrier kernel) operator at a single point."""
    return apply_operator_multi(model, [field], [z], grid, kind=kind,
                                extension=extension)[0]


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
    512-node kernel block, in one pass over one node stream.  The
    obstruction term H f vanishes pointwise for input degree below the
    concavity parameter q and is not assembled here, so input degree q or
    above raises :class:`ObstructionOmittedError`.
    """
    if field.degree != 1:
        raise ValueError("identity residual is implemented for (0,1) inputs")
    if field.degree >= model.q:
        raise ObstructionOmittedError(
            f"identity residual omits H f, which vanishes only for input "
            f"degree below q = {model.q}")
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

