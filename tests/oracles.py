"""Independent test oracles.

These implementations deliberately avoid the package's computation paths:
the wedge expansions and the sign table iterate raw symbol choices and count
inversions, the defining-function oracle re-evaluates the polynomial from
its definition, the node-geometry oracles rebuild the velocity columns of
the parameterization and take dense determinants of them in place of the
closed-form conormal, the kernel contraction keeps eta and all n rows of
every jet in place of the n - 1 non-pivot rows and contracts the mixed-jet
tensors in place of the section pullbacks, the barrier reference works
pointwise on phase-fixed eigenvector rows in place of the projector G, the
frame flow has a closed form and a step-by-step RK4 (the reference of the
all-steps control integration), derivative oracles are plain central
differences, and the sample audits (section normalization, Holder
quotients) go one sample at a time.  The rank-verified tangential frame
rebuilds the real tangent space from a coordinate Jacobian, and the
complex-tangent projection re-flows the complex-tangential controls of the
inverted frame flow.  The tangential projection, the tangential d-bar of a
field and the gradient-flow extension are references that only tests use.
"""

from dataclasses import dataclass

import numpy as np

from crhomotopy import barrier, norms, quadrature, sections
from crhomotopy._util import evaluate_form, hodge_star, wedge_jets
from crhomotopy.errors import CRHomotopyError, ThetaUndefinedError
from crhomotopy.fields import (FormField, _evaluate_batched,
                               conjugate_frame_rows, tangential_components)
from crhomotopy.geometry import (CORRECTION_MARGIN, ManifoldModel,
                                 holomorphic_tangent_rows, levi_heights)
from crhomotopy.sections import SectionJet


class DegeneratePointError(CRHomotopyError):
    """Tangential frame is rank deficient at the requested point."""


def brute_wedge_expansion(eta, d_zbar, d_zetabar, d_t):
    """Expand sum_k (-1)^(k-1) eta_k wedge_{j!=k} d(eta_j) over raw symbols.

    Symbols 0..n-1: dzbar, n..2n-1: dzetabar, 2n: dt.  Returns a dict
    (zbar tuple, zetabar tuple, dt flag) -> coefficient.
    """
    from itertools import product

    n = len(eta)
    out = {}
    for k in range(n):
        rows = [j for j in range(n) if j != k]
        choices = []
        for j in rows:
            opts = [(l, d_zbar[j, l]) for l in range(n)]
            opts += [(n + l, d_zetabar[j, l]) for l in range(n)]
            opts.append((2 * n, d_t[j]))
            choices.append([o for o in opts if o[1] != 0])
        for combo in product(*choices):
            syms = [c[0] for c in combo]
            if len(set(syms)) != len(syms):
                continue
            coeff = eta[k] * (-1) ** k
            for _, c in combo:
                coeff = coeff * c
            sign = 1
            lst = list(syms)
            for i in range(len(lst)):
                for j2 in range(i + 1, len(lst)):
                    if lst[j2] < lst[i]:
                        sign = -sign
            ss = sorted(syms)
            key = (tuple(s for s in ss if s < n),
                   tuple(s - n for s in ss if n <= s < 2 * n),
                   1 if 2 * n in ss else 0)
            out[key] = out.get(key, 0.0) + sign * coeff
    return out


def wedge_expansion_keys(n):
    """The key of :func:`brute_wedge_expansion` of each row of an array
    (n - 1)-form on the 2n + 1 symbols, in ``combinations`` order."""
    from itertools import combinations

    return [(tuple(s for s in S if s < n),
             tuple(s - n for s in S if n <= s < 2 * n), int(2 * n in S))
            for S in combinations(range(2 * n + 1), n - 1)]


def defining_polynomial(n, m, hermitian, z):
    """Direct re-evaluation of Im w_k - z'^H H_k z' from the definition."""
    z = np.asarray(z, dtype=complex)
    zp = z[:n - m]
    out = []
    for k in range(m):
        acc = 0.0
        for i in range(n - m):
            for j in range(n - m):
                acc += (np.conj(zp[i]) * hermitian[k][i, j] * zp[j]).real
        out.append(z[n - m + k].imag - acc)
    return np.array(out)


def fd_hessian_mixed(fn, z, a, b, step=1e-4):
    """Mixed Wirtinger second derivative d^2 f / d z_a d zbar_b by nested
    central differences in real coordinates."""
    def d_za(point):
        px = point.copy(); px[a] += step
        mx = point.copy(); mx[a] -= step
        py = point.copy(); py[a] += 1j * step
        my = point.copy(); my[a] -= 1j * step
        fx = (fn(px) - fn(mx)) / (2 * step)
        fy = (fn(py) - fn(my)) / (2 * step)
        return 0.5 * (fx - 1j * fy)

    px = z.copy(); px[b] += step
    mx = z.copy(); mx[b] -= step
    py = z.copy(); py[b] += 1j * step
    my = z.copy(); my[b] -= 1j * step
    fx = (d_za(px) - d_za(mx)) / (2 * step)
    fy = (d_za(py) - d_za(my)) / (2 * step)
    return 0.5 * (fx + 1j * fy)


def loglog_fit(x, y):
    lx = np.log(np.asarray(x, float))
    ly = np.log(np.abs(np.asarray(y, float)))
    lx = lx - lx.mean()
    return float(np.dot(lx, ly - ly.mean()) / np.dot(lx, lx))


def random_quadric(n, m, rng):
    """Seeded random Hermitian quadric with q = 1 (not certified)."""
    d = n - m
    mats = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for _ in range(m)]
    return ManifoldModel(n=n, m=m, q=1,
                         hermitian=[(a + a.conj().T) / 2 for a in mats])


def random_directions(m, count, rng):
    """Seeded unit directions in R^m, (count, m)."""
    thetas = rng.standard_normal((count, m))
    return thetas / np.linalg.norm(thetas, axis=1, keepdims=True)


def off_manifold_point(model, rng, scale=0.1, level=0.02):
    """Seeded point at rho = level in a random normal direction, with chart
    displacement of size ``scale``."""
    zp = scale * (rng.standard_normal(model.tangential_dim)
                  + 1j * rng.standard_normal(model.tangential_dim))
    sig = rng.standard_normal(model.m)
    sig /= np.linalg.norm(sig)
    return model.graph_point(zp, scale * rng.standard_normal(model.m),
                             level * sig)


def contraction_table(n, r):
    """Sign table of the fold of a degree-r field against the missing-index
    determinants: rows (k, J index, M index, sign) over the missing index k
    and the sorted r-tuples J and (n - 1 - r)-tuples M that split range(n)
    without k; the sign is that of the permutation J + M, by inversion
    count."""
    from itertools import combinations

    J_pos = {J: i for i, J in enumerate(combinations(range(n), r))}
    M_pos = {M: i for i, M in enumerate(combinations(range(n), n - 1 - r))}
    table = []
    for k in range(n):
        comp = [i for i in range(n) if i != k]
        for J in combinations(comp, r):
            M = tuple(i for i in comp if i not in J)
            inversions = sum(j > m for j in J for m in M)
            table.append((k, J_pos[J], M_pos[M], (-1) ** inversions))
    return table


def brute_wedge(jets, n, r):
    """sum over J, l of jets[..., J, l] dzbar_l ^ dzbar_J by raw symbol
    expansion: the symbols (l, *J) are sorted with the sign of their
    inversion count.  jets (..., C(n, r), n); returns (..., C(n, r + 1))."""
    from itertools import combinations

    out_pos = {K: i for i, K in enumerate(combinations(range(n), r + 1))}
    out = np.zeros(jets.shape[:-2] + (len(out_pos),), dtype=complex)
    for ji, J in enumerate(combinations(range(n), r)):
        for l in range(n):
            syms = (l,) + J
            if l in J:
                continue
            inversions = sum(a > b for i, a in enumerate(syms)
                             for b in syms[i + 1:])
            out[..., out_pos[tuple(sorted(syms))]] += (
                (-1) ** inversions * jets[..., ji, l])
    return out


def row_contraction(table, gw, coef, det9, keep):
    """Per-row contraction of coefficient determinants with the weighted
    field: per output tuple L, the sum over kept nodes of
    sign * gw[J] * coef[L, M] * det9[k] over the sign-table rows, (nL,)."""
    N, nL = coef.shape[:2]
    out = np.zeros(nL, dtype=complex)
    for li in range(nL):
        contrib = np.zeros(N, dtype=complex)
        for k, j_idx, m_idx, sgn in table:
            contrib += sgn * gw[:, j_idx] * coef[:, li, m_idx] * det9[:, k]
        out[li] = np.sum(contrib * keep)
    return out


def dense_coefficients(eta, beta, gamma, tau, r_out):
    """Every coefficient det[eta | beta_L | gamma_M | tau] of the degree-r_out
    determinant form, one LAPACK determinant of the stacked columns per
    (L, M); ``tau`` None drops the last column.  Returns coef, shape (N,
    nL, nM)."""
    from itertools import combinations

    N, n = eta.shape
    L_combos = list(combinations(range(n), r_out))
    M_combos = list(combinations(range(n), n - 1 - r_out - (tau is not None)))
    coef = np.empty((N, len(L_combos), len(M_combos)), dtype=complex)
    for li, L in enumerate(L_combos):
        for mi, M in enumerate(M_combos):
            cols = ([eta] + [beta[:, :, l] for l in L]
                    + [gamma[:, :, m] for m in M]
                    + ([] if tau is None else [tau]))
            coef[:, li, mi] = np.linalg.det(np.stack(cols, axis=-1))
    return coef


def full_row_folded_coefficients(W, eta, beta, gamma, r_out, tau=None,
                                 start=None, t_rule=((1.0, 1.0),),
                                 tangent=None):
    """Sum over nodes and M of W[:, M] * coef[:, L, M] from all n rows of the
    jets, eta included: the kernel contraction before the reduction to the
    n - 1 non-pivot rows and the kernel quotient, with the same arguments as
    ``homotopy._folded_coefficients`` but eta in place of w, no kernel and
    all nodes in one block.  By the generalized Laplace expansion, sum_M W_M gamma_M is
    the k-vector G = W(rows of gamma), and every total is (-1)^n (*G)(eta,
    tau, beta_L) (solution) or (*G)(eta, beta_L) (obstruction).  With
    ``tangent`` = ((D eta0, D gamma0), (D eta1, D gamma1)), the mixed-jet
    tensors of :func:`euclidean_mixed_jets` and :func:`barrier_mixed_jets`
    over every node, the derivatives of :func:`full_row_tangent_block` are
    returned too."""
    N, n = eta.shape
    front = eta.T if tau is None else np.concatenate([eta.T, tau.T])
    k = n - len(front) // n - r_out

    def layout(b, g):       # beta columns and gamma rows, (vector * n + c, N)
        return (b.transpose(2, 1, 0).reshape(n * n, N) if r_out else None,
                g.transpose(1, 2, 0).reshape(n * n, N))

    def at(zero, one, t):
        return one if zero is None else (1 - t) * zero + t * one

    def star_front(G):
        return evaluate_form(hodge_star(G, n, k), front, n, n - k,
                             n - k - r_out)

    b1, g1 = layout(beta, gamma)
    b0, g0 = layout(*start) if start is not None else (None, None)
    gammas = [at(g0, g1, t) for t, _ in t_rule]
    gs = [weight * evaluate_form(W.T, g, n, k, k)
          for g, (_, weight) in zip(gammas, t_rule)]
    d_total = 0.0
    if r_out:
        acc = sum(evaluate_form(star_front(G), at(b0, b1, t), n, r_out, r_out)
                  for G, (t, _) in zip(gs, t_rule))
    elif tangent is None:
        acc = star_front(sum(gs))
    else:
        acc, d_total = full_row_tangent_block(W.T, front, sum(gs), gammas,
                                              t_rule, tangent)
    total = acc.sum(axis=1)
    if tau is not None:
        total, d_total = (-1.0) ** n * total, (-1.0) ** n * d_total
    return total if tangent is None else (total, d_total)


def full_row_tangent_block(W, front, G, gammas, t_rule, along):
    """T = (*G)(eta0, tau) on all n rows and its derivatives along the
    directions of the mixed-jet tensors ``along``, contracted as tensors:
    D tau through the 1-form (*G)(eta0, .), gamma_t by reverse mode through
    the k-vector c = *(eta0 ^ tau), with F_t = W(rows of gamma_t, .) and G
    from chains of their own.  D eta0 adds nothing: it, tau and every gamma
    column are bilinearly orthogonal to w, so det[D eta0 | gamma_M | tau]
    has n columns in a hyperplane."""
    n, B = front.shape[0] // 2, front.shape[1]
    k = n - 2
    eta, tau = front[:n], front[n:]
    X = evaluate_form(hodge_star(G, n, k), eta, n, 2, 1)
    (d_eta0, d_gamma0), (d_eta1, d_gamma1) = along
    d_acc = np.einsum("cN,Nac->a", X, d_eta1 - d_eta0)
    c = hodge_star(wedge_jets(np.einsum("jN,lN->Njl", tau, eta), n, 1).T, n, 2)
    ic = evaluate_form(c, np.eye(n).reshape(-1, 1), n, k, 1)
    ic = ic.reshape(n, -1, B).transpose(2, 0, 1)
    adjoint = [0.0, 0.0]
    for gamma, (t, weight) in zip(gammas, t_rule):
        F = evaluate_form(W, gamma, n, k, k - 1).reshape(-1, n, B)
        adj = weight * (ic @ F.transpose(2, 0, 1))
        adjoint[0] = adjoint[0] + (1.0 - t) * adj
        adjoint[1] = adjoint[1] + t * adj
    d_acc = d_acc + (-1.0) ** (k - 1) * (
        np.einsum("Nsl,Nasl->a", adjoint[0], d_gamma0)
        + np.einsum("Nsl,Nasl->a", adjoint[1], d_gamma1))
    return np.sum(X * tau, axis=0, keepdims=True), d_acc


def euclidean_mixed_jets(zetas, z, V):
    """D_a eta and D_a gamma of the euclidean section, D_a = sum_l V[a, l] d
    / d zbar_l, as tensors of shapes (N, d, n) and (N, d, n, n): with w =
    zeta - z and S = |w|^2, D_a gamma[k, j] = (delta_kj (w.v_a) + v_a[k]
    w_j) / S^2 - 2 conj(w_k) w_j (w.v_a) / S^3."""
    eta, beta, _, _ = sections.bochner_martinelli_jets(zetas, z)
    w = zetas - z[None, :]
    s = 1.0 / np.sum(np.abs(w) ** 2, axis=1)[:, None, None, None]
    wb = w[:, None, None, :]
    wv = (w @ V.T)[:, :, None, None] * s                    # (w . v_a) / S
    d_gamma = s * (np.eye(w.shape[1]) * wv + V[None, :, :, None] * wb * s
                   - 2.0 * eta[:, None, :, None] * wb * wv)
    return np.einsum("Nkl,al->Nak", beta, V), d_gamma


def barrier_mixed_jets(model: ManifoldModel, zetas, z, V):
    """D_a eta and D_a gamma of the barrier section as tensors, as for
    :func:`euclidean_mixed_jets`: D gamma = (D dP/dzetabar - D eta (x)
    dPhi/dzetabar - eta (x) w^T D dP/dzetabar - gamma D Phi) / Phi, the mixed
    jet D dP/dzetabar from :func:`padded_dP_mixed` (zero for m = 1)."""
    jets = barrier.barrier_jets(model, zetas, z)
    eta, beta, gamma, phi, _ = sections.barrier_section_jets(model, zetas,
                                                             z)
    d_eta = V @ np.swapaxes(beta, 1, 2)                          # (N, d, n)
    d_phi = jets.dPhi_dzbar @ V.T                                # (N, d)
    d_gamma = -(d_eta[..., None] * jets.dPhi_dzetabar[:, None, None, :]
                + gamma[:, None] * d_phi[..., None, None])
    if jets.dG is not None:
        mixed = padded_dP_mixed(model, jets, V)
        w = zetas - z[None, :]
        d_gamma += mixed - eta[:, None, :, None] * (w[:, None, None] @ mixed)
    return d_eta, d_gamma / phi[:, None, None, None]


def contract_mixed_jets(d_eta, d_gamma, x, A):
    """sum over nodes of x . D_a eta + <A, D_a gamma> from the tensors,
    shape (d,): what V @ pullback(x, A) gives for a section pullback."""
    return (np.einsum("Nk,Nak->a", x, d_eta)
            + np.einsum("Nkj,Nakj->a", A, d_gamma))


def dense_pullback(pullback, gamma):
    """The section pullback as a function of dense adjoints (x, A), A of
    shape (N, n, n) an adjoint of the section's jet gamma, read through V ->
    A V and <A, gamma> per node."""
    return lambda x, A: pullback(x, lambda V: A @ V,
                                 np.einsum("Nkj,Nkj->N", A, gamma))


def applied_adjoint(times, N, n):
    """The dense adjoint (N, n, n) that ``times`` (V -> A V) applies: its
    columns are the images of the basis vectors, A = times(I)."""
    return times(np.broadcast_to(np.eye(n, dtype=complex), (N, n, n)))


def quotient_scatter(A, reduce, keep):
    """The dense adjoint (N, n, n) of an adjoint A' (n - 1, dim, N) of the
    quotient rows of ``homotopy._kernel_quotient``: the transpose of its
    gather, A[row r] = sum_c A'[r, c] Pi[c], with the projection Pi (dim, N,
    n) read off the basis vectors by ``reduce`` and the rows placed at the
    non-pivot rows ``keep`` (N, n), the pivot row zero."""
    N, n = keep.shape
    Pi = reduce(np.broadcast_to(np.eye(n, dtype=complex), (N, n, n)))
    dense = np.zeros((N, n, n), dtype=complex)
    dense[keep] = np.einsum("rcN,cNj->Nrj", A, Pi).reshape(-1, n)
    return dense


def stream_chunks(grid):
    """The node stream of ``grid`` regrouped into its chunks: the blocks that
    share one direction table, concatenated field by field into one
    :class:`~crhomotopy.quadrature.NodeChunk` carrying that table."""
    def joined(blocks):
        return quadrature.NodeChunk(**{
            name: (value if name == "directions" else np.concatenate(
                [vars(b)[name] for b in blocks]))
            for name, value in vars(blocks[0]).items()})

    blocks = []
    for block in grid.chunks():
        if blocks and block.directions is not blocks[0].directions:
            yield joined(blocks)
            blocks = []
        blocks.append(block)
    if blocks:
        yield joined(blocks)


def first_chunk(grid):
    """The first chunk of ``grid``'s node stream, all of its blocks."""
    return next(stream_chunks(grid))


def codimension_four_model():
    """n = 7, m = 4, q = 1: the sphere factor of the level set is S^3."""
    return ManifoldModel(n=7, m=4, q=1, hermitian=[
        np.diag([1.0, -1.0, 1.0]), np.diag([1.0, 1.0, -1.0]),
        np.diag([-1.0, 1.0, 1.0]), np.diag([1.0, -1.0, -1.0])])


def random_unitary(d, seed):
    """A random d x d unitary: the QR factor of a complex Gaussian matrix,
    its column phases fixed by the diagonal of R."""
    rng = np.random.default_rng(seed)
    q, tri = np.linalg.qr(rng.standard_normal((d, d))
                          + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(tri) / np.abs(np.diag(tri)))


def rotated_model(model, U, O):
    """The quadric that diag(U, O) maps ``model`` onto: H'_k = sum_l O_kl
    U H_l U^H."""
    turned = np.tensordot(O, [U @ h @ U.conj().T for h in model.hermitian],
                          axes=(1, 0))
    return ManifoldModel(n=model.n, m=model.m, q=model.q,
                         hermitian=list(turned), radius=model.radius,
                         name=model.name + "_rotated")


def tensordot_contractions(model: ManifoldModel, zp, thetas):
    """The Levi-stack contractions as np.tensordot forms them, rebuilding
    the stack's flat layout on every call: H_k z' (..., m, d), the graph
    heights, the z'-block -conj(z') H_k of the holomorphic gradients and
    the pencil -theta . H, the references of the one-GEMM forms of
    :class:`ManifoldModel`."""
    H = model.hermitian_stack
    hz = np.tensordot(zp, H, axes=(-1, 2))
    return {"levi_products": hz, "height": levi_heights(hz, zp),
            "holo_gradients": -np.tensordot(zp.conj(), H, axes=(-1, 1)),
            "levi_pencil": -np.tensordot(thetas, H, axes=(-1, 0))}


def concatenated_block(grid, params):
    """A block's nodes built with the tensordot H z' and concatenations, the
    reference of :meth:`QuadratureGrid._assemble`, which writes them in
    place: (zeta, conormal, surface factor, sigma)."""
    p, directions, index, weight = params
    model = grid.model
    d, m = model.tangential_dim, model.m
    sigma = directions[index]
    zp = grid.center_zp[None, :] + p[:, 0:2 * d:2] + 1j * p[:, 1:2 * d:2]
    u = grid.center_u[None, :] + p[:, 2 * d:2 * d + m]
    hz = tensordot_contractions(model, zp, sigma)["levi_products"]
    im_w = levi_heights(hz, zp) + grid.epsilon * sigma
    conormal = np.concatenate(
        [-2.0 * (sigma[:, None] @ hz)[:, 0], 1j * sigma], axis=1)
    conormal *= grid.epsilon ** (m - 1)
    zeta = np.concatenate([zp, u + 1j * im_w], axis=1)
    return zeta, conormal, np.linalg.norm(conormal, axis=1), sigma


def velocity_columns(grid, chunk):
    """Complex velocity columns of the level-set parameterization at the
    chunk's nodes, (N, n, 2n-1): per z' coordinate its real and imaginary
    direction c', which drags Im w_k by 2 Re(conj(c') . H_k z'), then each
    Re w_k, then i eps times the sphere tangent basis at the chunk's sigma.
    """
    model = grid.model
    d, m, n = model.tangential_dim, model.m, model.n
    zp = chunk.zeta[:, :d]
    sigma = chunk.sigma
    hz = np.stack([np.einsum("ij,Nj->Ni", h, zp) for h in model.hermitian],
                  axis=1)                                        # (N, m, d)
    vel = np.zeros((zp.shape[0], n, 2 * n - 1), dtype=complex)
    for j in range(d):
        vel[:, j, 2 * j] = 1.0
        vel[:, d:, 2 * j] = 2j * hz[:, :, j].real
        vel[:, j, 2 * j + 1] = 1j
        vel[:, d:, 2 * j + 1] = 2j * hz[:, :, j].imag
    for k in range(m):
        vel[:, d + k, 2 * d + k] = 1.0
    if m >= 2:
        vel[:, d:, 2 * d + m:] = 1j * grid.epsilon \
            * quadrature._sphere_tangent_basis(sigma)
    return vel


def dense_det9(velocity):
    """Per-node (2n-1) determinants of the functional rows with one dzetabar
    index removed, [conj(velocity) without row k | velocity], one LAPACK
    determinant per node and k, (N, n)."""
    N, n, cols = velocity.shape
    out = np.empty((N, n), dtype=complex)
    for k in range(n):
        keep = [l for l in range(n) if l != k]
        mat = np.concatenate([velocity.conj()[:, keep, :], velocity], axis=1)
        out[:, k] = np.linalg.det(mat)
    return out


def dense_orientation_and_jacobian(sigma, velocity):
    """Boundary orientation signs and surface factors per node, (N,) each.

    orient = sign det [outward normal | velocity columns] in the real
    coordinates of C^n, the outward normal moving Im w along sigma, times
    (-1)^(n(n-1)/2), the sign from the interleaved real coordinates to the
    complex-blocked orientation (all dzeta before all dzeta-bar) in which
    the reproduction constant (2 pi i)^n is exact.  The surface factor is
    sqrt(det(V^T V)) of the real velocity matrix V.
    """
    N, n, cols = velocity.shape
    nu = np.zeros((N, n), dtype=complex)
    nu[:, n - sigma.shape[1]:] = 1j * sigma
    stacked = np.empty((N, 2 * n, cols + 1))
    stacked[:, 0::2, 0] = nu.real
    stacked[:, 1::2, 0] = nu.imag
    stacked[:, 0::2, 1:] = velocity.real
    stacked[:, 1::2, 1:] = velocity.imag
    real_vel = stacked[:, :, 1:]
    orient = (-1.0) ** (n * (n - 1) // 2) * np.sign(np.linalg.det(stacked))
    gram = np.einsum("Nij,Nik->Njk", real_vel, real_vel)
    return orient, np.sqrt(np.abs(np.linalg.det(gram)))


# rank-verified tangential frame

@dataclass
class TangentialFrame:
    """Pointwise frame: W rows span T', their conjugates span T'',
    Y rows complete the real tangent space, normals are the rho gradients."""

    point: np.ndarray
    W: np.ndarray        # (n - m, n) coefficient rows against d/d zeta
    Wbar: np.ndarray     # (n - m, n) coefficient rows against d/d zeta-bar
    Y: np.ndarray        # (m, n) complex velocity rows of real fields
    normal: np.ndarray   # (m, n) complex velocities of the gradient directions


def _real_velocity_matrix(vels_complex):
    """Real 2n x k matrix from complex velocity columns (interleaved re/im)."""
    v = np.asarray(vels_complex)
    out = np.empty((2 * v.shape[0], v.shape[1]))
    out[0::2] = v.real
    out[1::2] = v.imag
    return out


def tangential_frame(model: ManifoldModel, z) -> TangentialFrame:
    """Frame at a point on the manifold (rank-verified)."""
    z = np.asarray(z, dtype=complex)
    _, rho_norm = model.defining_values(z)
    if rho_norm > 100 * model.tol_on_manifold:
        raise DegeneratePointError(
            f"point is off the manifold: rho = {float(rho_norm):.3e}")
    W = holomorphic_tangent_rows(model, z)
    grads = model.holo_gradients(z)

    # coordinate system (rho_k, Im F_k, Re z'_j, Im z'_j); Y_k is the
    # coordinate-dual field of Im F_k, computed by inverting the real Jacobian
    n, m, d = model.n, model.m, model.tangential_dim
    jac = np.zeros((2 * n, 2 * n))
    for k in range(m):
        g = grads[k]
        # d rho_k(v) = 2 Re(sum_a g_a v_a)
        jac[k, 0::2] = 2.0 * g.real
        jac[k, 1::2] = -2.0 * g.imag
        # Im F_k(zeta) = Im <-g, zeta - z>: differential v -> Im(-sum g_a v_a)
        jac[m + k, 0::2] = -g.imag
        jac[m + k, 1::2] = -g.real
    for j in range(d):
        jac[2 * m + 2 * j, 2 * j] = 1.0       # Re z'_j
        jac[2 * m + 2 * j + 1, 2 * j + 1] = 1.0  # Im z'_j
    sv = np.linalg.svd(jac, compute_uv=False)
    if sv[-1] < 1e-10 * sv[0]:
        raise DegeneratePointError("coordinate Jacobian is singular")
    inv = np.linalg.inv(jac)
    Y = np.empty((m, n), dtype=complex)
    for k in range(m):
        col = inv[:, m + k]
        Y[k] = col[0::2] + 1j * col[1::2]
    normal = 2.0 * grads.conj()

    # full-rank audit of the real span of (W, conj W, Y)
    reals = []
    for i in range(d):
        reals.append(W[i])
        reals.append(1j * W[i])
    for k in range(m):
        reals.append(Y[k])
    mat = _real_velocity_matrix(np.array(reals).T)
    rank = np.linalg.matrix_rank(mat, tol=1e-8)
    if rank != 2 * n - m:
        raise DegeneratePointError(f"frame rank {rank} != {2 * n - m}")
    return TangentialFrame(point=z, W=W, Wbar=W.conj(), Y=Y, normal=normal)


# tangential projection, tangential d-bar and the gradient-flow extension

def dual_covector_rows(model: ManifoldModel, z):
    """Rows 0..n-m-1: covectors dual to the T'' frame that annihilate the
    conjugate normal directions; rows n-m..n-1 complete the dual basis.

    All entries are holomorphic in the base point for graph quadrics.
    """
    z = np.asarray(z, dtype=complex)
    wb = conjugate_frame_rows(model, z)                      # (..., d, n)
    nu = model.holo_gradients(z).conj()                      # (..., m, n)
    V = np.concatenate([wb, nu], axis=-2)                    # (..., n, n)
    return np.linalg.inv(np.swapaxes(V, -1, -2))             # rows = duals


def project_tangential(model: ManifoldModel, values, z, degree: int):
    """Canonical ambient representative of the tangential part.

    Idempotent; annihilates any component containing a conjugate normal
    covector.  The tangential components, a form on C^(n-m), evaluated at
    the dual-covector columns: sum over I of tan[I] det(duals[I, J]).
    """
    if degree == 0:
        return values
    z = np.asarray(z, dtype=complex)
    tan = tangential_components(model, values, z, degree)
    duals = dual_covector_rows(model, z)[..., :model.tangential_dim, :]
    return _evaluate_batched(tan, np.swapaxes(duals, -1, -2),
                             model.tangential_dim, degree)


def tangential_dbar_values(model: ManifoldModel, field: FormField, z):
    """Ambient coefficients of the tangential d-bar of a field at points z:
    projection of the differential of the (graph-constant) extension."""
    raw = field.dbar_field().values(model, z)
    return project_tangential(model, raw, z, field.degree + 1)


def gradient_flow_projection(model: ManifoldModel, z):
    """Project to the manifold along the real gradient span of the defining
    functions (at most 8 Newton steps on the rho vector).  As the operators'
    ``extension=`` it extends a form constant along the gradient flow, the
    second admissible extension next to the graph projection."""
    z = np.asarray(z, dtype=complex).copy()
    for _ in range(8):
        vec, norm = model.defining_values(z)
        if np.all(norm < 1e-14):
            break
        grads = model.holo_gradients(z)           # (..., m, n)
        # displacement sum_l c_l conj(g_l) changes rho_k by
        # 2 Re(Gram)_{kl} c_l; real coefficients solve the m x m system
        gram = 2.0 * np.einsum("...ki,...li->...kl", grads, grads.conj()).real
        coef = np.linalg.solve(gram, -vec[..., None])[..., 0]
        z = z + np.einsum("...k,...ki->...i", coef, grads.conj())
    return z


# pointwise barrier reference on phase-fixed eigenvector rows

def normal_direction(model: ManifoldModel, zeta):
    """theta(zeta) = -rho_vec / rho; undefined on the manifold itself."""
    vec, norm = model.defining_values(zeta)
    if np.any(norm <= model.tol_on_manifold):
        raise ThetaUndefinedError("normal direction undefined where rho = 0")
    return -vec / norm[..., None]


def _fix_phase(vecs):
    """Deterministic phases: largest-magnitude entry made real positive."""
    out = vecs.copy()
    for j in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, j])))
        piv = out[i, j]
        if np.abs(piv) > 0:
            out[:, j] *= np.conj(piv) / np.abs(piv)
    return out


@dataclass
class CorrectionFrame:
    """Frame rows spanning the directions the barrier correction must cover.

    ``rows[j]`` are the coefficient vectors a_j; the quadratic correction
    built from them is positive exactly on the conjugate span, which equals
    the nonpositive eigendirections of the directional Levi matrix.  ``scale``
    multiplies the pairings so the corrected form clears the most negative
    covered eigenvalue with margin: scale^2 rows^H rows is G of
    ``barrier._frames_for_thetas`` on the z'-block.
    """

    rows: np.ndarray          # (n - q - m, n)
    scale: float


def correction_frame(model: ManifoldModel, theta) -> CorrectionFrame:
    """Orthonormal eigenvector rows of the n - q - m lowest eigenvalues of
    the directional Levi matrix -theta . H, in ascending order with fixed
    phases."""
    count = model.n - model.q - model.m
    d = model.tangential_dim
    evals, evecs = np.linalg.eigh(-np.tensordot(
        theta, np.stack(model.hermitian), axes=(0, 0)))
    rows = np.zeros((count, model.n), dtype=complex)
    # pairings A_j(w) = sum_i rows[j, i] w_i are positive on the conjugate
    # eigendirections, so store conjugates of the eigenvectors
    rows[:, :d] = _fix_phase(evecs[:, :count]).conj().T
    scale = float(np.sqrt(CORRECTION_MARGIN * max(1.0, -float(evals[0]))))
    return CorrectionFrame(rows=rows, scale=scale)


def scaled_frame_rows(model: ManifoldModel, theta_vec) -> np.ndarray:
    """Correction frame rows multiplied by the positivity margin scale."""
    v = np.asarray(theta_vec, dtype=float)
    frame = correction_frame(model, v / np.linalg.norm(v))
    return frame.scale * frame.rows


def kato_frame_derivative(model: ManifoldModel, thetas):
    """G = s^2 Pi and dG / d theta along the unit sphere, (N, d, d) and
    (N, m, d, d), from the per-node tensor A_k = -(H_k + theta_k M) of
    M = -theta . H in complex arithmetic: dPi_k = sum_{i kept, j dropped}
    (v_i v_i^H A_k v_j v_j^H + h.c.) / (lambda_i - lambda_j) (Kato, II
    sec. 2) and ds^2_k = -CORRECTION_MARGIN v_min^H A_k v_min, without the
    eigen-equation that ``barrier._frames_for_thetas`` uses to drop A_k."""
    thetas = thetas / np.linalg.norm(thetas, axis=1, keepdims=True)
    count = model.n - model.q - model.m
    H = np.stack(model.hermitian).astype(complex)
    M = -np.tensordot(thetas, H, axes=(1, 0))
    lam, vec = np.linalg.eigh(M)
    kept, dropped = vec[:, :, :count], vec[:, :, count:]
    scale2 = CORRECTION_MARGIN * np.maximum(1.0, -lam[:, 0])
    Pi = np.einsum("Nic,Njc->Nij", kept, kept.conj())
    gap = lam[:, :count, None] - lam[:, None, count:]
    A = -(H + thetas[:, :, None, None] * M[:, None])
    B = np.einsum("Nic,Nkij,Njr->Nkcr", kept.conj(), A, dropped) / gap[:, None]
    half = np.einsum("Nic,Nkcr,Njr->Nkij", kept, B, dropped.conj())
    vmin = vec[:, :, 0]
    dlam = np.einsum("Ni,Nkij,Nj->Nk", vmin.conj(), A, vmin).real
    ds2 = np.where(lam[:, :1] < -1.0, -CORRECTION_MARGIN * dlam, 0.0)
    dG = scale2[:, None, None, None] * (half + np.swapaxes(half.conj(), 2, 3)) \
        + ds2[:, :, None, None] * Pi[:, None]
    return scale2[:, None, None] * Pi, dG


def padded_dP_mixed(model: ManifoldModel, jets, V):
    """The mixed jet sum_l V[a, l] d^2 P_i / d zetabar_j d zbar_l as a
    tensor, (N, a, i, j), from the zero-padded (N, m, n, n) tensor dH = H_k
    - dG_k on the z'-block of :class:`barrier.BarrierJetBatch`: the oracle
    of its pullback ``BarrierJetBatch.dP_mixed``."""
    d = model.tangential_dim
    dH = np.zeros(jets.dG.shape[:2] + (model.n, model.n), dtype=complex)
    dH[:, :, :d, :d] = np.stack(model.hermitian) - jets.dG
    return np.einsum("al,Nkli,Nkj->Naij", V, dH, jets.dtheta)


@dataclass
class BarrierEval:
    """All barrier quantities at one (zeta, z) pair."""

    zeta: np.ndarray
    z: np.ndarray
    theta: np.ndarray
    Q: np.ndarray          # (m, n) gradient sections
    F: np.ndarray          # (m,) bilinear pairings <Q_k, w>
    a: np.ndarray          # (n-q-m, n) scaled frame rows
    A: np.ndarray          # (n-q-m,) frame pairings with w
    script_A: float        # sum |A_j|^2  (real, >= 0)
    P: np.ndarray          # (n,) combined section
    Phi: complex           # bilinear phase


def evaluate_barrier(model: ManifoldModel, zeta, z) -> BarrierEval:
    """Evaluate the barrier at a point pair with rho(zeta) > 0, pointwise on
    the frame rows, independently of ``barrier.barrier_jets`` and
    ``barrier.barrier_phase``."""
    zeta = np.asarray(zeta, dtype=complex)
    z = np.asarray(z, dtype=complex)
    theta = normal_direction(model, zeta)
    w = zeta - z
    # gradient sections Q_k = -d rho_k(z): a quadric's holomorphic Hessian
    # vanishes, so no second-order term
    Q = -model.holo_gradients(z)
    F = Q @ w
    a = scaled_frame_rows(model, theta)
    A = a @ w
    script_A = float(np.sum(np.abs(A) ** 2))
    P = np.einsum("k,ki->i", theta, Q)
    if a.size:
        P = P + np.einsum("ji,j->i", a, A.conj())
    Phi = complex(P @ w)
    return BarrierEval(zeta=zeta, z=z, theta=theta, Q=Q, F=F, a=a, A=A,
                       script_A=script_A, P=P, Phi=Phi)


# finite-difference reference for the d-bar of the conjugate frame pairings
THETA_FD_STEP = 1e-5


@dataclass
class MuDecomposition:
    """Split of d-bar_zeta of the conjugate frame pairings.

    mu_tau[j, l]: the frozen-frame part conj(a_jl).
    mu_nu[j, l]:  the frame-variation part sum_i wbar_i d conj(a_ji)/d zetabar_l.
    """

    mu_tau: np.ndarray
    mu_nu: np.ndarray


def split_correction_dbar(model, zeta, z, step: float = None,
                          frozen_theta=None) -> MuDecomposition:
    """Decompose d-bar_zeta conj(A_j) into frame and variation parts.

    The variation part differentiates the pointwise frame rows through
    theta(zeta) by central Wirtinger differences of the composite map.
    """
    if step is None:
        step = THETA_FD_STEP * model.radius
    zeta = np.asarray(zeta, dtype=complex)
    z = np.asarray(z, dtype=complex)
    w = zeta - z
    theta = (np.asarray(frozen_theta, float) if frozen_theta is not None
             else normal_direction(model, zeta))
    rows = scaled_frame_rows(model, theta)
    mu_tau = rows.conj()
    count = rows.shape[0]
    mu_nu = np.zeros((count, model.n), dtype=complex)
    if frozen_theta is None and model.m > 1:
        for l in range(model.n):
            shifts = []
            for dz in (step, -step, 1j * step, -1j * step):
                pt = zeta.copy()
                pt[l] += dz
                shifts.append(scaled_frame_rows(
                    model, normal_direction(model, pt)).conj())
            fx = (shifts[0] - shifts[1]) / (2 * step)
            fy = (shifts[2] - shifts[3]) / (2 * step)
            dconj_dzetabar = 0.5 * (fx + 1j * fy)
            mu_nu[:, l] = dconj_dzetabar @ w.conj()
    return MuDecomposition(mu_tau=mu_tau, mu_nu=mu_nu)


def fd_section_jet(value_fn, zeta, z, t, step=1e-6) -> SectionJet:
    """Jets of an arbitrary section by central Wirtinger differences.

    Independent of the analytic jet formulas: the finite-difference oracle
    that the tests check the analytic jets against.
    """
    zeta = np.asarray(zeta, dtype=complex)
    z = np.asarray(z, dtype=complex)
    n = zeta.shape[0]
    val = np.asarray(value_fn(zeta, z, t), dtype=complex)
    d_zbar = np.zeros((n, n), dtype=complex)
    d_zetabar = np.zeros((n, n), dtype=complex)
    for l in range(n):
        for target, arr in (("zeta", d_zetabar), ("z", d_zbar)):
            base = zeta if target == "zeta" else z
            shifts = []
            for dz in (step, -step, 1j * step, -1j * step):
                p = base.copy()
                p[l] += dz
                if target == "zeta":
                    shifts.append(np.asarray(value_fn(p, z, t), dtype=complex))
                else:
                    shifts.append(np.asarray(value_fn(zeta, p, t), dtype=complex))
            fx = (shifts[0] - shifts[1]) / (2 * step)
            fy = (shifts[2] - shifts[3]) / (2 * step)
            arr[:, l] = 0.5 * (fx + 1j * fy)
    d_t = (np.asarray(value_fn(zeta, z, t + step), dtype=complex)
           - np.asarray(value_fn(zeta, z, t - step), dtype=complex)) / (2 * step)
    return SectionJet(value=val, d_zbar=d_zbar, d_zetabar=d_zetabar, d_t=d_t)


# conjugate-frame derivative of quadrature-backed scalars by finite
# differences: the oracle of the analytic dbar that identity_residual uses

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


def _rk4_step(velocity, point, s, h):
    """One classical 4th-order step of point' = velocity(point, s)."""
    k1 = velocity(point, s)
    k2 = velocity(point + 0.5 * h * k1, s + 0.5 * h)
    k3 = velocity(point + 0.5 * h * k2, s + 0.5 * h)
    k4 = velocity(point + h * k3, s + h)
    return point + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def flow_from(model: ManifoldModel, z, controls, time: float = 1.0,
              steps: int = 64, return_path: bool = False):
    """Integrate the frame flow with a fixed-step classical 4th-order method.

    Zero controls return the start point; halving the step should contract
    the endpoint error by ~16 (tested).
    """
    z = np.asarray(z, dtype=complex)
    h = time / steps
    path = [z.copy()]
    point = z.copy()
    for _ in range(steps):
        point = _rk4_step(lambda p, s: norms.frame_velocity(model, p, controls),
                          point, 0.0, h)
        if np.max(np.abs(point)) > 4.0 * model.radius:
            raise RuntimeError("flow left the coordinate chart")
        if return_path:
            path.append(point.copy())
    if return_path:
        return point, np.array(path)
    return point


def invert_flow(model: ManifoldModel, z, target, tol: float = 1e-9,
                max_iter: int = 40):
    """Controls c with flow endpoint(z, c) = target, by damped Newton with
    finite-difference Jacobian in the 2n real control coordinates."""
    z = np.asarray(z, dtype=complex)
    target = np.asarray(target, dtype=complex)
    d, m = model.tangential_dim, model.m

    def pack(vec):
        x = vec[:m]
        y = vec[m:2 * m]
        u = vec[2 * m:2 * m + d]
        v = vec[2 * m + d:]
        return x, y, u, v

    def residual(vec):
        end = flow_from(model, z, pack(vec), steps=32)
        diff = end - target
        return np.concatenate([diff.real, diff.imag])

    size = 2 * m + 2 * d
    vec = np.zeros(size)
    # linear warm start: tangential difference and transverse offsets
    zp_t, w_t = model.split(target)
    zp_0, w_0 = model.split(z)
    vec[2 * m:2 * m + d] = (zp_t - zp_0).real
    vec[2 * m + d:] = (zp_t - zp_0).imag
    vec[m:2 * m] = (w_t - w_0).real
    for it in range(max_iter):
        res = residual(vec)
        if np.linalg.norm(res) < tol:
            return pack(vec)
        jac = np.empty((res.size, size))
        h = 1e-6
        for j in range(size):
            probe = vec.copy()
            probe[j] += h
            jac[:, j] = (residual(probe) - res) / h
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"singular flow Jacobian: {exc}") from exc
        lam = 1.0
        base = np.linalg.norm(res)
        while lam > 1e-4:
            if np.linalg.norm(residual(vec + lam * step)) < base:
                break
            lam *= 0.5
        vec = vec + lam * step
    raise RuntimeError(
        f"flow inversion: no convergence after {max_iter} iterations "
        f"(residual {np.linalg.norm(residual(vec)):.2e})")


def rk4_integrate_controls(model: ManifoldModel, z, controls_at,
                           samples: int = 51) -> norms.TangentCurve:
    """``norms.integrate_controls`` one step at a time: the step-by-step
    classical RK4 that its batched form reproduces bit for bit."""
    point = np.asarray(z, dtype=complex)
    pts = [point]
    s_vals = np.linspace(0.0, 1.0, samples)
    h = s_vals[1] - s_vals[0]
    for s in s_vals[:-1]:
        point = _rk4_step(lambda p, s_local: norms.frame_velocity(
            model, p, controls_at(s_local)), point, s, h)
        pts.append(point)
    vels = [norms.frame_velocity(model, p, controls_at(s))
            for p, s in zip(pts, s_vals)]
    return norms.TangentCurve(samples=np.stack(pts, axis=-2), s_values=s_vals,
                              velocity_samples=np.stack(vels, axis=-2))


@dataclass
class TangentProjection:
    point: np.ndarray          # projected point on the complex-tangent slice
    curve: np.ndarray          # sampled curve from the base point
    controls: tuple


def complex_tangent_projection(model: ManifoldModel, z, zeta,
                               samples: int = 51) -> TangentProjection:
    """Project through the flow chart of ``norms`` onto the complex-tangent
    slice.

    Inverts the flow at zeta, keeps only the complex-tangential controls,
    and re-flows; the returned curve is the partial flow from z to the
    projected point.
    """
    x, y, u, v = invert_flow(model, z, zeta)
    controls = (np.zeros_like(x), np.zeros_like(y), u, v)
    end, path = flow_from(model, z, controls, steps=max(64, samples),
                          return_path=True)
    take = np.linspace(0, path.shape[0] - 1, samples).astype(int)
    pts = path[take]
    curve = norms.TangentCurve(
        samples=pts, s_values=np.linspace(0.0, 1.0, samples),
        velocity_samples=norms.frame_velocity(model, pts, controls))
    return TangentProjection(point=end, curve=curve, controls=controls)


def flow_from_exact(model: ManifoldModel, z, controls, time: float = 1.0):
    """Closed-form endpoint of :func:`flow_from` for graph quadrics.

    The tangential part moves linearly; the transverse part integrates the
    quadratic height drag exactly.
    """
    x, y, u, v = [np.asarray(c, dtype=float) for c in controls]
    z = np.asarray(z, dtype=complex)
    zp, w = model.split(z)
    c = u + 1j * v
    zp_end = zp + time * c
    w_end = w.astype(complex).copy()
    for k, hmat in enumerate(model.hermitian):
        const = np.sum(c * np.conj(hmat @ zp))
        slope = np.sum(c * np.conj(hmat @ c))
        w_end[k] += time * (y[k] + 1j * x[k]) \
            + 2j * (time * const + 0.5 * time ** 2 * slope)
    return np.concatenate([zp_end, w_end])


def normalization_defect(jet: SectionJet, zeta, z) -> float:
    """|sum_k eta_k (zeta_k - z_k) - 1| of one single-point section."""
    return abs(complex(np.sum(jet.value * (np.asarray(zeta)
                                           - np.asarray(z)))) - 1.0)


def normalization_worst_loop(model: ManifoldModel, z, budget: int, seed: int):
    """Worst normalization defect of the euclidean, barrier and combined
    sections over the ``audit-kernels`` samples near z, drawn and checked one
    sample at a time through the single-point sections."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(budget):
        zp = 0.2 * (rng.standard_normal(model.tangential_dim)
                    + 1j * rng.standard_normal(model.tangential_dim))
        zeta = model.graph_point(zp, 0.1 * rng.standard_normal(model.m),
                                 0.02 + 0.05 * rng.random(model.m))
        s1 = sections.bochner_martinelli_section(zeta, z)
        s2 = sections.barrier_section(model, zeta, z)
        combo = sections.combined_section(s1, s2, rng.random())
        for jet in (s1, s2, combo):
            worst = max(worst, normalization_defect(jet, zeta, z))
    return worst


def scalar_holder_estimate(model: ManifoldModel, h_fn, beta: float, z,
                           curve_budget: int = 24, pair_budget: int = 200,
                           seed: int = 0, scale: float = 0.2):
    """``norms.tangential_holder_estimate`` with a scalar ``h_fn`` (one
    point to one value), one pair and one curve at a time, drawing in the
    same order; each curve is an N = 1 call of the batched curve code.
    Returns the ambient and tangential (id, quotient) rows."""
    rng = np.random.default_rng(seed)
    d, m = model.tangential_dim, model.m
    zp0, w0 = model.split(np.asarray(z, dtype=complex))
    pairs = []
    for _ in range(pair_budget):
        dz = scale * (rng.standard_normal((2, d))
                      + 1j * rng.standard_normal((2, d)))
        du = scale * rng.standard_normal((2, m))
        a = model.graph_point(zp0 + dz[0], w0.real + du[0])
        b = model.graph_point(zp0 + dz[1], w0.real + du[1])
        pairs.append((a, b))
    amb_rows = []
    for pid, (a, b) in enumerate(pairs):
        dist = np.linalg.norm(a - b)
        if dist < 1e-12:
            continue
        amb_rows.append((pid, float(abs(h_fn(a) - h_fn(b))
                                    / dist ** (beta / 2.0))))
    tan_rows = []
    for cid in range(curve_budget):
        start_dz = 0.5 * scale * (rng.standard_normal(d)
                                  + 1j * rng.standard_normal(d))
        start = model.graph_point(zp0 + start_dz, w0.real)
        curve = norms.random_admissible_curve(
            model, start[None], rng.standard_normal((1, 2, d, 4)))
        vals = np.array([h_fn(p) for p in curve.samples[0]])
        s = curve.s_values
        for _ in range(16):
            if beta <= 1.0:
                i, j = rng.integers(0, s.size, size=2)
                if i == j:
                    continue
                quot = abs(vals[i] - vals[j]) / abs(s[i] - s[j]) ** beta
            else:
                i = int(rng.integers(1, s.size - 1))
                t = int(rng.integers(1, min(i, s.size - 1 - i) + 1))
                gap = s[i + t] - s[i]
                quot = abs(vals[i + t] - 2 * vals[i] + vals[i - t]) \
                    / gap ** beta
            tan_rows.append((cid, float(quot)))
    return amb_rows, tan_rows
