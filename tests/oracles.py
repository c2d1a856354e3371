"""Independent test oracles.

These implementations deliberately avoid the package's computation paths:
the wedge expansions and the sign table iterate raw symbol choices and count
inversions, the defining-function oracle re-evaluates the polynomial from
its definition, the node-geometry oracles take dense determinants of the
velocity columns in place of the closed-form conormal, and derivative
oracles are plain central differences.
"""

import numpy as np


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


def central_diff(fn, x, step):
    return (fn(x + step) - fn(x - step)) / (2.0 * step)


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
    (L, M); ``tau`` None drops the last column.  Returns (M tuples, coef,
    bound), coef and its Hadamard bound (the product of the column norms)
    of shape (N, nL, nM)."""
    from itertools import combinations

    N, n = eta.shape
    L_combos = list(combinations(range(n), r_out))
    M_combos = list(combinations(range(n), n - 1 - r_out - (tau is not None)))
    coef = np.empty((N, len(L_combos), len(M_combos)), dtype=complex)
    bound = np.empty(coef.shape)
    for li, L in enumerate(L_combos):
        for mi, M in enumerate(M_combos):
            cols = ([eta] + [beta[:, :, l] for l in L]
                    + [gamma[:, :, m] for m in M]
                    + ([] if tau is None else [tau]))
            mat = np.stack(cols, axis=-1)
            coef[:, li, mi] = np.linalg.det(mat)
            bound[:, li, mi] = np.prod(np.linalg.norm(mat, axis=-2), axis=-1)
    return M_combos, coef, bound


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
