"""The exterior algebra of the array representation against independent
oracles: d-bar wedges, the fold weights of the operators and the tangential
minors."""

from itertools import combinations
from math import comb

import numpy as np
import pytest

from crhomotopy import homotopy
from crhomotopy._util import (basis_interior_table, evaluate_form,
                              interior_tables, wedge_jets)
from crhomotopy.fields import conjugate_frame_rows, tangential_components
from oracles import (brute_wedge, contraction_table, dual_covector_rows,
                     fold_vector, project_tangential)


def cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("n,p", [(n, p) for n in range(2, 8)
                                 for p in range(1, n + 1)])
def test_basis_interior_table_is_the_chain(n, p, rng):
    # the signed gather, scattered over the (p - 1)-tuples, against the
    # interior products with the basis vectors through the chain of
    # evaluate_form: each entry is one signed component or zero, so the two
    # agree exactly; n runs over the n - 1 rows of 3 <= n <= 8
    F = cplx(rng, comb(n, p), 5)
    index, subset, sign = basis_interior_table(n, p)
    assert index.shape == subset.shape == sign.shape \
        == (n, comb(n - 1, p - 1))
    got = np.zeros((n, comb(n, p - 1), 5), dtype=complex)
    got[np.arange(n)[:, None], subset] = sign[..., None] * F[index]
    want = evaluate_form(F, np.eye(n).reshape(-1, 1), n, p, 1)
    assert np.array_equal(got.reshape(want.shape), want)


@pytest.mark.parametrize("n", range(1, 7))
def test_evaluate_form_stack_only_where_read(n, rng):
    # evaluate_form stacks [V; -V] only when its tables read a negated
    # vector; the chain on the always-stacked vectors gives the same bits,
    # for every table shape (n_vec, n, p, j) with n <= 6 and 1 <= n_vec <= 3
    for n_vec in range(1, 4):
        for p in range(n + 1):
            for j in range(min(p, n_vec) + 1):
                F = cplx(rng, comb(n, p), 4)
                V = cplx(rng, n_vec * n, 4)
                levels, negated = interior_tables(n_vec, n, p, j)
                assert negated == any(np.any(v >= n_vec * n)
                                      for v, _ in levels)
                assert not negated or p >= 2
                want, stacked = F, np.concatenate([V, -V])
                for v_idx, f_idx in levels:
                    acc = stacked[v_idx[:, 0]] * want[f_idx[:, 0]]
                    for v, f in zip(v_idx.T[1:], f_idx.T[1:]):
                        acc += stacked[v] * want[f]
                    want = acc
                assert np.array_equal(evaluate_form(F, V, n, p, j), want)


@pytest.mark.parametrize("n,r", [(n, r) for n in range(2, 8)
                                 for r in range(n + 1)])
def test_wedge_jets_matches_symbol_expansion(n, r, rng):
    # r = n - 1 fills the top degree; r = n has no (r + 1)-tuple left
    jets = cplx(rng, 3, 2, comb(n, r), n)
    got = wedge_jets(jets, n, r)
    want = brute_wedge(jets, n, r)
    assert got.shape == want.shape == (3, 2, comb(n, r + 1))
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-14 * np.max(
        np.abs(want), initial=0.0)


@pytest.mark.parametrize("n,r", [(n, r) for n in range(2, 8)
                                 for r in range(n)])
def test_fold_weights_match_contraction_table(n, r, rng):
    # W[:, M] = sum of sign * gw[:, J] * det9[:, k] over the table rows of M
    N = 40
    gw = cplx(rng, N, comb(n, r))
    det9 = cplx(rng, N, n)
    want = np.zeros((N, comb(n, n - 1 - r)), dtype=complex)
    for k, j_idx, m_idx, sign in contraction_table(n, r):
        want[:, m_idx] += sign * gw[:, j_idx] * det9[:, k]
    got = homotopy._fold_weights(gw, fold_vector(det9, r), r)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def minors(weights, rows, r):
    """sum over J of weights[..., J] det(rows[..., I, J]) per sorted I, one
    LAPACK determinant per (I, J); rows (..., count, dim)."""
    count, dim = rows.shape[-2:]
    I_combos = list(combinations(range(count), r))
    J_combos = list(combinations(range(dim), r))
    shape = np.broadcast_shapes(weights.shape[:-1], rows.shape[:-2])
    out = np.zeros(shape + (len(I_combos),), dtype=complex)
    for i, I in enumerate(I_combos):
        for j, J in enumerate(J_combos):
            sub = rows[..., list(I), :][..., :, list(J)]
            out[..., i] += weights[..., j] * np.linalg.det(sub)
    return out


@pytest.mark.parametrize("which", ["primary", "secondary"])
@pytest.mark.parametrize("batched", [False, True])
def test_tangential_minors_match_lapack(which, batched, request, rng):
    model = request.getfixturevalue(which)
    n, d, m = model.n, model.tangential_dim, model.m
    N = 7 if batched else 1
    z = model.graph_point(0.2 * cplx(rng, N, d), 0.1 * rng.standard_normal(
        (N, m)))
    if not batched:
        z = z[0]            # one (n,) point against (1, nJ) values
    wb = conjugate_frame_rows(model, z)
    duals = dual_covector_rows(model, z)[..., :d, :]
    for r in range(d + 1):
        values = cplx(rng, N, comb(n, r))
        tan = tangential_components(model, values, z, r)
        want_tan = minors(values, wb, r)
        assert tan.shape == want_tan.shape
        assert np.max(np.abs(tan - want_tan)) <= 1e-13 * np.max(
            np.abs(want_tan))
        proj = project_tangential(model, values, z, r)
        want_proj = (values if r == 0 else
                     minors(want_tan, np.swapaxes(duals, -1, -2), r))
        assert proj.shape == want_proj.shape
        assert np.max(np.abs(proj - want_proj)) <= 1e-13 * np.max(
            np.abs(want_proj))
