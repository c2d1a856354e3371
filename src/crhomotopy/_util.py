"""Shared numerical helpers: the exterior algebra of the array
representation, deterministic summation and canonical report serialization.

Forms on C^n are arrays over the sorted index tuples in ``combinations``
order.  Every sign of a sorted tuple is realized here, in cached read-only
gather tables: :func:`wedge_jets` (d-bar wedges), :func:`hodge_star`,
:func:`evaluate_form` (interior products, minor expansions),
:func:`basis_interior_table` (interior products with the basis vectors) and
:func:`avoiding_table` (the components that avoid one coordinate).
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from itertools import combinations

import numpy as np


# ---------------------------------------------------------------------------
# exterior algebra index bookkeeping
# ---------------------------------------------------------------------------

def insert_index(idx, tup):
    """Wedge dzbar_idx onto the strictly increasing tuple ``tup``: (sign,
    merged tuple), or (0, None) when idx is already in it."""
    if idx in tup:
        return 0, None
    pos = sum(i < idx for i in tup)
    return (-1) ** pos, tup[:pos] + (idx,) + tup[pos:]


def index_combinations(n: int, k: int):
    """All strictly increasing k-tuples from range(n)."""
    return list(combinations(range(n), k))


@lru_cache(maxsize=None)
def avoiding_table(n, k):
    """Positions of the k-tuples of range(n) that avoid a, one row per a:
    read-only, shape (n, C(n - 1, k)).  Relabeling range(n) without a as
    range(n - 1) keeps their order, so row a lists the k-tuples of range(n -
    1) in ``combinations`` order, signs unchanged."""
    pos = {M: i for i, M in enumerate(combinations(range(n), k))}
    table = np.array([[pos[M] for M in combinations(
        [c for c in range(n) if c != a], k)] for a in range(n)],
        dtype=np.intp).reshape(n, -1)
    table.flags.writeable = False
    return table


def evaluate_form(F, V, n, p, j):
    """Values of a p-form on C^n at the sorted j-subsets of the vectors V.

    A p-form F has components F[M] over the sorted p-tuples M, and
    F(u_1, ..., u_p) = sum over M of F[M] det[u_a[M_b]].  F has shape
    (C(n, p), nodes) and V (vector * n + coordinate, nodes).  Returns the
    (p - j)-forms F(v_s1, ..., v_sj, .), shape (subsets * C(n, p - j),
    nodes), the subsets in ``combinations`` order: j interior products
    through the gather tables of :func:`interior_tables`, which read the
    stacked [V; -V] only where a term has sign -1 (never for p = 1).
    """
    levels, negated = interior_tables(len(V) // n, n, p, j)
    if negated:
        V = np.concatenate([V, -V])
    for v_idx, f_idx in levels:
        acc = V[v_idx[:, 0]] * F[f_idx[:, 0]]
        for v, f in zip(v_idx.T[1:], f_idx.T[1:]):
            acc += V[v] * F[f]
        F = acc
    return F


@lru_cache(maxsize=None)
def interior_tables(n_vec, n, p, j):
    """Signed gather tables of :func:`evaluate_form` for n_vec vectors.

    Level i maps the (p - i + 1)-forms F(v_S, .) at the (i - 1)-prefixes S
    of the j-subsets to

        F(v_S, v_s, .)[M] = sum_{c not in M} (-1)^pos v_s[c] F(v_S, .)[M + c],

    pos being the place of c in the sorted M + c.  States are flat (prefix, M);
    vectors are flat s * n + c, and a term of sign -1 reads -v_s[c], n_vec * n
    places further on in the stacked [V; -V].  Returns (levels, negated):
    read-only (v_idx, f_idx) of shape (outputs, n - p + i) per level, and
    whether any term reads -v_s.
    """
    subsets = list(combinations(range(n_vec), j))
    levels, prev = [], [()]
    for i in range(1, j + 1):
        prefixes = sorted({S[:i] for S in subsets})
        src = {M: a for a, M in enumerate(combinations(range(n), p - i + 1))}
        terms = [[(S[-1] * n + c + (sign < 0) * n_vec * n,
                   prev.index(S[:-1]) * len(src) + src[merged])
                  for c in range(n) if c not in M
                  for sign, merged in [insert_index(c, M)]]
                 for S in prefixes for M in combinations(range(n), p - i)]
        table = np.array(terms).transpose(2, 0, 1).copy()
        table.flags.writeable = False
        levels.append(tuple(table))
        prev = prefixes
    negated = any(np.any(v_idx >= n_vec * n) for v_idx, _ in levels)
    return tuple(levels), negated


@lru_cache(maxsize=None)
def basis_interior_table(n, p):
    """Signed gather of the interior products of a p-form F on C^n with the
    basis vectors: read-only (index, subset, sign), each of shape (n, C(n -
    1, p - 1)), with (i_s F)[R] = sign * F[index] at row s for R the
    subset-th (p - 1)-tuple, over the R that avoid s ((i_s F)[R] = 0 for s
    in R), sign being (-1)^pos for pos the place of s in the sorted R + s.
    Scattered over the (p - 1)-tuples, its gather is ``evaluate_form(F,
    eye(n).reshape(-1, 1), n, p, 1)`` without the zero terms."""
    pos = {M: i for i, M in enumerate(combinations(range(n), p))}
    table = np.array([[(pos[merged], r, sign) for r, R in enumerate(
        combinations(range(n), p - 1)) if s not in R
        for sign, merged in [insert_index(s, R)]] for s in range(n)],
        dtype=np.intp).reshape(n, -1, 3)
    index, subset, sign = table.transpose(2, 0, 1)
    sign = sign.astype(float)
    for t in (index, subset, sign):
        t.flags.writeable = False
    return index, subset, sign


def hodge_star(F, n, k):
    """The (n - k)-form *F of a k-form F on C^n, shape (C(n, k), nodes):
    (*F)[Q] = sign(Q, Q^c) F[Q^c], with the sign of the permutation (Q, Q^c)
    of range(n).  The complements Q^c run through the k-tuples backwards."""
    return _star_signs(n, n - k) * F[::-1]


@lru_cache(maxsize=None)
def _star_signs(n, p):
    signs = np.array([(-1.0) ** (sum(Q) - p * (p - 1) // 2)
                      for Q in combinations(range(n), p)])[:, None]
    signs.flags.writeable = False
    return signs


def wedge_jets(jets, n, r):
    """Coefficients of sum over J, l of jets[..., J, l] dzbar_l ^ dzbar_J.

    ``jets`` has shape (..., C(n, r), n); returns the (r + 1)-form, shape
    (..., C(n, r + 1)), through the gather table of :func:`wedge_table`.
    """
    index, sign = wedge_table(n, r)
    flat = jets.reshape(jets.shape[:-2] + (-1,))
    acc = flat[..., index[:, 0]] * sign[:, 0]
    for i, s in zip(index.T[1:], sign.T[1:]):
        acc += flat[..., i] * s
    return acc


@lru_cache(maxsize=None)
def wedge_table(n, r):
    """Signed gather table of :func:`wedge_jets`: read-only (index, sign),
    both of shape (C(n, r + 1), r + 1).  Output K reads jets[J, K_a] at
    J * n + K_a, J = K - K_a, with sign (-1)^a for a = r, ..., 0 (the J in
    ``combinations`` order)."""
    J_pos = {J: i for i, J in enumerate(combinations(range(n), r))}
    K_all = list(combinations(range(n), r + 1))
    index = np.array([[J_pos[K[:a] + K[a + 1:]] * n + K[a]
                       for a in reversed(range(r + 1))] for K in K_all],
                     dtype=np.intp).reshape(-1, r + 1)
    sign = np.tile((-1.0) ** np.arange(r, -1, -1), (len(K_all), 1))
    index.flags.writeable = sign.flags.writeable = False
    return index, sign


# ---------------------------------------------------------------------------
# deterministic summation
# ---------------------------------------------------------------------------

class RunningSum:
    """Accumulates one complex copy per block total; exact fsum at the end."""

    def __init__(self, shape=()):
        self.shape = tuple(shape)
        self._totals = []

    def add(self, chunk_total):
        self._totals.append(np.array(chunk_total, dtype=complex))

    def total(self) -> np.ndarray:
        if not self._totals:
            return np.zeros(self.shape, dtype=complex)
        flat = np.stack(self._totals).reshape(len(self._totals), -1)
        out = np.array([complex(math.fsum(c.real), math.fsum(c.imag))
                        for c in flat.T], dtype=complex)
        return out.reshape(self.shape)


# ---------------------------------------------------------------------------
# LAPACK determinants (no package caller; perfbench/tracing.py wraps both)
# ---------------------------------------------------------------------------

def det5_cols(cols):
    return np.linalg.det(np.stack(cols, axis=-1))


def small_det(m):
    return np.linalg.det(m)


# ---------------------------------------------------------------------------
# fits and misc numerics
# ---------------------------------------------------------------------------

def loglog_slope(x, y):
    """Least-squares slope of log|y| against log x (positive x, nonzero y)."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.abs(np.asarray(y, dtype=float)))
    lx = lx - lx.mean()
    return float(np.dot(lx, ly - ly.mean()) / np.dot(lx, lx))


# ---------------------------------------------------------------------------
# canonical serialization (byte-stable reports)
# ---------------------------------------------------------------------------

def _canonical(obj):
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, np.ndarray):
        return _canonical(obj.tolist())
    return obj


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, shortest round-trip floats, no spaces."""
    return json.dumps(_canonical(obj), sort_keys=True, separators=(",", ":"))


def gauss_legendre_01(k: int):
    """Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(k)
    return 0.5 * (x + 1.0), 0.5 * w
