"""Shared numerical helpers: exterior-algebra index bookkeeping, deterministic
summation, canonical report serialization, small batched determinants."""

from __future__ import annotations

import json
import math
from functools import lru_cache
from itertools import combinations

import numpy as np


# ---------------------------------------------------------------------------
# exterior algebra index bookkeeping
# ---------------------------------------------------------------------------

def perm_parity(seq) -> int:
    """Sign of the permutation sorting ``seq`` (entries distinct)."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[j] < seq[i]:
                sign = -sign
    return sign


def merge_sorted(a, b):
    """Wedge two strictly increasing index tuples.

    Returns (sign, merged tuple) or (0, None) on index collision.
    """
    sign = 1
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return 0, None
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] jumps over the remaining len(a) - i factors of a
            if (len(a) - i) % 2 == 1:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, tuple(out)


def insert_index(idx, tup):
    """Insert a single index into a strictly increasing tuple with parity."""
    return merge_sorted((idx,), tup)


def sorted_tuple_and_sign(seq):
    """Sort distinct indices, returning (sign, sorted tuple); (0, None) on repeat."""
    if len(set(seq)) != len(seq):
        return 0, None
    return perm_parity(seq), tuple(sorted(seq))


def index_combinations(n: int, k: int):
    """All strictly increasing k-tuples from range(n)."""
    return list(combinations(range(n), k))


def evaluate_form(F, V, n, p, j):
    """Values of a p-form on C^n at the sorted j-subsets of the vectors V.

    A p-form F has components F[M] over the sorted p-tuples M, and
    F(u_1, ..., u_p) = sum over M of F[M] det[u_a[M_b]].  F has shape
    (C(n, p), nodes) and V (vector * n + coordinate, nodes).  Returns the
    (p - j)-forms F(v_s1, ..., v_sj, .), shape (subsets * C(n, p - j),
    nodes), the subsets in ``combinations`` order: j interior products
    through the gather tables of :func:`interior_tables`.
    """
    V = np.concatenate([V, -V])
    for v_idx, f_idx in interior_tables(len(V) // (2 * n), n, p, j):
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
    places further on in the stacked [V; -V].  Returns read-only (v_idx,
    f_idx) of shape (outputs, n - p + i) per level.
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
    return tuple(levels)


# ---------------------------------------------------------------------------
# deterministic summation
# ---------------------------------------------------------------------------

class RunningSum:
    """Accumulates chunk totals; final reduction via exact fsum."""

    def __init__(self, shape=()):
        self.shape = tuple(shape)
        self._re = []
        self._im = []

    def add(self, chunk_total):
        arr = np.asarray(chunk_total, dtype=complex)
        self._re.append(arr.real.copy())
        self._im.append(arr.imag.copy())

    def total(self) -> np.ndarray:
        if not self._re:
            return np.zeros(self.shape, dtype=complex)
        re = np.stack(self._re, axis=0)
        im = np.stack(self._im, axis=0)
        flat_re = re.reshape(re.shape[0], -1)
        flat_im = im.reshape(im.shape[0], -1)
        out = np.empty(flat_re.shape[1], dtype=complex)
        for i in range(flat_re.shape[1]):
            out[i] = complex(math.fsum(flat_re[:, i]), math.fsum(flat_im[:, i]))
        return out.reshape(self.shape)


# ---------------------------------------------------------------------------
# small batched determinants (cofactor formulas for k <= 3, LAPACK for k >= 4)
# ---------------------------------------------------------------------------

def det2(m):
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def det3(m):
    return (m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
            - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
            + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0]))


def det5_cols(cols):  # no package caller; perfbench/tracing.py wraps it
    return np.linalg.det(np.stack(cols, axis=-1))


def small_det(m):
    """Determinant of (..., k, k) stacks.

    k <= 3 uses the explicit cofactor formulas above; k >= 4 goes to
    ``np.linalg.det``, one batched LU call.
    """
    k = m.shape[-1]
    if k == 0:
        return np.ones(m.shape[:-2], dtype=m.dtype)
    if k == 1:
        return m[..., 0, 0]
    if k == 2:
        return det2(m)
    if k == 3:
        return det3(m)
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
