"""Shared numerical helpers: exterior-algebra index bookkeeping, deterministic
summation, canonical report serialization, small batched determinants."""

from __future__ import annotations

import json
import math
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
# small batched determinants (cofactor formulas for k <= 5, LAPACK for k >= 6)
# ---------------------------------------------------------------------------

def det2(m):
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def det3(m):
    return (m[..., 0, 0] * (m[..., 1, 1] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 1])
            - m[..., 0, 1] * (m[..., 1, 0] * m[..., 2, 2] - m[..., 1, 2] * m[..., 2, 0])
            + m[..., 0, 2] * (m[..., 1, 0] * m[..., 2, 1] - m[..., 1, 1] * m[..., 2, 0]))


def det4(m):
    out = 0
    for j in range(4):
        cols = [c for c in range(4) if c != j]
        minor = m[..., 1:, :][..., :, cols]
        term = m[..., 0, j] * det3(minor)
        out = out + (term if j % 2 == 0 else -term)
    return out


_PAIRS5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]
_COMP5 = {p: tuple(r for r in range(5) if r not in p) for p in _PAIRS5}
_SIGN5 = {p: perm_parity(p + _COMP5[p]) for p in _PAIRS5}


def det5_cols(cols):
    """Batched 5x5 determinant from five column arrays of shape (..., 5).

    Laplace split over the first two columns; all products are elementwise
    on views, no submatrix copies.
    """
    a = lambda i, j: cols[j][..., i]
    # 2x2 minors of columns (0, 1) over row pairs
    d2 = {p: a(p[0], 0) * a(p[1], 1) - a(p[1], 0) * a(p[0], 1)
          for p in _PAIRS5}
    # shared 2x2 minors of column pairs (3,4), (2,4), (2,3) over row pairs
    e34 = {p: a(p[0], 3) * a(p[1], 4) - a(p[0], 4) * a(p[1], 3)
           for p in _PAIRS5}
    e24 = {p: a(p[0], 2) * a(p[1], 4) - a(p[0], 4) * a(p[1], 2)
           for p in _PAIRS5}
    e23 = {p: a(p[0], 2) * a(p[1], 3) - a(p[0], 3) * a(p[1], 2)
           for p in _PAIRS5}
    out = 0
    for p in _PAIRS5:
        q, r, s = _COMP5[p]
        d3 = (a(q, 2) * e34[(r, s)] - a(q, 3) * e24[(r, s)]
              + a(q, 4) * e23[(r, s)])
        out = out + _SIGN5[p] * d2[p] * d3
    return out


def det5(m):
    """Unrolled batched 5x5 determinant on (..., 5, 5) stacks."""
    return det5_cols([m[..., j] for j in range(5)])


def small_det(m):
    """Determinant of (..., k, k) stacks.

    k <= 5 uses the explicit cofactor formulas above, which beat LAPACK at
    these sizes; k >= 6 goes to ``np.linalg.det``, one batched LU call.
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
    if k == 4:
        return det4(m)
    if k == 5:
        return det5(m)
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
