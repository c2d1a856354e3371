"""The determinant form of a section, on the array representation of
:mod:`crhomotopy._util`.

The 2n + 1 anticommuting symbols are ordered

    dzbar_1..n (symbols 0..n-1)  <  dzetabar_1..n (n..2n-1)  <  dt (2n),

and the determinant form of a section eta is the (n - 1)-form on them

    W = sum_k (-1)^(k-1) eta_k wedge_{j != k} d eta_j,

an array over the sorted (n - 1)-subsets of range(2n + 1) in
``combinations`` order, with a trailing node axis.  Its part W_r of degree r
in dzbar is the set of rows that :func:`zbar_degree` gives r; the coefficient
of a row is

    det[eta | dzbar-jet columns | dzetabar-jet columns | dt jet (last)]

over the row's symbols.  The holomorphic volume factor (wedge of all dzeta)
is not carried: every kernel in this package contains it exactly once.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from ._util import evaluate_form


def cf_component(eta, d_zbar, d_zetabar, d_t):
    """The determinant form of a section over a node axis.

    eta        (n, N) section values
    d_zbar     (n, n, N) jets [k, l] = d eta_k / d zbar_l
    d_zetabar  (n, n, N) jets [k, l] = d eta_k / d zetabar_l
    d_t        (n, N) parameter jets

    Returns the (n - 1)-form det[eta | .] evaluated at the sorted
    (n - 1)-subsets of the 2n + 1 columns [d_zbar | d_zetabar | d_t], shape
    (C(2n + 1, n - 1), N).
    """
    eta = np.asarray(eta, dtype=complex)
    n = eta.shape[0]
    cols = np.concatenate([np.swapaxes(np.asarray(d_zbar, dtype=complex), 0, 1),
                           np.swapaxes(np.asarray(d_zetabar, dtype=complex), 0, 1),
                           np.asarray(d_t, dtype=complex)[None]])
    eta_form = evaluate_form(np.ones((1, 1), dtype=complex), eta, n, n, 1)
    return evaluate_form(eta_form, cols.reshape(-1, eta.shape[1]), n, n - 1,
                         n - 1)


@lru_cache(maxsize=None)
def zbar_degree(n, p):
    """Read-only dzbar count of each sorted p-subset of range(2n + 1), in
    ``combinations`` order: the degree in dzbar of each row of a p-form."""
    degree = np.array([sum(i < n for i in S)
                       for S in combinations(range(2 * n + 1), p)])
    degree.flags.writeable = False
    return degree
