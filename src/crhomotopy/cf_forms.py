"""Graded antisymmetric coefficient tensors and the determinant form.

A :class:`FormTensor` holds the coefficients of a differential form in the
anticommuting symbols dzbar_1..dzbar_n, dzetabar_1..dzetabar_n and dt.
Coefficients are stored only on strictly increasing index tuples, in the
canonical symbol order

    dzbar block  <  dzetabar block  <  dt  (always last).

The holomorphic volume factor (wedge of all dzeta) is carried as a flag, not
as tensor rank: every kernel in this package contains it exactly once.

:func:`cf_component` evaluates the column determinant

    (1 / ((n-r-1)! r!)) Det[eta, (dzbar-jet columns)^r, (dzetabar/dt columns)^(n-r-1)]

one coefficient per choice of increasing columns; the factorial
normalization cancels against the multiplicity of identical columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from ._util import evaluate_form, insert_index, sorted_tuple_and_sign


@dataclass
class FormTensor:
    """Antisymmetric coefficient container.

    keys: (zbar_tuple, zetabar_tuple, dt_flag) with strictly increasing
    tuples; values: complex coefficients (scalars or equal-shape arrays).
    """

    n: int
    coeffs: dict = field(default_factory=dict)
    volume_flag: bool = True  # carries the implicit wedge of all dzeta

    def add(self, zbar, zetabar, dt, value):
        key = (tuple(zbar), tuple(zetabar), int(dt))
        if key in self.coeffs:
            self.coeffs[key] = self.coeffs[key] + value
        else:
            self.coeffs[key] = value

    def get(self, zbar, zetabar, dt=0):
        """Coefficient lookup accepting unsorted index tuples (with sign)."""
        sz, tz = sorted_tuple_and_sign(tuple(zbar))
        sx, tx = sorted_tuple_and_sign(tuple(zetabar))
        if sz == 0 or sx == 0:
            return 0.0
        return sz * sx * self.coeffs.get((tz, tx, int(dt)), 0.0)

    def component(self, zbar_degree: int) -> "FormTensor":
        """Part with exactly ``zbar_degree`` dzbar factors."""
        out = FormTensor(self.n, volume_flag=self.volume_flag)
        for key, val in self.coeffs.items():
            if len(key[0]) == zbar_degree:
                out.coeffs[key] = val
        return out

    def max_abs(self) -> float:
        if not self.coeffs:
            return 0.0
        return max(float(np.max(np.abs(v))) for v in self.coeffs.values())

    def scaled(self, factor) -> "FormTensor":
        out = FormTensor(self.n, volume_flag=self.volume_flag)
        for key, val in self.coeffs.items():
            out.coeffs[key] = factor * val
        return out

    def plus(self, other: "FormTensor") -> "FormTensor":
        out = FormTensor(self.n, volume_flag=self.volume_flag)
        out.coeffs = dict(self.coeffs)
        for key, val in other.coeffs.items():
            out.coeffs[key] = out.coeffs.get(key, 0.0) + val
        return out

    def prune(self, tol=0.0) -> "FormTensor":
        out = FormTensor(self.n, volume_flag=self.volume_flag)
        for key, val in self.coeffs.items():
            if np.max(np.abs(val)) > tol:
                out.coeffs[key] = val
        return out

    def to_json_dict(self):
        """Debug dump: index tuples to re/im pairs."""
        out = {}
        for (zb, xb, dt), val in sorted(self.coeffs.items()):
            tag = "z:" + ",".join(map(str, zb)) + "|x:" + ",".join(map(str, xb)) \
                  + ("|dt" if dt else "")
            v = complex(np.asarray(val).ravel()[0]) if np.size(val) == 1 else None
            out[tag] = ([float(v.real), float(v.imag)] if v is not None
                        else "array")
        return out


# ---------------------------------------------------------------------------
# determinant form
# ---------------------------------------------------------------------------

def cf_component(eta, d_zbar, d_zetabar, d_t, r: int) -> FormTensor:
    """Degree-r (in dzbar) component of the determinant form of a section.

    eta        (n,) section values
    d_zbar     (n, n) jets [k, l] = d eta_k / d zbar_l
    d_zetabar  (n, n) jets [k, l] = d eta_k / d zetabar_l
    d_t        (n,) parameter jets
    r          number of dzbar columns, 0 <= r <= n-1

    The coefficient of (L, M) is det[eta | d_zbar columns L | d_zetabar
    columns M], and the dt coefficient has the parameter jet as the final
    column (dt ordered last): the values of the (n - 1)-form det[eta | .] at
    the sorted (n - 1)-subsets of [d_zbar | d_zetabar | d_t] columns that
    hold r d_zbar columns.
    """
    eta = np.asarray(eta, dtype=complex)
    n = eta.shape[0]
    if not 0 <= r <= n - 1:
        raise ValueError(f"dzbar degree {r} out of range 0..{n - 1}")
    cols = np.concatenate([np.asarray(d_zbar, dtype=complex).T,
                           np.asarray(d_zetabar, dtype=complex).T,
                           np.asarray(d_t, dtype=complex)[None, :]])
    eta_form = evaluate_form(np.ones((1, 1), dtype=complex), eta[:, None],
                             n, n, 1)
    values = evaluate_form(eta_form, cols.reshape(-1, 1), n, n - 1, n - 1)
    out = FormTensor(n)
    for S, value in zip(combinations(range(2 * n + 1), n - 1), values[:, 0]):
        if sum(i < n for i in S) == r:
            out.add(S[:r], tuple(i - n for i in S[r:] if i < 2 * n),
                    2 * n in S, value)
    return out.prune()


def full_determinant_form(eta, d_zbar, d_zetabar, d_t) -> FormTensor:
    """Sum of all dzbar components (the full degree-(n-1) form)."""
    n = np.asarray(eta).shape[0]
    total = FormTensor(n)
    for r in range(n):
        total = total.plus(cf_component(eta, d_zbar, d_zetabar, d_t, r))
    return total.prune()


# ---------------------------------------------------------------------------
# exterior derivative assembly (used by the closedness check)
# ---------------------------------------------------------------------------

def wedge_left_zetabar(tensor: FormTensor, coeff_per_index) -> FormTensor:
    """Left-wedge sum_l c_l dzetabar_l onto a tensor."""
    out = FormTensor(tensor.n, volume_flag=tensor.volume_flag)
    for (zb, xb, dt), val in tensor.coeffs.items():
        for l, c in enumerate(coeff_per_index):
            if np.all(c == 0):
                continue
            sign, merged = insert_index(l, xb)
            if sign == 0:
                continue
            # the new dzetabar factor crosses the whole dzbar block
            total_sign = sign * (-1 if len(zb) % 2 else 1)
            out.add(zb, merged, dt, total_sign * c * val)
    return out.prune()


def wedge_left_zbar(tensor: FormTensor, coeff_per_index) -> FormTensor:
    """Left-wedge sum_l c_l dzbar_l onto a tensor."""
    out = FormTensor(tensor.n, volume_flag=tensor.volume_flag)
    for (zb, xb, dt), val in tensor.coeffs.items():
        for l, c in enumerate(coeff_per_index):
            if np.all(c == 0):
                continue
            sign, merged = insert_index(l, zb)
            if sign == 0:
                continue
            out.add(merged, xb, dt, sign * c * val)
    return out.prune()


def wedge_left_dt(tensor: FormTensor, coeff) -> FormTensor:
    """Left-wedge c dt onto a tensor (dt canonically ordered last)."""
    out = FormTensor(tensor.n, volume_flag=tensor.volume_flag)
    for (zb, xb, dt), val in tensor.coeffs.items():
        if dt:
            continue
        sign = -1 if (len(zb) + len(xb)) % 2 else 1
        out.add(zb, xb, 1, sign * coeff * val)
    return out.prune()
