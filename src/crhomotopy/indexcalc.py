"""Symbolic kernel index bookkeeping.

Every kernel in the operator expansion is classified by three integers (one
possibly half-integral):

    net distance power   k = d - |I2| - |I3|   (denominator |zeta-z|^d minus
                                                numerator monomial credits)
    phase power          h                     (denominator Phi^h)
    level power          l = |I1| + |I4|       (level factors and level
                                                one-forms, each worth eps)

Terms arise from expanding the interpolated kernel into two families (led by
a gradient-section column or by a frame-pairing column); their cardinality
tuples satisfy linear constraints recorded here.  Differentiation rewrites
terms within constraint-bounded classes; a decision table classifies the
near model integral; the boundedness/vanishing dichotomy and the
obstruction-term emptiness are decision procedures over these lattices.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
import numpy as np

from ._util import RunningSum, loglog_slope
from .errors import RealizationInfeasibleError, TableGapError


def _frac(x) -> Fraction:
    f = Fraction(x).limit_denominator(2)
    if f != Fraction(x):
        raise ValueError(f"phase power {x!r} is not a half-integer")
    return f


# ---------------------------------------------------------------------------
# kernel terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelTerm:
    """Cardinality data of one kernel term.

    level_power_0    |I1|: total power of level factors rho_s
    monomial_holo    |I2|: holomorphic difference monomial degree
    monomial_anti    |I3|: antiholomorphic difference monomial degree
    level_forms      |I4|: level one-form count (<= m-1)
    angular_forms    |I5|: direction one-form count (|I4| + |I5| = m - 1)
    dist_power       d:   distance denominator exponent
    phase_power      h:   phase denominator exponent (half-integer)
    """

    n: int
    m: int
    level_power_0: int
    monomial_holo: int
    monomial_anti: int
    level_forms: int
    angular_forms: int
    dist_power: int
    phase_power: Fraction
    tag: str = ""

    def __post_init__(self):
        object.__setattr__(self, "phase_power", _frac(self.phase_power))
        for name in ("level_power_0", "monomial_holo", "monomial_anti",
                     "level_forms", "angular_forms"):
            if getattr(self, name) < 0:
                raise ValueError(f"negative cardinality {name}")
        if self.level_forms + self.angular_forms != self.m - 1:
            raise ValueError("level and angular one-forms must total m - 1")

    @property
    def k(self) -> int:
        return self.dist_power - self.monomial_holo - self.monomial_anti

    @property
    def h(self) -> Fraction:
        return self.phase_power

    @property
    def l(self) -> int:
        return self.level_power_0 + self.level_forms


def is_bounded_class(term: KernelTerm) -> bool:
    """Both boundedness conditions: k + h - l and k + 2h - 2l within the
    integrability budget of the (2n - m)-dimensional model integral."""
    bound = 2 * term.n - term.m
    return (term.k + term.h - term.l <= bound - 2
            and term.k + 2 * term.h - 2 * term.l <= bound)


def is_vanishing_class(term: KernelTerm) -> bool:
    """Level-power overweight: the term's integral vanishes with the level
    radius (up to logarithms).  Requires integral indices."""
    if term.phase_power.denominator != 1:
        return False
    return term.k + term.h - term.l >= 2 * term.n - term.m - 1


# ---------------------------------------------------------------------------
# expansion families
# ---------------------------------------------------------------------------

FAMILY_GRAD = "grad-lead"     # leading column: gradient section
FAMILY_FRAME = "frame-lead"   # leading column: frame pairing (one extra credit)


@dataclass(frozen=True)
class ExpansionTerm:
    """One term of the interpolated-kernel expansion for input degree r.

    j1..j4 count the distance-block columns (difference forms, frame
    variation x2, frozen frame); j5..j8 the output-side columns.  The column
    sums are n - r - 1 and r - 1; the two variation groups are limited by
    the direction sphere dimension m - 1; frozen-frame columns cannot exceed
    the frame size n - q - m.
    """

    n: int
    m: int
    q: int
    r: int
    family: str
    j1: int
    j2: int
    j3: int
    j4: int
    j5: int
    j6: int
    j7: int
    j8: int

    def __post_init__(self):
        if self.family not in (FAMILY_GRAD, FAMILY_FRAME):
            raise ValueError(f"unknown family {self.family!r}")
        if self.j1 + self.j2 + self.j3 + self.j4 != self.n - self.r - 1:
            raise ValueError("distance-block columns must total n - r - 1")
        if self.j5 + self.j6 + self.j7 + self.j8 != self.r - 1:
            raise ValueError("output-side columns must total r - 1")


def enumerate_expansion_terms(n, m, q, r):
    """All expansion terms for the given dimensions and input degree."""
    out = []
    for family in (FAMILY_GRAD, FAMILY_FRAME):
        for j1, j2, j3, j4 in _compositions(n - r - 1, 4):
            if j2 + j3 > m - 1:
                continue          # variation forms live on the sphere
            if j4 > n - q - m:
                continue          # at most one column per frame row
            for j5, j6, j7, j8 in _compositions(r - 1, 4):
                out.append(ExpansionTerm(n=n, m=m, q=q, r=r, family=family,
                                         j1=j1, j2=j2, j3=j3, j4=j4,
                                         j5=j5, j6=j6, j7=j7, j8=j8))
    return out


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def expand_to_kernel(term: ExpansionTerm) -> KernelTerm:
    """Kernel cardinalities of one expansion term.

    The distance and phase exponents come from the column counts; the
    magnitude credits of the frame pairings and variation forms are booked
    as antiholomorphic monomial degree; the level one-form count is forced
    by rewriting the antiholomorphic volume surplus into level forms, and is
    infeasible when negative (those determinant products vanish).
    """
    n, m, r = term.n, term.m, term.r
    d = 2 * (term.j1 + term.j5 + 1)
    h = n - term.j1 - term.j5 - 1
    credits = (1 if term.family == FAMILY_GRAD else 2) \
        + term.j2 + term.j3 + term.j6
    level_forms = term.j1 + term.j4 + r + m - n
    if level_forms < 0:
        raise RealizationInfeasibleError(
            "antiholomorphic surplus is negative; term vanishes")
    return KernelTerm(n=n, m=m, level_power_0=0, monomial_holo=0,
                      monomial_anti=credits, level_forms=level_forms,
                      angular_forms=m - 1 - level_forms, dist_power=d,
                      phase_power=Fraction(h), tag=term.family)


def expansion_kernels(n, m, q, r):
    """All feasible (expansion term, kernel term) pairs."""
    out = []
    for term in enumerate_expansion_terms(n, m, q, r):
        try:
            out.append((term, expand_to_kernel(term)))
        except RealizationInfeasibleError:
            continue        # the determinant products vanish
    return out


# ---------------------------------------------------------------------------
# differentiation rewrite rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RewriteResult:
    """One emitted term of a differentiation rewrite."""

    kind: str              # "pass" (full budget) or "flow" (carries the
    #                        transverse flow derivative of the density)
    rule: str
    term: KernelTerm


def _shift(term: KernelTerm, dk=0, dh=0, dl=0) -> KernelTerm:
    """Index shift realized on the stored cardinalities.

    dk < 0: extra monomial credits; dk > 0: consumed credits (guarded);
    dh: phase denominator hits; dl: extra level powers.
    """
    new_anti = term.monomial_anti - dk
    if new_anti < 0:
        raise RealizationInfeasibleError("no monomial credit to consume")
    return replace(term, monomial_anti=new_anti,
                   phase_power=term.phase_power + dh,
                   level_power_0=term.level_power_0 + dl)


TANGENT_MOVES = (
    # coefficient or compensated-difference hits: indices unchanged
    ("coefficient-hit", "pass", (0, 0, 0)),
    # phase denominator hit with a quadratic compensated credit
    ("phase-hit-quadratic", "pass", (-2, 1, 0)),
    # phase denominator hit through the level content of its real part
    ("phase-hit-level", "pass", (0, 1, 1)),
)

TANGENT_FLOW_MOVES = (
    # transverse-coordinate transfer: one linear credit, flow on the density
    ("transverse-transfer", "flow", (-1, 0, 0)),
)

COMPLEX_TANGENT_MOVES = (
    ("coefficient-hit", "pass", (0, 0, 0)),
    # monomial consumed (guarded by available credits)
    ("monomial-consumed", "pass", (1, 0, 0)),
    # phase hit with a linear credit
    ("phase-hit-linear", "pass", (-1, 1, 0)),
)


def differentiate_term(term: KernelTerm, kind: str, term_class: str = "pass",
                       root: KernelTerm = None):
    """Closure of terms from one tangential (full) or complex-tangential
    differentiation.

    ``term_class`` is the class of the input relative to ``root``:
    pass-terms route any differentiation through the integration-by-parts
    machinery (emitting pass- and flow-terms); a complex-tangential
    derivative hitting a flow-term differentiates its kernel directly, and
    the three kernel-level moves land back in the pass class (the flow
    budget's unit slack absorbs the index increase).

    Every emitted pass-term is asserted against the root-relative budget

        k + h - l <= k0 + h0 - l0   and   k + 2h - 2l <= k0 + 2h0 - 2l0,

    every flow-term against the stricter versions with unit slack.  A
    violation raises: the rewrite machinery guarantees it cannot happen.
    """
    if root is None:
        root = term
    if kind not in ("tangent", "complex_tangent"):
        raise ValueError(f"unknown differentiation kind {kind!r}")
    out = []
    if term_class == "flow" and kind == "complex_tangent":
        for rule, _, (dk, dh, dl) in COMPLEX_TANGENT_MOVES:
            try:
                new = _shift(term, dk=dk, dh=dh, dl=dl)
            except RealizationInfeasibleError:
                continue
            _assert_rewrite_budget(new, root, "pass", rule)
            out.append(RewriteResult(kind="pass", rule=rule, term=new))
        return out
    emitted_cls = term_class if term_class == "flow" else None
    for rule, emitted_kind, (dk, dh, dl) in TANGENT_MOVES + TANGENT_FLOW_MOVES:
        try:
            new = _shift(term, dk=dk, dh=dh, dl=dl)
        except RealizationInfeasibleError:
            continue
        kind_out = emitted_cls or emitted_kind
        _assert_rewrite_budget(new, root, kind_out, rule)
        out.append(RewriteResult(kind=kind_out, rule=rule, term=new))
    return out


class RewriteSoundnessError(AssertionError):
    pass


def _assert_rewrite_budget(term: KernelTerm, root: KernelTerm, kind: str,
                           rule: str):
    k, h, l = term.k, term.h, term.l
    k0, h0, l0 = root.k, root.h, root.l
    if kind == "pass":
        ok = (k + h - l <= k0 + h0 - l0
              and k + 2 * h - 2 * l <= k0 + 2 * h0 - 2 * l0)
    else:
        ok = (k - l + 1 <= k0 - l0 and k - 2 * l + 1 <= k0 - 2 * l0)
    if not ok:
        raise RewriteSoundnessError(
            f"rewrite {rule!r} violated the {kind} budget: "
            f"term (k,h,l)=({k},{h},{l}) vs root ({k0},{h0},{l0})")


def closure_two_deep(term: KernelTerm):
    """All terms after up to two differentiations, asserting budgets against
    the original term throughout."""
    kinds = ("tangent", "complex_tangent")
    results = []
    first = []
    for kind in kinds:
        first.extend(differentiate_term(term, kind))
    results.extend(first)
    for res in first:
        for kind in kinds:
            results.extend(differentiate_term(res.term, kind,
                                              term_class=res.kind, root=term))
    return results


# ---------------------------------------------------------------------------
# model-integral decision table
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimateClass:
    tag: str
    exponent: Fraction = Fraction(0)
    rule: str = ""
    boundary: bool = False


def classify_near_integral(alpha, k, h, n, m) -> EstimateClass:
    """Decision row for the model integral over the shrinking anisotropic
    neighborhood: level-power decay, delta-power decay, or a gap."""
    h = _frac(h)
    alpha = Fraction(alpha).limit_denominator(1000)
    if not 0 <= alpha < 1:
        raise TableGapError(f"alpha {alpha} outside [0, 1)")
    bound = 2 * n - m
    rows = []
    if alpha > 0:
        if ((k >= bound - 1 and k + h <= Fraction(bound) - Fraction(1, 2))
                or (k <= bound - 2 and k + 2 * h <= bound + 1)):
            rows.append(EstimateClass("O_delta_alpha", alpha, "near-alpha"))
    if k >= bound - 1 and k + h >= bound:
        rows.append(EstimateClass(
            "eps_power_log2", Fraction(bound) - k - h, "near-1"))
    if k >= bound - 1 and k + h <= bound - 1:
        rows.append(EstimateClass("O_delta", Fraction(1), "near-2"))
    if k <= bound - 2 and k + 2 * h >= bound + 1:
        rows.append(EstimateClass(
            "eps_halfpower_log", (Fraction(bound) - k - 2 * h + 1) / 2,
            "near-3"))
    if k <= bound - 2 and k + 2 * h <= bound:
        rows.append(EstimateClass("O_delta", Fraction(1), "near-4"))
    if not rows:
        raise TableGapError(
            f"near-integral table gap at alpha={alpha} k={k} h={h}")
    first = rows[0]
    if len(rows) > 1:
        first = EstimateClass(first.tag, first.exponent, first.rule,
                              boundary=True)
    return first


# ---------------------------------------------------------------------------
# dichotomy and obstruction emptiness
# ---------------------------------------------------------------------------

def classify_term(term: KernelTerm) -> EstimateClass:
    """Overall estimate class of a kernel term: the vanishing tag when the
    level powers win, otherwise the near-integral row at the effective
    phase power h - l."""
    if is_vanishing_class(term):
        return EstimateClass("vanishing_sqrt_eps_log", Fraction(1, 2),
                             "vanishing")
    return classify_near_integral(0, term.k, term.h - term.l, term.n, term.m)


def dichotomy_audit(n, m, q, r):
    """Every feasible expansion kernel is bounded-class or vanishing-class.

    Returns (terms, violations); violations should always be empty.
    """
    pairs = expansion_kernels(n, m, q, r)
    violations = [kt for _, kt in pairs
                  if not (is_bounded_class(kt) or is_vanishing_class(kt))]
    return pairs, violations


def obstruction_survivor_count(n, m, q, r) -> int:
    """Number of obstruction-kernel terms surviving the frame bound.

    Constraints: j1 + j2 + j3 = n - r - 1 (distance-block columns),
    j1 + j2 <= m - 1 (variation columns live on the sphere), j3 <= n - q - m
    (at most one column per frame row), j4 + j5 + j6 = r.  The count is
    zero exactly when the obstruction operator vanishes pointwise.
    """
    if not 1 <= r <= n - 1:
        raise ValueError("input degree out of range")
    columns = sum(1 for j1, j2, j3 in _compositions(n - r - 1, 3)
                  if j1 + j2 <= m - 1 and j3 <= n - q - m)
    # each column split pairs with every j4 + j5 + j6 = r, in both families
    # (gradient-led and frame-led)
    return 2 * columns * len(list(_compositions(r, 3)))


def obstruction_sweep(n_max=8, m_max=3):
    """Survivor counts over all certifiable dimension combinations.

    Valid concavity parameters: 2 <= q <= (n - m) / 2 (a balanced-signature
    quadric with that concavity exists).  Returns records with survivor
    counts for every input degree 1 <= r <= n - 1.
    """
    records = []
    for n in range(3, n_max + 1):
        for m in range(1, min(m_max, n - 2) + 1):
            for q in range(2, (n - m) // 2 + 1):
                for r in range(1, n):
                    records.append({
                        "n": n, "m": m, "q": q, "r": r,
                        "survivors": obstruction_survivor_count(n, m, q, r),
                        "below_concavity": r < q,
                    })
    return records


# ---------------------------------------------------------------------------
# numeric corroboration
# ---------------------------------------------------------------------------

def realized_kernel_decay(model, term: KernelTerm, z, epsilons, budget=40000,
                          seed=0):
    """Fitted level-exponent of the realized absolute kernel integral.

    Realization: |K| ~ eps^(level powers) / (|zeta-z|^k |Phi|^h) against the
    surface measure; the level one-forms contribute eps each (the level
    one-form restricted to the level set is eps times the angular form).
    Requires integral phase power.  Each level is one pass over its node
    stream, block by block, with the directions of
    :func:`~crhomotopy.barrier.level_set_blocks` (theta = -sigma and the
    frames of a chunk's direction table, solved at its first block), so no
    defining value is recomputed; Phi is barrier_phase's, its Q at the fixed
    z formed once per call.  The block totals are summed exactly
    (:class:`~crhomotopy._util.RunningSum`), so the values do not depend on
    the block size beyond rounding.
    """
    from .barrier import _section, level_set_blocks
    from .quadrature import QuadratureGrid

    if term.phase_power.denominator != 1:
        raise RealizationInfeasibleError("half-integral phase power")
    if term.m != model.m or term.n != model.n:
        raise RealizationInfeasibleError("term dimensions do not match model")
    z = np.asarray(z, dtype=complex)
    zp, w0 = model.split(z)
    d = model.tangential_dim
    h_int = int(term.phase_power)
    Q = -model.holo_gradients(z)      # the barrier_phase gradient section
    values = []
    for i, eps in enumerate(epsilons):
        grid = QuadratureGrid(model=model, epsilon=float(eps), budget=budget,
                              mode="mc-shell", seed=seed + i,
                              center_zp=zp, center_u=w0.real,
                              box_radius=0.5)
        level = RunningSum()
        for block, (thetas, _, G, _) in level_set_blocks(model, grid, False):
            w = block.zeta - z[None, :]
            phi = _section(w, thetas, Q, G)[1]
            # |w| (np.linalg.norm's squares) and the cutoff's chart distance
            # from one pass of squared parts
            sq = (w.conj() * w).real
            dist = np.sqrt(np.add.reduce(sq, axis=1))
            cutoff = np.sqrt(np.add.reduce(sq[:, :d], axis=1) + np.add.reduce(
                w[:, d:].real ** 2, axis=1)) <= grid.box_radius
            dens = (eps ** term.l
                    / (dist ** term.k * np.abs(phi) ** h_int))
            level.add(np.sum(dens * cutoff * block.weight
                             * block.surface_jac))
        values.append(float(level.total().real))
    return loglog_slope(epsilons, values), values
