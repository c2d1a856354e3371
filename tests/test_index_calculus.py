import tracemalloc

import numpy as np
import pytest
from fractions import Fraction

from crhomotopy import barrier, geometry, quadrature
from crhomotopy import indexcalc as ic
from crhomotopy.errors import RealizationInfeasibleError, TableGapError


# bound of the traced allocation peak of realized_kernel_decay on sig22_n6m2,
# two levels of 20k nodes: 2.6 MB measured (7.6 MB while the stream was
# yielded in 8192-node chunks), plus a third for allocator and numpy-version
# spread, so chunk-sized per-node arrays alive at the peak fail it
DECAY_PEAK_MB = 3.5


def decay_term():
    """The vanishing class (k, h, l) = (9, 1, 1) of n = 6, m = 2, q = 2, r = 1:
    the class of the decay_n6m2 benchmark."""
    pairs, _ = ic.dichotomy_audit(6, 2, 2, 1)
    return next(kt for _, kt in pairs if ic.is_vanishing_class(kt)
                and (kt.k, kt.h, kt.l) == (9, 1, 1))


def sweep_dims(n_max=6, m_max=3):
    for n in range(3, n_max + 1):
        for m in range(1, min(m_max, n - 2) + 1):
            for q in range(2, (n - m) // 2 + 1):
                for r in range(1, q):
                    yield n, m, q, r


class TestExpansionArithmetic:
    def test_reference_term_indices(self):
        term = ic.ExpansionTerm(n=5, m=1, q=2, r=1, family=ic.FAMILY_GRAD,
                                j1=3, j2=0, j3=0, j4=0,
                                j5=0, j6=0, j7=0, j8=0)
        kt = ic.expand_to_kernel(term)
        assert kt.dist_power == 8
        assert kt.h == 1
        assert kt.level_forms == 0
        assert kt.k == 7
        assert kt.l == 0

    def test_frame_family_one_extra_credit(self):
        term = ic.ExpansionTerm(n=5, m=1, q=2, r=1, family=ic.FAMILY_FRAME,
                                j1=3, j2=0, j3=0, j4=0,
                                j5=0, j6=0, j7=0, j8=0)
        assert ic.expand_to_kernel(term).k == 6

    def test_negative_surplus_infeasible(self):
        # j1 + j4 + r + m - n < 0: the frame rewriting cannot produce a
        # negative level one-form count, the term vanishes identically
        term = ic.ExpansionTerm(n=6, m=1, q=2, r=1, family=ic.FAMILY_GRAD,
                                j1=0, j2=4, j3=0, j4=0,
                                j5=0, j6=0, j7=0, j8=0)
        with pytest.raises(RealizationInfeasibleError):
            ic.expand_to_kernel(term)

    def test_budget_identity_over_sweep(self):
        # 2n - m + l - k - h equals the column-count combination, exactly
        for n, m, q, r in sweep_dims():
            for term, kt in ic.expansion_kernels(n, m, q, r):
                frame_lead = 1 if term.family == ic.FAMILY_FRAME else 0
                assert (2 * n - m + kt.l - kt.k - kt.h
                        == n - 1 - term.j1 - term.j5 + term.j6 + frame_lead)


class TestDecisionTables:
    def test_near_rows(self):
        n, m = 5, 1
        bound = 2 * n - m
        c = ic.classify_near_integral(0, bound - 1, 1, n, m)
        assert c.tag == "eps_power_log2" and c.exponent == 0
        c = ic.classify_near_integral(0, bound - 2, 1, n, m)
        assert c.tag == "O_delta"
        c = ic.classify_near_integral(0, bound - 2, Fraction(3, 2), n, m)
        assert c.tag == "eps_halfpower_log"
        c = ic.classify_near_integral(0.5, bound - 2, Fraction(3, 2), n, m)
        assert c.tag == "O_delta_alpha" and c.exponent == Fraction(1, 2)

    def test_table_gap_is_explicit(self):
        # half-integral boundary not covered by any stated row
        n, m = 5, 1
        bound = 2 * n - m
        with pytest.raises(TableGapError):
            ic.classify_near_integral(0, bound - 1, Fraction(1, 2), n, m)
        with pytest.raises(TableGapError):
            ic.classify_near_integral(1.5, 1, 1, n, m)

    def test_boundary_overlap_flagged(self):
        n, m = 5, 1
        bound = 2 * n - m
        # both the delta^alpha row and the half-power log row match at the
        # shared boundary k + 2h = 2n - m + 1
        c = ic.classify_near_integral(0.5, bound - 2, Fraction(3, 2), n, m)
        assert c.rule == "near-alpha" and c.boundary

    def test_tables_total_on_produced_parameters(self):
        # every bounded kernel from the expansion classifies without a gap
        for n, m, q, r in sweep_dims():
            for _, kt in ic.expansion_kernels(n, m, q, r):
                if ic.is_bounded_class(kt):
                    ic.classify_near_integral(0, kt.k, kt.h - kt.l, n, m)

    def test_two_sample_rows_match_numerical_integration(self):
        # direct 2d quadrature of the collapsed model integral corroborates
        # a blowup row (negative exponent) and a bounded row
        from scipy import integrate

        n, m = 3, 1
        bound = 2 * n - m  # 5

        def model_I1(eps, k, h):
            return integrate.dblquad(
                lambda W, u: W ** (bound - 2)
                / ((eps + u + W) ** k
                   * (np.sqrt(eps) + np.sqrt(u) + W) ** float(2 * h)),
                0, 1, 0, 1, epsabs=1e-11, epsrel=1e-9)[0]

        # half-power row with negative exponent: grows as eps shrinks at
        # roughly the tabulated rate (log slack)
        k, h = 2, Fraction(7, 2)
        cls = ic.classify_near_integral(0, k, h, n, m)
        assert cls.tag == "eps_halfpower_log"
        assert cls.exponent == Fraction(bound - k, 2) - h + Fraction(1, 2)
        vals = [model_I1(e, k, h) for e in (0.02, 0.01, 0.005)]
        rate = np.log(vals[2] / vals[0]) / np.log(0.005 / 0.02)
        assert vals[2] > vals[1] > vals[0]
        # rate and exponent both negative (growth as eps shrinks); log slack
        assert abs(rate - float(cls.exponent)) < 0.35
        # O(delta) row: converges to a finite limit as eps shrinks
        k, h = 2, 1
        vals = [model_I1(e, k, h) for e in (0.02, 0.005, 0.00125)]
        assert abs(vals[2] - vals[1]) < 0.6 * abs(vals[1] - vals[0])
        assert abs(vals[2] - vals[1]) < 0.15 * abs(vals[2])
        assert ic.classify_near_integral(0, k, h, n, m).tag == "O_delta"


class TestRewriteRules:
    def test_flow_term_complex_moves(self):
        # the kernel-level complex-tangential moves: one consumed credit or
        # one phase hit with a linear credit
        kt = ic.KernelTerm(n=5, m=1, level_power_0=0, monomial_holo=0,
                           monomial_anti=2, level_forms=0, angular_forms=0,
                           dist_power=8, phase_power=Fraction(1))
        root = ic.KernelTerm(n=5, m=1, level_power_0=0, monomial_holo=0,
                             monomial_anti=1, level_forms=0, angular_forms=0,
                             dist_power=8, phase_power=Fraction(1))
        out = ic.differentiate_term(kt, "complex_tangent",
                                    term_class="flow", root=root)
        deltas = {(res.term.k - kt.k, res.term.h - kt.h) for res in out}
        assert (1, 0) in deltas       # credit consumed
        assert (-1, 1) in deltas      # phase hit
        assert (0, 0) in deltas       # coefficient hit
        assert all(res.kind == "pass" for res in out)

    def test_exhaustive_soundness_two_deep(self):
        emitted = 0
        for n, m, q, r in sweep_dims():
            for _, kt in ic.expansion_kernels(n, m, q, r):
                emitted += len(ic.closure_two_deep(kt))
        assert emitted > 0

    def test_unsound_move_raises(self, monkeypatch):
        # negative control of the inline budget check: a linear phase hit
        # that spends one credit on two phase powers breaks the pass budget
        # of the flow terms it reaches, from every expansion kernel
        moves = tuple((rule, kind, (-1, 2, 0) if rule == "phase-hit-linear"
                       else shift)
                      for rule, kind, shift in ic.COMPLEX_TANGENT_MOVES)
        monkeypatch.setattr(ic, "COMPLEX_TANGENT_MOVES", moves)
        kernels = [kt for dims in sweep_dims()
                   for _, kt in ic.expansion_kernels(*dims)]
        assert kernels
        for kt in kernels:
            with pytest.raises(ic.RewriteSoundnessError,
                               match="'phase-hit-linear' violated the pass"):
                ic.closure_two_deep(kt)


class TestDichotomy:
    def test_every_term_classified(self):
        for n, m, q, r in sweep_dims():
            pairs, violations = ic.dichotomy_audit(n, m, q, r)
            assert not violations
            assert pairs

    def test_vanishing_saturates_budget(self):
        for n, m, q, r in sweep_dims():
            for term, kt in ic.expansion_kernels(n, m, q, r):
                if ic.is_vanishing_class(kt):
                    assert kt.k + kt.h - kt.l == 2 * n - m - 1
                    assert kt.l >= m - 1

    def test_boundary_cases(self):
        kt = ic.KernelTerm(n=5, m=1, level_power_0=0, monomial_holo=0,
                           monomial_anti=0, level_forms=0, angular_forms=0,
                           dist_power=7, phase_power=Fraction(1))
        # k + h - l = 8 = 2n - m - 1: vanishing, not bounded
        assert ic.is_vanishing_class(kt)
        assert not ic.is_bounded_class(kt)
        kt2 = ic.KernelTerm(n=5, m=1, level_power_0=0, monomial_holo=0,
                            monomial_anti=0, level_forms=0, angular_forms=0,
                            dist_power=6, phase_power=Fraction(1))
        assert not ic.is_vanishing_class(kt2)
        assert ic.is_bounded_class(kt2)


class TestOverallClassification:
    def test_vanishing_tag(self):
        kt = ic.KernelTerm(n=5, m=1, level_power_0=0, monomial_holo=0,
                           monomial_anti=0, level_forms=0, angular_forms=0,
                           dist_power=7, phase_power=Fraction(1))
        assert ic.classify_term(kt).tag == "vanishing_sqrt_eps_log"

    def test_bounded_terms_get_table_rows(self):
        for term, kt in ic.expansion_kernels(5, 1, 2, 1):
            if ic.is_bounded_class(kt):
                cls = ic.classify_term(kt)
                assert cls.tag != "vanishing_sqrt_eps_log"


class TestObstructionSurvivors:
    def test_primary_below_concavity_empty(self):
        assert ic.obstruction_survivor_count(5, 1, 2, 1) == 0

    def test_primary_at_concavity_nonempty(self):
        assert ic.obstruction_survivor_count(5, 1, 2, 2) == 12
        assert ic.obstruction_survivor_count(6, 2, 2, 2) == 24

    def test_full_sweep_empty_below_concavity(self):
        records = ic.obstruction_sweep(8, 3)
        for rec in records:
            if rec["below_concavity"]:
                assert rec["survivors"] == 0, rec

    def test_out_of_range_degree(self):
        with pytest.raises(ValueError):
            ic.obstruction_survivor_count(5, 1, 2, 5)


class TestNumericCorroboration:
    def test_smooth_kernel_is_flat(self, primary):
        kt = ic.KernelTerm(n=5, m=1, level_power_0=0, monomial_holo=0,
                           monomial_anti=0, level_forms=0, angular_forms=0,
                           dist_power=0, phase_power=Fraction(0))
        slope, vals = ic.realized_kernel_decay(
            primary, kt, np.zeros(5, dtype=complex),
            [0.1, 0.05], budget=20000, seed=1)
        assert abs(slope) < 0.1

    def test_frames_solved_once_per_chunk(self, secondary, monkeypatch):
        # each level's stream is two chunks long, and its blocks share their
        # chunk's direction table: the frames are solved once per chunk, so
        # each level makes two solves of K directions
        calls = []
        frames, chunks = barrier._frames_for_thetas, \
            quadrature.QuadratureGrid.chunks

        def counted_frames(model, thetas, with_derivative=True):
            calls.append(len(thetas))
            return frames(model, thetas, with_derivative)

        def counted_chunks(grid):
            calls.append("level")
            return chunks(grid)

        monkeypatch.setattr(barrier, "_frames_for_thetas", counted_frames)
        monkeypatch.setattr(quadrature.QuadratureGrid, "chunks",
                            counted_chunks)
        ic.realized_kernel_decay(secondary, decay_term(),
                                 np.zeros(6, dtype=complex), [0.1, 0.05],
                                 budget=quadrature.CHUNK + 100, seed=1)
        assert calls == ["level", quadrature.SPHERE_POINTS,
                         quadrature.SPHERE_POINTS] * 2

    def test_gradient_formed_once_per_point(self, secondary, monkeypatch):
        # the phase's gradient section Q = -holo_gradients(z) is formed once
        # per call at its fixed z, not per level or block: two levels of
        # two chunks each (34 blocks) make one single-point call
        points = []
        gradients = geometry.ManifoldModel.holo_gradients

        def counted(model, z):
            if np.ndim(z) == 1:
                points.append(np.array(z))
            return gradients(model, z)

        monkeypatch.setattr(geometry.ManifoldModel, "holo_gradients", counted)
        z = np.zeros(6, dtype=complex)
        ic.realized_kernel_decay(secondary, decay_term(), z, [0.1, 0.05],
                                 budget=quadrature.CHUNK + 100, seed=1)
        assert len(points) == 1 and np.array_equal(points[0], z)

    def test_block_size_invariance(self, secondary, monkeypatch):
        # the stream's block is a unit of work: the level totals are summed
        # exactly over blocks, so blocks of 300 nodes give the values of
        # 512-node blocks to rounding
        def decay(block):
            monkeypatch.setattr(quadrature, "BLOCK", block)
            return ic.realized_kernel_decay(
                secondary, decay_term(), np.zeros(6, dtype=complex),
                [0.1, 0.05], budget=3000, seed=1)[1]

        want, got = decay(512), decay(300)
        assert all(v > 0 for v in want)
        assert np.max(np.abs(np.subtract(got, want)) / want) <= 1e-13

    def test_peak_memory(self, secondary):
        # the traced allocation peak of two 20k-node levels stays below
        # DECAY_PEAK_MB: no per-node array spans more than a block
        term, z = decay_term(), np.zeros(6, dtype=complex)

        def decay():
            return ic.realized_kernel_decay(secondary, term, z, [0.1, 0.05],
                                            budget=20000, seed=1)

        decay()                                         # fill the caches
        tracemalloc.start()
        try:
            decay()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < DECAY_PEAK_MB * 1e6

    def test_half_integral_phase_rejected(self, primary):
        kt = ic.KernelTerm(n=5, m=1, level_power_0=0, monomial_holo=0,
                           monomial_anti=0, level_forms=0, angular_forms=0,
                           dist_power=2, phase_power=Fraction(1, 2))
        with pytest.raises(RealizationInfeasibleError):
            ic.realized_kernel_decay(primary, kt, np.zeros(5, dtype=complex),
                                     [0.1, 0.05])

    def test_dimension_mismatch_rejected(self, secondary):
        kt = ic.KernelTerm(n=5, m=1, level_power_0=0, monomial_holo=0,
                           monomial_anti=0, level_forms=0, angular_forms=0,
                           dist_power=2, phase_power=Fraction(1))
        with pytest.raises(RealizationInfeasibleError):
            ic.realized_kernel_decay(secondary, kt,
                                     np.zeros(6, dtype=complex), [0.1])
