import numpy as np
import pytest

from crhomotopy import norms
from oracles import (complex_tangent_projection, flow_from, flow_from_exact,
                     invert_flow, random_quadric, rk4_integrate_controls,
                     scalar_holder_estimate)


def zero_controls(model):
    return (np.zeros(model.m), np.zeros(model.m),
            np.zeros(model.tangential_dim), np.zeros(model.tangential_dim))


class TestFrameFlow:
    def test_zero_controls_fixed_point(self, primary):
        z = primary.graph_point(0.1 * np.ones(4) + 0j, np.zeros(1))
        end = flow_from(primary, z, zero_controls(primary))
        assert np.max(np.abs(end - z)) == 0.0

    def test_matches_closed_form(self, primary, rng):
        z = primary.graph_point(
            0.1 * (rng.standard_normal(4) + 1j * rng.standard_normal(4)),
            0.05 * rng.standard_normal(1))
        ctrl = (0.2 * rng.standard_normal(1), 0.2 * rng.standard_normal(1),
                0.2 * rng.standard_normal(4), 0.2 * rng.standard_normal(4))
        end = flow_from(primary, z, ctrl, steps=64)
        exact = flow_from_exact(primary, z, ctrl)
        assert np.max(np.abs(end - exact)) < 1e-12

    def test_normal_controls_move_level_only(self, primary, rng):
        z = primary.graph_point(0.1 * np.ones(4) + 0j, np.zeros(1))
        ctrl = (np.array([0.3]), np.zeros(1), np.zeros(4), np.zeros(4))
        end = flow_from(primary, z, ctrl)
        assert np.max(np.abs(end[:4] - z[:4])) == 0.0
        vec_end, _ = primary.defining_values(end)
        vec_start, _ = primary.defining_values(z)
        assert abs((vec_end - vec_start)[0] - 0.3) < 1e-12

    def test_fourth_order_contraction_on_curved_path(self, primary, rng):
        # constant-control quadric flows are polynomial (the integrator is
        # exact there); an s-dependent control path has genuine truncation
        start = primary.graph_point(0.05 * np.ones(4) + 0j, np.zeros(1))
        controls_at = curved_controls(
            np.random.default_rng(3).standard_normal((2, 4, 4)), 1)
        coarse = norms.integrate_controls(primary, start, controls_at, 9)
        fine = norms.integrate_controls(primary, start, controls_at, 17)
        ref = norms.integrate_controls(primary, start, controls_at, 257)
        e1 = np.max(np.abs(coarse.samples[-1] - ref.samples[-1]))
        e2 = np.max(np.abs(fine.samples[-1] - ref.samples[-1]))
        assert e1 / max(e2, 1e-17) > 8.0 or e1 < 1e-13

    def test_commuting_directions_additive(self, primary):
        # real-coefficient Hermitian data: the two real frame flows commute
        z = primary.graph_point(0.05 * np.ones(4) + 0j, np.zeros(1))
        u1 = np.zeros(4); u1[0] = 0.2
        u2 = np.zeros(4); u2[1] = 0.15
        a = flow_from(primary, z, (np.zeros(1), np.zeros(1), u1, np.zeros(4)))
        ab = flow_from(primary, a, (np.zeros(1), np.zeros(1), u2, np.zeros(4)))
        both = flow_from(primary, z,
                         (np.zeros(1), np.zeros(1), u1 + u2, np.zeros(4)))
        assert np.max(np.abs(ab - both)) < 1e-10


def curved_controls(coeffs, m, xy=None):
    """Cubic u, v controls under a non-polynomial modulation, from coeffs
    (..., 2, d, 4); x, y are the constants xy (..., 2, m), zero by default."""
    xy = np.zeros(coeffs.shape[:-3] + (2, m)) if xy is None else xy

    def controls_at(s):
        powers = np.array([1.0, s, s * s, s ** 3])
        # nonpolynomial modulation so the flow is not integrator-exact
        wob = 1.0 + 0.5 * np.sin(5.0 * s)
        return (xy[..., 0, :], xy[..., 1, :],
                wob * coeffs[..., 0, :, :] @ powers,
                wob * coeffs[..., 1, :, :] @ powers)
    return controls_at


class TestBatchedIntegration:
    # the all-steps RK4 reproduces the step-by-step RK4 bit for bit

    @pytest.mark.parametrize("samples", [9, 17, 51])
    @pytest.mark.parametrize("count", [None, 1, 6])
    def test_matches_stepwise_rk4(self, primary, secondary, samples, count):
        rng = np.random.default_rng(samples + 7 * (count or 0))
        complex_levi = random_quadric(6, 2, np.random.default_rng(8))
        for model in (primary, secondary, complex_levi):
            d, m = model.tangential_dim, model.m
            lead = () if count is None else (count,)
            starts = model.graph_point(
                0.1 * (rng.standard_normal(lead + (d,))
                       + 1j * rng.standard_normal(lead + (d,))),
                0.05 * rng.standard_normal(lead + (m,)))
            controls_at = curved_controls(
                rng.standard_normal(lead + (2, d, 4)), m,
                0.3 * rng.standard_normal(lead + (2, m)))
            got = norms.integrate_controls(model, starts, controls_at, samples)
            want = rk4_integrate_controls(model, starts, controls_at, samples)
            assert got.samples.shape == lead + (samples, model.n)
            assert np.array_equal(got.s_values, want.s_values)
            assert np.array_equal(got.samples, want.samples)
            assert np.array_equal(got.velocity_samples, want.velocity_samples)

    def test_curved_path_matches_stepwise_rk4(self, primary):
        start = primary.graph_point(0.05 * np.ones(4) + 0j, np.zeros(1))
        controls_at = curved_controls(
            np.random.default_rng(3).standard_normal((2, 4, 4)), 1)
        for samples in (9, 17, 257):
            got = norms.integrate_controls(primary, start, controls_at,
                                           samples)
            want = rk4_integrate_controls(primary, start, controls_at, samples)
            assert np.array_equal(got.samples, want.samples)
            assert np.array_equal(got.velocity_samples, want.velocity_samples)

    @pytest.mark.parametrize("samples", [9, 51])
    def test_two_frame_velocity_calls(self, primary, monkeypatch, samples):
        # a per-step loop would make one call per stage and sample
        calls = []
        velocity = norms.frame_velocity

        def counted(model, z, controls):
            calls.append(np.shape(z))
            return velocity(model, z, controls)

        monkeypatch.setattr(norms, "frame_velocity", counted)
        starts = random_starts(primary, 3, np.random.default_rng(2))
        norms.integrate_controls(primary, starts, curved_controls(
            np.random.default_rng(3).standard_normal((3, 2, 4, 4)), 1),
            samples)
        assert calls == [(3, 4, samples - 1, 5), (3, samples, 5)]


class TestProjection:
    def test_fixes_base_point(self, primary):
        z = primary.graph_point(0.1 * np.ones(4) + 0j, np.zeros(1))
        proj = complex_tangent_projection(primary, z, z)
        assert np.max(np.abs(proj.point - z)) < 1e-9

    def test_idempotent_on_image(self, primary, rng):
        z = primary.graph_point(0.05 * np.ones(4) + 0j, np.zeros(1))
        zeta = primary.graph_point(
            0.1 * (rng.standard_normal(4) + 1j * rng.standard_normal(4)),
            0.05 * rng.standard_normal(1), 0.02 * np.ones(1))
        proj = complex_tangent_projection(primary, z, zeta)
        again = complex_tangent_projection(primary, z, proj.point)
        assert np.max(np.abs(again.point - proj.point)) < 1e-7

    def test_curve_satisfies_admissibility(self, primary, rng):
        z = primary.graph_point(0.05 * np.ones(4) + 0j, np.zeros(1))
        zeta = primary.graph_point(0.05 * np.ones(4) + 0.02j, np.zeros(1),
                                   0.01 * np.ones(1))
        proj = complex_tangent_projection(primary, z, zeta)
        audit = norms.curve_audit(primary, proj.curve)
        assert audit["normal_defect"] < 1e-8
        assert audit["velocity_max"] <= 1.05

    def test_inversion_roundtrip(self, primary, rng):
        z = primary.graph_point(0.05 * np.ones(4) + 0j, np.zeros(1))
        ctrl = (0.1 * rng.standard_normal(1), 0.1 * rng.standard_normal(1),
                0.1 * rng.standard_normal(4), 0.1 * rng.standard_normal(4))
        target = flow_from(primary, z, ctrl)
        rec = invert_flow(primary, z, target)
        for a, b in zip(rec, ctrl):
            assert np.max(np.abs(np.asarray(a) - np.asarray(b))) < 1e-6


def random_starts(model, count, rng):
    d = model.tangential_dim
    return model.graph_point(
        0.1 * (rng.standard_normal((count, d))
               + 1j * rng.standard_normal((count, d))),
        0.05 * rng.standard_normal((count, model.m)))


class TestAdmissibleCurves:
    def test_generated_curves_pass_audit(self, primary, rng):
        z = primary.graph_point(0.05 * np.ones(4) + 0j, np.zeros(1))
        curves = norms.random_admissible_curve(
            primary, np.tile(z, (5, 1)), rng.standard_normal((5, 2, 4, 4)))
        audit = norms.curve_audit(primary, curves)
        assert audit["passes"].shape == (5,)
        assert np.all(audit["passes"]), audit

    def test_transverse_flow_fails_audit(self, primary, secondary):
        # a pure Re w flow stays on the manifold (no normal defect) but
        # leaves the complex tangent space: d rho_k pairs with it to -i y/2
        for model in (primary, secondary):
            z = model.graph_point(0.05 * np.ones(model.tangential_dim) + 0j,
                                  np.zeros(model.m))
            d, m = model.tangential_dim, model.m
            curve = norms.integrate_controls(
                model, z, lambda s: (np.zeros(m), 0.5 * np.ones(m),
                                     np.zeros(d), np.zeros(d)))
            audit = norms.curve_audit(model, curve)
            assert audit["normal_defect"] < 1e-12
            assert audit["velocity_max"] <= 1.05
            assert abs(audit["complex_tangency_defect"] - 0.25) < 1e-12
            assert not audit["passes"]

    def test_batched_rows_match_single_calls(self, primary, secondary, rng):
        # every row of a batch of curves (some rescaled more often than
        # others) is bit-identical to its own N = 1 call, and its audit and
        # frame velocities to the unbatched calls
        for model in (primary, secondary):
            d, m = model.tangential_dim, model.m
            starts = random_starts(model, 6, rng)
            coeffs = rng.standard_normal((6, 2, d, 4)) * np.array(
                [0.1, 1.0, 3.0, 0.1, 1.0, 3.0])[:, None, None, None]
            batch = norms.random_admissible_curve(model, starts, coeffs)
            audit = norms.curve_audit(model, batch)
            assert np.all(audit["passes"])
            ctrl = (rng.standard_normal((6, m)), rng.standard_normal((6, m)),
                    rng.standard_normal((6, d)), rng.standard_normal((6, d)))
            vel = norms.frame_velocity(model, starts, ctrl)
            for c in range(6):
                one = norms.random_admissible_curve(
                    model, starts[c:c + 1], coeffs[c:c + 1])
                assert np.array_equal(one.samples[0], batch.samples[c])
                assert np.array_equal(one.velocity_samples[0],
                                      batch.velocity_samples[c])
                single = norms.TangentCurve(
                    samples=batch.samples[c], s_values=batch.s_values,
                    velocity_samples=batch.velocity_samples[c])
                for key, value in norms.curve_audit(model, single).items():
                    assert value == audit[key][c], key
                assert np.array_equal(norms.frame_velocity(
                    model, starts[c], [x[c] for x in ctrl]), vel[c])


class TestHolderEstimators:
    def test_constant_function_zero(self, primary):
        est = norms.tangential_holder_estimate(
            primary, lambda p: np.ones(len(p)), 1.0,
            np.zeros(5, dtype=complex), seed=2)
        assert est.ambient.quotient_sup == 0.0
        assert est.tangential.quotient_sup == 0.0

    def test_coordinate_function_lipschitz(self, primary):
        est = norms.tangential_holder_estimate(
            primary, lambda p: p[:, 0].real, 1.0,
            np.zeros(5, dtype=complex), seed=2)
        assert est.tangential.quotient_sup <= 1.05

    def test_anisotropy_witness(self, primary):
        # directional smoothing: the transverse coordinate has a small
        # tangential Lipschitz constant near the chart center (it varies at
        # the rate of the quadratic height drag) while a tangential
        # coordinate is unit-Lipschitz along the same curves; its ambient
        # roughness is comparable for both
        z = np.zeros(5, dtype=complex)
        trans = lambda p: p[:, 4].real
        flat = lambda p: p[:, 0].real
        est_trans = norms.tangential_holder_estimate(primary, trans, 1.0, z,
                                                     seed=3, scale=0.05)
        est_flat = norms.tangential_holder_estimate(primary, flat, 1.0, z,
                                                    seed=3, scale=0.05)
        assert est_trans.tangential.quotient_sup \
            < 0.5 * est_flat.tangential.quotient_sup
        assert est_trans.ambient.quotient_sup > 0.3
        # beyond exponent one the estimator switches to second differences
        # and the quadratic-drag coordinate stays bounded
        est_high = norms.tangential_holder_estimate(primary, trans, 1.8, z,
                                                    seed=3)
        assert est_high.tangential.quotient_sup < 2.0

    def test_monotone_in_budget(self, primary):
        z = np.zeros(5, dtype=complex)
        fn = lambda p: p[:, 0].real * p[:, 1].imag
        sups = []
        for budget in (50, 200, 800):
            est = norms.tangential_holder_estimate(primary, fn, 1.0, z,
                                                   seed=5, pair_budget=budget,
                                                   curve_budget=4)
            sups.append(est.ambient.quotient_sup)
        assert sups[0] <= sups[1] <= sups[2]

    def test_exponent_range_enforced(self, primary):
        with pytest.raises(ValueError):
            norms.tangential_holder_estimate(
                primary, lambda p: np.ones(len(p)), 2.5,
                np.zeros(5, dtype=complex))

    @pytest.mark.parametrize("beta", [0.7, 1.0, 1.6])
    def test_matches_scalar_oracle(self, primary, secondary, beta):
        # the batched estimator draws the same pairs, curves and picks as
        # one pair and one curve at a time; the quotients differ only by
        # the summation order of the batched pair distances
        for model in (primary, secondary):
            d = model.tangential_dim
            z = model.graph_point(0.03 * np.ones(d) + 0j, np.zeros(model.m))

            def h(p):
                return (p[:, 0] * p[:, 1].conj()).real + p[:, d].imag

            est = norms.tangential_holder_estimate(
                model, h, beta, z, curve_budget=5, pair_budget=40, seed=11)
            amb, tan = scalar_holder_estimate(
                model, lambda p: h(p[None])[0], beta, z, curve_budget=5,
                pair_budget=40, seed=11)
            for got, want in ((est.ambient, amb), (est.tangential, tan)):
                assert [i for i, _ in got.samples] == [i for i, _ in want]
                q_got = np.array([q for _, q in got.samples])
                q_want = np.array([q for _, q in want])
                assert np.all(np.abs(q_got - q_want)
                              <= 1e-14 * np.abs(q_want))
                assert got.quotient_sup == pytest.approx(
                    max(q_want), rel=1e-14, abs=0.0)
            assert est.ambient.pair_count == 40
            assert est.tangential.pair_count == len(tan)


class TestWeightedEstimator:
    def test_report_deterministic(self, primary):
        z = np.zeros(5, dtype=complex)
        fn = lambda p: p[:, 0].real
        r1 = norms.regularity_gain_report(primary, fn, fn, 0.5, z, seed=6)
        r2 = norms.regularity_gain_report(primary, fn, fn, 0.5, z, seed=6)
        assert r1 == r2

