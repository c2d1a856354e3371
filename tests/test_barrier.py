import numpy as np
import pytest

from crhomotopy import barrier, geometry, homotopy, indexcalc, quadrature
from crhomotopy.fields import bundled_test_form
from crhomotopy.errors import FrameGapError, ThetaUndefinedError
from crhomotopy.quadrature import QuadratureGrid
from oracles import (correction_frame, evaluate_barrier,
                     kato_frame_derivative, loglog_fit, normal_direction,
                     off_manifold_point, padded_dP_mixed, random_directions,
                     random_quadric, scaled_frame_rows, split_correction_dbar)


class TestGradientSection:
    def test_taylor_identity_exact(self, primary, secondary, rng):
        # rho_k(zeta) - rho_k(z) + 2 Re F_k - levi_k(w) = 0 exactly
        for model in (primary, secondary):
            for _ in range(20):
                z = model.graph_point(
                    0.2 * (rng.standard_normal(model.tangential_dim)
                           + 1j * rng.standard_normal(model.tangential_dim)),
                    0.1 * rng.standard_normal(model.m))
                zeta = off_manifold_point(model, rng, scale=0.3, level=0.05)
                w = zeta - z
                for k in range(model.m):
                    q = -model.holo_gradients(z)[..., k, :]
                    F = np.sum(q * w)
                    rho_z = model.defining_values(z)[0][k]
                    rho_zeta = model.defining_values(zeta)[0][k]
                    levi = np.einsum("i,ij,j->", w.conj(),
                                     _levi_single(model, k), w).real
                    resid = rho_zeta - rho_z + 2 * F.real - levi
                    assert abs(resid) < 1e-13 * max(1.0, abs(rho_zeta))


def _levi_single(model, k):
    return model.levi_form_full(np.eye(model.m)[k])


class TestBarrierEval:
    def test_bilinear_consistency(self, primary, secondary, rng):
        for model in (primary, secondary):
            for _ in range(30):
                z = model.graph_point(
                    0.1 * rng.standard_normal(model.tangential_dim) + 0j,
                    0.05 * rng.standard_normal(model.m))
                zeta = off_manifold_point(model, rng)
                ev = evaluate_barrier(model, zeta, z)
                w = zeta - z
                assert abs(ev.P @ w - ev.Phi) < 1e-12 * max(1, abs(ev.Phi))
                assert abs(ev.theta @ ev.F + ev.script_A - ev.Phi) \
                    < 1e-12 * max(1, abs(ev.Phi))
                assert ev.script_A >= 0
                # the batched phase agrees with the pointwise reference
                phi, = barrier.barrier_phase(model, zeta[None, :], z)
                assert abs(phi - ev.Phi) < 1e-12 * abs(ev.Phi)
                phi0, = barrier.barrier_phase(model, zeta[None, :], z,
                                              include_correction=False)
                assert abs(phi0 - ev.theta @ ev.F) \
                    < 1e-12 * abs(ev.theta @ ev.F)

    def test_theta_undefined_on_manifold(self, primary):
        z = np.zeros(5, dtype=complex)
        with pytest.raises(ThetaUndefinedError):
            evaluate_barrier(primary, z, z)
        with pytest.raises(ThetaUndefinedError):
            barrier.barrier_phase(primary, z[None, :], z)

    def test_exact_expansion_identity(self, primary, secondary, rng):
        # Re Phi = rho/2 + levi/2 + correction, exactly, any pair
        for model in (primary, secondary):
            for _ in range(20):
                z = model.graph_point(
                    0.15 * rng.standard_normal(model.tangential_dim) + 0j,
                    np.zeros(model.m))
                zeta = off_manifold_point(model, rng, scale=0.2, level=0.03)
                ev = evaluate_barrier(model, zeta, z)
                w = zeta - z
                _, rho = model.defining_values(zeta)
                form = model.levi_form_full(ev.theta)
                levi = np.einsum("i,ij,j->", w.conj(), form, w).real
                resid = ev.Phi.real - (0.5 * float(rho) + 0.5 * levi
                                       + ev.script_A)
                assert abs(resid) < 1e-13 * max(1.0, abs(ev.Phi))

    def test_normal_approach_quotient_half(self, primary):
        # along the transverse direction the quotient tends to 1/2 (derived
        # from the exact expansion; the correction vanishes quadratically)
        z = np.zeros(5, dtype=complex)
        quotients = []
        corrections = []
        for eps in (1e-2, 1e-3, 1e-4):
            zeta = primary.graph_point(np.zeros(4), np.zeros(1),
                                       np.array([eps]))
            ev = evaluate_barrier(primary, zeta, z)
            _, rho = primary.defining_values(zeta)
            denom = float(rho) + np.sum(np.abs(zeta - z) ** 2)
            quotients.append(ev.Phi.real / denom)
            corrections.append(ev.script_A)
        assert abs(quotients[-1] - 0.5) < 1e-3
        assert corrections == [0.0, 0.0, 0.0]

    def test_no_correction_frame_case(self):
        model = geometry.ManifoldModel(
            n=4, m=2, q=2, hermitian=[np.diag([1.0, -1.0]),
                                      np.diag([-1.0, 1.0])])
        rng = np.random.default_rng(5)
        zeta = model.graph_point(0.1 * rng.standard_normal(2) + 0j,
                                 np.zeros(2), np.array([0.01, 0.02]))
        ev = evaluate_barrier(model, zeta, np.zeros(4, dtype=complex))
        assert ev.script_A == 0.0
        assert abs(ev.theta @ ev.F - ev.Phi) < 1e-14


class TestProjectorFrames:
    """G = s^2 Pi and its analytic theta-derivative from _frames_for_thetas."""

    @staticmethod
    def _models(primary, secondary):
        # the random quadric's lowest eigenvalue varies with theta (below
        # -1), so ds^2 is active; on sig22_n6m2 it is -2 in every direction
        return [(primary, np.array([[1.0], [-1.0]])),
                (secondary, random_directions(2, 40, np.random.default_rng(3))),
                (random_quadric(6, 2, np.random.default_rng(11)),
                 random_directions(2, 40, np.random.default_rng(4))),
                (random_quadric(7, 3, np.random.default_rng(12)),
                 random_directions(3, 40, np.random.default_rng(5)))]

    def test_projector_matches_frame_rows(self, primary, secondary):
        for model, thetas in self._models(primary, secondary):
            G, _ = barrier._frames_for_thetas(model, thetas,
                                              with_derivative=False)
            d = model.tangential_dim
            for theta, g in zip(thetas, G):
                frame = correction_frame(model, theta)
                ref = frame.scale ** 2 * (frame.rows.conj().T @ frame.rows)
                assert np.max(np.abs(ref[d:])) == 0.0
                assert np.max(np.abs(g - ref[:d, :d])) \
                    < 1e-12 * np.max(np.abs(ref))

    def test_derivative_matches_central_differences(self, primary, secondary):
        for model, thetas in self._models(primary, secondary)[1:]:
            lam = np.linalg.eigvalsh(-np.tensordot(
                thetas, np.stack(model.hermitian), axes=(1, 0)))[:, 0]
            if model is not secondary:
                assert np.all(lam < -1.0) and np.ptp(lam) > 0.1
            _, dG = barrier._frames_for_thetas(model, thetas)
            errs = []
            for h in (1e-4, 5e-5):
                fd = np.empty_like(dG)
                for k in range(model.m):
                    # theta +- h e_k, renormalized inside: the derivative
                    # along the unit sphere
                    shift = h * np.eye(model.m)[k]
                    hi, _ = barrier._frames_for_thetas(model, thetas + shift)
                    lo, _ = barrier._frames_for_thetas(model, thetas - shift)
                    fd[:, k] = (hi - lo) / (2 * h)
                errs.append(np.max(np.abs(fd - dG)))
            assert errs[0] < 1e-6 * np.max(np.abs(dG))
            assert 3.5 < errs[0] / errs[1] < 4.5

    def test_derivative_matches_kato_oracle(self, primary, secondary):
        # dG from the eigen-equation against the per-node A_k tensor, and
        # the dP_mixed pullback of a random adjoint A over the jets of a
        # block of a zeta batch against the contraction of the zero-padded
        # dH tensor of the whole batch
        rng = np.random.default_rng(13)
        for model, thetas in self._models(primary, secondary)[1:]:
            G, dG = barrier._frames_for_thetas(model, thetas)
            G_ref, dG_ref = kato_frame_derivative(model, thetas)
            assert np.max(np.abs(G - G_ref)) < 1e-12 * np.max(np.abs(G_ref))
            assert np.max(np.abs(dG - dG_ref)) \
                < 1e-12 * np.max(np.abs(dG_ref))
            z = np.zeros(model.n, dtype=complex)
            zetas = barrier._sample_pairs(model, z, 64, 0.2, rng)
            jets = barrier.barrier_jets(model, zetas, z)
            V = rng.standard_normal((3, model.n)) \
                + 1j * rng.standard_normal((3, model.n))
            A = rng.standard_normal((32, model.n, model.n)) \
                + 1j * rng.standard_normal((32, model.n, model.n))
            block = barrier.barrier_jets(model, zetas[8:40], z)
            ref = np.einsum("Naij,Nij->a",
                            padded_dP_mixed(model, jets, V)[8:40], A)
            d = model.tangential_dim
            got = V[:, :d] @ block.dP_mixed(
                A[:, :d] @ np.swapaxes(block.dtheta, 1, 2))
            assert np.max(np.abs(got - ref)) \
                < 1e-12 * np.max(np.abs(ref))

    def test_complex_path_matches_conjugated_real_model(self, secondary):
        # H'_k = U H_k U^H with a complex diagonal unitary U forces the
        # complex path; the projector and its derivative conjugate along
        U = np.diag(np.exp(1j * np.array([0.3, -1.1, 2.0, 0.7])))
        twisted = geometry.ManifoldModel(
            n=secondary.n, m=secondary.m, q=secondary.q,
            hermitian=[U @ h @ U.conj().T for h in secondary.hermitian])
        assert secondary.hermitian_stack.dtype == float
        assert twisted.hermitian_stack.dtype == complex
        thetas = random_directions(2, 40, np.random.default_rng(3))
        G, dG = barrier._frames_for_thetas(secondary, thetas)
        G2, dG2 = barrier._frames_for_thetas(twisted, thetas)
        assert G.dtype == dG.dtype == float
        assert np.max(np.abs(G2 - U @ G @ U.conj().T)) < 1e-13
        assert np.max(np.abs(dG2 - U @ dG @ U.conj().T)) < 1e-13

    def test_closed_frame_gap_raises(self):
        # certified at resolution 16 with no gap warning, but the cut gap
        # of -theta . H is exactly 0 at theta = (-1/2, +-sqrt(3)/2)
        sz, sx = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
        zero = np.zeros((2, 2))
        model = geometry.ManifoldModel(n=6, m=2, q=1, hermitian=[
            np.block([[sz, zero], [zero, 0.5 * sz + np.eye(2)]]),
            np.block([[sx, zero], [zero, 0.5 * sx]])])
        rep = geometry.certify_concavity(model, resolution=16)
        assert rep.passed and rep.frame_gap_warnings == []
        theta = np.array([-0.5, np.sqrt(0.75)])
        with pytest.raises(FrameGapError):
            barrier._frames_for_thetas(model, theta[None, :])
        zeta = model.graph_point(0.1 * np.ones(4), np.zeros(2), -0.02 * theta)
        with pytest.raises(FrameGapError):
            barrier.barrier_jets(model, zeta[None, :], np.zeros(6, complex))
        # the phase needs no derivative and stays finite
        assert np.isfinite(barrier.barrier_phase(
            model, zeta[None, :], np.zeros(6, complex))).all()


class TestLevelDirections:
    """theta = -sigma and rho = eps on level-set nodes: one frame per
    direction of the chunk's table, gathered by node, and the directions
    taken from the stream (barrier.level_set_blocks) rather than recomputed
    from rho_vec."""

    @staticmethod
    def _chunks(secondary):
        # sig22_n6m2, a complex m = 2 quadric and an m = 3 quadric, each with
        # the first chunk of a node stream
        for model in (secondary,
                      random_quadric(6, 2, np.random.default_rng(11)),
                      random_quadric(7, 3, np.random.default_rng(12))):
            grid = QuadratureGrid(model=model, epsilon=0.1, budget=300, seed=5)
            yield model, next(grid.chunks())

    def test_shared_frames_match_per_row_frames(self, secondary):
        # the frames of the direction table, gathered by node, against one
        # solve per node
        for model, chunk in self._chunks(secondary):
            thetas = -chunk.sigma
            assert len(np.unique(thetas, axis=0)) == quadrature.SPHERE_POINTS
            G, dG = barrier._frames_for_thetas(model, -chunk.directions)
            G, dG = G[chunk.direction_index], dG[chunk.direction_index]
            rows = [barrier._frames_for_thetas(model, theta[None, :])
                    for theta in thetas]
            G_ref = np.concatenate([g for g, _ in rows])
            dG_ref = np.concatenate([dg for _, dg in rows])
            assert np.max(np.abs(G - G_ref)) <= 1e-13 * np.max(np.abs(G_ref))
            assert np.max(np.abs(dG - dG_ref)) \
                <= 1e-13 * np.max(np.abs(dG_ref))

    def test_given_directions_match_recomputed(self, primary, secondary):
        # the directions of level_set_blocks (theta = -sigma, rho = eps and
        # the table's frames by node) against those recomputed from rho_vec,
        # and the jets and phases they give, block by block
        for model in (primary, secondary,
                      random_quadric(6, 2, np.random.default_rng(11))):
            d, m = model.tangential_dim, model.m
            zp = 0.05 * np.exp(1j * np.arange(d))
            z = model.graph_point(zp, 0.02 * np.ones(m))
            grid = QuadratureGrid(model=model, epsilon=0.1, budget=700,
                                  seed=5, center_zp=zp,
                                  center_u=0.02 * np.ones(m))
            for block, directions in barrier.level_set_blocks(model, grid,
                                                              m >= 2):
                recomputed = barrier._directions(
                    model, model.defining_values(block.zeta), m >= 2)
                for a, b in zip(directions, recomputed):
                    if b is None:       # dG for m = 1
                        assert a is None and m == 1
                        continue
                    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
                ref = barrier.barrier_jets(model, block.zeta, z)
                got = barrier.barrier_jets(model, block.zeta, z,
                                           directions=directions)
                for name in ("P", "Phi", "dP_dzbar", "dP_dzetabar",
                             "dPhi_dzbar", "dPhi_dzetabar", "dG", "dtheta"):
                    a, b = getattr(got, name), getattr(ref, name)
                    if b is None:       # dG and dtheta for m = 1
                        assert a is None and m == 1
                        continue
                    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))
                for correction in (True, False):
                    phi_ref = barrier.barrier_phase(model, block.zeta, z,
                                                    correction)
                    phi = barrier.barrier_phase(model, block.zeta, z,
                                                correction,
                                                directions=directions)
                    assert np.max(np.abs(phi - phi_ref) / np.abs(phi_ref)) \
                        <= 1e-12

    def test_phase_is_the_jets_phase(self, primary, secondary):
        # one formula for Phi: barrier_phase is barrier_jets(...).Phi bit
        # for bit, off the manifold and on every level-set block
        rng = np.random.default_rng(21)
        for model in (primary, secondary):
            d, m = model.tangential_dim, model.m
            zp = 0.04 * np.exp(2j * np.arange(d))
            z = model.graph_point(zp, -0.01 * np.ones(m))
            zetas = barrier._sample_pairs(model, z, 200, 0.1, rng)
            assert np.array_equal(barrier.barrier_phase(model, zetas, z),
                                  barrier.barrier_jets(model, zetas, z).Phi)
            grid = QuadratureGrid(model=model, epsilon=0.1, budget=1200,
                                  seed=9, center_zp=zp,
                                  center_u=-0.01 * np.ones(m))
            for block, directions in barrier.level_set_blocks(model, grid,
                                                              m >= 2):
                assert np.array_equal(
                    barrier.barrier_phase(model, block.zeta, z,
                                          directions=directions),
                    barrier.barrier_jets(model, block.zeta, z,
                                         directions=directions).Phi)

    def test_stream_reads_no_defining_values(self, primary, secondary,
                                             monkeypatch):
        # the level-set paths take theta = -sigma and rho = eps from the
        # stream: with defining_values refused, the operators, one identity
        # residual point and the realized decay still run
        f_primary = bundled_test_form(primary)
        f_secondary = bundled_test_form(secondary)
        z5 = primary.graph_point(np.array([0.05, -0.03, 0.02, 0.0]),
                                 np.array([0.01]))
        zp6 = np.array([0.05, -0.03, 0.02, 0.0])
        z6 = secondary.graph_point(zp6, np.array([0.01, -0.01]))
        grid = QuadratureGrid(model=secondary, epsilon=0.1, budget=600,
                              seed=3, center_zp=zp6,
                              center_u=np.array([0.01, -0.01]))
        pairs, _ = indexcalc.dichotomy_audit(6, 2, 2, 1)
        term = next(kt for _, kt in pairs if indexcalc.is_vanishing_class(kt))

        def refused(self, z):
            raise AssertionError("defining_values called")

        monkeypatch.setattr(geometry.ManifoldModel, "defining_values",
                            refused)
        for kind in ("solution", "obstruction"):
            homotopy.apply_operator(secondary, f_secondary, z6, grid,
                                    kind=kind)
        homotopy.identity_residual(primary, f_primary, [z5], epsilon=0.1,
                                   budget=600, seed=3)
        indexcalc.realized_kernel_decay(secondary, term,
                                        np.zeros(6, dtype=complex),
                                        [0.1, 0.05], budget=600, seed=1)


class TestScalingProperties:
    def test_frame_pairings_scale_linearly(self, primary, rng):
        z = np.zeros(5, dtype=complex)
        base = off_manifold_point(primary, rng, scale=0.2, level=0.01)
        scales = np.geomspace(0.01, 0.5, 8)
        mags = []
        for s in scales:
            zeta = z + s * (base - z)
            # keep the level positive along the path
            ev = evaluate_barrier(primary, zeta, z)
            mags.append(np.max(np.abs(ev.A)) if ev.A.size else 0.0)
        slope = loglog_fit(scales, mags)
        assert slope > 0.95

    def test_variation_part_scales_linearly_at_fixed_level(self, secondary, rng):
        # the frame-variation coefficients vanish linearly in |zeta - z| at
        # fixed level radius
        z = np.zeros(6, dtype=complex)
        level = 0.05
        dirs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        mags, scales = [], np.geomspace(0.02, 0.2, 6)
        for s in scales:
            zeta = secondary.graph_point(s * dirs, np.zeros(2),
                                         level * np.array([0.6, 0.8]))
            mu = split_correction_dbar(secondary, zeta, z)
            mags.append(np.max(np.abs(mu.mu_nu)))
        slope = loglog_fit(scales, mags)
        assert slope > 0.9


class TestLowerBoundAudit:
    def test_certified_positive(self, primary, secondary):
        for model in (primary, secondary):
            z = np.zeros(model.n, dtype=complex)
            rep = barrier.audit_barrier_bound(model, z, sample_count=10000,
                                              neighborhood_scale=0.1, seed=1)
            assert rep.passed and rep.c_hat > 0
            assert rep.c_hat_abs > 0

    def test_fresh_sample_consistency(self, primary):
        z = np.zeros(5, dtype=complex)
        train = barrier.audit_barrier_bound(primary, z, 10000, 0.1, seed=1)
        test = barrier.audit_barrier_bound(primary, z, 10000, 0.1, seed=2)
        assert test.c_hat > 0.5 * train.c_hat

    def test_argmin_reproduces_c_hat(self, secondary):
        # argmin_zeta is the sampled point of least real quotient: the
        # quotient recomputed there is c_hat, the least of ``quotients``
        z = secondary.graph_point(np.array([0.05, 0.02j, 0.0, 0.01]),
                                  np.array([0.01, -0.02]))
        rep = barrier.audit_barrier_bound(secondary, z, 4000, 0.1, seed=3)
        zeta = rep.argmin_zeta[None, :]
        _, rho = secondary.defining_values(zeta)
        denom = rho + np.sum(np.abs(zeta - z) ** 2, axis=1)
        quot = barrier.barrier_phase(secondary, zeta, z).real / denom
        assert quot[0] == pytest.approx(rep.c_hat, rel=1e-12)
        assert rep.c_hat == np.min(rep.quotients)

    def test_report_holds_only_verdict_keys(self, primary):
        # the model hash, seed, scale and sample count live in the report's
        # top-level keys and config hash, the input point is the caller's
        rep = barrier.audit_barrier_bound(primary, np.zeros(5, dtype=complex),
                                          2000, 0.1, seed=1)
        assert set(rep.to_json_dict()) == {"c_hat", "c_hat_abs", "passed",
                                           "argmin_zeta"}

    def test_broken_model_detected(self):
        broken = geometry.ManifoldModel(n=5, m=1, q=2,
                                        hermitian=[np.eye(4)])
        z = np.zeros(5, dtype=complex)
        rep = barrier.audit_barrier_bound(broken, z, 10000, 0.1, seed=1,
                                          include_correction=False)
        assert rep.c_hat <= 0
        assert not rep.passed


class TestExpansionAudit:
    def test_codim_one_exact(self, primary):
        v = np.zeros(5, dtype=complex)
        v[0] = 0.5 + 0.1j
        v[4] = 0.2 + 0.9j
        rep = barrier.audit_barrier_expansion(
            primary, np.zeros(5, dtype=complex), v,
            scales=np.geomspace(1e-3, 1e-1, 5))
        assert rep.exact

    @staticmethod
    def _generic_direction():
        # components in both coupling blocks so the level profile bends
        # and the direction field varies along the path
        v = np.zeros(6, dtype=complex)
        v[0] = 0.6 + 0.2j
        v[2] = 0.3 - 0.4j
        v[4] = 0.15 + 0.8j
        v[5] = 0.4j
        return v

    def test_generic_path_cubic_slope(self, secondary):
        rep = barrier.audit_barrier_expansion(
            secondary, np.zeros(6, dtype=complex), self._generic_direction(),
            scales=np.geomspace(3e-3, 1e-1, 6))
        assert not rep.exact
        assert rep.slope >= 2.8

    def test_straight_profile_path_exact_on_secondary(self, secondary):
        # a direction in the first coupling block leaves the level profile
        # straight, so the direction field is constant along the path and
        # the expansion identity is exact
        v = np.zeros(6, dtype=complex)
        v[0] = 0.6 + 0.2j
        v[4] = 0.15 + 0.8j
        v[5] = 0.4j
        rep = barrier.audit_barrier_expansion(
            secondary, np.zeros(6, dtype=complex), v,
            scales=np.geomspace(3e-3, 1e-1, 6))
        assert rep.exact


class TestCorrectionDbarSplit:
    def test_frozen_direction_kills_variation(self, secondary, rng):
        zeta = off_manifold_point(secondary, rng)
        z = np.zeros(6, dtype=complex)
        mu = split_correction_dbar(secondary, zeta, z,
                                   frozen_theta=np.array([1.0, 0.0]))
        assert np.max(np.abs(mu.mu_nu)) == 0.0

    def test_codim_one_variation_vanishes(self, primary, rng):
        zeta = off_manifold_point(primary, rng)
        mu = split_correction_dbar(primary, zeta, np.zeros(5, dtype=complex))
        assert np.max(np.abs(mu.mu_nu)) == 0.0

    def test_sum_matches_finite_difference(self, secondary, rng):
        # mu_tau + mu_nu ~ dbar of the conjugate pairing, second order in step
        zeta = off_manifold_point(secondary, rng, scale=0.15, level=0.05)
        z = np.zeros(6, dtype=complex)
        mu = split_correction_dbar(secondary, zeta, z)
        w = zeta - z

        def conj_pairing(pt):
            th = normal_direction(secondary, pt)
            rows = scaled_frame_rows(secondary, th)
            return (rows @ (pt - z)).conj()

        errs = []
        for step in (1e-4, 5e-5):
            fd = np.zeros_like(mu.mu_tau)
            for l in range(6):
                shifts = []
                for dz in (step, -step, 1j * step, -1j * step):
                    p = zeta.copy(); p[l] += dz
                    shifts.append(conj_pairing(p))
                fx = (shifts[0] - shifts[1]) / (2 * step)
                fy = (shifts[2] - shifts[3]) / (2 * step)
                fd[:, l] = 0.5 * (fx + 1j * fy)
            errs.append(np.max(np.abs(fd - (mu.mu_tau + mu.mu_nu))))
        assert errs[0] < 1e-5
        assert errs[1] < 0.5 * errs[0]
