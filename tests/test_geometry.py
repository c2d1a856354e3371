import numpy as np
import pytest

from crhomotopy import barrier, geometry, quadrature
from crhomotopy.errors import ModelParseError, ModelValidationError
from oracles import (DegeneratePointError, concatenated_block,
                     correction_frame, defining_polynomial, fd_hessian_mixed,
                     off_manifold_point, random_directions, random_quadric,
                     random_unitary, rotated_model, tangential_frame,
                     tensordot_contractions)

TOL = 1e-12


class TestDefiningFunctions:
    def test_vanishes_at_origin(self, primary):
        vec, norm = primary.defining_values(np.zeros(5, dtype=complex))
        assert np.all(vec == 0) and norm == 0

    def test_balanced_point(self, primary):
        # Im w = 1 cancels |z1|^2 = 1 for the (1,1,-1,-1) form
        z = np.array([1.0, 0, 0, 0, 1j], dtype=complex)
        vec, _ = primary.defining_values(z)
        assert abs(vec[0]) < TOL

    @pytest.mark.parametrize("model_name", ["primary", "secondary"])
    def test_matches_polynomial_oracle(self, model_name, primary, secondary, rng):
        model = primary if model_name == "primary" else secondary
        for _ in range(25):
            z = rng.standard_normal(model.n) + 1j * rng.standard_normal(model.n)
            mine, _ = model.defining_values(z)
            oracle = defining_polynomial(model.n, model.m, model.hermitian, z)
            assert np.max(np.abs(mine - oracle)) < 1e-12

    def test_gradient_matches_finite_differences(self, secondary, rng):
        z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        for k in range(secondary.m):
            g = secondary.holo_gradients(z)[k]
            for a in range(6):
                def f(pt):
                    return secondary.defining_values(pt)[0][k]
                px = z.copy(); px[a] += 1e-6
                mx = z.copy(); mx[a] -= 1e-6
                py = z.copy(); py[a] += 1e-6j
                my = z.copy(); my[a] -= 1e-6j
                fd = 0.5 * ((f(px) - f(mx)) / 2e-6 - 1j * (f(py) - f(my)) / 2e-6)
                assert abs(g[a] - fd) < 1e-8


class TestModelValidation:
    def test_rejects_non_hermitian(self):
        h = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ModelValidationError):
            geometry.ManifoldModel(n=3, m=1, q=1, hermitian=[h])

    def test_rejects_oversized_q(self):
        with pytest.raises(ModelValidationError):
            geometry.ManifoldModel(n=5, m=1, q=5,
                                   hermitian=[np.diag([1., 1., -1., -1.])])

    def test_rejects_wrong_codimension(self):
        with pytest.raises(ModelValidationError):
            geometry.ManifoldModel(n=3, m=2, q=1,
                                   hermitian=[np.eye(1), np.eye(1)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, bad):
        # nan fails every comparison, so the Hermitian check alone passes it
        h = np.diag([1.0, -1.0]).astype(complex)
        h[0, 0] = bad
        with pytest.raises(ModelValidationError, match="non-finite"):
            geometry.ManifoldModel(n=3, m=1, q=1, hermitian=[h])

    @pytest.mark.parametrize("radius", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_bad_radius(self, radius):
        with pytest.raises(ModelValidationError, match="radius"):
            geometry.ManifoldModel(n=3, m=1, q=1,
                                   hermitian=[np.diag([1.0, -1.0])],
                                   radius=radius)


class TestDirectionalLevi:
    """The Levi pencil -theta . H of ``ManifoldModel.levi_pencil``."""

    def test_diagonal_signature(self):
        model = geometry.ManifoldModel(n=3, m=1, q=1,
                                       hermitian=[np.diag([1.0, -1.0])])
        evals = np.linalg.eigvalsh(model.levi_pencil(np.array([1.0])))
        assert np.allclose(evals, [-1.0, 1.0])

    def test_sign_flip(self, primary):
        evals = np.linalg.eigvalsh(primary.levi_pencil(np.array([-1.0])))
        assert np.sum(evals < -geometry.TOL_EIG) == 2

    def test_matches_dense_eigensolver(self, secondary, rng):
        thetas = random_directions(2, 10, rng)
        evals = np.linalg.eigvalsh(secondary.levi_pencil(thetas))
        for th, ev in zip(thetas, evals):
            dense = np.linalg.eigvalsh(-(th[0] * secondary.hermitian[0]
                                         + th[1] * secondary.hermitian[1]))
            assert np.max(np.abs(np.sort(dense) - ev)) < 1e-12

    def test_linear_in_direction(self, secondary, rng):
        t1 = rng.standard_normal(2); t1 /= np.linalg.norm(t1)
        t2 = rng.standard_normal(2); t2 /= np.linalg.norm(t2)
        a, b = 0.7, -1.3
        m1, m2 = secondary.levi_pencil(np.stack([t1, t2]))
        combo = a * t1 + b * t2
        combo_dir = combo / np.linalg.norm(combo)
        m3 = secondary.levi_pencil(combo_dir)
        assert np.max(np.abs(m3 * np.linalg.norm(combo) - (a * m1 + b * m2))) < 1e-12

    def test_full_form_pads_the_pencil(self, secondary, rng):
        thetas = random_directions(2, 3, rng)
        full = secondary.levi_form_full(thetas)
        d = secondary.tangential_dim
        assert full.shape == (3, 6, 6)
        assert np.array_equal(full[:, :d, :d], secondary.levi_pencil(thetas))
        assert not full[:, d:].any() and not full[:, :, d:].any()


class TestLeviContractions:
    """Each contraction with the Levi stack is one GEMM on a flat layout
    that ``ManifoldModel`` keeps, the product np.tensordot runs after
    rebuilding that layout: the same bits."""

    @staticmethod
    def same_bits(got, want):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("which", ["primary", "secondary",
                                       "primary-rotated", "secondary-rotated"])
    def test_gemm_layouts_match_tensordot(self, which, request, rng):
        # the rotated models have complex Levi matrices U H_k U^H
        name, _, rotated = which.partition("-")
        model = request.getfixturevalue(name)
        d, m = model.tangential_dim, model.m
        if rotated:
            model = rotated_model(model, random_unitary(d, 11), np.eye(m))
            assert np.iscomplexobj(model.hermitian_stack)
        zp = rng.standard_normal((3, 7, d)) \
            + 1j * rng.standard_normal((3, 7, d))
        thetas = rng.standard_normal((3, 7, m))
        z = np.concatenate([zp, np.zeros((3, 7, m))], axis=-1)
        for pick in (np.s_[:], np.s_[0, 0]):     # batches and one point
            want = tensordot_contractions(model, zp[pick], thetas[pick])
            self.same_bits(model.levi_products(zp[pick]),
                           want["levi_products"])
            self.same_bits(model.height(zp[pick]), want["height"])
            self.same_bits(model.holo_gradients(z[pick])[..., :d],
                           want["holo_gradients"])
            self.same_bits(model.levi_pencil(thetas[pick]),
                           want["levi_pencil"])
        # the H z' of a block's in-place assembly, on the z' columns of its
        # zeta, against the tensordot one and concatenations
        for mode in quadrature.MODES:
            grid = quadrature.QuadratureGrid(
                model=model, epsilon=0.1, mode=mode, budget=700, seed=4,
                center_zp=0.02 * (1 - 1j) * np.arange(d),
                center_u=np.full(m, 0.03))
            params = grid._sample_params(np.random.default_rng(4), 700)
            block = grid._assemble(params)
            for got, want in zip((block.zeta, block.conormal,
                                  block.surface_jac, block.sigma),
                                 concatenated_block(grid, params)):
                self.same_bits(got, want)


class TestCertification:
    def test_primary_passes(self, primary):
        rep = geometry.certify_concavity(primary)
        assert rep.passed and rep.min_negative == 2

    def test_secondary_passes_with_uniform_gap(self, secondary):
        rep = geometry.certify_concavity(secondary, resolution=32)
        assert rep.passed and rep.min_negative == 2
        assert not rep.frame_gap_warnings

    def test_definite_form_fails(self):
        model = geometry.ManifoldModel(n=5, m=1, q=1,
                                       hermitian=[np.eye(4)])
        rep = geometry.certify_concavity(model)
        assert not rep.passed
        assert rep.min_negative == 0

    def test_zero_requirement_vacuous(self):
        model = geometry.ManifoldModel(n=5, m=1, q=1, hermitian=[np.eye(4)])
        rep = geometry.certify_concavity(model)
        # report carries the data; a q = 0 requirement would pass vacuously
        assert rep.min_negative >= 0

    def test_full_sphere_min_counts_agree(self, secondary):
        # flipping theta swaps positives and negatives, so both minima match
        rep = geometry.certify_concavity(secondary, resolution=32)
        assert rep.min_negative == rep.min_positive

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_batched_matches_per_direction_loop(self, m):
        # a random complex quadric, and one whose pencil is
        # (theta . c) U diag(-1, -1, 1, 1) U^H, so that the frame gap at the
        # split n - q - m = 3 closes in every direction
        rng = np.random.default_rng(40 + m)
        u, _ = np.linalg.qr(rng.standard_normal((4, 4))
                            + 1j * rng.standard_normal((4, 4)))
        base = u @ np.diag([1.0, 1.0, -1.0, -1.0]) @ u.conj().T
        closing = geometry.ManifoldModel(
            n=4 + m, m=m, q=1, hermitian=[(k + 1.0) * base for k in range(m)])
        for model in (random_quadric(4 + m, m, rng), closing):
            rep = geometry.certify_concavity(model, resolution=8)
            grid = geometry.direction_grid(m, 8)
            neg, pos, warnings = [], [], []
            split_at = model.n - model.q - model.m
            for th in grid:
                mat = np.zeros((4, 4), dtype=complex)
                for t, h in zip(th, model.hermitian):
                    mat -= t * h
                ev = np.linalg.eigvalsh(mat)
                neg.append(int(np.sum(ev < -geometry.TOL_EIG)))
                pos.append(int(np.sum(ev > geometry.TOL_EIG)))
                gap = ev[split_at] - ev[split_at - 1]
                if gap < geometry.FRAME_GAP_WARN:
                    warnings.append((list(th), gap))
            assert rep.min_negative == min(neg)
            assert rep.min_positive == min(pos)
            assert np.array_equal(rep.worst_direction, grid[np.argmin(neg)])
            assert rep.passed == (min(neg) >= model.q)
            if model is closing:
                assert len(warnings) == len(grid)
            assert [w["direction"] for w in rep.frame_gap_warnings] \
                == [w[0] for w in warnings]
            assert np.allclose([w["gap"] for w in rep.frame_gap_warnings],
                               [w[1] for w in warnings], rtol=0, atol=1e-12)


class TestModifiedDefining:
    """directional_modified_form: the form matrix of
    sum_k theta_k rho_k + amplitude * sum_i rho_i^2."""

    def test_zero_amplitude_is_identity(self, primary, secondary, rng):
        for model in (primary, secondary):
            z = off_manifold_point(model, rng, scale=0.2, level=0.05)
            for th in random_directions(model.m, 4, np.random.default_rng(1)):
                form = geometry.directional_modified_form(model, th, z, 0.0)
                assert np.max(np.abs(form - model.levi_form_full(th))) == 0.0

    def test_vanishes_on_manifold_for_any_amplitude(self, primary, secondary,
                                                    rng):
        # every rho_i vanishes on the manifold, so there the weight adds
        # only its gradient part 2 amp sum_i conj(g_i) g_i^T
        amp = 3.7
        for model in (primary, secondary):
            d = model.tangential_dim
            z = model.graph_point(0.3 * rng.standard_normal(d),
                                  rng.standard_normal(model.m))
            grads = model.holo_gradients(z)
            expected = 2.0 * amp * np.einsum("ia,ib->ab", grads.conj(), grads)
            for th in random_directions(model.m, 4, np.random.default_rng(2)):
                extra = (geometry.directional_modified_form(model, th, z, amp)
                         - model.levi_form_full(th))
                assert np.max(np.abs(extra - expected)) < 1e-12

    def test_hessian_matches_finite_differences(self, primary, secondary,
                                                rng):
        # central-difference mixed Hessian of the polynomial oracle of
        # theta . rho + amp sum_i rho_i^2 at a point off the manifold, where
        # the rho_i-weighted Levi term of the weight is active
        amp = 0.8
        for model in (primary, secondary):
            n = model.n
            z = off_manifold_point(model, rng, scale=0.2, level=0.05)
            th = random_directions(model.m, 1, np.random.default_rng(3))[0]
            form = geometry.directional_modified_form(model, th, z, amp)

            def f(pt):
                rho = defining_polynomial(n, model.m, model.hermitian, pt)
                return th @ rho + amp * np.sum(rho ** 2)

            errs = []
            for step in (1e-3, 5e-4):
                fd = np.empty((n, n), dtype=complex)
                for a in range(n):
                    for b in range(n):
                        fd[a, b] = fd_hessian_mixed(f, z, a, b, step=step)
                # form matrix convention: F[a, b] = d^2 f / dz_b dzbar_a
                errs.append(np.max(np.abs(fd.T - form)))
            assert errs[0] < 1e-4
            # the step^2 term contracts on sig22_n5; on sig22_n6m2 it
            # cancels and both errors sit at roundoff
            assert errs[1] < errs[0] or max(errs) < 1e-9

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_batched_matches_per_direction_loop(self, m, monkeypatch):
        # the form over a (point, direction) batch against one matrix per
        # pair built here, and the amplitude search against a loop over the
        # pairs with one eigvalsh each
        rng = np.random.default_rng(50 + m)
        model = random_quadric(4 + m, m, rng)
        n, d = model.n, model.tangential_dim
        pts = np.stack([off_manifold_point(model, rng, scale=0.2, level=0.05)
                        for _ in range(3)])
        grid = geometry.direction_grid(m, 8)
        amp = 1.3
        batched = geometry.directional_modified_form(model, grid,
                                                     pts[:, None], amp)
        assert batched.shape == (3, len(grid), n, n)
        for z, forms in zip(pts, batched):
            vec, _ = model.defining_values(z)
            grads = model.holo_gradients(z)
            for th, form in zip(grid, forms):
                ref = np.zeros((n, n), dtype=complex)
                for i in range(m):
                    ref[:d, :d] -= (th[i] + 2.0 * amp * vec[i]) \
                        * model.hermitian[i]
                    ref += 2.0 * amp * np.outer(grads[i].conj(), grads[i])
                assert np.max(np.abs(form - ref)) < 1e-12 * np.max(np.abs(ref))

        # on the manifold the weight only adds positivity, so the lowest
        # eigenvalue grows with the amplitude; the target sits between its
        # values at the third and fourth amplitude
        pts = model.graph_point(
            0.2 * (rng.standard_normal((3, d))
                   + 1j * rng.standard_normal((3, d))),
            rng.standard_normal((3, m)))
        G, _ = barrier._frames_for_thetas(model, grid, with_derivative=False)
        amplitudes = [0.25 * 2 ** k for k in range(10)]
        lowest = []
        for a in amplitudes:
            low = []
            for z in pts:
                for th, g in zip(grid, G):
                    form = geometry.directional_modified_form(model, th, z, a)
                    form[:d, :d] += g
                    low.append(np.linalg.eigvalsh(form)[0])
            lowest.append(min(low))
        target = 0.5 * (lowest[2] + lowest[3])
        expected = next(a for a, low in zip(amplitudes, lowest)
                        if low >= target)
        assert expected == amplitudes[3]
        monkeypatch.setattr(geometry, "AMPLITUDE_TARGET", target)
        rep = geometry.find_modification_amplitude(model, list(pts),
                                                   resolution=8)
        assert rep["amplitude"] == expected

    def test_empty_points_take_the_first_amplitude(self, secondary,
                                                   monkeypatch):
        monkeypatch.setattr(geometry, "AMPLITUDES", (0.3, 0.6))
        rep = geometry.find_modification_amplitude(secondary, [])
        assert rep == {"amplitude": 0.3, "margin": 0.05, "resolution": 16}

    def test_amplitude_search_rejects_off_manifold_points(self):
        # off the manifold the weight's Levi term 2 amp sum_i rho_i (-H_i) is
        # indefinite: the lowest eigenvalue of the combined form falls as the
        # amplitude grows, so an upward search would stop at the wrong end.
        # For the graph projections of the same points it rises
        model = random_quadric(6, 2, np.random.default_rng(52))
        rng = np.random.default_rng(7)
        off = np.array([off_manifold_point(model, rng, scale=0.2, level=0.05)
                        for _ in range(3)])
        on = model.project_to_manifold(off)
        grid = geometry.direction_grid(model.m, 8)
        G, _ = barrier._frames_for_thetas(model, grid, with_derivative=False)
        d = model.tangential_dim

        def lowest(pts, amp):
            form = geometry.directional_modified_form(model, grid,
                                                      pts[:, None], amp)
            form[..., :d, :d] += G
            return np.min(np.linalg.eigvalsh(form)[..., 0])

        assert lowest(off, 128.0) < lowest(off, 0.25) - 1.0
        assert lowest(on, 128.0) > lowest(on, 0.25)
        with pytest.raises(ValueError, match="points on the manifold"):
            geometry.find_modification_amplitude(model, list(off),
                                                 resolution=8)
        with pytest.raises(ValueError, match="points on the manifold"):
            geometry.find_modification_amplitude(model, [on[0], off[1]],
                                                 resolution=8)
        rep = geometry.find_modification_amplitude(model, list(on),
                                                   resolution=8)
        assert rep["resolution"] == 8

    def test_amplitude_search_finds_positivity(self, primary):
        pts = [np.zeros(5, dtype=complex)]
        rep = geometry.find_modification_amplitude(primary, pts)
        assert rep["amplitude"] is not None

    def test_positivity_with_correction(self, primary, secondary):
        # the combined form: modified directional form + the correction
        # projector G on the z'-block, on a grid the search did not use
        for model in (primary, secondary):
            rep = geometry.find_modification_amplitude(
                model, [np.zeros(model.n, dtype=complex)])
            amp = rep["amplitude"]
            grid = geometry.direction_grid(model.m, 12)
            G, _ = barrier._frames_for_thetas(model, grid,
                                              with_derivative=False)
            d = model.tangential_dim
            for th, g in zip(grid, G):
                form = geometry.directional_modified_form(
                    model, th, np.zeros(model.n, dtype=complex), amp)
                form[:d, :d] += g
                assert np.linalg.eigvalsh(form)[0] > 0


class TestCorrectionFrame:
    """The correction frame as the scaled projector G = s^2 Pi of
    barrier._frames_for_thetas on the z'-block."""

    @staticmethod
    def _cases(primary, secondary):
        return [(primary, np.array([[1.0], [-1.0]])),
                (secondary,
                 random_directions(2, 20, np.random.default_rng(4))),
                (random_quadric(6, 2, np.random.default_rng(11)),
                 random_directions(2, 20, np.random.default_rng(5))),
                (random_quadric(7, 3, np.random.default_rng(12)),
                 random_directions(3, 20, np.random.default_rng(6)))]

    def test_orthonormal_and_gram_identity(self, primary, secondary):
        # G is Hermitian with G^2 = s^2 G and trace s^2 (n - q - m),
        # s^2 = CORRECTION_MARGIN max(1, -lambda_min)
        for model, thetas in self._cases(primary, secondary):
            G, _ = barrier._frames_for_thetas(model, thetas,
                                              with_derivative=False)
            lam = np.linalg.eigvalsh(-np.tensordot(
                thetas, np.stack(model.hermitian), axes=(1, 0)))[:, 0]
            s2 = geometry.CORRECTION_MARGIN * np.maximum(1.0, -lam)
            count = model.n - model.q - model.m
            assert np.max(np.abs(G - np.swapaxes(G.conj(), 1, 2))) < 1e-12
            square = np.einsum("Nij,Njk->Nik", G, G)
            assert np.max(np.abs(square - s2[:, None, None] * G)) \
                < 1e-12 * np.max(s2) ** 2
            trace = np.einsum("Nii->N", G).real
            assert np.max(np.abs(trace - s2 * count)) < 1e-12 * np.max(s2)

    def test_matches_eigensolver_selection(self, primary):
        # directions needing correction: nonpositive eigendirections of the
        # Levi matrix; for the diagonal form at theta=+1 those are the first
        # two coordinate axes, and lambda_min = -1 gives s^2 = 1.25
        G, _ = barrier._frames_for_thetas(primary, np.array([[1.0]]),
                                          with_derivative=False)
        expected = geometry.CORRECTION_MARGIN * np.diag([1.0, 1.0, 0.0, 0.0])
        assert np.max(np.abs(G[0] - expected)) < 1e-12

    def test_orthogonal_to_positivity_subspace(self, primary, secondary):
        # G annihilates the positivity subspace: the top-q eigenvectors of
        # the Levi pencil (its transverse w-directions have no z' part)
        for model, thetas in self._cases(primary, secondary):
            G, _ = barrier._frames_for_thetas(model, thetas,
                                              with_derivative=False)
            for theta, g in zip(thetas, G):
                _, vec = np.linalg.eigh(model.levi_pencil(theta))
                assert np.max(np.abs(g @ vec[:, -model.q:])) \
                    < 1e-10 * np.max(np.abs(g))

    def test_reorthonormalization_fixed_point(self, secondary, rng):
        # G is gauge-free: re-orthonormalizing the pointwise frame rows
        # after a random invertible mix of them gives the same G
        thetas = random_directions(2, 10, np.random.default_rng(7))
        G, _ = barrier._frames_for_thetas(secondary, thetas,
                                          with_derivative=False)
        d = secondary.tangential_dim
        for theta, g in zip(thetas, G):
            frame = correction_frame(secondary, theta)
            count = frame.rows.shape[0]
            mix = (rng.standard_normal((count, count))
                   + 1j * rng.standard_normal((count, count)))
            q, _ = np.linalg.qr((mix @ frame.rows).T)
            rebuilt = frame.scale ** 2 * (q.conj() @ q.T)
            assert np.max(np.abs(rebuilt[:d, :d] - g)) < 1e-12 * np.max(
                np.abs(g))

    def test_empty_frame_when_fully_concave(self):
        # n - q - m = 0: no correction needed, G and dG vanish
        model = geometry.ManifoldModel(n=4, m=2, q=2,
                                       hermitian=[np.diag([1.0, -1.0]),
                                                  np.diag([-1.0, 1.0])])
        thetas = random_directions(2, 5, np.random.default_rng(8))
        G, dG = barrier._frames_for_thetas(model, thetas)
        assert G.shape == (5, 2, 2) and dG.shape == (5, 2, 2, 2)
        assert np.max(np.abs(G)) == 0.0 and np.max(np.abs(dG)) == 0.0


class TestTangentialFrame:
    def test_annihilates_defining_gradients(self, primary, secondary, rng):
        for model in (primary, secondary):
            z = model.graph_point(
                0.3 * (rng.standard_normal(model.tangential_dim)
                       + 1j * rng.standard_normal(model.tangential_dim)),
                0.2 * rng.standard_normal(model.m))
            frame = tangential_frame(model, z)
            grads = model.holo_gradients(z)
            pair = np.einsum("ia,ka->ik", frame.W, grads)
            assert np.max(np.abs(pair)) < 1e-12

    def test_origin_frame_is_coordinate_frame(self, primary):
        frame = tangential_frame(primary, np.zeros(5, dtype=complex))
        expected = np.zeros((4, 5), dtype=complex)
        expected[:, :4] = np.eye(4)
        assert np.max(np.abs(frame.W - expected)) < 1e-14

    def test_full_rank_at_random_points(self, primary, rng):
        for _ in range(100):
            z = primary.graph_point(
                0.4 * (rng.standard_normal(4) + 1j * rng.standard_normal(4)),
                0.3 * rng.standard_normal(1))
            frame = tangential_frame(primary, z)
            assert frame.W.shape == (4, 5)

    def test_off_manifold_rejected(self, primary):
        z = np.zeros(5, dtype=complex)
        z[4] = 0.5j
        with pytest.raises(DegeneratePointError):
            tangential_frame(primary, z)

    def test_transverse_fields_dual_to_coordinates(self, primary, rng):
        # Y_k is the coordinate field of the k-th imaginary pairing: it
        # holds the defining functions and the holomorphic chart coordinates
        # fixed and moves that pairing at unit rate
        z = primary.graph_point(
            0.2 * (rng.standard_normal(4) + 1j * rng.standard_normal(4)),
            0.1 * rng.standard_normal(1))
        frame = tangential_frame(primary, z)
        grads = primary.holo_gradients(z)
        for k in range(primary.m):
            y = frame.Y[k]
            # d rho(Y) = 2 Re <grad, velocity>
            assert abs(2 * np.sum(grads[k] * y).real) < 1e-10
            # imaginary pairing rate: Im(-<grad, velocity>) = 1
            assert abs(np.sum(-grads[k] * y).imag - 1.0) < 1e-10
            # holomorphic chart coordinates unmoved
            assert np.max(np.abs(y[:4])) < 1e-10


class TestModelFiles:
    def test_roundtrip_bundled(self, primary, tmp_path):
        text = (
            "n = 5\nm = 1\nq = 2\nradius = 1.0\nH 1\n"
            "1,0 0,0 0,0 0,0\n0,0 1,0 0,0 0,0\n"
            "0,0 0,0 -1,0 0,0\n0,0 0,0 0,0 -1,0\n")
        path = tmp_path / "m.model"
        path.write_text(text)
        model = geometry.load_model_file(path)
        assert model.content_hash() == primary.content_hash()

    def test_malformed_row_names_line(self):
        text = "n = 3\nm = 1\nq = 1\nH 1\n1,0 0,0\n0,0 bad\n"
        with pytest.raises(ModelParseError, match="line 6"):
            geometry.parse_model_text(text)

    def test_missing_matrix(self):
        with pytest.raises(ModelParseError, match="missing matrix"):
            geometry.parse_model_text("n = 3\nm = 1\nq = 1\n")

    BLOCK_1 = "H 1\n1,0 0,0\n0,0 -1,0\n"

    def test_repeated_key_names_line(self):
        text = "n = 3\nm = 1\nq = 1\nq = 2\n" + self.BLOCK_1
        with pytest.raises(ModelParseError, match="line 4: repeated key 'q'"):
            geometry.parse_model_text(text)

    def test_unknown_key_names_line(self):
        text = "n = 3\nm = 1\nfoo = 3\nq = 1\n" + self.BLOCK_1
        with pytest.raises(ModelParseError, match="line 3: unknown key 'foo'"):
            geometry.parse_model_text(text)

    def test_repeated_block_names_line(self):
        text = "n = 3\nm = 1\nq = 1\n" + self.BLOCK_1 + self.BLOCK_1
        with pytest.raises(ModelParseError,
                           match="line 7: repeated matrix block H 1"):
            geometry.parse_model_text(text)

    def test_block_index_outside_codimension_names_line(self):
        text = ("n = 3\nm = 1\nq = 1\n" + self.BLOCK_1
                + self.BLOCK_1.replace("H 1", "H 2"))
        with pytest.raises(ModelParseError,
                           match="line 7: matrix block H 2 outside 1..1"):
            geometry.parse_model_text(text)
