import numpy as np
import pytest

from crhomotopy import sections
from crhomotopy.barrier import BarrierJetBatch
from crhomotopy.cf_forms import cf_component, zbar_degree
from crhomotopy.errors import NearSingularPhaseError, SingularityError
from oracles import (barrier_mixed_jets, brute_wedge_expansion,
                     contract_mixed_jets, contraction_table,
                     dense_coefficients, dense_pullback, euclidean_mixed_jets,
                     evaluate_barrier, fd_section_jet, normalization_defect,
                     normalization_worst_loop, random_quadric,
                     wedge_expansion_keys)


def random_jets(rng, n):
    mk = lambda *s: rng.standard_normal(s) + 1j * rng.standard_normal(s)
    return mk(n), mk(n, n), mk(n, n), mk(n)


def form_at(eta, beta, gamma, tau):
    """The determinant form of one section jet, (C(2n + 1, n - 1),)."""
    return cf_component(eta[:, None], beta[..., None], gamma[..., None],
                        tau[:, None])[:, 0]


def pulled_back_jets(pullback, N, n):
    """d eta / d zbar_l (N, n, n) and d gamma / d zbar_l (N, n, n, n) of a
    section, l on the second axis, one node at a time, from the pullbacks of
    the basis adjoints at that node (zero at the others): x = e_k with A = 0
    gives the gradient of eta[k], x = 0 with A = e_k e_j^T that of
    gamma[k, j]."""
    d_eta = np.empty((N, n, n), dtype=complex)
    d_gamma = np.empty((N, n, n, n), dtype=complex)
    for i in range(N):
        for k in range(n):
            x, A = np.zeros((N, n)), np.zeros((N, n, n))
            x[i, k] = 1.0
            d_eta[i, :, k] = pullback(x, A)
            for j in range(n):
                x, A = np.zeros((N, n)), np.zeros((N, n, n))
                A[i, k, j] = 1.0
                d_gamma[i, :, k, j] = pullback(x, A)
    return d_eta, d_gamma


@pytest.fixture(scope="module")
def random_n6m2():
    """Seeded random quadric (6, 2) whose lowest Levi eigenvalue varies with
    theta below -1, so the frame scale s^2 varies with theta too."""
    return random_quadric(6, 2, np.random.default_rng(11))


class TestDeterminantForm:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_brute_wedge_expansion(self, n, rng):
        for _ in range(10):
            eta, beta, gamma, tau = random_jets(rng, n)
            brute = brute_wedge_expansion(eta, beta, gamma, tau)
            mine = dict(zip(wedge_expansion_keys(n),
                            form_at(eta, beta, gamma, tau)))
            keys = set(brute) | set(mine)
            err = max(abs(brute.get(k, 0.0) - mine.get(k, 0.0))
                      for k in keys)
            assert err < 1e-12

    def test_single_column_case(self, rng):
        eta, beta, gamma, tau = random_jets(rng, 1)
        out = dict(zip(wedge_expansion_keys(1),
                       form_at(eta, beta, gamma, tau)))
        assert abs(out[((), (), 0)] - eta[0]) < 1e-15

    def test_degree_out_of_range(self, rng):
        def family(zeta, z, t):
            return sections.bochner_martinelli_section(zeta, z)

        zeta, z = rng.standard_normal(3) + 0j, np.zeros(3, dtype=complex)
        with pytest.raises(ValueError, match="out of range 0..2"):
            sections.closedness_check(family, zeta, z, 0.5, 3, 3)

    def test_multilinearity_in_output_jets(self, rng):
        # scaling the dzbar jets by lam scales the degree-r part by lam^r
        n = 4
        eta, beta, gamma, tau = random_jets(rng, n)
        lam = 2.0
        base = form_at(eta, beta, gamma, tau)
        scaled = form_at(eta, lam * beta, gamma, tau)
        degree = zbar_degree(n, n - 1)
        for r in range(n):
            for val, got in zip(base[degree == r], scaled[degree == r]):
                assert abs(got - lam ** r * val) < 1e-10 * max(1, abs(val))


class TestSections:
    def test_euclidean_normalization_exact(self, rng):
        # sum eta_k (zeta_k - z_k) = sum |w|^2 / |w|^2 = 1
        for n in (1, 3, 5):
            zeta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            z = zeta + rng.standard_normal(n) + 1j * rng.standard_normal(n)
            jet = sections.bochner_martinelli_section(zeta, z)
            assert normalization_defect(jet, zeta, z) < 1e-14

    def test_one_dimensional_cauchy_kernel(self):
        zeta = np.array([2.0 + 1.0j])
        z = np.array([1.0 + 0.5j])
        jet = sections.bochner_martinelli_section(zeta, z)
        assert abs(jet.value[0] - 1.0 / (zeta[0] - z[0])) < 1e-15

    def test_singularity_raises(self):
        z = np.array([1.0 + 0j, 2.0 + 0j])
        with pytest.raises(SingularityError):
            sections.bochner_martinelli_section(z, z)

    def test_euclidean_beta_is_minus_gamma(self, rng):
        # P = conj(w) and Phi = |w|^2 depend on z only through w = zeta - z,
        # so beta is formed as -gamma; the quotient rule on the z-jets
        # dP/dzbar = -I, dPhi/dzbar = -w gives the same bits
        zetas = rng.standard_normal((20, 5)) + 1j * rng.standard_normal(
            (20, 5))
        z = 0.3 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
        eta, beta, gamma, _ = sections.bochner_martinelli_jets(zetas, z)
        assert np.array_equal(beta, -gamma)
        w = zetas - z
        quotient = sections._Quotient(zetas, z, BarrierJetBatch(
            P=w.conj(), Phi=np.sum(np.abs(w) ** 2, axis=1),
            dP_dzbar=None, dP_dzetabar=np.broadcast_to(np.eye(5),
                                                       (20, 5, 5)),
            dPhi_dzbar=None, dPhi_dzetabar=w))
        assert np.array_equal(quotient.eta, eta)
        assert np.array_equal(
            quotient.over(np.broadcast_to(-np.eye(5), (20, 5, 5)), -w), beta)
        assert sections.bochner_martinelli_jets(zetas, z,
                                                with_zbar=False)[1] is None

    def test_euclidean_jets_match_finite_differences(self, rng):
        zeta = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        z = zeta + 0.7 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        jet = sections.bochner_martinelli_section(zeta, z)

        def val(zz, pz, t):
            return sections.bochner_martinelli_section(zz, pz).value

        errs = []
        for step in (1e-3, 5e-4):
            fd = fd_section_jet(val, zeta, z, 0.0, step=step)
            errs.append(max(np.max(np.abs(jet.d_zbar - fd.d_zbar)),
                            np.max(np.abs(jet.d_zetabar - fd.d_zetabar))))
        assert errs[0] < 1e-4
        assert errs[1] < 0.3 * errs[0]

    def test_barrier_normalization_many_pairs(self, primary, rng):
        worst = 0.0
        for _ in range(200):
            zp = 0.2 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
            zeta = primary.graph_point(zp, 0.1 * rng.standard_normal(1),
                                       0.01 + 0.05 * rng.random(1))
            z = primary.graph_point(0.05 * rng.standard_normal(4) + 0j,
                                    0.05 * rng.standard_normal(1))
            jet = sections.barrier_section(primary, zeta, z)
            worst = max(worst, normalization_defect(jet, zeta, z))
        assert worst < 1e-10

    def test_barrier_jets_match_finite_differences(self, primary, secondary,
                                                   repeated, rng):
        # three points on "repeated": the kept frame eigenvalues repeat
        # there, and a per-row eigenvector gauge breaks at some directions
        for model in (primary, secondary) + (repeated,) * 3:
            zp = 0.1 * (rng.standard_normal(model.tangential_dim)
                        + 1j * rng.standard_normal(model.tangential_dim))
            zeta = model.graph_point(zp, 0.05 * rng.standard_normal(model.m),
                                     0.02 + 0.01 * rng.random(model.m))
            z = np.zeros(model.n, dtype=complex)
            jet = sections.barrier_section(model, zeta, z)

            def val(zz, pz, t):
                ev = evaluate_barrier(model, zz, pz)
                return ev.P / ev.Phi

            errs = []
            for step in (2e-5, 1e-5):
                fd = fd_section_jet(val, zeta, z, 0.0, step=step)
                errs.append(max(np.max(np.abs(jet.d_zbar - fd.d_zbar)),
                                np.max(np.abs(jet.d_zetabar - fd.d_zetabar))))
            assert errs[1] < 0.3 * errs[0]

    @pytest.mark.parametrize("section", ["euclidean", "barrier"])
    @pytest.mark.parametrize("which", ["primary", "secondary", "repeated",
                                       "random_n6m2"])
    def test_mixed_jets_match_central_differences(self, which, section,
                                                  request):
        # d gamma / d zbar_l, recovered from the section pullback, the
        # zbar-gradient, by pulling back every basis adjoint at every node
        # (x = e_k with A = 0, x = 0 with A = e_k e_j^T), against central
        # Wirtinger differences in z of gamma itself, and gamma = d eta /
        # d zetabar against central Wirtinger differences in zeta of eta, at
        # two steps: the error falls as step^2 (ratio near 4), so the
        # analytic jet is the limit.  The nodes of one mc-shell chunk lie on
        # both sheets of sig22_n5, where theta is constant per sheet; for
        # m = 2 the mixed jet adds the theta-derivative of dP/dzbar, and
        # gamma the theta-derivative of the frame, also where the kept frame
        # eigenvalues repeat ("repeated") and where the ds^2 term of the
        # frame derivative acts ("random_n6m2").  The differences in z alone
        # use the same frame derivative on both sides; those in zeta do not.
        model = request.getfixturevalue(which)
        n = model.n
        zetas, z = self.chunk_nodes(model, 16)
        if model.m == 1:
            rho_vec, _ = model.defining_values(zetas)
            assert np.any(rho_vec[:, 0] > 0) and np.any(rho_vec[:, 0] < 0)

        def jets(at_zetas, at, **kw):
            if section == "euclidean":
                return sections.bochner_martinelli_jets(at_zetas, at, **kw)
            return sections.barrier_section_jets(model, at_zetas, at, **kw)

        out = jets(zetas, z)
        gamma = out[2]
        d_eta, d_gamma = pulled_back_jets(dense_pullback(out[-1], gamma),
                                          len(zetas), n)
        assert np.array_equal(d_eta, np.swapaxes(out[1], 1, 2))
        errs, errs_zeta = [], []
        for step in (1e-3, 5e-4):
            fd = np.empty_like(d_gamma)
            fd_zeta = np.empty_like(gamma)
            for l in range(n):
                g, e = [], []
                for shift in (step, -step, 1j * step, -1j * step):
                    p = z.copy()
                    p[l] += shift
                    g.append(jets(zetas, p)[2])
                    ps = zetas.copy()
                    ps[:, l] += shift
                    e.append(jets(ps, z)[0])
                fd[:, l] = 0.25 * ((g[0] - g[1]) + 1j * (g[2] - g[3])) / step
                fd_zeta[:, :, l] = 0.25 * ((e[0] - e[1])
                                           + 1j * (e[2] - e[3])) / step
            errs.append(np.max(np.abs(fd - d_gamma)))
            errs_zeta.append(np.max(np.abs(fd_zeta - gamma)))
        assert 3.5 < errs[0] / errs[1] < 4.5
        assert 3.5 < errs_zeta[0] / errs_zeta[1] < 4.5

    @pytest.mark.parametrize("section", ["euclidean", "barrier"])
    @pytest.mark.parametrize("which", ["primary", "secondary", "repeated",
                                       "random_n6m2"])
    def test_pullback_matches_tensor_contraction(self, which, section,
                                                 request):
        # random adjoints (x, A) over the section jets of a block of nodes,
        # pulled back along random complex directions, against the
        # contraction of the mixed-jet tensors of tests/oracles.py built over
        # more nodes; only the association of the sums differs, so the gap
        # is rounding
        model = request.getfixturevalue(which)
        rng = np.random.default_rng(17)
        zetas, z = self.chunk_nodes(model, 64)
        V = rng.standard_normal((3, model.n)) \
            + 1j * rng.standard_normal((3, model.n))
        blk = slice(8, 40)
        if section == "euclidean":
            out = sections.bochner_martinelli_jets(zetas[blk], z)
            tensors = euclidean_mixed_jets(zetas, z, V)
        else:
            out = sections.barrier_section_jets(model, zetas[blk], z)
            tensors = barrier_mixed_jets(model, zetas, z, V)
        pullback = dense_pullback(out[-1], out[2])
        for _ in range(3):
            x = rng.standard_normal((32, model.n)) \
                + 1j * rng.standard_normal((32, model.n))
            A = rng.standard_normal((32, model.n, model.n)) \
                + 1j * rng.standard_normal((32, model.n, model.n))
            want = contract_mixed_jets(*(t[blk] for t in tensors), x, A)
            got = V @ pullback(x, A)
            assert np.max(np.abs(got - want)) \
                <= 1e-13 * np.max(np.abs(want))

    @staticmethod
    def chunk_nodes(model, count):
        """The first ``count`` nodes of one mc-shell chunk around a point
        near the origin, and that point."""
        from crhomotopy.quadrature import QuadratureGrid
        z = model.graph_point(np.array([0.05, -0.03, 0.02, 0.0]),
                              0.01 * np.ones(model.m))
        zp, w = model.split(z)
        grid = QuadratureGrid(model=model, epsilon=0.1, budget=64, seed=3,
                              center_zp=zp, center_u=w.real)
        return next(grid.chunks()).zeta[:count], z

    def test_near_singular_phase_raises(self, primary):
        # zeta on the manifold would make the direction field undefined;
        # a tiny level with a large offset drives the phase toward zero
        from crhomotopy.errors import ThetaUndefinedError
        z = np.zeros(5, dtype=complex)
        with pytest.raises((NearSingularPhaseError, ThetaUndefinedError)):
            sections.barrier_section(primary, z, z)

    def test_combined_endpoints_and_normalization(self, primary, rng):
        zeta = primary.graph_point(0.1 * np.ones(4) + 0j, np.zeros(1),
                                   np.array([0.02]))
        z = np.zeros(5, dtype=complex)
        s1 = sections.bochner_martinelli_section(zeta, z)
        s2 = sections.barrier_section(primary, zeta, z)
        at0 = sections.combined_section(s1, s2, 0.0)
        at1 = sections.combined_section(s1, s2, 1.0)
        assert np.allclose(at0.value, s1.value)
        assert np.allclose(at1.value, s2.value)
        mid = sections.combined_section(s1, s2, 0.37)
        assert normalization_defect(mid, zeta, z) < 1e-12
        # parameter jet equals the section difference
        assert np.allclose(mid.d_t, s2.value - s1.value)

    def test_combined_parameter_jet_finite_difference(self, primary):
        zeta = primary.graph_point(0.1 * np.ones(4) + 0j, np.zeros(1),
                                   np.array([0.02]))
        z = np.zeros(5, dtype=complex)
        s1 = sections.bochner_martinelli_section(zeta, z)
        s2 = sections.barrier_section(primary, zeta, z)
        h = 1e-6
        va = sections.combined_section(s1, s2, 0.4 + h).value
        vb = sections.combined_section(s1, s2, 0.4 - h).value
        fd = (va - vb) / (2 * h)
        assert np.max(np.abs(fd - sections.combined_section(s1, s2, 0.4).d_t)) < 1e-9


class TestClosedness:
    def test_euclidean_section_second_order(self, rng):
        def family(zeta, z, t):
            return sections.bochner_martinelli_section(zeta, z)

        for n in (3, 5):
            zeta = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            z = zeta + 0.5 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
            for r in (0, 1):
                rep = sections.closedness_check(family, zeta, z, 0.5, r, n,
                                                step=1e-3)
                assert rep.order >= 1.7 or rep.order == np.inf

    def test_combined_section_second_order(self, primary, small_n3):
        for model in (small_n3, primary):
            def family(zeta, z, t, _m=model):
                return sections.combined_section(
                    sections.bochner_martinelli_section(zeta, z),
                    sections.barrier_section(_m, zeta, z), t)

            d = model.tangential_dim
            zeta = model.graph_point(0.06 * np.arange(1, d + 1) + 0.01j,
                                     np.array([0.02]), np.array([0.04]))
            z = np.zeros(model.n, dtype=complex)
            for r in (0, 1):
                rep = sections.closedness_check(family, zeta, z, 0.37, r,
                                                model.n, step=5e-4)
                assert rep.order >= 1.7, (model.name, r, rep)

    def test_degree_zero_has_no_output_term(self, rng):
        # at degree zero only the parameter and zeta differentials enter:
        # the dzbar wedge of d W lands in rows of degree one and up
        def family(zeta, z, t):
            return sections.bochner_martinelli_section(zeta, z)

        zeta = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        z = zeta + np.array([1.0, 0, 0])
        rep = sections.closedness_check(family, zeta, z, 0.2, 0, 3, step=1e-3)
        assert np.isfinite(rep.residual)


class TestSphereReproduction:
    def test_constant_reproduced_on_sphere(self, rng):
        # end-to-end calibration of the reproduction constant and the
        # surface orientation at n = 2
        from math import factorial, gamma as gamma_fn, pi
        from crhomotopy.sections import bochner_martinelli_jets as _bm_jets
        n, N = 2, 120000
        z = np.array([0.1 + 0.05j, -0.2 + 0.1j])
        x = rng.standard_normal((N, 2 * n))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        zeta = x[:, 0::2] + 1j * x[:, 1::2]
        area = 2 * pi ** n / gamma_fn(n)
        weight = area / N
        vel = np.zeros((N, n, 2 * n - 1), dtype=complex)
        orient = np.zeros(N)
        block_sign = (-1.0) ** (n * (n - 1) // 2)
        for i in range(N):
            full = np.concatenate([x[i][:, None], np.eye(2 * n)], axis=1)
            q, _ = np.linalg.qr(full)
            tang = q[:, 1:2 * n]
            vel[i] = tang[0::2] + 1j * tang[1::2]
            orient[i] = block_sign * np.sign(np.linalg.det(
                np.concatenate([x[i][:, None], tang], axis=1)))
        eta, beta, gamma, _ = _bm_jets(zeta, z)
        coef = dense_coefficients(eta, beta, gamma, None, 0)
        table = contraction_table(n, 0)
        dets = np.empty((N, n), dtype=complex)
        for k in range(n):
            keep = [l for l in range(n) if l != k]
            mat = np.concatenate([vel.conj()[:, keep, :], vel], axis=1)
            dets[:, k] = np.linalg.det(mat)
        val = np.zeros(N, dtype=complex)
        for k, j_idx, m_idx, sgn in table:
            val += sgn * coef[:, 0, m_idx] * dets[:, k]
        total = np.sum(val * weight * orient)
        result = factorial(n - 1) / (2j * np.pi) ** n * total
        assert abs(result - 1.0) < 0.02


class TestNormalizationSweep:
    def test_matches_single_point_loop(self, primary, secondary):
        # audit-kernels' batched sweep against the per-sample loop, bit for
        # bit, on both bundled models at two seeds
        from crhomotopy import cli
        for model in (primary, secondary):
            z = cli._test_points(model)[0]
            for seed in (0, 5):
                zetas, ts = cli._kernel_samples(model, 150, seed)
                worst = float(np.max(sections.normalization_defects(
                    model, zetas, z, ts)))
                assert worst == normalization_worst_loop(model, z, 150, seed)

    def test_near_singular_sample_raises(self, primary):
        # z and every zeta share the level 0.01, so Re Phi reduces to the
        # Levi and correction terms, O(|w|^2): a zeta 1e-9 away has a phase
        # near 1e-18, below PHASE_TOL, while the other samples are regular
        level = 0.01 * np.ones(1)
        zp = 0.05 * np.ones(4) + 0j
        z = primary.graph_point(zp, np.zeros(1), level)
        offsets = np.array([0.1, 0.2, 1e-9, 0.15])
        zetas = primary.graph_point(zp + offsets[:, None], np.zeros((4, 1)),
                                    level)
        t = np.full(4, 0.5)
        with pytest.raises(NearSingularPhaseError):
            sections.normalization_defects(primary, zetas, z, t)
        regular = sections.normalization_defects(
            primary, zetas[[0, 1, 3]], z, t[:3])
        assert regular.shape == (3, 3)
        assert np.max(regular) < 1e-10
