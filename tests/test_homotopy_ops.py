import json

import numpy as np
import pytest

from crhomotopy import fields, geometry, homotopy, quadrature
from crhomotopy._util import index_combinations, small_det
from crhomotopy.errors import CoverError, GridTooCoarseError, OutsideTubeError
from crhomotopy.fields import (BumpChart, CutoffPair, FormField, PolyChart,
                               ProductChart, ZeroChart, bundled_test_form,
                               extend_gradient_flow, extend_graph,
                               gradient_flow_projection, make_cutoff_pair,
                               project_tangential, tangential_dbar_values)
from crhomotopy.homotopy import (apply_operator, apply_operator_multi,
                                 glue_obstruction, glue_solution,
                                 identity_residual)
from crhomotopy.quadrature import QuadratureGrid
from crhomotopy.sections import barrier_section_jets, bochner_martinelli_jets
from oracles import (contraction_table, dense_coefficients, dense_det9,
                     dense_orientation_and_jacobian, row_contraction)


def centered_grid(model, z, eps=0.1, budget=3000, seed=7, **kw):
    zp, w = model.split(np.asarray(z, dtype=complex))
    return QuadratureGrid(model=model, epsilon=eps, budget=budget,
                          mode="mc-shell", seed=seed, center_zp=zp,
                          center_u=w.real, **kw)


def oracle_node_geometry(grid, chunk):
    """Dense oriented minors and surface factors of a chunk, ((N, n), (N,))."""
    orient, jac = dense_orientation_and_jacobian(
        chunk.rho_vec / grid.epsilon, chunk.velocity)
    return orient[:, None] * dense_det9(chunk.velocity), jac


def assert_node_geometry_matches_oracle(grid, chunk):
    """Closed-form oriented minors and surface factors agree with the dense
    determinants to 1e-12 of each node's largest minor and of its factor."""
    ref, jac = oracle_node_geometry(grid, chunk)
    got = homotopy._det9_blocks(chunk.conormal)
    err = np.max(np.abs(got - ref), axis=1) / np.max(np.abs(ref), axis=1)
    assert np.max(err) < 1e-12
    assert np.max(np.abs(chunk.surface_jac - jac) / jac) < 1e-12


def random_quadric(n, m, rng):
    d = n - m
    mats = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for _ in range(m)]
    return geometry.ManifoldModel(n=n, m=m, q=1,
                                  hermitian=[(a + a.conj().T) / 2 for a in mats])


def assert_sphere_tangent_basis(sigma, tang):
    """Columns of tang are orthonormal and orthogonal to sigma, per node."""
    gram = np.einsum("Nia,Nib->Nab", tang, tang)
    assert np.max(np.abs(gram - np.eye(tang.shape[2]))) < 1e-14
    assert np.max(np.abs(np.einsum("Ni,Nia->Na", sigma, tang))) < 1e-14


class TestExtension:
    def test_restriction_identity(self, primary, rng):
        f = bundled_test_form(primary)
        ext = extend_graph(primary, f)
        z = primary.graph_point(
            0.2 * (rng.standard_normal(4) + 1j * rng.standard_normal(4)),
            0.1 * rng.standard_normal(1))
        assert np.allclose(f.values(primary, z[None, :]),
                           ext.values(primary, z[None, :]))

    def test_constant_along_defining_coordinates(self, primary, rng):
        f = bundled_test_form(primary)
        ext = extend_graph(primary, f)
        z = primary.graph_point(0.1 * np.ones(4) + 0j, np.zeros(1))
        step = 1e-4
        up = z.copy(); up[4] += 1j * step      # moves the level only
        dn = z.copy(); dn[4] -= 1j * step
        diff = ext.values(primary, up[None, :]) - ext.values(primary, dn[None, :])
        assert np.max(np.abs(diff)) < 1e-14

    def test_chart_coefficients_are_fixed_points(self, primary, rng):
        f = bundled_test_form(primary)
        z_off = primary.graph_point(0.1 * np.ones(4) + 0j, np.zeros(1),
                                    np.array([0.07]))
        ext = extend_graph(primary, f)
        assert np.allclose(f.values(primary, z_off[None, :]),
                           ext.values(primary, z_off[None, :]))

    def test_gradient_flow_projection_lands_on_manifold(self, primary, rng):
        z_off = primary.graph_point(
            0.3 * (rng.standard_normal(4) + 1j * rng.standard_normal(4)),
            0.2 * rng.standard_normal(1), np.array([0.09]))
        proj = gradient_flow_projection(primary, z_off)
        _, rho = primary.defining_values(proj)
        assert rho < 1e-10

    def test_two_extensions_agree_on_manifold(self, primary, rng):
        f = bundled_test_form(primary)
        ga = extend_graph(primary, f)
        gb = extend_gradient_flow(primary, f)
        z = primary.graph_point(0.15 * np.ones(4) + 0j, np.zeros(1))
        assert np.allclose(ga.values(primary, z[None, :]),
                           gb.values(primary, z[None, :]), atol=1e-10)


class TestProjection:
    def test_idempotent(self, primary, rng):
        z = primary.graph_point(0.2 * np.ones(4) + 0.1j, np.zeros(1))
        vals = rng.standard_normal((1, 5)) + 1j * rng.standard_normal((1, 5))
        once = project_tangential(primary, vals, z[None, :], 1)
        twice = project_tangential(primary, once, z[None, :], 1)
        assert np.max(np.abs(once - twice)) < 1e-10

    def test_kills_conjugate_normal_content(self, primary, rng):
        z = primary.graph_point(0.2 * np.ones(4) + 0.1j, np.zeros(1))
        # covector proportional to the conjugate defining differential
        normal = primary.holo_gradients(z)[0].conj()
        out = project_tangential(primary, normal[None, :], z[None, :], 1)
        assert np.max(np.abs(out)) < 1e-10
        # and wedges of it in degree two
        vals2 = np.zeros((1, len(index_combinations(5, 2))), dtype=complex)
        from crhomotopy.fields import wedge_covector_values
        other = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        vals2 = wedge_covector_values(5, 1, normal[None, :], other[None, :])
        out2 = project_tangential(primary, vals2, z[None, :], 2)
        assert np.max(np.abs(out2)) < 1e-10

    def test_degree_zero_identity(self, primary):
        z = np.zeros(5, dtype=complex)
        vals = np.array([3.5 + 1j])
        assert np.allclose(project_tangential(primary, vals, z, 0), vals)


class TestTangentialDbar:
    def test_constant_function_killed(self, primary):
        const = FormField(n=5, degree=0, components=[PolyChart(
            (4, 1), [(2.0, np.zeros(4), np.zeros(4), np.zeros(1))])])
        z = primary.graph_point(0.1 * np.ones(4) + 0j, np.zeros(1))
        out = tangential_dbar_values(primary, const, z[None, :])
        assert np.max(np.abs(out)) < 1e-14

    def test_cr_function_killed(self, primary):
        # restriction of the holomorphic coordinate w_1: u + i h(z')
        h_terms = []
        H = primary.hermitian[0]
        for i in range(4):
            for j in range(4):
                if H[i, j] != 0:
                    h_terms.append((1j * H[i, j], np.eye(1, 4, j)[0],
                                    np.eye(1, 4, i)[0], np.zeros(1)))
        h_terms.append((1.0, np.zeros(4), np.zeros(4), np.ones(1)))
        w1 = FormField(n=5, degree=0,
                       components=[PolyChart((4, 1), h_terms)])
        rng = np.random.default_rng(3)
        for _ in range(10):
            z = primary.graph_point(
                0.3 * (rng.standard_normal(4) + 1j * rng.standard_normal(4)),
                0.2 * rng.standard_normal(1))
            out = tangential_dbar_values(primary, w1, z[None, :])
            assert np.max(np.abs(out)) < 1e-12

    def test_square_vanishes_to_fd_tolerance(self, primary):
        f = bundled_test_form(primary)
        from crhomotopy.fields import tangential_dbar_field
        df = tangential_dbar_field(primary, f)
        z = primary.graph_point(0.12 * np.ones(4) + 0j, np.zeros(1))
        # the lazy fields evaluate to the arrays they wrap
        assert np.array_equal(df.values(primary, z[None, :]),
                              tangential_dbar_values(primary, f, z[None, :]))
        assert np.array_equal(f.dbar_field(primary).values(primary, z[None, :]),
                              f.dbar_values(primary, z[None, :]))

        # second differential by finite differences of the first
        def df_vals(pts):
            return tangential_dbar_values(primary, f, pts)

        step = 1e-5
        n = 5
        out_combos = index_combinations(n, 3)
        acc = np.zeros(len(out_combos), dtype=complex)
        from crhomotopy._util import insert_index
        pos = {c: i for i, c in enumerate(out_combos)}
        base_combos = index_combinations(n, 2)
        for l in range(n):
            px = z.copy(); px[l] += step
            mx = z.copy(); mx[l] -= step
            py = z.copy(); py[l] += 1j * step
            my = z.copy(); my[l] -= 1j * step
            vals = [df_vals(p[None, :])[0] for p in (px, mx, py, my)]
            fx = (vals[0] - vals[1]) / (2 * step)
            fy = (vals[2] - vals[3]) / (2 * step)
            dbar_l = 0.5 * (fx + 1j * fy)
            for ci, J in enumerate(base_combos):
                sign, merged = insert_index(l, J)
                if sign:
                    acc[pos[merged]] += sign * dbar_l[ci]
        proj = project_tangential(primary, acc[None, :], z[None, :], 3)
        scale = max(1.0, float(np.max(np.abs(df_vals(z[None, :])))))
        assert np.max(np.abs(proj)) < 1e-3 * scale


class TestLazyField:
    def test_values_call_the_array_function_once(self, primary):
        f = bundled_test_form(primary)
        calls = []

        def counted(z):
            calls.append(z.shape)
            return f.dbar_values(primary, z)

        lazy = fields.lazy_field(primary.n, 2, counted, "cutoff")
        z = primary.graph_point(
            0.1 * np.stack([np.ones(4), -np.ones(4)]).astype(complex),
            np.zeros((2, 1)))
        vals = lazy.values(primary, z)
        assert calls == [(2, 5)]
        # the same array as the columns read one by one
        assert np.array_equal(
            vals, np.stack([c.value(primary, z) for c in lazy.components],
                           axis=-1))
        assert np.array_equal(vals, f.dbar_values(primary, z))


class TestScalarDbar:
    def test_conjugate_frame_derivative_matches_analytic(self, primary):
        # dbar_M of an evaluable scalar via frame finite differences agrees
        # with the analytic ambient route for a chart polynomial
        from crhomotopy.homotopy import tangential_dbar_scalar
        poly = PolyChart((4, 1), [
            (1.0, np.eye(1, 4, 0)[0], np.eye(1, 4, 1)[0], np.zeros(1)),
            (0.5j, np.zeros(4), np.eye(1, 4, 2)[0], np.ones(1)),
        ])
        field = FormField(n=5, degree=0, components=[poly])
        z = primary.graph_point(np.array([0.1, -0.05, 0.2, 0.08]) + 0.03j,
                                np.array([0.04]))
        fd = tangential_dbar_scalar(
            primary, lambda p: complex(poly.value(primary, p)), z, step=1e-5)
        ambient = tangential_dbar_values(primary, field, z[None, :])[0]
        from crhomotopy.fields import tangential_components
        tan = tangential_components(primary, ambient[None, :], z[None, :], 1)[0]
        assert np.max(np.abs(fd - tan)) < 1e-8


class TestAnalyticDbar:
    """The analytic conjugate-frame derivative of R_1 f against the
    finite-difference stencil on the same node stream: the stencil error
    falls as step^2, so |stencil(h) - analytic| / |stencil(h/2) - analytic|
    is near 4 when the analytic value is the stencil's limit."""

    @staticmethod
    def error_ratio(analytic, stencil_at, step=2e-4):
        errs = [np.max(np.abs(stencil_at(h) - analytic)) for h in (step,
                                                                    step / 2)]
        return errs[0] / errs[1]

    @pytest.mark.parametrize("zp,u", [
        ([0.05, -0.03, 0.02, 0.0], 0.01),            # acceptance point 0
        ([0.0, 0.06j, -0.04, 0.02 + 0.02j], 0.03),   # acceptance point 2
    ])
    def test_matches_stencil_on_acceptance_points(self, primary, zp, u):
        from crhomotopy.homotopy import (assemble_conjugate_frame_derivative,
                                         conjugate_frame_stencil)
        f = bundled_test_form(primary)
        z = primary.graph_point(np.array(zp, dtype=complex), np.array([u]))
        grid = centered_grid(primary, z, eps=0.1, budget=10_000, seed=11,
                             box_radius=0.8)
        res, = apply_operator_multi(
            primary, [f], [z], grid,
            _frames=[fields.conjugate_frame_rows(primary, z)])

        def stencil_at(h):
            vals = apply_operator_multi(primary, f,
                                        conjugate_frame_stencil(primary, z, h),
                                        grid)
            return assemble_conjugate_frame_derivative(
                [complex(v.ambient[0]) for v in vals], 4, h)

        assert 3.5 <= self.error_ratio(res.dbar, stencil_at) <= 4.5

    def test_matches_tangential_dbar_scalar_codim_two(self, secondary):
        from crhomotopy.homotopy import tangential_dbar_scalar
        f = bundled_test_form(secondary)
        z = secondary.graph_point(np.array([0.05, -0.03, 0.02, 0.0]),
                                  np.array([0.01, 0.01]))
        grid = centered_grid(secondary, z, eps=0.1, budget=1000, seed=11,
                             box_radius=0.8)
        res, = apply_operator_multi(
            secondary, [f], [z], grid,
            _frames=[fields.conjugate_frame_rows(secondary, z)])

        def stencil_at(h):
            return tangential_dbar_scalar(
                secondary,
                lambda p: complex(apply_operator(secondary, f, p,
                                                 grid).ambient[0]),
                z, step=h)

        assert 3.5 <= self.error_ratio(res.dbar, stencil_at) <= 4.5


class TestGrid:
    def test_nodes_on_level_set_exactly(self, primary):
        grid = centered_grid(primary, np.zeros(5, dtype=complex))
        for chunk in grid.chunks():
            _, rho = primary.defining_values(chunk.zeta)
            assert np.max(np.abs(rho - grid.epsilon)) < 1e-12
            break

    def test_outside_tube_rejected(self, primary):
        with pytest.raises(OutsideTubeError):
            QuadratureGrid(model=primary, epsilon=0.9, budget=100)

    def test_gauss_legendre_exactness(self):
        # the solution t-integrand has degree n - 2 (its eta column does not
        # depend on t); the default node count integrates t^(n-2) exactly
        for n in range(3, 8):
            flat = geometry.ManifoldModel(
                n=n, m=1, q=1, hermitian=[np.zeros((n - 1, n - 1))])
            grid = QuadratureGrid(model=flat, epsilon=0.1, budget=10)
            assert grid.t_count == n // 2
            val = np.sum(grid.t_weights * grid.t_nodes ** (n - 2))
            assert abs(val - 1.0 / (n - 1)) < 1e-14

    def test_uniform_weights_recover_box_volume(self, primary):
        grid = QuadratureGrid(model=primary, epsilon=0.1, budget=5000,
                              mode="mc-uniform", seed=1, box_radius=0.3)
        total = 0.0
        for chunk in grid.chunks():
            total += float(np.sum(chunk.weight))
        box_vol = (2 * 0.3) ** grid.param_dim * 2.0  # two sheets
        assert abs(total - box_vol) < 1e-9

    def test_flat_model_surface_area(self):
        # zero Hermitian form: the level sheets are flat, the surface factor
        # is one, so the measured area equals the parameter box area
        flat = geometry.ManifoldModel(n=3, m=1, q=1,
                                      hermitian=[np.zeros((2, 2))])
        grid = QuadratureGrid(model=flat, epsilon=0.1, budget=4000,
                              mode="mc-uniform", seed=2, box_radius=0.4)
        total = 0.0
        for chunk in grid.chunks():
            assert np.max(np.abs(chunk.surface_jac - 1.0)) < 1e-12
            total += float(np.sum(chunk.weight * chunk.surface_jac))
        assert abs(total - (2 * 0.4) ** 5 * 2) < 1e-9

    def test_shell_and_uniform_samplers_agree(self, primary):
        bump = BumpChart(np.zeros(4), np.zeros(1), 0.25, 0.45)

        def integral(grid):
            total = 0.0
            for chunk in grid.chunks():
                v = bump.value(primary, chunk.zeta).real
                total += float(np.sum(v * chunk.weight * chunk.surface_jac))
            return total

        uni = QuadratureGrid(model=primary, epsilon=0.1, budget=400000,
                             mode="mc-uniform", seed=1, box_radius=0.46)
        she = QuadratureGrid(model=primary, epsilon=0.1, budget=400000,
                             mode="mc-shell", seed=1, box_radius=0.7)
        a, b = integral(uni), integral(she)
        assert abs(a - b) < 0.08 * max(abs(a), abs(b))

    def test_cache_header_roundtrip(self, primary, tmp_path):
        grid = centered_grid(primary, np.zeros(5, dtype=complex))
        path = tmp_path / "grid.json"
        grid.save(path)
        loaded = QuadratureGrid.load(path, primary)
        assert loaded.header() == grid.header()

    def test_cache_rejects_other_model(self, primary, secondary, tmp_path):
        grid = centered_grid(primary, np.zeros(5, dtype=complex))
        path = tmp_path / "grid.json"
        grid.save(path)
        with pytest.raises(ValueError, match="different model"):
            QuadratureGrid.load(path, secondary)
        # an unknown sampling mode fails when the grid is built, before the
        # first chunk
        head = grid.header()
        head["mode"] = "tensor"
        path.write_text(json.dumps(head))
        with pytest.raises(ValueError, match="unknown sampling mode 'tensor'"):
            QuadratureGrid.load(path, primary)

    def test_dense_determinant_factorization(self, primary):
        # the dt row contributes exactly (-1)^n relative to the reduced
        # block determinant
        grid = centered_grid(primary, np.zeros(5, dtype=complex), budget=64)
        chunk = next(grid.chunks())
        det9 = dense_det9(chunk.velocity)
        n = primary.n
        i = 11
        for k in (0, 3):
            keep = [l for l in range(n) if l != k]
            size = 2 * n
            mat = np.zeros((size, size), dtype=complex)
            for j in range(2 * n - 1):
                c = chunk.velocity[i][:, j]
                for ri, l in enumerate(keep):
                    mat[ri, j] = np.conj(c[l])
                for ii in range(n):
                    mat[n + ii, j] = c[ii]
            mat[n - 1, 2 * n - 1] = 1.0
            dense = np.linalg.det(mat)
            assert abs(dense - (-1) ** n * det9[i, k]) < 1e-10 * abs(dense)

    @pytest.mark.parametrize("which", [
        "primary", "secondary", "flat", "3-1", "4-1", "4-2", "5-2", "6-3",
        "7-1", "7-4"])
    def test_node_geometry_matches_dense_oracle(self, which, request, rng):
        # the bundled models, the flat model and seeded random Hermitian
        # quadrics of shape n-m; m = 1 nodes lie on both sheets
        if which in ("primary", "secondary"):
            model = request.getfixturevalue(which)
        elif which == "flat":
            model = geometry.ManifoldModel(n=3, m=1, q=1,
                                           hermitian=[np.zeros((2, 2))])
        else:
            model = random_quadric(*map(int, which.split("-")), rng)
        grid = QuadratureGrid(model=model, epsilon=0.1, budget=600, seed=3)
        chunk = next(grid.chunks())
        if model.m == 1:
            assert set(np.sign(chunk.rho_vec[:, 0])) == {-1.0, 1.0}
        assert_node_geometry_matches_oracle(grid, chunk)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_sphere_tangent_basis_orthonormal(self, m, rng):
        sigma = rng.standard_normal((50, m))
        sigma /= np.linalg.norm(sigma, axis=1, keepdims=True)
        tang = quadrature._sphere_tangent_basis(sigma)
        assert tang.shape == (50, m, m - 1)
        assert_sphere_tangent_basis(sigma, tang)

    def test_codimension_four_chunk(self):
        # n = 7, m = 4, q = 1: the sphere factor is S^3 and the tangent
        # basis comes from the stacked QR
        model = geometry.ManifoldModel(n=7, m=4, q=1, hermitian=[
            np.diag([1.0, -1.0, 1.0]), np.diag([1.0, 1.0, -1.0]),
            np.diag([-1.0, 1.0, 1.0]), np.diag([1.0, -1.0, -1.0])])
        grid = QuadratureGrid(model=model, epsilon=0.1, budget=500, seed=3)
        chunk = next(grid.chunks())
        d, m = model.tangential_dim, model.m
        assert np.all(np.isfinite(chunk.weight)) and np.all(chunk.weight > 0)
        assert_node_geometry_matches_oracle(grid, chunk)
        # the sphere velocity columns are i eps times the tangent basis
        tang = chunk.velocity[:, d:, 2 * d + m:].imag / grid.epsilon
        assert_sphere_tangent_basis(chunk.rho_vec / grid.epsilon, tang)


class TestSmallDet:
    @pytest.mark.parametrize("k", range(8))
    def test_matches_lapack(self, k, rng):
        m = (rng.standard_normal((3, 40, k, k))
             + 1j * rng.standard_normal((3, 40, k, k)))
        ref = np.linalg.det(m)
        got = small_det(m)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestOperators:
    def test_zero_form_gives_zero(self, primary):
        zero = FormField(n=5, degree=1, components=[ZeroChart()] * 5)
        z = np.zeros(5, dtype=complex)
        grid = centered_grid(primary, z, budget=500)
        res = apply_operator(primary, zero, z, grid, kind="solution")
        assert np.max(np.abs(res.ambient)) == 0.0

    def test_linearity_on_shared_grid(self, primary):
        f = bundled_test_form(primary)
        comps = [ZeroChart() for _ in range(5)]
        comps[1] = ProductChart(
            PolyChart((4, 1), [(0.5, np.zeros(4), np.zeros(4), np.zeros(1))]),
            BumpChart(np.zeros(4), np.zeros(1), 0.25, 0.45))
        g = FormField(n=5, degree=1, components=comps)
        combo = FormField(n=5, degree=1, components=[
            fields.SumChart(fields.ScaledChart(a, 2.0), b)
            for a, b in zip(f.components, g.components)])
        z = primary.graph_point(np.array([0.05, -0.03, 0.02, 0.0]),
                                np.array([0.01]))
        grid = centered_grid(primary, z, budget=2000)
        rf = apply_operator(primary, f, z, grid).ambient
        rg = apply_operator(primary, g, z, grid).ambient
        rc = apply_operator(primary, combo, z, grid).ambient
        assert np.max(np.abs(rc - (2.0 * rf + rg))) < 1e-12 * max(
            1.0, np.max(np.abs(rc)))

    def test_obstruction_vanishes_pointwise(self, primary):
        f = bundled_test_form(primary)
        z = primary.graph_point(np.array([0.05, -0.03, 0.02, 0.0]),
                                np.array([0.01]))
        grid = centered_grid(primary, z, budget=2000)
        res = apply_operator(primary, f, z, grid, kind="obstruction")
        assert np.max(np.abs(res.ambient)) < 1e-20

    def test_obstruction_vanishes_with_varying_frames(self, secondary):
        # codimension two: the direction field and the frame genuinely vary
        # over the level set, and the kernel still degenerates pointwise
        f = bundled_test_form(secondary)
        z = secondary.graph_point(np.array([0.05, -0.03, 0.02, 0.0]),
                                  np.array([0.01, -0.01]))
        zp, w0 = secondary.split(z)
        grid = QuadratureGrid(model=secondary, epsilon=0.08, budget=2000,
                              mode="mc-shell", seed=5, center_zp=zp,
                              center_u=w0.real)
        res = apply_operator(secondary, f, z, grid, kind="obstruction")
        assert np.max(np.abs(res.ambient)) < 1e-12

    @pytest.mark.parametrize("kind", ["solution", "obstruction"])
    def test_tangent_sign_is_a_gauge(self, secondary, kind, monkeypatch):
        # a flipped sphere tangent column flips the orientation sign and the
        # per-node determinants together, so the operator does not move
        f = bundled_test_form(secondary)
        z = secondary.graph_point(np.array([0.05, -0.03, 0.02, 0.0]),
                                  np.array([0.01, -0.01]))
        grid = centered_grid(secondary, z, budget=1000)
        base = apply_operator(secondary, f, z, grid, kind=kind).ambient
        basis = quadrature._sphere_tangent_basis
        monkeypatch.setattr(quadrature, "_sphere_tangent_basis",
                            lambda sigma: -basis(sigma))
        flipped = apply_operator(secondary, f, z, grid, kind=kind).ambient
        assert np.max(np.abs(flipped - base)) <= 1e-12 * np.max(np.abs(base))

    def test_determinism_bit_identical(self, primary):
        f = bundled_test_form(primary)
        z = primary.graph_point(np.array([0.05, -0.03, 0.02, 0.0]),
                                np.array([0.01]))
        grid = centered_grid(primary, z, budget=2000)
        a = apply_operator(primary, f, z, grid).ambient
        b = apply_operator(primary, f, z, grid).ambient
        assert np.array_equal(a, b)

    def test_multi_matches_single(self, primary):
        f = bundled_test_form(primary)
        z1 = primary.graph_point(np.array([0.05, -0.03, 0.02, 0.0]),
                                 np.array([0.01]))
        z2 = primary.graph_point(np.array([-0.02, 0.04, 0.0, 0.03]),
                                 np.array([-0.02]))
        grid = centered_grid(primary, z1, budget=1500)
        multi = apply_operator_multi(primary, f, [z1, z2], grid)
        single1 = apply_operator(primary, f, z1, grid)
        single2 = apply_operator(primary, f, z2, grid)
        assert np.array_equal(multi[0].ambient, single1.ambient)
        assert np.array_equal(multi[1].ambient, single2.ambient)


    def test_multi_field_matches_separate_calls(self, primary):
        # fields of different degrees share one pass over the node stream,
        # with the same bits as one call per point
        f = bundled_test_form(primary)
        df = f.dbar_field(primary)
        z1 = primary.graph_point(np.array([0.05, -0.03, 0.02, 0.0]),
                                 np.array([0.01]))
        z2 = primary.graph_point(np.array([-0.02, 0.04, 0.0, 0.03]),
                                 np.array([-0.02]))
        grid = centered_grid(primary, z1, budget=1500)
        pairs = [(f, z1), (df, z1), (f, z2)]
        multi = apply_operator_multi(primary, [g for g, _ in pairs],
                                     [z for _, z in pairs], grid)
        for res, (g, z) in zip(multi, pairs):
            single = apply_operator(primary, g, z, grid)
            assert res.degree == single.degree == g.degree - 1
            assert np.array_equal(res.ambient, single.ambient)
        with pytest.raises(ValueError, match="one field per"):
            apply_operator_multi(primary, [f], [z1, z2], grid)

    def test_identity_residual_makes_one_stream_pass(self, primary,
                                                     monkeypatch):
        passes = []
        chunks = QuadratureGrid.chunks

        def counted(grid):
            passes.append(grid.seed)
            return chunks(grid)

        monkeypatch.setattr(QuadratureGrid, "chunks", counted)
        f = bundled_test_form(primary)
        z = primary.graph_point(np.array([0.05, -0.03, 0.02, 0.0]),
                                np.array([0.01]))
        row, = identity_residual(primary, f, [z], epsilon=0.1, budget=500,
                                 seed=3)
        assert passes == [3]
        assert (row.rejected, row.total_nodes) == (0, 500)

    @pytest.mark.parametrize("which", ["primary", "secondary"])
    def test_default_t_rule_is_exact(self, which, request):
        # the solution t-integrand has degree n - 2, so n // 2 Gauss nodes
        # agree with six nodes to round-off, for degree-1 and degree-2 input
        model = request.getfixturevalue(which)
        f = bundled_test_form(model)
        z = model.graph_point(np.array([0.05, -0.03, 0.02, 0.0]),
                              0.01 * np.ones(model.m))
        pair = [f, f.dbar_field(model)]
        default = apply_operator_multi(model, pair, [z, z],
                                       centered_grid(model, z))
        six = apply_operator_multi(model, pair, [z, z],
                                   centered_grid(model, z, t_count=6))
        for a, b in zip(default, six):
            scale = np.max(np.abs(b.ambient))
            assert np.max(np.abs(a.ambient - b.ambient)) < 1e-13 * scale

    def test_one_node_fewer_is_not_exact(self, secondary):
        # n = 6: the degree-4 integrand needs 3 nodes; 2 integrate only up
        # to degree 3, so the degree count is tight
        f = bundled_test_form(secondary)
        z = secondary.graph_point(np.array([0.05, -0.03, 0.02, 0.0]),
                                  np.array([0.01, 0.01]))
        exact = apply_operator(secondary, f, z, centered_grid(secondary, z))
        short = apply_operator(secondary, f, z,
                               centered_grid(secondary, z, t_count=2))
        scale = np.max(np.abs(exact.ambient))
        assert np.max(np.abs(short.ambient - exact.ambient)) > 1e-6 * scale

    @pytest.mark.parametrize("kind", ["solution", "obstruction"])
    @pytest.mark.parametrize("which", ["primary", "secondary"])
    def test_folded_weights_match_row_contraction(self, which, kind, request,
                                                  rng):
        # the per-chunk weights W give the chunk totals of the per-row
        # sign-table contraction of the dense coefficients, for degree-1 and
        # degree-2 input; random weighted field values give every table row
        # a nonzero term.  The contracted kernel gives them too, up to the
        # rounding floor eps * sum |W| * (Hadamard bound) of the coefficient
        # determinants: the degree-1 obstruction coefficients on sig22_n6m2
        # vanish identically, so there both totals are rounding noise.
        model = request.getfixturevalue(which)
        z = model.graph_point(np.array([0.05, -0.03, 0.02, 0.0]),
                              0.01 * np.ones(model.m))
        grid = centered_grid(model, z, budget=2000)
        chunk = next(grid.chunks())
        det9 = homotopy._det9_blocks(chunk.conormal)
        dense, _ = oracle_node_geometry(grid, chunk)
        eta1, beta1, gamma1, _ = barrier_section_jets(model, chunk.zeta, z)
        eta0, beta0, gamma0 = bochner_martinelli_jets(chunk.zeta, z)
        N = len(chunk.zeta)
        keep = rng.random(N) > 0.1
        for r in (1, 2):
            nJ = len(index_combinations(model.n, r))
            gw = (rng.standard_normal((N, nJ))
                  + 1j * rng.standard_normal((N, nJ))) * chunk.weight[:, None]
            r_out, _ = homotopy._field_plan(model.n, r, kind)
            table = contraction_table(model.n, r)
            W = homotopy._fold_weights(gw, det9, r) * keep[:, None]
            if kind == "solution":
                t = 0.3
                _, coef, bound = dense_coefficients(
                    eta0, (1 - t) * beta0 + t * beta1,
                    (1 - t) * gamma0 + t * gamma1, eta1 - eta0, r_out)
                contracted = homotopy._folded_coefficients(
                    W, eta0, beta1, gamma1, r_out, tau=eta1 - eta0,
                    start=(beta0, gamma0), t_rule=((t, 1.0),))
            else:
                _, coef, bound = dense_coefficients(eta1, beta1, gamma1,
                                                    None, r_out)
                contracted = homotopy._folded_coefficients(
                    W, eta1, beta1, gamma1, r_out)
            folded = np.einsum("nm,nlm->l", W, coef)
            oracle = row_contraction(table, gw, coef, dense, keep)
            scale = np.max(np.abs(oracle))
            assert np.max(np.abs(folded - oracle)) <= 1e-13 * scale
            floor = np.finfo(float).eps * np.max(
                np.einsum("nm,nlm->l", np.abs(W), bound))
            assert np.max(np.abs(contracted - oracle)) <= 1e-13 * scale + floor

    @pytest.mark.parametrize("n,kind,r", [
        (n, kind, r) for n in range(2, 8)
        for kind in ("solution", "obstruction")
        for r in range(kind == "solution", n)])
    def test_contracted_kernel_matches_dense_oracle(self, n, kind, r, rng):
        # every input degree down to r = n - 1, where no gamma column is
        # left (k = 0); random jets and weights, a keep mask, two t-nodes,
        # and a node count that ends in a partial block
        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        N = homotopy.BLOCK + 188
        r_out, _ = homotopy._field_plan(n, r, kind)
        nM = len(index_combinations(n, n - 1 - r))
        eta, tau = cplx(N, n), cplx(N, n)
        beta, gamma = cplx(N, n, n), cplx(N, n, n)
        W = cplx(N, nM) * (rng.random(N) > 0.2)[:, None]
        if kind == "solution":
            beta0, gamma0 = cplx(N, n, n), cplx(N, n, n)
            t_rule = ((0.2, 0.6), (0.7, 0.4))
            got = homotopy._folded_coefficients(
                W, eta, beta, gamma, r_out, tau=tau, start=(beta0, gamma0),
                t_rule=t_rule)
            coef = sum(weight * dense_coefficients(
                eta, (1 - t) * beta0 + t * beta, (1 - t) * gamma0 + t * gamma,
                tau, r_out)[1] for t, weight in t_rule)
        else:
            got = homotopy._folded_coefficients(W, eta, beta, gamma, r_out)
            coef = dense_coefficients(eta, beta, gamma, None, r_out)[1]
        want = np.einsum("nm,nlm->l", W, coef)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestGlue:
    def test_partition_check(self, primary):
        pair = make_cutoff_pair(np.zeros(4), np.zeros(1), 0.5, 0.6)
        pts = primary.graph_point(
            0.1 * np.stack([np.ones(4), -np.ones(4)]).astype(complex),
            np.zeros((2, 1)))
        assert fields.partition_defect(primary, [pair], pts) < 1e-12

    def test_invalid_pair_rejected(self):
        with pytest.raises(CoverError):
            CutoffPair(inner=BumpChart(np.zeros(4), np.zeros(1), 0.3, 0.5),
                       outer=BumpChart(np.zeros(4), np.zeros(1), 0.4, 0.6))

    def test_single_cover_reduces_to_local(self, primary):
        f = bundled_test_form(primary)
        pair = make_cutoff_pair(np.zeros(4), np.zeros(1), 0.5, 0.6)
        z = primary.graph_point(np.array([0.05, -0.03, 0.02, 0.0]),
                                np.array([0.01]))
        grid = centered_grid(primary, z, budget=2000)
        glued = glue_solution(primary, [pair], f, z, [grid])
        local = apply_operator(primary, f, z, grid).ambient
        # inner cutoff is 1 on the support, outer is 1 at z
        assert np.max(np.abs(glued - local)) < 1e-12 * max(
            1.0, np.max(np.abs(local)))
        hglued = glue_obstruction(primary, [pair], f, z, [grid])
        assert np.max(np.abs(hglued)) < 1e-10

    def test_two_covers_match_single_cover(self, primary):
        f = bundled_test_form(primary, r_in=0.2, r_out=0.35)
        z = primary.graph_point(np.array([0.03, -0.02, 0.01, 0.0]),
                                np.array([0.0]))
        # partition: inner bump + complementary remainder under a wide bump
        b1 = BumpChart(np.zeros(4), np.zeros(1), 0.12, 0.3)
        wide = BumpChart(np.zeros(4), np.zeros(1), 0.4, 0.55)

        class Complement(fields.ChartFunction):
            def value(self, model, pt):
                return (1.0 - b1.value(model, pt)) * wide.value(model, pt)

            def d_zbar(self, model, pt):
                return (-b1.d_zbar(model, pt) * wide.value(model, pt)[..., None]
                        + (1.0 - b1.value(model, pt))[..., None]
                        * wide.d_zbar(model, pt))

        c1 = CutoffPair(inner=b1,
                        outer=BumpChart(np.zeros(4), np.zeros(1), 0.3, 0.45))
        # wrap the complement as an inner cutoff with matching outer bump
        comp = Complement()
        c2 = type("Pair", (), {})()
        c2.inner = comp
        c2.outer = BumpChart(np.zeros(4), np.zeros(1), 0.55, 0.75)
        pts = primary.graph_point(
            (0.1 * np.stack([np.ones(4), -0.5 * np.ones(4)])).astype(complex),
            np.zeros((2, 1)))
        total = b1.value(primary, pts).real + comp.value(primary, pts).real
        assert np.max(np.abs(total - 1.0)) < 1e-12

        grid = centered_grid(primary, z, budget=60000, seed=5)
        glued = glue_solution(primary, [c1, c2], f, z, [grid, grid])
        local = apply_operator(primary, f, z, grid).ambient
        denom = max(np.max(np.abs(local)), 1e-6)
        assert np.max(np.abs(glued - local)) < 0.05 * denom


class TestGluedIdentity:
    def test_glued_operators_satisfy_identity_budget(self, primary):
        # the glued solution/obstruction pair reproduces the test form at the
        # same tolerance budget as the local run at this rung
        from crhomotopy.homotopy import (assemble_conjugate_frame_derivative,
                                         conjugate_frame_stencil)
        from crhomotopy.fields import tangential_components
        f = bundled_test_form(primary)
        z = primary.graph_point(np.array([0.05, -0.03, 0.02, 0.0]),
                                np.array([0.01]))
        pair = make_cutoff_pair(np.zeros(4), np.zeros(1), 0.5, 0.6)
        grid = centered_grid(primary, z, eps=0.1, budget=20000, seed=31,
                             box_radius=0.8)
        step = 2e-4
        stencil = conjugate_frame_stencil(primary, z, step)
        vals = [complex(glue_solution(primary, [pair], f, p, [grid])[0])
                for p in stencil]
        dbar_r1 = assemble_conjugate_frame_derivative(vals, 4, step)
        r2 = glue_solution(primary, [pair], f.dbar_field(primary), z, [grid])
        r2_tan = tangential_components(primary, r2[None, :], z[None, :], 1)[0]
        h_tan = tangential_components(
            primary, glue_obstruction(primary, [pair], f, z, [grid])[None, :],
            z[None, :], 1)[0]
        f_tan = tangential_components(primary, f.values(primary, z[None, :]),
                                      z[None, :], 1)[0]
        resid = float(np.max(np.abs(f_tan - dbar_r1 - r2_tan - h_tan)))
        assert resid < 0.8 * float(np.max(np.abs(f_tan)))


class TestIdentityLadder:
    def test_residual_small_budget(self, primary):
        f = bundled_test_form(primary)
        z = primary.graph_point(np.array([0.05, -0.03, 0.02, 0.0]),
                                np.array([0.01]))
        rows = identity_residual(primary, f, [z], epsilon=0.1, budget=8000,
                                 seed=11, box_radius=0.8)
        assert rows[0].residual < 0.8 * rows[0].f_norm

    def test_rejection_error_on_degenerate_phase(self, primary, monkeypatch):
        # an uncertified sign-flipped model: on this grid its phase still
        # stays near eps / 2 (smallest |phi| / eps is 0.34), so the call
        # returns with no node rejected
        broken = geometry.ManifoldModel(n=5, m=1, q=2, hermitian=[np.eye(4)])
        f = bundled_test_form(broken)
        z = broken.graph_point(np.array([0.01, 0.0, 0.0, 0.0]),
                               np.array([0.0]))
        zp, w = broken.split(z)
        grid = QuadratureGrid(model=broken, epsilon=0.005, budget=3000,
                              mode="mc-shell", seed=2, center_zp=zp,
                              center_u=w.real, box_radius=0.8)
        res = apply_operator(broken, f, z, grid, kind="solution")
        assert (res.rejected, res.total_nodes) == (0, 3000)
        assert np.all(np.isfinite(res.ambient))
        # a rejection floor of eps lies above the phase at most nodes, far
        # more than REJECT_LIMIT of them, so the call must refuse the grid
        monkeypatch.setattr(homotopy, "PHASE_REJECT_FACTOR", 1.0)
        with pytest.raises(GridTooCoarseError, match="/3000 nodes rejected"):
            apply_operator(broken, f, z, grid, kind="solution")
