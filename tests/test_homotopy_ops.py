import tracemalloc
import warnings
from math import factorial

import numpy as np
import pytest

from crhomotopy import barrier, fields, geometry, homotopy, quadrature
from crhomotopy._util import (avoiding_table, gauss_legendre_01, hodge_star,
                              index_combinations, small_det, wedge_jets)
from crhomotopy.errors import (CRHomotopyError, DerivativeOrderError,
                               GridTooCoarseError, ObstructionOmittedError,
                               OutsideTubeError)
from crhomotopy.fields import (BumpChart, FormField, PolyChart, ProductChart,
                               ZeroChart, bundled_test_form, chart_form)
from crhomotopy.homotopy import (apply_operator, apply_operator_multi,
                                 identity_residual)
from crhomotopy.quadrature import QuadratureGrid
from crhomotopy.sections import barrier_section_jets, bochner_martinelli_jets
from oracles import (applied_adjoint, barrier_mixed_jets,
                     codimension_four_model, contraction_table,
                     dense_coefficients, dense_det9, dense_pullback,
                     dense_orientation_and_jacobian, euclidean_mixed_jets,
                     first_chunk, fold_vector, full_row_folded_coefficients,
                     gradient_flow_projection, project_tangential,
                     quotient_scatter, random_quadric, row_contraction,
                     stream_chunks, tangential_dbar_values,
                     velocity_columns)

# bound of the traced allocation peak of one apply_operator call on an
# 8192-node sig22_n6m2 stream: 4.4 MB measured for either kind (6.2 MB
# while the stream was yielded in 8192-node chunks), plus a third for
# allocator and numpy-version spread, so one chunk-sized node array set
# alive at the peak fails it
APPLY_PEAK_MB = 6.0
# bound of the traced allocation peak of one identity_residual point on a
# 10000-node sig22_n5 stream: 4.56 MB measured (4.75 MB while the d-bar
# scattered its adjoints to (N, n, n) arrays), plus a third for allocator
# and numpy-version spread
RESIDUAL_PEAK_MB = 6.1


def centered_grid(model, z, eps=0.1, budget=3000, seed=7, **kw):
    zp, w = model.split(np.asarray(z, dtype=complex))
    return QuadratureGrid(model=model, epsilon=eps, budget=budget,
                          mode="mc-shell", seed=seed, center_zp=zp,
                          center_u=w.real, **kw)


def folded_coefficients(W, w, beta, gamma, r_out, kernel, tau=None,
                        start=None, t_rule=((1.0, 1.0),), tangent=None):
    """``homotopy._folded_coefficients`` of the weights W on one run of the
    jets at w = zeta - z, the kernel vectors ``kernel`` (N, n) pivoted by
    ``homotopy._pivot`` as the operators pivot each block's conormal."""
    run = homotopy._Run(w, beta, gamma, homotopy._pivot(kernel.T), tau=tau,
                        start=start, t_rule=t_rule)
    return homotopy._folded_coefficients(W, run, r_out, tangent=tangent)


def quotient_pivots(W, w, kernel, k):
    """The coordinates (a, c) per node that ``homotopy._kernel_quotient``
    eliminates from the gamma' rows at interior degree k, as ``_pivot``
    picks them: a from the kernel vectors (N, n), and, for k = n - 2 > 0,
    c from *W', W' the weights (N, C(n, k)) scaled by (-1)^p / w_p and read
    on the components that avoid a; c is None otherwise."""
    N, n = w.shape
    a = homotopy._pivot(kernel.T)[0]
    if k == 0 or k != n - 2:
        return a, None
    p = np.argmax(np.abs(w), axis=1)
    w_p = w[np.arange(N), p]
    W = W * ((-1.0) ** p / np.where(w_p == 0, 1.0, w_p))[:, None]
    W = np.take_along_axis(W, avoiding_table(n, k)[a], axis=1)
    b = homotopy._pivot(hodge_star(W.T, n - 1, k))[0]
    return a, b + (b >= a)


def quotient_column_bound(x, a, c=None):
    """A bound per node of every column norm of the rows x (N, ..., rows,
    n) on the kernel quotient of ``homotopy._kernel_quotient`` that
    eliminates the coordinates a and c (:func:`quotient_pivots`).

    There column j is x_K_j - sigma_j x_c - (rho_K_j - rho_c sigma_j) x_a,
    K the kept coordinates, or x_K_j - rho_K_j x_a without c, and every
    ratio sigma, rho has modulus <= 1 (``homotopy._pivot``), so its norm is
    at most max_K |x_K| + |x_c| + 2 |x_a|, or max_K |x_K| + |x_a|, with the
    norms over the rows.  The bound does not vanish with a column of x: a
    zero column (the barrier gamma on sig22_n5 has two nonzero columns per
    node) makes every full-row coefficient det[... | gamma_M | ...] exactly
    0, while the quotient mixes it with the others and leaves rounding
    noise; the bound is 0 only where every column of x is."""
    norms = np.linalg.norm(x, axis=-2)                      # (N, ..., n)
    shape = (-1,) + (1,) * (norms.ndim - 1)
    kept = np.ones(norms.shape, dtype=bool)
    bound = 0.0
    for coord, factor in ((a, 1.0 if c is None else 2.0), (c, 1.0)):
        if coord is not None:
            at = np.arange(norms.shape[-1]) == coord.reshape(shape)
            kept &= ~at
            bound = bound + factor * np.sum(norms * at, axis=-1)
    return bound + np.max(norms * kept, axis=-1)


def oracle_node_geometry(grid, chunk):
    """Dense oriented minors and surface factors of a chunk, ((N, n), (N,))."""
    velocity = velocity_columns(grid, chunk)
    orient, jac = dense_orientation_and_jacobian(chunk.sigma, velocity)
    return orient[:, None] * dense_det9(velocity), jac


def assert_node_geometry_matches_oracle(grid, chunk):
    """Closed-form oriented minors and surface factors agree with the dense
    determinants to 1e-12 of each node's largest minor and of its factor."""
    ref, jac = oracle_node_geometry(grid, chunk)
    got = homotopy._det9_blocks(chunk.conormal)
    err = np.max(np.abs(got - ref), axis=1) / np.max(np.abs(ref), axis=1)
    assert np.max(err) < 1e-12
    assert np.max(np.abs(chunk.surface_jac - jac) / jac) < 1e-12


def assert_sphere_tangent_basis(sigma, tang):
    """Columns of tang are orthonormal and orthogonal to sigma, per node."""
    gram = np.einsum("Nia,Nib->Nab", tang, tang)
    assert np.max(np.abs(gram - np.eye(tang.shape[2]))) < 1e-14
    assert np.max(np.abs(np.einsum("Ni,Nia->Na", sigma, tang))) < 1e-14


class TestExtension:
    """Extension off the manifold is the operators' node projection: the
    graph projection (the default) or the gradient-flow projection."""

    def test_restriction_identity(self, primary, rng):
        f = bundled_test_form(primary)
        z = primary.graph_point(
            0.2 * (rng.standard_normal(4) + 1j * rng.standard_normal(4)),
            0.1 * rng.standard_normal(1))
        proj = primary.project_to_manifold(z[None, :])
        assert np.allclose(f.values(primary, z[None, :]),
                           f.values(primary, proj))

    def test_constant_along_defining_coordinates(self, primary, rng):
        f = bundled_test_form(primary)
        z = primary.graph_point(0.1 * np.ones(4) + 0j, np.zeros(1))
        step = 1e-4
        up = z.copy(); up[4] += 1j * step      # moves the level only
        dn = z.copy(); dn[4] -= 1j * step
        diff = (f.values(primary, primary.project_to_manifold(up[None, :]))
                - f.values(primary, primary.project_to_manifold(dn[None, :])))
        assert np.max(np.abs(diff)) < 1e-14

    def test_chart_coefficients_are_fixed_points(self, primary, rng):
        f = bundled_test_form(primary)
        z_off = primary.graph_point(0.1 * np.ones(4) + 0j, np.zeros(1),
                                    np.array([0.07]))
        proj = primary.project_to_manifold(z_off[None, :])
        assert np.allclose(f.values(primary, z_off[None, :]),
                           f.values(primary, proj))

    def test_gradient_flow_projection_lands_on_manifold(self, primary, rng):
        z_off = primary.graph_point(
            0.3 * (rng.standard_normal(4) + 1j * rng.standard_normal(4)),
            0.2 * rng.standard_normal(1), np.array([0.09]))
        proj = gradient_flow_projection(primary, z_off)
        _, rho = primary.defining_values(proj)
        assert rho < 1e-10

    def test_two_extensions_agree_on_manifold(self, primary, rng):
        f = bundled_test_form(primary)
        z = primary.graph_point(0.15 * np.ones(4) + 0j, np.zeros(1))[None, :]
        ga = f.values(primary, primary.project_to_manifold(z))
        gb = f.values(primary, gradient_flow_projection(primary, z))
        assert np.allclose(ga, gb, atol=1e-10)


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
        other = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        vals2 = wedge_jets(other[None, :, None] * normal[None, None, :], 5, 1)
        out2 = project_tangential(primary, vals2, z[None, :], 2)
        assert np.max(np.abs(out2)) < 1e-10

    def test_degree_zero_identity(self, primary):
        z = np.zeros(5, dtype=complex)
        vals = np.array([3.5 + 1j])
        assert np.allclose(project_tangential(primary, vals, z, 0), vals)


class TestTangentialDbar:
    def test_constant_function_killed(self, primary):
        const = chart_form(5, 0, [PolyChart(
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
        w1 = chart_form(5, 0, [PolyChart((4, 1), h_terms)])
        rng = np.random.default_rng(3)
        for _ in range(10):
            z = primary.graph_point(
                0.3 * (rng.standard_normal(4) + 1j * rng.standard_normal(4)),
                0.2 * rng.standard_normal(1))
            out = tangential_dbar_values(primary, w1, z[None, :])
            assert np.max(np.abs(out)) < 1e-12

    def test_square_vanishes_to_fd_tolerance(self, primary):
        f = bundled_test_form(primary)
        z = primary.graph_point(0.12 * np.ones(4) + 0j, np.zeros(1))
        # the differential as a field evaluates to the differential
        assert np.array_equal(f.dbar_field().values(primary, z[None, :]),
                              f.dbar_fn(primary, z[None, :]))

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


class TestFormField:
    def test_chart_form_stacks_values_and_wedges_jets(self, primary):
        # coefficient i is component i's value; the differential is the
        # wedge of the d/dzbar jets: dzbar_l wedge (c_i dzbar_i) lands on the
        # sorted pair {l, i}, with sign -1 where l > i
        comps = [ZeroChart() for _ in range(5)]
        comps[1] = PolyChart((4, 1), [
            (0.5, np.zeros(4), np.eye(1, 4, 0)[0], np.zeros(1))])
        comps[3] = BumpChart(np.zeros(4), np.zeros(1), 0.25, 0.45)
        f = chart_form(5, 1, comps)
        # |z'| = 0.3 lies on the bump's slope, so its jets are not zero
        z = primary.graph_point(
            0.15 * np.stack([np.ones(4), -np.ones(4)]).astype(complex),
            np.zeros((2, 1)))
        assert np.array_equal(
            f.values(primary, z),
            np.stack([c.value(primary, z) for c in comps], axis=-1))
        dbar = f.dbar_field().values(primary, z)
        combos = index_combinations(5, 2)
        want = np.zeros_like(dbar)
        for i, c in enumerate(comps):
            jet = c.d_zbar(primary, z)
            for l in range(5):
                if l != i:
                    J = tuple(sorted((l, i)))
                    want[:, combos.index(J)] += (1 if l < i else -1) * jet[:, l]
        assert np.max(np.abs(dbar - want)) <= 1e-14 * np.max(np.abs(want))
        with pytest.raises(ValueError, match="need 5 components, got 4"):
            chart_form(5, 1, comps[:4])

    def test_values_only_form_has_no_dbar(self, primary):
        # a form without an analytic differential fails with the typed
        # error, in its d-bar field and in the identity residual, which
        # integrates that differential
        f = bundled_test_form(primary)
        g = FormField(n=5, degree=1, fn=f.values)
        z = primary.graph_point(np.array([0.05, -0.03, 0.02, 0.0]),
                                np.array([0.01]))
        assert np.array_equal(g.values(primary, z[None, :]),
                              f.values(primary, z[None, :]))
        with pytest.raises(DerivativeOrderError):
            g.dbar_field()
        with pytest.raises(CRHomotopyError, match="no analytic differential"):
            identity_residual(primary, g, [z], epsilon=0.1, budget=500)


def random_poly_chart(d, m):
    """(model, poly, rng): a chart polynomial with exponents 2-3 in z',
    conj z' and u, mixed within a term, on a quadric of dims (d, m), and the
    generator that drew it, seeded by m."""
    model = geometry.ManifoldModel(
        n=d + m, m=m, q=1, hermitian=[np.eye(d)] * m)
    rng = np.random.default_rng(60 + m)
    terms = [(rng.standard_normal() + 1j * rng.standard_normal(),
              rng.integers(0, 4, d) * (rng.random(d) < 0.5),
              rng.integers(0, 4, d) * (rng.random(d) < 0.5),
              rng.integers(0, 4, m)) for _ in range(6)]
    terms.append((0.7j, [3, 0, 0, 0], [0, 2, 0, 3], [2] + [0] * (m - 1)))
    return model, PolyChart((d, m), terms), rng


class TestPolyChart:
    @pytest.mark.parametrize("d,m", [(4, 1), (4, 2)])
    def test_dbar_matches_central_differences(self, d, m):
        # at the dims of sig22_n5 and sig22_n6m2
        model, poly, rng = random_poly_chart(d, m)
        step = 1e-5
        for _ in range(3):
            z = 0.6 * (rng.standard_normal(d + m)
                       + 1j * rng.standard_normal(d + m))
            jet = poly.d_zbar(model, z)
            for a in range(d + m):
                e = np.zeros(d + m, dtype=complex)
                e[a] = step
                fx, fy = ((poly.value(model, z + h) - poly.value(model, z - h))
                          / (2 * step) for h in (e, 1j * e))
                fd = 0.5 * (fx + 1j * fy)
                assert abs(jet[a] - fd) < 1e-7 * max(1.0, abs(fd))


class TestChartJets:
    """The value half of every chart function's jet, and the bump's jet
    across its slope."""

    @pytest.mark.parametrize("d,m", [(4, 1), (4, 2)])
    def test_value_is_the_jet_value(self, d, m):
        # value(z) is jet(z)[0] bit for bit for the polynomial, the bump
        # and their product, at points inside, on the slope and outside the
        # bump and at exactly r_in and r_out, with no floating-point warning
        model, poly, rng = random_poly_chart(d, m)
        bump = BumpChart(np.zeros(d), np.zeros(m), 0.25, 0.45)
        axis = np.zeros(d + m, dtype=complex)
        axis[0] = 1.0
        z = np.concatenate([
            0.4 * (rng.standard_normal((20, d + m))
                   + 1j * rng.standard_normal((20, d + m))),
            np.array([0.0, 0.1, 0.25, 0.3, 0.45, 0.6])[:, None] * axis])
        z = model.graph_point(z[:, :d], z[:, d:].real)
        edge = bump.value(model, z[-6:])
        assert np.array_equal(edge[[0, 1, 2, 4, 5]], [1, 1, 1, 0, 0])
        assert 0.0 < edge[3].real < 1.0
        with warnings.catch_warnings(), \
                np.errstate(divide="raise", over="raise", invalid="raise"):
            warnings.simplefilter("error")
            for chart in (poly, bump, ProductChart(poly, bump)):
                value, jet = chart.jet(model, z)
                assert np.array_equal(chart.value(model, z), value)
                assert jet.shape == z.shape and np.all(np.isfinite(jet))

    def test_bump_jet_matches_central_differences(self, secondary):
        # on the slope, 5e-4 from both ends included, along a direction
        # with z' and u parts, against the 4-point Wirtinger central
        # difference of the value in each coordinate
        bump = BumpChart(np.zeros(4), np.zeros(2), 0.25, 0.45)
        dists = np.array([0.2505, 0.26, 0.3, 0.35, 0.4, 0.44, 0.4495])
        z = secondary.graph_point(
            dists[:, None] * np.array([0.6, 0.0, 0.48j, 0.0]),
            dists[:, None] * np.array([0.64, 0.0]))
        jet = bump.d_zbar(secondary, z)
        assert np.min(np.abs(jet[2:-2, [0, 2, 4]])) > 0.1   # not flat there
        step = 1e-6
        for a in range(secondary.n):
            e = np.zeros(secondary.n, dtype=complex)
            e[a] = step
            fx, fy = ((bump.value(secondary, z + h)
                       - bump.value(secondary, z - h)) / (2 * step)
                      for h in (e, 1j * e))
            fd = 0.5 * (fx + 1j * fy)
            assert np.max(np.abs(jet[:, a] - fd)) < 1e-7

    def test_smoothstep_slope(self):
        # the step is 0 below 0 and 1 above 1, its slope 0 off (0, 1) and
        # symmetric about 1/2; on (0, 1/2], where the step's central
        # difference keeps its relative accuracy, the slope matches it
        x = np.concatenate([[-2.0, -1e-300, 0.0, 1.0, 1.0 + 1e-12, 3.0],
                            np.linspace(0.02, 0.5, 25)])
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            step, slope = fields._smoothstep(x)
            flipped = fields._smoothstep(1.0 - x[6:])[1]
            h = 1e-6
            fd = (fields._smoothstep(x + h)[0]
                  - fields._smoothstep(x - h)[0]) / (2 * h)
        assert np.array_equal(step[:6], [0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        assert np.array_equal(slope[:6], np.zeros(6))
        assert np.max(np.abs(slope[6:] - fd[6:]) / slope[6:]) < 1e-6
        assert np.max(np.abs(flipped - slope[6:]) / slope[6:]) < 1e-12


class TestScalarDbar:
    def test_conjugate_frame_derivative_matches_analytic(self, primary):
        # dbar_M of an evaluable scalar via frame finite differences agrees
        # with the analytic ambient route for a chart polynomial
        from oracles import tangential_dbar_scalar
        poly = PolyChart((4, 1), [
            (1.0, np.eye(1, 4, 0)[0], np.eye(1, 4, 1)[0], np.zeros(1)),
            (0.5j, np.zeros(4), np.eye(1, 4, 2)[0], np.ones(1)),
        ])
        field = chart_form(5, 0, [poly])
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
        from oracles import (assemble_conjugate_frame_derivative,
                             conjugate_frame_stencil)
        f = bundled_test_form(primary)
        z = primary.graph_point(np.array(zp, dtype=complex), np.array([u]))
        grid = centered_grid(primary, z, eps=0.1, budget=10_000, seed=11,
                             box_radius=0.8)
        res, = apply_operator_multi(primary, [f], [z], grid, _dbar=[True])
        frame = fields.conjugate_frame_rows(primary, z)

        def stencil_at(h):
            points = conjugate_frame_stencil(primary, z, h)
            vals = apply_operator_multi(primary, [f] * len(points), points,
                                        grid)
            return assemble_conjugate_frame_derivative(
                [complex(v.ambient[0]) for v in vals], 4, h)

        assert 3.5 <= self.error_ratio(frame @ res.dbar, stencil_at) <= 4.5

    def test_matches_tangential_dbar_scalar_codim_two(self, secondary):
        from oracles import tangential_dbar_scalar
        f = bundled_test_form(secondary)
        z = secondary.graph_point(np.array([0.05, -0.03, 0.02, 0.0]),
                                  np.array([0.01, 0.01]))
        grid = centered_grid(secondary, z, eps=0.1, budget=1000, seed=11,
                             box_radius=0.8)
        res, = apply_operator_multi(secondary, [f], [z], grid, _dbar=[True])
        frame = fields.conjugate_frame_rows(secondary, z)

        def stencil_at(h):
            return tangential_dbar_scalar(
                secondary,
                lambda p: complex(apply_operator(secondary, f, p,
                                                 grid).ambient[0]),
                z, step=h)

        assert 3.5 <= self.error_ratio(frame @ res.dbar, stencil_at) <= 4.5

    @pytest.mark.parametrize("which", ["primary", "secondary"])
    def test_ambient_dbar_matches_stencil_in_every_coordinate(self, which,
                                                              request):
        # dbar holds d/dzbar_l for every l, the transverse w included, not
        # only the conjugate-frame combinations: each coordinate against
        # the 4-point Wirtinger central difference of the value in z_l on
        # the same node stream, the ratio of errors at steps h and h/2 near 4
        model = request.getfixturevalue(which)
        n = model.n
        f = bundled_test_form(model)
        z = model.graph_point(np.array([0.05, -0.03, 0.02, 0.0]),
                              0.01 * np.ones(model.m))
        grid = centered_grid(model, z, eps=0.1, budget=1000, seed=11,
                             box_radius=0.8)
        res, = apply_operator_multi(model, [f], [z], grid, _dbar=[True])
        shifts = np.array([1, -1, 1j, -1j])
        errs = []
        for h in (1e-3, 5e-4):
            points = [z + h * s * np.eye(n)[l] for l in range(n)
                      for s in shifts]
            vals = np.array([v.ambient[0] for v in apply_operator_multi(
                model, [f] * len(points), points, grid)]).reshape(n, 4)
            fd = ((vals[:, 0] - vals[:, 1])
                  + 1j * (vals[:, 2] - vals[:, 3])) / (4 * h)
            errs.append(np.abs(fd - res.dbar))
        assert np.all((3.5 <= errs[0] / errs[1]) & (errs[0] / errs[1] <= 4.5))


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
            t_nodes, t_weights = np.array(homotopy._t_rule(n)).T
            assert len(t_nodes) == n // 2
            val = np.sum(t_weights * t_nodes ** (n - 2))
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

    def test_unknown_mode_rejected(self, primary):
        # an unknown sampling mode fails when the grid is built, before the
        # first chunk
        with pytest.raises(ValueError, match="unknown sampling mode 'tensor'"):
            QuadratureGrid(model=primary, epsilon=0.1, budget=3000,
                           mode="tensor", seed=7)

    @pytest.mark.parametrize("mode,budget,box_radius,match", [
        ("mc-shell", 0, 0.7, "budget"),
        ("mc-uniform", -5, 0.7, "budget"),
        ("mc-shell", 3000, 0.0, "box_radius"),
        ("mc-uniform", 3000, -0.5, "box_radius"),
        ("mc-shell", 3000, np.inf, "box_radius"),
        ("mc-uniform", 3000, np.nan, "box_radius"),
        ("mc-shell", 3000, 5e-5, "inner radius"),
    ])
    def test_stream_parameters_validated(self, primary, mode, budget,
                                         box_radius, match):
        # an empty stream or an inverted shell fails when the grid is built,
        # not as a numpy error or silently zero values at the first chunk
        with pytest.raises(ValueError, match=match):
            QuadratureGrid(model=primary, epsilon=0.1, budget=budget,
                           mode=mode, box_radius=box_radius)

    def test_dense_determinant_factorization(self, primary):
        # the dt row contributes exactly (-1)^n relative to the reduced
        # block determinant
        grid = centered_grid(primary, np.zeros(5, dtype=complex), budget=64)
        chunk = next(grid.chunks())
        velocity = velocity_columns(grid, chunk)
        det9 = dense_det9(velocity)
        n = primary.n
        i = 11
        for k in (0, 3):
            keep = [l for l in range(n) if l != k]
            size = 2 * n
            mat = np.zeros((size, size), dtype=complex)
            for j in range(2 * n - 1):
                c = velocity[i][:, j]
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
    def test_node_geometry_matches_dense_oracle(self, which, request, rng,
                                                monkeypatch):
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
        chunk = first_chunk(grid)
        if model.m == 1:
            assert set(chunk.sigma[:, 0]) == {-1.0, 1.0}
        assert_node_geometry_matches_oracle(grid, chunk)
        if model.m >= 2:
            # a flipped sphere tangent basis flips the orientation sign and
            # the dense determinants together: its sign is a gauge
            ref, jac = oracle_node_geometry(grid, chunk)
            basis = quadrature._sphere_tangent_basis
            monkeypatch.setattr(quadrature, "_sphere_tangent_basis",
                                lambda sigma: -basis(sigma))
            flipped, flipped_jac = oracle_node_geometry(grid, chunk)
            assert np.max(np.abs(flipped - ref)) \
                <= 1e-12 * np.max(np.abs(ref))
            assert np.max(np.abs(flipped_jac - jac) / jac) < 1e-12

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
        model = codimension_four_model()
        grid = QuadratureGrid(model=model, epsilon=0.1, budget=500, seed=3)
        chunk = next(grid.chunks())
        assert np.all(np.isfinite(chunk.weight)) and np.all(chunk.weight > 0)
        assert_node_geometry_matches_oracle(grid, chunk)
        assert_sphere_tangent_basis(
            chunk.sigma, quadrature._sphere_tangent_basis(chunk.sigma))

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_level_directions_marginally_uniform(self, m):
        # a node's sigma is one point of the fixed set turned by the
        # chunk's Haar rotation, so at a fixed node index its mean is 0 and
        # its second moment I/m, each within 4 standard errors over 2000
        # chunks
        model = random_quadric(m + 3, m, np.random.default_rng(m))
        grid = QuadratureGrid(model=model, epsilon=0.1, budget=10)
        rng, j = np.random.default_rng(31), 5
        sigma = np.array([directions[index[j]] for directions, index in (
            grid._sample_params(rng, j + 1)[1:3] for _ in range(2000))])
        outer = (sigma[:, :, None] * sigma[:, None, :]).reshape(2000, m * m)
        for x, expected in ((sigma, 0.0), (outer, np.eye(m).ravel() / m)):
            se = np.std(x, axis=0, ddof=1) / np.sqrt(len(x))
            assert np.all(np.abs(np.mean(x, axis=0) - expected) <= 4 * se)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_direction_table(self, m, primary, secondary):
        # a CHUNK + 300 stream comes in blocks of at most BLOCK nodes that
        # cover the budget; the blocks of each chunk share its one table of
        # K distinct directions (the two sheets for m = 1), so the stream
        # holds two, and each block indexes its nodes into the table, bit
        # for bit
        model = {1: primary, 2: secondary}.get(m) or random_quadric(
            7, 3, np.random.default_rng(12))
        K = 2 if m == 1 else quadrature.SPHERE_POINTS
        grid = QuadratureGrid(model=model, epsilon=0.1,
                              budget=quadrature.CHUNK + 300, seed=4)
        blocks = list(grid.chunks())
        sizes = [len(block.zeta) for block in blocks]
        assert max(sizes) <= quadrature.BLOCK
        assert sum(sizes) == grid.budget
        tables = (blocks[0].directions, blocks[-1].directions)
        assert tables[0] is not tables[1]
        for lo, block in zip(np.cumsum([0] + sizes[:-1]), blocks):
            assert block.directions is tables[lo // quadrature.CHUNK]
            assert np.array_equal(block.sigma,
                                  block.directions[block.direction_index])
        for table in tables:
            assert table.shape == (K, m)
            assert len(np.unique(table, axis=0)) == K
        if m == 1:
            assert np.array_equal(tables[0], [[1.0], [-1.0]])

    @pytest.mark.parametrize("mode", quadrature.MODES)
    @pytest.mark.parametrize("which", ["primary", "secondary", "codim4"])
    def test_blocks_are_the_chunk_bit_for_bit(self, which, mode, request):
        # the stream is drawn per chunk and yielded per block: each chunk's
        # blocks, joined, are the chunk assembled whole from the same draws
        # of the generator, field by field and bit for bit, at m = 1, m = 2
        # and m = 4
        model = (codimension_four_model() if which == "codim4"
                 else request.getfixturevalue(which))
        grid = QuadratureGrid(model=model, epsilon=0.1, mode=mode,
                              budget=quadrature.CHUNK + 300, seed=4)
        rng = np.random.default_rng(grid.seed)
        chunks = list(stream_chunks(grid))
        assert [len(chunk.zeta) for chunk in chunks] \
            == [quadrature.CHUNK, 300]
        for chunk in chunks:
            want = grid._assemble(grid._sample_params(rng, len(chunk.zeta)))
            for name, value in vars(want).items():
                got = vars(chunk)[name]
                assert (got.dtype, got.shape) == (value.dtype, value.shape)
                assert got.tobytes() == value.tobytes(), name

    def test_consecutive_directions_balance(self, secondary):
        # m = 2: any K consecutive nodes of a chunk take each vertex of the
        # rotated K-gon once, so their sigma sigma^T averages to I/2
        K = quadrature.SPHERE_POINTS
        grid = QuadratureGrid(model=secondary, epsilon=0.1, budget=3 * K + 7,
                              seed=4)
        sigma = next(grid.chunks()).sigma
        assert len(np.unique(sigma, axis=0)) == K
        for lo in range(2 * K + 8):
            window = sigma[lo:lo + K]
            assert np.max(np.abs(window.T @ window / K - np.eye(2) / 2)) \
                < 1e-14


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
    @pytest.mark.parametrize("n", range(3, 8))
    def test_field_plan_constant_is_the_product_of_its_factors(self, n):
        # the one real constant per kind and input degree against the five
        # factors it stands for: the (2i)^n / 2 of the oriented minors, the
        # fold's (-1)^(r n), the cross sign (-1)^(r r_out), the solution
        # kind's -(-1)^n and the Cauchy-Fantappie constant (-1)^r (n - 1)!
        # / (2 pi i)^n.  The obstruction sign is unchecked on a nonzero
        # value; a change to either sign has to edit this test
        for kind, degrees in (("solution", range(1, n + 1)),
                              ("obstruction", range(n))):
            for r in degrees:
                r_out, constant = homotopy._field_plan(n, r, kind)
                cross = (-1.0) ** (r * r_out)
                if kind == "solution":
                    cross *= -((-1.0) ** n)
                product = ((2j) ** n / 2 * (-1.0) ** (r * n) * cross
                           * (-1.0) ** r * factorial(n - 1)
                           / (2j * np.pi) ** n)
                assert isinstance(constant, float)
                np.testing.assert_allclose(constant, product, rtol=1e-15,
                                           atol=0)

    def test_zero_form_gives_zero(self, primary):
        zero = chart_form(5, 1, [ZeroChart()] * 5)
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
        g = chart_form(5, 1, comps)
        combo = FormField(n=5, degree=1, fn=lambda model, pts: (
            2.0 * f.values(model, pts) + g.values(model, pts)))
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

    def test_obstruction_vanishes_with_varying_frames(self, secondary,
                                                      repeated):
        # codimension two: the direction field and the frame genuinely vary
        # over the level set, and the kernel still degenerates pointwise,
        # also where the kept frame eigenvalues repeat ("repeated")
        for model in (secondary, repeated):
            f = bundled_test_form(model)
            z = model.graph_point(np.array([0.05, -0.03, 0.02, 0.0]),
                                  np.array([0.01, -0.01]))
            zp, w0 = model.split(z)
            grid = QuadratureGrid(model=model, epsilon=0.08, budget=2000,
                                  mode="mc-shell", seed=5, center_zp=zp,
                                  center_u=w0.real)
            res = apply_operator(model, f, z, grid, kind="obstruction")
            assert np.max(np.abs(res.ambient)) < 1e-12

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
        multi = apply_operator_multi(primary, [f] * 2, [z1, z2], grid)
        single1 = apply_operator(primary, f, z1, grid)
        single2 = apply_operator(primary, f, z2, grid)
        assert np.array_equal(multi[0].ambient, single1.ambient)
        assert np.array_equal(multi[1].ambient, single2.ambient)


    def test_multi_field_matches_separate_calls(self, primary):
        # fields of different degrees share one pass over the node stream,
        # with the same bits as one call per point
        f = bundled_test_form(primary)
        df = f.dbar_field()
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

    def test_frames_solved_once_per_chunk_and_kind(self, secondary,
                                                   monkeypatch):
        # the barrier frames of a chunk's direction table are solved once
        # per chunk and kind, not per kernel block: a two-chunk stream
        # solves two tables of K directions per apply_operator call
        calls = []
        frames = barrier._frames_for_thetas

        def counted(model, thetas, with_derivative=True):
            calls.append(len(thetas))
            return frames(model, thetas, with_derivative)

        monkeypatch.setattr(barrier, "_frames_for_thetas", counted)
        f = bundled_test_form(secondary)
        z = secondary.graph_point(np.array([0.05, -0.03, 0.02, 0.0]),
                                  np.array([0.01, -0.01]))
        grid = centered_grid(secondary, z, budget=quadrature.CHUNK + 100)
        for kind in ("solution", "obstruction"):
            calls.clear()
            res = apply_operator(secondary, f, z, grid, kind=kind)
            assert res.total_nodes == quadrature.CHUNK + 100
            assert calls == [quadrature.SPHERE_POINTS] * 2

    @staticmethod
    def refuse_quadrature(monkeypatch):
        def chunks(grid):
            raise AssertionError("the quadrature started")
        monkeypatch.setattr(QuadratureGrid, "chunks", chunks)

    def test_dbar_refused_on_obstruction_kind(self, primary, monkeypatch):
        # the ambient d-bar is taken of solution values only; the flag is
        # refused before any quadrature, naming the point
        f = bundled_test_form(primary)
        z = primary.graph_point(np.array([0.05, -0.03, 0.02, 0.0]),
                                np.array([0.01]))
        grid = centered_grid(primary, z, budget=500)
        self.refuse_quadrature(monkeypatch)
        with pytest.raises(ValueError, match="point 1: .*obstruction kind"):
            apply_operator_multi(primary, [f, f], [z, z], grid,
                                 kind="obstruction", _dbar=[False, True])

    def test_dbar_refused_above_output_degree_zero(self, primary,
                                                   monkeypatch):
        # R_2 dbar f has output degree 1, whose d-bar the operator does not
        # take; the flag is refused before any quadrature, naming the point
        f = bundled_test_form(primary)
        z = primary.graph_point(np.array([0.05, -0.03, 0.02, 0.0]),
                                np.array([0.01]))
        grid = centered_grid(primary, z, budget=500)
        self.refuse_quadrature(monkeypatch)
        with pytest.raises(ValueError, match="point 1: .*output degree 1"):
            apply_operator_multi(primary, [f, f.dbar_field()], [z, z], grid,
                                 _dbar=[True, True])

    def test_identity_residual_refuses_degree_at_q(self, small_n3):
        # H_1 f is not assembled, and for q = 1 it need not vanish
        f = bundled_test_form(small_n3)
        z = small_n3.graph_point(np.array([0.05, -0.03j]), np.array([0.01]))
        with pytest.raises(ObstructionOmittedError, match="below q = 1"):
            identity_residual(small_n3, f, [z], epsilon=0.1, budget=500)

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
    def test_block_size_invariance(self, which, request, monkeypatch):
        # the stream's block is a unit of work, not of the estimate: blocks
        # of 64 and of 200 nodes (1500 = 7 * 200 + 100, so the last block is
        # partial) give the values and rejected counts of 512-node blocks,
        # for both kinds at two points and for the same-z pair with the
        # ambient d-bar of identity_residual, whose points share their
        # section jets per block.  A rejection floor just above eps / 2, the
        # floor of the phase on the level set, rejects about a tenth of the
        # nodes at z1, spread over the blocks
        model = request.getfixturevalue(which)
        f = bundled_test_form(model)
        z1 = model.graph_point(np.array([0.05, -0.03, 0.02, 0.0]),
                               0.01 * np.ones(model.m))
        z2 = model.graph_point(np.array([-0.02, 0.04, 0.0, 0.03]),
                               -0.02 * np.ones(model.m))
        grid = centered_grid(model, z1, budget=1500)
        monkeypatch.setattr(homotopy, "PHASE_REJECT_FACTOR", 0.5000005)
        monkeypatch.setattr(homotopy, "REJECT_LIMIT", 1.0)

        def run(block):
            monkeypatch.setattr(quadrature, "BLOCK", block)
            assert max(len(b.zeta) for b in grid.chunks()) == block
            results = [res for kind in ("solution", "obstruction")
                       for res in apply_operator_multi(model, [f] * 2,
                                                       [z1, z2], grid,
                                                       kind=kind)]
            r1, r2 = apply_operator_multi(
                model, [f, f.dbar_field()], [z1, z1], grid,
                _dbar=[True, False])
            return [(res.ambient, res.rejected)
                    for res in results + [r1, r2]] + [(r1.dbar, r1.rejected)]

        want = run(512)
        assert want[0][1] > 0           # z1 is the grid's center; z2 is not
        for block in (64, 200):
            for (got, got_rejected), (ref, rejected) in zip(run(block), want):
                assert got_rejected == rejected
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(
                    np.abs(ref))

    @pytest.mark.parametrize("kind", ["solution", "obstruction"])
    def test_form_values_are_evaluated_per_block(self, primary, kind):
        # the form values are formed per kernel block: over two chunks, the
        # second not a multiple of BLOCK, no call of the field sees more
        # than BLOCK points, the calls cover the stream once, and the
        # totals equal those of the unwrapped field
        f = bundled_test_form(primary)
        sizes = []

        def counted(model, z):
            sizes.append(len(z))
            return f.values(model, z)

        wrapped = FormField(n=f.n, degree=f.degree, fn=counted)
        z = primary.graph_point(np.array([0.05, -0.03, 0.02, 0.0]),
                                np.array([0.01]))
        grid = centered_grid(primary, z, budget=quadrature.CHUNK + 700)
        got, = apply_operator_multi(primary, [wrapped], [z], grid, kind=kind)
        want, = apply_operator_multi(primary, [f], [z], grid, kind=kind)
        assert 0 < max(sizes) <= quadrature.BLOCK
        assert sum(sizes) == got.total_nodes == grid.budget
        assert np.array_equal(got.ambient, want.ambient)
        assert got.rejected == want.rejected

    @pytest.mark.parametrize("kind", ["solution", "obstruction"])
    def test_apply_peak_memory(self, secondary, kind):
        # the traced allocation peak of one apply_operator call on a full
        # sig22_n6m2 chunk stays below APPLY_PEAK_MB: no node, value or jet
        # array spans more than a block of the stream
        f = bundled_test_form(secondary)
        z = secondary.graph_point(np.array([0.02, -0.01j, 0.015, 0.0]),
                                  np.array([0.01, -0.01]))
        grid = centered_grid(secondary, z, budget=quadrature.CHUNK)
        apply_operator(secondary, f, z, grid, kind=kind)  # fill the caches
        tracemalloc.start()
        try:
            res = apply_operator(secondary, f, z, grid, kind=kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.total_nodes == quadrature.CHUNK
        assert peak < APPLY_PEAK_MB * 1e6

    def test_identity_residual_peak_memory(self, primary):
        # the traced allocation peak of one identity_residual point on a
        # 10000-node sig22_n5 stream stays below RESIDUAL_PEAK_MB: the d-bar
        # keeps its adjoints on the kernel quotient
        f = bundled_test_form(primary)
        z = primary.graph_point(np.array([0.05, -0.03, 0.02, 0.0]),
                                np.array([0.01]))
        kw = dict(epsilon=0.1, budget=10000, seed=3, box_radius=0.8)
        identity_residual(primary, f, [z], **kw)        # fill the caches
        tracemalloc.start()
        try:
            row, = identity_residual(primary, f, [z], **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert row.total_nodes == 10000
        assert peak < RESIDUAL_PEAK_MB * 1e6

    @pytest.mark.parametrize("which", ["primary", "secondary"])
    def test_quotient_pullback_matches_dense_scatter(self, which, request,
                                                     rng):
        # the section pullbacks of random adjoints A' (n - 1, dim, B) kept
        # on the kernel quotient of degree-1 fold weights, read through
        # _quotient_times and <A', gamma'>, against the pullbacks of their
        # dense (B, n, n) scatter (tests/oracles.py), for both sections over
        # the two blocks of a stream; on sig22_n6m2 (m = 2) the barrier
        # pullback runs the mixed jet
        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        model = request.getfixturevalue(which)
        n = model.n
        z = model.graph_point(np.array([0.05, -0.03, 0.02, 0.0]),
                              0.01 * np.ones(model.m))
        grid = centered_grid(model, z, budget=2 * quadrature.BLOCK)
        blocks = 0
        for block, directions in barrier.level_set_blocks(model, grid,
                                                          model.m >= 2):
            B = len(block.zeta)
            eta1, beta1, gamma1, _, pull1 = barrier_section_jets(
                model, block.zeta, z, directions=directions)
            _, _, gamma0, pull0 = bochner_martinelli_jets(block.zeta, z)
            run = homotopy._Run(block.zeta - z, beta1, gamma1,
                                homotopy._pivot(block.conormal.T))
            W = homotopy._fold_weights(cplx(B, n), block.conormal, 1)
            _, ends, dim, reduce = homotopy._kernel_quotient(
                W.T * run.scale, [gamma0, gamma1], run.kernel, run.row,
                n - 2)
            keep = np.arange(n) != run.pivot[:, None]
            for pullback, gamma, end in zip((pull0, pull1), (gamma0, gamma1),
                                            ends):
                A, x = cplx(n - 1, dim, B), cplx(B, n)
                got = pullback(x, homotopy._quotient_times(A, reduce, run.row),
                               np.sum(A * end, axis=(0, 1)))
                want = dense_pullback(pullback, gamma)(
                    x, quotient_scatter(A, reduce, keep))
                assert np.max(np.abs(got - want)) \
                    <= 1e-13 * np.max(np.abs(want))
            blocks += 1
        assert blocks == 2

    @pytest.mark.parametrize("which", ["primary", "secondary"])
    def test_default_t_rule_is_exact(self, which, request, monkeypatch):
        # the solution t-integrand has degree n - 2, so n // 2 Gauss nodes
        # agree with six nodes to round-off, for degree-1 and degree-2 input
        model = request.getfixturevalue(which)
        f = bundled_test_form(model)
        z = model.graph_point(np.array([0.05, -0.03, 0.02, 0.0]),
                              0.01 * np.ones(model.m))
        pair = [f, f.dbar_field()]
        default = apply_operator_multi(model, pair, [z, z],
                                       centered_grid(model, z))
        monkeypatch.setattr(homotopy, "_t_rule",
                            lambda n: tuple(zip(*gauss_legendre_01(6))))
        six = apply_operator_multi(model, pair, [z, z],
                                   centered_grid(model, z))
        for a, b in zip(default, six):
            scale = np.max(np.abs(b.ambient))
            assert np.max(np.abs(a.ambient - b.ambient)) < 1e-13 * scale

    def test_one_node_fewer_is_not_exact(self, secondary, monkeypatch):
        # n = 6: the degree-4 integrand needs 3 nodes; 2 integrate only up
        # to degree 3, so the degree count is tight
        f = bundled_test_form(secondary)
        z = secondary.graph_point(np.array([0.05, -0.03, 0.02, 0.0]),
                                  np.array([0.01, 0.01]))
        exact = apply_operator(secondary, f, z, centered_grid(secondary, z))
        monkeypatch.setattr(homotopy, "_t_rule",
                            lambda n: tuple(zip(*gauss_legendre_01(2))))
        short = apply_operator(secondary, f, z, centered_grid(secondary, z))
        scale = np.max(np.abs(exact.ambient))
        assert np.max(np.abs(short.ambient - exact.ambient)) > 1e-6 * scale

    @pytest.mark.parametrize("kind", ["solution", "obstruction"])
    @pytest.mark.parametrize("which", ["primary", "secondary"])
    def test_folded_weights_match_row_contraction(self, which, kind, request,
                                                  rng):
        # the per-chunk weights W give the chunk totals of the per-row
        # sign-table contraction of the dense coefficients, for degree-1 and
        # degree-2 input; random weighted field values give every table row
        # a nonzero term.  The contracted kernel, on the quotient by the
        # chunk's conormal, gives them too, up to the rounding floor of
        # rounding_floor: the degree-1 obstruction coefficients vanish
        # identically on both models, so there both totals are rounding
        # noise.
        model = request.getfixturevalue(which)
        z = model.graph_point(np.array([0.05, -0.03, 0.02, 0.0]),
                              0.01 * np.ones(model.m))
        grid = centered_grid(model, z, budget=2000)
        chunk = first_chunk(grid)
        det9 = homotopy._det9_blocks(chunk.conormal)
        dense, _ = oracle_node_geometry(grid, chunk)
        eta1, beta1, gamma1, _, _ = barrier_section_jets(model, chunk.zeta,
                                                         z)
        eta0, beta0, gamma0, _ = bochner_martinelli_jets(chunk.zeta, z)
        N = len(chunk.zeta)
        keep = rng.random(N) > 0.1
        for r in (1, 2):
            nJ = len(index_combinations(model.n, r))
            gw = (rng.standard_normal((N, nJ))
                  + 1j * rng.standard_normal((N, nJ))) * chunk.weight[:, None]
            r_out, _ = homotopy._field_plan(model.n, r, kind)
            table = contraction_table(model.n, r)
            W = homotopy._fold_weights(gw, fold_vector(det9, r), r) \
                * keep[:, None]
            if kind == "solution":
                t = 0.3
                coef = dense_coefficients(
                    eta0, (1 - t) * beta0 + t * beta1,
                    (1 - t) * gamma0 + t * gamma1, eta1 - eta0, r_out)
                contracted = folded_coefficients(
                    W, chunk.zeta - z, beta1, gamma1, r_out,
                    kernel=chunk.conormal, tau=eta1 - eta0,
                    start=(beta0, gamma0), t_rule=((t, 1.0),))
                floor = self.rounding_floor(
                    W, chunk.zeta - z, chunk.conormal, eta0, beta1, gamma1,
                    eta1 - eta0, r_out, ((t, 1.0),), (beta0, gamma0))
            else:
                coef = dense_coefficients(eta1, beta1, gamma1, None, r_out)
                contracted = folded_coefficients(
                    W, chunk.zeta - z, beta1, gamma1, r_out,
                    kernel=chunk.conormal)
                floor = self.rounding_floor(
                    W, chunk.zeta - z, chunk.conormal, eta1, beta1, gamma1,
                    None, r_out, ((1.0, 1.0),), None)
            folded = np.einsum("nm,nlm->l", W, coef)
            oracle = row_contraction(table, gw, coef, dense, keep)
            scale = np.max(np.abs(oracle))
            assert np.max(np.abs(folded - oracle)) <= 1e-13 * scale
            assert np.max(np.abs(contracted - oracle)) <= 1e-13 * scale + floor

    @pytest.mark.parametrize("which", ["primary", "secondary", "random"])
    def test_section_jets_satisfy_the_row_relations(self, which, request):
        # the premise of the n - 1 row kernel: with w = zeta - z, w^T eta =
        # 1 and w^T beta = w^T gamma = w^T tau = 0 on the row index, for the
        # euclidean and barrier jets, their interpolants at the t-nodes and
        # tau = eta1 - eta0, to 1e-12 of |w| times the node's largest jet
        # entry (of either section where the jet is an interpolant)
        model = (random_quadric(6, 2, np.random.default_rng(11))
                 if which == "random" else request.getfixturevalue(which))
        z = model.graph_point(np.array([0.05, -0.03, 0.02, 0.0]),
                              0.01 * np.ones(model.m))
        grid = centered_grid(model, z, budget=2000)
        chunk = first_chunk(grid)
        w = chunk.zeta - z
        euclid = bochner_martinelli_jets(chunk.zeta, z)[:3]
        barrier = barrier_section_jets(model, chunk.zeta, z)[:3]
        for j, (x0, x1) in enumerate(zip(euclid, barrier)):
            size = np.maximum(*(np.max(np.abs(x).reshape(len(x), -1), axis=1)
                                for x in (x0, x1)))
            scale = (np.linalg.norm(w, axis=1) * size).reshape(
                (-1,) + (1,) * (x0.ndim - 2))
            jets = [x0, x1] + [(1 - t) * x0 + t * x1
                               for t, _ in homotopy._t_rule(model.n)]
            targets = [1.0 if j == 0 else 0.0] * len(jets)
            if j == 0:
                jets, targets = jets + [x1 - x0], targets + [0.0]
            for x, target in zip(jets, targets):
                defect = np.einsum("Nk,Nk...->N...", w, x) - target
                assert np.all(np.abs(defect) <= 1e-12 * scale)

    @staticmethod
    def complement(w, x):
        """x (N, n, ...) projected on axis 1 onto the bilinear complement {y :
        w^T y = 0} along conj(w)."""
        u = w.conj() / np.sum(np.abs(w) ** 2, axis=1, keepdims=True)
        return x - u.reshape(u.shape + (1,) * (x.ndim - 2)) * np.einsum(
            "Nk,Nk...->N...", w, x)[:, None]

    def section_like_jets(self, w, rng, count):
        """Random eta and ``count`` random jets with the relations of the
        sections: eta shifted so that w^T eta = 1, and the columns of each
        jet projected by :meth:`complement`."""
        N, n = w.shape
        u = w.conj() / np.sum(np.abs(w) ** 2, axis=1, keepdims=True)

        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        eta = cplx(N, n)
        eta = eta + u * (1.0 - np.sum(w * eta, axis=1, keepdims=True))
        return [eta, self.complement(w, cplx(N, n))] + [
            self.complement(w, cplx(N, n, n)) for _ in range(count)]

    def check_contracted_kernel(self, n, kind, r, w_case, rng):
        """The contracted kernel against the dense determinants, with w and
        jets drawn as by :meth:`section_like_jets`: the weights of
        ``_fold_weights`` on random field values and a random conormal (the
        kernel passed), a keep mask and two t-nodes over 700 nodes.
        The pivot max |w_k| is unique ("random"), tied between two
        coordinates ("tie"), or w lies within 1e-8 of a coordinate axis
        ("near_axis")."""
        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        N = 700
        r_out, _ = homotopy._field_plan(n, r, kind)
        w = cplx(N, n)
        a, b = rng.integers(n, size=N), rng.integers(n - 1, size=N)
        b = b + (b >= a)                            # a second index, b != a
        nodes = np.arange(N)
        if w_case == "tie":
            w /= np.abs(w) * rng.uniform(1.0, 2.0, size=(N, n))
            w[nodes, a] = np.exp(2j * np.pi * rng.random(N))
            w[nodes, b] = w[nodes, a].conj()        # the same modulus, exactly
        elif w_case == "near_axis":
            w *= 1e-8 / np.linalg.norm(w, axis=1, keepdims=True)
            w[nodes, a] += np.exp(2j * np.pi * rng.random(N))
        eta, tau, beta, gamma, beta0, gamma0 = self.section_like_jets(
            w, rng, 4)
        conormal = cplx(N, n)
        gw = cplx(N, len(index_combinations(n, r)))
        W = homotopy._fold_weights(gw, conormal, r) \
            * (rng.random(N) > 0.2)[:, None]
        if kind == "solution":
            t_rule = ((0.2, 0.6), (0.7, 0.4))
            got = folded_coefficients(
                W, w, beta, gamma, r_out, kernel=conormal, tau=tau,
                start=(beta0, gamma0), t_rule=t_rule)
            coef = sum(weight * dense_coefficients(
                eta, (1 - t) * beta0 + t * beta, (1 - t) * gamma0 + t * gamma,
                tau, r_out) for t, weight in t_rule)
        else:
            got = folded_coefficients(W, w, beta, gamma, r_out,
                                                kernel=conormal)
            coef = dense_coefficients(eta, beta, gamma, None, r_out)
        want = np.einsum("nm,nlm->l", W, coef)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("n,kind,r", [
        (n, kind, r) for n in range(2, 8)
        for kind in ("solution", "obstruction")
        for r in range(kind == "solution", n)])
    def test_contracted_kernel_matches_dense_oracle(self, n, kind, r, rng):
        # every input degree down to r = n - 1, where no gamma column is
        # left (k = 0), on random w and jets with the section relations
        self.check_contracted_kernel(n, kind, r, "random", rng)

    @pytest.mark.parametrize("w_case", ["tie", "near_axis"])
    @pytest.mark.parametrize("n,kind,r", [
        (n, kind, r) for n in (2, 5, 6)
        for kind in ("solution", "obstruction")
        for r in range(kind == "solution", n)])
    def test_contracted_kernel_at_pivot_ties_and_near_axis(self, n, kind, r,
                                                           w_case, rng):
        self.check_contracted_kernel(n, kind, r, w_case, rng)

    @staticmethod
    def rounding_floor(W, w, kernel, eta, beta, gamma, tau, r_out, t_rule,
                       start, along=None):
        """eps * max over L of the sum over nodes, t-nodes and M of weight_t
        * |W[:, M]| * a bound of the Hadamard bound (the product of the
        column norms) of det[eta | beta_t L | gamma_t M | tau] as the kernel
        quotient reads it, the jets interpolated from ``start`` as in
        ``_folded_coefficients``: every gamma column by
        :func:`quotient_column_bound`.  |W| is floored at the smallest
        normal number: a subnormal weight carries an absolute error of the
        subnormal spacing, eps times that number.

        With ``along`` = (D tau, D gamma0, D gamma1), the derivatives along
        d directions, shapes (N, d, n) and (N, d, n, n), it is the floor of
        the derivatives of the degree-0 solution total (r_out = 0), by the
        product rule on the same bound, max over the directions."""
        N, n = eta.shape
        k = n - 1 - r_out - (tau is not None)
        pivots = quotient_pivots(W, w, kernel, k)
        size = np.sum(np.maximum(np.abs(W), np.finfo(float).tiny), axis=1)
        front = size * np.linalg.norm(eta, axis=1)
        best = 0.0
        for t, weight in t_rule:
            b, g = beta, gamma
            if start is not None:
                b, g = ((1 - t) * x0 + t * x1
                        for x0, x1 in zip(start, (beta, gamma)))
            bound = quotient_column_bound(g, *pivots)
            if along is None:
                folded = front * bound ** k * (
                    1.0 if tau is None else np.linalg.norm(tau, axis=1))
                b_norm = np.linalg.norm(b, axis=1)
                best = best + weight * np.array([
                    np.sum(folded * np.prod(b_norm[:, list(L)], axis=1))
                    for L in index_combinations(n, r_out)])
            else:                   # D (|tau| bound^k), per direction
                d_tau, d_gamma0, d_gamma1 = along
                d_bound = quotient_column_bound((1 - t) * d_gamma0
                                                + t * d_gamma1, *pivots)
                best = best + weight * np.sum(
                    (front * bound ** (k - 1))[:, None]
                    * (np.linalg.norm(d_tau, axis=2) * bound[:, None]
                       + k * np.linalg.norm(tau, axis=1)[:, None] * d_bound),
                    axis=0)
        return np.finfo(float).eps * np.max(best)

    @pytest.mark.parametrize("n,kind,r", [
        (n, kind, r) for n in range(2, 8)
        for kind in ("solution", "obstruction")
        for r in range(kind == "solution", n)]
        + [(n, "tangent", 1) for n in range(3, 8)])
    def test_kernel_quotient_matches_full_chain(self, n, kind, r, rng):
        # the contraction on the quotient by delta (and, for degree-1 input,
        # by *W) against the full-row chain of tests/oracles.py, on W of
        # _fold_weights with a rejection mask and two t-nodes.  "tangent"
        # is the solution kind with the d-bar, its section pullbacks linear
        # in random mixed-jet tensors with the relations of the sections.
        # Nodes of four sorts: random, zero field (W = 0, so *W = 0),
        # weights scaled by 2^-1030 into the subnormal range (*W then has a
        # subnormal pivot) and an exact tie |delta_a| = |delta_b| at the
        # pivot.  Each sort is also summed on its own; the zero-field nodes
        # give exactly 0
        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        N = 200
        tangent = kind == "tangent"
        kind = "solution" if tangent else kind
        r_out, _ = homotopy._field_plan(n, r, kind)
        w = cplx(N, n)
        eta, tau, beta, gamma, beta0, gamma0 = self.section_like_jets(
            w, rng, 4)
        sort = np.arange(N) % 4
        gw = cplx(N, len(index_combinations(n, r)))
        gw[sort == 1] = 0.0
        gw[sort == 2] *= 2.0 ** -1030
        # W is folded on the conormal, the kernel vector passed
        conormal = cplx(N, n)
        ties = np.flatnonzero(sort == 3)
        a = rng.integers(n, size=len(ties))
        b = (a + 1 + rng.integers(n - 1, size=len(ties))) % n
        conormal[ties] /= 2 * np.max(np.abs(conormal[ties]), axis=1,
                                     keepdims=True)
        conormal[ties, a] = np.exp(2j * np.pi * rng.random(len(ties)))
        conormal[ties, b] = conormal[ties, a].conj()
        W = homotopy._fold_weights(gw, conormal, r) \
            * (rng.random(N) > 0.1)[:, None]
        if kind == "solution":
            t_rule, start = ((0.2, 0.6), (0.7, 0.4)), (beta0, gamma0)
            kw = dict(tau=tau, start=start, t_rule=t_rule)
        else:
            t_rule, start, tau, kw = ((1.0, 1.0),), None, None, {}
        # D eta (N, d, n) and D gamma (N, d, n, n) of both sections along d
        # = 3 directions, w^T D eta = 0 and w^T D gamma = 0 on the row index
        d_jets = [(self.complement(w, cplx(N, n, 3)).transpose(0, 2, 1),
                   self.complement(w, cplx(N, n, 3, n)).transpose(0, 2, 1, 3))
                  for _ in range(2 * tangent)]
        for nodes in [sort >= 0] + [sort == i for i in range(4)]:
            part = {key: value if key == "t_rule" else (
                tuple(x[nodes] for x in value) if key == "start"
                else value[nodes]) for key, value in kw.items()}
            along = [(De[nodes], Dg[nodes]) for De, Dg in d_jets]
            if tangent:
                part["tangent"] = [
                    lambda x, times, _, De=De, Dg=Dg:
                    np.einsum("Nc,Nac->a", x, De) + np.einsum(
                        "Nsl,Nasl->a", applied_adjoint(times, *x.shape), Dg)
                    for De, Dg in along]
            got = folded_coefficients(
                W[nodes], w[nodes], beta[nodes], gamma[nodes], r_out,
                kernel=conormal[nodes], **part)
            part["tangent"] = along if tangent else None
            want = full_row_folded_coefficients(
                W[nodes], eta[nodes], beta[nodes], gamma[nodes], r_out,
                **part)
            (got, d_got), (want, d_want) = (
                (got, want) if tangent else ((got, 0.0), (want, 0.0)))
            assert got.shape == want.shape
            if np.all(sort[nodes] == 1):
                assert np.all(got == 0) and np.all(want == 0)
                assert np.all(d_got == 0) and np.all(d_want == 0)
                continue
            args = (W[nodes], w[nodes], conormal[nodes], eta[nodes],
                    beta[nodes], gamma[nodes],
                    None if tau is None else tau[nodes], r_out, t_rule,
                    None if start is None else tuple(x[nodes] for x in start))
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(
                np.abs(want)) + self.rounding_floor(*args)
            if tangent:
                (De0, Dg0), (De1, Dg1) = along
                floor = self.rounding_floor(*args, along=(De1 - De0, Dg0,
                                                          Dg1))
                assert np.max(np.abs(d_got - d_want)) <= 1e-13 * np.max(
                    np.abs(d_want)) + floor

    @pytest.mark.parametrize("which", ["primary", "secondary"])
    def test_reduced_kernel_matches_full_row_oracle(self, which, request,
                                                    rng):
        # the n - 1 row kernel against the full-row contraction of
        # tests/oracles.py on the section jets of one chunk: both kinds,
        # output degrees 0 and 1, and the conjugate-frame derivatives of the
        # degree-0 solution total, by the section pullbacks against the
        # contraction of the mixed-jet tensors.  W is that of _fold_weights
        # on random field values and the chunk's conormal, the kernel passed.
        # The degree-0 and degree-1 obstruction totals vanish identically on
        # these models, so they are held to the rounding floor of
        # rounding_floor instead
        model = request.getfixturevalue(which)
        z = model.graph_point(np.array([0.05, -0.03, 0.02, 0.0]),
                              0.01 * np.ones(model.m))
        grid = centered_grid(model, z, budget=2000)
        chunk = first_chunk(grid)
        N, n = chunk.zeta.shape
        w = chunk.zeta - z
        frame = fields.conjugate_frame_rows(model, z)
        eta1, beta1, gamma1, _, pull1 = barrier_section_jets(
            model, chunk.zeta, z)
        eta0, beta0, gamma0, pull0 = bochner_martinelli_jets(chunk.zeta, z)
        tensors = (euclidean_mixed_jets(chunk.zeta, z, frame),
                   barrier_mixed_jets(model, chunk.zeta, z, frame))
        t_rule = homotopy._t_rule(n)
        for kind in ("solution", "obstruction"):
            for r_out in (0, 1):
                r = r_out + (kind == "solution")
                nJ = len(index_combinations(n, r))
                W = homotopy._fold_weights(
                    rng.standard_normal((N, nJ))
                    + 1j * rng.standard_normal((N, nJ)), chunk.conormal, r)
                if kind == "solution":
                    args = (beta1, gamma1, r_out)
                    kw = dict(tau=eta1 - eta0, start=(beta0, gamma0),
                              t_rule=t_rule)
                    got = folded_coefficients(
                        W, w, *args, kernel=chunk.conormal, **kw,
                        tangent=(pull0, pull1) if r_out == 0 else None)
                    want = full_row_folded_coefficients(
                        W, eta0, *args, **kw,
                        tangent=tensors if r_out == 0 else None)
                    if r_out == 0:
                        (got, d_got), (want, d_want) = got, want
                        d_got = frame @ d_got
                        assert np.max(np.abs(d_got - d_want)) <= 1e-12 * \
                            np.max(np.abs(d_want))
                    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(
                        np.abs(want))
                else:
                    got = folded_coefficients(
                        W, w, beta1, gamma1, r_out, kernel=chunk.conormal)
                    want = full_row_folded_coefficients(W, eta1, beta1,
                                                        gamma1, r_out)
                    floor = self.rounding_floor(
                        W, w, chunk.conormal, eta1, beta1, gamma1, None,
                        r_out, ((1.0, 1.0),), None)
                    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(
                        np.abs(want)) + floor


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
