"""Exact U(d) and O(m) equivariance of the operators on the bundled models.

For U unitary on C^d, O orthogonal on R^m and Ũ = diag(U, O), z -> Ũz is a
Euclidean isometry that maps the quadric with Levi matrices H_k onto the
one with H'_k = sum_l O_kl U H_l U^H.  With O = I_m the rotated models
have complex Levi matrices, so the whole operator path runs in complex
arithmetic.  With U = I_d and m = 2, ρ' = Oρ: the level set is mapped onto
itself, the level direction turns as σ' = Oσ, and so do the barrier's
direction θ, its derivative dθ and the frames of a chunk's direction
table.  A (0, r) form f is carried along as f'(y) = Λ^r Ũ f(Ũ^H y) (its
coefficients over increasing r-tuples, by the r-th compound matrix), the
evaluation point as Ũz, and the node stream by turning the z' offsets of
its parameters by U and the u offsets and the direction table by O, so
every node of the rotated stream is Ũ times the original node.  The
operators then commute with Ũ to round-off: R'(f')(Ũz) = Λ^(r-1) Ũ R(f)(z),
H'(f')(Ũz) = Λ^r Ũ H(f)(z).

The comparison is of ambient vectors.  The identity residual is a max-abs
over frame components, which a unitary change of frame does not preserve,
and H f on degree-1 input below q is round-off zero, which shows nothing.
"""

import numpy as np
import pytest

from crhomotopy._util import index_combinations
from crhomotopy.barrier import barrier_jets, level_set_blocks
from crhomotopy.fields import FormField, bundled_test_form
from crhomotopy.geometry import ManifoldModel
from crhomotopy.homotopy import apply_operator, apply_operator_multi
from crhomotopy.quadrature import QuadratureGrid
from oracles import random_unitary, rotated_model

# relative gap of the rotated operator values: the rotation changes only
# the order of floating-point operations, at most 1.2e-14 measured on the
# two models under U(d) and 6.0e-15 under O(2) (a transposed Levi pencil
# gives gaps of 0.35 and more, a direction-reversed one about 1.0)
EQUIVARIANCE_RTOL = 1e-12


def compound(mat, r):
    """The r-th compound matrix: minors of ``mat`` over increasing
    r-tuples, the action of ``mat`` on (0, r) form coefficients."""
    combos = index_combinations(mat.shape[0], r)
    return np.array([[np.linalg.det(mat[np.ix_(rows, cols)])
                      for cols in combos] for rows in combos])


def rotated_form(model, field, ambient):
    """f'(y) = Λ^r Ũ f(Ũ^H y), with its d-bar by Λ^(r+1) Ũ; the original
    coefficients are read on the original model."""
    back = ambient.conj()        # rows y -> rows Ũ^H y
    lift, dlift = (compound(ambient, field.degree).T,
                   compound(ambient, field.degree + 1).T)
    return FormField(
        n=field.n, degree=field.degree,
        fn=lambda _, y: field.values(model, y @ back) @ lift,
        dbar_fn=lambda _, y: field.dbar_fn(model, y @ back) @ dlift)


def rotated_grid(grid, model, U, O):
    """The rotated model's grid whose every node is diag(U, O) times the
    node of ``grid``: the centre, the z' offsets of the sampled parameters
    turned by U and the u offsets and each chunk's direction table by O;
    the offsets' norms, so the weights, are unchanged."""
    d, m = model.tangential_dim, model.m
    out = QuadratureGrid(model=model, epsilon=grid.epsilon,
                         budget=grid.budget, mode=grid.mode, seed=grid.seed,
                         center_zp=U @ grid.center_zp,
                         center_u=O @ grid.center_u,
                         box_radius=grid.box_radius)
    sample = out._sample_params

    def rotated_params(rng, count):
        p, directions, index, weight = sample(rng, count)
        offsets = (p[:, 0:2 * d:2] + 1j * p[:, 1:2 * d:2]) @ U.T
        p = p.copy()
        p[:, 0:2 * d:2], p[:, 1:2 * d:2] = offsets.real, offsets.imag
        p[:, 2 * d:] = p[:, 2 * d:] @ O.T
        return p, directions @ O.T, index, weight

    out._sample_params = rotated_params
    return out


def operator_values(model, f, z, grid):
    """R_1 f with its ambient d-bar, R_2 dbar f and H dbar f at z, as the
    ambient vectors (R_1 f, dbar R_1 f, R_2 dbar f, H dbar f)."""
    df = f.dbar_field()
    r1, r2 = apply_operator_multi(model, [f, df], [z, z], grid,
                                  kind="solution", _dbar=[True, False])
    h2 = apply_operator(model, df, z, grid, kind="obstruction")
    return ((r1.ambient, r1.dbar, r2.ambient, h2.ambient),
            (r1.rejected, r2.rejected, h2.rejected))


def block_rotation(U, O):
    """Ũ = diag(U, O) on C^n."""
    d, m = len(U), len(O)
    ambient = np.zeros((d + m, d + m), dtype=complex)
    ambient[:d, :d], ambient[d:, d:] = U, O
    return ambient


def rotation(model):
    """U (d x d, seeded) and O = I_m."""
    return random_unitary(model.tangential_dim, seed=11), np.eye(model.m)


def level_rotation(model, reflect):
    """U = I_d and O a rotation of R^2, or a rotation times a reflection."""
    angle = 0.7
    O = np.array([[np.cos(angle), -np.sin(angle)],
                  [np.sin(angle), np.cos(angle)]])
    if reflect:
        O = O @ np.diag([1.0, -1.0])
    return np.eye(model.tangential_dim), O


def rotation_gaps(model, U, O):
    """Relative gaps between the rotated model's operator values at Ũz and
    the original values mapped by Λ^r Ũ, Ũ = diag(U, O), by name, and
    whether both runs rejected the same nodes."""
    d, m = model.tangential_dim, model.m
    ambient = block_rotation(U, O)
    zp = (0.05 * np.cos(np.arange(1, d + 1))
          + 0.03j * np.sin(np.arange(1, d + 1)))
    z = model.graph_point(zp, 0.01 * np.ones(m))
    grid = QuadratureGrid(model=model, epsilon=0.1, budget=10_000,
                          mode="mc-shell", seed=5, center_zp=zp,
                          center_u=0.01 * np.ones(m))
    f = bundled_test_form(model)
    want, want_rejected = operator_values(model, f, z, grid)

    rotated = rotated_model(model, U, O)
    got, got_rejected = operator_values(
        rotated, rotated_form(model, f, ambient), ambient @ z,
        rotated_grid(grid, rotated, U, O))

    # R_1 f is a function, its d-bar a (0, 1) form, R_2 dbar f a (0, 1)
    # form and H dbar f a (0, 2) form
    gaps = {}
    for name, value, rotated_value, r in zip(
            ("R1 f", "dbar R1 f", "R2 dbar f", "H dbar f"), want, got,
            (0, 1, 1, 2)):
        mapped = compound(ambient, r) @ value
        gaps[name] = (np.max(np.abs(rotated_value - mapped))
                      / np.max(np.abs(mapped)))
    return gaps, got_rejected == want_rejected


@pytest.mark.parametrize("which", ["primary", "secondary"])
def test_rotation_maps_quadric_onto_rotated_model(which, request):
    # the set-up the operator comparison rests on: Ũ carries graph points
    # to graph points of the rotated model, its holomorphic gradients
    # transform as covectors and its Levi pencil is unitarily similar
    model = request.getfixturevalue(which)
    d, m = model.tangential_dim, model.m
    U, O = rotation(model)
    ambient = block_rotation(U, O)
    rotated = rotated_model(model, U, O)
    rng = np.random.default_rng(2)
    zp = 0.1 * (rng.standard_normal((20, d))
                + 1j * rng.standard_normal((20, d)))
    u = 0.1 * rng.standard_normal((20, m))
    z = model.graph_point(zp, u)
    y = rotated.graph_point(zp @ U.T, u)
    np.testing.assert_allclose(y, z @ ambient.T, rtol=0, atol=1e-14)
    assert np.max(rotated.defining_values(z @ ambient.T)[1]) < 1e-14
    np.testing.assert_allclose(rotated.holo_gradients(y),
                               model.holo_gradients(z) @ ambient.conj().T,
                               rtol=0, atol=1e-14)
    thetas = rng.standard_normal((8, m))
    np.testing.assert_allclose(
        rotated.levi_pencil(thetas),
        U @ model.levi_pencil(thetas) @ U.conj().T, rtol=0, atol=1e-13)


@pytest.mark.parametrize("which", ["primary", "secondary"])
def test_operators_commute_with_unitary_rotation(which, request):
    model = request.getfixturevalue(which)
    U, O = rotation(model)
    assert np.iscomplexobj(rotated_model(model, U, O).hermitian_stack)
    gaps, same_rejected = rotation_gaps(model, U, O)
    assert same_rejected
    for name, gap in gaps.items():
        assert gap <= EQUIVARIANCE_RTOL, \
            f"{which} {name}: relative gap {gap:.3g}"


@pytest.mark.parametrize("which", ["primary", "secondary"])
def test_transposed_pencil_breaks_equivariance(which, request, monkeypatch):
    # negative control: the bundled Levi matrices are real symmetric, so a
    # transposed pencil changes only the rotated model, whose pencil is
    # then U conj(H) U^H instead of U H U^H; every compared value must
    # see it
    model = request.getfixturevalue(which)
    pencil = ManifoldModel.levi_pencil
    monkeypatch.setattr(ManifoldModel, "levi_pencil",
                        lambda self, thetas: np.swapaxes(
                            pencil(self, thetas), -1, -2))
    gaps, _ = rotation_gaps(model, *rotation(model))
    assert min(gaps.values()) > 1e3 * EQUIVARIANCE_RTOL, gaps


LEVEL_ROTATIONS = pytest.mark.parametrize("reflect", [False, True],
                                          ids=["rotation", "reflection"])


@LEVEL_ROTATIONS
def test_level_rotation_turns_stream_and_directions(secondary, reflect):
    # the set-up of the O(2) comparison on sig22_n6m2: every node of the
    # turned stream is Ũ times the original node, and the directions the
    # stream hands the barrier turn with it: theta' = O theta, rho' = rho,
    # G' = G on the z'-block, dG'_k = sum_l O_kl dG_l, dtheta' = O dtheta
    # Ũ^T, so Phi' = Phi
    model = secondary
    U, O = level_rotation(model, reflect)
    ambient = block_rotation(U, O)
    rotated = rotated_model(model, U, O)
    zp = np.array([0.05, -0.03j, 0.02, 0.01 + 0.01j])
    z = model.graph_point(zp, np.array([0.01, -0.02]))
    grid = QuadratureGrid(model=model, epsilon=0.1, budget=1200, seed=5,
                          center_zp=zp, center_u=np.array([0.01, -0.02]))
    for (block, directions), (turned, turned_directions) in zip(
            level_set_blocks(model, grid, True),
            level_set_blocks(rotated, rotated_grid(grid, rotated, U, O),
                             True)):
        np.testing.assert_allclose(turned.zeta, block.zeta @ ambient.T,
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(turned.conormal,
                                   block.conormal @ ambient.T,
                                   rtol=0, atol=1e-14)
        assert np.array_equal(turned.weight, block.weight)
        theta, rho, G, dG = directions
        turned_theta, turned_rho, turned_G, turned_dG = turned_directions
        np.testing.assert_allclose(turned_theta, theta @ O.T,
                                   rtol=0, atol=1e-15)
        assert turned_rho == rho
        np.testing.assert_allclose(turned_G, G, rtol=0, atol=1e-13)
        np.testing.assert_allclose(
            turned_dG, np.einsum("kl,Nlij->Nkij", O, dG),
            rtol=0, atol=1e-12 * np.max(np.abs(dG)))
        jets = barrier_jets(model, block.zeta, z, directions=directions)
        turned_jets = barrier_jets(rotated, turned.zeta, ambient @ z,
                                   directions=turned_directions)
        np.testing.assert_allclose(
            turned_jets.dtheta, O @ jets.dtheta @ ambient.T.real,
            rtol=0, atol=1e-12 * np.max(np.abs(jets.dtheta)))
        np.testing.assert_allclose(turned_jets.Phi, jets.Phi, rtol=1e-12)


@LEVEL_ROTATIONS
def test_operators_commute_with_level_rotation(secondary, reflect):
    gaps, same_rejected = rotation_gaps(secondary,
                                        *level_rotation(secondary, reflect))
    assert same_rejected
    for name, gap in gaps.items():
        assert gap <= EQUIVARIANCE_RTOL, \
            f"{name}: relative gap {gap:.3g}"


@LEVEL_ROTATIONS
def test_reversed_directions_break_level_equivariance(secondary, reflect,
                                                      monkeypatch):
    # negative control: a pencil that reads theta in reverse order is
    # O(2)-equivariant only for the O that commute with the reversal, which
    # the test's rotation and reflection do not; every compared value must
    # see it
    pencil = ManifoldModel.levi_pencil
    monkeypatch.setattr(ManifoldModel, "levi_pencil",
                        lambda self, thetas: pencil(self, thetas[..., ::-1]))
    gaps, _ = rotation_gaps(secondary, *level_rotation(secondary, reflect))
    assert min(gaps.values()) > 1e3 * EQUIVARIANCE_RTOL, gaps
