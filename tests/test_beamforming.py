import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavsense import (
    AoA,
    aoa_mesh,
    capon_beamformer,
    hpbw,
    ls_beamformer,
    steering_matrix,
    steering_vector,
)


def one(theta, phi):
    """A stack of one direction."""
    return AoA(theta=np.array([theta]), phi=np.array([phi]))


def random_aoa(rng, theta_max=math.pi / 2 * 0.999):
    return one(rng.uniform(0.0, theta_max), rng.uniform(0.0, 2 * math.pi))


def desired_response(mesh):
    """The LS design target of a stack of one mesh: 1 at the intended (first) mesh point, 0 elsewhere."""
    v = np.zeros(mesh.theta.size)
    v[0] = 1.0
    return v


def scale_free_residual(A, w):
    """min over complex c of ||c A w - v||^2 for the one-hot v at mesh point 0."""
    response = A @ w
    return 1.0 - abs(response[0]) ** 2 / np.vdot(response, response).real


def stacked(directions):
    """One AoA holding the angles of several stacks of one."""
    return AoA(theta=np.concatenate([d.theta for d in directions]), phi=np.concatenate([d.phi for d in directions]))


def row(stack: AoA, k: int) -> AoA:
    """Row k of a stack of directions or meshes, as a stack of one."""
    return AoA(stack.theta[k : k + 1], stack.phi[k : k + 1])


class TestSteeringVector:
    def test_boresight_is_all_ones(self):
        g = steering_vector(one(0.0, 1.234), 8)
        assert g.shape == (1, 64)
        assert np.allclose(g, 1.0)

    def test_hand_evaluated_ramps(self):
        # theta=pi/2, phi=pi/2: sin(theta)=1, sin(phi)=1, cos(phi)=0, so the
        # i-ramp alternates sign and the j-ramp stays at 1.
        g = steering_vector(one(math.pi / 2, math.pi / 2), 2).reshape(2, 2)
        assert g[0, 0] == pytest.approx(1.0)
        assert g[0, 1] == pytest.approx(1.0)
        assert g[1, 0] == pytest.approx(-1.0)
        assert g[1, 1] == pytest.approx(-1.0)

    def test_conjugate_under_azimuth_flip(self, rng):
        for _ in range(20):
            d = random_aoa(rng)
            flipped = AoA(d.theta, (d.phi + math.pi) % (2 * math.pi))
            assert np.allclose(steering_vector(flipped, 6), steering_vector(d, 6).conj())

    def test_unit_modulus_and_norm(self, rng):
        for n in (2, 5, 8):
            g = steering_vector(random_aoa(rng), n)[0]
            assert np.allclose(np.abs(g), 1.0)
            assert np.linalg.norm(g) == pytest.approx(n)
            assert g[0] == pytest.approx(1.0)

    def test_matrix_stacks_columns(self, rng):
        dirs = [random_aoa(rng) for _ in range(5)]
        G = steering_matrix(stacked(dirs), 4)
        assert G.shape == (16, 5)
        for h, d in enumerate(dirs):
            assert np.allclose(G[:, h], steering_vector(d, 4)[0])

    def test_stacked_directions_give_contiguous_rows(self, rng):
        dirs = [random_aoa(rng) for _ in range(5)]
        rows = steering_vector(stacked(dirs), 6)
        assert rows.shape == (5, 36) and rows.flags.c_contiguous
        for h, d in enumerate(dirs):
            assert rows[h].tobytes() == steering_vector(d, 6)[0].tobytes()

    def test_vectorized_matrix_matches_loop(self, rng):
        # Every column of the vectorized matrix is the steering vector of its
        # direction, here over a whole design mesh.
        mesh = aoa_mesh(random_aoa(rng), 5)
        G = steering_matrix(mesh, 5)
        assert G.shape == (25, mesh.theta.size)
        for h, (theta, phi) in enumerate(zip(mesh.theta[0], mesh.phi[0])):
            assert np.allclose(G[:, h], steering_vector(one(theta, phi), 5)[0], rtol=0.0, atol=1e-15)


class TestAoAMesh:
    def test_elevation_wrap_duplicates(self):
        mesh = aoa_mesh(one(0.3, 1.0), 3)
        assert np.allclose(mesh.theta[0, ::12], [0.3, 0.3 + math.pi / 4, 0.3])

    def test_azimuth_wrap_duplicates(self):
        mesh = aoa_mesh(one(0.5, 0.0), 2)
        expected = [(j * 2 * math.pi / 7) % (2 * math.pi) for j in range(8)]
        assert np.allclose(mesh.phi[0, :8], expected)
        assert mesh.phi[0, 7] == pytest.approx(0.0)

    def test_cardinality(self):
        for n in (2, 3, 8):
            mesh = aoa_mesh(one(0.2, 0.4), n)
            assert mesh.theta.shape == mesh.phi.shape == (1, 4 * n * n)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_stacked_directions_give_rows_of_single_meshes(self, rng, n):
        dirs = [random_aoa(rng) for _ in range(6)] + [one(0.0, 0.0), one(-0.0, 1.0), one(math.pi / 2, math.pi)]
        mesh = aoa_mesh(stacked(dirs), n)
        assert mesh.theta.shape == mesh.phi.shape == (len(dirs), 4 * n * n)
        for k, d in enumerate(dirs):
            single = aoa_mesh(d, n)
            assert single.theta.shape == (1, 4 * n * n)
            assert mesh.theta[k].tobytes() == single.theta.tobytes()
            assert mesh.phi[k].tobytes() == single.phi.tobytes()

    def test_first_point_is_intended_with_unit_response(self):
        mesh = aoa_mesh(one(0.7, 2.2), 4)
        assert mesh.theta[0, 0] == pytest.approx(0.7)
        assert mesh.phi[0, 0] == pytest.approx(2.2)


class TestLsBeamformer:
    def test_boresight_collinear_with_ones(self):
        # All 16 mesh rows coincide at theta=0 for n=2; the loaded normal
        # equations pick the all-ones direction (loading limits accuracy).
        w = ls_beamformer(aoa_mesh(one(0.0, 0.0), 2), 2)
        assert w.shape == (1, 4)
        assert np.allclose(w, 0.5, atol=1e-4)

    def test_unit_norm(self, rng):
        for _ in range(20):
            w = ls_beamformer(aoa_mesh(random_aoa(rng), 8), 8)
            assert abs(np.linalg.norm(w) - 1.0) < 1e-9

    def test_residual_beats_feasible_baseline(self, rng):
        for _ in range(20):
            d = random_aoa(rng)
            mesh = aoa_mesh(d, 8)
            w = ls_beamformer(mesh, 8)[0]
            A = steering_matrix(mesh, 8).conj().T
            baseline = steering_vector(d, 8)[0] / 8.0
            v = desired_response(mesh)
            res_ls = np.sum(np.abs(A @ w - v) ** 2)
            res_base = np.sum(np.abs(A @ baseline - v) ** 2)
            assert res_ls <= res_base

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 12])
    def test_fit_residual_matches_dense_oracle(self, rng, n):
        # The least-squares solution is unique, so the unit-norm weights equal
        # the normalized dense lstsq solution.
        for _ in range(10):
            mesh = aoa_mesh(random_aoa(rng), n)
            w = ls_beamformer(mesh, n)[0]
            A = steering_matrix(mesh, n).conj().T
            oracle, *_ = np.linalg.lstsq(A, desired_response(mesh).astype(complex), rcond=None)
            assert np.max(np.abs(w - oracle / np.linalg.norm(oracle))) < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
    def test_mirrored_azimuth_gives_conjugate_design(self, rng, n):
        # Azimuth phi + pi conjugates every steering entry of the mesh while the
        # desired response stays real, so the design is conjugated; build_tables
        # designs one offset of each mirrored pair and conjugates it for the other.
        for _ in range(10):
            d = random_aoa(rng)
            conjugated = ls_beamformer(aoa_mesh(d, n), n)[0].conj()
            mesh = aoa_mesh(AoA(d.theta, (d.phi + math.pi) % (2 * math.pi)), n)
            assert np.max(np.abs(ls_beamformer(mesh, n)[0] - conjugated)) < 1e-12
            A = steering_matrix(mesh, n).conj().T
            oracle, *_ = np.linalg.lstsq(A, desired_response(mesh).astype(complex), rcond=None)
            assert np.max(np.abs(conjugated - oracle / np.linalg.norm(oracle))) < 1e-10

    def test_fit_at_side_16_matches_dense_oracle(self, rng):
        # At n = 16 the normal matrix conditions the weights to about 1e-9 in
        # any kernel, so the check is the fit: the residual after the best
        # complex rescaling equals the dense lstsq solution's.
        for _ in range(3):
            mesh = aoa_mesh(random_aoa(rng), 16)
            A = steering_matrix(mesh, 16).conj().T
            oracle, *_ = np.linalg.lstsq(A, desired_response(mesh).astype(complex), rcond=None)
            expected = scale_free_residual(A, oracle)
            assert abs(scale_free_residual(A, ls_beamformer(mesh, 16)[0]) - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("field", ["theta", "phi"])
    def test_non_finite_mesh_angle_raises(self, field):
        mesh = aoa_mesh(one(0.4, 1.0), 4)
        getattr(mesh, field)[0, 5] = np.nan
        with pytest.raises(ValueError):
            ls_beamformer(mesh, 4)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["theta", "phi"])
    def test_non_finite_angle_in_a_stack_raises(self, rng, field, value):
        # One bad angle in any mesh of a stack, first, middle or last, fails the whole call.
        for k in (0, 3, 6):
            mesh = aoa_mesh(stacked([random_aoa(rng) for _ in range(7)]), 3)
            getattr(mesh, field)[k, 17] = value
            with pytest.raises(ValueError):
                ls_beamformer(mesh, 3)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_stacked_design_equals_single_designs(self, rng, n):
        # One call over K meshes gives the rows of K stacks of one, bit for bit,
        # boresight and the dense least-squares directions near it included.
        dirs = [random_aoa(rng) for _ in range(7)] + [one(0.0, 0.0), one(-0.0, 1.0), one(1e-6, 2.0), one(0.02, 5.0)]
        mesh = aoa_mesh(stacked(dirs), n)
        weights = ls_beamformer(mesh, n)
        assert weights.shape == (len(dirs), n * n)
        for k in range(len(dirs)):
            single = ls_beamformer(row(mesh, k), n)
            assert single.shape == (1, n * n)
            assert weights[k].tobytes() == single.tobytes()

    def test_refinement_never_worse_than_plain_solve(self, rng):
        d = random_aoa(rng)
        mesh = aoa_mesh(d, 8)
        A = steering_matrix(mesh, 8).conj().T

        v = np.zeros(A.shape[0], dtype=complex)
        v[0] = 1.0
        plain = scipy.linalg.cho_solve(scipy.linalg.cho_factor(A.conj().T @ A), A.conj().T @ v)
        plain /= np.linalg.norm(plain)
        refined = ls_beamformer(mesh, 8)[0]
        assert scale_free_residual(A, refined) <= scale_free_residual(A, plain) + 1e-12


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(st.integers(2, 4), st.floats(0.0, 0.05), st.floats(0.0, 2 * math.pi, exclude_max=True))
# n = 2 at theta = 2e-6, where the normal matrix's condition number is about 1e11.
@example(2, 2e-6, 0.38)
@example(2, 0.0, 0.0)
def test_ls_fit_near_boresight_equals_dense_least_squares(n, theta, phi):
    # Near boresight the n = 2 mesh holds one elevation and the normal
    # equations lose the weights; the design's fit still equals lstsq's. The
    # fit is evaluated from A w, which cancels to about ||A|| / ||A w|| times
    # the rounding of w, so the bound grows with that ratio.
    mesh = aoa_mesh(one(theta, phi), n)
    A = steering_matrix(mesh, n).conj().T
    oracle, *_ = np.linalg.lstsq(A, desired_response(mesh).astype(complex), rcond=None)
    w = ls_beamformer(mesh, n)[0]
    cancellation = np.linalg.norm(A) / np.linalg.norm(A @ w)
    gap = abs(scale_free_residual(A, w) - scale_free_residual(A, oracle / np.linalg.norm(oracle)))
    assert gap <= 1e-12 + 1e-14 * cancellation


class TestCaponBeamformer:
    def test_boresight_uniform_weights(self):
        w = capon_beamformer(one(0.0, 0.0), 8)
        assert w.shape == (1, 64)
        assert np.allclose(w, 1.0 / 64.0)

    def test_distortionless_constraint(self, rng):
        for _ in range(100):
            d = random_aoa(rng)
            w = capon_beamformer(d, 8)[0]
            gain = w.conj() @ steering_vector(d, 8)[0]
            assert abs(gain - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [2, 5, 8, 12])
    def test_stacked_design_equals_single_designs(self, rng, n):
        # One call over H directions gives the rows of H stacks of one, bit for bit.
        dirs = [random_aoa(rng) for _ in range(7)] + [one(0.0, 0.0), one(-0.0, 1.0), one(math.pi / 2, math.pi)]
        weights = capon_beamformer(stacked(dirs), n)
        assert weights.shape == (len(dirs), n * n)
        for h, d in enumerate(dirs):
            single = capon_beamformer(d, n)
            assert single.shape == (1, n * n)
            assert weights[h].tobytes() == single.tobytes()

    def test_main_lobe_dominance(self, rng):
        # Gain magnitude at the intended AoA is globally maximal; check it
        # against mesh AoAs more than one HPBW away for moderate elevations.
        width = hpbw(8)
        for _ in range(10):
            d = random_aoa(rng, theta_max=math.pi / 3)
            w = capon_beamformer(d, 8)[0]
            mesh = aoa_mesh(d, 8)
            gains = np.abs(w.conj() @ steering_matrix(mesh, 8))
            far = np.hypot(mesh.theta[0] - d.theta, mesh.phi[0] - d.phi) > width
            assert gains[0] >= np.max(gains[far]) - 1e-12


def test_global_phase_immunity(rng):
    # Shifting the steering convention by a constant phase leaves |pattern|
    # untouched.
    d = random_aoa(rng)
    others = [random_aoa(rng) for _ in range(6)]
    G = steering_matrix(stacked(others), 8)
    w = capon_beamformer(d, 8)[0]
    shift = np.exp(1j * 0.7)
    assert np.allclose(np.abs((w * shift).conj() @ (G * shift)), np.abs(w.conj() @ G))
