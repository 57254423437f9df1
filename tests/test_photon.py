import math

import numpy as np
import pytest

from boostlink.errors import DomainError
from boostlink.lorentz import aberrate, boost_z, polar_angles, unit_vectors
from boostlink.photon import check_photons, check_polarizations, linear_basis
from boostlink.quantum import trace_distances
from boostlink.states import pair_amplitudes


def rotation_oracle(theta, phi):
    """Explicit R_z(phi) @ R_y(theta), written out independently."""
    ry = np.array(
        [
            [math.cos(theta), 0.0, math.sin(theta)],
            [0.0, 1.0, 0.0],
            [-math.sin(theta), 0.0, math.cos(theta)],
        ]
    )
    rz = np.array(
        [
            [math.cos(phi), -math.sin(phi), 0.0],
            [math.sin(phi), math.cos(phi), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    return rz @ ry


def angle_form_basis(theta, phi):
    """The h and v vectors at directions (theta, phi) from the closed form of
    R_z(phi) R_y(theta) R_z(-phi) in angles, with k = cos(theta) - 1 =
    -2 sin^2(theta/2):

        h = (1 + k cos^2(phi), k sin(phi) cos(phi), -sin(theta) cos(phi))
        v = (k sin(phi) cos(phi), 1 + k sin^2(phi), -sin(theta) sin(phi))

    each (N, 3) for 1-D angles.  A reference written independently of the
    unit-vector kernel."""
    st, k = np.sin(theta), -2.0 * np.sin(0.5 * np.asarray(theta)) ** 2
    cp, sp = np.cos(phi), np.sin(phi)
    ksc = k * sp * cp
    h = np.array([1.0 + k * cp * cp, ksc, -st * cp]).T
    v = np.array([ksc, 1.0 + k * sp * sp, -st * sp]).T
    return h, v


def half_angle_aberration(theta, phi, beta):
    """Unit vectors at the aberrated directions from the half-angle form
    tan(theta'/2) = sqrt((1 + beta)/(1 - beta)) tan(theta/2), phi unchanged."""
    stretch = math.sqrt((1.0 + beta) / (1.0 - beta))
    half = 0.5 * np.asarray(theta)
    return unit_vectors(2.0 * np.arctan2(stretch * np.sin(half), np.cos(half)), phi)


def angle_grid():
    thetas = np.linspace(0.1, math.pi - 0.1, 7)
    phis = np.linspace(0.0, 2 * math.pi, 9, endpoint=False)
    return [(t, p) for t in thetas for p in phis]


def basis_at(n):
    """The h and v vectors at the unit vector ``n``, from one per-point call
    of the stacked kernel."""
    hv = linear_basis(*np.asarray(n, dtype=float)[:, None])
    return hv[:3, 0], hv[3:, 0]


def direction(theta, phi):
    """Unit vector along the validated angles (theta, phi)."""
    return unit_vectors(*polar_angles(theta, phi))


def photon(theta, phi):
    """Unit-energy null momentum (t, x, y, z) along (theta, phi)."""
    return np.concatenate([[1.0], direction(theta, phi)])


def basis(theta, phi):
    """The h and v vectors at the direction (theta, phi)."""
    return basis_at(direction(theta, phi))


def boosted(theta, phi, beta: float):
    """A photon along (theta, phi) boosted along z: its momentum, and the h
    and v vectors at its aberrated direction."""
    momentum = boost_z(beta) @ photon(theta, phi)
    return momentum, basis_at(aberrate(direction(theta, phi)[None], beta)[0])


class TestLinearPolarization:
    def test_forward_axis_h(self):
        h, _ = basis(0.0, 0.0)
        assert np.allclose(h, [1, 0, 0], atol=1e-15)

    def test_forward_axis_v(self):
        _, v = basis(0.0, 0.0)
        assert np.allclose(v, [0, 1, 0], atol=1e-15)

    def test_equatorial_h_points_down(self):
        h, _ = basis(math.pi / 2, 0.0)
        assert np.allclose(h, [0, 0, -1], atol=1e-12)

    def test_matches_rotation_oracle(self):
        for theta, phi in angle_grid():
            r = rotation_oracle(theta, phi)
            h, v = basis(theta, phi)
            assert np.allclose(h, r @ [math.cos(phi), -math.sin(phi), 0.0], atol=1e-12)
            assert np.allclose(v, r @ [math.sin(phi), math.cos(phi), 0.0], atol=1e-12)

    def test_h_v_orthogonal(self):
        for theta, phi in angle_grid():
            h, v = basis(theta, phi)
            assert abs(np.vdot(h, v)) <= 1e-12


class TestInvariants:
    def test_transversality_and_norm_after_boost(self):
        for theta, phi in angle_grid():
            for beta in (1e-5, 0.3, -0.6):
                momentum, (h, _) = boosted(theta, phi, beta)
                spatial = momentum[1:]
                assert abs(np.linalg.norm(h) - 1.0) <= 1e-12
                assert abs(np.dot(h, spatial / np.linalg.norm(spatial))) <= 1e-12

    def test_photon_state_rejects_mismatched_direction(self):
        momentum = photon(1.0, 0.0)
        wrong = direction(1.2, 0.0)
        with pytest.raises(DomainError):
            check_photons(momentum[None], wrong[None])


class TestBoostPhoton:
    def test_zero_velocity_identity(self):
        momentum, (_, v) = boosted(0.9, 2.2, 0.0)
        assert np.allclose(momentum, photon(0.9, 2.2), atol=1e-15)
        assert np.allclose(v, basis(0.9, 2.2)[1], atol=1e-15)

    def test_small_boost_moves_equatorial_photon(self):
        beta = 1e-5
        x, y, z = aberrate(direction(math.pi / 2, 0.0)[None], beta)[0]
        theta = math.atan2(math.hypot(x, y), z)
        assert theta == pytest.approx(math.pi / 2 + beta, rel=1e-4)

    def test_direction_follows_aberration_map(self):
        # the boosted momentum points along the closed-form aberrated direction
        rng = np.random.default_rng(3)
        for _ in range(30):
            theta, phi = rng.uniform(0.05, math.pi - 0.05), rng.uniform(0, 2 * math.pi)
            beta = rng.uniform(-0.8, 0.8)
            (_, x, y, z), _ = boosted(theta, phi, beta)
            x_e, y_e, z_e = aberrate(direction(theta, phi)[None], beta)[0]
            expected = math.atan2(math.hypot(x_e, y_e), z_e)
            assert math.atan2(math.hypot(x, y), z) == pytest.approx(expected, abs=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            theta, phi = rng.uniform(0.1, math.pi - 0.1), rng.uniform(0, 2 * math.pi)
            beta = rng.uniform(-0.7, 0.7)
            there = aberrate(direction(theta, phi)[None], beta)
            back = boost_z(-beta) @ boost_z(beta) @ photon(theta, phi)
            assert np.allclose(back, photon(theta, phi), atol=1e-9)
            assert np.allclose(
                basis_at(aberrate(there, -beta)[0])[0], basis(theta, phi)[0], atol=1e-9
            )

    def test_superluminal_rejected(self):
        with pytest.raises(DomainError):
            boosted(1.0, 0.0, 1.0)


class TestSinglePhotonErrorLaw:
    def test_trace_distance_matches_small_velocity_law(self):
        # Trace distance between a photon's polarization and its boosted self
        # follows beta*sin(theta)*|cos(phi)| for the h label at small beta.
        beta = 1e-5
        for theta in np.linspace(0.3, 2.8, 8):
            for phi in np.linspace(0.0, 2 * math.pi, 12, endpoint=False):
                expected = beta * math.sin(theta) * abs(math.cos(phi))
                if expected < 0.05 * beta:
                    continue  # skip zeros of the formula
                eps, _ = basis(theta, phi)
                _, (eps_b, _) = boosted(theta, phi, beta)
                rho_s = np.outer(eps, np.conj(eps))
                rho_a = np.outer(eps_b, np.conj(eps_b))
                numeric = float(trace_distances(rho_s[None], rho_a[None])[0])
                # The overlap route computes sqrt(1 - |c|^2) with |c|^2 within
                # ~1e-12 of 1, so only relative agreement is meaningful here.
                overlap_formula = math.sqrt(max(0.0, 1.0 - abs(np.vdot(eps, eps_b)) ** 2))
                assert numeric == pytest.approx(overlap_formula, rel=1e-3)
                assert numeric == pytest.approx(expected, rel=0.01)


class TestStackedChecks:
    """A stack with one corrupted entry fails with the message the same check
    gives for that entry alone."""

    THETA = np.linspace(0.2, 2.9, 6)
    PHI = np.linspace(0.1, 6.0, 6)

    def stack(self):
        normals = unit_vectors(self.THETA, self.PHI)
        return linear_basis(*normals.T)[:3].T.astype(complex), normals

    @staticmethod
    def message(check, *stacks):
        with pytest.raises(DomainError) as err:
            check(*stacks)
        return str(err.value)

    def test_non_unit_vector(self):
        eps, normals = self.stack()
        eps[3] *= 1.001
        expected = self.message(check_polarizations, eps[3:4], normals[3:4])
        assert self.message(check_polarizations, eps, normals) == expected
        assert "unit norm" in expected

    def test_non_transverse_vector(self):
        eps, normals = self.stack()
        tilted = eps[3] + 1e-6 * normals[3]
        eps[3] = tilted / np.linalg.norm(tilted)
        expected = self.message(check_polarizations, eps[3:4], normals[3:4])
        assert self.message(check_polarizations, eps, normals) == expected
        assert "transverse" in expected

    def test_nan_polarization_rejected(self):
        eps, normals = self.stack()
        eps[3, 0] = math.nan
        assert "unit norm" in self.message(check_polarizations, eps, normals)
        # a NaN direction passes the norm check and must fail transversality
        normals[2] = math.nan
        eps = linear_basis(*unit_vectors(self.THETA, self.PHI).T)[:3].T
        assert "transverse" in self.message(check_polarizations, eps, normals)

    def test_backward_pole_pair_rejected(self):
        # the basis at n = -z exactly is NaN; the pair amplitude must refuse it
        with pytest.warns(RuntimeWarning), pytest.raises(DomainError, match="unit norm"):
            pair_amplitudes(np.array([[0.0, 0.0, -1.0]]), np.array([[0.0, 0.0, 1.0]]))

    def test_nan_direction_rejected_by_photon_check(self):
        _, normals = self.stack()
        momenta = np.hstack([np.ones((6, 1)), normals])
        normals[4] = math.nan
        assert "disagree" in self.message(check_photons, momenta, normals)

    def test_momentum_off_direction(self):
        _, normals = self.stack()
        momenta = np.hstack([np.ones((6, 1)), normals])
        momenta[2] = photon(self.THETA[2] + 1e-6, self.PHI[2])
        expected = self.message(check_photons, momenta[2:3], normals[2:3])
        assert self.message(check_photons, momenta, normals) == expected
        assert "disagree" in expected

    def test_basis_stack_matches_per_direction(self):
        hv = linear_basis(*unit_vectors(self.THETA, self.PHI).T)
        for i, (theta, phi) in enumerate(zip(self.THETA, self.PHI)):
            h_i, v_i = basis(theta, phi)
            assert np.array_equal(h_i, hv[:3, i])
            assert np.array_equal(v_i, hv[3:, i])

    def test_backward_pole_basis(self):
        # regular at theta = pi: h and v are x and y reflected through the
        # x-y plane axis at azimuth phi + pi/2
        h, v = basis(math.pi, 0.4)
        assert np.allclose(h, [-math.cos(0.8), -math.sin(0.8), 0.0], atol=1e-15)
        assert np.allclose(v, [-math.sin(0.8), math.cos(0.8), 0.0], atol=1e-15)


class TestAgainstAngleForms:
    """The unit-vector kernel against the closed forms in angles."""

    @staticmethod
    def directions():
        # 5000 random directions plus both float poles
        rng = np.random.default_rng(11)
        theta = np.concatenate([np.arccos(rng.uniform(-1.0, 1.0, 5000)), [0.0, math.pi]])
        phi = np.concatenate([rng.uniform(0.0, 2 * math.pi, 5000), [0.4, 0.4]])
        return theta, phi

    def test_basis_matches_angle_form(self):
        theta, phi = self.directions()
        hv = linear_basis(*unit_vectors(theta, phi).T)
        h, v = angle_form_basis(theta, phi)
        assert np.abs(hv[:3].T - h).max() <= 1e-15
        assert np.abs(hv[3:].T - v).max() <= 1e-15

    def test_basis_bitwise_array_form(self):
        # the rows are written in place; reference: one np.array of the six
        # row expressions, on unit vectors and on random non-unit stacks
        rng = np.random.default_rng(12)
        theta, phi = self.directions()
        stacks = [unit_vectors(theta, phi).T, rng.normal(size=(3, 3000)),
                  rng.uniform(-1.0, 1.0, (3, 3000))]
        for nx, ny, nz in stacks:
            one_plus_nz = 1.0 + nz
            np.divide(nx * nx + ny * ny, 1.0 - nz, out=one_plus_nz, where=nz < 0.0)
            kx, ky = nx / one_plus_nz, ny / one_plus_nz
            want = np.array([1.0 - nx * kx, -ny * kx, -nx, -nx * ky, 1.0 - ny * ky, -ny])
            assert linear_basis(nx, ny, nz).tobytes() == want.tobytes()

    @pytest.mark.parametrize("beta", [1e-5, 0.3, -0.9])
    def test_aberration_matches_half_angle_form(self, beta):
        theta, phi = self.directions()
        moved = aberrate(unit_vectors(theta, phi), beta)
        assert np.abs(moved - half_angle_aberration(theta, phi, beta)).max() <= 2e-15
