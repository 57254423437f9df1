import math

import numpy as np
import pytest

from boostlink.errors import DomainError
from boostlink.lorentz import FourVector, SphericalDirection, transform_angles, unit_vectors
from boostlink.photon import (
    PhotonState,
    PolarizationState,
    boost_photon,
    check_photons,
    check_polarizations,
    helicity_polarization,
    linear_basis,
    linear_polarization,
    make_photon,
)
from boostlink.quantum import DensityMatrix, trace_distance


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


def angle_grid():
    thetas = np.linspace(0.1, math.pi - 0.1, 7)
    phis = np.linspace(0.0, 2 * math.pi, 9, endpoint=False)
    return [(t, p) for t in thetas for p in phis]


class TestLinearPolarization:
    def test_forward_axis_h(self):
        state = linear_polarization(SphericalDirection(0.0, 0.0), "h")
        assert np.allclose(state.eps, [1, 0, 0], atol=1e-15)

    def test_forward_axis_v(self):
        state = linear_polarization(SphericalDirection(0.0, 0.0), "v")
        assert np.allclose(state.eps, [0, 1, 0], atol=1e-15)

    def test_equatorial_h_points_down(self):
        state = linear_polarization(SphericalDirection(math.pi / 2, 0.0), "h")
        assert np.allclose(state.eps, [0, 0, -1], atol=1e-12)

    def test_matches_rotation_oracle(self):
        for theta, phi in angle_grid():
            r = rotation_oracle(theta, phi)
            h = linear_polarization(SphericalDirection(theta, phi), "h")
            v = linear_polarization(SphericalDirection(theta, phi), "v")
            assert np.allclose(
                h.eps, r @ [math.cos(phi), -math.sin(phi), 0.0], atol=1e-12
            )
            assert np.allclose(
                v.eps, r @ [math.sin(phi), math.cos(phi), 0.0], atol=1e-12
            )

    def test_h_v_orthogonal(self):
        for theta, phi in angle_grid():
            d = SphericalDirection(theta, phi)
            h = linear_polarization(d, "h")
            v = linear_polarization(d, "v")
            assert abs(np.vdot(h.eps, v.eps)) <= 1e-12

    def test_unknown_kind_rejected(self):
        with pytest.raises(DomainError):
            linear_polarization(SphericalDirection(1.0, 0.0), "d")


class TestHelicityPolarization:
    def test_forward_axis(self):
        state = helicity_polarization(SphericalDirection(0.0, 0.0), 1)
        expected = np.array([1, 1j, 0]) / math.sqrt(2)
        assert np.allclose(state.eps, expected, atol=1e-15)

    def test_linear_combination_identity(self):
        # (h + i*lam*v)/sqrt(2) = exp(i*lam*phi) * helicity(lam): the combination
        # reproduces the circular vector up to the deterministic azimuth phase.
        for theta, phi in angle_grid():
            d = SphericalDirection(theta, phi)
            h = linear_polarization(d, "h").eps
            v = linear_polarization(d, "v").eps
            for lam in (1, -1):
                circ = helicity_polarization(d, lam).eps
                combo = (h + 1j * lam * v) / math.sqrt(2)
                assert np.allclose(combo, np.exp(1j * lam * phi) * circ, atol=1e-12)
                assert abs(abs(np.vdot(combo, circ)) - 1.0) <= 1e-12

    def test_opposite_helicities_orthogonal(self):
        for theta, phi in angle_grid():
            d = SphericalDirection(theta, phi)
            plus = helicity_polarization(d, 1)
            minus = helicity_polarization(d, -1)
            assert abs(np.vdot(plus.eps, minus.eps)) <= 1e-12

    def test_invalid_helicity_rejected(self):
        with pytest.raises(DomainError):
            helicity_polarization(SphericalDirection(1.0, 0.0), 2)


class TestInvariants:
    def test_transversality_and_norm_after_boost(self):
        for theta, phi in angle_grid():
            for beta in (1e-5, 0.3, -0.6):
                state = boost_photon(make_photon(SphericalDirection(theta, phi), "h"), beta)
                pol = state.polarization
                assert abs(np.linalg.norm(pol.eps) - 1.0) <= 1e-12
                assert abs(np.dot(pol.eps.real, pol.direction.unit_vector())) <= 1e-12

    def test_photon_state_rejects_mismatched_direction(self):
        momentum = make_photon(SphericalDirection(1.0, 0.0), "h").momentum
        wrong = linear_polarization(SphericalDirection(1.2, 0.0), "h")
        with pytest.raises(DomainError):
            PhotonState(momentum, wrong)


class TestBoostPhoton:
    def test_zero_velocity_identity(self):
        state = make_photon(SphericalDirection(0.9, 2.2), "v")
        out = boost_photon(state, 0.0)
        assert np.allclose(out.momentum.as_array(), state.momentum.as_array(), atol=1e-15)
        assert np.allclose(out.polarization.eps, state.polarization.eps, atol=1e-15)
        assert out.phase == state.phase

    def test_small_boost_moves_equatorial_photon(self):
        beta = 1e-5
        out = boost_photon(make_photon(SphericalDirection(math.pi / 2, 0.0), "h"), beta)
        assert out.polarization.direction.theta == pytest.approx(
            math.pi / 2 + beta, rel=1e-4
        )
        assert out.polarization.label == "h"

    def test_direction_follows_aberration_map(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            d = SphericalDirection(rng.uniform(0.05, math.pi - 0.05), rng.uniform(0, 2 * math.pi))
            beta = rng.uniform(-0.8, 0.8)
            out = boost_photon(make_photon(d, "v"), beta)
            expected = transform_angles(d, beta)
            assert out.polarization.direction.theta == pytest.approx(expected.theta, abs=1e-12)

    def test_helicity_label_preserved(self):
        for beta in (1e-5, 0.4, -0.7):
            out = boost_photon(make_photon(SphericalDirection(1.1, 0.7), "helicity", 1), beta)
            assert out.polarization.label == "helicity"
            assert out.polarization.helicity == 1

    def test_linear_label_accumulates_no_phase(self):
        out = boost_photon(make_photon(SphericalDirection(1.1, 0.7), "h"), 0.3)
        assert out.phase == 0.0

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = SphericalDirection(rng.uniform(0.1, math.pi - 0.1), rng.uniform(0, 2 * math.pi))
            state = make_photon(d, "h")
            beta = rng.uniform(-0.7, 0.7)
            back = boost_photon(boost_photon(state, beta), -beta)
            assert np.allclose(back.momentum.as_array(), state.momentum.as_array(), atol=1e-9)
            assert np.allclose(back.polarization.eps, state.polarization.eps, atol=1e-9)

    def test_superluminal_rejected(self):
        with pytest.raises(DomainError):
            boost_photon(make_photon(SphericalDirection(1.0, 0.0), "h"), 1.0)


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
                d = SphericalDirection(theta, phi)
                eps = linear_polarization(d, "h").eps
                eps_b = boost_photon(make_photon(d, "h"), beta).polarization.eps
                rho_s = DensityMatrix.from_pure(eps, (3,))
                rho_a = DensityMatrix.from_pure(eps_b, (3,))
                numeric = trace_distance(rho_s, rho_a)
                # The overlap route computes sqrt(1 - |c|^2) with |c|^2 within
                # ~1e-12 of 1, so only relative agreement is meaningful here.
                overlap_formula = math.sqrt(max(0.0, 1.0 - abs(np.vdot(eps, eps_b)) ** 2))
                assert numeric == pytest.approx(overlap_formula, rel=1e-3)
                assert numeric == pytest.approx(expected, rel=0.01)


class TestStackedChecks:
    """A stack with one corrupted entry fails with the message the per-item
    object check gives for that entry."""

    THETA = np.linspace(0.2, 2.9, 6)
    PHI = np.linspace(0.1, 6.0, 6)

    def stack(self):
        h, _ = linear_basis(self.THETA, self.PHI)
        return h.astype(complex), unit_vectors(self.THETA, self.PHI)

    def per_item_message(self, make):
        with pytest.raises(DomainError) as err:
            make()
        return str(err.value)

    def test_non_unit_vector(self):
        eps, normals = self.stack()
        eps[3] *= 1.001
        expected = self.per_item_message(
            lambda: PolarizationState(eps[3], SphericalDirection(self.THETA[3], self.PHI[3]), "h")
        )
        with pytest.raises(DomainError) as err:
            check_polarizations(eps, normals)
        assert str(err.value) == expected
        assert "unit norm" in expected

    def test_non_transverse_vector(self):
        eps, normals = self.stack()
        tilted = eps[3] + 1e-6 * normals[3]
        eps[3] = tilted / np.linalg.norm(tilted)
        expected = self.per_item_message(
            lambda: PolarizationState(eps[3], SphericalDirection(self.THETA[3], self.PHI[3]), "h")
        )
        with pytest.raises(DomainError) as err:
            check_polarizations(eps, normals)
        assert str(err.value) == expected
        assert "transverse" in expected

    def test_momentum_off_direction(self):
        _, normals = self.stack()
        momenta = np.hstack([np.ones((6, 1)), normals])
        wrong = SphericalDirection(self.THETA[2] + 1e-6, self.PHI[2])
        momenta[2] = FourVector.photon(wrong).as_array()
        expected = self.per_item_message(
            lambda: PhotonState(
                FourVector.photon(wrong),
                linear_polarization(SphericalDirection(self.THETA[2], self.PHI[2]), "h"),
            )
        )
        with pytest.raises(DomainError) as err:
            check_photons(momenta, normals)
        assert str(err.value) == expected
        assert "disagree" in expected

    def test_basis_stack_matches_per_direction(self):
        h, v = linear_basis(self.THETA, self.PHI)
        for i, (theta, phi) in enumerate(zip(self.THETA, self.PHI)):
            direction = SphericalDirection(theta, phi)
            assert np.array_equal(linear_polarization(direction, "h").eps, h[i])
            assert np.array_equal(linear_polarization(direction, "v").eps, v[i])

    def test_backward_pole_basis(self):
        # regular at theta = pi: h and v are x and y reflected through the
        # x-y plane axis at azimuth phi + pi/2
        h, v = linear_basis(math.pi, 0.4)
        assert np.allclose(h, [-math.cos(0.8), -math.sin(0.8), 0.0], atol=1e-15)
        assert np.allclose(v, [-math.sin(0.8), math.cos(0.8), 0.0], atol=1e-15)
