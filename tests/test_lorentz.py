import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boostlink.errors import DomainError
from boostlink.lorentz import (
    MINKOWSKI_METRIC,
    FourVector,
    LorentzTransform,
    SphericalDirection,
    aberrate,
    apply,
    approx_transform_theta,
    boost_z,
    rotation_y,
    rotation_z,
    standard_boost,
    transform_angles,
    wigner_phase,
)


def metric_residual(transform):
    m = transform.m
    return np.abs(m.T @ MINKOWSKI_METRIC @ m - MINKOWSKI_METRIC).max()


def random_direction(rng):
    return SphericalDirection(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))


def random_transform(rng, beta_max=0.8):
    t = rotation_z(rng.uniform(0, 2 * math.pi)) @ rotation_y(rng.uniform(0, math.pi))
    t = t @ boost_z(rng.uniform(-beta_max, beta_max))
    return t @ rotation_z(rng.uniform(0, 2 * math.pi))


# fixed-seed property tests: derandomized, no example database
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
POLAR = st.floats(0.0, math.pi)
AZIMUTH = st.floats(0.0, 2 * math.pi, exclude_max=True)
VELOCITY = st.floats(-0.9, 0.9)

# R_z R_y B_z R_z, as in random_transform
TRANSFORMS = st.builds(
    lambda a, b, beta, c: rotation_z(a) @ rotation_y(b) @ boost_z(beta) @ rotation_z(c),
    AZIMUTH, POLAR, st.floats(-0.8, 0.8), AZIMUTH,
)


class TestBoostZ:
    def test_zero_velocity_is_identity(self):
        assert np.allclose(boost_z(0.0).m, np.eye(4), atol=1e-15)

    def test_half_c_entries(self):
        gamma = 1.0 / math.sqrt(1.0 - 0.25)
        m = boost_z(0.5).m
        assert m[0, 0] == pytest.approx(gamma, rel=1e-12)
        assert m[3, 3] == pytest.approx(gamma, rel=1e-12)
        assert m[0, 3] == pytest.approx(-gamma * 0.5, rel=1e-12)
        assert m[3, 0] == pytest.approx(-gamma * 0.5, rel=1e-12)

    def test_velocity_addition(self):
        for b1, b2 in [(0.3, 0.4), (-0.5, 0.2), (0.9, 0.9), (1e-5, 1e-5)]:
            combined = (b1 + b2) / (1.0 + b1 * b2)
            product = boost_z(b1) @ boost_z(b2)
            assert np.allclose(product.m, boost_z(combined).m, atol=1e-12)

    def test_superluminal_rejected(self):
        for beta in (1.0, -1.0, 1.5):
            with pytest.raises(DomainError):
                boost_z(beta)

    def test_metric_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            assert metric_residual(boost_z(rng.uniform(-0.95, 0.95))) <= 1e-12


class TestRotations:
    def test_zero_angle_identity(self):
        assert np.allclose(rotation_y(0.0).m, np.eye(4), atol=1e-15)
        assert np.allclose(rotation_z(0.0).m, np.eye(4), atol=1e-15)

    def test_quarter_turn_about_z(self):
        v = apply(rotation_z(math.pi / 2), FourVector(0, 1, 0, 0))
        assert np.allclose(v.as_array(), [0, 0, 1, 0], atol=1e-12)

    def test_direction_construction(self):
        # R_z(phi) R_y(theta) applied to the +z photon lands on (theta, phi).
        rng = np.random.default_rng(11)
        for _ in range(25):
            theta = rng.uniform(0.05, math.pi - 0.05)
            phi = rng.uniform(0, 2 * math.pi)
            v = apply(rotation_z(phi) @ rotation_y(theta), FourVector(1, 0, 0, 1))
            expected = [
                1.0,
                math.sin(theta) * math.cos(phi),
                math.sin(theta) * math.sin(phi),
                math.cos(theta),
            ]
            assert np.allclose(v.as_array(), expected, atol=1e-12)
            assert abs(v.minkowski_sq()) <= 1e-12

    def test_metric_preserved(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            assert metric_residual(rotation_y(rng.uniform(-10, 10))) <= 1e-12
            assert metric_residual(rotation_z(rng.uniform(-10, 10))) <= 1e-12


class TestApply:
    def test_identity(self):
        v = FourVector(2.0, 0.3, -0.4, 1.1)
        w = apply(LorentzTransform(np.eye(4)), v)
        assert np.allclose(w.as_array(), v.as_array(), atol=1e-15)

    def test_collinear_doppler(self):
        beta = 0.6
        gamma = 1.0 / math.sqrt(1.0 - beta * beta)
        v = apply(boost_z(beta), FourVector(1, 0, 0, 1))
        expected = gamma * (1.0 - beta)
        assert np.allclose(v.as_array(), [expected, 0, 0, expected], rtol=1e-12)

    def test_null_norm_preserved(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            d = random_direction(rng)
            p = FourVector.photon(d, energy=rng.uniform(0.5, 2.0))
            q = apply(random_transform(rng), p)
            assert abs(q.minkowski_sq()) <= 1e-12 * q.t * q.t


class TestTransformAngles:
    def test_forward_axis_fixed(self):
        for beta in (0.0, 0.3, -0.7, 1e-5):
            out = transform_angles(SphericalDirection(0.0, 0.4), beta)
            assert out.theta == pytest.approx(0.0, abs=1e-15)

    def test_zero_velocity_identity(self):
        d = SphericalDirection(1.234, 5.0)
        out = transform_angles(d, 0.0)
        assert out.theta == pytest.approx(d.theta, abs=1e-15)
        assert out.phi == pytest.approx(d.phi, abs=1e-15)

    def test_equator_small_beta(self):
        beta = 1e-5
        out = transform_angles(SphericalDirection(math.pi / 2, 0.0), beta)
        gamma = 1.0 / math.sqrt(1.0 - beta * beta)
        expected_cos = -gamma * beta / math.sqrt(1.0 + gamma * gamma * beta * beta)
        assert math.cos(out.theta) == pytest.approx(expected_cos, rel=1e-9)
        assert out.theta == pytest.approx(math.pi / 2 + beta, rel=1e-4)

    def test_matches_sine_form(self):
        # sin(theta') = sin(theta)/sqrt(sin^2 + gamma^2 (cos - beta)^2),
        # quadrant from sign(cos(theta) - beta).
        rng = np.random.default_rng(19)
        for _ in range(200):
            theta = rng.uniform(0, math.pi)
            beta = rng.uniform(-0.9, 0.9)
            gamma = 1.0 / math.sqrt(1.0 - beta * beta)
            denom = math.sqrt(
                math.sin(theta) ** 2 + gamma**2 * (math.cos(theta) - beta) ** 2
            )
            out = transform_angles(SphericalDirection(theta, 1.0), beta)
            assert math.sin(out.theta) == pytest.approx(math.sin(theta) / denom, abs=1e-12)
            if abs(math.cos(theta) - beta) > 1e-12:
                assert math.copysign(1, math.cos(out.theta)) == math.copysign(
                    1, math.cos(theta) - beta
                )

    def test_matches_boosted_momentum_direction(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            d = random_direction(rng)
            beta = rng.uniform(-0.9, 0.9)
            boosted = apply(boost_z(beta), FourVector.photon(d))
            out = transform_angles(d, beta)
            assert np.allclose(
                boosted.direction().unit_vector(), out.unit_vector(), atol=1e-12
            )

    @PROPERTY
    @given(theta=POLAR, phi=AZIMUTH, b1=VELOCITY, b2=VELOCITY)
    def test_composes_by_velocity_addition(self, theta, phi, b1, b2):
        d = SphericalDirection(theta, phi)
        twice = transform_angles(transform_angles(d, b1), b2)
        once = transform_angles(d, (b1 + b2) / (1.0 + b1 * b2))
        assert twice.theta == pytest.approx(once.theta, abs=1e-12)
        assert twice.phi == once.phi

    def test_round_trip_with_inverse_velocity(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            d = random_direction(rng)
            beta = rng.uniform(-0.9, 0.9)
            back = transform_angles(transform_angles(d, beta), -beta)
            assert back.theta == pytest.approx(d.theta, abs=1e-10)
            assert back.phi == pytest.approx(d.phi, abs=1e-12)

    def test_monotone_in_theta(self):
        thetas = np.linspace(0.0, math.pi, 400)
        for beta in (-0.9, -0.3, 0.2, 0.7):
            mapped = [transform_angles(SphericalDirection(t, 0.0), beta).theta for t in thetas]
            assert all(b > a for a, b in zip(mapped, mapped[1:]))

    def test_superluminal_rejected(self):
        with pytest.raises(DomainError):
            transform_angles(SphericalDirection(1.0, 0.0), 1.0)


class TestAberrate:
    NODES = (np.array([0.6, 0.0]), np.array([0.0, 0.0]), np.array([0.8, -1.0]))

    @pytest.mark.parametrize("beta", [1.0, -1.0, 1.5, math.nan])
    def test_rejects_velocity_outside_unit_interval(self, beta):
        # before the check: ZeroDivisionError at 1, a math domain error at
        # 1.5, and NaN vectors at NaN
        for axis_angle in (0.0, 1.1):
            with pytest.raises(DomainError, match="beta"):
                aberrate(self.NODES, axis_angle, beta)


class TestApproxTransformTheta:
    def test_endpoint_fixed(self):
        for beta in (0.0, 1e-5, 1e-3):
            assert approx_transform_theta(math.pi, beta) == pytest.approx(math.pi, rel=1e-12)

    def test_zero_velocity_identity(self):
        for theta in (0.0, 0.5, 2.0, math.pi):
            assert approx_transform_theta(theta, 0.0) == pytest.approx(theta, abs=1e-15)

    def test_equator_deviation_first_order(self):
        beta = 1e-3
        deviation = approx_transform_theta(math.pi / 2, beta) - math.pi / 2
        assert deviation == pytest.approx(beta, rel=2e-3)

    def test_agrees_with_exact_map_at_equator(self):
        for beta in (1e-5, 1e-4, 1e-3):
            exact = transform_angles(SphericalDirection(math.pi / 2, 0.0), beta).theta
            approx = approx_transform_theta(math.pi / 2, beta)
            assert abs(approx - math.pi / 2) == pytest.approx(
                abs(exact - math.pi / 2), rel=5e-3
            )

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            approx_transform_theta(-0.1, 1e-5)
        with pytest.raises(DomainError):
            approx_transform_theta(math.pi + 0.1, 1e-5)


class TestStandardBoost:
    def test_reference_vector_gives_identity(self):
        t = standard_boost(FourVector(1, 0, 0, 1))
        assert np.allclose(t.m, np.eye(4), atol=1e-12)

    def test_energy_two_is_pure_z_boost(self):
        # gamma*(1 - beta) = 2 has the solution beta = -3/5.
        t = standard_boost(FourVector(2, 0, 0, 2))
        assert np.allclose(t.m, boost_z(-0.6).m, atol=1e-12)

    def test_equatorial_unit_momentum_is_rotation(self):
        t = standard_boost(FourVector.photon(SphericalDirection(math.pi / 2, 0.0)))
        assert np.allclose(t.m, rotation_y(math.pi / 2).m, atol=1e-12)

    def test_maps_reference_to_momentum(self):
        rng = np.random.default_rng(31)
        k = FourVector(1, 0, 0, 1)
        for _ in range(60):
            p = FourVector.photon(random_direction(rng), energy=rng.uniform(0.3, 3.0))
            image = apply(standard_boost(p), k)
            assert np.abs(image.as_array() - p.as_array()).max() <= 1e-10

    def test_invalid_momentum_rejected(self):
        with pytest.raises(DomainError):
            standard_boost(FourVector(1, 0, 0, 0.5))
        with pytest.raises(DomainError):
            standard_boost(FourVector(-1, 0, 0, -1))


class TestWignerPhase:
    def test_collinear_boost_no_rotation(self):
        p = FourVector(1, 0, 0, 1)
        for beta in (0.1, 0.5, -0.8):
            assert abs(wigner_phase(boost_z(beta), p)) <= 1e-10

    def test_rotation_about_momentum_axis(self):
        p = FourVector(1, 0, 0, 1)
        for phi0 in (0.3, -1.2, 2.9):
            assert wigner_phase(rotation_z(phi0), p) == pytest.approx(phi0, abs=1e-12)

    def test_pure_boost_collinear_with_momentum(self):
        # Boost along an arbitrary p implemented by conjugating a z-boost.
        rng = np.random.default_rng(37)
        for _ in range(20):
            d = random_direction(rng)
            frame = rotation_z(d.phi) @ rotation_y(d.theta)
            transform = frame @ boost_z(rng.uniform(-0.8, 0.8)) @ frame.inverse()
            p = FourVector.photon(d, energy=rng.uniform(0.5, 2.0))
            assert abs(wigner_phase(transform, p)) <= 1e-10

    @PROPERTY
    @given(theta=POLAR, phi=AZIMUTH, energy=st.floats(0.5, 2.0), t1=TRANSFORMS, t2=TRANSFORMS)
    def test_group_composition(self, theta, phi, energy, t1, t2):
        p = FourVector.photon(SphericalDirection(theta, phi), energy=energy)
        total = wigner_phase(t2 @ t1, p)
        split = wigner_phase(t2, apply(t1, p)) + wigner_phase(t1, p)
        diff = (total - split + math.pi) % (2 * math.pi) - math.pi
        assert abs(diff) <= 1e-12

    def test_stabilizer_residual_on_random_inputs(self):
        rng = np.random.default_rng(43)
        k = np.array([1.0, 0.0, 0.0, 1.0])
        for _ in range(200):
            p = FourVector.photon(random_direction(rng), energy=rng.uniform(0.5, 2.0))
            t = random_transform(rng)
            w = (
                standard_boost(apply(t, p)).inverse().m
                @ t.m
                @ standard_boost(p).m
            )
            assert np.abs(w @ k - k).max() <= 1e-8
            wigner_phase(t, p)  # must not raise


class TestTypes:
    def test_spherical_direction_normalizes_phi(self):
        d = SphericalDirection(1.0, 2.0 + 6 * math.pi)
        assert d.phi == pytest.approx(2.0, abs=1e-9)

    def test_spherical_direction_rejects_bad_theta(self):
        with pytest.raises(DomainError):
            SphericalDirection(-0.5, 0.0)
        with pytest.raises(DomainError):
            SphericalDirection(4.0, 0.0)

    def test_antipode(self):
        d = SphericalDirection(0.7, 1.1)
        a = d.antipode()
        assert np.allclose(a.unit_vector(), -d.unit_vector(), atol=1e-12)

    def test_lorentz_transform_rejects_non_metric_matrix(self):
        with pytest.raises(DomainError):
            LorentzTransform(np.eye(4) * 2.0)

    def test_lorentz_transform_rejects_time_reversal(self):
        m = np.diag([-1.0, 1.0, 1.0, -1.0])
        with pytest.raises(DomainError):
            LorentzTransform(m)

    def test_inverse(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            t = random_transform(rng)
            assert np.allclose((t @ t.inverse()).m, np.eye(4), atol=1e-12)

    def test_photon_null_and_positive(self):
        p = FourVector.photon(SphericalDirection(1.0, 2.0), energy=1.7)
        assert p.is_null()
        assert p.t == pytest.approx(1.7)
        with pytest.raises(DomainError):
            FourVector.photon(SphericalDirection(1.0, 2.0), energy=-1.0)
