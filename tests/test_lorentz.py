import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boostlink.errors import DomainError
from boostlink.lorentz import (
    MINKOWSKI_METRIC,
    aberrate,
    approx_transform_theta,
    boost_z,
    linear_basis,
    null_mask,
    polar_angles,
    unit_vectors,
    wigner_phases,
)

K = np.array([1.0, 0.0, 0.0, 1.0])


# ---------------------------------------------------------------------------
# reference: the 4x4 little-group chain W = L(m p)^-1 m L(p), written out on
# matrices, independently of the closed form in ``wigner_phases``
# ---------------------------------------------------------------------------


def rotation_y(theta):
    """Spatial rotation about the y axis, embedded in 4x4."""
    c, s = math.cos(theta), math.sin(theta)
    m = np.eye(4)
    m[1:, 1:] = [[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]]
    return m


def rotation_z(phi):
    """Spatial rotation about the z axis, embedded in 4x4."""
    c, s = math.cos(phi), math.sin(phi)
    m = np.eye(4)
    m[1:, 1:] = [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]
    return m


def inverse(m):
    """eta m^T eta inverts any metric-preserving matrix exactly."""
    return MINKOWSKI_METRIC @ m.T @ MINKOWSKI_METRIC


def standard_boost(p):
    """Canonical transform L(p) = Q B_z, with Q = R_z(phi) R_y(theta) R_z(-phi)
    the frame of the linear basis, taking the reference null vector
    k = (1, 0, 0, 1) to the null momentum ``p``."""
    t, x, y, z = p
    theta = math.atan2(math.hypot(x, y), z)
    # on the +z axis Q is the identity whatever phi atan2 reads there
    phi = math.atan2(y, x)
    frame = rotation_z(phi) @ rotation_y(theta) @ rotation_z(-phi)
    # gamma*(1 - beta) = E  solves to  beta = (1 - E^2) / (1 + E^2).
    return frame @ boost_z((1.0 - t * t) / (1.0 + t * t))


def little_group(m, p):
    return inverse(standard_boost(m @ p)) @ m @ standard_boost(p)


def reference_phase(m, p):
    """Rotation angle of W, read off its x-y block."""
    w = little_group(m, p)
    return math.atan2(w[2, 1], w[1, 1])


def photon(n, energy=1.0):
    return energy * np.concatenate([[1.0], n])


def metric_residual(m):
    return np.abs(m.T @ MINKOWSKI_METRIC @ m - MINKOWSKI_METRIC).max()


def random_direction(rng):
    return unit_vectors(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))


def random_transform(rng, beta_max=0.8):
    t = rotation_z(rng.uniform(0, 2 * math.pi)) @ rotation_y(rng.uniform(0, math.pi))
    t = t @ boost_z(rng.uniform(-beta_max, beta_max))
    return t @ rotation_z(rng.uniform(0, 2 * math.pi))


def tilted_boost(rng, beta_max=0.99):
    """R B_z(beta) R^-1: a boost along a random axis."""
    r = rotation_z(rng.uniform(0, 2 * math.pi)) @ rotation_y(rng.uniform(0, math.pi))
    return r @ boost_z(rng.uniform(-beta_max, beta_max)) @ inverse(r)


def z_boost_bound(beta):
    """Bound on |Theta| under ``boost_z(beta)``, 0 in exact arithmetic:
    8 gamma^2 eps, the order of the rounded matrix's own metric defect."""
    return 8.0 * np.finfo(float).eps / (1.0 - beta * beta)


def wrapped(angle):
    """``angle`` reduced to [-pi, pi)."""
    return (angle + math.pi) % (2 * math.pi) - math.pi


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


class TestRotations:
    """The reference chain's rotations."""

    def test_zero_angle_identity(self):
        assert np.allclose(rotation_y(0.0), np.eye(4), atol=1e-15)
        assert np.allclose(rotation_z(0.0), np.eye(4), atol=1e-15)

    def test_quarter_turn_about_z(self):
        assert np.allclose(rotation_z(math.pi / 2) @ [0, 1, 0, 0], [0, 0, 1, 0], atol=1e-12)

    def test_direction_construction(self):
        # R_z(phi) R_y(theta) applied to the +z photon lands on (theta, phi).
        rng = np.random.default_rng(11)
        for _ in range(25):
            theta = rng.uniform(0.05, math.pi - 0.05)
            phi = rng.uniform(0, 2 * math.pi)
            v = rotation_z(phi) @ rotation_y(theta) @ K
            assert np.allclose(v, photon(unit_vectors(theta, phi)), atol=1e-12)
            assert abs(v[0] ** 2 - v[1:] @ v[1:]) <= 1e-12 * v[0] ** 2

    def test_metric_preserved(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            assert metric_residual(rotation_y(rng.uniform(-10, 10))) <= 1e-12
            assert metric_residual(rotation_z(rng.uniform(-10, 10))) <= 1e-12


class TestApply:
    """A transform acts on four-vectors (t, x, y, z) as a matrix product."""

    def test_identity(self):
        v = np.array([2.0, 0.3, -0.4, 1.1])
        assert np.array_equal(np.eye(4) @ v, v)

    def test_collinear_doppler(self):
        beta = 0.6
        gamma = 1.0 / math.sqrt(1.0 - beta * beta)
        expected = gamma * (1.0 - beta)
        assert np.allclose(boost_z(beta) @ K, [expected, 0, 0, expected], rtol=1e-12)

    def test_null_norm_preserved(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            p = photon(random_direction(rng), energy=rng.uniform(0.5, 2.0))
            q = random_transform(rng) @ p
            assert abs(q[0] ** 2 - q[1:] @ q[1:]) <= 1e-12 * q[0] ** 2


class TestBoostZ:
    def test_zero_velocity_is_identity(self):
        assert np.allclose(boost_z(0.0), np.eye(4), atol=1e-15)

    def test_half_c_entries(self):
        gamma = 1.0 / math.sqrt(1.0 - 0.25)
        m = boost_z(0.5)
        assert m[0, 0] == pytest.approx(gamma, rel=1e-12)
        assert m[3, 3] == pytest.approx(gamma, rel=1e-12)
        assert m[0, 3] == pytest.approx(-gamma * 0.5, rel=1e-12)
        assert m[3, 0] == pytest.approx(-gamma * 0.5, rel=1e-12)

    def test_read_only(self):
        with pytest.raises(ValueError):
            boost_z(0.5)[0, 0] = 1.0

    def test_velocity_addition(self):
        for b1, b2 in [(0.3, 0.4), (-0.5, 0.2), (0.9, 0.9), (1e-5, 1e-5)]:
            combined = (b1 + b2) / (1.0 + b1 * b2)
            assert np.allclose(boost_z(b1) @ boost_z(b2), boost_z(combined), atol=1e-12)

    def test_superluminal_rejected(self):
        for beta in (1.0, -1.0, 1.5):
            with pytest.raises(DomainError):
                boost_z(beta)

    def test_metric_preserved(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            assert metric_residual(boost_z(rng.uniform(-0.95, 0.95))) <= 1e-12


def polar_azimuth(n):
    """theta = atan2(hypot(x, y), z) and phi = atan2(y, x), reduced to
    [0, 2 pi), of the (N, 3) rows ``n``."""
    x, y, z = n.T
    return np.arctan2(np.hypot(x, y), z), np.mod(np.arctan2(y, x), 2 * math.pi)


def aberrated_polar(theta, phi, beta):
    """Polar angle of the one direction (theta, phi) after ``aberrate``."""
    return float(polar_azimuth(aberrate(unit_vectors(theta, phi)[None], beta))[0][0])


class TestTransformAngles:
    """The aberration map in angles, read off the unit vectors ``aberrate``
    returns."""

    def test_forward_axis_fixed(self):
        for beta in (0.0, 0.3, -0.7, 1e-5):
            assert aberrated_polar(0.0, 0.4, beta) == pytest.approx(0.0, abs=1e-15)

    def test_zero_velocity_identity(self):
        theta, phi = polar_azimuth(aberrate(unit_vectors(1.234, 5.0)[None], 0.0))
        assert theta[0] == pytest.approx(1.234, abs=1e-15)
        assert phi[0] == pytest.approx(5.0, abs=1e-15)

    def test_azimuth_reduced_and_polar_angle_validated(self):
        theta, phi = polar_angles(1.0, 2.0 + 6 * math.pi)
        assert phi == pytest.approx(2.0, abs=1e-9)
        _, moved_phi = polar_azimuth(aberrate(unit_vectors(theta, phi)[None], 0.0))
        assert moved_phi[0] == pytest.approx(2.0, abs=1e-9)
        for theta in (-0.5, 4.0):
            with pytest.raises(DomainError, match="polar angle"):
                polar_angles(theta, 0.0)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_non_finite_azimuth_rejected(self, phi):
        with pytest.raises(DomainError, match="azimuth"):
            polar_angles(0.5, phi)
        with pytest.raises(DomainError, match="azimuth"):
            polar_angles(np.array([0.5, 1.0]), np.array([0.2, phi]))

    def test_equator_small_beta(self):
        beta = 1e-5
        theta = aberrated_polar(math.pi / 2, 0.0, beta)
        gamma = 1.0 / math.sqrt(1.0 - beta * beta)
        expected_cos = -gamma * beta / math.sqrt(1.0 + gamma * gamma * beta * beta)
        assert math.cos(theta) == pytest.approx(expected_cos, rel=1e-9)
        assert theta == pytest.approx(math.pi / 2 + beta, rel=1e-4)

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
            out = aberrated_polar(theta, 1.0, beta)
            assert math.sin(out) == pytest.approx(math.sin(theta) / denom, abs=1e-12)
            if abs(math.cos(theta) - beta) > 1e-12:
                assert math.copysign(1, math.cos(out)) == math.copysign(
                    1, math.cos(theta) - beta
                )

    def test_matches_boosted_momentum_direction(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = unit_vectors(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))
            beta = rng.uniform(-0.9, 0.9)
            boosted = (boost_z(beta) @ photon(n))[1:]
            out = aberrate(n[None], beta)[0]
            assert np.allclose(boosted / np.linalg.norm(boosted), out, atol=1e-12)

    @PROPERTY
    @given(theta=POLAR, phi=AZIMUTH, b1=VELOCITY, b2=VELOCITY)
    def test_composes_by_velocity_addition(self, theta, phi, b1, b2):
        n = unit_vectors(theta, phi)[None]
        twice = aberrate(aberrate(n, b1), b2)
        once = aberrate(n, (b1 + b2) / (1.0 + b1 * b2))
        (twice_theta,), (twice_phi,) = polar_azimuth(twice)
        (once_theta,), (once_phi,) = polar_azimuth(once)
        assert twice_theta == pytest.approx(once_theta, abs=1e-12)
        # the azimuth is read from rounded components, not passed through
        assert abs(wrapped(twice_phi - once_phi)) <= 1e-15
        assert np.abs(twice - once).max() <= 1e-12

    def test_round_trip_with_inverse_velocity(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            theta, phi = math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi)
            beta = rng.uniform(-0.9, 0.9)
            n = unit_vectors(theta, phi)[None]
            (back_theta,), (back_phi,) = polar_azimuth(aberrate(aberrate(n, beta), -beta))
            assert back_theta == pytest.approx(theta, abs=1e-10)
            assert abs(wrapped(back_phi - phi)) <= 1e-12

    def test_monotone_in_theta(self):
        n = unit_vectors(np.linspace(0.0, math.pi, 400), np.zeros(400))
        for beta in (-0.9, -0.3, 0.2, 0.7):
            mapped, _ = polar_azimuth(aberrate(n, beta))
            assert (np.diff(mapped) > 0.0).all()

    def test_superluminal_rejected(self):
        with pytest.raises(DomainError):
            aberrate(unit_vectors(1.0, 0.0)[None], 1.0)


class TestAberrate:
    NODES = (np.array([0.6, 0.0]), np.array([0.0, 0.0]), np.array([0.8, -1.0]))

    @pytest.mark.parametrize("beta", [1.0, -1.0, 1.5, math.nan])
    def test_rejects_velocity_outside_unit_interval(self, beta):
        # before the check: ZeroDivisionError at 1, a math domain error at
        # 1.5, and NaN vectors at NaN
        with pytest.raises(DomainError, match="beta"):
            aberrate(np.transpose(self.NODES), beta)

    @staticmethod
    def one_expression(nodes, beta):
        """Reference: the z-boost as one expression per component, without
        the in-place arithmetic."""
        x, y, z = nodes
        gamma = 1.0 / math.sqrt((1.0 - beta) * (1.0 + beta))
        scale = 1.0 / (gamma * (1.0 - beta * z))
        return x * scale, y * scale, gamma * (z - beta) * scale

    def test_bitwise_one_expression_on_random_stacks(self):
        # a stack and each of its rows alone give the same bytes
        rng = np.random.default_rng(5)
        n = unit_vectors(np.arccos(rng.uniform(-1.0, 1.0, 4000)), rng.uniform(0.0, 6.3, 4000))
        betas = [0.0, -0.0, 0.9999, -0.9999, *rng.uniform(-0.99, 0.99, 6)]
        for beta in betas:
            moved = np.transpose(self.one_expression(n.T, beta))
            want = moved / np.linalg.norm(moved, axis=-1, keepdims=True)
            got = aberrate(n, beta)
            assert got.tobytes() == want.tobytes()
            for row, row_want in zip(n[:5], want):
                assert aberrate(row[None], beta).tobytes() == row_want.tobytes()

    def test_z_boost_is_the_renormalized_formula(self):
        # aberrate is the z-boost, transposed to rows and divided by the row
        # norms, bit for bit, and its rows are unit to 2.2e-16; on these
        # directions the formula alone leaves them 1e-13 off at beta =
        # 0.9999 and 7e-13 off at 0.999999
        rng = np.random.default_rng(25)
        theta = np.concatenate([[0.0, math.pi], np.arccos(rng.uniform(-1.0, 1.0, 4000))])
        n = unit_vectors(theta, rng.uniform(0.0, 2 * math.pi, theta.size))
        betas = [0.0, -0.0, 0.9999, -0.9999, 0.999999, -0.999999, *rng.uniform(-0.99, 0.99, 6)]
        for beta in betas:
            moved = np.transpose(self.one_expression(n.T, beta))
            want = moved / np.linalg.norm(moved, axis=-1, keepdims=True)
            got = aberrate(n, beta)
            assert got.shape == n.shape
            assert got.tobytes() == want.tobytes()
            assert np.abs(np.linalg.norm(got, axis=-1) - 1.0).max() <= np.finfo(float).eps
        for beta in (1.0, -1.0, 1.5, -1.5, math.nan):
            with pytest.raises(DomainError, match=r"boost velocity must satisfy \|beta\| < 1"):
                aberrate(n, beta)

    def test_boost_leaves_input_stack_unchanged(self):
        # one direction stack serves every beta of a sweep, read-only too
        n = unit_vectors(np.linspace(0.0, math.pi, 50), np.linspace(0.0, 6.0, 50))
        n.setflags(write=False)
        saved = n.copy()
        for beta in (0.4, -0.4, 0.0):
            aberrate(n, beta)
        assert n.tobytes() == saved.tobytes()


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
            exact = aberrated_polar(math.pi / 2, 0.0, beta)
            approx = approx_transform_theta(math.pi / 2, beta)
            assert abs(approx - math.pi / 2) == pytest.approx(
                abs(exact - math.pi / 2), rel=5e-3
            )

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            approx_transform_theta(-0.1, 1e-5)
        with pytest.raises(DomainError):
            approx_transform_theta(math.pi + 0.1, 1e-5)
        with pytest.raises(DomainError, match="polar angle must lie in"):
            approx_transform_theta(math.nan, 1e-5)

    def test_within_rounding_of_range_clamped(self):
        # the 1e-12 margin that polar_angles, and so li-check --theta, allows
        for beta in (0.0, 0.1, -0.3):
            assert approx_transform_theta(math.pi + 1e-13, beta) == approx_transform_theta(math.pi, beta)
            assert approx_transform_theta(-1e-13, beta) == approx_transform_theta(0.0, beta)


class TestStandardBoost:
    """The reference chain's canonical transform L(p)."""

    def test_reference_vector_gives_identity(self):
        assert np.allclose(standard_boost(K), np.eye(4), atol=1e-12)

    def test_energy_two_is_pure_z_boost(self):
        # gamma*(1 - beta) = 2 has the solution beta = -3/5.
        assert np.allclose(standard_boost(2.0 * K), boost_z(-0.6), atol=1e-12)

    def test_equatorial_unit_momentum_is_rotation(self):
        p = photon(unit_vectors(math.pi / 2, 0.0))
        assert np.allclose(standard_boost(p), rotation_y(math.pi / 2), atol=1e-12)

    def test_maps_reference_to_momentum(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            p = photon(random_direction(rng), energy=rng.uniform(0.3, 3.0))
            assert np.abs(standard_boost(p) @ K - p).max() <= 1e-10

    def test_invalid_momentum_rejected(self):
        # the kernel takes unit-energy momenta, so a non-null one is a
        # direction off unit norm
        for bad in ([0.0, 0.0, 0.5], [0.0, 0.0, 1.1], [0.6, 0.0, 0.81]):
            with pytest.raises(DomainError, match="unit vector"):
                wigner_phases(boost_z(0.3), [[0.6, 0.0, 0.8], bad])


class TestWignerPhase:
    def test_collinear_boost_no_rotation(self):
        for beta in (0.1, 0.5, -0.8):
            assert abs(wigner_phases(boost_z(beta), [[0.0, 0.0, 1.0]])[0]) <= 1e-10

    def test_stabilizer_residual_on_random_inputs(self):
        # the reference W stabilizes k, and the kernel's own check, that the
        # x-y block of W has unit norm, passes
        rng = np.random.default_rng(43)
        for _ in range(200):
            p = photon(random_direction(rng), energy=rng.uniform(0.5, 2.0))
            t = random_transform(rng)
            assert np.abs(little_group(t, p) @ K - K).max() <= 1e-8
            wigner_phases(t, [p[1:] / p[0]])  # must not raise

    def test_matches_reference_chain_under_tilted_boosts(self):
        # 2000 boosts along random axes and 2000 general transforms, each on a
        # random direction and energy, against W = L(m p)^-1 m L(p)
        rng = np.random.default_rng(53)
        for make in (tilted_boost, random_transform):
            for _ in range(2000):
                m = make(rng)
                n = random_direction(rng)
                expected = reference_phase(m, photon(n, rng.uniform(0.5, 2.0)))
                assert abs(wrapped(wigner_phases(m, n[None])[0] - expected)) <= 1e-12

    def test_matches_reference_chain_on_axis_and_under_z_boosts(self):
        # theta = 0 at a phi with cos(phi) < 0 has x = -0.0; theta = pi keeps
        # its 1.2e-16 offset from -z
        rng = np.random.default_rng(59)
        on_axis = unit_vectors(np.array([0.0, 0.0, math.pi, math.pi]), np.array([0.0, 2.0, 0.4, 5.0]))
        assert math.copysign(1.0, on_axis[1, 0]) == -1.0
        directions = np.concatenate([on_axis, [random_direction(rng) for _ in range(200)]])
        for beta in (-0.9999, -0.5, 1e-5, 0.3, 0.9, 0.99999):
            m = boost_z(beta)
            phases = wigner_phases(m, directions)
            for n, phase in zip(directions, phases):
                assert abs(wrapped(phase - reference_phase(m, photon(n)))) <= 1e-12
                assert abs(phase) <= 1e-12  # no Wigner rotation under a z-boost
        assert np.abs(wigner_phases(boost_z(0.5), on_axis)).max() <= z_boost_bound(0.5)

    @pytest.mark.parametrize("beta", [-0.999999, -0.9999, -0.9, -0.5, 1e-5, 0.5, 0.9, 0.9999, 0.999999])
    def test_z_boost_phase_is_round_off_near_both_poles(self, beta):
        # h' and v' at a direction near a pole come from the rounded 4x4
        # matrix, whose metric defect grows as gamma^2
        rng = np.random.default_rng(71)
        offsets = np.concatenate([[0.0], np.geomspace(1e-12, 1e-3, 200), rng.uniform(0.0, 1e-3, 300)])
        theta = np.concatenate([offsets, math.pi - offsets])
        directions = unit_vectors(theta, rng.uniform(0.0, 2 * math.pi, len(theta)))
        assert np.abs(wigner_phases(boost_z(beta), directions)).max() <= z_boost_bound(beta)

    def test_transported_polarization_is_the_phase_in_the_basis(self):
        # the gauge-projected image of h, e - (e_0 / E') p' with (e_0, e) =
        # m (0, h) and (E', p') = m (1, n), is h rotated by Theta in the
        # basis at the direction of p'
        rng = np.random.default_rng(73)
        for _ in range(200):
            m = tilted_boost(rng, beta_max=0.95)
            n = np.array([random_direction(rng) for _ in range(50)])
            h = linear_basis(*n.T)[:3].T
            e = np.hstack([np.zeros((50, 1)), h]) @ m.T
            p = np.hstack([np.ones((50, 1)), n]) @ m.T
            transported = e[:, 1:] - (e[:, :1] / p[:, :1]) * p[:, 1:]
            basis = linear_basis(*(p[:, 1:] / p[:, :1]).T)
            theta = wigner_phases(m, n)[:, None]
            rotated = np.cos(theta) * basis[:3].T + np.sin(theta) * basis[3:].T
            assert np.abs(transported - rotated).max() <= 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "m, n",
        [
            (np.eye(4), [[0.0, 0.0, -1.0]]),
            (np.eye(4), [[0.6, 0.0, 0.8], [-0.0, 0.0, -1.0]]),
            # the half-turn about y, proper orthochronous, maps +z onto -z
            (np.diag([1.0, -1.0, 1.0, -1.0]), [[0.0, 0.0, 1.0]]),
        ],
    )
    def test_minus_z_rejected(self, m, n):
        # the basis has no limit at -z, in the input or in its image
        with pytest.raises(DomainError, match=r"-z = \(0, 0, -1\)"):
            wigner_phases(m, n)

    def test_subnormal_offsets_from_the_axis(self):
        # x and y of a few subnormal units: x / hypot(x, y) would not be a
        # cosine there, the azimuth from atan2 is
        rng = np.random.default_rng(67)
        directions = unit_vectors(np.array([5e-324, 1e-320, math.pi - 1e-17]), np.array([0.0, 0.7, 2.0]))
        for _ in range(100):
            m = random_transform(rng)
            for n, phase in zip(directions, wigner_phases(m, directions)):
                assert abs(wrapped(phase - reference_phase(m, photon(n)))) <= 1e-12

    def test_one_call_on_a_stack_equals_per_row_calls(self):
        rng = np.random.default_rng(61)
        m = tilted_boost(rng)
        directions = np.array([random_direction(rng) for _ in range(50)])
        stacked = wigner_phases(m, directions)
        assert stacked.shape == (50,)
        for n, phase in zip(directions, stacked):
            assert wigner_phases(m, n[None])[0] == pytest.approx(phase, abs=1e-15)

    def test_rotation_about_momentum_axis(self):
        for phi0 in (0.3, -1.2, 2.9):
            phase = wigner_phases(rotation_z(phi0), [[0.0, 0.0, 1.0]])[0]
            assert phase == pytest.approx(phi0, abs=1e-12)

    def test_pure_boost_collinear_with_momentum(self):
        # a boost along n, built by conjugating a z-boost, does not rotate n's frame
        rng = np.random.default_rng(37)
        for _ in range(20):
            theta, phi = math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi)
            frame = rotation_z(phi) @ rotation_y(theta)
            transform = frame @ boost_z(rng.uniform(-0.8, 0.8)) @ inverse(frame)
            assert abs(wigner_phases(transform, [unit_vectors(theta, phi)])[0]) <= 1e-10

    @PROPERTY
    @given(theta=POLAR, phi=AZIMUTH, t1=TRANSFORMS, t2=TRANSFORMS)
    def test_group_composition(self, theta, phi, t1, t2):
        # Theta(m2 m1, n) = Theta(m2, n1') + Theta(m1, n), n1' along m1 (1, n)
        n = unit_vectors(theta, phi)
        moved = (t1 @ photon(n))[1:]
        total = wigner_phases(t2 @ t1, [n])[0]
        split = wigner_phases(t2, [moved / np.linalg.norm(moved)])[0] + wigner_phases(t1, [n])[0]
        assert abs(wrapped(total - split)) <= 1e-12


class TestMatrixCheck:
    """``wigner_phases`` checks its matrix once: metric preservation relative
    to the largest entry, and proper orthochronous."""

    N = [[0.6, 0.0, 0.8]]

    @pytest.mark.parametrize("beta", [0.9999, -0.9999, 0.99999, -0.99999, 0.999999])
    def test_accepts_fast_boosts(self, beta):
        # the absolute residual of m^T eta m - eta grows as gamma^2 in
        # rounding: 1.1e-12 at beta = 0.9999
        assert wigner_phases(boost_z(beta), self.N)[0] == 0.0

    def test_accepts_fast_tilted_boost(self):
        m = rotation_y(1.2) @ boost_z(0.99999) @ rotation_y(-1.2)
        assert np.isfinite(wigner_phases(m, self.N)).all()

    @pytest.mark.parametrize(
        "m, message",
        [
            (np.eye(4) + 1e-9 * np.outer(np.eye(4)[0], np.eye(4)[1]), "Minkowski metric"),
            (np.full((4, 4), math.nan), "Minkowski metric"),
            (np.diag([-1.0, 1.0, 1.0, 1.0]), "proper orthochronous"),
            (np.diag([1.0, -1.0, -1.0, -1.0]), "proper orthochronous"),
            (np.diag([-1.0, -1.0, -1.0, -1.0]), "proper orthochronous"),
            (np.eye(3), "4x4"),
        ],
    )
    def test_rejects(self, m, message):
        with pytest.raises(DomainError, match=message):
            wigner_phases(m, self.N)


class TestTypes:
    """Directions are angle pairs or unit vectors, momenta (t, x, y, z)
    arrays, and transforms 4x4 matrices."""

    def test_spherical_direction_normalizes_phi(self):
        _, phi = polar_angles(1.0, 2.0 + 6 * math.pi)
        assert phi == pytest.approx(2.0, abs=1e-9)

    def test_spherical_direction_rejects_bad_theta(self):
        for theta in (-0.5, 4.0):
            with pytest.raises(DomainError, match="polar angle"):
                polar_angles(theta, 0.0)

    def test_antipode(self):
        n = unit_vectors(0.7, 1.1)
        antipode = unit_vectors(*polar_angles(math.pi - 0.7, 1.1 + math.pi))
        assert np.allclose(antipode, -n, atol=1e-12)

    @pytest.mark.parametrize("shape", [(3,), (2, 4), (1, 2, 3), (0,), ()])
    def test_wigner_phases_rejects_directions_not_n_by_3(self, shape):
        with pytest.raises(DomainError, match=r"an \(N, 3\) stack"):
            wigner_phases(boost_z(0.3), np.zeros(shape))

    def test_empty_stacks_give_empty_arrays(self):
        phases = wigner_phases(boost_z(0.3), np.zeros((0, 3)))
        assert phases.shape == (0,)
        theta, phi = polar_angles([], [])
        assert theta.shape == phi.shape == (0,)

    def test_lorentz_transform_rejects_non_metric_matrix(self):
        with pytest.raises(DomainError, match="Minkowski metric"):
            wigner_phases(np.eye(4) * 2.0, [[0.0, 0.0, 1.0]])

    def test_lorentz_transform_rejects_time_reversal(self):
        with pytest.raises(DomainError, match="proper orthochronous"):
            wigner_phases(np.diag([-1.0, 1.0, 1.0, -1.0]), [[0.0, 0.0, 1.0]])

    def test_inverse(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            t = random_transform(rng)
            assert np.allclose(t @ inverse(t), np.eye(4), atol=1e-12)

    def test_photon_null_and_positive(self):
        p = photon(unit_vectors(1.0, 2.0), energy=1.7)
        assert null_mask(p) and p[0] == pytest.approx(1.7)
        assert not null_mask(p + [0.0, 0.0, 0.0, 0.1])
