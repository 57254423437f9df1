import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boostlink.diffraction import (
    BeamProfile,
    QuadratureGrid,
    _aberrated_patch,
    _linear_basis,
    _node_directions,
    diffracted_reduced_type1,
    make_grid,
    negativity_sweep,
    normalized_weights,
    profile_weight,
    rotate_beam,
)
from boostlink.errors import DomainError
from boostlink.lorentz import SphericalDirection
from boostlink.quantum import negativity, purity
from boostlink.states import boost_type1, make_type1, reduced_polarization

# Regression constants computed with this package's quadrature oracle at the
# default 64x64 grid; they pin the boost-free diffracted pair at sigma = 1.
BASELINE_NEGATIVITY_SIGMA1 = 0.19917779685594897
BASELINE_PURITY_SIGMA1 = 0.2737031369435112

SWEEP_BETAS = [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5]


# Reference: the angle-based kernel the unit-vector kernel replaced.  Each arm
# goes arccos/arctan2 -> half-angle aberration -> cos/sin -> rotate back ->
# arccos/arctan2 -> cos/sin, and the four moment blocks are separate einsums.


def _reference_axis_rotation_y(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _reference_aberrate(theta, beta):
    stretch = math.sqrt((1.0 + beta) / (1.0 - beta))
    half = 0.5 * theta
    return 2.0 * np.arctan2(stretch * np.sin(half), np.cos(half))


def _reference_linear_pol(theta, phi):
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    h = np.stack([cp * cp * ct + sp * sp, sp * cp * (ct - 1.0), -st * cp], axis=-1)
    v = np.stack([sp * cp * (ct - 1.0), sp * sp * ct + cp * cp, -st * sp], axis=-1)
    return h, v


def _reference_patch_angles(grid, beam, beta, mirror):
    rot = _reference_axis_rotation_y(beam.alpha + (math.pi if mirror else 0.0))
    ct, st = np.cos(grid.theta), np.sin(grid.theta)
    patch = np.stack([st * np.cos(grid.phi), st * np.sin(grid.phi), ct], axis=-1)
    lab = patch @ rot.T
    theta_lab = np.arccos(np.clip(lab[:, 2], -1.0, 1.0))
    phi_lab = np.arctan2(lab[:, 1], lab[:, 0])
    theta_lab = _reference_aberrate(theta_lab, beta)
    ct, st = np.cos(theta_lab), np.sin(theta_lab)
    lab = np.stack([st * np.cos(phi_lab), st * np.sin(phi_lab), ct], axis=-1)
    patch = lab @ rot
    theta = np.arccos(np.clip(patch[:, 2], -1.0, 1.0))
    phi = np.arctan2(patch[:, 1], patch[:, 0])
    return theta, phi


def _reference_moments(theta, phi, weights):
    h, v = _reference_linear_pol(theta, phi)
    moments = {}
    for xname, x in (("h", h), ("v", v)):
        for yname, y in (("h", h), ("v", v)):
            m = np.zeros((4, 4), dtype=complex)
            m[1:, 1:] = np.einsum("i,ia,ib->ab", weights, x, y.conj())
            moments[xname + yname] = m
    return moments


def _reference_reduced_type1(beam_a, beam_b, beta, grid, opposite=True):
    a = _reference_moments(
        *_reference_patch_angles(grid, beam_a, beta, mirror=False),
        normalized_weights(grid, beam_a),
    )
    b = _reference_moments(
        *_reference_patch_angles(grid, beam_b, beta, mirror=opposite),
        normalized_weights(grid, beam_b),
    )
    rho = 0.5 * (
        np.kron(a["hh"], b["hh"])
        - np.kron(a["hv"], b["hv"])
        - np.kron(a["vh"], b["vh"])
        + np.kron(a["vv"], b["vv"])
    )
    return 0.5 * (rho + rho.conj().T)


class TestProfileWeight:
    def test_peak(self):
        assert profile_weight(0.0, BeamProfile(sigma=0.3)) == pytest.approx(1.0)

    def test_one_sigma_point(self):
        assert profile_weight(0.3, BeamProfile(sigma=0.3)) == pytest.approx(
            math.exp(-0.5), rel=1e-12
        )

    def test_rejects_bad_profile(self):
        with pytest.raises(DomainError):
            BeamProfile(sigma=0.0)
        with pytest.raises(DomainError):
            BeamProfile(sigma=0.1, p0=-1.0)

    def test_rejects_bad_angle(self):
        with pytest.raises(DomainError):
            profile_weight(-0.1, BeamProfile(sigma=0.3))


class TestQuadratureGrid:
    def test_normalization_defines_probability_weights(self):
        for sigma in (0.01, 0.1, 1.0):
            grid = make_grid(64, 64, sigma=sigma)
            w = normalized_weights(grid, BeamProfile(sigma=sigma))
            assert w.sum() == pytest.approx(1.0, rel=1e-12)
            assert np.all(w > 0.0)

    def test_measure_matches_analytic_shell_area(self):
        # With a flat profile the weights integrate (p0/2) sin(theta) over the
        # truncated cap: (p0/2) * 2*pi * (1 - cos(theta_max)).
        grid = make_grid(64, 64, sigma=None, p0=2.0)
        assert grid.weight.sum() == pytest.approx(2.0 * math.pi * 2.0, rel=1e-10)

    def test_rejects_nonpositive_weights(self):
        grid = make_grid(8, 8, sigma=0.2)
        with pytest.raises(DomainError):
            QuadratureGrid(grid.theta, grid.phi, -grid.weight, 8, 8)

    def test_rejects_tiny_grid(self):
        with pytest.raises(DomainError):
            make_grid(1, 8)


class TestRotateBeam:
    def test_zero_rotation_identity(self):
        d = SphericalDirection(0.7, 1.3)
        out = rotate_beam(d, 0.0)
        assert out.theta == pytest.approx(d.theta, abs=1e-12)
        assert out.phi == pytest.approx(d.phi, abs=1e-12)

    def test_pole_moves_by_alpha(self):
        for alpha in (0.2, 1.0, 2.5):
            out = rotate_beam(SphericalDirection(0.0, 0.0), alpha)
            assert abs(out.theta) == pytest.approx(abs(alpha), abs=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = SphericalDirection(rng.uniform(0.05, math.pi - 0.05), rng.uniform(0, 2 * math.pi))
            alpha = rng.uniform(-2.0, 2.0)
            back = rotate_beam(rotate_beam(d, alpha), -alpha)
            assert back.theta == pytest.approx(d.theta, abs=1e-10)
            assert np.allclose(back.unit_vector(), d.unit_vector(), atol=1e-10)

    def test_matches_rigid_rotation_about_y(self):
        # The mapped angles are those of R_y(-alpha) applied to the direction.
        rng = np.random.default_rng(5)
        for _ in range(30):
            d = SphericalDirection(rng.uniform(0.05, math.pi - 0.05), rng.uniform(0, 2 * math.pi))
            alpha = rng.uniform(-2.0, 2.0)
            c, s = math.cos(-alpha), math.sin(-alpha)
            ry = np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])
            assert np.allclose(
                rotate_beam(d, alpha).unit_vector(), ry @ d.unit_vector(), atol=1e-12
            )


class TestDiffractedReducedType1:
    def test_narrow_beam_recovers_sharp_state(self):
        # sigma -> 0 limit: purity 1 and the sharp-momentum negativity.
        for alpha in (0.0, 0.4):
            beam = BeamProfile(sigma=1e-4, alpha=alpha)
            grid = make_grid(48, 32, sigma=1e-4)
            rho = diffracted_reduced_type1(beam, beam, 0.15, grid)
            assert purity(rho) == pytest.approx(1.0, abs=1e-7)
            assert negativity(rho, 0) == pytest.approx(0.5, abs=1e-7)

    def test_zero_spread_limit_purity(self):
        # The purity deficit is 2*sigma^2 to leading order, so it drops below
        # 1e-9 once sigma reaches 1e-5.
        beam = BeamProfile(sigma=1e-5)
        grid = make_grid(48, 32, sigma=1e-5)
        rho = diffracted_reduced_type1(beam, beam, 0.0, grid)
        assert purity(rho) == pytest.approx(1.0, abs=1e-9)

    def test_sharp_negativity_matches_states_module(self):
        sharp = boost_type1(
            make_type1(SphericalDirection(0.4, 0.0), SphericalDirection(0.4, 0.0).antipode()),
            0.15,
        )
        assert negativity(reduced_polarization(sharp), 0) == pytest.approx(0.5, abs=1e-12)

    def test_purity_never_exceeds_one(self):
        for sigma in (0.05, 0.5, 1.0):
            beam = BeamProfile(sigma=sigma)
            grid = make_grid(32, 32, sigma=sigma)
            for beta in (0.0, 0.2):
                assert purity(diffracted_reduced_type1(beam, beam, beta, grid)) <= 1.0 + 1e-12

    def test_purity_expansion_at_rest(self):
        # P = 1 - 2 sigma^2 + O(sigma^4) at beta = 0; the residual must show
        # clean fourth-order scaling.
        ratios = []
        for sigma in (0.01, 0.02, 0.05):
            beam = BeamProfile(sigma=sigma)
            grid = make_grid(64, 64, sigma=sigma)
            p = purity(diffracted_reduced_type1(beam, beam, 0.0, grid))
            residual = abs(p - (1.0 - 2.0 * sigma**2))
            ratios.append(residual / sigma**4)
        assert max(ratios) < 5.0
        assert max(ratios) / min(ratios) < 1.5

    def test_purity_expansion_small_boost(self):
        # beta = 1e-2, sigma = 0.05: the quadratic-in-velocity expansion point
        # from the module contract; residual stays at the sigma^4 scale.
        sigma, beta = 0.05, 1e-2
        beam = BeamProfile(sigma=sigma)
        grid = make_grid(64, 64, sigma=sigma)
        p = purity(diffracted_reduced_type1(beam, beam, beta, grid))
        residual = abs(p - (1.0 - 2.0 * sigma**2 * (1.0 + abs(beta)) ** 2))
        assert residual <= 2e-4

    def test_measured_velocity_coefficient(self):
        # The small-sigma purity deficit divided by 2 sigma^2 equals
        # (1 + beta^2)/(1 - beta^2) for the back-to-back geometry.
        sigma = 0.01
        beam = BeamProfile(sigma=sigma)
        grid = make_grid(64, 64, sigma=sigma)
        for beta in (0.0, 0.1, 0.3):
            p = purity(diffracted_reduced_type1(beam, beam, beta, grid))
            g = (1.0 - p) / (2.0 * sigma**2)
            expected = (1.0 + beta**2) / (1.0 - beta**2)
            assert g == pytest.approx(expected, abs=1e-3)

    def test_grid_doubling_convergence(self):
        for sigma in (0.05, 0.2):
            for beta in (0.0, 0.3):
                values = []
                for n in (64, 128):
                    beam = BeamProfile(sigma=sigma)
                    grid = make_grid(n, n, sigma=sigma)
                    rho = diffracted_reduced_type1(beam, beam, beta, grid)
                    values.append((purity(rho), negativity(rho, 0)))
                assert abs(values[0][0] - values[1][0]) < 1e-6
                assert abs(values[0][1] - values[1][1]) < 1e-6

    def test_superluminal_rejected(self):
        beam = BeamProfile(sigma=0.1)
        grid = make_grid(16, 16, sigma=0.1)
        with pytest.raises(DomainError):
            diffracted_reduced_type1(beam, beam, 1.0, grid)


class TestUnitVectorKernel:
    @pytest.mark.parametrize("opposite", [True, False])
    @pytest.mark.parametrize("alpha", [0.0, math.pi / 2, math.pi - 0.01, math.pi])
    def test_matches_angle_based_reference(self, alpha, opposite):
        worst = 0.0
        for sigma in (0.2, 1.0, 3.0):
            grid = make_grid(32, 32, sigma=sigma)
            beam_a = BeamProfile(sigma=sigma, alpha=alpha)
            beam_b = BeamProfile(sigma=0.7 * sigma, alpha=alpha)
            for beta in (-0.9, 0.0, 0.3, 0.9):
                rho = diffracted_reduced_type1(beam_a, beam_b, beta, grid, opposite)
                ref = _reference_reduced_type1(beam_a, beam_b, beta, grid, opposite)
                worst = max(worst, float(np.abs(rho.mat - ref).max()))
        assert worst <= 1e-12

    def test_node_identities(self):
        # h, v orthonormal and transverse to the unit aberrated direction n,
        # also at nodes close to the beam-frame backward pole
        tol = 2e-14
        closest = 2.0
        for sigma in (0.2, 1.0, 3.0):
            nodes = _node_directions(make_grid(32, 32, sigma=sigma))
            for axis_angle in (0.0, 1.1, math.pi / 2, math.pi, 4.0):
                for beta in (-0.9, 0.0, 0.3, 0.9):
                    n = np.array(_aberrated_patch(nodes, axis_angle, beta))
                    basis = _linear_basis(*n)
                    h, v = basis[:3], basis[3:]
                    closest = min(closest, float(1.0 + n[2].min()))
                    for a, b, expected in ((n, n, 1), (h, h, 1), (v, v, 1), (h, v, 0),
                                           (h, n, 0), (v, n, 0)):
                        residual = np.abs(np.einsum("an,an->n", a, b) - expected)
                        assert residual.max() <= tol
        assert closest < 1e-6  # 1 + n_z; about 1e-3 rad from the pole

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        alpha=st.floats(0.0, math.pi),
        beta=st.floats(-0.95, 0.95),
        sigma=st.floats(0.05, 3.0),
    )
    def test_psd_unit_trace(self, alpha, beta, sigma):
        beam = BeamProfile(sigma=sigma, alpha=alpha)
        rho = diffracted_reduced_type1(beam, beam, beta, make_grid(24, 24, sigma=sigma)).mat
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-12


class TestNegativitySweep:
    def test_baseline_regression_constant(self):
        rows = negativity_sweep(0.0, 1.0, [0.0])
        assert rows[0][1] == pytest.approx(BASELINE_NEGATIVITY_SIGMA1, abs=1e-9)

    def test_baseline_independent_of_alpha(self):
        # At beta = 0 the beam pointing is a global rotation.
        for alpha in (0.3, math.pi / 2):
            rows = negativity_sweep(alpha, 1.0, [0.0])
            assert rows[0][1] == pytest.approx(BASELINE_NEGATIVITY_SIGMA1, abs=1e-9)

    def test_aligned_boost_always_degrades(self):
        values = [n for _, n in negativity_sweep(0.0, 1.0, SWEEP_BETAS)]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] < values[0] - 0.05

    def test_perpendicular_boost_can_increase_entanglement(self):
        values = [n for _, n in negativity_sweep(math.pi / 2, 1.0, SWEEP_BETAS)]
        assert max(values[1:]) > values[0] + 1e-4

    def test_rejects_superluminal_sweep(self):
        with pytest.raises(DomainError):
            negativity_sweep(0.0, 1.0, [0.0, 1.5])
