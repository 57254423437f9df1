import math

import numpy as np
import pytest

from boostlink.errors import DomainError
from boostlink.lorentz import aberrate, boost_z, polar_angles, unit_vectors, wigner_phases
from boostlink.states import pair_amplitudes, type2_amplitudes, type3_amplitudes
from boostlink.quantum import negativity, purity, trace_distances


def direction(theta, phi):
    """Unit vector along the validated angles (theta, phi)."""
    return unit_vectors(*polar_angles(theta, phi))


def opposite_pair(theta, phi=0.0):
    """Back-to-back geometry: arm B at the polar antipode (pi - theta, phi + pi)
    of arm A."""
    return direction(theta, phi), direction(math.pi - theta, phi + math.pi)


def type1_amplitude(dir_a, dir_b):
    """The type-I pair amplitude (C^9) for photons along the unit vectors
    ``dir_a`` and ``dir_b``."""
    return pair_amplitudes(dir_a[None], dir_b[None])[0]


def type1_matrix(dir_a, dir_b, beta=None):
    """Polarization matrix of the type-I pair, on dims (3, 3); with ``beta``,
    after a z-boost, which aberrates both directions."""
    if beta is not None:
        dir_a, dir_b = aberrate(np.stack([dir_a, dir_b]), beta)
    psi = type1_amplitude(dir_a, dir_b)
    return np.outer(psi, np.conj(psi))


def type2_reduced(phase_a, phase_b):
    """The type-II matrix on dims (2, 2) at one pair of branch phases."""
    psi = type2_amplitudes(phase_a, phase_b)
    return np.outer(psi, np.conj(psi))


def type3_reduced(phase):
    """The type-III matrix on dims (2, 2) at one global phase."""
    psi = type3_amplitudes(phase)
    return np.outer(psi, np.conj(psi))


def trace_distance(a, b):
    """``trace_distances`` of the one pair of matrices (a, b)."""
    return float(trace_distances(a[None], b[None])[0])


def one_negativity(rho):
    """``negativity`` of one two-qutrit (9x9) or two-qubit (4x4) matrix."""
    dims = (3, 3) if len(rho) == 9 else (2, 2)
    return float(negativity(rho[None], dims)[0])


def random_direction(rng):
    return direction(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))


class TestMakeType1:
    def test_reduced_matrix_is_maximally_entangled(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            rho = type1_matrix(random_direction(rng), random_direction(rng))
            assert rho.shape == (9, 9)
            assert one_negativity(rho) == pytest.approx(0.5, abs=1e-12)
            assert purity(rho) == pytest.approx(1.0, rel=1e-12)


class TestBoostType1:
    def test_zero_velocity_identity(self):
        dir_a, dir_b = opposite_pair(1.1, 0.4)
        moved = aberrate(np.stack([dir_a, dir_b]), 0.0)
        assert np.allclose(type1_amplitude(*moved), type1_amplitude(dir_a, dir_b), atol=1e-15)
        p_a = np.concatenate([[1.0], dir_a])
        assert np.allclose(boost_z(0.0) @ p_a, p_a, atol=1e-15)

    def test_negativity_invariant_under_boosts(self):
        rng = np.random.default_rng(5)
        for beta in (1e-5, 0.1, 0.5):
            for _ in range(5):
                rho = type1_matrix(random_direction(rng), random_direction(rng), beta)
                assert one_negativity(rho) == pytest.approx(0.5, abs=1e-10)

    def test_pair_error_law(self):
        # Opposite directions: trace distance ~ beta*sin(theta), within 1%
        # relative for small beta; the ratio must not drift with beta.
        for beta in (1e-6, 1e-5, 1e-4):
            for theta in np.linspace(0.25, math.pi - 0.25, 9):
                pair = opposite_pair(theta)
                eps = trace_distance(type1_matrix(*pair), type1_matrix(*pair, beta))
                assert eps / (beta * math.sin(theta)) == pytest.approx(1.0, abs=0.01)

    def test_superluminal_rejected(self):
        with pytest.raises(DomainError):
            type1_matrix(*opposite_pair(1.0), 1.0)


def arm_phases(dir_a, dir_b, beta):
    """Wigner phase of each arm under ``boost_z(beta)``, from one kernel call."""
    return tuple(wigner_phases(boost_z(beta), np.stack([dir_a, dir_b])).tolist())


class TestBoostType2:
    def test_zero_velocity_identity(self):
        for phase in arm_phases(*opposite_pair(0.9, 1.2), 0.0):
            assert phase == pytest.approx(0.0, abs=1e-14)

    def test_collinear_momenta_unchanged(self):
        dir_up = direction(0.0, 0.0)
        dir_down = direction(math.pi, 0.0)
        for phase in arm_phases(dir_up, dir_down, 0.3):
            assert phase == pytest.approx(0.0, abs=1e-12)

    def test_branch_phases_follow_wigner_oracle(self):
        # helicity -1 shifts each branch by +Theta; only the relative phase
        # Theta_B - Theta_A enters the matrix
        rng = np.random.default_rng(7)
        for _ in range(10):
            theta_a, theta_b = arm_phases(
                random_direction(rng), random_direction(rng), rng.uniform(-0.6, 0.6)
            )
            boosted = type2_reduced(theta_a, theta_b)
            relative = type2_reduced(0.0, theta_b - theta_a)
            assert np.abs(boosted - relative).max() <= 1e-12
            assert trace_distance(boosted, type2_reduced(0.0, 0.0)) == pytest.approx(
                abs(math.sin((theta_b - theta_a) / 2.0)), abs=1e-12
            )


class TestBoostType3:
    def test_zero_velocity_identity(self):
        assert sum(arm_phases(*opposite_pair(0.6, 2.0), 0.0)) == pytest.approx(0.0, abs=1e-14)

    def test_trace_distance_across_frames_is_zero(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            shift = -sum(
                arm_phases(random_direction(rng), random_direction(rng), rng.uniform(-0.5, 0.5))
            )
            assert trace_distance(type3_reduced(0.0), type3_reduced(shift)) <= 1e-13

    def test_negativity_half_in_all_frames(self):
        pair = opposite_pair(1.3, 0.2)
        for beta in (0.0, 1e-5, 0.4):
            rho = type3_reduced(-sum(arm_phases(*pair, beta)))
            assert one_negativity(rho) == pytest.approx(0.5, abs=1e-12)

    def test_global_phase_never_enters_matrix(self):
        assert trace_distance(type3_reduced(1.234), type3_reduced(0.0)) <= 1e-14


class TestNumberBasisReduced:
    """The occupation-basis rows of ``type2_amplitudes`` and
    ``type3_amplitudes`` and their matrices."""

    def test_stack_equals_one_phase_at_a_time(self):
        rng = np.random.default_rng(17)
        phases = rng.uniform(-math.pi, math.pi, (8, 2))
        type2 = type2_amplitudes(*phases.T)
        type3 = type3_amplitudes(phases[:, 0])
        assert type2.shape == type3.shape == (8, 4)
        for (phase_a, phase_b), row2, row3 in zip(phases, type2, type3):
            assert np.array_equal(row2, type2_amplitudes(phase_a, phase_b))
            assert np.array_equal(row3, type3_amplitudes(phase_a))

    def test_rows_have_unit_norm(self):
        phases = np.linspace(-2.0 * math.pi, 2.0 * math.pi, 25)
        for rows in (type2_amplitudes(phases, phases[::-1]), type3_amplitudes(phases)):
            assert np.abs(np.linalg.norm(rows, axis=-1) - 1.0).max() <= 1e-15

    def test_source_frame_bell_form(self):
        for rho in (type2_reduced(0.0, 0.0), type3_reduced(0.0)):
            assert rho.shape == (4, 4)
            assert one_negativity(rho) == pytest.approx(0.5, abs=1e-12)
            assert purity(rho) == pytest.approx(1.0, rel=1e-12)

    def test_phase_difference_closed_form(self):
        # Trace distance to the phase-free form is |sin(delta/2)| where delta
        # is the branch-phase difference.
        reference = type2_reduced(0.0, 0.0)
        for delta in (0.0, 0.3, 1.0, math.pi / 2, 2.5):
            dist = trace_distance(type2_reduced(0.2 + delta, 0.2), reference)
            assert dist == pytest.approx(abs(math.sin(delta / 2.0)), abs=1e-12)

    def test_compensation_removes_phases(self):
        # adding the known phases back to the shifted ones gives exactly 0.0,
        # per branch and for the type III sum, so the source matrix returns
        rng = np.random.default_rng(13)
        for known_a, known_b in rng.uniform(-math.pi, math.pi, (20, 2)):
            shift_a, shift_b = -known_a, -known_b
            type2 = type2_reduced(shift_a + known_a, shift_b + known_b)
            type3 = type3_reduced((shift_a + shift_b) + (known_a + known_b))
            assert np.array_equal(type2, type2_reduced(0.0, 0.0))
            assert np.array_equal(type3, type3_reduced(0.0))
            assert trace_distance(type2, type2_reduced(0.0, 0.0)) <= 1e-14

    def test_type2_boost_round_trip_distance(self):
        # For a pure z-boost the little-group elements are null translations,
        # so the raw branch phases stay zero and raw equals compensated.
        theta_a, theta_b = arm_phases(*opposite_pair(0.9, 0.7), 1e-3)
        raw = trace_distance(type2_reduced(-theta_a, -theta_b), type2_reduced(0.0, 0.0))
        assert raw <= 1e-12

    def test_index_layout(self):
        # |n_A=1, n_B=0> at index 2 and |n_A=0, n_B=1> at index 1; the dual-rail
        # pair on |0 0> and |1 1>
        psi2 = np.array([0.0, -np.exp(0.5j), np.exp(0.3j), 0.0]) / math.sqrt(2.0)
        psi3 = np.exp(0.7j) * np.array([1.0, 0.0, 0.0, -1.0]) / math.sqrt(2.0)
        assert np.abs(type2_reduced(0.3, 0.5) - np.outer(psi2, psi2.conj())).max() <= 1e-15
        assert np.abs(type3_reduced(0.7) - np.outer(psi3, psi3.conj())).max() <= 1e-15
