import math

import numpy as np
import pytest

from boostlink.errors import DomainError
from boostlink.lorentz import (
    FourVector,
    SphericalDirection,
    apply,
    boost_z,
    transform_angles,
    wigner_phase,
)
from boostlink.states import (
    boost_type2,
    boost_type3,
    make_type2,
    make_type3,
    number_basis_reduced,
    pair_amplitudes,
)
from boostlink.quantum import DensityMatrix, negativity, purity, trace_distance


def opposite_pair(theta, phi=0.0):
    """Back-to-back geometry: arm B at the exact mirror of arm A."""
    dir_a = SphericalDirection(theta, phi)
    return dir_a, dir_a.antipode()


def type1_amplitude(dir_a, dir_b):
    """The type-I pair amplitude (C^9) for photons along ``dir_a`` and ``dir_b``."""
    return pair_amplitudes([dir_a.theta], [dir_a.phi], [dir_b.theta], [dir_b.phi])[0]


def type1_matrix(dir_a, dir_b, beta=None):
    """Polarization matrix of the type-I pair, on dims (3, 3); with ``beta``,
    after a z-boost, which aberrates both directions."""
    if beta is not None:
        dir_a, dir_b = transform_angles(dir_a, beta), transform_angles(dir_b, beta)
    return DensityMatrix.from_pure(type1_amplitude(dir_a, dir_b), (3, 3))


def random_direction(rng):
    return SphericalDirection(math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi))


class TestMakeType1:
    def test_reduced_matrix_is_maximally_entangled(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            rho = type1_matrix(random_direction(rng), random_direction(rng))
            assert rho.dims == (3, 3)
            assert negativity(rho, 0) == pytest.approx(0.5, abs=1e-12)
            assert purity(rho) == pytest.approx(1.0, rel=1e-12)


class TestBoostType1:
    def test_zero_velocity_identity(self):
        dir_a, dir_b = opposite_pair(1.1, 0.4)
        moved = [transform_angles(d, 0.0) for d in (dir_a, dir_b)]
        assert np.allclose(type1_amplitude(*moved), type1_amplitude(dir_a, dir_b), atol=1e-15)
        p_a = FourVector.photon(dir_a)
        assert np.allclose(apply(boost_z(0.0), p_a).as_array(), p_a.as_array(), atol=1e-15)

    def test_negativity_invariant_under_boosts(self):
        rng = np.random.default_rng(5)
        for beta in (1e-5, 0.1, 0.5):
            for _ in range(5):
                rho = type1_matrix(random_direction(rng), random_direction(rng), beta)
                assert negativity(rho, 0) == pytest.approx(0.5, abs=1e-10)

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


class TestBoostType2:
    def test_zero_velocity_identity(self):
        state = make_type2(*opposite_pair(0.9, 1.2))
        out = boost_type2(state, 0.0)
        assert out.phi_a == pytest.approx(state.phi_a, abs=1e-14)
        assert out.phi_b == pytest.approx(state.phi_b, abs=1e-14)

    def test_collinear_momenta_unchanged(self):
        dir_up = SphericalDirection(0.0, 0.0)
        dir_down = SphericalDirection(math.pi, 0.0)
        state = make_type2(dir_up, dir_down)
        out = boost_type2(state, 0.3)
        assert out.phi_a == pytest.approx(0.0, abs=1e-12)
        assert out.phi_b == pytest.approx(0.0, abs=1e-12)

    def test_branch_phases_follow_wigner_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            state = make_type2(random_direction(rng), random_direction(rng), lam=-1)
            beta = rng.uniform(-0.6, 0.6)
            transform = boost_z(beta)
            out = boost_type2(state, beta)
            expected_a = state.phi_a - state.lam * wigner_phase(transform, state.p_a)
            expected_b = state.phi_b - state.lam * wigner_phase(transform, state.p_b)
            assert out.phi_a == pytest.approx(expected_a, abs=1e-12)
            assert out.phi_b == pytest.approx(expected_b, abs=1e-12)
            assert (out.phi_b - out.phi_a) == pytest.approx(
                -state.lam
                * (
                    wigner_phase(transform, state.p_b)
                    - wigner_phase(transform, state.p_a)
                ),
                abs=1e-12,
            )

    def test_momenta_boosted(self):
        state = make_type2(*opposite_pair(0.7))
        out = boost_type2(state, 0.25)
        assert np.allclose(
            out.p_a.as_array(), apply(boost_z(0.25), state.p_a).as_array(), atol=1e-14
        )


class TestBoostType3:
    def test_zero_velocity_identity(self):
        state = make_type3(*opposite_pair(0.6, 2.0))
        assert boost_type3(state, 0.0).global_phase == pytest.approx(
            state.global_phase, abs=1e-14
        )

    def test_trace_distance_across_frames_is_zero(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            state = make_type3(random_direction(rng), random_direction(rng))
            boosted = boost_type3(state, rng.uniform(-0.5, 0.5))
            dist = trace_distance(
                number_basis_reduced(state), number_basis_reduced(boosted)
            )
            assert dist <= 1e-13

    def test_negativity_half_in_all_frames(self):
        state = make_type3(*opposite_pair(1.3, 0.2))
        for beta in (0.0, 1e-5, 0.4):
            rho = number_basis_reduced(boost_type3(state, beta))
            assert negativity(rho, 0) == pytest.approx(0.5, abs=1e-12)

    def test_global_phase_never_enters_matrix(self):
        state = make_type3(*opposite_pair(1.0), global_phase=1.234)
        plain = make_type3(*opposite_pair(1.0))
        assert (
            trace_distance(number_basis_reduced(state), number_basis_reduced(plain))
            <= 1e-14
        )


class TestNumberBasisReduced:
    def test_source_frame_bell_form(self):
        for state in (make_type2(*opposite_pair(0.8)), make_type3(*opposite_pair(0.8))):
            rho = number_basis_reduced(state)
            assert rho.dims == (2, 2)
            assert negativity(rho, 0) == pytest.approx(0.5, abs=1e-12)
            assert purity(rho) == pytest.approx(1.0, rel=1e-12)

    def test_phase_difference_closed_form(self):
        # Trace distance to the phase-free form is |sin(delta/2)| where delta
        # is the branch-phase difference.
        reference = number_basis_reduced(make_type2(*opposite_pair(0.8)))
        for delta in (0.0, 0.3, 1.0, math.pi / 2, 2.5):
            shifted = make_type2(*opposite_pair(0.8), phi_a=0.2 + delta, phi_b=0.2)
            dist = trace_distance(number_basis_reduced(shifted), reference)
            assert dist == pytest.approx(abs(math.sin(delta / 2.0)), abs=1e-12)

    def test_compensation_removes_phases(self):
        shifted = make_type2(*opposite_pair(0.8), phi_a=1.0, phi_b=-0.4)
        reference = number_basis_reduced(make_type2(*opposite_pair(0.8)))
        assert (
            trace_distance(number_basis_reduced(shifted, compensate_phases=True), reference)
            <= 1e-14
        )

    def test_type2_boost_round_trip_distance(self):
        # For a pure z-boost the little-group elements are null translations,
        # so the raw branch phases stay zero and raw equals compensated.
        state = make_type2(*opposite_pair(0.9, 0.7))
        boosted = boost_type2(state, 1e-3)
        raw = trace_distance(number_basis_reduced(boosted), number_basis_reduced(state))
        assert raw <= 1e-12

    def test_rejects_other_types(self):
        with pytest.raises(DomainError):
            number_basis_reduced(type1_matrix(*opposite_pair(1.0)))


class TestTypeValidation:
    def test_bad_helicity_rejected(self):
        with pytest.raises(DomainError):
            make_type2(*opposite_pair(1.0), lam=0)
        with pytest.raises(DomainError):
            make_type3(*opposite_pair(1.0), lam=2)
