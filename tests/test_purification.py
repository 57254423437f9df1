import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from boostlink.diffraction import diffracted_reduced_type1, make_grid
from boostlink.errors import DegenerateProtocolError, DomainError
from boostlink.purification import (
    LinkParams,
    attenuation,
    bell_target,
    photon_budget,
    photons_required,
    purify_round,
)
from boostlink.quantum import DensityMatrix, fidelity_to_pure, negativity, purity

PAPER_LINK = LinkParams(
    length=13000e3, wavelength=800e-9, aperture_source=1.0, aperture_receiver=1.0
)

# Regression constants: sigma = 0.5 diffracted pair (64x64 grid, beta = 0),
# target purity 0.99, attenuation 100, computed with this package's
# round-by-round simulation.
SIGMA_HALF_ROUNDS_TO_TARGET = 4
SIGMA_HALF_PHOTONS = 2851.8752122284036
SIGMA_HALF_FIDELITIES = [
    0.7942761149834692,
    0.914688231314801,
    0.9771869217643732,
    0.9927009125863065,
    0.9978033062537626,
]


# fixed-seed property tests: derandomized, no example database
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)
UNIT_FLOATS = st.floats(-1.0, 1.0)


def _reference_round(rho):
    """The two-copy construction the round replaced: R (x) R on
    [A1, B1, A2, B2] as an 81x81 matrix, the bilateral XOR as a scatter of its
    rows and columns, then the kept coincidence blocks (m, m), m in {0, 1}."""
    shift = np.array([[0, 1, 2], [1, 0, 2], [2, 1, 0]])
    index = np.arange(81)
    a1, b1, a2, b2 = index // 27, (index // 9) % 3, (index // 3) % 3, index % 3
    xor_index = ((a1 * 3 + b1) * 3 + shift[a1, a2]) * 3 + shift[b1, b2]
    h = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, math.sqrt(2.0)]])
    hh = np.kron(h, h) / 2.0
    rotated = hh @ rho @ hh.T
    two_copy = np.kron(rotated, rotated)
    permuted = np.empty_like(two_copy)
    permuted[np.ix_(xor_index, xor_index)] = two_copy
    blocks = permuted.reshape((3,) * 8)
    kept = sum(blocks[:, :, m, m, :, :, m, m].reshape(9, 9) for m in (0, 1))
    success = np.trace(kept).real
    kept = kept / success
    return 0.5 * (kept + kept.conj().T), success


def _density_matrix(parts):
    """G G^dagger / Tr from the real and imaginary parts of a 9x9 G."""
    g = parts[0] + 1j * parts[1]
    mat = g @ g.conj().T
    trace = np.trace(mat).real
    assume(trace > 1e-3)
    return DensityMatrix(mat / trace, (3, 3))


def diffracted_qutrit_pair(sigma, beta=0.0, n=64):
    (rho,) = diffracted_reduced_type1(0.0, [beta], make_grid(n, n, sigma=sigma))
    return rho


class TestAttenuation:
    def test_paper_link_parameters(self):
        value = attenuation(PAPER_LINK)
        assert value == pytest.approx(108.16, rel=1e-12)
        assert 100.0 <= value <= 110.0

    def test_doubling_source_aperture_quarters(self):
        doubled = LinkParams(13000e3, 800e-9, 2.0, 1.0)
        assert attenuation(doubled) == pytest.approx(attenuation(PAPER_LINK) / 4.0, rel=1e-12)

    def test_halving_distance_quarters(self):
        halved = LinkParams(6500e3, 800e-9, 1.0, 1.0)
        assert attenuation(halved) == pytest.approx(attenuation(PAPER_LINK) / 4.0, rel=1e-12)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(DomainError):
            LinkParams(0.0, 800e-9, 1.0, 1.0)
        with pytest.raises(DomainError):
            LinkParams(13000e3, -800e-9, 1.0, 1.0)

    def test_rejects_non_finite_parameters(self):
        with pytest.raises(DomainError, match="finite"):
            LinkParams(math.inf, 800e-9, 1.0, 1.0)
        with pytest.raises(DomainError, match="finite"):
            LinkParams(13000e3, math.nan, 1.0, 1.0)

    @pytest.mark.parametrize("link", [(1e200, 800e-9, 1.0, 1.0), (13000e3, 800e-9, 1e-200, 1.0),
                                      (1e200, 1e200, 1e200, 1e200)])
    def test_rejects_non_finite_attenuation(self, link):
        # (L lambda / (d_S d_A))^2 overflows to inf, or is inf / inf = nan
        with pytest.raises(DomainError, match="attenuation must be finite"):
            LinkParams(*link)

    def test_rejects_apertures_whose_product_underflows(self):
        # d_S d_A = 0.0: the attenuation is inf, not a ZeroDivisionError
        with pytest.raises(DomainError, match="attenuation must be finite"):
            LinkParams(0.5, 800e-9, 1e-200, 1e-200)

    @pytest.mark.parametrize("link", [(1e-200, 800e-9, 1.0, 1.0), (1.0, 1e-200, 1e200, 1.0)])
    def test_rejects_attenuation_that_underflows_to_zero(self, link):
        with pytest.raises(DomainError, match="attenuation must be positive"):
            LinkParams(*link)


class TestPhotonBudget:
    def test_hand_arithmetic_one_round(self):
        assert photon_budget(1, 100.0, [0.5]) == pytest.approx(400.0, rel=1e-15)

    def test_zero_rounds_is_attenuation(self):
        assert photon_budget(0, 108.16, []) == pytest.approx(108.16, rel=1e-15)

    def test_rejects_bad_success_probability(self):
        with pytest.raises(DomainError):
            photon_budget(1, 100.0, [0.0])

    def test_rejects_non_finite_budget(self):
        assert photon_budget(0, 1e308, []) == 1e308
        with pytest.raises(DomainError, match="not finite"):
            photon_budget(1, 1e308, [0.5])


class TestPurifyRound:
    def test_ideal_bell_pair_is_fixed_point(self):
        rho = DensityMatrix.from_pure(bell_target(), (3, 3))
        out, success = purify_round(rho)
        assert fidelity_to_pure(out, bell_target()) == pytest.approx(1.0, abs=1e-12)
        assert success == pytest.approx(1.0, abs=1e-12)

    def test_output_is_valid_density_matrix(self):
        out, _ = purify_round(diffracted_qutrit_pair(0.5, n=32))
        assert out.dims == (3, 3)  # construction already validates invariants

    def test_moderate_spread_fidelity_increases_each_round(self):
        rho = diffracted_qutrit_pair(0.5, n=48)
        target = bell_target()
        fidelity = fidelity_to_pure(rho, target)
        for _ in range(4):
            rho, success = purify_round(rho)
            new_fidelity = fidelity_to_pure(rho, target)
            assert new_fidelity > fidelity
            assert 0.0 < success <= 1.0
            fidelity = new_fidelity

    def test_broad_spread_converges_to_junk_not_bell(self):
        # The sigma = 2 input is entangled (negative partial transpose) but
        # starts far below the Bell target.  Under this round it climbs
        # towards a two-cycle with fidelity 0.5 and purity 0.5, the success
        # probability alternating between 1 and 0.5, and never purifies.
        rho = diffracted_qutrit_pair(2.0, n=48)
        target = bell_target()
        fidelities = [fidelity_to_pure(rho, target)]
        for _ in range(4):
            rho, _ = purify_round(rho)
            fidelities.append(fidelity_to_pure(rho, target))
        assert fidelities[0] < 0.3
        assert all(f < 0.5 for f in fidelities)

    def test_maximally_mixed_is_fixed(self):
        rho = DensityMatrix(np.eye(9) / 9.0, (3, 3))
        out, success = purify_round(rho)
        assert np.allclose(out.mat, rho.mat, atol=1e-12)
        assert 0.0 < success < 1.0

    def test_global_phase_invariance(self):
        rho = diffracted_qutrit_pair(0.5, n=32)
        phased = DensityMatrix(np.exp(1j * 0.7) * rho.mat * np.exp(-1j * 0.7), (3, 3))
        out_a, s_a = purify_round(rho)
        out_b, s_b = purify_round(phased)
        assert np.allclose(out_a.mat, out_b.mat, atol=1e-12)
        assert s_a == pytest.approx(s_b, abs=1e-12)

    def test_arm_swap_covariance(self):
        # The protocol treats the two arms identically, so its fidelity
        # trajectory is invariant under exchanging them.
        rho = diffracted_qutrit_pair(0.7, n=32)
        swap = np.zeros((9, 9))
        for i in range(3):
            for j in range(3):
                swap[j * 3 + i, i * 3 + j] = 1.0
        swapped = DensityMatrix(swap @ rho.mat @ swap.T, (3, 3))
        target = bell_target()
        a, b = rho, swapped
        for _ in range(3):
            a, s_a = purify_round(a)
            b, s_b = purify_round(b)
            assert s_a == pytest.approx(s_b, abs=1e-10)
            assert fidelity_to_pure(a, target) == pytest.approx(
                fidelity_to_pure(b, target), abs=1e-10
            )

    def test_rejects_wrong_dims(self):
        with pytest.raises(DomainError):
            purify_round(DensityMatrix(np.eye(4) / 4.0, (2, 2)))

    @PROPERTY
    @given(parts=arrays(np.float64, (2, 9, 9), elements=UNIT_FLOATS))
    def test_matches_two_copy_reference(self, parts):
        rho = _density_matrix(parts)
        want, want_success = _reference_round(rho.mat)
        # near the success floor renormalizing amplifies round-off past 1e-14
        assume(want_success >= 1e-6)
        out, success = purify_round(rho)
        assert np.abs(out.mat - want).max() <= 1e-14
        assert abs(success - want_success) <= 1e-14

    @PROPERTY
    @given(
        weights=arrays(np.float64, (4,), elements=st.floats(0.0, 1.0)),
        vectors=arrays(np.float64, (2, 4, 2, 3), elements=UNIT_FLOATS),
    )
    def test_separable_input_stays_ppt_below_half_fidelity(self, weights, vectors):
        # sum_k p_k |a_k b_k><a_k b_k| with random complex a_k, b_k
        norms = np.linalg.norm(vectors, axis=(-2, -1))
        assume(weights.sum() > 1e-3 and norms.min() > 1e-3)
        a, b = (vectors[i, :, 0] + 1j * vectors[i, :, 1] for i in (0, 1))
        products = np.einsum("ki,kj->kij", a / norms[0, :, None], b / norms[1, :, None])
        products = products.reshape(4, 9)
        mat = np.einsum("k,ki,kj->ij", weights / weights.sum(), products, products.conj())
        try:
            out, _ = purify_round(DensityMatrix(mat, (3, 3)))
        except DegenerateProtocolError:
            assume(False)
        assert negativity(out) <= 1e-12
        assert fidelity_to_pure(out, bell_target()) <= 0.5 + 1e-12


class TestQutritProjection:
    """The diffraction kernel returns the pair in the qutrit bases: the ideal
    pair, its sigma -> 0 limit, is the Bell target."""

    def test_narrow_beam_maps_to_bell_target(self):
        (rho9,) = diffracted_reduced_type1(0.0, [0.0], make_grid(48, 48, sigma=1e-3))
        assert fidelity_to_pure(rho9, bell_target()) == pytest.approx(1.0, abs=1e-5)

    def test_trace_preserved(self):
        rho9 = diffracted_qutrit_pair(0.8, n=32)
        assert np.trace(rho9.mat).real == pytest.approx(1.0, abs=1e-12)


class TestPhotonsRequired:
    def test_target_already_met_returns_attenuation(self):
        rho = DensityMatrix.from_pure(bell_target(), (3, 3))
        trace = photons_required(rho, 0.99, 108.16)
        assert trace.succeeded
        assert len(trace.rounds) == 1
        assert trace.photons_required == pytest.approx(108.16, rel=1e-12)

    def test_sigma_half_regression_trajectory(self):
        trace = photons_required(diffracted_qutrit_pair(0.5), 0.99, 100.0)
        assert trace.succeeded
        assert trace.rounds[-1].round_index == SIGMA_HALF_ROUNDS_TO_TARGET
        assert trace.photons_required == pytest.approx(SIGMA_HALF_PHOTONS, rel=1e-9)
        for record, expected in zip(trace.rounds, SIGMA_HALF_FIDELITIES):
            assert record.fidelity == pytest.approx(expected, abs=1e-9)

    def test_budget_matches_formula(self):
        trace = photons_required(diffracted_qutrit_pair(0.5), 0.99, 100.0)
        k = trace.rounds[-1].round_index
        successes = [r.success_probability for r in trace.rounds[1:]]
        assert trace.photons_required == pytest.approx(
            photon_budget(k, 100.0, successes), rel=1e-12
        )
        assert trace.photons_required >= 2.0**k

    def test_monotone_in_target_purity(self):
        rho = diffracted_qutrit_pair(0.5)
        budgets = [
            photons_required(rho, target, 100.0).photons_required
            for target in (0.7, 0.9, 0.99)
        ]
        assert budgets[0] <= budgets[1] <= budgets[2]

    def test_unreachable_target_reports_failure_outcome(self):
        trace = photons_required(diffracted_qutrit_pair(2.0, n=32), 0.999, 100.0, max_rounds=12)
        assert not trace.succeeded
        assert math.isinf(trace.photons_required)
        assert len(trace.rounds) >= 2

    def test_rejects_bad_inputs(self):
        rho = diffracted_qutrit_pair(0.5, n=32)
        with pytest.raises(DomainError):
            photons_required(rho, 0.0, 100.0)
        with pytest.raises(DomainError):
            photons_required(rho, 0.99, -1.0)
