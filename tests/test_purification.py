import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from boostlink import diffraction, purification
from boostlink.cli import main
from boostlink.diffraction import diffracted_reduced_type1, make_grid
from boostlink.errors import DegenerateProtocolError, DomainError
from boostlink.purification import (
    LinkParams,
    PurificationTrace,
    RoundResult,
    attenuation,
    bell_target,
    photon_budget,
    photons_required,
    purify_round,
)
from boostlink.quantum import DensityMatrix, check_density_matrices, fidelity_to_pure, negativity, purity

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


def _sum_form_round(mat):
    """The round as it summed one np.ix_ gather per kept outcome from a
    leading integer 0, with E^dagger taken on every call."""
    shifts = np.array([[0, 1, 2], [1, 0, 2], [2, 1, 0]])[:, (0, 1)].T
    pis = (3 * shifts[:, :, None] + shifts[:, None, :]).reshape(-1, 9)
    h = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, math.sqrt(2.0)]]) / math.sqrt(2.0)
    e = np.kron(h, h)
    rotated = e @ mat @ e.conj().T
    kept = sum(rotated * rotated[np.ix_(pi, pi)] for pi in pis)
    success = float(np.trace(kept).real)
    kept /= success
    return 0.5 * (kept + kept.conj().T), success


def _density_matrix(parts):
    """G G^dagger / Tr from the real and imaginary parts of a 9x9 G."""
    g = parts[0] + 1j * parts[1]
    mat = g @ g.conj().T
    trace = np.trace(mat).real
    assume(trace > 1e-3)
    return mat / trace


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


BELL = np.outer(bell_target(), np.conj(bell_target()))


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

    # photons_required's attenuation and round-cap checks, with its messages
    @pytest.mark.parametrize("factor", [-5.0, 0.0, -0.0, math.nan, math.inf])
    def test_rejects_attenuation_that_is_not_positive_and_finite(self, factor):
        # -5.0 used to return -5.0, and 0.0 to return 0.0
        with pytest.raises(DomainError, match="attenuation must be positive and finite"):
            photon_budget(0, factor, [])

    @pytest.mark.parametrize("rounds, successes", [(2.5, [0.5, 0.5]), (True, [0.5]), (-1, [])])
    def test_rejects_round_count_that_is_not_a_non_negative_int(self, rounds, successes):
        # 2.5 used to return 2262.7, and True to count as 1
        with pytest.raises(DomainError, match="round count must be a non-negative integer"):
            photon_budget(rounds, 100.0, successes)

    @pytest.mark.parametrize("successes", [[0.5], [0.5, 0.5, 0.5, 0.5], []])
    def test_rejects_one_success_probability_per_round_missing_or_extra(self, successes):
        # 3 rounds with 1 success probability used to return 1600.0
        with pytest.raises(DomainError, match=rf"3 rounds need 3 success probabilities, got {len(successes)}"):
            photon_budget(3, 100.0, successes)

    def test_accepts_numpy_round_count_and_any_iterable(self):
        assert photon_budget(np.int64(2), 100.0, iter([0.5, 0.25])) == 3200.0


class TestPurifyRound:
    def test_ideal_bell_pair_is_fixed_point(self):
        out, success = purify_round(BELL)
        assert fidelity_to_pure(out, bell_target()) == pytest.approx(
            1.0, abs=1e-12
        )
        assert success == pytest.approx(1.0, abs=1e-12)

    def test_output_is_valid_density_matrix(self):
        out, _ = purify_round(diffracted_qutrit_pair(0.5, n=32))
        assert DensityMatrix(out, (3, 3)).dims == (3, 3)  # construction validates invariants

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
            rho = purify_round(rho)[0]
            fidelities.append(fidelity_to_pure(rho, target))
        assert fidelities[0] < 0.3
        assert all(f < 0.5 for f in fidelities)

    def test_maximally_mixed_is_fixed(self):
        rho = np.eye(9) / 9.0
        out, success = purify_round(rho)
        check_density_matrices(out[None])
        assert np.allclose(out, rho, atol=1e-12)
        assert 0.0 < success < 1.0

    def test_global_phase_invariance(self):
        rho = diffracted_qutrit_pair(0.5, n=32)
        phased = np.exp(1j * 0.7) * rho * np.exp(-1j * 0.7)
        out_a, s_a = purify_round(rho)
        out_b, s_b = purify_round(phased)
        assert np.allclose(out_a, out_b, atol=1e-12)
        assert s_a == pytest.approx(s_b, abs=1e-12)

    def test_arm_swap_covariance(self):
        # The protocol treats the two arms identically, so its fidelity
        # trajectory is invariant under exchanging them.
        rho = diffracted_qutrit_pair(0.7, n=32)
        swap = np.zeros((9, 9))
        for i in range(3):
            for j in range(3):
                swap[j * 3 + i, i * 3 + j] = 1.0
        swapped = swap @ rho @ swap.T
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
        message = r"expected a \(9, 9\) qutrit-pair matrix, got shape \(4, 4\)"
        with pytest.raises(DomainError, match=message):
            purify_round(np.eye(4) / 4.0)

    @PROPERTY
    @given(parts=arrays(np.float64, (2, 9, 9), elements=UNIT_FLOATS))
    def test_matches_two_copy_reference(self, parts):
        rho = _density_matrix(parts)
        want, want_success = _reference_round(rho)
        # near the success floor renormalizing amplifies round-off past 1e-14
        assume(want_success >= 1e-6)
        out, success = purify_round(rho)
        check_density_matrices(out[None])
        assert np.abs(out - want).max() <= 1e-14
        assert abs(success - want_success) <= 1e-14

    @PROPERTY
    @given(parts=arrays(np.float64, (2, 9, 9), elements=UNIT_FLOATS))
    def test_matches_sum_form(self, parts):
        rho = _density_matrix(parts)
        want, want_success = _sum_form_round(rho.astype(complex))
        assume(want_success >= purification.MIN_SUCCESS_PROBABILITY)
        out, success = purify_round(rho)
        check_density_matrices(out[None])
        assert np.abs(out - want).max() <= 1e-15
        assert success == want_success

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
            check_density_matrices(mat[None])
            out, _ = purify_round(mat)
        except DegenerateProtocolError:
            assume(False)
        assert negativity(out[None], (3, 3))[0] <= 1e-12
        assert fidelity_to_pure(out, bell_target()) <= 0.5 + 1e-12


class TestQutritProjection:
    """The diffraction kernel returns the pair in the qutrit bases: the ideal
    pair, its sigma -> 0 limit, is the Bell target."""

    def test_narrow_beam_maps_to_bell_target(self):
        (rho9,) = diffracted_reduced_type1(0.0, [0.0], make_grid(48, 48, sigma=1e-3))
        assert fidelity_to_pure(rho9, bell_target()) == pytest.approx(1.0, abs=1e-5)

    def test_trace_preserved(self):
        rho9 = diffracted_qutrit_pair(0.8, n=32)
        assert np.trace(rho9).real == pytest.approx(1.0, abs=1e-12)


class TestPhotonsRequired:
    def test_target_already_met_returns_attenuation(self):
        trace = photons_required(BELL, 0.99, 108.16)
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

    @pytest.mark.parametrize("mat", [np.eye(4) / 4.0, BELL[None]])
    def test_rejects_dims_other_than_a_qutrit_pair(self, mat):
        # checked before round 0, so a pure input that meets the target is
        # rejected too
        message = rf"expected density matrices of shape \(9, 9\), got shape {re.escape(str(mat.shape))}"
        with pytest.raises(DomainError, match=message):
            photons_required(mat, 0.99, 100.0)

    @pytest.mark.parametrize("factor", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_rejects_attenuation_that_is_not_positive_and_finite(self, factor):
        with pytest.raises(DomainError, match="attenuation must be positive and finite"):
            photons_required(BELL, 0.99, factor)

    @pytest.mark.parametrize("max_rounds", [-1, 2.5, True, False, "3", None])
    def test_rejects_round_cap_that_is_not_a_non_negative_int(self, max_rounds):
        # the target is met at round 0, so only the check can stop the run
        with pytest.raises(DomainError, match="round cap must be a non-negative integer"):
            photons_required(BELL, 0.99, 100.0, max_rounds=max_rounds)

    @pytest.mark.parametrize("max_rounds", [0, np.int64(0)])
    def test_zero_round_cap_records_round_zero(self, max_rounds):
        trace = photons_required(diffracted_qutrit_pair(0.5, n=32), 0.99, 100.0, max_rounds)
        assert [r.round_index for r in trace.rounds] == [0]
        assert not trace.succeeded


class TestRoundCost:
    """A run checks its input at entry and its round outputs once, as one
    stack: one public purify_round call per round, no DensityMatrix and no
    eigensolve, and two Cholesky certificates, one on the input and one whose
    argument holds every round's output."""

    @staticmethod
    def _counts(monkeypatch, sigma):
        rho = diffracted_qutrit_pair(sigma, n=32)
        targets = {
            "purify_round": (purification, "purify_round"),
            "density_matrices": (DensityMatrix, "__post_init__"),
            "cholesky": (np.linalg, "cholesky"),
            "eigvalsh": (np.linalg, "eigvalsh"),
        }
        counts = dict.fromkeys(targets, 0)
        shapes = []

        def counting(key, fn):
            def call(*args, **kwargs):
                counts[key] += 1
                if key == "cholesky":
                    shapes.append(np.shape(args[0]))
                return fn(*args, **kwargs)
            return call

        with monkeypatch.context() as patch:
            for key, (owner, name) in targets.items():
                patch.setattr(owner, name, counting(key, getattr(owner, name)))
            trace = photons_required(rho, 0.99, 100.0)
        return len(trace.rounds) - 1, counts, shapes

    @pytest.mark.parametrize("sigma, expected_rounds", [(0.5, 4), (2.0, 40)])
    def test_one_check_per_round(self, monkeypatch, sigma, expected_rounds):
        rounds, counts, shapes = self._counts(monkeypatch, sigma)
        assert rounds == expected_rounds
        assert counts == {
            "purify_round": rounds, "density_matrices": 0, "cholesky": 2, "eigvalsh": 0
        }
        assert shapes == [(1, 9, 9), (rounds, 9, 9)]


def _per_round_reference(rho0, target_purity, attenuation_factor, max_rounds=40):
    """The run as it was written with a validated DensityMatrix per round:
    each output checked as it is made, fidelity_to_pure and purity taken on
    it, and photon_budget over every success so far."""
    target = bell_target()
    rho, success, successes, rounds = DensityMatrix(rho0, (3, 3)), 1.0, [], []
    for k in range(max_rounds + 1):
        if k > 0:
            out, success = purification.purify_round(rho.mat)
            rho = DensityMatrix(out, rho.dims)
            successes.append(success)
        budget = photon_budget(k, attenuation_factor, successes)
        rounds.append(RoundResult(k, fidelity_to_pure(rho.mat, target), success, budget))
        if purity(rho.mat) >= target_purity:
            return PurificationTrace(tuple(rounds), budget, True)
        if k > 0 and rounds[-1].fidelity < rounds[-2].fidelity:
            break
    return PurificationTrace(tuple(rounds), math.inf, False)


def _outcome(run, *args):
    """The trace ``run`` returns, or the type and message of what it raises."""
    try:
        return run(*args)
    except (DomainError, DegenerateProtocolError) as err:
        return type(err), str(err)


def _eigenvalue_below_tolerance(mat):
    # the smallest eigenvalue moved to -1e-6 and the largest raised to match:
    # Hermitian, unit trace
    w, v = np.linalg.eigh(mat)
    w[-1] += w[0] + 1e-6
    w[0] = -1e-6
    return (v * w) @ v.conj().T


def _not_hermitian(mat):
    mat[0, 8] += 1e-6
    return mat


def _trace_off(mat):
    mat[8, 8] += 1e-6
    return mat


def _nan_entry(mat):
    mat[8, 8] = math.nan
    return mat


BAD_ROUNDS = {
    "eigenvalue": (_eigenvalue_below_tolerance, r"negative eigenvalue \(-1\.000e-06\)"),
    "hermiticity": (_not_hermitian, r"not Hermitian \(deviation 1\.000e-06\)"),
    "trace": (_trace_off, r"trace must equal 1, got \(1\.000001"),
    "nan": (_nan_entry, "non-finite entries"),
}


def _with_bad_round(corrupt, run, *args, degenerate_after=False):
    """``_outcome(run, *args)`` with round 2's output ``corrupt``-ed, and,
    with ``degenerate_after``, round 3 raising DegenerateProtocolError."""
    real = purification.purify_round
    calls = []

    def round_(mat):
        calls.append(mat)
        if degenerate_after and len(calls) == 3:
            raise DegenerateProtocolError("coincidence probability 0.000e+00 is vanishingly small")
        out, success = real(mat)
        return (corrupt(out) if len(calls) == 2 else out), success

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(purification, "purify_round", round_)
        return _outcome(run, *args)


class TestEveryRoundChecked:
    """The run checks its outputs as one stack when it ends, and gives what
    a check on each output as it is made gives: the same trace, and the same
    error for a bad round."""

    @PROPERTY
    @given(
        parts=arrays(np.float64, (2, 9, 9), elements=UNIT_FLOATS),
        target_purity=st.floats(0.05, 1.0),
        max_rounds=st.integers(0, 40),
    )
    def test_random_inputs_give_the_per_round_trace(self, parts, target_purity, max_rounds):
        rho = _density_matrix(parts)
        want = _outcome(_per_round_reference, rho, target_purity, 100.0, max_rounds)
        assert _outcome(photons_required, rho, target_purity, 100.0, max_rounds) == want

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(
        sigma=st.floats(0.05, 3.0),
        beta=st.floats(-0.9, 0.9),
        target_purity=st.floats(0.5, 1.0),
    )
    def test_diffracted_pairs_give_the_per_round_trace(self, sigma, beta, target_purity):
        rho = diffracted_qutrit_pair(sigma, beta, n=8)
        want = _per_round_reference(rho, target_purity, 108.16)
        assert photons_required(rho, target_purity, 108.16) == want

    @pytest.mark.parametrize("sigma, n", [(1.5, 32), (2.0, 32), (3.0, 64)])
    def test_golden_runs_give_the_per_round_trace(self, sigma, n):
        # the inputs of purify_sigma1.5, purify_sigma2 and purify_sigma3
        rho = diffracted_qutrit_pair(sigma, n=n)
        assert photons_required(rho, 0.99, 100.0) == _per_round_reference(rho, 0.99, 100.0)

    @pytest.mark.parametrize("kind", BAD_ROUNDS)
    def test_bad_round_raises_its_check(self, kind):
        corrupt, message = BAD_ROUNDS[kind]
        rho = diffracted_qutrit_pair(0.5, n=32)
        want = _with_bad_round(corrupt, _per_round_reference, rho, 0.99, 100.0)
        assert want[0] is DomainError and re.search(message, want[1])
        assert _with_bad_round(corrupt, photons_required, rho, 0.99, 100.0) == want

    @pytest.mark.parametrize("kind", BAD_ROUNDS)
    def test_bad_round_exits_2(self, capsys, kind):
        corrupt, message = BAD_ROUNDS[kind]
        argv = ["purify", "--sigma", "0.5", "--grid-theta", "32", "--grid-phi", "32"]
        assert _with_bad_round(corrupt, main, argv) == 2
        assert re.search(message, capsys.readouterr().err)

    def test_bad_round_wins_over_a_later_degenerate_round(self):
        # round 2's fidelity rises, so round 3 runs and raises
        rho = diffracted_qutrit_pair(0.5, n=32)
        args = (rho, 0.99, 100.0)
        want = _with_bad_round(_not_hermitian, _per_round_reference, *args, degenerate_after=True)
        assert want == (DomainError, "matrix is not Hermitian (deviation 1.000e-06)")
        got = _with_bad_round(_not_hermitian, photons_required, *args, degenerate_after=True)
        assert got == want


# the checks a corrupted kernel stack meets on its way out of the CLI; a
# non-Hermitian entry is not among them, because the kernel symmetrizes
KERNEL_CORRUPTIONS = ("eigenvalue", "trace", "nan")


class TestEntryCheck:
    """A density matrix is checked where a public function takes it:
    photons_required checks its input before round 0, and a kernel stack
    that fails the check exits 2 with the message a DensityMatrix built from
    it gives."""

    @pytest.mark.parametrize("kind", BAD_ROUNDS)
    def test_rejects_an_input_that_is_not_a_density_matrix(self, kind):
        corrupt, message = BAD_ROUNDS[kind]
        mat = corrupt(diffracted_qutrit_pair(0.5, n=32).copy())
        with pytest.raises(DomainError, match=message) as err:
            photons_required(mat, 0.99, 100.0)
        with pytest.raises(DomainError) as want:
            DensityMatrix(mat, (3, 3))
        assert str(err.value) == str(want.value)

    @pytest.mark.parametrize("kind", KERNEL_CORRUPTIONS)
    @pytest.mark.parametrize(
        "argv",
        [
            ["negativity", "--grid-theta", "16", "--grid-phi", "16"],
            ["negativity", "--alpha", "0:1:3", "--beta", "-0.3:0.3:3", "--grid-theta", "8", "--grid-phi", "8"],
            ["purify", "--sigma", "0.5", "--grid-theta", "32", "--grid-phi", "32"],
        ],
    )
    def test_corrupted_kernel_stack_exits_2(self, capsys, monkeypatch, kind, argv):
        corrupt, message = BAD_ROUNDS[kind]
        mixture = diffraction._bell_mixture
        monkeypatch.setattr(diffraction, "_bell_mixture", lambda a, b: corrupt(mixture(a, b)))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(rf"boostlink: config error: [^\n]*{message}[^\n]*\n", captured.err)
