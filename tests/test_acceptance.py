"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
and the reported constants.
"""

import math
import time

import numpy as np

from boostlink.cli import Scenario, SweepSpec, run_negativity_sweep
from boostlink.diffraction import diffracted_reduced_type1, make_grid
from boostlink.lorentz import (
    aberrate,
    approx_transform_theta,
    boost_z,
    polar_angles,
    unit_vectors,
    wigner_phases,
)
from boostlink.photon import linear_basis
from boostlink.purification import (
    LinkParams,
    attenuation,
    bell_target,
    photon_budget,
    photons_required,
    purify_round,
)
from boostlink.quantum import fidelity_to_pure, negativity, purity, trace_distances
from boostlink.states import pair_amplitudes, type2_amplitudes, type3_amplitudes
from test_lorentz import (
    K,
    aberrated_polar,
    inverse,
    little_group,
    random_transform,
    rotation_y,
    rotation_z,
)

BASELINE_NEGATIVITY_SIGMA1 = 0.19917779685594897


def report(number, ok, detail):
    print(f"ACCEPTANCE {number:>2} {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {number}: {detail}"


def unit(direction):
    """Unit vector along the direction angles (theta, phi)."""
    return unit_vectors(*polar_angles(*direction))


def antipode(direction):
    theta, phi = direction
    return math.pi - theta, phi + math.pi


def type1_matrix(dir_a, dir_b, beta=None):
    """Polarization matrix of the type-I pair along the angle pairs ``dir_a``
    and ``dir_b``; with ``beta``, after a z-boost, which aberrates both
    directions."""
    n_a, n_b = unit(dir_a)[None], unit(dir_b)[None]
    if beta is not None:
        n_a, n_b = aberrate(n_a, beta), aberrate(n_b, beta)
    amplitude = pair_amplitudes(n_a, n_b)[0]
    return np.outer(amplitude, np.conj(amplitude))


def trace_distance(a, b):
    """``trace_distances`` of the one pair of matrices (a, b)."""
    return float(trace_distances(a[None], b[None])[0])


def pair_negativity(rho, dims):
    """``negativity`` of one matrix across ``dims``, as a stack of one."""
    return float(negativity(rho[None], dims)[0])


def pair_distance(theta, beta):
    pair = ((theta, 0.0), antipode((theta, 0.0)))
    return trace_distance(type1_matrix(*pair), type1_matrix(*pair, beta))


def h_matrix(n):
    """Density matrix of the h polarization vector at the unit vector ``n``."""
    h = linear_basis(*n[:, None])[:3, 0]
    return np.outer(h, np.conj(h))


def random_direction(rng):
    return math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi)


def test_criterion_1_single_photon_error_law():
    started = time.perf_counter()
    beta = 1e-5
    worst = 0.0
    checked = 0
    for theta in np.linspace(0.02, math.pi - 0.02, 30):
        for phi in np.linspace(0.0, 2 * math.pi, 30, endpoint=False):
            geometry = math.sin(theta) * math.cos(phi)
            if abs(geometry) < 0.05:
                continue
            rest = unit((theta, phi))
            numeric = trace_distance(h_matrix(rest), h_matrix(aberrate(rest[None], beta)[0]))
            expected = beta * abs(geometry)
            worst = max(worst, abs(numeric - expected) / expected)
            checked += 1
    elapsed = time.perf_counter() - started
    ok = worst <= 0.01 and elapsed < 5.0
    report(1, ok, f"single-photon law: {checked} grid points, worst relative "
                  f"deviation {worst:.2e} (<= 1e-2), {elapsed:.1f}s")


def test_criterion_2_pair_error_law():
    started = time.perf_counter()
    worst = 0.0
    for beta in (1e-6, 1e-5, 1e-4):
        for theta in np.linspace(0.21, math.pi - 0.21, 12):
            eps = pair_distance(theta, beta)
            expected = beta * math.sin(theta)
            worst = max(worst, abs(eps - expected) / expected)
    elapsed = time.perf_counter() - started
    ok = worst <= 0.01 and elapsed < 5.0
    report(2, ok, f"pair law: worst relative deviation {worst:.2e} (<= 1e-2), {elapsed:.1f}s")


def test_criterion_3_fock_state_lorentz_invariance():
    arms = np.stack([unit((0.8, 0.4)), unit(antipode((0.8, 0.4)))])

    def type2(phase_a, phase_b):
        psi = type2_amplitudes(phase_a, phase_b)
        return np.outer(psi, np.conj(psi))

    def type3(phase):
        psi = type3_amplitudes(phase)
        return np.outer(psi, np.conj(psi))

    worst_three = 0.0
    worst_two = 0.0
    worst_neg = 0.0
    for beta in (1e-5, 0.3):
        # helicity +1: each branch phase shifts by minus its arm's Wigner phase
        known_a, known_b = wigner_phases(boost_z(beta), arms).tolist()
        shift_a, shift_b = -known_a, -known_b
        b3 = type3(shift_a + shift_b)
        worst_three = max(worst_three, trace_distance(type3(0.0), b3))
        b2 = type2(shift_a, shift_b)
        worst_two = max(
            worst_two,
            trace_distance(type2(0.0, 0.0), type2(shift_a + known_a, shift_b + known_b)),
        )
        for rho in (b2, b3):
            worst_neg = max(worst_neg, abs(pair_negativity(rho, (2, 2)) - 0.5))
    ok = worst_three <= 1e-12 and worst_two <= 1e-12 and worst_neg <= 1e-10
    report(3, ok, f"Fock-basis invariance: type3 distance {worst_three:.2e} (<= 1e-12), "
                  f"type2 compensated {worst_two:.2e} (<= 1e-12), "
                  f"negativity deviation {worst_neg:.2e} (<= 1e-10)")


def test_criterion_4_sharp_momentum_entanglement_invariance():
    rng = np.random.default_rng(101)
    worst = 0.0
    for beta in (0.1, 0.3, 0.5):
        for _ in range(8):
            rho = type1_matrix(random_direction(rng), random_direction(rng), beta)
            value = pair_negativity(rho, (3, 3))
            worst = max(worst, abs(value - 0.5))
    ok = worst <= 1e-10
    report(4, ok, f"sharp-momentum negativity: worst |N - 0.5| = {worst:.2e} (<= 1e-10)")


def test_criterion_5_purity_expansion():
    started = time.perf_counter()
    sigmas = (0.01, 0.02, 0.05)
    betas = (0.0, 0.1, 0.3)
    residuals = {}
    for sigma in sigmas:
        grid = make_grid(64, 64, sigma=sigma)
        for beta, rho in zip(betas, diffracted_reduced_type1(0.0, betas, grid)):
            p = purity(rho)
            model = 1.0 - 2.0 * sigma**2 * (1.0 + abs(beta)) ** 2
            residuals[(sigma, beta)] = abs(p - model)
    fitted_c = max(r / s**4 for (s, _), r in residuals.items())
    bound_ok = all(r <= fitted_c * s**4 + 1e-15 for (s, _), r in residuals.items())

    # At beta = 0 the model's sigma^2 coefficient is exact, so the residual
    # must genuinely scale as sigma^4 with a stable constant.
    rest_ratios = [residuals[(s, 0.0)] / s**4 for s in sigmas]
    scaling_ok = max(rest_ratios) < 10.0 and max(rest_ratios) / min(rest_ratios) < 2.0

    convergence = 0.0
    for sigma in (0.05, 0.2):
        values = []
        for n in (64, 128):
            grid = make_grid(n, n, sigma=sigma)
            (rho,) = diffracted_reduced_type1(0.0, [0.1], grid)
            values.append((purity(rho), pair_negativity(rho, (3, 3))))
        convergence = max(
            convergence,
            abs(values[0][0] - values[1][0]),
            abs(values[0][1] - values[1][1]),
        )
    elapsed = time.perf_counter() - started
    ok = bound_ok and scaling_ok and convergence < 1e-6 and elapsed < 60.0
    report(5, ok, f"purity expansion: fitted C = {fitted_c:.1f}, rest-frame C = "
                  f"{max(rest_ratios):.2f} (sigma^4 scaling), grid-doubling change "
                  f"{convergence:.1e} (< 1e-6), {elapsed:.1f}s")


def _sigma1_negativities(alpha):
    """Negativity at beta = 0, 0.05, ..., 0.5 on the default 64x64 grid."""
    scenario = Scenario(beta=SweepSpec(0.0, 0.5, 11), alpha=alpha, sigma=1.0)
    return run_negativity_sweep(scenario)["negativity"]


def test_criterion_6_negativity_directionality():
    started = time.perf_counter()
    aligned = _sigma1_negativities(0.0)
    perpendicular = _sigma1_negativities(math.pi / 2)
    elapsed = time.perf_counter() - started
    monotone = all(b <= a + 1e-12 for a, b in zip(aligned, aligned[1:]))
    increased = max(perpendicular[1:]) > perpendicular[0] + 1e-4
    baseline_ok = abs(aligned[0] - BASELINE_NEGATIVITY_SIGMA1) <= 1e-9
    ok = monotone and increased and baseline_ok and elapsed < 120.0
    report(6, ok, f"sigma=1 directionality: aligned non-increasing={monotone}, "
                  f"perpendicular max gain {max(perpendicular[1:]) - perpendicular[0]:.4f}, "
                  f"baseline {aligned[0]:.12f} (regression), {elapsed:.1f}s")


def test_criterion_7_attenuation():
    value = attenuation(
        LinkParams(length=13000e3, wavelength=800e-9, aperture_source=1.0, aperture_receiver=1.0)
    )
    ok = abs(value - 108.16) <= 1e-9 and 100.0 <= value <= 110.0
    report(7, ok, f"attenuation: {value:.6f} (= 108.16, within [100, 110], ~100 photons/received)")


def test_criterion_8_purification_claims():
    (rho_half,) = diffracted_reduced_type1(0.0, [0.0], make_grid(64, 64, sigma=0.5))
    trace = photons_required(rho_half, 0.99, 100.0)
    fidelities = [r.fidelity for r in trace.rounds]
    increases = trace.succeeded and all(b > a for a, b in zip(fidelities, fidelities[1:]))

    # A broad beam cannot be purified where its pair is PPT (positive partial
    # transpose).  A round of local operations and post-selection keeps a PPT
    # pair PPT, and a PPT pair has fidelity <= 1/2 to the embedded Bell state,
    # so no round may raise it past 1/2 and no purity target may be reported
    # as met.  sigma = 2 is not such a case: it is still entangled (printed).
    (rho_sigma2,) = diffracted_reduced_type1(0.0, [0.0], make_grid(64, 64, sigma=2.0))
    negativity_sigma2 = pair_negativity(rho_sigma2, (3, 3))

    (rho_broad,) = diffracted_reduced_type1(0.0, [0.0], make_grid(64, 64, sigma=3.0))
    input_negativity = pair_negativity(rho_broad, (3, 3))
    input_ppt = input_negativity <= 1e-12

    target = bell_target()
    state = rho_broad
    round_negativities = []
    round_fidelities = []
    for _ in range(12):
        # each output is checked by the measures that take it
        state = purify_round(state)[0]
        round_negativities.append(pair_negativity(state, (3, 3)))
        round_fidelities.append(fidelity_to_pure(state, target))
    bounded = max(round_negativities) <= 1e-12 and max(round_fidelities) <= 0.5 + 1e-12

    broad_trace = photons_required(rho_broad, 0.99, 100.0)
    fails = not broad_trace.succeeded and broad_trace.photons_required == math.inf

    budget_ok = photon_budget(1, 100.0, [0.5]) == 400.0
    ok = increases and input_ppt and bounded and fails and budget_ok
    report(8, ok, f"purification: sigma=0.5 monotone increase={increases} "
                  f"(F {fidelities[0]:.3f}->{fidelities[-1]:.3f}); sigma=3 PPT input="
                  f"{input_ppt} (N {input_negativity:.1e} <= 1e-12; sigma=2 N "
                  f"{negativity_sigma2:.6f}, entangled), {len(round_fidelities)} rounds "
                  f"stay PPT={bounded} (max N {max(round_negativities):.1e}, max F "
                  f"{max(round_fidelities):.4f} <= 1/2), failure reported="
                  f"{fails} (round {broad_trace.rounds[-1].round_index}, photons "
                  f"{broad_trace.photons_required}); "
                  f"budget 2*100/0.5 = {photon_budget(1, 100.0, [0.5]):.0f} (= 400)")


def test_criterion_9_wigner_phase_consistency():
    # the array kernel checks |(s . x', s . y')| = 1 to 1e-8 on every call;
    # the residual reported is that of the 4x4 reference chain, W k - k
    rng = np.random.default_rng(202)
    worst_residual = 0.0
    for _ in range(1000):
        n = unit(random_direction(rng))
        p = rng.uniform(0.5, 2.0) * np.concatenate([[1.0], n])
        t = random_transform(rng)
        wigner_phases(t, [n])  # must not raise
        worst_residual = max(worst_residual, float(np.abs(little_group(t, p) @ K - K).max()))

    worst_collinear = 0.0
    for _ in range(50):
        theta, phi = random_direction(rng)
        frame = rotation_z(phi) @ rotation_y(theta)
        collinear = frame @ boost_z(rng.uniform(-0.8, 0.8)) @ inverse(frame)
        rng.uniform(0.5, 2.0)  # the photon energy, on which the phase does not depend
        worst_collinear = max(worst_collinear, abs(wigner_phases(collinear, [unit((theta, phi))])[0]))

    worst_composition = 0.0
    for _ in range(300):
        n = unit(random_direction(rng))
        p = rng.uniform(0.5, 2.0) * np.concatenate([[1.0], n])
        t1, t2 = random_transform(rng), random_transform(rng)
        moved = (t1 @ p)[1:]
        total = wigner_phases(t2 @ t1, [n])[0]
        split = wigner_phases(t2, [moved / np.linalg.norm(moved)])[0] + wigner_phases(t1, [n])[0]
        gap = abs((total - split + math.pi) % (2 * math.pi) - math.pi)
        worst_composition = max(worst_composition, gap)

    ok = worst_residual <= 1e-8 and worst_collinear <= 1e-10 and worst_composition <= 1e-9
    report(9, ok, f"Wigner phase: stabilizer residual {worst_residual:.1e} (<= 1e-8, n=1000), "
                  f"collinear phase {worst_collinear:.1e} (<= 1e-10), "
                  f"composition gap {worst_composition:.1e} (<= 1e-9)")


def test_criterion_10_approximate_aberration_map():
    worst = 0.0
    for beta in (1e-5, 1e-4, 1e-3):
        exact = aberrated_polar(math.pi / 2, 0.0, beta) - math.pi / 2
        approx = approx_transform_theta(math.pi / 2, beta) - math.pi / 2
        worst = max(worst, abs(approx - exact) / abs(exact))
    sign_ok = True
    for beta in (1e-3, -1e-3):
        for theta in np.linspace(0.05, math.pi - 0.05, 40):
            exact_dev = aberrated_polar(theta, 0.0, beta) - theta
            approx_dev = approx_transform_theta(theta, beta) - theta
            if math.copysign(1, exact_dev) != math.copysign(1, approx_dev):
                sign_ok = False
    ok = worst <= 0.005 and sign_ok
    report(10, ok, f"approximate aberration: worst equator deviation {worst:.2e} "
                   f"(<= 5e-3 for beta <= 1e-3), sign agreement over (0, pi) = {sign_ok}")
