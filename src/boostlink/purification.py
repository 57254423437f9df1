"""Recurrence purification of diffraction-degraded polarization pairs, and
the photon budget with free-space link attenuation.

One round consumes two copies of a pair state whose arms are spin-1 systems
(three spatial polarization components per photon once the momenta are
off-axis).  Both sides apply a generalized XOR from their source qutrit to
their target qutrit, measure the targets in the computational basis, and keep
the source pair when the outcomes coincide within the transverse code space
{0, 1}.

The XOR is the controlled permutation

    control 0 -> identity,  control 1 -> swap(0, 1),  control 2 -> swap(0, 2),

preceded by the transverse Hadamard on every qutrit.  Three properties force
this design:

* Controls 0 and 1 must act as the two-level shift inside the polarization
  plane: that is the unique table for which the embedded Bell state
  (|00> + |11>)/sqrt(2) is an exact fixed point of the round.  A plain mod-3
  shift is not, because the two-level support does not wrap modulo 3, so the
  target outcome would reveal the source index and collapse the kept pair.
* The Hadamard exchanges the two transverse error types between rounds
  (the deterministic counterpart of twirling); without it the coincidence
  filter removes only one type while the XOR doubles the other, and the
  fidelity stalls and then decays after the first round.
* Control 2 kicking the target out of the code space makes longitudinal
  leakage flag itself: the outcome lands on 2 and is discarded, which removes
  the saturation floor and lets purification converge to a pure pair.

The round never forms the 81x81 two-copy matrix.  With R = H rho H^dagger
(H the transverse Hadamard on both arms), the bilateral XOR sends two-copy
basis states |a1 b1 a2 b2> to |a1 b1 shift[a1, a2] shift[b1, b2]>.  Rows of
the shift table are involutions, so the targets read (m, m) exactly when
(a2, b2) = (shift[a1, m], shift[b1, m]), and with o the elementwise product

    kept = sum_{m in {0, 1}} R o R[pi_m][:, pi_m],
    pi_m(a, b) = 3 shift[a, m] + shift[b, m]:

the same products, summed in the same order, as the coincidence blocks of
the permuted R (x) R.  Both blocks R[pi_m][:, pi_m] come from one gather of
R's flat entries.

The qutrit bases are those of ``diffracted_reduced_type1``: the per-arm beam
frames with arm B's second axis reversed, in which the distributed pair's
ideal form is the (|00> + |11>)/sqrt(2) fixed point, ``bell_target()``.  The
kernel's 9x9 array is the round's input as it is.

A round takes and returns the bare 9x9 array.  Its output is Hermitian by
construction and positive semidefinite up to rounding (a sum of Schur
products of positive matrices), so ``photons_required`` checks, through
``check_density_matrices``, its input at entry and a run's outputs once, as
one (k, 9, 9) stack, when the run returns or raises.  Each round's fidelity
and purity are ``fidelity_to_pure`` and ``purity``'s own expressions on the
array, and its budget multiplies one more success into a running product,
in ``photon_budget``'s order.

Where broad beams must fail (rest frame, beta = 0, 64x64 grid):

* sigma = 2 is entangled and distillable.  Its negativity is 0.0143668518652,
  the same on 32x32, 64x64 and 128x128 grids.  Restricted to the transverse
  code space {0, 1} (weight 0.4465) its Bell fidelity is 0.532 > 1/2, so a
  local filter onto that space followed by BBPSSW (Bennett et al., PRL 76,
  722, 1996) distils it.  No correct round has to lose fidelity on it; this
  round raises it.  The qubit threshold F > 1/2 does not carry over to the
  full qutrit fidelity once there is longitudinal leakage: sigma = 1 starts
  at F = 0.481 and purifies (F = 0.995 at round 6).
* A pair with a positive partial transpose (PPT) cannot be distilled
  (Horodecki, Horodecki & Horodecki, PRL 80, 5239, 1998).  For Phi the
  embedded Bell state, <Phi|rho|Phi> = Tr(rho^T_B |Phi><Phi|^T_B), and
  |Phi><Phi|^T_B has eigenvalues in [-1/2, 1/2]; so a PPT rho has
  F <= 1/2.  A round built from local operations and post-selection, such
  as this one, maps PPT pairs to PPT pairs, so F <= 1/2 holds at every
  round.
* The pair becomes PPT between sigma = 2.2 (negativity 9.6e-4) and
  sigma = 2.4 (negativity <= 2e-17).  At sigma = 3 the smallest eigenvalue
  of the 9x9 partial transpose is +0.027; every round output stays PPT with
  F <= 0.2355 over 12 rounds, and ``photons_required`` stops at round 2.

Purity alone cannot certify success.  Without the fidelity-drop stop the
sigma = 3 PPT input reaches purity >= 0.99 at round 10 with F = 4.4e-4: the
round has converged to a pure product state, not to the Bell pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProtocolError, DomainError, is_count, is_real
# _fidelity and _purity: fidelity_to_pure and purity on a bare matrix
from .quantum import _fidelity, _purity, check_density_matrices

QUTRIT_DIM = 3
MIN_SUCCESS_PROBABILITY = 1e-12

# control -> permutation of the target basis {0: h, 1: v, 2: longitudinal}
_SHIFT_TABLE = np.array([
    [0, 1, 2],
    [1, 0, 2],
    [2, 1, 0],
])

# coincident outcomes that keep the pair: the transverse code space only
_KEPT_OUTCOMES = (0, 1)


@dataclass(frozen=True)
class LinkParams:
    """Free-space optical link between satellites, all lengths in meters."""

    length: float
    wavelength: float
    aperture_source: float
    aperture_receiver: float

    def __post_init__(self):
        for name in ("length", "wavelength", "aperture_source", "aperture_receiver"):
            if not (is_real(value := getattr(self, name)) and 0.0 < value < math.inf):
                raise DomainError(f"link parameter {name} must be positive and finite")
            object.__setattr__(self, name, float(value))
        if not 0.0 < (value := attenuation(self)) < math.inf:  # 0: underflow
            raise DomainError(f"attenuation must be {'finite' if value else 'positive'}, got {value}")


def attenuation(params: LinkParams) -> float:
    """Photons sent per photon received: L^2 lambda^2 / (d_S^2 d_A^2); inf
    when d_S d_A underflows to 0."""
    apertures = params.aperture_source * params.aperture_receiver
    ratio = (params.length * params.wavelength) / apertures if apertures else math.inf
    return ratio * ratio


@dataclass(frozen=True)
class RoundResult:
    """The pair after ``round_index`` rounds (0: as distributed): its Bell
    fidelity, the coincidence probability of the round that made it (1.0 at
    round 0), and ``photon_budget`` over the rounds so far."""

    round_index: int
    fidelity: float
    success_probability: float
    cumulative_photons: float


@dataclass(frozen=True)
class PurificationTrace:
    """Every round the run recorded, round 0 included, and the photons per
    delivered pair: the last round's ``cumulative_photons`` when the target
    purity was reached, otherwise ``inf`` (the fidelity dropped, or the round
    cap was hit)."""

    rounds: tuple[RoundResult, ...]
    photons_required: float
    succeeded: bool


def photon_budget(rounds: int, attenuation_factor: float, success_probabilities) -> float:
    """Photons consumed per delivered pair: 2^k * attenuation / prod(s_i),
    one s_i per round, which must be finite; checked as in ``photons_required``."""
    _check_budget_inputs(attenuation_factor, rounds, "round count")
    successes = list(success_probabilities)
    if len(successes) != rounds:
        raise DomainError(f"{rounds} rounds need {rounds} success probabilities, got {len(successes)}")
    product = 1.0
    for s in successes:
        product = _times_success(product, s)
    return _budget(rounds, attenuation_factor, product)


def _check_budget_inputs(attenuation_factor: float, rounds, name: str) -> None:
    """Reject an attenuation that is not a positive finite real, then a
    round count ``name`` that is not a non-negative int (a bool included)."""
    if not (is_real(attenuation_factor) and 0.0 < attenuation_factor < math.inf):
        raise DomainError(f"attenuation must be positive and finite, got {attenuation_factor}")
    if not (is_count(rounds) and rounds >= 0):
        raise DomainError(f"{name} must be a non-negative integer, got {rounds!r}")


def _times_success(product: float, s: float) -> float:
    """The running product of success probabilities times ``s``, a real
    that must lie in (0, 1]."""
    if not (is_real(s) and 0.0 < s <= 1.0):
        raise DomainError(f"success probabilities must lie in (0, 1], got {s}")
    return product * float(s)


def _budget(rounds: int, attenuation_factor: float, product: float) -> float:
    """``photon_budget`` from the product of the rounds' success
    probabilities."""
    budget = (2.0**rounds) * float(attenuation_factor) / product
    if not math.isfinite(budget):
        raise DomainError(f"photon budget after {rounds} rounds is not finite, got {budget}")
    return budget


def bell_target() -> np.ndarray:
    """(|00> + |11>)/sqrt(2) in the local qutrit bases: the sigma -> 0 limit
    of the distributed pair."""
    psi = np.zeros(QUTRIT_DIM * QUTRIT_DIM, dtype=complex)
    psi[0] = psi[4] = 1.0 / math.sqrt(2.0)
    return psi


# pi_m(a, b) = 3 shift[a, m] + shift[b, m] per kept outcome m: the copy-2 pair
# whose targets land on (m, m) under source pair (a, b)
_KEPT_SHIFTS = _SHIFT_TABLE[:, _KEPT_OUTCOMES].T
_KEPT_PI = (QUTRIT_DIM * _KEPT_SHIFTS[:, :, None] + _KEPT_SHIFTS[:, None, :]).reshape(-1, 9)
# flat indices of R[pi_m][:, pi_m] for both m: one gather into a (2, 9, 9) stack
_KEPT_FLAT = QUTRIT_DIM * QUTRIT_DIM * _KEPT_PI[:, :, None] + _KEPT_PI[:, None, :]


def _transverse_hadamard_pair() -> np.ndarray:
    h = np.array(
        [[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, math.sqrt(2.0)]]
    ) / math.sqrt(2.0)
    return np.kron(h, h).astype(complex)


# E is real: stored complex, like the matrices it rotates, so that no call
# casts it, and E^dagger is its transpose
_ERROR_EXCHANGE = _transverse_hadamard_pair()
_ERROR_EXCHANGE_H = _ERROR_EXCHANGE.T


def purify_round(mat) -> tuple[np.ndarray, float]:
    """One recurrence round on two copies of the (9, 9) qutrit-pair matrix
    ``mat``, taken as it stands.

    Returns the renormalized post-selected source pair, Hermitian by
    construction and otherwise unchecked, and the coincidence probability.
    ``photons_required`` checks every output it makes.
    """
    if np.shape(mat) != (QUTRIT_DIM * QUTRIT_DIM,) * 2:
        raise DomainError(f"expected a (9, 9) qutrit-pair matrix, got shape {np.shape(mat)}")
    rotated = _ERROR_EXCHANGE @ mat @ _ERROR_EXCHANGE_H
    kept = (rotated * rotated.take(_KEPT_FLAT)).sum(axis=0)
    success = float(kept.trace().real)
    if success < MIN_SUCCESS_PROBABILITY:
        raise DegenerateProtocolError(
            f"coincidence probability {success:.3e} is vanishingly small"
        )
    kept /= success
    kept += kept.conj().T
    kept *= 0.5
    return kept, success


def photons_required(
    rho0, target_purity: float, attenuation_factor: float, max_rounds: int = 40
) -> PurificationTrace:
    """Iterate purification rounds on the (9, 9) qutrit-pair density matrix
    ``rho0`` (round 0) until Tr(rho^2) reaches ``target_purity``, at most
    ``max_rounds`` of them (a non-negative int), recording every round with
    its cumulative ``photon_budget``.

    A round that lowers the fidelity to the Bell target marks the target
    unreachable and the trace is returned as a failure outcome rather than
    raising.

    ``rho0`` is checked before round 0, and the rounds' outputs as one stack
    when the run returns or raises, so a bad round's ``DomainError``
    replaces whatever a later round raises.
    """
    _check_budget_inputs(attenuation_factor, max_rounds, "round cap")
    if not (is_real(target_purity) and 0.0 < target_purity <= 1.0):
        raise DomainError(f"target purity must lie in (0, 1], got {target_purity}")
    mat, target = check_density_matrices(rho0, QUTRIT_DIM * QUTRIT_DIM, stack=False), bell_target()
    success, product, outputs, rounds = 1.0, 1.0, [], []
    try:
        for k in range(max_rounds + 1):
            if k > 0:
                mat, success = purify_round(mat)
                outputs.append(mat)
                product = _times_success(product, success)
            budget = _budget(k, attenuation_factor, product)
            rounds.append(RoundResult(k, _fidelity(mat, target), success, budget))
            if _purity(mat) >= float(target_purity):
                return PurificationTrace(tuple(rounds), budget, True)
            if k > 0 and rounds[-1].fidelity < rounds[-2].fidelity:
                break
    finally:
        if outputs:
            check_density_matrices(np.stack(outputs))
    return PurificationTrace(tuple(rounds), math.inf, False)
