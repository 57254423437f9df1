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

Qutrit bases are the per-arm beam frames of the diffracted pair with the sign
of arm B's second axis flipped, which turns the distributed
(|hh> - |vv>)/sqrt(2) state into the (|00> + |11>)/sqrt(2) fixed-point form.

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

from .errors import DegenerateProtocolError, DomainError
from .quantum import DensityMatrix, fidelity_to_pure, purity

QUTRIT_DIM = 3
MIN_SUCCESS_PROBABILITY = 1e-12

# control -> permutation of the target basis {0: h, 1: v, 2: longitudinal}
_SHIFT_TABLE = (
    (0, 1, 2),
    (1, 0, 2),
    (2, 1, 0),
)

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
            if not 0.0 < getattr(self, name) < math.inf:
                raise DomainError(f"link parameter {name} must be positive and finite")


def attenuation(params: LinkParams) -> float:
    """Photons sent per photon received: L^2 lambda^2 / (d_S^2 d_A^2)."""
    ratio = (params.length * params.wavelength) / (
        params.aperture_source * params.aperture_receiver
    )
    return ratio * ratio


@dataclass(frozen=True)
class RoundResult:
    round_index: int
    fidelity: float
    success_probability: float


@dataclass(frozen=True)
class PurificationTrace:
    """Round-by-round fidelities and success probabilities, plus the photon
    budget 2^k * attenuation / prod(success probabilities).  A failed run
    (fidelity dropped, or the target was never reached) reports
    ``photons_required = inf`` with the trace attached."""

    rounds: tuple[RoundResult, ...]
    photons_required: float
    attenuation: float
    succeeded: bool


def photon_budget(rounds: int, attenuation_factor: float, success_probabilities) -> float:
    """Photons consumed per delivered pair: 2^k * attenuation / prod(s_i)."""
    if rounds < 0:
        raise DomainError(f"round count must be non-negative, got {rounds}")
    product = 1.0
    for s in success_probabilities:
        if not 0.0 < s <= 1.0:
            raise DomainError(f"success probabilities must lie in (0, 1], got {s}")
        product *= s
    return (2.0**rounds) * attenuation_factor / product


def bell_target() -> np.ndarray:
    """(|00> + |11>)/sqrt(2) in the local qutrit bases: the sigma -> 0 limit
    of the distributed pair."""
    psi = np.zeros(QUTRIT_DIM * QUTRIT_DIM, dtype=complex)
    psi[0] = psi[4] = 1.0 / math.sqrt(2.0)
    return psi


def polarization_pair_to_qutrits(rho: DensityMatrix) -> DensityMatrix:
    """Project the 4x4-per-arm polarization matrix onto the three spatial
    components per arm, flipping the sign of arm B's vertical axis so the
    ideal pair becomes the (|00> + |11>)/sqrt(2) fixed-point form."""
    if rho.dims != (4, 4):
        raise DomainError(f"expected polarization dims (4, 4), got {rho.dims}")
    drop_time = np.zeros((3, 4))
    drop_time[:, 1:] = np.eye(3)
    flip_v = np.diag([1.0, -1.0, 1.0])
    isometry = np.kron(drop_time, flip_v @ drop_time)
    nine = isometry @ rho.mat @ isometry.conj().T
    return DensityMatrix(0.5 * (nine + nine.conj().T), (QUTRIT_DIM, QUTRIT_DIM))


def _xor_permutation() -> np.ndarray:
    """Basis permutation of the two-copy space [A1, B1, A2, B2] implementing
    the bilateral controlled shift source -> target on both arms."""
    d = QUTRIT_DIM
    index = np.arange(d**4)
    a1 = index // d**3
    b1 = (index // d**2) % d
    a2 = (index // d) % d
    b2 = index % d
    shift = np.array(_SHIFT_TABLE)
    return ((a1 * d + b1) * d + shift[a1, a2]) * d + shift[b1, b2]


_XOR_INDEX = _xor_permutation()


def _transverse_hadamard_pair() -> np.ndarray:
    h = np.array(
        [[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, math.sqrt(2.0)]]
    ) / math.sqrt(2.0)
    return np.kron(h, h)


_ERROR_EXCHANGE = _transverse_hadamard_pair()


def purify_round(rho: DensityMatrix) -> tuple[DensityMatrix, float]:
    """One recurrence round on two copies of ``rho``.

    Returns the renormalized post-selected source pair and the coincidence
    probability.
    """
    if rho.dims != (QUTRIT_DIM, QUTRIT_DIM):
        raise DomainError(f"expected qutrit-pair dims (3, 3), got {rho.dims}")
    d = QUTRIT_DIM
    rotated = _ERROR_EXCHANGE @ rho.mat @ _ERROR_EXCHANGE.conj().T
    two_copy = np.kron(rotated, rotated)
    permuted = np.empty_like(two_copy)
    permuted[np.ix_(_XOR_INDEX, _XOR_INDEX)] = two_copy
    blocks = permuted.reshape((d,) * 4 + (d,) * 4)
    kept = np.zeros((d * d, d * d), dtype=complex)
    for m in _KEPT_OUTCOMES:
        kept += blocks[:, :, m, m, :, :, m, m].reshape(d * d, d * d)
    success = float(np.trace(kept).real)
    if success < MIN_SUCCESS_PROBABILITY:
        raise DegenerateProtocolError(
            f"coincidence probability {success:.3e} is vanishingly small"
        )
    kept /= success
    return DensityMatrix(0.5 * (kept + kept.conj().T), (d, d)), success


def photons_required(
    rho0: DensityMatrix,
    target_purity: float,
    attenuation_factor: float,
    max_rounds: int = 40,
) -> PurificationTrace:
    """Iterate purification rounds until Tr(rho^2) reaches ``target_purity``.

    The budget counts 2^k photons per delivered pair after k rounds, scaled
    by the link attenuation and divided by the product of coincidence
    probabilities.  A round that lowers the fidelity to the Bell target marks
    the target unreachable and the trace is returned as a failure outcome
    rather than raising.
    """
    if attenuation_factor <= 0.0:
        raise DomainError(f"attenuation must be positive, got {attenuation_factor}")
    if not 0.0 < target_purity <= 1.0:
        raise DomainError(f"target purity must lie in (0, 1], got {target_purity}")
    target = bell_target()
    fidelity = fidelity_to_pure(rho0, target)
    rounds = [RoundResult(0, fidelity, 1.0)]
    if purity(rho0) >= target_purity:
        return PurificationTrace(tuple(rounds), attenuation_factor, attenuation_factor, True)

    rho = rho0
    successes = []
    for k in range(1, max_rounds + 1):
        rho, success = purify_round(rho)
        successes.append(success)
        new_fidelity = fidelity_to_pure(rho, target)
        rounds.append(RoundResult(k, new_fidelity, success))
        if purity(rho) >= target_purity:
            budget = photon_budget(k, attenuation_factor, successes)
            return PurificationTrace(tuple(rounds), budget, attenuation_factor, True)
        if new_fidelity < fidelity:
            break
        fidelity = new_fidelity
    return PurificationTrace(tuple(rounds), math.inf, attenuation_factor, False)
