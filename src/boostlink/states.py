"""The three entanglement-distribution protocols.

* Type I: polarization-entangled pair (|h h> - |v v>)/sqrt(2) with sharp
  momenta.  A z-boost aberrates both directions and re-evaluates the linear
  bases there; no Wigner phases appear for a pure boost.  It has no state
  object: ``pair_amplitudes`` gives the amplitude for a stack of direction
  pairs, and the ``pair`` sweep and ``li-check`` call it on the rest and the
  aberrated directions.
* Type II: single photon split over two arms, (|1 0> - |0 1>)/sqrt(2) in the
  occupation basis.  A boost shifts each branch's phase by
  -lambda * Theta(boost, momentum of that branch), so only the relative
  phase enters the state; it is known from the transform and the momenta,
  and can be compensated.
* Type III: dual-rail pair; the boost contributes only one overall phase
  -lambda * (Theta(boost, p) + Theta(boost, q)), which cancels in the density
  matrix.

Both Fock-basis protocols are functions of their phases alone:
``type2_reduced(phase_a, phase_b)`` and ``type3_reduced(phase)`` give the
occupation-basis matrices on dims (2, 2); ``li-check`` computes the phases
from ``lorentz.wigner_phase``.
"""

from __future__ import annotations

import math

import numpy as np

from .lorentz import unit_vectors
from .photon import check_polarizations, linear_basis
from .quantum import DensityMatrix

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def pair_amplitudes(theta_a, phi_a, theta_b, phi_b) -> np.ndarray:
    """Type-I amplitudes (|h h> - |v v>)/sqrt(2), one row of C^9 per
    direction pair, from the validated h/v bases of both arms."""
    h_a, v_a = linear_basis(theta_a, phi_a)
    h_b, v_b = linear_basis(theta_b, phi_b)
    check_polarizations(
        np.concatenate([h_a, v_a, h_b, v_b]),
        np.concatenate([unit_vectors(theta_a, phi_a)] * 2 + [unit_vectors(theta_b, phi_b)] * 2),
    )
    joint = h_a[:, :, None] * h_b[:, None, :] - v_a[:, :, None] * v_b[:, None, :]
    return _INV_SQRT2 * joint.reshape(len(joint), 9)


def type2_reduced(phase_a: float, phase_b: float) -> DensityMatrix:
    """Type II, (e^{i phase_a}|1 0> - e^{i phase_b}|0 1>)/sqrt(2), on the
    single-excitation pair: index 2 is |n_A=1, n_B=0>, index 1 is
    |n_A=0, n_B=1>."""
    psi = np.zeros(4, dtype=complex)
    psi[2] = np.exp(1j * phase_a) * _INV_SQRT2
    psi[1] = -np.exp(1j * phase_b) * _INV_SQRT2
    return DensityMatrix.from_pure(psi, (2, 2))


def type3_reduced(phase: float) -> DensityMatrix:
    """Type III, e^{i phase}(|0 0> - |1 1>)/sqrt(2), one dual-rail qubit per
    arm (logical 1 = photon in the first rail)."""
    psi = np.zeros(4, dtype=complex)
    factor = np.exp(1j * phase)
    psi[0] = factor * _INV_SQRT2   # photon in rail 2 on both arms
    psi[3] = -factor * _INV_SQRT2  # photon in rail 1 on both arms
    return DensityMatrix.from_pure(psi, (2, 2))
