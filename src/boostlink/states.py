"""The three entanglement-distribution protocols.

* Type I: polarization-entangled pair (|h h> - |v v>)/sqrt(2) with sharp
  momenta.  A z-boost aberrates both directions and re-evaluates the linear
  bases there; no Wigner phases appear for a pure boost.  It has no state
  object: ``pair_amplitudes`` gives the amplitude for a stack of unit-vector
  pairs, and the ``pair`` sweep and ``li-check`` call it on the rest
  directions and on their images under ``lorentz.aberrate(n, beta)``.
* Type II: single photon split over two arms, (|1 0> - |0 1>)/sqrt(2) in the
  occupation basis.  A boost shifts each branch's phase by
  -lambda * Theta(boost, momentum of that branch), so only the relative
  phase enters the state; it is known from the transform and the momenta,
  and can be compensated.
* Type III: dual-rail pair; the boost contributes only one overall phase
  -lambda * (Theta(boost, p) + Theta(boost, q)), which cancels in the density
  matrix.

Every protocol is given as pure-state amplitude rows, and callers measure
them on the rows themselves, with no density matrix: distances with
``quantum.pure_trace_distances`` and negativities with
``quantum.pure_negativities``.  The Fock-basis protocols are functions of
their phases alone: ``type2_amplitudes(phase_a, phase_b)`` and
``type3_amplitudes(phase)`` give one occupation-basis row of C^4 (dims
(2, 2)) per phase, as ``pair_amplitudes`` gives one C^9 row per direction
pair.  ``li-check`` computes both arms' phases in one
``lorentz.wigner_phases`` call.
"""

from __future__ import annotations

import math

import numpy as np

from .photon import check_polarizations, linear_basis

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def pair_amplitudes(n_a, n_b) -> np.ndarray:
    """Type-I amplitudes (|h h> - |v v>)/sqrt(2), one row of C^9 per
    direction pair, from the validated h/v bases of both arms at the (N, 3)
    unit vectors ``n_a`` and ``n_b``."""
    normals = np.concatenate([n_a, n_b])
    basis = linear_basis(*normals.T)
    h, v = basis[:3].T, basis[3:].T
    check_polarizations(np.concatenate([h, v]), np.concatenate([normals, normals]))
    n = len(n_a)
    joint = h[:n, :, None] * h[n:, None, :] - v[:n, :, None] * v[n:, None, :]
    return _INV_SQRT2 * joint.reshape(n, 9)


def type2_amplitudes(phase_a, phase_b) -> np.ndarray:
    """Type II, (e^{i phase_a}|1 0> - e^{i phase_b}|0 1>)/sqrt(2), one row of
    C^4 per phase pair, on the single-excitation pair: index 2 is
    |n_A=1, n_B=0>, index 1 is |n_A=0, n_B=1>."""
    phase_a, phase_b = np.broadcast_arrays(phase_a, phase_b)
    psi = np.zeros(phase_a.shape + (4,), dtype=complex)
    psi[..., 2] = np.exp(1j * phase_a) * _INV_SQRT2
    psi[..., 1] = -np.exp(1j * phase_b) * _INV_SQRT2
    return psi


def type3_amplitudes(phase) -> np.ndarray:
    """Type III, e^{i phase}(|0 0> - |1 1>)/sqrt(2), one row of C^4 per
    phase, one dual-rail qubit per arm (logical 1 = photon in the first
    rail)."""
    factor = np.exp(1j * np.asarray(phase))
    psi = np.zeros(factor.shape + (4,), dtype=complex)
    psi[..., 0] = factor * _INV_SQRT2   # photon in rail 2 on both arms
    psi[..., 3] = -factor * _INV_SQRT2  # photon in rail 1 on both arms
    return psi
