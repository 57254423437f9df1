"""The three entanglement-distribution protocols and their boosted forms.

* Type I: polarization-entangled pair (|h h> - |v v>)/sqrt(2) with sharp
  momenta.  A z-boost aberrates both directions and re-evaluates the linear
  bases there; no Wigner phases appear for a pure boost.
* Type II: single photon split over two arms, (|1 0> - |0 1>)/sqrt(2) in the
  occupation basis, each branch carrying its own phase that a boost shifts by
  -lambda * Theta(boost, momentum of that branch).
* Type III: dual-rail pair; the boost contributes only one overall phase
  -lambda * (Theta(boost, p) + Theta(boost, q)).

``number_basis_reduced`` exposes both readings of the occupation-basis
comparison: with ``compensate_phases`` the deterministic phase bookkeeping is
removed (they are computable from the known transform and momenta); without
it the stored branch/global phases enter the coherences as-is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError
from .lorentz import FourVector, SphericalDirection, apply, boost_z, wigner_phase
from .photon import linear_polarization
from .quantum import DensityMatrix

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _pair_amplitude(dir_a: SphericalDirection, dir_b: SphericalDirection) -> np.ndarray:
    h_a = linear_polarization(dir_a, "h").eps
    v_a = linear_polarization(dir_a, "v").eps
    h_b = linear_polarization(dir_b, "h").eps
    v_b = linear_polarization(dir_b, "v").eps
    return _INV_SQRT2 * (np.kron(h_a, h_b) - np.kron(v_a, v_b))


@dataclass(frozen=True, eq=False)
class TypeIState:
    """Polarization Bell pair with sharp momenta."""

    p_a: FourVector
    p_b: FourVector
    amplitude: np.ndarray  # rank-1 joint polarization amplitude, C^16

    @property
    def dir_a(self) -> SphericalDirection:
        return self.p_a.direction()

    @property
    def dir_b(self) -> SphericalDirection:
        return self.p_b.direction()


@dataclass(frozen=True)
class TypeIIState:
    """Single photon delocalized over two arms, with per-branch phases."""

    p_a: FourVector
    p_b: FourVector
    lam: int
    phi_a: float = 0.0
    phi_b: float = 0.0

    def __post_init__(self):
        if self.lam not in (1, -1):
            raise DomainError(f"helicity must be +1 or -1, got {self.lam}")


@dataclass(frozen=True)
class TypeIIIState:
    """Dual-rail entangled pair with one photon per arm."""

    p_a: FourVector
    p_b: FourVector
    lam: int
    global_phase: float = 0.0

    def __post_init__(self):
        if self.lam not in (1, -1):
            raise DomainError(f"helicity must be +1 or -1, got {self.lam}")


def make_type1(dir_a: SphericalDirection, dir_b: SphericalDirection) -> TypeIState:
    return TypeIState(
        FourVector.photon(dir_a),
        FourVector.photon(dir_b),
        _pair_amplitude(dir_a, dir_b),
    )


def make_type2(
    dir_a: SphericalDirection,
    dir_b: SphericalDirection,
    lam: int = 1,
    phi_a: float = 0.0,
    phi_b: float = 0.0,
) -> TypeIIState:
    return TypeIIState(FourVector.photon(dir_a), FourVector.photon(dir_b), lam, phi_a, phi_b)


def make_type3(
    dir_a: SphericalDirection,
    dir_b: SphericalDirection,
    lam: int = 1,
    global_phase: float = 0.0,
) -> TypeIIIState:
    return TypeIIIState(FourVector.photon(dir_a), FourVector.photon(dir_b), lam, global_phase)


def boost_type1(state: TypeIState, beta: float) -> TypeIState:
    """Boost both photons: aberrated directions, same Bell combination of the
    re-evaluated h/v bases, no Wigner phases for a pure boost."""
    transform = boost_z(beta)
    p_a = apply(transform, state.p_a)
    p_b = apply(transform, state.p_b)
    return TypeIState(p_a, p_b, _pair_amplitude(p_a.direction(), p_b.direction()))


def boost_type2(state: TypeIIState, beta: float) -> TypeIIState:
    """Boost both momenta and shift each branch phase by the Wigner phase of
    its own momentum."""
    transform = boost_z(beta)
    return replace(
        state,
        p_a=apply(transform, state.p_a),
        p_b=apply(transform, state.p_b),
        phi_a=state.phi_a - state.lam * wigner_phase(transform, state.p_a),
        phi_b=state.phi_b - state.lam * wigner_phase(transform, state.p_b),
    )


def boost_type3(state: TypeIIIState, beta: float) -> TypeIIIState:
    """Boost both momenta; the Wigner phases combine into one overall phase."""
    transform = boost_z(beta)
    total = wigner_phase(transform, state.p_a) + wigner_phase(transform, state.p_b)
    return replace(
        state,
        p_a=apply(transform, state.p_a),
        p_b=apply(transform, state.p_b),
        global_phase=state.global_phase - state.lam * total,
    )


def reduced_polarization(state: TypeIState) -> DensityMatrix:
    """Momentum-traced polarization matrix: a rank-1 projector on the 4x4
    joint polarization space (momenta are sharp)."""
    return DensityMatrix.from_pure(state.amplitude, (4, 4))


def number_basis_reduced(
    state: TypeIIState | TypeIIIState, compensate_phases: bool = False
) -> DensityMatrix:
    """Occupation-basis reduced matrix on dims (2, 2).

    Type II lives on the single-excitation pair {|1 0>, |0 1>}; type III uses
    one dual-rail qubit per arm (logical 1 = photon in the first rail).  With
    ``compensate_phases`` the stored deterministic phases are zeroed before
    building the matrix.
    """
    psi = np.zeros(4, dtype=complex)
    if isinstance(state, TypeIIState):
        phi_a = 0.0 if compensate_phases else state.phi_a
        phi_b = 0.0 if compensate_phases else state.phi_b
        psi[2] = np.exp(1j * phi_a) * _INV_SQRT2   # |n_A=1, n_B=0>
        psi[1] = -np.exp(1j * phi_b) * _INV_SQRT2  # |n_A=0, n_B=1>
    elif isinstance(state, TypeIIIState):
        chi = 0.0 if compensate_phases else state.global_phase
        phase = np.exp(1j * chi)
        psi[0] = phase * _INV_SQRT2   # photon in rail 2 on both arms
        psi[3] = -phase * _INV_SQRT2  # photon in rail 1 on both arms
    else:
        raise DomainError(f"expected a type II or type III state, got {type(state).__name__}")
    return DensityMatrix.from_pure(psi, (2, 2))
