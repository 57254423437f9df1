"""Single-photon polarization states and their behavior under z-boosts.

Basis vectors attached to a propagation direction ``(theta, phi)`` are built
from the rotation R(p) = R_z(phi) R_y(theta):

    h: R(p) (cos(phi), -sin(phi), 0)^T
    v: R(p) (sin(phi),  cos(phi), 0)^T
    helicity lambda = +/-1: R(p) (1, i*lambda, 0)^T / sqrt(2)

All three are spatial 3-vectors (the radiation-gauge time component is zero),
unit norm and transverse to the momentum.  A boost acts by aberrating the
direction and re-evaluating the same basis label there; the helicity label
additionally accumulates the Wigner phase exp(-i*lambda*Theta) while linear
labels stay phase-free under pure boosts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .lorentz import (
    FourVector,
    SphericalDirection,
    apply,
    boost_z,
    transform_angles,
    wigner_phase,
)

POLARIZATION_TOL = 1e-12
DIRECTION_TOL = 1e-10

LINEAR_LABELS = ("h", "v")
HELICITY_LABEL = "helicity"


@dataclass(frozen=True, eq=False)
class PolarizationState:
    """Complex polarization 3-vector attached to a propagation direction."""

    eps: np.ndarray
    direction: SphericalDirection
    label: str
    helicity: int | None = None

    def __post_init__(self):
        eps = np.array(self.eps, dtype=complex)
        if eps.shape != (3,):
            raise DomainError(f"polarization vector must have 3 components, got {eps.shape}")
        norm = float(np.linalg.norm(eps))
        if abs(norm - 1.0) > POLARIZATION_TOL:
            raise DomainError(f"polarization vector must be unit norm, got {norm}")
        overlap = abs(np.dot(eps, self.direction.unit_vector()))
        if overlap > POLARIZATION_TOL:
            raise DomainError(
                f"polarization must be transverse to the momentum (overlap {overlap:.3e})"
            )
        if self.label in LINEAR_LABELS:
            if self.helicity is not None:
                raise DomainError("linear polarization labels carry no helicity")
        elif self.label == HELICITY_LABEL:
            if self.helicity not in (1, -1):
                raise DomainError(f"helicity must be +1 or -1, got {self.helicity}")
        else:
            raise DomainError(f"unknown polarization label {self.label!r}")
        eps.setflags(write=False)
        object.__setattr__(self, "eps", eps)


def _rotation_matrix(direction: SphericalDirection) -> np.ndarray:
    """Spatial 3x3 rotation R_z(phi) R_y(theta)."""
    ct, st = math.cos(direction.theta), math.sin(direction.theta)
    cp, sp = math.cos(direction.phi), math.sin(direction.phi)
    ry = np.array([[ct, 0.0, st], [0.0, 1.0, 0.0], [-st, 0.0, ct]])
    rz = np.array([[cp, -sp, 0.0], [sp, cp, 0.0], [0.0, 0.0, 1.0]])
    return rz @ ry


def linear_polarization(direction: SphericalDirection, kind: str) -> PolarizationState:
    """Horizontal ('h') or vertical ('v') polarization at ``direction``."""
    if kind not in LINEAR_LABELS:
        raise DomainError(f"linear polarization kind must be 'h' or 'v', got {kind!r}")
    cp, sp = math.cos(direction.phi), math.sin(direction.phi)
    base = np.array([cp, -sp, 0.0]) if kind == "h" else np.array([sp, cp, 0.0])
    return PolarizationState(_rotation_matrix(direction) @ base, direction, kind)


def helicity_polarization(direction: SphericalDirection, lam: int) -> PolarizationState:
    """Circular polarization of helicity ``lam`` at ``direction``."""
    if lam not in (1, -1):
        raise DomainError(f"helicity must be +1 or -1, got {lam}")
    base = np.array([1.0, 1j * lam, 0.0]) / math.sqrt(2.0)
    return PolarizationState(_rotation_matrix(direction) @ base, direction, HELICITY_LABEL, lam)


def _rebuild(direction: SphericalDirection, label: str, helicity) -> PolarizationState:
    if label == HELICITY_LABEL:
        return helicity_polarization(direction, helicity)
    return linear_polarization(direction, label)


@dataclass(frozen=True, eq=False)
class PhotonState:
    """Photon momentum plus polarization plus accumulated phase."""

    momentum: FourVector
    polarization: PolarizationState
    phase: float = 0.0

    def __post_init__(self):
        if self.momentum.t <= 0.0 or not self.momentum.is_null():
            raise DomainError("photon momentum must be null with positive energy")
        gap = np.abs(
            self.momentum.direction().unit_vector()
            - self.polarization.direction.unit_vector()
        ).max()
        if gap > DIRECTION_TOL:
            raise DomainError(
                f"momentum and polarization directions disagree by {gap:.3e}"
            )


def make_photon(
    direction: SphericalDirection,
    label: str,
    helicity: int | None = None,
    energy: float = 1.0,
    phase: float = 0.0,
) -> PhotonState:
    return PhotonState(
        FourVector.photon(direction, energy), _rebuild(direction, label, helicity), phase
    )


def boost_photon(state: PhotonState, beta: float) -> PhotonState:
    """Boost a photon along z: Doppler-shift the momentum, aberrate the
    direction, re-evaluate the polarization label there, and accumulate the
    Wigner phase for helicity labels."""
    transform = boost_z(beta)
    pol = state.polarization
    new_direction = transform_angles(pol.direction, beta)
    phase = state.phase
    if pol.label == HELICITY_LABEL:
        phase = phase - pol.helicity * wigner_phase(transform, state.momentum)
    return PhotonState(
        apply(transform, state.momentum),
        _rebuild(new_direction, pol.label, pol.helicity),
        phase,
    )
