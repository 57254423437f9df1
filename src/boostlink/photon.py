"""Single-photon polarization states and their behavior under z-boosts.

Basis vectors attached to a propagation direction ``(theta, phi)`` are the
images of x and y under Q = R_z(phi) R_y(theta) R_z(-phi), the rotation
taking +z to the direction about the axis perpendicular to both.  With
k = cos(theta) - 1 = -2 sin^2(theta/2):

    h = Q x = (1 + k cos^2(phi), k sin(phi) cos(phi), -sin(theta) cos(phi))
    v = Q y = (k sin(phi) cos(phi), 1 + k sin^2(phi), -sin(theta) sin(phi))
    helicity lambda = +/-1: exp(-i*lambda*phi) (h + i*lambda*v) / sqrt(2)

which is regular at both poles (at theta = pi, Q is the half-turn about the
axis at azimuth phi + pi/2, so h and v are x and y reflected through it).
All three are spatial 3-vectors (the radiation-gauge time component is
zero), unit norm and transverse to the momentum.  A boost acts by aberrating
the direction and re-evaluating the same basis label there; the helicity
label additionally accumulates the Wigner phase exp(-i*lambda*Theta) while
linear labels stay phase-free under pure boosts.

The basis and the invariant checks are array functions (``linear_basis``,
``check_polarizations``, ``check_photons``) over stacks of directions; the
single-photon objects call them on one item, and the sweeps in ``cli`` call
them once on every point.
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
    null_mask,
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
        check_polarizations(eps[None], self.direction.unit_vector()[None])
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


def check_polarizations(eps, normals) -> None:
    """Reject any polarization vector in the stack ``eps`` (N, 3) that is not
    unit norm, or not transverse to its propagation direction ``normals``
    (N, 3), to ``POLARIZATION_TOL``; the first offender is reported."""
    norm = np.linalg.norm(eps, axis=-1)
    bad = np.abs(norm - 1.0) > POLARIZATION_TOL
    if bad.any():
        raise DomainError(f"polarization vector must be unit norm, got {norm[bad][0]}")
    overlap = np.abs(np.einsum("ij,ij->i", eps, normals))
    bad = overlap > POLARIZATION_TOL
    if bad.any():
        raise DomainError(
            f"polarization must be transverse to the momentum (overlap {overlap[bad][0]:.3e})"
        )


def check_photons(momenta, normals) -> None:
    """Reject any momentum in the stack ``momenta`` (N, 4) that is not null
    with positive energy, or whose direction departs from ``normals`` (N, 3)
    by more than ``DIRECTION_TOL`` in any component."""
    if not (null_mask(momenta) & (momenta[:, 0] > 0.0)).all():
        raise DomainError("photon momentum must be null with positive energy")
    spatial = momenta[:, 1:]
    gap = np.abs(spatial / np.linalg.norm(spatial, axis=-1)[:, None] - normals).max(axis=-1)
    bad = gap > DIRECTION_TOL
    if bad.any():
        raise DomainError(f"momentum and polarization directions disagree by {gap[bad][0]:.3e}")


def linear_basis(theta, phi) -> tuple[np.ndarray, np.ndarray]:
    """The h and v vectors at directions (theta, phi), each of shape (3,)
    for scalar angles and (N, 3) for 1-D ones; see the module docstring for
    the closed form."""
    st, k = np.sin(theta), -2.0 * np.sin(0.5 * np.asarray(theta)) ** 2
    cp, sp = np.cos(phi), np.sin(phi)
    ksc = k * sp * cp
    h = np.array([1.0 + k * cp * cp, ksc, -st * cp]).T
    v = np.array([ksc, 1.0 + k * sp * sp, -st * sp]).T
    return h, v


def linear_polarization(direction: SphericalDirection, kind: str) -> PolarizationState:
    """Horizontal ('h') or vertical ('v') polarization at ``direction``."""
    if kind not in LINEAR_LABELS:
        raise DomainError(f"linear polarization kind must be 'h' or 'v', got {kind!r}")
    h, v = linear_basis(direction.theta, direction.phi)
    return PolarizationState(h if kind == "h" else v, direction, kind)


def helicity_polarization(direction: SphericalDirection, lam: int) -> PolarizationState:
    """Circular polarization of helicity ``lam`` at ``direction``."""
    if lam not in (1, -1):
        raise DomainError(f"helicity must be +1 or -1, got {lam}")
    h, v = linear_basis(direction.theta, direction.phi)
    eps = np.exp(-1j * lam * direction.phi) * (h + 1j * lam * v) / math.sqrt(2.0)
    return PolarizationState(eps, direction, HELICITY_LABEL, lam)


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
        check_photons(
            self.momentum.as_array()[None], self.polarization.direction.unit_vector()[None]
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
