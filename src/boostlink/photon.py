"""The linear polarization basis of a photon and the photon invariant checks.

Basis vectors attached to a propagation direction ``(theta, phi)`` are the
images of x and y under Q = R_z(phi) R_y(theta) R_z(-phi), the rotation
taking +z to the direction about the axis perpendicular to both.  With
k = cos(theta) - 1 = -2 sin^2(theta/2):

    h = Q x = (1 + k cos^2(phi), k sin(phi) cos(phi), -sin(theta) cos(phi))
    v = Q y = (k sin(phi) cos(phi), 1 + k sin^2(phi), -sin(theta) sin(phi))

which is regular at both poles (at theta = pi, Q is the half-turn about the
axis at azimuth phi + pi/2, so h and v are x and y reflected through it).
Both are spatial 3-vectors (the radiation-gauge time component is zero),
unit norm and transverse to the momentum.  A z-boost acts on a linearly
polarized photon by aberrating its direction (``lorentz.aberrate_polar``)
and re-evaluating the same basis vector there, with no phase.

All three functions work on stacks of directions; the ``single-photon``
sweep and the type-I pair amplitude (``states.pair_amplitudes``) call each
once on all of their points.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .lorentz import boost_z, null_mask  # boost_z stays importable here for perfbench's tracer

POLARIZATION_TOL = 1e-12
DIRECTION_TOL = 1e-10


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
