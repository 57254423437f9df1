"""The photon invariant checks on stacks of directions: polarization vectors
unit and transverse, momenta null along their directions.  The h/v basis
they check is ``lorentz.linear_basis``."""

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
    bad = ~(np.abs(norm - 1.0) <= POLARIZATION_TOL)
    if bad.any():
        raise DomainError(f"polarization vector must be unit norm, got {norm[bad][0]}")
    overlap = np.abs(np.einsum("ij,ij->i", eps, normals))
    bad = ~(overlap <= POLARIZATION_TOL)
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
    bad = ~(gap <= DIRECTION_TOL)
    if bad.any():
        raise DomainError(f"momentum and polarization directions disagree by {gap[bad][0]:.3e}")
