"""The linear polarization basis of a photon and the photon invariant checks.

The basis vectors at a unit propagation direction n are the images of x and
y under Q = R_z(phi) R_y(theta) R_z(-phi), the rotation taking +z to n about
the axis perpendicular to both:

    h = x - n_x (n + z) / (1 + n_z),    v = y - n_y (n + z) / (1 + n_z).

Both are spatial 3-vectors (the radiation-gauge time component is zero),
unit norm and transverse to the momentum.  The only singular direction is
n = -z exactly (see ``linear_basis``); at theta = pi the unit vector keeps a
1.2e-16 offset from it, and there Q is the half-turn about the axis at
azimuth phi + pi/2, so h and v are x and y reflected through it.  A boost
acts on a linearly polarized photon by aberrating its direction
(``lorentz.aberrate``, on (N, 3) unit vectors) and re-evaluating the same
basis there, with no phase.

Every function works on stacks of directions: the ``single-photon`` sweep
and the type-I pair amplitude (``states.pair_amplitudes``) call each once on
all of their points.  The diffraction kernel writes the same h and v on the
boosted momentum instead, with this function's below-equator rule, and its
tests pin those rows to ``linear_basis``.
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


def linear_basis(nx, ny, nz) -> np.ndarray:
    """Rows (h; v) of a 6 x N array at the unit directions (nx, ny, nz), each
    an array of N components.  Below the equator 1 + n_z is evaluated as
    (n_x^2 + n_y^2) / (1 - n_z), which keeps h and v orthonormal and
    transverse to rounding right up to the pole.  At the pole itself, n = -z
    exactly, h and v have no limit: 0 / 0 leaves NaN in rows h_x, h_y, v_x,
    v_y.  ``lorentz.unit_vectors`` never returns it: at theta = pi its n_x =
    sin(pi) cos(phi) is nonzero (sin(pi) = 1.2e-16, and no float phi has
    cos(phi) = 0).  Grid nodes avoid it too: sin(theta) > 0 at every
    Gauss-Legendre node, so n_y != 0 off the columns phi = 0 and pi, and a
    node there reaches the pole only if the boost aberrates it exactly onto
    -z.  The rows are computed in place in the returned array."""
    one_plus_nz = 1.0 + nz
    np.divide(nx * nx + ny * ny, 1.0 - nz, out=one_plus_nz, where=nz < 0.0)
    kx = nx / one_plus_nz
    ky = ny / one_plus_nz
    basis = np.empty((6,) + np.shape(nx))
    h_x, h_y, h_z, v_x, v_y, v_z = basis
    np.multiply(nx, kx, out=h_x)
    np.subtract(1.0, h_x, out=h_x)
    np.negative(ny, out=v_z)
    np.multiply(v_z, kx, out=h_y)
    np.negative(nx, out=h_z)
    np.multiply(h_z, ky, out=v_x)
    np.multiply(ny, ky, out=v_y)
    np.subtract(1.0, v_y, out=v_y)
    return basis
