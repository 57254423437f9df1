"""Boosts, photon aberration on unit vectors, and the Wigner phase of the
massless-particle little group, as functions on numpy arrays.

Conventions fixed here and relied on by every other module:

* Metric signature (+, -, -, -), natural units with c = 1.  A Lorentz
  transform is a plain 4x4 matrix acting on (t, x, y, z).
* ``boost_z(beta)`` is the matrix with ``m[0][3] = m[3][0] = -gamma*beta``.
  A photon moving along +z therefore has its energy multiplied by
  ``gamma*(1 - beta)`` (red shift for ``beta > 0``), and polar angles open
  away from the +z axis: ``sign(cos(theta')) = sign(cos(theta) - beta)``.
* Spherical directions use the physics convention: ``theta`` measured from
  +z in ``[0, pi]``, ``phi`` measured from +x in ``[0, 2*pi)``.
* The standard frame at a photon direction n is R_z(phi) R_y(theta), with
  phi read as 0 on the z axis.  The canonical transform L(p) for a null
  momentum p along n is that rotation after a z-boost taking the reference
  vector k = (1, 0, 0, 1) to the energy of p.  The little-group element
  W = L(m p)^-1 m L(p) stabilizes k, its x-y block is a rotation, and the
  Wigner phase is its angle.  The z-boost in L(m p) leaves x and y alone, so
  ``wigner_phases`` reads the angle in closed form from the frame axes
  alone: with e_x the first frame axis at n, s the spatial part of m (0, e_x),
  and x', y' the frame axes at the direction of m p,
  Theta = atan2(s . y', s . x').
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericalConsistencyError

MINKOWSKI_METRIC = np.diag([1.0, -1.0, -1.0, -1.0])

METRIC_TOL = 1e-12
NULL_TOL = 1e-9
STABILIZER_TOL = 1e-8

_TWO_PI = 2.0 * math.pi


def null_mask(momenta) -> np.ndarray:
    """Whether each (..., 4) momentum (t, x, y, z) is null to ``NULL_TOL``
    relative to t^2."""
    p = np.asarray(momenta, dtype=float)
    t = p[..., 0]
    sq = t * t - (p[..., 1:] ** 2).sum(axis=-1)
    return np.abs(sq) <= NULL_TOL * np.maximum(t * t, 1e-300)


def polar_angles(theta, phi) -> tuple[np.ndarray, np.ndarray]:
    """Validated direction angles, elementwise: theta within 1e-12 of [0, pi]
    is clamped onto it and anything further out (or NaN) is rejected; a
    non-finite phi is rejected and the rest reduced to [0, 2*pi)."""
    theta = np.asarray(theta, dtype=float)
    if not (theta.min(initial=0.0) >= -1e-12 and theta.max(initial=0.0) <= math.pi + 1e-12):
        outside = ~((theta >= -1e-12) & (theta <= math.pi + 1e-12))
        raise DomainError(f"polar angle must lie in [0, pi], got {theta[outside].flat[0]}")
    if not np.isfinite(phi).all():
        raise DomainError(f"azimuth must be finite, got {np.extract(~np.isfinite(phi), phi)[0]}")
    return np.minimum(np.maximum(theta, 0.0), math.pi), np.mod(phi, _TWO_PI)


def unit_vectors(theta, phi) -> np.ndarray:
    """Unit vectors along directions (theta, phi): shape (3,) for scalar
    angles, (N, 3) for 1-D ones."""
    st = np.sin(theta)
    return np.array([st * np.cos(phi), st * np.sin(phi), np.cos(theta)]).T


def check_velocity(beta: float) -> None:
    """Reject a boost velocity outside |beta| < 1 (NaN included)."""
    if not abs(beta) < 1.0:
        raise DomainError(f"boost velocity must satisfy |beta| < 1, got {beta}")


def boost_z(beta: float) -> np.ndarray:
    """Pure boost along z with dimensionless velocity ``beta``: a read-only
    4x4 matrix."""
    check_velocity(beta)
    gamma = 1.0 / math.sqrt(1.0 - beta * beta)
    m = np.eye(4)
    m[0, 0] = m[3, 3] = gamma
    m[0, 3] = m[3, 0] = -gamma * beta
    m.setflags(write=False)
    return m


def rotate_to_lab(nodes, axis_angle: float):
    """Directions (x, y, z) given in a beam frame rotated about y by
    ``axis_angle`` from the lab (0: the lab itself), expressed in the lab:
    the boost-independent first step of an aberration."""
    x, y, z = nodes
    c, s = math.cos(axis_angle), math.sin(axis_angle)
    return c * x + s * z, y, c * z - s * x


def boost_to_beam_frame(lab, axis_angle: float, beta: float):
    """Lab directions ``lab`` (as ``rotate_to_lab`` returns them) after
    ``boost_z(beta)``, rotated back to the beam frame: the second step of an
    aberration.  It writes only into its own temporaries, so one lab stack
    serves every beta."""
    check_velocity(beta)
    x, y, z = lab
    c, s = math.cos(axis_angle), math.sin(axis_angle)
    gamma = 1.0 / math.sqrt((1.0 - beta) * (1.0 + beta))
    # one rounding per operation, in the order of the formula
    # n' = (n_x, n_y, gamma (n_z - beta)) / (gamma (1 - beta n_z))
    # (1 - beta n_z is 1 + n_z (-beta) exactly), on as few temporaries as
    # the formula needs.  gamma rounds apart from ``boost_z``'s
    # 1/sqrt(1 - beta^2), and output bytes depend on both forms
    scale = z * -beta
    scale += 1.0
    scale *= gamma
    scale = 1.0 / scale
    boosted_x = x * scale
    boosted_z = z - beta
    boosted_z *= gamma
    boosted_z *= scale
    beam_x = c * boosted_x
    beam_x -= s * boosted_z
    boosted_x *= s
    boosted_z *= c
    boosted_x += boosted_z
    return beam_x, y * scale, boosted_x


def aberrate(n, beta: float) -> np.ndarray:
    """The (N, 3) unit vectors ``n`` after ``boost_z(beta)``, renormalized:

        n' = (n_x, n_y, gamma (n_z - beta)) / (gamma (1 - beta n_z))

    (Weinberg, QFT I, sec. 2.5; Lindner, Peres & Terno, J. Phys. A 36, L449,
    2003), the two steps ``rotate_to_lab`` and ``boost_to_beam_frame`` with
    the beam along the lab z axis.  The formula divides the input's norm
    defect |n|^2 - 1 by gamma^2 (1 - beta n_z)^2, which is 5e-5 at
    beta n_z = |beta| = 0.9999; dividing each row by its norm returns rows
    within 2.2e-16 of unit norm.

    In angles the polar angle maps by either of two exact closed forms,

        sin(theta') = sin(theta) / sqrt(sin(theta)^2 + gamma^2 (cos(theta) - beta)^2)
        tan(theta'/2) = sqrt((1 + beta)/(1 - beta)) * tan(theta/2)

    with the quadrant of the first fixed by
    sign(cos(theta')) = sign(cos(theta) - beta), which makes the map
    continuous and bijective on [0, pi]; the azimuth is unchanged."""
    moved = np.transpose(boost_to_beam_frame(rotate_to_lab(n.T, 0.0), 0.0, beta))
    return moved / np.linalg.norm(moved, axis=-1, keepdims=True)


def approx_transform_theta(theta: float, beta: float) -> float:
    """Small-velocity power-law approximation to the polar-angle aberration:
    theta' = pi * (theta/pi) ** (1 - 2*beta/(pi*ln 2)), theta as ``polar_angles`` takes it."""
    theta = float(polar_angles(theta, 0.0)[0])
    check_velocity(beta)
    exponent = 1.0 - 2.0 * beta / (math.pi * math.log(2.0))
    return math.pi * (theta / math.pi) ** exponent


def _frame_axes(v) -> tuple[np.ndarray, np.ndarray]:
    """First and second axes of the standard frame R_z(phi) R_y(theta) at the
    direction of each row of the (N, 3) stack ``v``:
    (cos(theta) cos(phi), cos(theta) sin(phi), -sin(theta)) and
    (-sin(phi), cos(phi), 0).  The angles come from atan2, so both axes are
    unit vectors also where x and y are subnormal; on the z axis phi is 0,
    also where x is -0.0 (atan2(0, -0.0) would read pi)."""
    x, y, z = v.T
    rho = np.hypot(x, y)
    theta = np.arctan2(rho, z)
    phi = np.where(rho > 0.0, np.arctan2(y, x), 0.0)
    cos_theta, cos_phi, sin_phi = np.cos(theta), np.cos(phi), np.sin(phi)
    e_x = np.stack([cos_theta * cos_phi, cos_theta * sin_phi, -np.sin(theta)], axis=-1)
    e_y = np.stack([-sin_phi, cos_phi, np.zeros_like(x)], axis=-1)
    return e_x, e_y


def wigner_phases(m, n) -> np.ndarray:
    """Wigner phase, in (-pi, pi], of a photon along each row of the (N, 3)
    unit vectors ``n`` under the 4x4 Lorentz matrix ``m``, in the closed form
    of the module docstring.

    ``m`` must preserve the metric to ``METRIC_TOL`` relative to the square
    of its largest entry (the residual m^T eta m - eta grows as gamma^2 in
    rounding) and be proper orthochronous, and each direction must be a unit
    vector; otherwise ``DomainError``.  The x-y block of W is a rotation, so
    (s . x', s . y') has unit norm; a departure above ``STABILIZER_TOL``
    raises ``NumericalConsistencyError``."""
    m = np.asarray(m, dtype=float)
    if m.shape != (4, 4):
        raise DomainError(f"Lorentz matrix must be 4x4, got shape {m.shape}")
    worst = float(np.abs(m.T @ MINKOWSKI_METRIC @ m - MINKOWSKI_METRIC).max())
    if not worst <= METRIC_TOL * max(1.0, float(np.abs(m).max())) ** 2:
        raise DomainError(f"matrix does not preserve the Minkowski metric (residual {worst:.3e})")
    if np.linalg.det(m) < 0.0 or m[0, 0] < 1.0 - 1e-12:
        raise DomainError("matrix is not proper orthochronous")
    n = np.asarray(n, dtype=float)
    if n.ndim != 2 or n.shape[1] != 3:
        raise DomainError(f"photon directions must be an (N, 3) stack, got shape {n.shape}")
    p = np.hstack([np.ones((len(n), 1)), n])
    if not null_mask(p).all():
        raise DomainError("photon direction must be a unit vector")
    s = _frame_axes(n)[0] @ m[1:, 1:].T
    x_out, y_out = _frame_axes(p @ m[1:].T)
    cos_w = np.einsum("ij,ij->i", s, x_out)
    sin_w = np.einsum("ij,ij->i", s, y_out)
    residual = float(np.abs(np.hypot(cos_w, sin_w) - 1.0).max(initial=0.0))
    if not residual <= STABILIZER_TOL:
        raise NumericalConsistencyError(
            f"little-group element fails to stabilize the reference momentum "
            f"(residual {residual:.3e})"
        )
    return np.arctan2(sin_w, cos_w)
