"""Boosts, photon aberration on unit vectors, the linear polarization basis
and the Wigner phase of the massless-particle little group, as functions on
numpy arrays.

Conventions fixed here and relied on by every other module:

* Metric signature (+, -, -, -), natural units with c = 1.  A Lorentz
  transform is a plain 4x4 matrix acting on (t, x, y, z).
* ``boost_z(beta)`` is the matrix with ``m[0][3] = m[3][0] = -gamma*beta``.
  A photon moving along +z therefore has its energy multiplied by
  ``gamma*(1 - beta)`` (red shift for ``beta > 0``), and polar angles open
  away from the +z axis: ``sign(cos(theta')) = sign(cos(theta) - beta)``.
* Spherical directions use the physics convention: ``theta`` measured from
  +z in ``[0, pi]``, ``phi`` measured from +x in ``[0, 2*pi)``.
* The standard frame at a unit direction n is Q = R_z(phi) R_y(theta)
  R_z(-phi), the rotation taking +z to n about the axis perpendicular to
  both.  The linear polarization basis at n is the images of x and y under Q:

      h = x - n_x (n + z) / (1 + n_z),    v = y - n_y (n + z) / (1 + n_z).

  Both are spatial 3-vectors (the radiation-gauge time component is zero),
  unit norm and transverse to the momentum.  The only singular direction is
  n = -z exactly (see ``linear_basis``); at theta = pi the unit vector keeps
  a 1.2e-16 offset from it, and there Q is the half-turn about the axis at
  azimuth phi + pi/2, so h and v are x and y reflected through it.  A
  z-boost acts on a linearly polarized photon by aberrating its direction
  (``aberrate``) and re-evaluating the same basis there, with no phase.
  ``linear_basis`` is the one copy of the formula; the diffraction kernel
  writes it on the boosted momentum, and its tests pin those rows to it.
* The canonical transform L(p) for a null momentum p along n is Q after a
  z-boost taking the reference vector k = (1, 0, 0, 1) to the energy of p.
  The little-group element W = L(m p)^-1 m L(p) stabilizes k, its x-y block
  is a rotation, and the Wigner phase is its angle.  The z-boost in L(m p)
  leaves x and y alone, so ``wigner_phases`` reads the angle in closed form
  from the basis alone: with s the spatial part of m (0, h(n)), and h', v'
  the basis at the direction of m (1, n), Theta = atan2(s . v', s . h').
  Projected transverse to m p, s is cos(Theta) h' + sin(Theta) v': the
  phase is the angle by which m carries a linear polarization out of the
  basis.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericalConsistencyError, is_real

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


def check_velocity(beta: float) -> float:
    """``beta`` as a float, once it is a real number (``is_real``; a bool is
    not) with |beta| < 1; anything else, NaN included, is rejected."""
    if not (is_real(beta) and abs(beta) < 1.0):
        raise DomainError(f"boost velocity must satisfy |beta| < 1, got {beta}")
    return float(beta)


def boost_z(beta: float) -> np.ndarray:
    """Pure boost along z with dimensionless velocity ``beta``: a read-only
    4x4 matrix."""
    beta = check_velocity(beta)
    gamma = 1.0 / math.sqrt(1.0 - beta * beta)
    m = np.eye(4)
    m[0, 0] = m[3, 3] = gamma
    m[0, 3] = m[3, 0] = -gamma * beta
    m.setflags(write=False)
    return m


def aberrate(n, beta: float) -> np.ndarray:
    """The (N, 3) unit vectors ``n`` after ``boost_z(beta)``, renormalized:

        n' = (n_x, n_y, gamma (n_z - beta)) / (gamma (1 - beta n_z))

    (Weinberg, QFT I, sec. 2.5; Lindner, Peres & Terno, J. Phys. A 36, L449,
    2003).  The formula divides the input's norm defect |n|^2 - 1 by
    gamma^2 (1 - beta n_z)^2, which is 5e-5 at beta n_z = |beta| = 0.9999;
    dividing each row by its norm returns rows within 2.2e-16 of unit
    norm.

    In angles the polar angle maps by either of two exact closed forms,

        sin(theta') = sin(theta) / sqrt(sin(theta)^2 + gamma^2 (cos(theta) - beta)^2)
        tan(theta'/2) = sqrt((1 + beta)/(1 - beta)) * tan(theta/2)

    with the quadrant of the first fixed by
    sign(cos(theta')) = sign(cos(theta) - beta), which makes the map
    continuous and bijective on [0, pi]; the azimuth is unchanged."""
    beta = check_velocity(beta)
    x, y, z = np.transpose(n)
    gamma = 1.0 / math.sqrt((1.0 - beta) * (1.0 + beta))
    # one rounding per operation, in the order of the formula (1 - beta n_z
    # is 1 + n_z (-beta) exactly).  gamma rounds apart from ``boost_z``'s
    # 1/sqrt(1 - beta^2), and output bytes depend on both forms
    scale = z * -beta
    scale += 1.0
    scale *= gamma
    scale = 1.0 / scale
    boosted_z = z - beta
    boosted_z *= gamma
    boosted_z *= scale
    moved = np.stack([x * scale, y * scale, boosted_z], axis=-1)
    return moved / np.linalg.norm(moved, axis=-1, keepdims=True)


def approx_transform_theta(theta: float, beta: float) -> float:
    """Small-velocity power-law approximation to the polar-angle aberration:
    theta' = pi * (theta/pi) ** (1 - 2*beta/(pi*ln 2)), theta as ``polar_angles`` takes it."""
    theta = float(polar_angles(theta, 0.0)[0])
    beta = check_velocity(beta)
    exponent = 1.0 - 2.0 * beta / (math.pi * math.log(2.0))
    return math.pi * (theta / math.pi) ** exponent


def linear_basis(nx, ny, nz) -> np.ndarray:
    """Rows (h; v) of a 6 x N array at the unit directions (nx, ny, nz), each
    an array of N components.  Below the equator 1 + n_z is evaluated as
    (n_x^2 + n_y^2) / (1 - n_z), which keeps h and v orthonormal and
    transverse to rounding right up to the pole.  At the pole itself, n = -z
    exactly, h and v have no limit: 0 / 0 leaves NaN in rows h_x, h_y, v_x,
    v_y.  ``unit_vectors`` never returns it: at theta = pi its n_x =
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


def wigner_phases(m, n) -> np.ndarray:
    """Wigner phase, in (-pi, pi], of a photon along each row of the (N, 3)
    unit vectors ``n`` under the 4x4 Lorentz matrix ``m``, read in the
    linear basis's frame in the closed form of the module docstring.

    ``m`` must preserve the metric to ``METRIC_TOL`` relative to the square
    of its largest entry (the residual m^T eta m - eta grows as gamma^2 in
    rounding) and be proper orthochronous, and each direction must be a unit
    vector other than -z exactly, and so must its image under ``m``, where
    the basis has no limit; otherwise ``DomainError``.  The x-y block of W is
    a rotation, so (s . h', s . v') has unit norm; a departure above
    ``STABILIZER_TOL`` raises ``NumericalConsistencyError``.

    The phase is as accurate as the rounded matrix defines it: under
    ``boost_z(beta)``, 0 in exact arithmetic, it rounds to a few eps at
    moderate beta and to below gamma^2 eps near the poles at |beta| >= 0.9
    (eps = 2^-52), the order of the matrix's own metric defect."""
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
    moved = p @ m[1:].T
    ends = np.concatenate([n, moved / np.linalg.norm(moved, axis=-1, keepdims=True)])
    if ((ends[:, :2] == 0.0).all(axis=1) & (ends[:, 2] < 0.0)).any():
        raise DomainError("the linear basis is singular at the photon direction -z = (0, 0, -1)")
    # one basis call: h at each direction, then h' and v' at its image
    basis = linear_basis(*ends.T)
    s = basis[:3, :len(n)].T @ m[1:, 1:].T
    cos_w = np.einsum("ij,ji->i", s, basis[:3, len(n):])
    sin_w = np.einsum("ij,ji->i", s, basis[3:, len(n):])
    residual = float(np.abs(np.hypot(cos_w, sin_w) - 1.0).max(initial=0.0))
    if not residual <= STABILIZER_TOL:
        raise NumericalConsistencyError(
            f"little-group element fails to stabilize the reference momentum "
            f"(residual {residual:.3e})"
        )
    return np.arctan2(sin_w, cos_w)
