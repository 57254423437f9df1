"""Minkowski four-vectors, boosts and rotations, photon aberration on unit
vectors, and the massless-particle little group.

Conventions fixed here and relied on by every other module:

* Metric signature (+, -, -, -), natural units with c = 1.
* ``boost_z(beta)`` is the matrix with ``m[0][3] = m[3][0] = -gamma*beta``.
  A photon moving along +z therefore has its energy multiplied by
  ``gamma*(1 - beta)`` (red shift for ``beta > 0``), and polar angles open
  away from the +z axis: ``sign(cos(theta')) = sign(cos(theta) - beta)``.
* Spherical directions use the physics convention: ``theta`` measured from
  +z in ``[0, pi]``, ``phi`` measured from +x in ``[0, 2*pi)``.
* The canonical boost for a null momentum ``p`` is
  ``standard_boost(p) = R_z(phi) R_y(theta) B_z(xi)`` where ``B_z(xi)``
  rescales the reference null vector ``k = (1, 0, 0, 1)`` to the energy of
  ``p``.  Little-group elements ``W = L(Lp)^-1 L L(p)`` then stabilize ``k``
  and their rotation angle about z is read off the x-y block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericalConsistencyError

MINKOWSKI_METRIC = np.diag([1.0, -1.0, -1.0, -1.0])

METRIC_TOL = 1e-12
NULL_TOL = 1e-9
STABILIZER_TOL = 1e-8

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class FourVector:
    """Real four-vector (t, x, y, z) in natural units."""

    t: float
    x: float
    y: float
    z: float

    def as_array(self) -> np.ndarray:
        return np.array([self.t, self.x, self.y, self.z], dtype=float)

    @classmethod
    def from_array(cls, arr) -> "FourVector":
        t, x, y, z = (float(v) for v in arr)
        return cls(t, x, y, z)

    def minkowski_sq(self) -> float:
        """Invariant norm t^2 - x^2 - y^2 - z^2."""
        return self.t * self.t - self.x * self.x - self.y * self.y - self.z * self.z

    def spatial_norm(self) -> float:
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)

    def is_null(self, rel_tol: float = NULL_TOL) -> bool:
        return bool(null_mask(self.as_array(), rel_tol))

    def direction(self) -> "SphericalDirection":
        r = self.spatial_norm()
        if r <= 0.0:
            raise DomainError("cannot take the direction of a vanishing 3-momentum")
        theta = math.atan2(math.hypot(self.x, self.y), self.z)
        # on the z axis the azimuth is arbitrary: take 0, not atan2(0, -0.0) = pi
        phi = math.atan2(self.y, self.x) if self.x or self.y else 0.0
        return SphericalDirection(theta, phi)

    @classmethod
    def photon(cls, direction: "SphericalDirection", energy: float = 1.0) -> "FourVector":
        """Null momentum of the given energy along ``direction``."""
        if energy <= 0.0:
            raise DomainError(f"photon energy must be positive, got {energy}")
        ux, uy, uz = direction.unit_vector()
        return cls(energy, energy * ux, energy * uy, energy * uz)


def null_mask(momenta, rel_tol: float = NULL_TOL) -> np.ndarray:
    """Whether each (..., 4) momentum (t, x, y, z) is null to ``rel_tol``
    relative to t^2."""
    p = np.asarray(momenta, dtype=float)
    t = p[..., 0]
    sq = t * t - (p[..., 1:] ** 2).sum(axis=-1)
    return np.abs(sq) <= rel_tol * np.maximum(t * t, 1e-300)


def polar_angles(theta, phi) -> tuple[np.ndarray, np.ndarray]:
    """Validated direction angles, elementwise: theta within 1e-12 of [0, pi]
    is clamped onto it and anything further out (or NaN) is rejected; phi is
    reduced to [0, 2*pi)."""
    theta = np.asarray(theta, dtype=float)
    if not (theta.min() >= -1e-12 and theta.max() <= math.pi + 1e-12):
        outside = ~((theta >= -1e-12) & (theta <= math.pi + 1e-12))
        raise DomainError(f"polar angle must lie in [0, pi], got {theta[outside].flat[0]}")
    return np.minimum(np.maximum(theta, 0.0), math.pi), np.mod(phi, _TWO_PI)


def unit_vectors(theta, phi) -> np.ndarray:
    """Unit vectors along directions (theta, phi): shape (3,) for scalar
    angles, (N, 3) for 1-D ones."""
    st = np.sin(theta)
    return np.array([st * np.cos(phi), st * np.sin(phi), np.cos(theta)]).T


@dataclass(frozen=True)
class SphericalDirection:
    """Propagation direction: polar angle theta in [0, pi], azimuth phi in [0, 2*pi)."""

    theta: float
    phi: float

    def __post_init__(self):
        theta, phi = polar_angles(self.theta, self.phi)
        object.__setattr__(self, "theta", float(theta))
        object.__setattr__(self, "phi", float(phi))

    def unit_vector(self) -> np.ndarray:
        return unit_vectors(self.theta, self.phi)

    def antipode(self) -> "SphericalDirection":
        return SphericalDirection(math.pi - self.theta, self.phi + math.pi)


@dataclass(frozen=True, eq=False)
class LorentzTransform:
    """Proper orthochronous Lorentz matrix; validated against the metric on
    construction."""

    m: np.ndarray

    def __post_init__(self):
        m = np.array(self.m, dtype=float)
        if m.shape != (4, 4):
            raise DomainError(f"Lorentz matrix must be 4x4, got shape {m.shape}")
        residual = m.T @ MINKOWSKI_METRIC @ m - MINKOWSKI_METRIC
        worst = float(np.abs(residual).max())
        if worst > METRIC_TOL:
            raise DomainError(
                f"matrix does not preserve the Minkowski metric (residual {worst:.3e})"
            )
        if np.linalg.det(m) < 0.0 or m[0, 0] < 1.0 - 1e-12:
            raise DomainError("matrix is not proper orthochronous")
        m.setflags(write=False)
        object.__setattr__(self, "m", m)

    def __matmul__(self, other: "LorentzTransform") -> "LorentzTransform":
        return LorentzTransform(self.m @ other.m)

    def inverse(self) -> "LorentzTransform":
        # eta m^T eta inverts any metric-preserving matrix exactly.
        return LorentzTransform(MINKOWSKI_METRIC @ self.m.T @ MINKOWSKI_METRIC)


def check_velocity(beta: float) -> None:
    """Reject a boost velocity outside |beta| < 1 (NaN included)."""
    if not abs(beta) < 1.0:
        raise DomainError(f"boost velocity must satisfy |beta| < 1, got {beta}")


def apply(transform: LorentzTransform, v: FourVector) -> FourVector:
    """Matrix-vector action of a Lorentz transform."""
    return FourVector.from_array(transform.m @ v.as_array())


def boost_z(beta: float) -> LorentzTransform:
    """Pure boost along z with dimensionless velocity ``beta``."""
    check_velocity(beta)
    gamma = 1.0 / math.sqrt(1.0 - beta * beta)
    m = np.eye(4)
    m[0, 0] = m[3, 3] = gamma
    m[0, 3] = m[3, 0] = -gamma * beta
    return LorentzTransform(m)


def _embed_rotation(r3: np.ndarray) -> LorentzTransform:
    m = np.eye(4)
    m[1:, 1:] = r3
    return LorentzTransform(m)


def rotation_y(theta: float) -> LorentzTransform:
    """Spatial rotation about the y axis, embedded in 4x4."""
    c, s = math.cos(theta), math.sin(theta)
    return _embed_rotation(np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]]))


def rotation_z(phi: float) -> LorentzTransform:
    """Spatial rotation about the z axis, embedded in 4x4."""
    c, s = math.cos(phi), math.sin(phi)
    return _embed_rotation(np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]))


def aberrate(nodes, axis_angle: float, beta: float):
    """Unit vectors (x, y, z) after ``boost_z(beta)``, for directions given in
    a beam frame rotated about y by ``axis_angle`` from the lab (0: the lab
    itself): rotate to the lab, aberrate there as

        n' = (n_x, n_y, gamma (n_z - beta)) / (gamma (1 - beta n_z))

    (Weinberg, QFT I, sec. 2.5; Lindner, Peres & Terno, J. Phys. A 36, L449,
    2003), and rotate back.  ``nodes`` holds the x, y and z components: three
    arrays of equal shape, or one 3-vector."""
    check_velocity(beta)
    x, y, z = nodes
    c, s = math.cos(axis_angle), math.sin(axis_angle)
    lab_x = c * x + s * z
    lab_z = c * z - s * x
    gamma = 1.0 / math.sqrt((1.0 - beta) * (1.0 + beta))
    scale = 1.0 / (gamma * (1.0 - beta * lab_z))
    lab_x *= scale
    lab_z = gamma * (lab_z - beta) * scale
    return c * lab_x - s * lab_z, y * scale, s * lab_x + c * lab_z


def transform_angles(direction: SphericalDirection, beta: float) -> SphericalDirection:
    """Relativistic aberration of a photon direction under ``boost_z(beta)``,
    through ``aberrate`` on its unit vector.

    Equivalent closed forms, both exact:

        sin(theta') = sin(theta) / sqrt(sin(theta)^2 + gamma^2 (cos(theta) - beta)^2)
        tan(theta'/2) = sqrt((1 + beta)/(1 - beta)) * tan(theta/2)

    with the quadrant fixed by sign(cos(theta')) = sign(cos(theta) - beta),
    which makes the map continuous and bijective on [0, pi].  The azimuth is
    unchanged, so it is passed through rather than recomputed.
    """
    x, y, z = aberrate(direction.unit_vector(), 0.0, beta)
    return SphericalDirection(math.atan2(math.hypot(x, y), z), direction.phi)


def approx_transform_theta(theta: float, beta: float) -> float:
    """Small-velocity power-law approximation to the polar-angle aberration:
    theta' = pi * (theta/pi) ** (1 - 2*beta/(pi*ln 2))."""
    if not 0.0 <= theta <= math.pi:
        raise DomainError(f"polar angle must lie in [0, pi], got {theta}")
    check_velocity(beta)
    exponent = 1.0 - 2.0 * beta / (math.pi * math.log(2.0))
    return math.pi * (theta / math.pi) ** exponent


def standard_boost(p: FourVector) -> LorentzTransform:
    """Canonical transform L(p) = R_z(phi) R_y(theta) B_z taking the reference
    null vector k = (1, 0, 0, 1) to ``p``."""
    if p.t <= 0.0:
        raise DomainError(f"photon energy must be positive, got {p.t}")
    if not p.is_null():
        raise DomainError(
            f"standard boost requires a null momentum, got norm^2 {p.minkowski_sq():.3e}"
        )
    energy = p.t
    # gamma*(1 - beta) = E  solves to  beta = (1 - E^2) / (1 + E^2).
    beta_scale = (1.0 - energy * energy) / (1.0 + energy * energy)
    d = p.direction()
    return rotation_z(d.phi) @ rotation_y(d.theta) @ boost_z(beta_scale)


def wigner_phase(transform: LorentzTransform, p: FourVector) -> float:
    """Rotation angle of the little-group element W = L(Lp)^-1 L L(p).

    W stabilizes k = (1, 0, 0, 1); in the ISO(2) normal form (null
    translations times a rotation about z) its x-y block is an exact 2D
    rotation regardless of the translation part, so the angle is read off
    with atan2.  Returns the angle in (-pi, pi].
    """
    p_out = apply(transform, p)
    w = standard_boost(p_out).inverse().m @ transform.m @ standard_boost(p).m
    k = np.array([1.0, 0.0, 0.0, 1.0])
    residual = float(np.abs(w @ k - k).max())
    if residual > STABILIZER_TOL:
        raise NumericalConsistencyError(
            f"little-group element fails to stabilize the reference momentum "
            f"(residual {residual:.3e})"
        )
    return math.atan2(w[2, 1], w[1, 1])
