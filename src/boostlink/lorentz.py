"""Minkowski four-vectors, boosts and rotations, photon aberration, and the
massless-particle little group.

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
        scale = max(self.t * self.t, 1e-300)
        return abs(self.minkowski_sq()) <= rel_tol * scale

    def direction(self) -> "SphericalDirection":
        r = self.spatial_norm()
        if r <= 0.0:
            raise DomainError("cannot take the direction of a vanishing 3-momentum")
        theta = math.atan2(math.hypot(self.x, self.y), self.z)
        phi = math.atan2(self.y, self.x)
        return SphericalDirection(theta, phi)

    @classmethod
    def photon(cls, direction: "SphericalDirection", energy: float = 1.0) -> "FourVector":
        """Null momentum of the given energy along ``direction``."""
        if energy <= 0.0:
            raise DomainError(f"photon energy must be positive, got {energy}")
        ux, uy, uz = direction.unit_vector()
        return cls(energy, energy * ux, energy * uy, energy * uz)


@dataclass(frozen=True)
class SphericalDirection:
    """Propagation direction: polar angle theta in [0, pi], azimuth phi in [0, 2*pi)."""

    theta: float
    phi: float

    def __post_init__(self):
        theta = float(self.theta)
        if -1e-12 <= theta < 0.0:
            theta = 0.0
        if math.pi < theta <= math.pi + 1e-12:
            theta = math.pi
        if not 0.0 <= theta <= math.pi:
            raise DomainError(f"polar angle must lie in [0, pi], got {self.theta}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", float(self.phi) % _TWO_PI)

    def unit_vector(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)]
        )

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


IDENTITY = None  # set after class definition


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


def transform_angles(direction: SphericalDirection, beta: float) -> SphericalDirection:
    """Relativistic aberration of a photon direction under ``boost_z(beta)``.

    Equivalent closed forms, both exact:

        sin(theta') = sin(theta) / sqrt(sin(theta)^2 + gamma^2 (cos(theta) - beta)^2)
        tan(theta'/2) = sqrt((1 + beta)/(1 - beta)) * tan(theta/2)

    with the quadrant fixed by sign(cos(theta')) = sign(cos(theta) - beta),
    which makes the map continuous and bijective on [0, pi].  The azimuth is
    unchanged.  Implemented via the half-angle form for numerical stability
    at both poles.
    """
    check_velocity(beta)
    stretch = math.sqrt((1.0 + beta) / (1.0 - beta))
    half = 0.5 * direction.theta
    theta_out = 2.0 * math.atan2(stretch * math.sin(half), math.cos(half))
    return SphericalDirection(theta_out, direction.phi)


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


IDENTITY = LorentzTransform(np.eye(4))
