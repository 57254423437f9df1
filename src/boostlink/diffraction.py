"""Gaussian angular wavepackets and the diffraction-degraded pair state.

The diffracted pair is a product of independent angular amplitudes
f(theta) = exp(-theta^2 / (2 sigma^2)) / sqrt(M) on the constant-momentum
shell, one per arm.  Tracing the momenta kills all cross-momentum coherences
(distinct momenta are orthogonal), so the reduced polarization matrix is the
weighted mixture over node pairs of the sharp-momentum pair projectors:

    rho = sum_ij W_i W_j |psi(a_i, b_j)><psi(a_i, b_j)|

with W the normalized |f|^2 quadrature weights.  Because the pair amplitude
factorizes per arm, the double sum reduces exactly to per-arm second-moment
matrices, which keeps the cost linear in the node count.

Geometry, all on unit vectors: each beam is a Gaussian around +z rotated
rigidly (nodes and polarization patch together) about y to the polar
direction ``alpha`` (azimuth 0); "opposite directions" places arm B's axis at
the exact mirror of arm A's, which is what makes one arm's spread tighten and
the other broaden under a z-boost.  In the lab the boost aberrates each node
as n' = (n_x, n_y, gamma (n_z - beta)) / (gamma (1 - beta n_z)) (Weinberg,
QFT I, sec. 2.5; Lindner, Peres & Terno, J. Phys. A 36, L449, 2003); rotated
back to the beam frame, n carries the linear basis

    h = x - n_x (n + z) / (1 + n_z),    v = y - n_y (n + z) / (1 + n_z),

singular only at the beam-frame backward pole n = -z.  Carrying the basis
with the beam keeps it continuous across the beam for every pointing; the
fixed global basis would instead be singular for a beam centered on the
backward pole, where it twists with azimuth.  The returned matrices are
therefore expressed in per-arm frames tied to the beam axes; the frames are
boost-independent, so entanglement measures and cross-frame distances are
unaffected.  Each arm's four moment blocks come from one product (X w) X^T,
X = [h | v] a 6 x N array.

Quadrature: Gauss-Legendre in theta on [0, min(6*sigma, pi)] times a uniform
periodic grid in phi.  The Gaussian is truncated at the domain edge; the
grid-doubling convergence test bounds the sensitivity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .lorentz import SphericalDirection, check_velocity
from .quantum import DensityMatrix, negativity

TRUNCATION_SIGMAS = 6.0


@dataclass(frozen=True)
class BeamProfile:
    """Gaussian angular spread ``sigma`` around the polar direction ``alpha``
    (azimuth 0), on the momentum shell ``p0``."""

    sigma: float
    p0: float = 1.0
    alpha: float = 0.0

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise DomainError(f"angular spread must be positive, got {self.sigma}")
        if self.p0 <= 0.0:
            raise DomainError(f"momentum magnitude must be positive, got {self.p0}")


def profile_weight(theta: float, profile: BeamProfile) -> float:
    """Unnormalized Gaussian amplitude exp(-theta^2 / (2 sigma^2))."""
    if not 0.0 <= theta <= math.pi:
        raise DomainError(f"polar angle must lie in [0, pi], got {theta}")
    return math.exp(-(theta * theta) / (2.0 * profile.sigma * profile.sigma))


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Product quadrature nodes (theta, phi) with weights carrying the
    invariant shell measure (p0/2) sin(theta) dtheta dphi."""

    theta: np.ndarray
    phi: np.ndarray
    weight: np.ndarray
    n_theta: int
    n_phi: int

    def __post_init__(self):
        for name in ("theta", "phi", "weight"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.theta.shape == self.phi.shape == self.weight.shape):
            raise DomainError("node arrays must have matching shapes")
        if np.any(self.weight <= 0.0):
            raise DomainError("all quadrature weights must be positive")


def make_grid(
    n_theta: int = 64,
    n_phi: int = 64,
    sigma: float | None = None,
    p0: float = 1.0,
) -> QuadratureGrid:
    """Gauss-Legendre x periodic-trapezoid grid; the polar domain is truncated
    to 6 sigma for narrow beams."""
    if n_theta < 2 or n_phi < 2:
        raise DomainError("grid needs at least 2 nodes per axis")
    theta_max = math.pi if sigma is None else min(TRUNCATION_SIGMAS * sigma, math.pi)
    nodes, gl_weights = np.polynomial.legendre.leggauss(n_theta)
    theta_1d = 0.5 * theta_max * (nodes + 1.0)
    wtheta_1d = 0.5 * theta_max * gl_weights
    phi_1d = 2.0 * math.pi * np.arange(n_phi) / n_phi
    wphi = 2.0 * math.pi / n_phi

    theta = np.repeat(theta_1d, n_phi)
    phi = np.tile(phi_1d, n_theta)
    weight = np.repeat((0.5 * p0) * np.sin(theta_1d) * wtheta_1d, n_phi) * wphi
    return QuadratureGrid(theta, phi, weight, n_theta, n_phi)


def normalized_weights(grid: QuadratureGrid, profile: BeamProfile) -> np.ndarray:
    """Probability weights w * |f|^2 / M; the normalization sum defines M."""
    density = np.exp(-(grid.theta**2) / (profile.sigma**2))
    raw = grid.weight * density
    total = float(raw.sum())
    if not math.isfinite(total) or total <= 0.0:
        raise DomainError("quadrature grid cannot normalize this beam profile")
    return raw / total


def rotate_beam(direction: SphericalDirection, alpha: float) -> SphericalDirection:
    """Coordinate rotation about the y axis used to point beams off the z axis:

        theta'' = arccos(cos(alpha) cos(theta) + sin(alpha) sin(theta) cos(phi))
        phi''   = atan2(sin(theta) sin(phi),
                        cos(alpha) sin(theta) cos(phi) - sin(alpha) cos(theta))

    A profile evaluated at the mapped angles peaks at (alpha, 0); the map
    itself sends +z to (alpha, pi).
    """
    theta, phi = _rotate_arrays(np.asarray(direction.theta), np.asarray(direction.phi), alpha)
    return SphericalDirection(float(theta), float(phi))


def _rotate_arrays(theta, phi, alpha):
    ct, st = np.cos(theta), np.sin(theta)
    ca, sa = math.cos(alpha), math.sin(alpha)
    cos_out = np.clip(ca * ct + sa * st * np.cos(phi), -1.0, 1.0)
    phi_out = np.arctan2(st * np.sin(phi), ca * st * np.cos(phi) - sa * ct)
    return np.arccos(cos_out), phi_out % (2.0 * math.pi)


def _node_directions(grid):
    """Components (x, y, z) of the grid nodes' unit vectors."""
    sin_theta = np.sin(grid.theta)
    return sin_theta * np.cos(grid.phi), sin_theta * np.sin(grid.phi), np.cos(grid.theta)


def _aberrated_patch(nodes, axis_angle, beta):
    """Beam-frame unit vectors (x, y, z) of the nodes after the z-boost: rotate
    about y through ``axis_angle`` to the lab, aberrate there, rotate back."""
    x, y, z = nodes
    c, s = math.cos(axis_angle), math.sin(axis_angle)
    lab_x = c * x + s * z
    lab_z = c * z - s * x
    gamma = 1.0 / math.sqrt((1.0 - beta) * (1.0 + beta))
    scale = 1.0 / (gamma * (1.0 - beta * lab_z))
    lab_x *= scale
    lab_z = gamma * (lab_z - beta) * scale
    return c * lab_x - s * lab_z, y * scale, s * lab_x + c * lab_z


def _linear_basis(nx, ny, nz):
    """Rows (h; v) of a 6 x N array at directions n: the closed forms of
    R_z(phi) R_y(theta) R_z(-phi) applied to x-hat and y-hat.  Below the
    equator 1 + n_z is evaluated as (n_x^2 + n_y^2) / (1 - n_z), which keeps
    h and v orthonormal and transverse to rounding right up to the pole."""
    one_plus_nz = 1.0 + nz
    np.divide(nx * nx + ny * ny, 1.0 - nz, out=one_plus_nz, where=nz < 0.0)
    kx = nx / one_plus_nz
    ky = ny / one_plus_nz
    return np.array([1.0 - nx * kx, -ny * kx, -nx, -nx * ky, 1.0 - ny * ky, -ny])


def _arm_moments(nodes, weights, axis_angle, beta):
    """Per-arm weighted moments sum_i W_i |x_i><y_i| for x, y in {h, v}, from
    one product, embedded in the 4-component polarization space: entry
    [x, :, y, :] is the 4x4 block A_xy."""
    basis = _linear_basis(*_aberrated_patch(nodes, axis_angle, beta))
    moments = np.zeros((2, 4, 2, 4))
    moments[:, 1:, :, 1:] = ((basis * weights) @ basis.T).reshape(2, 3, 2, 3)
    return moments


def diffracted_reduced_type1(
    beam_a: BeamProfile,
    beam_b: BeamProfile,
    beta: float,
    grid: QuadratureGrid,
    opposite: bool = True,
) -> DensityMatrix:
    """Momentum-traced polarization matrix (dims (4, 4)) of the diffracted
    pair as seen after a z-boost by ``beta``.

    The double node sum factorizes: with per-arm moments A_xy, B_xy the
    mixture of Bell-pair projectors equals
    (A_hh x B_hh - A_hv x B_hv - A_vh x B_vh + A_vv x B_vv) / 2.
    """
    check_velocity(beta)
    w_a = normalized_weights(grid, beam_a)
    w_b = normalized_weights(grid, beam_b)
    nodes = _node_directions(grid)
    a = _arm_moments(nodes, w_a, beam_a.alpha, beta)
    b = _arm_moments(nodes, w_b, beam_b.alpha + (math.pi if opposite else 0.0), beta)
    rho = 0.5 * (
        np.kron(a[0, :, 0], b[0, :, 0])
        - np.kron(a[0, :, 1], b[0, :, 1])
        - np.kron(a[1, :, 0], b[1, :, 0])
        + np.kron(a[1, :, 1], b[1, :, 1])
    )
    rho = 0.5 * (rho + rho.conj().T)
    return DensityMatrix(rho, (4, 4))


def negativity_sweep(
    alpha: float,
    sigma: float,
    betas,
    n_theta: int = 64,
    n_phi: int = 64,
) -> list[tuple[float, float]]:
    """Negativity of the boosted diffracted pair (opposite directions) for
    each velocity in ``betas``."""
    betas = [float(b) for b in betas]
    if any(not abs(b) < 1.0 for b in betas):
        raise DomainError("all sweep velocities must satisfy |beta| < 1")
    beam = BeamProfile(sigma=sigma, alpha=alpha)
    grid = make_grid(n_theta, n_phi, sigma=sigma)
    out = []
    for beta in betas:
        rho = diffracted_reduced_type1(beam, beam, beta, grid)
        out.append((beta, negativity(rho, 0)))
    return out
