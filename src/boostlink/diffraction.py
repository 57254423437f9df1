"""Gaussian angular wavepackets and the diffraction-degraded pair state.

The diffracted pair is a product of independent angular amplitudes
f(theta) = exp(-theta^2 / (2 sigma^2)) / sqrt(M) on the constant-momentum
shell, one per arm.  Tracing the momenta kills all cross-momentum coherences
(distinct momenta are orthogonal), so the reduced polarization matrix is the
weighted mixture over node pairs of the sharp-momentum pair projectors:

    rho = sum_ij W_i W_j |psi(a_i, b_j)><psi(a_i, b_j)|

with W the normalized |f|^2 quadrature weights.  Because the pair amplitude
factorizes per arm, the double sum reduces exactly to per-arm second-moment
matrices, at a cost linear in the node count (halved by the mirror fold).

Geometry, all on unit vectors: the beam is a Gaussian around +z rotated
rigidly (nodes and polarization patch together) about y to the polar
direction ``alpha`` (azimuth 0); "opposite directions" places arm B's axis at
the exact mirror of arm A's, which is what makes one arm's spread tighten and
the other broaden under a z-boost.  Each node goes through the package's
one aberration formula in the two steps that ``lorentz.aberrate`` composes
for a beam along z: ``rotate_to_lab`` takes it to the lab at the beam's
angle, ``boost_to_beam_frame`` aberrates it under the z-boost there and
rotates it back to the beam frame, where
``photon.linear_basis`` gives its h and v (singular only at the beam-frame
backward pole n = -z).  Arm B's axis at alpha + pi is an arm at alpha under
-beta: R_y(pi) conjugates B_z(beta) into B_z(-beta), and the rotations in
and back cancel it.  So every arm is the one beam's geometry at an arm beta,
arm A at beta and arm B at -beta.  Carrying the basis with the beam keeps it
continuous across the beam for every pointing; the fixed global basis would
instead be singular for a beam centered on the backward pole, where it
twists with azimuth.  The returned matrices are therefore expressed in
per-arm frames tied to the beam axes, with arm B's second axis reversed
(``_B_AXIS_FLIP``, exact sign flips) so that the ideal pair, the sigma -> 0
limit, is ``purification.bell_target()``.  The frames are boost-independent,
so entanglement measures and cross-frame distances are unaffected.

One call takes a 1-D sequence of betas and returns one read-only complex
(n_beta, 9, 9) stack, a matrix per beta in order, Hermitian by construction
and checked by the function that receives it.  It checks every beta before
any node work, and evaluates each distinct arm beta once, 0.0 and -0.0 as
one: the beta = 0 baseline serves both arms, and a signed sweep shares beta
with -beta.  Each arm's four moment blocks are the 6x6 matrix (X w) X^T,
X = [h | v] a 6 x N array, summed over consecutive blocks of _BLOCK_NODES
half-grid nodes.  Blocks are the outer loop and betas the inner one: a
block is rotated to the lab once, then boosted once per beta, and its
product added to that beta's sum in node order, so each matrix is bit for
bit the one-beta call's.  A call's temporaries are small heap blocks, never
freshly mapped arrays.  The block size is a constant, so output does not
depend on the host.  It lies in [2112, 2730]: the half grid of a 64 x 64 or
smaller grid (64 x 33 nodes) is one block, whose moments are the single
product bit for bit, and a block's 6 x B float64 stack stays under glibc's
default 128 KiB mmap threshold.

Quadrature: Gauss-Legendre in theta on [0, min(6*sigma, pi)] times a uniform
periodic grid in phi.  The Gaussian is truncated at the domain edge; the
grid-doubling convergence test bounds the sensitivity.  A grid is (n_theta,
n_phi, sigma) and derives from them, once, the half-grid unit vectors and
normalized beam weights each kernel call reads, so no beam meets a grid cut
for another spread.  One exp per row weights the beam; ``theta``, built on
access, is the one n_theta x n_phi array.  The exponent is (theta / sigma)^2,
at most 36 on the grid, so a spread whose square would underflow still
weights its beam, and one far wider than pi gives a flat beam.  The grid
rejects a row shell weight that underflows to 0 and a beam it cannot
normalize; a row's beam weight, the shell weight times the exp, is not
checked, so one underflowed to 0 or to a subnormal is integrated as it is.

Mirror fold: the profile, the rotation about y and the z-boost commute with
the mirror y -> -y, which maps the phi grid 2 pi k / n_phi onto itself and
flips n_y and rows h_y, v_x, v_z of X.  So M = (M_half + S M_half S) / 2 with
S = diag(1, -1, 1, -1, 1, -1), exactly, where M_half sums the nodes with phi
in [0, pi] at weight 2, or 1 on the self-mirrored columns phi = 0 and (n_phi
even) phi = pi: entries between rows of equal parity stay, the rest are 0.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .lorentz import boost_to_beam_frame, check_velocity, rotate_to_lab
from .photon import linear_basis

TRUNCATION_SIGMAS = 6.0
# Moments between rows of X of equal parity; the mirror fold cancels the rest.
_MIRROR_EVEN = np.add.outer(np.arange(6), np.arange(6)) % 2 == 0
_BELL_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])
# Reverses arm B's second frame axis: the sign of rows h_y and v_y of X.
_FLIP_Y = np.tile([1.0, -1.0, 1.0], 2)
_B_AXIS_FLIP = np.multiply.outer(_FLIP_Y, _FLIP_Y).reshape(2, 3, 2, 3)
# Half-grid nodes per block of the moment sums; the bounds are in the module
# docstring.
_BLOCK_NODES = 2560


@functools.lru_cache(maxsize=8)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], kept per node
    count: ``leggauss`` costs O(n^3) time and most of a small grid's build."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Gauss-Legendre x periodic-trapezoid grid for a beam of angular spread
    ``sigma``: n_theta rows on [0, min(6 sigma, pi)] at the n_phi azimuths
    2 pi k / n_phi.  Derived once when built, read only: ``row_theta`` and
    the kernel's half-grid (phi in [0, pi]) unit vectors and normalized beam
    weights; it rejects underflowed shell weights and a beam it cannot
    normalize."""

    n_theta: int
    n_phi: int
    sigma: float
    row_theta: np.ndarray = field(init=False)
    _nodes: tuple[np.ndarray, np.ndarray, np.ndarray] = field(init=False, repr=False)
    _weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        real = isinstance(self.sigma, (int, float, np.integer, np.floating)) and not isinstance(self.sigma, bool)
        if not (real and 0.0 < self.sigma < math.inf):
            raise DomainError(f"angular spread must be positive and finite, got {self.sigma}")
        for name in ("n_theta", "n_phi"):
            count = getattr(self, name)
            if not (isinstance(count, (int, np.integer)) and count >= 2):
                raise DomainError(f"{name} must be an integer >= 2, got {count!r}")
        theta_max = min(TRUNCATION_SIGMAS * self.sigma, math.pi)
        gl_nodes, gl_weights = _gauss_legendre(self.n_theta)
        row_theta = 0.5 * theta_max * (gl_nodes + 1.0)
        # the shell measure (1/2) sin(theta) dtheta dphi; normalization cancels its scale
        row_weight = 0.5 * np.sin(row_theta) * (0.5 * theta_max * gl_weights) * (2.0 * math.pi / self.n_phi)
        # a narrow beam's weight, a product of numbers near sigma, can underflow
        if not row_weight.min() > 0.0:
            raise DomainError("all quadrature weights must be positive")
        # beam weights w |f|^2 / M, M the full-grid sum, one exp per row; doubled
        # where the mirror phi -> 2 pi - phi is another node (not phi = 0, pi)
        row = row_weight * np.exp(-((row_theta / self.sigma) ** 2))
        total = self.n_phi * float(row.sum())
        if not math.isfinite(total) or total <= 0.0:
            raise DomainError("quadrature grid cannot normalize this beam profile")
        half = self.n_phi // 2 + 1
        fold = np.full(half, 2.0)
        fold[[0, -1] if self.n_phi % 2 == 0 else [0]] = 1.0
        weights = np.multiply.outer(row / total, fold).ravel()
        # half-grid unit vectors (x, y, z), outer products of sines and cosines
        theta = row_theta[:, None]
        phi = 2.0 * math.pi * np.arange(half) / self.n_phi
        x, y = np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi)
        nodes = x.ravel(), y.ravel(), np.repeat(np.cos(theta), half)
        for array in (row_theta, weights, *nodes):
            array.setflags(write=False)
        for name, value in (("row_theta", row_theta), ("_nodes", nodes), ("_weights", weights)):
            object.__setattr__(self, name, value)

    @property
    def theta(self) -> np.ndarray:
        """The n_theta * n_phi node thetas row by row, built on each access.
        The kernel never reads it; it stays because the benchmark's tracer
        counts nodes by ``theta.size``."""
        return np.repeat(self.row_theta, self.n_phi)


def make_grid(n_theta: int, n_phi: int, sigma: float) -> QuadratureGrid:
    """The grid of n_theta x n_phi nodes for a beam of angular spread
    ``sigma``; the polar domain is truncated to 6 sigma for narrow beams."""
    return QuadratureGrid(n_theta, n_phi, sigma)


def _arm_moments(nodes, weights, axis_angle, betas):
    """Per-arm weighted moments sum_i W_i |x_i><y_i| for x, y in {h, v}, one
    per beta in ``betas``, from products over blocks of at most
    ``_BLOCK_NODES`` half-grid nodes, summed in node order: entry
    [x, :, y, :] is the 3x3 block A_xy.  Each block is rotated to the lab
    once and boosted once per beta.  Folding in the mirrored nodes keeps the
    entries even under the mirror."""
    moments = [None] * len(betas)
    for start in range(0, weights.size, _BLOCK_NODES):
        block = slice(start, start + _BLOCK_NODES)
        lab = rotate_to_lab([n[block] for n in nodes], axis_angle)
        block_weights = weights[block]
        for i, beta in enumerate(betas):
            basis = linear_basis(*boost_to_beam_frame(lab, axis_angle, beta))
            product = (basis * block_weights) @ basis.T
            moments[i] = product if moments[i] is None else moments[i] + product
    return [(m * _MIRROR_EVEN).reshape(2, 3, 2, 3) for m in moments]


def _bell_mixture(a, b):
    """(A_hh x B_hh - A_hv x B_hv - A_vh x B_vh + A_vv x B_vv) / 2 from per-arm
    moments a[x, :, y, :] = A_xy and b likewise, as one signed sum."""
    return 0.5 * np.einsum("xy,xiyj,xkyl->ikjl", _BELL_SIGNS, a, b).reshape(9, 9)


def diffracted_reduced_type1(alpha: float, betas: Sequence[float], grid: QuadratureGrid) -> np.ndarray:
    """Momentum-traced polarization matrices (dims (3, 3)) of the diffracted
    pair of the grid's beam, arm A's axis at polar angle ``alpha`` and arm
    B's at the mirror ``alpha + pi``, one per beta in ``betas`` as seen after
    a z-boost by that beta, in order, from one pass over the nodes, as one
    unchecked (len(betas), 9, 9) stack.  They are in the beam frames with
    arm B's second axis reversed, where the ideal pair is ``bell_target()``.

    The double node sum factorizes into per-arm moments A_xy, B_xy; arm B
    is evaluated as arm A's geometry under -beta, and each distinct arm beta
    once.
    """
    if not math.isfinite(alpha):
        raise DomainError(f"beam axis angle must be finite, got {alpha}")
    if np.ndim(betas) != 1:
        raise DomainError(f"betas must be a 1-D sequence, got shape {np.shape(betas)}")
    # + 0.0 turns -0.0 into 0.0: a zero boost is one evaluation whatever its sign
    betas = [float(b) + 0.0 for b in betas]
    for b in betas:
        check_velocity(b)
    arm_betas = list(dict.fromkeys(betas + [-b + 0.0 for b in betas]))
    moments = dict(zip(arm_betas, _arm_moments(grid._nodes, grid._weights, alpha, arm_betas)))
    rhos = np.reshape([_bell_mixture(moments[b], moments[-b + 0.0] * _B_AXIS_FLIP) for b in betas], (-1, 9, 9))
    rhos = (0.5 * (rhos + rhos.conj().swapaxes(-1, -2))).astype(complex)
    rhos.setflags(write=False)
    return rhos
