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
the other broaden under a z-boost.  Each node's null momentum (1, n) goes
through one Lorentz map, R_y(alpha)^T B_z(beta) R_y(alpha): to the lab at the
beam's angle, the z-boost there, and back to the beam frame.  The map leaves
p_y = n_y alone, so per arm beta it is a linear map of the rows
(1, n_x, n_z), applied as two 3x3 factors (``_lorentz_rows``) that give
(E', p'_x, -p'_z).  Arm B's axis at alpha + pi is an arm at alpha under
-beta: R_y(pi) conjugates B_z(beta) into B_z(-beta), and the rotations in
and back cancel it.  So every arm is the one beam's geometry at an arm beta,
arm A at beta and arm B at -beta.

Basis: ``lorentz.linear_basis``'s h and v at the boosted direction
n' = p' / E', written on the momentum, with k = 1 / (E' (E' + p'_z)):

    h = (1 - p'_x^2 k, -p'_x p'_y k, -p'_x / E'),
    v = (-p'_x p'_y k, 1 - p'_y^2 k, -p'_y / E'),

singular only at the beam-frame backward pole; where p'_z < 0, E' + p'_z is
evaluated as (p'_x^2 + p'_y^2) / (E' - p'_z), linear_basis's below-equator
rule.  ``tests/test_diffraction.py`` pins these rows to linear_basis at the
aberrated directions.  Carrying the basis with the beam keeps it continuous
across the beam for every pointing; the fixed global basis would instead be
singular for a beam centered on the backward pole, where it twists with
azimuth.  The returned matrices are therefore expressed in per-arm frames
tied to the beam axes, with arm B's second axis reversed (``_B_AXIS_FLIP``,
exact sign flips) so that the ideal pair, the sigma -> 0 limit, is
``purification.bell_target()``.  The frames are boost-independent, so
entanglement measures and cross-frame distances are unaffected.

One call takes a 1-D sequence of real betas and returns one read-only
complex (n_beta, 9, 9) stack, a matrix per beta in order, Hermitian by
construction and checked by the function that receives it.  It checks
alpha and every beta before any node work and evaluates each distinct arm
beta once, 0.0 and -0.0 as one: the beta = 0 baseline serves both arms, and
a signed sweep shares beta with -beta.  Per node it writes five rows,
-sqrt(W) (h_x, h_y, h_z, v_y, v_z) (v_x = h_y, and a sign common to every
row leaves every product unchanged); each arm's moments are the nine
mirror-even sums of their products, by ``np.dot``, spread into the 6x6
moment by one fixed index.  The grid splits its half grid into blocks of
whole theta rows, as even as whole rows allow, of at most _BLOCK_NODES =
5120 nodes unless one row holds more (n_phi > 10239): a 64 x 64 half grid
(2112 nodes) is one block, 128 x 128's two of 4160.  Blocks are the outer
loop, betas the inner one, and sums are added in node order, so each matrix
is bit for bit the one-beta call's, and the split, fixed by the grid, does
not depend on the host.  Every array a block or a call holds is at most
(3, 5120) float64, under glibc's default 128 KiB mmap threshold, and a call
allocates its workspace once, so its temporaries are small heap blocks.

Quadrature: Gauss-Legendre in theta on [0, min(6*sigma, pi)] times a uniform
periodic grid in phi.  The Gaussian is truncated at the domain edge; the
grid-doubling convergence test bounds the sensitivity.  A grid is (n_theta,
n_phi, sigma) and derives from them, once, the blocks each kernel call
reads: per block the rows (1, n_x, n_z) and (n_y, n_y^2, sqrt(W)), so no
beam meets a grid cut for another spread.  One exp per row weights the
beam; ``theta``, built on access, is the one n_theta x n_phi array.  The
exponent is (theta / sigma)^2, at most 36 on the grid, so a spread whose
square would underflow still weights its beam, and one far wider than pi
gives a flat beam.  The grid rejects a row shell weight that underflows to
0 and a beam it cannot normalize; a row's beam weight, the shell weight
times the exp, is not checked, so one underflowed to 0 or to a subnormal is
integrated as it is.

Mirror fold: the profile, the rotation about y and the z-boost commute with
the mirror y -> -y, which maps the phi grid 2 pi k / n_phi onto itself and
flips n_y and components h_y, v_x, v_z.  So M = (M_half + S M_half S) / 2
with S = diag(1, -1, 1, -1, 1, -1), exactly, where M_half sums the nodes
with phi in [0, pi] at weight 2, or 1 on the self-mirrored columns phi = 0
and (n_phi even) phi = pi: entries between components of equal parity
stay, the rest are 0.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, is_count, is_real
from .lorentz import check_velocity

TRUNCATION_SIGMAS = 6.0
_BELL_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])
# Reverses arm B's second frame axis: the sign of components h_y and v_y.
_FLIP_Y = np.tile([1.0, -1.0, 1.0], 2)
_B_AXIS_FLIP = np.multiply.outer(_FLIP_Y, _FLIP_Y).reshape(2, 3, 2, 3)
# Half-grid nodes per block at most; the bounds are in the module docstring.
_BLOCK_NODES = 5120
# Entry [i, j] of the 6x6 moment of (h_x, h_y, h_z, v_x, v_y, v_z) as an
# index into the sums of ``_arm_moments``; 9, always 0, marks a mirror-odd
# entry.
_SPREAD = np.array([
    [0, 9, 1, 9, 2, 9],
    [9, 6, 9, 6, 9, 7],
    [1, 9, 3, 9, 4, 9],
    [9, 6, 9, 6, 9, 7],
    [2, 9, 4, 9, 5, 9],
    [9, 7, 9, 7, 9, 8],
]).reshape(2, 3, 2, 3)


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
    the blocks of the half grid (phi in [0, pi]) that the kernel reads, each
    two (3, B) arrays, the rows (1, n_x, n_z) and (n_y, n_y^2, sqrt(W)) with
    W the normalized beam weights; it rejects underflowed shell weights and
    a beam it cannot normalize."""

    n_theta: int
    n_phi: int
    sigma: float
    row_theta: np.ndarray = field(init=False)
    _blocks: tuple[tuple[np.ndarray, np.ndarray], ...] = field(init=False, repr=False)

    def __post_init__(self):
        if not (is_real(self.sigma) and 0.0 < self.sigma < math.inf):
            raise DomainError(f"angular spread must be positive and finite, got {self.sigma}")
        object.__setattr__(self, "sigma", float(self.sigma))
        for name in ("n_theta", "n_phi"):
            count = getattr(self, name)
            if not (is_count(count) and count >= 2):
                raise DomainError(f"{name} must be an integer >= 2, got {count!r}")
        theta_max = min(TRUNCATION_SIGMAS * self.sigma, math.pi)
        gl_nodes, gl_weights = _gauss_legendre(self.n_theta)
        row_theta = 0.5 * theta_max * (gl_nodes + 1.0)
        # the shell measure (1/2) sin(theta) dtheta dphi; normalization cancels its scale
        row_weight = 0.5 * np.sin(row_theta) * (0.5 * theta_max * gl_weights) * (2.0 * math.pi / self.n_phi)
        # a narrow beam's weight, a product of numbers near sigma, can underflow
        if not row_weight.min() > 0.0:
            raise DomainError("all quadrature weights must be positive")
        # beam weights w |f|^2 / M, M the full-grid sum, one exp per row, in
        # place; doubled where the mirror phi -> 2 pi - phi is another node
        # (not phi = 0, pi)
        row_weight *= np.exp(-((row_theta / self.sigma) ** 2))
        total = self.n_phi * float(row_weight.sum())
        if not math.isfinite(total) or total <= 0.0:
            raise DomainError("quadrature grid cannot normalize this beam profile")
        row_weight /= total
        half = self.n_phi // 2 + 1
        fold = np.full(half, 2.0)
        fold[[0, -1] if self.n_phi % 2 == 0 else [0]] = 1.0
        phi = 2.0 * math.pi * np.arange(half) / self.n_phi
        cos_phi, sin_phi = np.cos(phi), np.sin(phi, out=phi)
        weights = row_weight[:, None]
        # blocks of whole theta rows, as even as whole rows allow; each
        # block's sines and cosines are its own, so the build holds no
        # n_theta-sized temporaries but the weights
        n_blocks = -(-self.n_theta // max(1, _BLOCK_NODES // half))
        blocks = []
        for k in range(n_blocks):
            rows = slice(self.n_theta * k // n_blocks, self.n_theta * (k + 1) // n_blocks)
            theta = row_theta[rows, None]
            size = theta.size * half
            lin, aux = np.empty((3, size)), np.empty((3, size))
            # rows repeated or tiled into place, then multiplied as whole
            # rows (a product that broadcasts takes a block-sized buffer);
            # lin[0] holds the row weights until it becomes the ones
            lin_rows, aux_rows = lin.reshape(3, -1, half), aux.reshape(3, -1, half)
            lin_rows[0] = weights[rows]
            aux_rows[2] = fold
            aux[2] *= lin[0]
            np.sqrt(aux[2], out=aux[2])
            lin[0] = 1.0
            aux_rows[0] = np.sin(theta)
            lin_rows[1] = cos_phi
            lin[1] *= aux[0]
            lin_rows[2] = np.cos(theta)
            aux_rows[1] = sin_phi
            aux[0] *= aux[1]
            np.multiply(aux[0], aux[0], out=aux[1])
            blocks.append((lin, aux))
        for array in (row_theta, *(a for block in blocks for a in block)):
            array.setflags(write=False)
        object.__setattr__(self, "row_theta", row_theta)
        object.__setattr__(self, "_blocks", tuple(blocks))

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


def _lorentz_rows(axis_angle: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """The map R_y(axis_angle)^T B_z(beta) R_y(axis_angle) on a node's null
    momentum (1, n), as two 3x3 factors on rows: ``boost`` takes (1, n_x,
    n_z) to (1 - beta l_z, l_x, l_z - beta), l = R_y(axis_angle) n the node
    in the lab, and ``back`` takes those to (E', p'_x, -p'_z); p_y = n_y
    stays.  The first factor's entries are of order 1, so the differences
    that vanish at the forward pole are taken before any gamma.  With one
    product matrix, whose entries are gamma-sized, 64 x 64 moments at beta
    = 0.9999 lay 1.9e-14 from a long-double evaluation; with the two
    factors, 1.8e-16."""
    c, s = math.cos(axis_angle), math.sin(axis_angle)
    gamma = 1.0 / math.sqrt((1.0 - beta) * (1.0 + beta))
    boost = np.array([[1.0, beta * s, -beta * c], [0.0, c, s], [-beta, -s, c]])
    back = np.array([[gamma, 0.0, 0.0], [0.0, c, -gamma * s], [0.0, -s, -gamma * c]])
    return boost, back


def _weighted_rows(block, lorentz, work):
    """The rows -sqrt(W) (h_x, h_y, h_z, v_y, v_z) of one block's nodes after
    the map ``lorentz`` (``_lorentz_rows``), in the momentum form of the
    module docstring, written into ``work``: two (3, B) float arrays and a
    (B,) bool mask, B at least the block's node count."""
    lin, (y, y_sq, root_w) = block
    size = root_w.size
    energy, p_x, minus_p_z = momenta = work[0][:, :size]
    plus, u, minus = lab = work[1][:, :size]
    np.matmul(lorentz[0], lin, out=lab)
    np.matmul(lorentz[1], lab, out=momenta)
    np.subtract(energy, minus_p_z, out=plus)  # E' + p'_z
    if minus_p_z.max() > 0.0:
        below = np.greater(minus_p_z, 0.0, out=work[2][:size])
        np.add(energy, minus_p_z, out=minus)
        np.multiply(p_x, p_x, out=u)
        u += y_sq
        np.divide(u, minus, out=plus, where=below)
    b = np.divide(root_w, energy, out=energy)  # sqrt(W) / E'
    k = np.divide(b, plus, out=plus)  # sqrt(W) k
    np.multiply(p_x, k, out=u)
    np.multiply(p_x, b, out=minus_p_z)  # -sqrt(W) h_z
    np.multiply(p_x, u, out=p_x)
    p_x -= root_w  # -sqrt(W) h_x
    np.multiply(y_sq, k, out=k)
    k -= root_w  # -sqrt(W) v_y
    np.multiply(y, u, out=u)  # -sqrt(W) h_y
    np.multiply(y, b, out=b)  # -sqrt(W) v_z
    return p_x, u, minus_p_z, k, b


def _arm_moments(blocks, axis_angle, betas):
    """Per-arm weighted moments sum_i W_i |x_i><y_i| for x, y in {h, v}, one
    per beta in ``betas``: entry [x, :, y, :] is the 3x3 block A_xy.  Each
    (block, beta) adds the nine mirror-even sums of its rows' products to
    that beta's, in node order, and one fixed index spreads them into the
    6x6 moment."""
    maps = [_lorentz_rows(axis_angle, beta) for beta in betas]
    size = max(lin.shape[1] for lin, _ in blocks)
    work = np.empty((3, size)), np.empty((3, size)), np.empty(size, dtype=bool)
    sums = [np.zeros(10) for _ in betas]
    for block in blocks:
        for total, lorentz in zip(sums, maps):
            h_x, h_y, h_z, v_y, v_z = _weighted_rows(block, lorentz, work)
            total[:9] += (h_x.dot(h_x), h_x.dot(h_z), h_x.dot(v_y), h_z.dot(h_z), h_z.dot(v_y),
                          v_y.dot(v_y), h_y.dot(h_y), h_y.dot(v_z), v_z.dot(v_z))
    return [total[_SPREAD] for total in sums]


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
    if not (is_real(alpha) and math.isfinite(alpha)):
        raise DomainError(f"beam axis angle must be finite, got {alpha!r}")
    if np.ndim(betas) != 1:
        raise DomainError(f"betas must be a 1-D sequence, got shape {np.shape(betas)}")
    # + 0.0 turns -0.0 into 0.0: a zero boost is one evaluation whatever its sign
    betas = [check_velocity(b) + 0.0 for b in betas]
    arm_betas = list(dict.fromkeys(betas + [-b + 0.0 for b in betas]))
    moments = dict(zip(arm_betas, _arm_moments(grid._blocks, alpha, arm_betas)))
    rhos = np.reshape([_bell_mixture(moments[b], moments[-b + 0.0] * _B_AXIS_FLIP) for b in betas], (-1, 9, 9))
    rhos = (0.5 * (rhos + rhos.conj().swapaxes(-1, -2))).astype(complex)
    rhos.setflags(write=False)
    return rhos
