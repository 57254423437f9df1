"""Dense density-matrix algebra: trace distance, purity, negativity,
fidelity.

Matrices in this package stay small (at most 9x9; angular grids enter
through weighted sums, never through dimension growth), so every eigenproblem
is solved densely with the Hermitian solver.

Validation, pure-state projectors and the trace distance are array functions
over stacks of matrices (``check_density_matrices``, ``pure_projectors``,
``trace_distances``): ``DensityMatrix`` and ``trace_distance`` call them on
one item, and the error-law sweeps call each once on all of their points, so
a sweep costs a fixed number of batched factorizations and eigensolves
whatever its size.  Positivity needs no spectrum: a Cholesky factorization
of rho - EIGENVALUE_TOL * I certifies every eigenvalue above the tolerance,
and only a stack it cannot certify is eigensolved, to name the first
offender or to accept what the factorization missed at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_TOL = -1e-9


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian unit-trace matrix with subsystem dimension metadata.

    Construction validates Hermiticity, trace and positivity; violations
    beyond the tolerances raise instead of being silently repaired.
    """

    mat: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        mat = np.array(self.mat, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DomainError(f"density matrix must be square, got shape {mat.shape}")
        check_density_matrices(mat[None])
        if not all(isinstance(d, (int, np.integer)) and d > 0 for d in self.dims):
            raise DomainError(f"subsystem dimensions must be positive integers, got {self.dims}")
        dims = tuple(int(d) for d in self.dims)
        if mat.shape[0] != math.prod(dims):
            raise DomainError(f"subsystem dimensions {dims} do not match matrix size {mat.shape[0]}")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def from_pure(cls, psi, dims) -> "DensityMatrix":
        psi = np.asarray(psi, dtype=complex).ravel()
        return cls(pure_projectors(psi[None])[0], tuple(dims))


def check_density_matrices(mats) -> None:
    """Reject any matrix in the stack ``mats`` (N, n, n) that has non-finite
    entries, is not Hermitian, lacks unit trace or has an eigenvalue below
    ``EIGENVALUE_TOL``; each check runs over the whole stack, and the first
    offender of the first failing check is reported.  An empty stack passes."""
    herm = np.abs(mats - mats.conj().swapaxes(-1, -2))
    worst = herm.max(initial=0.0)
    # the residual is non-finite exactly when some entry is
    if not math.isfinite(worst):
        raise DomainError("density matrix has non-finite entries")
    if worst > HERMITIAN_TOL:
        herm = herm.max(axis=(-2, -1))
        bad = herm[herm > HERMITIAN_TOL][0]
        raise DomainError(f"matrix is not Hermitian (deviation {bad:.3e})")
    tr = mats.diagonal(0, -2, -1).sum(axis=-1)
    off = np.abs(tr - 1.0)
    if off.max(initial=0.0) > TRACE_TOL:
        raise DomainError(f"trace must equal 1, got {complex(tr[off > TRACE_TOL][0])}")
    try:
        # factorizes exactly when every eigenvalue lies above EIGENVALUE_TOL,
        # up to a backward error of about n * 1e-16 * |rho|, far inside it
        np.linalg.cholesky(mats - EIGENVALUE_TOL * np.eye(mats.shape[-1]))
        return
    except np.linalg.LinAlgError:
        pass
    # not certified: name the first offender, if the spectrum shows one
    eigs = np.linalg.eigvalsh(mats)
    if eigs.min() < EIGENVALUE_TOL:
        smallest = eigs.min(axis=-1)
        bad = smallest[smallest < EIGENVALUE_TOL][0]
        raise DomainError(f"matrix has a negative eigenvalue ({bad:.3e})")


def pure_projectors(psi) -> np.ndarray:
    """Projectors |psi><psi|, (N, d, d), for a stack of normalized state
    vectors ``psi`` (N, d)."""
    norm = np.sqrt((psi.real**2 + psi.imag**2).sum(axis=-1))
    off = ~(np.abs(norm - 1.0) <= 1e-10)
    if off.any():
        raise DomainError(f"pure-state vector must be normalized, got norm {norm[off][0]}")
    return psi[:, :, None] * psi.conj()[:, None, :]


def trace_distances(a, b) -> np.ndarray:
    """Half the trace norm of each a - b, for stacks of matrices, from one
    batched eigensolve."""
    return 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum(axis=-1)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of (a - b); 0 for identical states, 1 for
    orthogonal pure states."""
    if a.dims != b.dims:
        raise DomainError(f"dimension mismatch: {a.dims} vs {b.dims}")
    return float(trace_distances(a.mat[None], b.mat[None])[0])


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), in (0, 1]."""
    return float(np.trace(rho.mat @ rho.mat).real)


def negativity(rho: DensityMatrix) -> float:
    """Magnitude of the negative part of the partial transpose over the
    first subsystem: (||rho^T_A||_1 - 1) / 2 for unit-trace input.  For a
    bipartite state rho^T_B is the full transpose of rho^T_A, with the same
    spectrum, so either cut gives this value."""
    if len(rho.dims) < 2:
        raise DomainError("negativity requires at least two subsystems")
    tensor = np.swapaxes(rho.mat.reshape(rho.dims + rho.dims), 0, len(rho.dims))
    eigs = np.linalg.eigvalsh(tensor.reshape(rho.dim, rho.dim))
    return float(np.abs(eigs[eigs < 0.0]).sum())


def fidelity_to_pure(rho: DensityMatrix, psi) -> float:
    """<psi| rho |psi> for a normalized target vector."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (rho.dim,):
        raise DomainError(f"target vector has dimension {psi.shape}, expected ({rho.dim},)")
    norm = float(np.linalg.norm(psi))
    if not abs(norm - 1.0) <= 1e-10:
        raise DomainError(f"target vector must be normalized, got norm {norm}")
    return float(np.vdot(psi, rho.mat @ psi).real)
