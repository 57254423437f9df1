"""Dense density-matrix algebra: trace distance, purity, negativity,
partial trace, fidelity.

Matrices in this package stay small (at most a few hundred rows; angular
grids enter through weighted sums, never through dimension growth), so every
eigenproblem is solved densely with the Hermitian solver.
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
        dims = tuple(int(d) for d in self.dims)
        n = math.prod(dims)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DomainError(f"density matrix must be square, got shape {mat.shape}")
        if mat.shape[0] != n:
            raise DomainError(
                f"subsystem dimensions {dims} do not match matrix size {mat.shape[0]}"
            )
        herm = float(np.abs(mat - mat.conj().T).max())
        # the residual is non-finite exactly when some entry is
        if not math.isfinite(herm):
            raise DomainError("density matrix has non-finite entries")
        if herm > HERMITIAN_TOL:
            raise DomainError(f"matrix is not Hermitian (deviation {herm:.3e})")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > TRACE_TOL:
            raise DomainError(f"trace must equal 1, got {tr}")
        smallest = float(np.linalg.eigvalsh(mat).min())
        if smallest < EIGENVALUE_TOL:
            raise DomainError(f"matrix has a negative eigenvalue ({smallest:.3e})")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @classmethod
    def from_pure(cls, psi, dims) -> "DensityMatrix":
        psi = np.asarray(psi, dtype=complex)
        norm = float(np.linalg.norm(psi))
        if abs(norm - 1.0) > 1e-10:
            raise DomainError(f"pure-state vector must be normalized, got norm {norm}")
        return cls(np.outer(psi, psi.conj()), tuple(dims))


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the trace norm of (a - b); 0 for identical states, 1 for
    orthogonal pure states."""
    if a.dims != b.dims:
        raise DomainError(f"dimension mismatch: {a.dims} vs {b.dims}")
    eigs = np.linalg.eigvalsh(a.mat - b.mat)
    return 0.5 * float(np.abs(eigs).sum())


def purity(rho: DensityMatrix) -> float:
    """Tr(rho^2), in (0, 1]."""
    return float(np.trace(rho.mat @ rho.mat).real)


def _partial_transpose(rho: DensityMatrix, subsystem: int) -> np.ndarray:
    n = len(rho.dims)
    tensor = rho.mat.reshape(rho.dims + rho.dims)
    tensor = np.swapaxes(tensor, subsystem, subsystem + n)
    return tensor.reshape(rho.dim, rho.dim)


def negativity(rho: DensityMatrix, subsystem: int = 0) -> float:
    """Magnitude of the negative part of the partial transpose over one
    subsystem: (||rho^T_A||_1 - 1) / 2 for unit-trace input."""
    if len(rho.dims) < 2:
        raise DomainError("negativity requires at least two subsystems")
    if not 0 <= subsystem < len(rho.dims):
        raise DomainError(f"subsystem index {subsystem} out of range for dims {rho.dims}")
    eigs = np.linalg.eigvalsh(_partial_transpose(rho, subsystem))
    return float(np.abs(eigs[eigs < 0.0]).sum())


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every subsystem not listed in ``keep`` (original order kept)."""
    keep = tuple(sorted(set(int(i) for i in keep)))
    n = len(rho.dims)
    if not keep:
        raise DomainError("must keep at least one subsystem")
    if any(i < 0 or i >= n for i in keep):
        raise DomainError(f"invalid subsystem indices {keep} for dims {rho.dims}")
    tensor = rho.mat.reshape(rho.dims + rho.dims)
    row_subs = list(range(n))
    col_subs = [i + n if i in keep else i for i in range(n)]
    out_subs = [i for i in keep] + [i + n for i in keep]
    reduced = np.einsum(tensor, row_subs + col_subs, out_subs)
    kept_dims = tuple(rho.dims[i] for i in keep)
    d = math.prod(kept_dims)
    return DensityMatrix(reduced.reshape(d, d), kept_dims)


def fidelity_to_pure(rho: DensityMatrix, psi) -> float:
    """<psi| rho |psi> for a normalized target vector."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (rho.dim,):
        raise DomainError(f"target vector has dimension {psi.shape}, expected ({rho.dim},)")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-10:
        raise DomainError(f"target vector must be normalized, got norm {norm}")
    return float(np.vdot(psi, rho.mat @ psi).real)
