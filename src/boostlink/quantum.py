"""Dense density-matrix algebra: purity, negativity, fidelity, trace
distances.

Matrices in this package stay small (at most 9x9; angular grids enter
through weighted sums, never through dimension growth), so every eigenproblem
is solved densely with the Hermitian solver.  ``purity`` is the inner product
<rho, rho> = sum |rho_ij|^2, Tr(rho^2) for a Hermitian matrix, and
``fidelity_to_pure`` is <psi| rho |psi>: neither needs one.

Density matrices move between modules as bare complex arrays, checked once,
where a public function takes them, by ``check_density_matrices``: the one
entry that casts to complex, applies the one shape rule, certifies and
returns the array it checked.  ``negativity`` takes an (N, n, n) stack and a
two-part cut, and eigensolves the partial transposes in one batched call;
``purity`` and ``fidelity_to_pure`` take one matrix.  Positivity needs no
spectrum: a Cholesky factorization of rho - EIGENVALUE_TOL * I certifies
every eigenvalue above the tolerance, and only a stack it cannot certify is
eigensolved, to name the first offender or to accept what the factorization
missed at the boundary.

Pure states need no matrix at all.  Every state vector enters through one
row rule: a C-ordered numeric (N, d) stack of the width its caller needs,
each row checked as a projector would be: its norm to 1e-10, then its norm
squared, the projector's trace, to ``TRACE_TOL``.  ``fidelity_to_pure``'s
target meets it as a one-row stack.  ``pure_trace_distances`` takes two
stacks of one shape, a checked first, and returns each pair's distance
sqrt(1 - |<a|b>|^2) as the residual norm of a after projecting out b;
``pure_negativities`` takes one bipartite stack and returns each row's
negativity from its Schmidt coefficients.  Neither builds a projector, runs
a factorization or eigensolves, and a distance near 0 keeps its relative
accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, is_count

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
        mat = np.array(check_density_matrices(self.mat, stack=False))
        if not all(is_count(d) and d > 0 for d in self.dims):
            raise DomainError(f"subsystem dimensions must be positive integers, got {self.dims}")
        dims = tuple(map(int, self.dims))
        if mat.shape[0] != math.prod(dims):
            raise DomainError(f"subsystem dimensions {dims} do not match matrix size {mat.shape[0]}")
        mat.setflags(write=False)
        object.__setattr__(self, "mat", mat)
        object.__setattr__(self, "dims", dims)


def _cut_size(dims) -> int:
    """d_A * d_B of the two-part cut ``dims``, two positive integers."""
    if not (isinstance(dims, (tuple, list)) and len(dims) == 2 and all(is_count(d) and d > 0 for d in dims)):
        raise DomainError(f"a bipartite cut needs two positive integer dimensions, got {dims}")
    return int(dims[0] * dims[1])


def check_density_matrices(mats, n: int | None = None, stack: bool = True) -> np.ndarray:
    """``mats`` as a complex (N, n, n) stack, or one (n, n) matrix when not
    ``stack``, any n unless given, once no matrix has non-finite entries,
    is not Hermitian, lacks unit trace or has an eigenvalue below
    ``EIGENVALUE_TOL``.  Anything that is not numbers, or of any other
    shape, is a ``DomainError`` naming it.  Each check runs over the whole
    stack, a single matrix as a one-matrix stack, and the first offender of
    the first failing check is reported.  An empty stack passes."""
    try:
        mats = np.asarray(mats, dtype=complex)
    except (TypeError, ValueError) as err:
        raise DomainError(f"expected density matrices as numbers, got {type(mats).__name__}: {err}") from None
    if mats.ndim != 2 + stack or mats.shape[-1] != mats.shape[-2] or n not in (None, mats.shape[-1]):
        want = f"({'N, ' * stack}{n or 'n'}, {n or 'n'})"
        raise DomainError(f"expected density matrices of shape {want}, got shape {mats.shape}")
    stacked = mats if stack else mats[None]
    herm = np.abs(stacked - stacked.conj().swapaxes(-1, -2))
    worst = herm.max(initial=0.0)
    # the residual is non-finite exactly when some entry is
    if not math.isfinite(worst):
        raise DomainError("density matrix has non-finite entries")
    if worst > HERMITIAN_TOL:
        herm = herm.max(axis=(-2, -1))
        bad = herm[herm > HERMITIAN_TOL][0]
        raise DomainError(f"matrix is not Hermitian (deviation {bad:.3e})")
    tr = stacked.diagonal(0, -2, -1).sum(axis=-1)
    off = np.abs(tr - 1.0)
    if off.max(initial=0.0) > TRACE_TOL:
        raise DomainError(f"trace must equal 1, got {complex(tr[off > TRACE_TOL][0])}")
    # rho - EIGENVALUE_TOL * I: the diagonal of a copy, shifted in place
    shifted = stacked.copy()
    size = shifted.shape[-1]
    shifted.reshape(len(shifted), size * size)[:, :: size + 1] -= EIGENVALUE_TOL
    try:
        # factorizes exactly when every eigenvalue lies above EIGENVALUE_TOL,
        # up to a backward error of about n * 1e-16 * |rho|, far inside it
        np.linalg.cholesky(shifted)
        return mats
    except np.linalg.LinAlgError:
        pass
    # not certified: name the first offender, if the spectrum shows one
    eigs = np.linalg.eigvalsh(stacked)
    if eigs.min() < EIGENVALUE_TOL:
        smallest = eigs.min(axis=-1)
        bad = smallest[smallest < EIGENVALUE_TOL][0]
        raise DomainError(f"matrix has a negative eigenvalue ({bad:.3e})")
    return mats


def _squared_norms(psi) -> np.ndarray:
    """sum_i |psi_i|^2 of each row of the (N, d) stack ``psi``."""
    if np.iscomplexobj(psi):
        return (psi.real**2 + psi.imag**2).sum(axis=-1)
    return (psi * psi).sum(axis=-1)


def _rows(psi, d: int | None = None, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``psi`` as a C-ordered (N, d) stack of numeric pure-state rows, any N
    and d unless given, and its squared norms.  Any other shape or dtype is a
    ``DomainError`` naming the shape.  Each row is then checked as its
    projector would be: first a norm not within 1e-10 of 1 (NaN included),
    then a squared norm, the projector's trace, not within ``TRACE_TOL`` of
    1; the first offender is named."""
    psi = np.ascontiguousarray(psi)
    fits = psi.ndim == 2 and d in (None, psi.shape[1]) and n in (None, len(psi))
    if psi.dtype.kind not in "biufc" or not fits:
        want = f"({'N' if n is None else n}, {'d' if d is None else d})"
        raise DomainError(f"expected numeric pure-state rows of shape {want}, got {psi.dtype} shape {psi.shape}")
    norm2 = _squared_norms(psi)
    off = ~(np.abs(norm2 - 1.0) <= TRACE_TOL)
    if off.any():
        # a norm off by more than 1e-10, or not finite, is named first
        norm = np.sqrt(norm2)
        bad = ~(np.abs(norm - 1.0) <= 1e-10)
        if bad.any():
            raise DomainError(f"pure-state vector must be normalized, got norm {norm[bad][0]}")
        raise DomainError(f"trace must equal 1, got {complex(norm2[off][0])}")
    return psi, norm2


def pure_trace_distances(psi_a, psi_b) -> np.ndarray:
    """Trace distance between the pure states of each row pair of the
    normalized (N, d) stacks ``psi_a`` and ``psi_b``, real or complex:
    sqrt(1 - |<a|b>|^2), taken as the residual norm |a - (<b|a>/<b|b>) b|.
    The residual keeps its relative accuracy as the states meet, and
    identical rows give exactly 0.  Each stack meets the row rule in full,
    a first, and b must have a's shape: stacks of different widths or row
    counts are a ``DomainError``, never broadcast.  Each row sums in C order,
    so its distance is the one a one-row stack gives, bit for bit."""
    psi_a, _ = _rows(psi_a)
    psi_b, norm2_b = _rows(psi_b, psi_a.shape[1], len(psi_a))
    # <b|a> / <b|b> in real arithmetic, summed as <b|b> is, so that identical
    # rows scale by exactly 1: numpy's complex product can fuse a
    # multiply-add, which leaves <a|a> a nonzero imaginary part, and its
    # complex divide takes x * (1 / x), which need not be 1
    if np.iscomplexobj(psi_a) or np.iscomplexobj(psi_b):
        re = (psi_b.real * psi_a.real + psi_b.imag * psi_a.imag).sum(axis=-1)
        im = (psi_b.real * psi_a.imag - psi_b.imag * psi_a.real).sum(axis=-1)
        scale = re / norm2_b + 1j * (im / norm2_b)
    else:
        scale = (psi_b * psi_a).sum(axis=-1) / norm2_b
    return np.sqrt(_squared_norms(psi_a - scale[:, None] * psi_b))


def pure_negativities(psi, dims) -> np.ndarray:
    """Negativity of the pure state of each normalized (N, d) row of
    ``psi``, real or complex, across the cut ``dims`` = (d_A, d_B) with
    d_A * d_B = d.  With s the singular values of the row reshaped to
    (d_A, d_B), its Schmidt coefficients, the partial transpose's negative
    eigenvalues are -s_i s_j for i < j (Vidal and Werner, PRA 65, 032314),
    so the negativity is sum_{i<j} s_i s_j, summed pairwise so that a
    product state gives 0 or more, never a negative round-off.  After the
    cut, the rows meet the row rule with width d_A * d_B; each row's value
    is the one a one-row stack gives, bit for bit."""
    psi, _ = _rows(psi, _cut_size(dims))
    s = np.linalg.svd(psi.reshape(len(psi), *dims), compute_uv=False)
    return (s[:, 1:] * np.cumsum(s, axis=-1)[:, :-1]).sum(axis=-1)


def trace_distances(a, b) -> np.ndarray:
    """Half the trace norm of each a - b, for stacks of matrices, from one
    batched eigensolve."""
    return 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum(axis=-1)


def purity(mat) -> float:
    """Tr(rho^2), in (0, 1], of the density matrix ``mat``, taken as
    <rho, rho> = Tr(rho^dagger rho)."""
    return _purity(check_density_matrices(mat, stack=False))


def _purity(mat) -> float:
    """``purity`` of the Hermitian matrix ``mat``, as it stands."""
    return float(np.vdot(mat, mat).real)


def negativity(mats, dims) -> np.ndarray:
    """Negativity of each matrix of the (N, n, n) stack ``mats`` across the
    cut ``dims`` = (d_A, d_B), n = d_A d_B: the magnitude of the negative
    part of the partial transpose over A, (||rho^T_A||_1 - 1) / 2 for
    unit-trace input.  rho^T_B is the full transpose of rho^T_A, with the
    same spectrum, so either cut gives this value.  One check and one
    batched eigensolve; each value is the one a one-matrix stack gives."""
    size = _cut_size(dims)
    mats = check_density_matrices(mats, size)
    tensor = mats.reshape(len(mats), *dims, *dims).swapaxes(1, 3)
    eigs = np.linalg.eigvalsh(tensor.reshape(len(mats), size, size))
    return np.where(eigs < 0.0, -eigs, 0.0).sum(axis=-1)


def fidelity_to_pure(mat, psi) -> float:
    """<psi| rho |psi> of the density matrix ``mat`` for a target vector
    ``psi`` of length n, which meets the row rule as a one-row stack."""
    mat = check_density_matrices(mat, stack=False)
    return _fidelity(mat, _rows(np.asarray(psi)[None], len(mat), 1)[0][0])


def _fidelity(mat, psi) -> float:
    """``fidelity_to_pure`` of ``mat`` to a target the row rule accepted."""
    return float(np.vdot(psi, mat @ psi).real)
