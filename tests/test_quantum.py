import math

import numpy as np
import pytest

from boostlink.errors import DomainError
from boostlink.quantum import (
    DensityMatrix,
    fidelity_to_pure,
    negativity,
    partial_trace,
    purity,
    trace_distance,
)

BELL_PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)


def random_state_vector(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def random_density(rng, dims):
    n = int(np.prod(dims))
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    mat = a @ a.conj().T
    return DensityMatrix(mat / np.trace(mat), dims)


def random_unitary(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def brute_force_partial_transpose(mat, dims, subsystem):
    """Index-loop partial transpose, independent of the reshape-based path."""
    n = int(np.prod(dims))
    out = np.zeros((n, n), dtype=complex)
    strides = [int(np.prod(dims[k + 1 :])) for k in range(len(dims))]

    def split(idx):
        return [(idx // s) % d for s, d in zip(strides, dims)]

    def join(parts):
        return sum(p * s for p, s in zip(parts, strides))

    for i in range(n):
        for j in range(n):
            ri, ci = split(i), split(j)
            ri[subsystem], ci[subsystem] = ci[subsystem], ri[subsystem]
            out[join(ri), join(ci)] = mat[i, j]
    return out


class TestDensityMatrix:
    def test_accepts_valid_state(self):
        rho = DensityMatrix(np.eye(4) / 4.0, (2, 2))
        assert rho.dims == (2, 2)

    def test_rejects_non_hermitian(self):
        mat = np.eye(2) / 2.0 + 0j
        mat[0, 1] = 0.3
        with pytest.raises(DomainError):
            DensityMatrix(mat, (2,))

    def test_rejects_bad_trace(self):
        with pytest.raises(DomainError):
            DensityMatrix(np.eye(2), (2,))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(DomainError):
            DensityMatrix(np.diag([1.5, -0.5]), (2,))

    # inf - inf in the Hermiticity residual warns before the check raises
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_rejects_non_finite_entries(self):
        # every other check compares against NaN and comes out False
        with pytest.raises(DomainError, match="non-finite"):
            DensityMatrix(np.full((4, 4), np.nan), (2, 2))
        diagonal_inf = np.eye(2) / 2.0
        diagonal_inf[0, 0] = np.inf
        with pytest.raises(DomainError, match="non-finite"):
            DensityMatrix(diagonal_inf, (2,))
        off_diagonal_inf = np.eye(2) / 2.0 + 0j
        off_diagonal_inf[0, 1] = off_diagonal_inf[1, 0] = complex(0.0, np.inf)
        with pytest.raises(DomainError, match="non-finite"):
            DensityMatrix(off_diagonal_inf, (2,))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DomainError):
            DensityMatrix(np.eye(4) / 4.0, (2, 3))

    def test_from_pure_requires_normalization(self):
        with pytest.raises(DomainError):
            DensityMatrix.from_pure(np.array([1.0, 1.0]), (2,))


class TestTraceDistance:
    def test_identical_states(self):
        rho = DensityMatrix.from_pure(BELL_PHI_PLUS, (2, 2))
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal_pure_states(self):
        a = DensityMatrix.from_pure(np.array([1.0, 0.0]), (2,))
        b = DensityMatrix.from_pure(np.array([0.0, 1.0]), (2,))
        assert trace_distance(a, b) == pytest.approx(1.0, rel=1e-12)

    def test_overlapping_pure_states(self):
        # Overlap c = 0.6 gives sqrt(1 - c^2) = 0.8.
        c = 0.6
        a = DensityMatrix.from_pure(np.array([1.0, 0.0]), (2,))
        b = DensityMatrix.from_pure(np.array([c, math.sqrt(1 - c * c)]), (2,))
        assert trace_distance(a, b) == pytest.approx(0.8, rel=1e-12)

    def test_pure_state_overlap_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            u = random_state_vector(rng, 5)
            v = random_state_vector(rng, 5)
            a = DensityMatrix.from_pure(u, (5,))
            b = DensityMatrix.from_pure(v, (5,))
            expected = math.sqrt(1.0 - abs(np.vdot(u, v)) ** 2)
            assert trace_distance(a, b) == pytest.approx(expected, abs=1e-12)

    def test_metric_properties(self):
        rng = np.random.default_rng(5)
        states = [random_density(rng, (4,)) for _ in range(6)]
        for a in states:
            assert trace_distance(a, a) <= 1e-10
            for b in states:
                assert trace_distance(a, b) == pytest.approx(
                    trace_distance(b, a), abs=1e-12
                )
                for c in states:
                    assert trace_distance(a, c) <= (
                        trace_distance(a, b) + trace_distance(b, c) + 1e-9
                    )

    def test_dim_mismatch_rejected(self):
        a = DensityMatrix(np.eye(4) / 4.0, (2, 2))
        b = DensityMatrix(np.eye(4) / 4.0, (4,))
        with pytest.raises(DomainError):
            trace_distance(a, b)


class TestPurity:
    def test_pure_projector(self):
        rng = np.random.default_rng(7)
        rho = DensityMatrix.from_pure(random_state_vector(rng, 6), (6,))
        assert purity(rho) == pytest.approx(1.0, rel=1e-12)

    def test_maximally_mixed(self):
        for d in (2, 3, 5):
            rho = DensityMatrix(np.eye(d) / d, (d,))
            assert purity(rho) == pytest.approx(1.0 / d, rel=1e-12)

    def test_equal_mixture_of_orthogonal_projectors(self):
        mat = np.zeros((4, 4), dtype=complex)
        mat[0, 0] = mat[1, 1] = 0.5
        assert purity(DensityMatrix(mat, (4,))) == pytest.approx(0.5, rel=1e-12)


class TestNegativity:
    def test_bell_state(self):
        rho = DensityMatrix.from_pure(BELL_PHI_PLUS, (2, 2))
        assert negativity(rho, 0) == pytest.approx(0.5, abs=1e-12)
        assert negativity(rho, 1) == pytest.approx(0.5, abs=1e-12)

    def test_product_state(self):
        rng = np.random.default_rng(9)
        a = random_density(rng, (2,))
        b = random_density(rng, (3,))
        rho = DensityMatrix(np.kron(a.mat, b.mat), (2, 3))
        assert negativity(rho, 0) == pytest.approx(0.0, abs=1e-12)

    def test_no_negative_eigenvalue_gives_positive_zero(self):
        value = negativity(DensityMatrix(np.eye(4) / 4.0, (2, 2)), 0)
        assert value == 0.0
        assert math.copysign(1.0, value) == 1.0

    def test_half_bell_half_mixed(self):
        bell = np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS)
        rho = DensityMatrix(0.5 * bell + 0.125 * np.eye(4), (2, 2))
        pt = brute_force_partial_transpose(rho.mat, (2, 2), 0)
        expected = -np.linalg.eigvalsh(pt).clip(max=0.0).sum()
        assert expected == pytest.approx(0.125, abs=1e-12)
        assert negativity(rho, 0) == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force_on_random_states(self):
        rng = np.random.default_rng(11)
        for dims in [(2, 2), (2, 3), (3, 3)]:
            for sub in range(2):
                rho = random_density(rng, dims)
                pt = brute_force_partial_transpose(rho.mat, dims, sub)
                expected = -np.linalg.eigvalsh(pt).clip(max=0.0).sum()
                assert negativity(rho, sub) == pytest.approx(expected, abs=1e-11)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            rho = random_density(rng, (2, 3))
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 3))
            rotated = DensityMatrix(u @ rho.mat @ u.conj().T, (2, 3))
            assert negativity(rotated, 0) == pytest.approx(
                negativity(rho, 0), abs=1e-9
            )

    def test_bad_subsystem_rejected(self):
        rho = DensityMatrix(np.eye(4) / 4.0, (2, 2))
        with pytest.raises(DomainError):
            negativity(rho, 2)
        with pytest.raises(DomainError):
            negativity(DensityMatrix(np.eye(4) / 4.0, (4,)), 0)


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(15)
        a = random_density(rng, (2,))
        b = random_density(rng, (3,))
        rho = DensityMatrix(np.kron(a.mat, b.mat), (2, 3))
        assert np.allclose(partial_trace(rho, [0]).mat, a.mat, atol=1e-12)
        assert np.allclose(partial_trace(rho, [1]).mat, b.mat, atol=1e-12)

    def test_bell_state_reduces_to_maximally_mixed(self):
        rho = DensityMatrix.from_pure(BELL_PHI_PLUS, (2, 2))
        reduced = partial_trace(rho, [0])
        assert np.allclose(reduced.mat, np.eye(2) / 2.0, atol=1e-12)

    def test_schmidt_form(self):
        coeffs = np.array([0.8, 0.6j])
        psi = np.zeros(4, dtype=complex)
        psi[0] = coeffs[0]
        psi[3] = coeffs[1]
        rho = DensityMatrix.from_pure(psi, (2, 2))
        reduced = partial_trace(rho, [0])
        assert np.allclose(reduced.mat, np.diag(np.abs(coeffs) ** 2), atol=1e-12)

    def test_composition(self):
        rng = np.random.default_rng(17)
        rho = random_density(rng, (2, 2, 3))
        two_step = partial_trace(partial_trace(rho, [0, 1]), [0])
        one_step = partial_trace(rho, [0])
        assert np.allclose(two_step.mat, one_step.mat, atol=1e-12)
        assert two_step.dims == one_step.dims == (2,)

    def test_trace_preserved(self):
        rng = np.random.default_rng(19)
        rho = random_density(rng, (2, 3, 2))
        reduced = partial_trace(rho, [1])
        assert np.trace(reduced.mat) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_indices_rejected(self):
        rho = DensityMatrix(np.eye(4) / 4.0, (2, 2))
        with pytest.raises(DomainError):
            partial_trace(rho, [])
        with pytest.raises(DomainError):
            partial_trace(rho, [3])


class TestFidelityToPure:
    def test_exact_match(self):
        rng = np.random.default_rng(21)
        psi = random_state_vector(rng, 4)
        rho = DensityMatrix.from_pure(psi, (4,))
        assert fidelity_to_pure(rho, psi) == pytest.approx(1.0, rel=1e-12)

    def test_orthogonal(self):
        rho = DensityMatrix.from_pure(np.array([1.0, 0.0]), (2,))
        assert fidelity_to_pure(rho, np.array([0.0, 1.0])) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_even_mixture(self):
        psi = np.array([1.0, 0.0])
        perp = np.array([0.0, 1.0])
        mat = 0.5 * np.outer(psi, psi) + 0.5 * np.outer(perp, perp)
        rho = DensityMatrix(mat, (2,))
        assert fidelity_to_pure(rho, psi) == pytest.approx(0.5, rel=1e-12)

    def test_rejects_unnormalized_target(self):
        rho = DensityMatrix(np.eye(2) / 2.0, (2,))
        with pytest.raises(DomainError):
            fidelity_to_pure(rho, np.array([1.0, 1.0]))

    def test_rejects_dim_mismatch(self):
        rho = DensityMatrix(np.eye(2) / 2.0, (2,))
        with pytest.raises(DomainError):
            fidelity_to_pure(rho, np.array([1.0, 0.0, 0.0]))
