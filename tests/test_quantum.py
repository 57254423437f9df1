import math

import numpy as np
import pytest

from boostlink.errors import DomainError
from boostlink.quantum import (
    DensityMatrix,
    check_density_matrices,
    fidelity_to_pure,
    negativity,
    pure_projectors,
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

    @pytest.mark.parametrize("dims", [(2.9, 2.0), (2.0, 2.0), (-2, -2), (4, 1.0), ("2", "2")])
    def test_rejects_dims_not_positive_integers(self, dims):
        # (2.9, 2.0) used to become (2, 2), and (-2, -2) to fail in negativity
        with pytest.raises(DomainError, match="subsystem dimensions must be positive integers"):
            DensityMatrix(np.eye(4) / 4.0, dims)

    def test_accepts_numpy_integer_dims(self):
        rho = DensityMatrix(np.eye(4) / 4.0, (np.int64(2), np.int32(2)))
        assert rho.dims == (2, 2) and all(type(d) is int for d in rho.dims)

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
        assert negativity(rho) == pytest.approx(0.5, abs=1e-12)

    def test_product_state(self):
        rng = np.random.default_rng(9)
        a = random_density(rng, (2,))
        b = random_density(rng, (3,))
        rho = DensityMatrix(np.kron(a.mat, b.mat), (2, 3))
        assert negativity(rho) == pytest.approx(0.0, abs=1e-12)

    def test_no_negative_eigenvalue_gives_positive_zero(self):
        value = negativity(DensityMatrix(np.eye(4) / 4.0, (2, 2)))
        assert value == 0.0
        assert math.copysign(1.0, value) == 1.0

    def test_half_bell_half_mixed(self):
        bell = np.outer(BELL_PHI_PLUS, BELL_PHI_PLUS)
        rho = DensityMatrix(0.5 * bell + 0.125 * np.eye(4), (2, 2))
        pt = brute_force_partial_transpose(rho.mat, (2, 2), 0)
        expected = -np.linalg.eigvalsh(pt).clip(max=0.0).sum()
        assert expected == pytest.approx(0.125, abs=1e-12)
        assert negativity(rho) == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force_on_random_states(self):
        rng = np.random.default_rng(11)
        for dims in [(2, 2), (2, 3), (3, 3)]:
            rho = random_density(rng, dims)
            value = negativity(rho)
            # both cuts of a bipartite state give the one value
            for sub in range(2):
                pt = brute_force_partial_transpose(rho.mat, dims, sub)
                expected = -np.linalg.eigvalsh(pt).clip(max=0.0).sum()
                assert value == pytest.approx(expected, abs=1e-11)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            rho = random_density(rng, (2, 3))
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 3))
            rotated = DensityMatrix(u @ rho.mat @ u.conj().T, (2, 3))
            assert negativity(rotated) == pytest.approx(
                negativity(rho), abs=1e-9
            )

    def test_bad_subsystem_rejected(self):
        with pytest.raises(DomainError):
            negativity(DensityMatrix(np.eye(4) / 4.0, (4,)))


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

    def test_rejects_nan_target(self):
        rho = DensityMatrix(np.eye(2) / 2.0, (2,))
        with pytest.raises(DomainError, match="normalized"):
            fidelity_to_pure(rho, np.array([math.nan, 0.0]))

    def test_rejects_dim_mismatch(self):
        rho = DensityMatrix(np.eye(2) / 2.0, (2,))
        with pytest.raises(DomainError):
            fidelity_to_pure(rho, np.array([1.0, 0.0, 0.0]))


class TestStackedValidation:
    """A stack with one corrupted matrix fails with the message that
    constructing a DensityMatrix from that matrix gives."""

    @staticmethod
    def stack():
        rng = np.random.default_rng(11)
        return np.array([random_density(rng, (2, 2)).mat for _ in range(5)])

    @staticmethod
    def per_item_message(mat):
        with pytest.raises(DomainError) as err:
            DensityMatrix(mat, (2, 2))
        return str(err.value)

    def test_valid_stack_passes(self):
        check_density_matrices(self.stack())

    def test_pure_projectors_reject_nan_row(self):
        psi = np.tile(BELL_PHI_PLUS, (3, 1)).astype(complex)
        psi[1, 2] = complex(0.0, math.nan)
        with pytest.raises(DomainError, match="norm nan"):
            pure_projectors(psi)

    def test_non_hermitian_entry(self):
        mats = self.stack()
        mats[2, 0, 1] += 1e-6
        expected = self.per_item_message(mats[2])
        with pytest.raises(DomainError) as err:
            check_density_matrices(mats)
        assert str(err.value) == expected
        assert "not Hermitian" in expected

    def test_bad_trace_entry(self):
        mats = self.stack()
        mats[4] *= 1.5
        expected = self.per_item_message(mats[4])
        with pytest.raises(DomainError) as err:
            check_density_matrices(mats)
        assert str(err.value) == expected

    @staticmethod
    def with_smallest_eigenvalue(smallest):
        """A 4x4 unit-trace Hermitian matrix, in a random basis, whose
        smallest eigenvalue is ``smallest``."""
        rng = np.random.default_rng(17)
        u = random_unitary(rng, 4)
        mat = (u * [smallest, 0.2, 0.3, 0.5 - smallest]) @ u.conj().T
        return 0.5 * (mat + mat.conj().T)

    def test_empty_stack_passes(self):
        check_density_matrices(np.zeros((0, 4, 4), dtype=complex))
        check_density_matrices(pure_projectors(np.zeros((0, 3), dtype=complex)))

    def test_zero_size_matrix_has_no_unit_trace(self):
        with pytest.raises(DomainError, match="trace must equal 1"):
            DensityMatrix(np.zeros((0, 0)), (0,))

    @pytest.mark.parametrize("smallest", [-0.5e-9, -0.99e-9])
    def test_negative_eigenvalue_within_tolerance_accepted(self, smallest):
        mat = self.with_smallest_eigenvalue(smallest)
        assert np.linalg.eigvalsh(mat).min() == pytest.approx(smallest, abs=1e-15)
        check_density_matrices(mat[None])
        mats = self.stack()
        mats[2] = mat
        check_density_matrices(mats)

    def test_rank_one_projectors_accepted(self):
        rng = np.random.default_rng(19)
        for d in (2, 3, 4, 9):
            psi = np.array([random_state_vector(rng, d) for _ in range(20)])
            check_density_matrices(pure_projectors(psi))

    @pytest.mark.parametrize("smallest", [-1.01e-9, -2e-9])
    def test_negative_eigenvalue_beyond_tolerance_rejected(self, smallest):
        mat = self.with_smallest_eigenvalue(smallest)
        expected = self.per_item_message(mat)
        assert "negative eigenvalue" in expected
        mats = self.stack()
        mats[2] = mat
        for stack in (mat[None], mats):
            with pytest.raises(DomainError) as err:
                check_density_matrices(stack)
            assert str(err.value) == expected

    def test_first_offender_reported(self):
        mats = self.stack()
        mats[1] = self.with_smallest_eigenvalue(-2e-9)
        mats[3] = np.diag([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(DomainError, match=r"negative eigenvalue \(-2\.000e-09\)"):
            check_density_matrices(mats)

    def test_eigensolve_accepts_what_the_factorization_cannot_certify(self, monkeypatch):
        """At the tolerance itself the shifted matrix is singular and the
        factorization may fail; the eigensolve then decides."""

        def failing_cholesky(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        mats = self.stack()
        mats[0] = self.with_smallest_eigenvalue(-0.99e-9)
        bad = self.with_smallest_eigenvalue(-1.01e-9)
        monkeypatch.setattr(np.linalg, "cholesky", failing_cholesky)
        check_density_matrices(mats)
        mats[4] = bad
        with pytest.raises(DomainError, match="negative eigenvalue"):
            check_density_matrices(mats)
