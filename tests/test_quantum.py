import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from boostlink.errors import DomainError
from boostlink.quantum import (
    DensityMatrix,
    check_density_matrices,
    fidelity_to_pure,
    negativity,
    pure_negativities,
    pure_trace_distances,
    purity,
    trace_distances,
)

BELL_PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)


def random_state_vector(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def random_density(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    mat = a @ a.conj().T
    return mat / np.trace(mat)


def projector(psi):
    return np.outer(psi, np.conj(psi))


def trace_distance(a, b):
    """``trace_distances`` of the one pair of matrices (a, b)."""
    return float(trace_distances(np.asarray(a)[None], np.asarray(b)[None])[0])


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

    @pytest.mark.parametrize(
        "dims", [(2.9, 2.0), (2.0, 2.0), (-2, -2), (4, 1.0), ("2", "2"), (True, 4), (4, True)]
    )
    def test_rejects_dims_not_positive_integers(self, dims):
        # (2.9, 2.0) used to become (2, 2), (-2, -2) to fail in negativity,
        # and (True, 4) to become (1, 4)
        with pytest.raises(DomainError, match="subsystem dimensions must be positive integers"):
            DensityMatrix(np.eye(4) / 4.0, dims)

    def test_rejects_what_does_not_cast_to_numbers(self):
        rho = DensityMatrix(np.eye(2) / 2.0, (2,))
        with pytest.raises(DomainError, match="expected density matrices as numbers, got DensityMatrix: "):
            DensityMatrix(rho, (2,))

    def test_accepts_numpy_integer_dims(self):
        rho = DensityMatrix(np.eye(4) / 4.0, (np.int64(2), np.int32(2)))
        assert rho.dims == (2, 2) and all(type(d) is int for d in rho.dims)


class TestTraceDistance:
    """``trace_distances`` on stacks, read one pair at a time."""

    def test_identical_states(self):
        rho = projector(BELL_PHI_PLUS)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-14)

    def test_orthogonal_pure_states(self):
        assert trace_distance(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(1.0, rel=1e-12)

    def test_overlapping_pure_states(self):
        # Overlap c = 0.6 gives sqrt(1 - c^2) = 0.8.
        c = 0.6
        psi = np.array([c, math.sqrt(1 - c * c)])
        assert trace_distance(np.diag([1.0, 0.0]), projector(psi)) == pytest.approx(0.8, rel=1e-12)

    def test_pure_state_overlap_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            u = random_state_vector(rng, 5)
            v = random_state_vector(rng, 5)
            expected = math.sqrt(1.0 - abs(np.vdot(u, v)) ** 2)
            assert trace_distance(projector(u), projector(v)) == pytest.approx(expected, abs=1e-12)

    def test_metric_properties(self):
        rng = np.random.default_rng(5)
        states = [random_density(rng, 4) for _ in range(6)]
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


class TestPureTraceDistances:
    """The residual-norm distance against the eigensolve of the validated
    projectors, its exact values, and the rows it rejects, which
    ``pure_negativities`` and ``fidelity_to_pure``'s target reject with the
    same messages."""

    @staticmethod
    def rows(rng, n, d, complex_rows):
        psi = rng.normal(size=(n, d))
        if complex_rows:
            psi = psi + 1j * rng.normal(size=(n, d))
        return psi / np.linalg.norm(psi, axis=-1, keepdims=True)

    @pytest.mark.parametrize("complex_rows", [False, True])
    @pytest.mark.parametrize("d", [2, 3, 4, 9])
    def test_matches_eigensolve_route(self, d, complex_rows):
        rng = np.random.default_rng(23 + d)
        a = self.rows(rng, 40, d, complex_rows)
        # random pairs, and pairs a small step apart
        step = 10.0 ** rng.uniform(-9, -2, size=(40, 1))
        near = a + step * self.rows(rng, 40, d, complex_rows)
        near /= np.linalg.norm(near, axis=-1, keepdims=True)
        a, b = np.concatenate([a, a]), np.concatenate([self.rows(rng, 40, d, complex_rows), near])
        projectors = a[:, :, None] * a.conj()[:, None, :], b[:, :, None] * b.conj()[:, None, :]
        check_density_matrices(np.concatenate(projectors))
        for distance, eigensolved in zip(pure_trace_distances(a, b), trace_distances(*projectors)):
            assert distance == pytest.approx(eigensolved, abs=1e-12, rel=1e-9)

    @pytest.mark.parametrize("complex_rows", [False, True])
    def test_identical_rows_give_exactly_zero(self, complex_rows):
        rng = np.random.default_rng(29)
        for d in (2, 3, 4, 9):
            a = self.rows(rng, 50, d, complex_rows)
            assert not pure_trace_distances(a, a.copy()).any()

    def test_orthogonal_basis_rows_give_exactly_one(self):
        basis = np.eye(4)
        distances = pure_trace_distances(np.repeat(basis, 4, axis=0), np.tile(basis, (4, 1)))
        assert distances.tolist() == (1.0 - np.eye(4)).ravel().tolist()
        assert pure_trace_distances(1j * basis[:2], basis[2:]).tolist() == [1.0, 1.0]

    def test_empty_stack(self):
        empty = np.zeros((0, 3))
        assert pure_trace_distances(empty, empty).shape == (0,)

    @staticmethod
    def messages(bad, good):
        """What each pure-state function raises on the row stack ``bad``:
        the distances with it on either side of ``good``, the negativities
        across a (1, d) cut, and the fidelity to its one row that differs
        from ``good``'s."""
        row = bad[(bad != good).any(axis=-1)][0]
        calls = (
            lambda: pure_trace_distances(bad, good),
            lambda: pure_trace_distances(good, bad),
            lambda: pure_negativities(bad, (1, bad.shape[1])),
            lambda: fidelity_to_pure(np.eye(len(row)) / len(row), row),
        )
        messages = []
        for call in calls:
            with pytest.raises(DomainError) as err:
                call()
            messages.append(str(err.value))
        return messages

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_row(self, value):
        good = np.tile(BELL_PHI_PLUS, (3, 1))
        bad = good.astype(complex)
        bad[1, 2] = complex(0.0, value)
        expected = f"pure-state vector must be normalized, got norm {value}"
        assert self.messages(bad, good) == [expected] * 4

    def test_rejects_norm_off_by_more_than_tolerance(self):
        good = np.eye(3)
        bad = good.copy()
        bad[2] *= 1.0 + 1e-6
        expected = "pure-state vector must be normalized, got norm 1.000001"
        assert self.messages(bad, good) == [expected] * 4

    def test_rejects_trace_off_by_more_than_tolerance(self):
        # the norm is within 1e-10 of 1; its square, the projector's trace, is not
        good = np.eye(3)
        bad = good.copy()
        bad[1] *= 1.0 + 7.5e-11
        expected = "trace must equal 1, got (1.00000000015+0j)"
        assert self.messages(bad, good) == [expected] * 4
        with pytest.raises(DomainError) as err:
            DensityMatrix(np.outer(bad[1], np.conj(bad[1])), (3,))
        assert str(err.value) == expected

    @pytest.mark.parametrize("rows", [2, 1])
    def test_rejects_stacks_of_different_row_counts(self, rows):
        # a (1, d) stack once broadcast against a (2, d) one
        a, b = np.eye(4)[:rows], np.eye(4)[: 3 - rows]
        message = rf"rows of shape \({rows}, 4\), got float64 shape \({3 - rows}, 4\)"
        with pytest.raises(DomainError, match=message):
            pure_trace_distances(a, b)

    def test_rejects_stacks_of_different_widths(self):
        with pytest.raises(DomainError, match=r"rows of shape \(2, 4\), got float64 shape \(2, 3\)"):
            pure_trace_distances(np.eye(4)[:2], np.eye(3)[:2])

    @pytest.mark.parametrize("side", [0, 1])
    def test_rejects_one_dimensional_rows(self, side):
        rows = [np.eye(4)[:1], np.eye(4)[:1]]
        rows[side] = rows[side][0]
        with pytest.raises(DomainError, match=r"rows of shape \(.*\), got float64 shape \(4,\)"):
            pure_trace_distances(*rows)

    def test_rejects_string_rows(self):
        text = np.array([["1", "0"]])
        for call in (
            lambda: pure_trace_distances(text, np.eye(2)[:1]),
            lambda: pure_trace_distances(np.eye(2)[:1], text),
            lambda: pure_negativities(text, (1, 2)),
        ):
            with pytest.raises(DomainError, match=r"expected numeric pure-state rows .* got <U1 shape \(1, 2\)"):
                call()


class TestPureNegativities:
    """The Schmidt-coefficient negativity against the partial-transpose
    eigensolve of the validated projector, its exact values, and the cuts it
    rejects; the row checks are covered with ``TestPureTraceDistances``'s."""

    CUTS = [(2, 2), (3, 3), (2, 3), (3, 2)]

    @pytest.mark.parametrize("complex_rows", [False, True])
    @pytest.mark.parametrize("dims", CUTS)
    def test_matches_matrix_route(self, dims, complex_rows):
        rng = np.random.default_rng(31 + 10 * dims[0] + dims[1])
        psi = TestPureTraceDistances.rows(rng, 300, dims[0] * dims[1], complex_rows)
        values = pure_negativities(psi, dims)
        matrix_route = negativity(psi[:, :, None] * psi.conj()[:, None, :], dims)
        for i, value in enumerate(values):
            assert abs(value - matrix_route[i]) <= 2e-15
            # a one-row stack gives the same bits
            assert pure_negativities(psi[i : i + 1], dims)[0] == value

    @pytest.mark.parametrize("complex_rows", [False, True])
    @pytest.mark.parametrize("dims", CUTS)
    def test_product_states_are_not_negative(self, dims, complex_rows):
        rng = np.random.default_rng(37 + 10 * dims[0] + dims[1])
        a = TestPureTraceDistances.rows(rng, 200, dims[0], complex_rows)
        b = TestPureTraceDistances.rows(rng, 200, dims[1], complex_rows)
        values = pure_negativities((a[:, :, None] * b[:, None, :]).reshape(200, -1), dims)
        assert values.min() >= 0.0
        assert values.max() <= 1e-15

    def test_maximally_entangled_rows(self):
        bell = np.array([BELL_PHI_PLUS, [0.0, 1.0, -1.0, 0.0] / np.sqrt(2.0)])
        assert np.abs(pure_negativities(bell, (2, 2)) - 0.5).max() <= 1e-15
        qutrits = np.eye(3).reshape(1, 9) / np.sqrt(3.0)
        assert abs(pure_negativities(qutrits, (3, 3))[0] - 1.0) <= 1e-15

    def test_empty_stack(self):
        assert pure_negativities(np.zeros((0, 4)), (2, 2)).shape == (0,)

    @pytest.mark.parametrize(
        "dims",
        [(4,), (2, 2, 1), (2.0, 2), (0, 4), (-2, -2), ("2", "2"), 4, (2, 3), (4, 2), (True, 4), (4, True)],
    )
    def test_rejects_a_cut_that_is_not_two_dimensions_of_the_row(self, dims):
        with pytest.raises(DomainError):
            pure_negativities(np.tile(BELL_PHI_PLUS, (2, 1)), dims)

    def test_rejects_rows_that_are_not_a_stack(self):
        with pytest.raises(DomainError, match=r"rows of shape \(N, 4\), got float64 shape \(4,\)"):
            pure_negativities(BELL_PHI_PLUS, (2, 2))


class TestPurity:
    def test_pure_projector(self):
        rng = np.random.default_rng(7)
        psi = random_state_vector(rng, 6)
        assert purity(projector(psi)) == pytest.approx(1.0, rel=1e-12)

    def test_maximally_mixed(self):
        for d in (2, 3, 5):
            assert purity(np.eye(d) / d) == pytest.approx(1.0 / d, rel=1e-12)

    def test_equal_mixture_of_orthogonal_projectors(self):
        mat = np.zeros((4, 4), dtype=complex)
        mat[0, 0] = mat[1, 1] = 0.5
        assert purity(mat) == pytest.approx(0.5, rel=1e-12)

    def test_rejects_what_density_matrix_rejects(self):
        mat = np.eye(2) / 2.0 + 0j
        mat[0, 1] = 0.3
        with pytest.raises(DomainError, match="not Hermitian"):
            purity(mat)
        with pytest.raises(DomainError, match="trace must equal 1"):
            purity(np.eye(2))

    def test_rejects_a_density_matrix_object(self):
        with pytest.raises(DomainError, match="expected density matrices as numbers, got DensityMatrix: "):
            purity(DensityMatrix(np.eye(2) / 2.0, (2,)))

    @pytest.mark.parametrize("shape", [(3, 4), (1, 3, 3), (9,)])
    def test_rejects_shape_other_than_one_square_matrix(self, shape):
        with pytest.raises(DomainError, match=rf"shape \(n, n\), got shape {re.escape(str(shape))}"):
            purity(np.zeros(shape))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(parts=arrays(np.float64, (2, 9, 9), elements=st.floats(-1.0, 1.0)))
    def test_matches_trace_of_square(self, parts):
        # G G^dagger / Tr from the real and imaginary parts of a 9x9 G
        g = parts[0] + 1j * parts[1]
        mat = g @ g.conj().T
        trace = np.trace(mat).real
        assume(trace > 1e-3)
        rho = mat / trace
        assert abs(purity(rho) - np.trace(rho @ rho).real) <= 1e-15


class TestNegativity:
    def test_bell_state(self):
        rho = projector(BELL_PHI_PLUS)
        assert negativity(rho[None], (2, 2))[0] == pytest.approx(0.5, abs=1e-12)

    def test_product_state(self):
        rng = np.random.default_rng(9)
        a = random_density(rng, 2)
        b = random_density(rng, 3)
        assert negativity(np.kron(a, b)[None], (2, 3))[0] == pytest.approx(0.0, abs=1e-12)

    def test_no_negative_eigenvalue_gives_positive_zero(self):
        value = negativity((np.eye(4) / 4.0)[None], (2, 2))[0]
        assert value == 0.0
        assert math.copysign(1.0, value) == 1.0

    def test_half_bell_half_mixed(self):
        rho = 0.5 * projector(BELL_PHI_PLUS) + 0.125 * np.eye(4)
        pt = brute_force_partial_transpose(rho, (2, 2), 0)
        expected = -np.linalg.eigvalsh(pt).clip(max=0.0).sum()
        assert expected == pytest.approx(0.125, abs=1e-12)
        assert negativity(rho[None], (2, 2))[0] == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force_on_random_states(self):
        rng = np.random.default_rng(11)
        for dims in [(2, 2), (2, 3), (3, 3)]:
            rho = random_density(rng, dims[0] * dims[1])
            value = negativity(rho[None], dims)[0]
            # both cuts of a bipartite state give the one value
            for sub in range(2):
                pt = brute_force_partial_transpose(rho, dims, sub)
                expected = -np.linalg.eigvalsh(pt).clip(max=0.0).sum()
                assert value == pytest.approx(expected, abs=1e-11)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            rho = random_density(rng, 6)
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 3))
            values = negativity(np.array([rho, u @ rho @ u.conj().T]), (2, 3))
            assert values[1] == pytest.approx(values[0], abs=1e-9)

    def test_bad_subsystem_rejected(self):
        with pytest.raises(DomainError, match="two positive integer dimensions"):
            negativity((np.eye(4) / 4.0)[None], (4,))

    @pytest.mark.parametrize("dims", [(3, 3), (2, 3)])
    def test_stack_gives_each_one_matrix_value_bit_for_bit(self, dims):
        rng = np.random.default_rng(41 + dims[1])
        n = dims[0] * dims[1]
        mats = np.array([random_density(rng, n) for _ in range(20)])
        # low-rank states, whose partial transposes have several negative eigenvalues
        psi = np.array([random_state_vector(rng, n) for _ in range(20)])
        mats = np.concatenate([mats, 0.9 * psi[:, :, None] * psi.conj()[:, None, :] + 0.1 * mats])
        values = negativity(mats, dims)
        assert values.shape == (40,) and values.dtype == np.float64
        for mat, value in zip(mats, values):
            assert negativity(mat[None], dims)[0] == value

    def test_takes_real_arrays_and_nested_lists(self):
        rho = 0.5 * projector(BELL_PHI_PLUS) + 0.125 * np.eye(4)
        want = negativity(rho[None].astype(complex), (2, 2))
        assert negativity(rho[None], (2, 2)).tolist() == want.tolist()
        assert negativity(rho[None].tolist(), (2, 2)).tolist() == want.tolist()

    def test_empty_stack(self):
        assert negativity(np.zeros((0, 4, 4)), (2, 2)).shape == (0,)

    @pytest.mark.parametrize("shape", [(4, 4), (2, 4, 4, 1), (2, 9, 9), (2, 4, 3)])
    def test_rejects_a_stack_that_does_not_fit_the_cut(self, shape):
        with pytest.raises(DomainError, match=rf"shape \(N, 4, 4\), got shape {re.escape(str(shape))}"):
            negativity(np.zeros(shape), (2, 2))

    @pytest.mark.parametrize("dims", [(True, 4), (4, True), (2.0, 2), (0, 4), [2, 2, 1]])
    def test_rejects_a_cut_that_is_not_two_positive_integers(self, dims):
        with pytest.raises(DomainError, match="two positive integer dimensions"):
            negativity((np.eye(4) / 4.0)[None], dims)

    @pytest.mark.parametrize(
        "mats, kind",
        [
            ([DensityMatrix(np.eye(9) / 9.0, (3, 3))], "list"),
            ("abc", "str"),
        ],
    )
    def test_rejects_what_does_not_cast_to_numbers(self, mats, kind):
        with pytest.raises(DomainError, match=f"expected density matrices as numbers, got {kind}: "):
            negativity(mats, (3, 3))

    def test_one_bad_matrix_fails_the_stack_with_its_check(self):
        rng = np.random.default_rng(43)
        mats = np.array([random_density(rng, 9) for _ in range(4)])
        mats[2, 0, 1] += 1e-6
        with pytest.raises(DomainError) as err:
            negativity(mats, (3, 3))
        assert str(err.value) == TestStackedValidation.per_item_message(mats[2])


class TestFidelityToPure:
    def test_exact_match(self):
        rng = np.random.default_rng(21)
        psi = random_state_vector(rng, 4)
        assert fidelity_to_pure(projector(psi), psi) == pytest.approx(1.0, rel=1e-12)

    def test_orthogonal(self):
        rho = np.diag([1.0, 0.0])
        assert fidelity_to_pure(rho, np.array([0.0, 1.0])) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_even_mixture(self):
        psi = np.array([1.0, 0.0])
        perp = np.array([0.0, 1.0])
        rho = 0.5 * np.outer(psi, psi) + 0.5 * np.outer(perp, perp)
        assert fidelity_to_pure(rho, psi) == pytest.approx(0.5, rel=1e-12)

    def test_rejects_unnormalized_target(self):
        with pytest.raises(DomainError):
            fidelity_to_pure(np.eye(2) / 2.0, np.array([1.0, 1.0]))

    def test_rejects_nan_target(self):
        with pytest.raises(DomainError, match="normalized"):
            fidelity_to_pure(np.eye(2) / 2.0, np.array([math.nan, 0.0]))

    def test_rejects_dim_mismatch(self):
        with pytest.raises(DomainError):
            fidelity_to_pure(np.eye(2) / 2.0, np.array([1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("target", [np.array([[1.0, 0.0]]), np.eye(2), "ab", 1.0])
    def test_rejects_a_target_that_is_not_one_row(self, target):
        shape = np.asarray(target)[None].shape
        message = rf"rows of shape \(1, 2\), got \S+ shape {re.escape(str(shape))}"
        with pytest.raises(DomainError, match=message):
            fidelity_to_pure(np.eye(2) / 2.0, target)

    def test_target_meets_the_trace_rule(self):
        # the norm is within 1e-10 of 1; its square is not
        target = np.array([1.0 + 7.5e-11, 0.0])
        with pytest.raises(DomainError, match=re.escape("trace must equal 1, got (1.00000000015+0j)")):
            fidelity_to_pure(np.eye(2) / 2.0, target)

    def test_rejects_what_density_matrix_rejects(self):
        with pytest.raises(DomainError, match="negative eigenvalue"):
            fidelity_to_pure(np.diag([1.5, -0.5]), np.array([1.0, 0.0]))
        with pytest.raises(DomainError, match=r"shape \(n, n\), got shape \(1, 2, 2\)"):
            fidelity_to_pure((np.eye(2) / 2.0)[None], np.array([1.0, 0.0]))


class TestStackedValidation:
    """A stack with one corrupted matrix fails with the message that
    constructing a DensityMatrix from that matrix gives."""

    @staticmethod
    def stack():
        rng = np.random.default_rng(11)
        return np.array([random_density(rng, 4) for _ in range(5)])

    @staticmethod
    def per_item_message(mat):
        with pytest.raises(DomainError) as err:
            DensityMatrix(mat, (2, 2))
        return str(err.value)

    def test_valid_stack_passes(self):
        check_density_matrices(self.stack())

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
        psi = np.zeros((0, 3), dtype=complex)
        check_density_matrices(psi[:, :, None] * psi.conj()[:, None, :])

    def test_single_matrix_rejected_by_shape(self):
        with pytest.raises(DomainError, match=r"\(N, n, n\) stack, got shape \(3, 3\)"):
            check_density_matrices(np.eye(3) / 3.0)

    def test_non_square_stack_rejected_by_shape(self):
        with pytest.raises(DomainError, match=r"\(N, n, n\) stack, got shape \(2, 3, 4\)"):
            check_density_matrices(np.zeros((2, 3, 4)))

    def test_nested_lists_checked_as_arrays(self):
        mats = self.stack()
        check_density_matrices(mats.tolist())
        mats[2, 0, 1] += 1e-6
        with pytest.raises(DomainError) as err:
            check_density_matrices(mats.tolist())
        assert str(err.value) == self.per_item_message(mats[2])

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
            check_density_matrices(psi[:, :, None] * psi.conj()[:, None, :])

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
