import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from boostlink import diffraction
from boostlink.cli import Scenario, SweepSpec, run_negativity_sweep
from boostlink.diffraction import (
    _B_AXIS_FLIP,
    _BLOCK_NODES,
    QuadratureGrid,
    _arm_moments,
    _bell_mixture,
    _gauss_legendre,
    _lorentz_rows,
    _weighted_rows,
    diffracted_reduced_type1,
    make_grid,
)
from boostlink.errors import DomainError
from boostlink.lorentz import aberrate, boost_z, linear_basis, polar_angles, unit_vectors
from boostlink.quantum import check_density_matrices, negativity, purity
from boostlink.states import pair_amplitudes

# Moments between components of (h, v) of equal parity under the mirror
# y -> -y; the mirror fold cancels the rest.
_MIRROR_EVEN = np.add.outer(np.arange(6), np.arange(6)) % 2 == 0

# Regression constants computed with this package's quadrature oracle at the
# default 64x64 grid; they pin the boost-free diffracted pair at sigma = 1.
BASELINE_NEGATIVITY_SIGMA1 = 0.19917779685594897
BASELINE_PURITY_SIGMA1 = 0.2737031369435112


def _reference_weights(grid):
    """Reference: probability weights w |f|^2 / M of the grid's beam on every
    node of the full grid, one exp per node; the normalization sum defines M."""
    theta, _, weight = _full_grid_layout(grid.n_theta, grid.n_phi, grid.sigma)
    raw = weight * np.exp(-(theta**2) / (grid.sigma**2))
    return raw / raw.sum()


def _one_block(blocks):
    """The grid's blocks joined into one, in node order."""
    return tuple(np.concatenate([block[i] for block in blocks], axis=-1) for i in range(2))


def _half_grid(grid):
    """The grid's half-grid unit vectors (x, y, z) and square-rooted beam
    weights, read from its blocks in node order."""
    lin, (y, _, root_w) = _one_block(grid._blocks)
    return (lin[1], y, lin[2]), root_w


def _one(alpha, beta, grid):
    """The kernel's matrix at one beta."""
    (rho,) = diffracted_reduced_type1(alpha, [beta], grid)
    return rho


def _negativity(rho):
    """``negativity`` of one pair matrix, as a stack of one."""
    return negativity(rho[None], (3, 3))[0]


# Reference: the angle-based kernel the unit-vector kernel replaced.  Each arm
# goes arccos/arctan2 -> half-angle aberration -> cos/sin -> rotate back ->
# arccos/arctan2 -> cos/sin, and the four moment blocks are separate einsums.


def _reference_axis_rotation_y(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _reference_aberrate(theta, beta):
    stretch = math.sqrt((1.0 + beta) / (1.0 - beta))
    half = 0.5 * theta
    return 2.0 * np.arctan2(stretch * np.sin(half), np.cos(half))


def _reference_linear_pol(theta, phi):
    ct, st = np.cos(theta), np.sin(theta)
    cp, sp = np.cos(phi), np.sin(phi)
    h = np.stack([cp * cp * ct + sp * sp, sp * cp * (ct - 1.0), -st * cp], axis=-1)
    v = np.stack([sp * cp * (ct - 1.0), sp * sp * ct + cp * cp, -st * sp], axis=-1)
    return h, v


def _reference_patch_angles(grid, alpha, beta, mirror):
    rot = _reference_axis_rotation_y(alpha + (math.pi if mirror else 0.0))
    theta, phi, _ = _full_grid_layout(grid.n_theta, grid.n_phi, grid.sigma)
    ct, st = np.cos(theta), np.sin(theta)
    patch = np.stack([st * np.cos(phi), st * np.sin(phi), ct], axis=-1)
    lab = patch @ rot.T
    theta_lab = np.arccos(np.clip(lab[:, 2], -1.0, 1.0))
    phi_lab = np.arctan2(lab[:, 1], lab[:, 0])
    theta_lab = _reference_aberrate(theta_lab, beta)
    ct, st = np.cos(theta_lab), np.sin(theta_lab)
    lab = np.stack([st * np.cos(phi_lab), st * np.sin(phi_lab), ct], axis=-1)
    patch = lab @ rot
    theta = np.arccos(np.clip(patch[:, 2], -1.0, 1.0))
    phi = np.arctan2(patch[:, 1], patch[:, 0])
    return theta, phi


def _reference_moments(theta, phi, weights):
    h, v = _reference_linear_pol(theta, phi)
    moments = {}
    for xname, x in (("h", h), ("v", v)):
        for yname, y in (("h", h), ("v", v)):
            moments[xname + yname] = np.einsum("i,ia,ib->ab", weights, x, y.conj())
    return moments


def _reference_reduced_type1(alpha, beta, grid, opposite=True):
    a = _reference_moments(
        *_reference_patch_angles(grid, alpha, beta, mirror=False),
        _reference_weights(grid),
    )
    b = _reference_moments(
        *_reference_patch_angles(grid, alpha, beta, mirror=opposite),
        _reference_weights(grid),
    )
    rho = 0.5 * (
        np.kron(a["hh"], b["hh"])
        - np.kron(a["hv"], b["hv"])
        - np.kron(a["vh"], b["vh"])
        + np.kron(a["vv"], b["vv"])
    )
    # arm B's second frame axis reversed, as the kernel returns it
    flip_b = np.tile([1.0, -1.0, 1.0], 3)
    rho = rho * np.outer(flip_b, flip_b)
    return 0.5 * (rho + rho.conj().T)


def _kernel(alpha, beta, grid, opposite):
    """The pair with arm B's axis at the mirror ``alpha + pi``, as the kernel
    returns it; with ``opposite`` False, co-directed with arm A: the arm
    moments at ``alpha - pi`` under -beta, the route the kernel takes for a
    mirrored arm, so that arm B's axis lies back along ``alpha``."""
    if opposite:
        return _one(alpha, beta, grid)
    [a] = _arm_moments(grid._blocks, alpha, [beta])
    [b] = _arm_moments(grid._blocks, alpha - math.pi, [-beta])
    rho = _bell_mixture(a, b * _B_AXIS_FLIP)
    return 0.5 * (rho + rho.conj().T)


class TestBeamProfile:
    """The beam's spread enters through the grid and its axis angle through
    the kernel; each is checked there, with one message."""

    SPREAD = "angular spread must be positive and finite"

    def test_rejects_bad_profile(self):
        for sigma in (0.0, -0.1, -1.0):
            with pytest.raises(DomainError, match=self.SPREAD):
                make_grid(8, 8, sigma)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_rejects_non_finite_sigma(self, sigma):
        # inf would otherwise give a flat beam over [0, pi]
        with pytest.raises(DomainError, match=self.SPREAD):
            make_grid(8, 8, sigma)

    @pytest.mark.parametrize("sigma", ["0.2", None, [0.2], 0.2 + 0j, True, False, np.True_])
    def test_rejects_non_real_sigma(self, sigma):
        # a bool is not a spread, and the rest are not real numbers
        with pytest.raises(DomainError, match=self.SPREAD):
            make_grid(8, 8, sigma)

    def test_accepts_int_and_numpy_float_sigma(self):
        want = make_grid(8, 8, 1.0)
        for sigma in (1, np.int64(1), np.float64(1.0)):
            grid = make_grid(8, 8, sigma)
            assert grid.sigma == 1.0
            for got, ref in zip(grid._blocks, want._blocks, strict=True):
                assert [a.tobytes() for a in got] == [a.tobytes() for a in ref]

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_grid_checks_sigma_before_rows(self, sigma):
        # before both node counts, which are bad here too, and any row
        with pytest.raises(DomainError, match=self.SPREAD):
            QuadratureGrid(1, 1, sigma)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_alpha(self, alpha):
        with pytest.raises(DomainError, match="beam axis angle must be finite"):
            diffracted_reduced_type1(alpha, [0.0], make_grid(8, 8, 0.3))

    @pytest.mark.parametrize("alpha", ["0.4", None, True, np.True_, 0.4 + 0j, [0.4]])
    def test_rejects_non_real_alpha(self, alpha):
        # the rule the grid applies to sigma: a bool is not an angle, and the
        # rest are not real numbers
        with pytest.raises(DomainError, match="beam axis angle must be finite"):
            diffracted_reduced_type1(alpha, [0.0], make_grid(8, 8, 0.3))


def _full_grid_layout(n_theta, n_phi, sigma):
    """Reference: the (theta, phi, weight) node arrays of the full grid, as
    np.repeat / np.tile of the 1-D axes, built the way make_grid built them
    when a grid stored every node."""
    theta_max = min(diffraction.TRUNCATION_SIGMAS * sigma, math.pi)
    nodes, gl_weights = np.polynomial.legendre.leggauss(n_theta)
    theta_1d = 0.5 * theta_max * (nodes + 1.0)
    wtheta_1d = 0.5 * theta_max * gl_weights
    phi_1d = 2.0 * math.pi * np.arange(n_phi) / n_phi
    wphi = 2.0 * math.pi / n_phi
    return (
        np.repeat(theta_1d, n_phi),
        np.tile(phi_1d, n_theta),
        np.repeat(0.5 * np.sin(theta_1d) * wtheta_1d, n_phi) * wphi,
    )


def _half_grid_reference(n_theta, n_phi, sigma):
    """Reference: the unit vectors (x, y, z) of the full-grid layout's nodes
    with phi in [0, pi], and their beam weights from the layout's shell
    measure, normalized by the full-grid sum and doubled where the mirror
    phi -> 2 pi - phi is another node."""
    half = n_phi // 2 + 1
    theta, phi, weight = (a.reshape(n_theta, n_phi)[:, :half]
                          for a in _full_grid_layout(n_theta, n_phi, sigma))
    nodes = [(np.sin(theta) * np.cos(phi)).ravel(), (np.sin(theta) * np.sin(phi)).ravel(),
             np.cos(theta).ravel()]
    row = weight[:, 0] * np.exp(-((theta[:, 0] / sigma) ** 2))
    fold = np.full(half, 2.0)
    fold[0] = 1.0
    if n_phi % 2 == 0:
        fold[-1] = 1.0
    return nodes, ((row / (n_phi * row.sum()))[:, None] * fold).ravel()


class TestQuadratureGrid:
    def test_normalization_defines_probability_weights(self):
        # the half-grid weights count each mirrored node twice, so they sum
        # to 1 like the full-grid reference
        for sigma in (0.01, 0.1, 1.0):
            for n_phi in (64, 63):
                grid = make_grid(64, n_phi, sigma=sigma)
                w = _half_grid(grid)[1] ** 2
                assert w.sum() == pytest.approx(1.0, rel=1e-12)
                assert np.all(w > 0.0)
                assert _reference_weights(grid).sum() == pytest.approx(1.0, rel=1e-12)

    def test_measure_matches_analytic_shell_area(self):
        # The weights integrate (1/2) sin(theta) over the truncated cap:
        # (1/2) * 2*pi * (1 - cos(theta_max)), the whole sphere once 6 sigma
        # reaches pi.
        grid = make_grid(64, 64, sigma=1.0)
        _, _, weight = _full_grid_layout(grid.n_theta, grid.n_phi, grid.sigma)
        for total in (weight.sum(), grid.n_phi * weight[:: grid.n_phi].sum()):
            assert total == pytest.approx(2.0 * math.pi, rel=1e-10)

    @pytest.mark.parametrize("n_phi", [8, 7])
    def test_overflowing_sigma_gives_flat_beam(self, n_phi):
        # (theta / sigma)^2 rounds to 0: every row keeps its shell weight,
        # normalized
        for sigma in (1.4e154, 1e200, 1.7976931348623157e308):
            grid = make_grid(6, n_phi, sigma=sigma)
            shell = _full_grid_layout(6, n_phi, sigma)[2][::n_phi]
            flat = np.repeat(shell / (n_phi * shell.sum()), n_phi // 2 + 1)
            flat = flat.reshape(6, -1) * 2.0
            flat[:, [0, -1] if n_phi % 2 == 0 else [0]] *= 0.5
            assert _half_grid(grid)[1].tobytes() == np.sqrt(flat.ravel()).tobytes()

    BAD_COUNTS = [0, -3, 1, 2.5, 4.0, 8.0, np.float64(8), "8", None, True]

    @pytest.mark.parametrize("n_phi", BAD_COUNTS)
    def test_rejects_bad_n_phi(self, n_phi):
        with pytest.raises(DomainError, match="n_phi must be an integer >= 2"):
            QuadratureGrid(8, n_phi, 0.2)

    @pytest.mark.parametrize("n_theta", BAD_COUNTS)
    def test_rejects_bad_n_theta(self, n_theta):
        with pytest.raises(DomainError, match="n_theta must be an integer >= 2"):
            make_grid(n_theta, 8, 0.2)

    def test_accepts_numpy_integer_counts(self):
        grid = QuadratureGrid(np.int64(2), np.int32(2), 1.0)
        assert grid.n_phi == 2 and grid.n_theta == 2
        assert grid.row_theta.size == 2
        want = make_grid(8, 8, 1.0)
        for got, ref in zip(make_grid(np.int64(8), np.int64(8), 1.0)._blocks, want._blocks, strict=True):
            assert [a.tobytes() for a in got] == [a.tobytes() for a in ref]

    def test_rejects_underflowed_weights(self):
        # a spread of 1e-160 gives rows near 1e-160, whose weights, products
        # of two such numbers, are 0 on the 64-row grid and positive on 8 rows
        with pytest.raises(DomainError, match="all quadrature weights must be positive"):
            make_grid(64, 64, 1e-160)
        assert _full_grid_layout(8, 8, 1e-160)[2].min() > 0.0
        assert (_half_grid(make_grid(8, 8, 1e-160))[1] ** 2).sum() == pytest.approx(1.0, rel=1e-12)

    def test_rejects_unnormalizable_beam(self):
        # every shell weight of the 2 x 4 grid at 1.5e-162 is positive, but
        # each times its row's exp underflows to 0, so the beam has no mass;
        # the grid rejects it before any kernel call
        assert _full_grid_layout(2, 4, 1.5e-162)[2].min() > 0.0
        with pytest.raises(DomainError, match="quadrature grid cannot normalize this beam profile"):
            make_grid(2, 4, 1.5e-162)

    def test_rejects_tiny_grid(self):
        with pytest.raises(DomainError):
            make_grid(1, 8, 0.2)

    def test_rows_are_read_only(self):
        grid = make_grid(4, 4, sigma=0.4)
        for array in (grid.row_theta, *(a for block in grid._blocks for a in block)):
            with pytest.raises(ValueError):
                array[0] = 0.0
        with pytest.raises(AttributeError):
            grid.theta = grid.theta

    def test_build_keeps_only_derived_arrays(self):
        # the grid keeps its rows and the half grid's blocks, six numbers per
        # node, 24 MiB at 1024^2; the build peaks under 64 KiB above those
        # arrays, the objects of its 2 x 114 block arrays included
        make_grid(1024, 1024, sigma=0.4)  # fills the Gauss-Legendre cache
        tracemalloc.start()
        try:
            grid = make_grid(1024, 1024, sigma=0.4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = [grid.row_theta, *(a for block in grid._blocks for a in block)]
        assert peak < sum(a.nbytes for a in kept) + 64 * 1024
        assert grid.row_theta.size == 1024
        assert [a.shape for a in _one_block(grid._blocks)] == [(3, 1024 * 513)] * 2


class TestGridLayout:
    """The kernel folds each arm over phi -> 2 pi - phi, which holds on the
    product layout; a grid is (n_theta, n_phi, sigma) and derives its theta
    rows, so no other layout exists."""

    @pytest.mark.parametrize("n_theta, n_phi", [(2, 2), (5, 3), (12, 31), (7, 32)])
    def test_make_grid_layout_accepted(self, n_theta, n_phi):
        # the grid's rows, repeated along each row's n_phi nodes, are the
        # full-grid arrays bit for bit, on odd and even n_phi
        grid = make_grid(n_theta, n_phi, sigma=0.4)
        assert (grid.n_theta, grid.n_phi, grid.sigma) == (n_theta, n_phi, 0.4)
        theta, _, _ = _full_grid_layout(grid.n_theta, grid.n_phi, grid.sigma)
        assert grid.theta.shape == (n_theta * n_phi,)
        assert grid.theta.tobytes() == theta.tobytes()
        nodes, weights = _half_grid_reference(n_theta, n_phi, 0.4)
        lin, (y, y_sq, root_w) = _one_block(grid._blocks)
        x, _, z = nodes
        want = [np.ones_like(x), x, z, nodes[1], nodes[1] * nodes[1], np.sqrt(weights)]
        for got, ref in zip((*lin, y, y_sq, root_w), want, strict=True):
            assert got.shape == (n_theta * (n_phi // 2 + 1),)
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n_phi", [8, 7])
    def test_rows_are_the_reference_rows(self, n_phi):
        grid = QuadratureGrid(12, n_phi, 0.4)
        theta, _, _ = _full_grid_layout(12, n_phi, 0.4)
        assert grid.row_theta.tobytes() == theta[::n_phi].tobytes()
        assert _half_grid(grid)[1].tobytes() == np.sqrt(_half_grid_reference(12, n_phi, 0.4)[1]).tobytes()
        assert grid.theta.size == 12 * n_phi


class TestGaussLegendreCache:
    """Cached nodes must be the very arrays ``leggauss`` returns, bit for bit,
    and no caller may change them for the next one."""

    @pytest.mark.parametrize("n", [2, 3, 32, 128, 1024])
    def test_cached_nodes_are_bitwise_fresh(self, n):
        _gauss_legendre.cache_clear()
        fresh = np.polynomial.legendre.leggauss(n)
        for cached in (_gauss_legendre(n), _gauss_legendre(n)):
            for got, want in zip(cached, fresh):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()

    def test_cached_arrays_are_read_only(self):
        nodes, weights = _gauss_legendre(16)
        for array in (nodes, weights):
            with pytest.raises(ValueError):
                array[0] = 0.0
        assert _gauss_legendre(16)[0].tobytes() == np.polynomial.legendre.leggauss(16)[0].tobytes()

    def test_grids_equal_uncached_ones(self, monkeypatch):
        _gauss_legendre.cache_clear()
        cached = [make_grid(24, 8, sigma=s) for s in (0.3, 2.0)]
        monkeypatch.setattr(diffraction, "_gauss_legendre", np.polynomial.legendre.leggauss)
        uncached = [make_grid(24, 8, sigma=s) for s in (0.3, 2.0)]
        for got, want in zip(cached, uncached):
            assert got.sigma == want.sigma
            for name in ("row_theta", "theta"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            for g, w in zip(got._blocks, want._blocks, strict=True):
                assert [a.tobytes() for a in g] == [a.tobytes() for a in w]


class TestDiffractedReducedType1:
    def test_narrow_beam_recovers_sharp_state(self):
        # sigma -> 0 limit: purity 1 and the sharp-momentum negativity.
        for alpha in (0.0, 0.4):
            grid = make_grid(48, 32, sigma=1e-4)
            rho = _one(alpha, 0.15, grid)
            assert purity(rho) == pytest.approx(1.0, abs=1e-7)
            assert _negativity(rho) == pytest.approx(0.5, abs=1e-7)

    def test_zero_spread_limit_purity(self):
        # The purity deficit is 2*sigma^2 to leading order, so it drops below
        # 1e-9 once sigma reaches 1e-5.
        grid = make_grid(48, 32, sigma=1e-5)
        rho = _one(0.0, 0.0, grid)
        assert purity(rho) == pytest.approx(1.0, abs=1e-9)

    def test_sharp_negativity_matches_states_module(self):
        arms = unit_vectors(*polar_angles(np.array([0.4, math.pi - 0.4]), np.array([0.0, math.pi])))
        a, b = aberrate(arms, 0.15)
        sharp = pair_amplitudes(a[None], b[None])[0]
        assert _negativity(np.outer(sharp, np.conj(sharp))) == pytest.approx(0.5, abs=1e-12)

    def test_purity_never_exceeds_one(self):
        for sigma in (0.05, 0.5, 1.0):
            grid = make_grid(32, 32, sigma=sigma)
            for beta in (0.0, 0.2):
                assert purity(_one(0.0, beta, grid)) <= 1.0 + 1e-12

    def test_purity_expansion_at_rest(self):
        # P = 1 - 2 sigma^2 + O(sigma^4) at beta = 0; the residual must show
        # clean fourth-order scaling.
        ratios = []
        for sigma in (0.01, 0.02, 0.05):
            grid = make_grid(64, 64, sigma=sigma)
            p = purity(_one(0.0, 0.0, grid))
            residual = abs(p - (1.0 - 2.0 * sigma**2))
            ratios.append(residual / sigma**4)
        assert max(ratios) < 5.0
        assert max(ratios) / min(ratios) < 1.5

    def test_purity_expansion_small_boost(self):
        # beta = 1e-2, sigma = 0.05: the quadratic-in-velocity expansion point
        # from the module contract; residual stays at the sigma^4 scale.
        sigma, beta = 0.05, 1e-2
        grid = make_grid(64, 64, sigma=sigma)
        p = purity(_one(0.0, beta, grid))
        residual = abs(p - (1.0 - 2.0 * sigma**2 * (1.0 + abs(beta)) ** 2))
        assert residual <= 2e-4

    def test_measured_velocity_coefficient(self):
        # The small-sigma purity deficit divided by 2 sigma^2 equals
        # (1 + beta^2)/(1 - beta^2) for the back-to-back geometry.
        sigma = 0.01
        grid = make_grid(64, 64, sigma=sigma)
        for beta in (0.0, 0.1, 0.3):
            p = purity(_one(0.0, beta, grid))
            g = (1.0 - p) / (2.0 * sigma**2)
            expected = (1.0 + beta**2) / (1.0 - beta**2)
            assert g == pytest.approx(expected, abs=1e-3)

    def test_grid_doubling_convergence(self):
        for sigma in (0.05, 0.2):
            for beta in (0.0, 0.3):
                values = []
                for n in (64, 128):
                    grid = make_grid(n, n, sigma=sigma)
                    rho = _one(0.0, beta, grid)
                    values.append((purity(rho), _negativity(rho)))
                assert abs(values[0][0] - values[1][0]) < 1e-6
                assert abs(values[0][1] - values[1][1]) < 1e-6

    def test_superluminal_rejected(self):
        grid = make_grid(16, 16, sigma=0.1)
        with pytest.raises(DomainError):
            diffracted_reduced_type1(0.0, [1.0], grid)


class TestBellMixture:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(blocks=arrays(np.float64, (2, 2, 3, 2, 3), elements=st.floats(-1.0, 1.0)))
    def test_signed_einsum_matches_four_krons(self, blocks):
        a, b = blocks
        four_krons = 0.5 * (
            np.kron(a[0, :, 0], b[0, :, 0])
            - np.kron(a[0, :, 1], b[0, :, 1])
            - np.kron(a[1, :, 0], b[1, :, 0])
            + np.kron(a[1, :, 1], b[1, :, 1])
        )
        assert np.abs(_bell_mixture(a, b) - four_krons).max() <= 1e-15


class TestUnitVectorKernel:
    @pytest.mark.parametrize("opposite", [True, False])
    @pytest.mark.parametrize("alpha", [0.0, math.pi / 2, math.pi - 0.01, math.pi])
    def test_matches_angle_based_reference(self, alpha, opposite):
        worst = 0.0
        for sigma in (0.2, 1.0, 3.0):
            grid = make_grid(32, 32, sigma=sigma)
            for beta in (-0.9, 0.0, 0.3, 0.9):
                rho = _kernel(alpha, beta, grid, opposite)
                ref = _reference_reduced_type1(alpha, beta, grid, opposite)
                worst = max(worst, float(np.abs(rho - ref).max()))
        assert worst <= 1e-12

    @pytest.mark.parametrize("opposite", [True, False])
    @pytest.mark.parametrize("n_theta, n_phi", [(5, 2), (4, 3), (12, 31), (20, 32)])
    def test_fold_matches_full_grid_reference(self, n_theta, n_phi, opposite):
        # the reference sums every node of the full grid; the kernel sums the
        # half grid phi in [0, pi] and folds in the mirror images
        worst = 0.0
        for sigma in (0.2, 1.0, 3.0):
            grid = make_grid(n_theta, n_phi, sigma=sigma)
            for alpha in (0.0, 1.1, math.pi - 0.01):
                for beta in (-0.9, 0.0, 0.3, 0.9):
                    rho = _kernel(alpha, beta, grid, opposite)
                    ref = _reference_reduced_type1(alpha, beta, grid, opposite)
                    worst = max(worst, float(np.abs(rho - ref).max()))
        assert worst <= 1e-12

    def test_work_per_call(self, monkeypatch):
        # the beam's profile is evaluated once per theta row when the grid is
        # built and never by the kernel; a call builds one Lorentz map per
        # distinct arm beta, arm A's betas and then the negated ones for arm
        # B, 0.0 and -0.0 as one, and writes each block's rows once per map,
        # blocks in the outer loop
        maps, made, rows, exp_sizes = [], [], [], []
        lorentz_rows, weighted_rows, exp = diffraction._lorentz_rows, diffraction._weighted_rows, np.exp

        def counting_maps(axis_angle, beta):
            maps.append((axis_angle, beta))
            made.append(lorentz_rows(axis_angle, beta))
            return made[-1]

        def counting_rows(block, lorentz, work):
            # (block size, index of the map it was given)
            rows.append((block[0].shape[1], [m is lorentz for m in made].index(True)))
            return weighted_rows(block, lorentz, work)

        def counting_exp(x):
            exp_sizes.append(np.size(x))
            return exp(x)

        monkeypatch.setattr(diffraction, "_lorentz_rows", counting_maps)
        monkeypatch.setattr(diffraction, "_weighted_rows", counting_rows)
        monkeypatch.setattr(np, "exp", counting_exp)
        sweeps = [([0.4], [0.4, -0.4]), ([0.0, 0.4, -0.0, -0.4, 0.4], [0.0, 0.4, -0.4])]
        for n_theta, n_phi in ((16, 32), (9, 31), (3, 2), _uneven_blocks(), (128, 128)):
            exp_sizes.clear()
            grid = make_grid(n_theta, n_phi, sigma=0.6)
            assert exp_sizes == [n_theta]
            blocks = [block[0].shape[1] for block in grid._blocks]
            assert sum(blocks) == n_theta * (n_phi // 2 + 1)
            for betas, arm_betas in sweeps:
                maps.clear()
                made.clear()
                rows.clear()
                exp_sizes.clear()
                diffracted_reduced_type1(0.3, betas, grid)
                assert maps == [(0.3, b) for b in arm_betas]
                assert not any(math.copysign(1.0, b) < 0 for _, b in maps if b == 0.0)
                assert rows == [(size, i) for size in blocks for i in range(len(arm_betas))]
                assert exp_sizes == []

    def test_node_identities(self):
        # h, v orthonormal and transverse to the unit aberrated direction n,
        # also at nodes close to the beam-frame backward pole
        tol = 2e-14
        closest = 2.0
        for sigma in (0.2, 1.0, 3.0):
            nodes = _half_grid(make_grid(32, 32, sigma=sigma))[0]
            for axis_angle in (0.0, 1.1, math.pi / 2, math.pi, 4.0):
                for beta in (-0.9, 0.0, 0.3, 0.9):
                    n = _beam_frame_aberration(nodes, axis_angle, beta)
                    basis = linear_basis(*n)
                    h, v = basis[:3], basis[3:]
                    closest = min(closest, float(1.0 + n[2].min()))
                    for a, b, expected in ((n, n, 1), (h, h, 1), (v, v, 1), (h, v, 0),
                                           (h, n, 0), (v, n, 0)):
                        residual = np.abs(np.einsum("an,an->n", a, b) - expected)
                        assert residual.max() <= tol
        assert closest < 1e-6  # 1 + n_z; about 1e-3 rad from the pole

    def test_rows_are_linear_basis_times_weight(self, monkeypatch):
        # the kernel's momentum form of h and v is linear_basis at the
        # aberrated direction: its five rows, v_x = h_y read as a sixth, are
        # -sqrt(W) times linear_basis's six, to 2e-15, also below the
        # beam-frame equator, where both take 1 + n_z as (n_x^2 + n_y^2) /
        # (1 - n_z)
        greater = np.greater
        branch = []

        def counting_greater(*args, **kwargs):
            branch.append(args[0].size)
            return greater(*args, **kwargs)

        worst, below = 0.0, 0
        for sigma, alpha, beta in ((3.0, math.pi - 0.01, 0.9), (3.0, math.pi - 0.01, -0.9),
                                   (0.2, 0.0, 0.5), (1.0, 1.1, -0.3), (1.0, 4.0, 0.0)):
            grid = make_grid(32, 32, sigma=sigma)
            nodes, root_w = _half_grid(grid)
            n = _beam_frame_aberration(nodes, alpha, beta)
            branch.clear()
            with monkeypatch.context() as patched:
                patched.setattr(np, "greater", counting_greater)
                h_x, h_y, h_z, v_y, v_z = _kernel_rows(grid._blocks, alpha, beta)
            if (n[2] < 0.0).any():
                assert branch == [root_w.size]
                below += 1
            want = -linear_basis(*n) * root_w
            got = np.array([h_x, h_y, h_z, h_y, v_y, v_z])
            worst = max(worst, float(np.abs(got - want).max()))
        assert worst <= 2e-15
        assert below > 0  # the below-equator branch ran

    def test_exact_backward_pole_is_nan(self):
        # n = -z exactly: h and v have no limit there, and the closed form
        # divides 0 by 0 (test_node_identities covers nodes close to it).
        # Pinned: NaN in rows h_x, h_y, v_x, v_y, -0.0 in h_z, v_z
        with pytest.warns(RuntimeWarning, match="invalid value encountered in divide") as caught:
            basis = linear_basis(np.array([0.0]), np.array([0.0]), np.array([-1.0]))
        assert len(caught) == 2
        assert basis.shape == (6, 1)
        assert np.isnan(basis[[0, 1, 3, 4]]).all()
        assert basis[[2, 5]].tobytes() == np.array([[-0.0], [-0.0]]).tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        alpha=st.floats(0.0, math.pi),
        beta=st.floats(-0.95, 0.95),
        sigma=st.floats(0.05, 3.0),
    )
    def test_psd_unit_trace(self, alpha, beta, sigma):
        # the kernel does not check its stack: every matrix must pass the
        # check of the function that receives it, and be Hermitian exactly
        stack = diffracted_reduced_type1(alpha, [beta, -beta, 0.0], make_grid(24, 24, sigma=sigma))
        check_density_matrices(stack)
        assert np.array_equal(stack, stack.conj().swapaxes(-1, -2))
        rho = _one(alpha, beta, make_grid(24, 24, sigma=sigma))
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(rho).min() >= -1e-12


def _rotation_y4(angle):
    """The 4x4 rotation by ``angle`` about y on (t, x, y, z)."""
    c, s = math.cos(angle), math.sin(angle)
    m = np.eye(4)
    m[1, 1] = m[3, 3] = c
    m[1, 3], m[3, 1] = s, -s
    return m


def _beam_frame_aberration(nodes, axis_angle, beta):
    """Reference: the nodes' null momenta (1, n) through the 4x4 matrices
    R_y(axis_angle), boost_z(beta) and R_y(axis_angle)^T, the spatial parts
    normalized: the unit directions (x, y, z) in the beam frame."""
    rotation = _rotation_y4(axis_angle)
    p = rotation.T @ boost_z(beta) @ rotation @ np.vstack([np.ones_like(nodes[0]), *nodes])
    return p[1:] / np.linalg.norm(p[1:], axis=0)


def _kernel_rows(blocks, axis_angle, beta):
    """The kernel's five weighted rows over the whole half grid as one
    block."""
    block = _one_block(blocks)
    size = block[0].shape[1]
    work = np.empty((3, size)), np.empty((3, size)), np.empty(size, dtype=bool)
    return _weighted_rows(block, _lorentz_rows(axis_angle, beta), work)


def _unblocked_arm_moments(blocks, axis_angle, beta):
    """Reference: the kernel's sums over the whole half grid as one block,
    one product per moment entry."""
    return _arm_moments((_one_block(blocks),), axis_angle, [beta])[0]


def _exact_arm_moments(blocks, axis_angle, beta):
    """Reference: the same node terms as the kernel, each entry of the 6x6
    moment of (h_x, h_y, h_z, v_x = h_y, v_y, v_z) summed with math.fsum,
    i.e. the correctly rounded sum, and the mirror-odd entries 0."""
    h_x, h_y, h_z, v_y, v_z = _kernel_rows(blocks, axis_angle, beta)
    six = (h_x, h_y, h_z, h_y, v_y, v_z)
    moments = np.array([[math.fsum(a * b) for b in six] for a in six])
    return (moments * _MIRROR_EVEN).reshape(2, 3, 2, 3)


def _uneven_blocks():
    """(n_theta, n_phi) whose half grid is two blocks one theta row apart."""
    half = 197
    n_theta, n_phi = _BLOCK_NODES // half + 2, 2 * (half - 1)
    sizes = [block[0].shape[1] for block in make_grid(n_theta, n_phi, 1.0)._blocks]
    assert len(sizes) == 2 and abs(sizes[0] - sizes[1]) == half
    return n_theta, n_phi


class TestBlockedMoments:
    """The moments are summed over blocks of whole theta rows, at most
    _BLOCK_NODES half-grid nodes each; they must match one product over the
    whole half grid, bit for bit on a single block and up to that product's
    rounding on several."""

    BEAMS = [(0.2, 0.0), (1.0, 1.1), (3.0, math.pi - 0.01)]
    BETAS = (-0.9, 0.0, 0.5)

    def test_block_size_bounds(self):
        # a 64^2 half grid is one block; one block's (3, B) float64 array is
        # below 128 KiB; the blocks hold whole theta rows, as even as rows
        # allow, on every grid the CLI takes (n_phi <= 1024)
        assert 64 * 33 <= _BLOCK_NODES <= 128 * 1024 // 24
        assert [block[0].shape[1] for block in make_grid(64, 64, 1.0)._blocks] == [64 * 33]
        assert [block[0].shape[1] for block in make_grid(128, 128, 1.0)._blocks] == [4160, 4160]
        for n_theta, n_phi in ((127, 129), (1024, 1024), (1000, 2), (3, 1024)):
            half = n_phi // 2 + 1
            rows = [block[0].shape[1] // half for block in make_grid(n_theta, n_phi, 1.0)._blocks]
            assert sum(rows) == n_theta and max(rows) - min(rows) <= 1
            assert max(rows) * half <= _BLOCK_NODES

    @staticmethod
    def _kernel_with(moments, monkeypatch, *args):
        """The kernel with each arm's moments from ``moments``, a per-beta
        reference."""
        def per_beta(blocks, axis_angle, betas):
            return [moments(blocks, axis_angle, beta) for beta in betas]

        with monkeypatch.context() as patched:
            patched.setattr(diffraction, "_arm_moments", per_beta)
            return _one(*args)

    @pytest.mark.parametrize("n_theta, n_phi", [(128, 128), (127, 129), _uneven_blocks()])
    def test_multi_block_matches_unblocked(self, n_theta, n_phi, monkeypatch):
        # Against the correctly rounded sums, entries agree to 1e-15.  The
        # one-product reference carries its own rounding error of up to
        # 2.3e-15 on these grids (0.56e-15 blocked), hence its wider bound.
        assert len(make_grid(n_theta, n_phi, 1.0)._blocks) > 1
        worst = dict.fromkeys(["moment exact", "moment one-product", "rho exact",
                               "rho one-product"], 0.0)

        def record(key, value, ref):
            worst[key] = max(worst[key], float(np.abs(value - ref).max()))

        for sigma, alpha in self.BEAMS:
            grid = make_grid(n_theta, n_phi, sigma=sigma)
            for axis_angle in (alpha, alpha + math.pi):
                blocked = _arm_moments(grid._blocks, axis_angle, self.BETAS)
                for beta, moments in zip(self.BETAS, blocked, strict=True):
                    args = (grid._blocks, axis_angle, beta)
                    record("moment exact", moments, _exact_arm_moments(*args))
                    record("moment one-product", moments, _unblocked_arm_moments(*args))
            for beta in self.BETAS:
                args = (alpha, beta, grid)
                rho = _one(*args)
                record("rho exact", rho, self._kernel_with(_exact_arm_moments, monkeypatch, *args))
                record("rho one-product", rho,
                       self._kernel_with(_unblocked_arm_moments, monkeypatch, *args))
        assert worst["moment exact"] <= 1e-15 and worst["rho exact"] <= 1e-15, worst
        assert worst["moment one-product"] <= 4e-15 and worst["rho one-product"] <= 4e-15, worst

    @pytest.mark.parametrize("n", [32, 64])
    def test_single_block_bitwise_unblocked(self, n, monkeypatch):
        for sigma, alpha in self.BEAMS:
            grid = make_grid(n, n, sigma=sigma)
            assert len(grid._blocks) == 1
            blocked = _arm_moments(grid._blocks, alpha, self.BETAS)
            for beta, moments in zip(self.BETAS, blocked, strict=True):
                ref = _unblocked_arm_moments(grid._blocks, alpha, beta)
                assert moments.tobytes() == ref.tobytes()
                args = (alpha, beta, grid)
                ref = self._kernel_with(_unblocked_arm_moments, monkeypatch, *args)
                assert _one(*args).tobytes() == ref.tobytes()

    def test_peak_memory_independent_of_grid(self):
        # guards against full-grid row stacks coming back: unblocked, one
        # 256^2 call peaks near 4.8 MB; several betas share each block
        grid = make_grid(256, 256, sigma=1.0)
        tracemalloc.start()
        try:
            _arm_moments(grid._blocks, 0.3, [0.5, -0.5, 0.0, 0.2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024


class TestBetaSweep:
    """One call with a sequence of betas: one pass over the nodes, every beta
    boosted per block, arm B as arm A's geometry under -beta."""

    BETAS = [0.3, -0.3, 0.0, 0.3, -0.0, 0.9, -0.9, 1e-12]

    @pytest.mark.parametrize("n_theta, n_phi", [(8, 7), (48, 48), (128, 128),
                                                _uneven_blocks()])
    @pytest.mark.parametrize("sigmas, alphas", [((0.8, 0.8), (0.9, 0.9)),
                                                ((0.8, 0.5), (0.9, 0.9)),
                                                ((1.5, 1.5), (0.2, 2.0))])
    def test_sweep_equals_single_calls(self, n_theta, n_phi, sigmas, alphas):
        # bit for bit, for each (sigma, alpha) beam on its own grid: signed,
        # duplicate and signed-zero betas, single- and multi-block grids
        for sigma, alpha in dict.fromkeys(zip(sigmas, alphas)):
            grid = make_grid(n_theta, n_phi, sigma=sigma)
            sweep = diffracted_reduced_type1(alpha, self.BETAS, grid)
            assert isinstance(sweep, np.ndarray) and sweep.shape == (len(self.BETAS), 9, 9)
            assert sweep.dtype == complex and not sweep.flags.writeable
            for beta, rho in zip(self.BETAS, sweep):
                assert rho.tobytes() == _one(alpha, beta, grid).tobytes()

    @pytest.mark.parametrize("n_theta, n_phi", [(8, 7), (48, 48), _uneven_blocks()])
    def test_one_grid_serves_every_alpha(self, n_theta, n_phi, monkeypatch):
        # the kernel reads the grid's own block arrays, unchanged:
        # one grid over an alpha sweep gives a fresh grid's matrices bit for
        # bit, and its derived arrays refuse writes
        grid = make_grid(n_theta, n_phi, sigma=0.8)
        derived = [grid.row_theta, *(a for block in grid._blocks for a in block)]
        before = [a.tobytes() for a in derived]
        passed = []
        arm_moments = diffraction._arm_moments

        def recording(blocks, axis_angle, betas):
            passed.append(blocks)
            return arm_moments(blocks, axis_angle, betas)

        monkeypatch.setattr(diffraction, "_arm_moments", recording)
        for alpha in (0.0, 0.9, math.pi / 2, 2.5):
            reused = diffracted_reduced_type1(alpha, self.BETAS, grid)
            fresh = diffracted_reduced_type1(alpha, self.BETAS, make_grid(n_theta, n_phi, sigma=0.8))
            for got, want in zip(reused, fresh, strict=True):
                assert got.tobytes() == want.tobytes()
        assert all(blocks is grid._blocks for blocks in passed[::2])
        assert [a.tobytes() for a in derived] == before
        for array in derived:
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_array_and_empty_sweeps(self):
        grid = make_grid(12, 12, sigma=0.5)
        from_array = diffracted_reduced_type1(0.4, np.array([0.1, 0.2]), grid)
        from_list = diffracted_reduced_type1(0.4, [0.1, 0.2], grid)
        assert from_array.tobytes() == from_list.tobytes()
        empty = diffracted_reduced_type1(0.4, [], grid)
        assert empty.shape == (0, 9, 9) and empty.dtype == complex

    @pytest.mark.parametrize("betas", [["0.1"], [b"0.1"], np.array(["0.1"]), [0.1 + 0j],
                                       np.array([0.1 + 0j]), [None], [True], [0.1, "0.2"]])
    def test_rejects_non_real_betas(self, betas, monkeypatch):
        # the rule the grid applies to sigma, before any node work
        monkeypatch.setattr(diffraction, "_arm_moments", None)
        with pytest.raises(DomainError, match=r"boost velocity must satisfy \|beta\| < 1, got"):
            diffracted_reduced_type1(0.4, betas, make_grid(8, 8, 0.3))

    def test_accepts_int_and_numpy_reals(self):
        grid = make_grid(8, 8, 0.3)
        want = diffracted_reduced_type1(0.0, [0.0, 0.25], grid)
        for alpha, betas in ((0, [0, 0.25]), (np.int64(0), np.array([0.0, 0.25])),
                             (np.float64(0.0), [np.int32(0), np.float32(0.25)])):
            assert diffracted_reduced_type1(alpha, betas, grid).tobytes() == want.tobytes()

    @pytest.mark.parametrize("betas", [0.1, np.float64(0.1), np.array(0.1), [[0.1, 0.2]]])
    def test_rejects_betas_not_1d(self, betas):
        grid = make_grid(12, 12, sigma=0.5)
        with pytest.raises(DomainError, match="betas must be a 1-D sequence"):
            diffracted_reduced_type1(0.4, betas, grid)

    @pytest.mark.parametrize("n_theta, n_phi", [(24, 24), (9, 31), _uneven_blocks()])
    def test_mirror_identity(self, n_theta, n_phi):
        # R_y(pi) conjugates B_z(beta) into B_z(-beta), and the rotations in
        # and back cancel it: the axis at alpha + pi under beta is the axis
        # at alpha under -beta
        worst = 0.0
        for sigma in (0.2, 1.0, 3.0):
            grid = make_grid(n_theta, n_phi, sigma=sigma)
            for alpha in (0.0, 0.9, math.pi / 2, math.pi - 0.01, 4.0):
                betas = [-0.9, -0.3, 0.0, 0.5, 0.9]
                explicit = _arm_moments(grid._blocks, alpha + math.pi, betas)
                mirrored = _arm_moments(grid._blocks, alpha, [-b for b in betas])
                for e, m in zip(explicit, mirrored, strict=True):
                    worst = max(worst, float(np.abs(e - m).max()))
        assert worst <= 1e-15

    @pytest.mark.parametrize("betas", [[0.1, 0.2, 1.0], [1.0, 0.1], [0.1, math.nan],
                                       [-1.5], [0.3, -1.0, 0.2]])
    def test_superluminal_beta_rejected_before_node_work(self, betas, monkeypatch):
        def no_node_work(*args):
            raise AssertionError("node work before the velocity check")

        # the grid holds its node directions; per-beta work is what must wait
        for name in ("_lorentz_rows", "_weighted_rows", "_arm_moments"):
            monkeypatch.setattr(diffraction, name, no_node_work)
        grid = make_grid(16, 16, sigma=0.5)
        with pytest.raises(DomainError, match="boost velocity"):
            diffracted_reduced_type1(0.0, betas, grid)


def _sigma1_negativities(alpha, beta=SweepSpec(0.0, 0.5, 11)):
    """Negativity per beta (0, 0.05, ..., 0.5 by default) on the default 64x64 grid."""
    scenario = Scenario(beta=beta, alpha=alpha, sigma=1.0)
    return run_negativity_sweep(scenario)["negativity"]


class TestNegativitySweep:
    def test_baseline_regression_constant(self):
        [value] = _sigma1_negativities(0.0, beta=0.0)
        assert value == pytest.approx(BASELINE_NEGATIVITY_SIGMA1, abs=1e-9)

    def test_baseline_independent_of_alpha(self):
        # At beta = 0 the beam pointing is a global rotation.
        for alpha in (0.3, math.pi / 2):
            [value] = _sigma1_negativities(alpha, beta=0.0)
            assert value == pytest.approx(BASELINE_NEGATIVITY_SIGMA1, abs=1e-9)

    def test_aligned_boost_always_degrades(self):
        values = _sigma1_negativities(0.0)
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] < values[0] - 0.05

    def test_perpendicular_boost_can_increase_entanglement(self):
        values = _sigma1_negativities(math.pi / 2)
        assert max(values[1:]) > values[0] + 1e-4

    def test_rejects_superluminal_sweep(self):
        with pytest.raises(DomainError):
            _sigma1_negativities(0.0, beta=SweepSpec(0.0, 1.5, 2))
