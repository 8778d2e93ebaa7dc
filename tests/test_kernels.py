import numpy as np
import pytest
from conftest import underflowing_ensemble
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    bandlimited_kernel_closed_form,
    deconv_kernel,
    full_weights,
    stacked_kernel_grid,
    trapezoid_grid,
)

from hetdeconv import (
    EnsembleInvalid,
    ErrorEnsemble,
    ErrorFamily,
    ErrorModel,
    KernelCache,
    QuadratureGrid,
    Sample,
    ValidationReport,
    bandlimited_kernel_ft,
    build_deconv_weights,
    deconv_kernel_grid,
    gaussian_kernel,
)
from hetdeconv.error_models import shared_denominator
from hetdeconv.kernels import SMALLEST_NORMAL, deconv_left
from hetdeconv.simulation import build_ensemble


def _degenerate_ensemble(n):
    return ErrorEnsemble(tuple(ErrorModel(ErrorFamily.DEGENERATE) for _ in range(n)))


def _quadrature_factor(quad):
    """weight / pi at the nodes v >= 0, halved at v = 0: what c_jv carries besides psi_j."""
    factor = quad.weights[quad.size // 2:] / np.pi
    if quad.size % 2:
        factor[0] *= 0.5
    return factor


def _plain_kernel(u, quad):
    """The band-limited kernel on the production quadrature path.

    One error-free observation at 0 has deconvolution kernel L(u) = K(u);
    evaluated in chunks to bound the (M, len(u)) phase matrix.
    """
    weights = build_deconv_weights(_degenerate_ensemble(1), 1.0, quad)
    if np.ndim(u) == 0:
        return deconv_kernel(weights, 0, u)
    chunks = np.array_split(u, -(-u.size // 10_000))
    return np.concatenate([deconv_kernel_grid(weights, [0.0], c)[0] for c in chunks])


class TestQuadratureGrid:
    def test_gauss_legendre_invariants(self):
        quad = QuadratureGrid.gauss_legendre(64)
        assert quad.size == 64
        assert abs(quad.weights.sum() - 2.0) < 1e-10
        assert np.all(np.diff(quad.nodes) > 0)
        assert quad.nodes[0] > -1.0 and quad.nodes[-1] < 1.0
        # symmetrized: paired nodes are exact negations
        assert np.all(quad.nodes == -quad.nodes[::-1])
        assert np.all(quad.weights == quad.weights[::-1])

    def test_trapezoid_includes_endpoints(self):
        quad = trapezoid_grid(65)
        assert quad.nodes[0] == -1.0 and quad.nodes[-1] == 1.0
        assert abs(quad.weights.sum() - 2.0) < 1e-10

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            QuadratureGrid.gauss_legendre(8)

    def test_decreasing_nodes_rejected(self):
        nodes = np.linspace(1, -1, 20)
        weights = np.full(20, 0.1)
        with pytest.raises(ValueError):
            QuadratureGrid(nodes, weights)

    def test_bad_weight_sum_rejected(self):
        nodes = np.linspace(-1, 1, 20)
        with pytest.raises(ValueError):
            QuadratureGrid(nodes, np.full(20, 0.5))

    def test_unmirrored_grid_is_rejected(self):
        # raw linspace nodes miss exact mirror symmetry by an ulp for m = 20
        nodes = np.linspace(-1.0, 1.0, 20)
        assert not np.array_equal(nodes, -nodes[::-1])
        with pytest.raises(ValueError, match="mirror"):
            QuadratureGrid(nodes, np.full(20, 0.1))
        symmetric = 0.5 * (nodes - nodes[::-1])
        weights = np.full(20, 0.1)
        weights[0], weights[-1] = 0.09, 0.11
        with pytest.raises(ValueError, match="mirror"):
            QuadratureGrid(symmetric, weights)
        QuadratureGrid(symmetric, np.full(20, 0.1))


class TestScalarKernels:
    def test_gaussian_kernel_at_zero(self):
        assert gaussian_kernel(0.0) == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-12)

    def test_gaussian_kernel_tails(self):
        assert gaussian_kernel(10.0) < 1e-8
        assert gaussian_kernel(-10.0) < 1e-8

    def test_gaussian_kernel_even(self):
        assert gaussian_kernel(1.3) == gaussian_kernel(-1.3)

    def test_gaussian_kernel_has_no_subnormal_and_keeps_every_normal_value(self):
        tiny = np.finfo(float).tiny
        u = np.concatenate([np.linspace(-40.0, 40.0, 400_001), [37.5, 37.6, 38.5, 38.6, 1e100]])
        k = gaussian_kernel(u)
        exact = np.exp(-0.5 * u * u) / np.sqrt(2 * np.pi)
        assert np.any((exact > 0) & (exact < tiny))        # the grid crosses the subnormal range
        assert not np.any((k != 0) & (np.abs(k) < tiny))
        normal = exact >= tiny
        assert np.array_equal(k[normal], exact[normal])
        assert np.all(k[~normal] == 0.0)

    @pytest.mark.filterwarnings("error")
    def test_an_exponent_beyond_the_double_range_is_a_zero_kernel_and_no_warning(self):
        # (w - t) / h at h = 1e-300: -u^2/2 overflows to -inf, whose kernel is exactly 0
        u = np.array([4e300, -1e300, 1e155, np.inf, 0.0])
        assert np.array_equal(gaussian_kernel(u), [0.0, 0.0, 0.0, 0.0, gaussian_kernel(0.0)])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(u=st.lists(
        st.just(0.0)
        | st.floats(-SMALLEST_NORMAL, SMALLEST_NORMAL)                # subnormals
        | st.floats(37.0, 39.0) | st.floats(-39.0, -37.0)            # around the flush
        | st.floats(-1e155, 1e155),                                  # u^2 overflows past 1.3e154
        min_size=1, max_size=50))
    def test_the_kernel_in_place_equals_the_kernel_and_the_former_product_order(self, u):
        u = np.array(u)
        want = gaussian_kernel(u)
        assert gaussian_kernel(u.copy(), out=np.empty_like(u)).tobytes() == want.tobytes()
        same = u.copy()
        assert gaussian_kernel(same, out=same) is same and same.tobytes() == want.tobytes()
        # (-u / 2) u, the order the kernel once took, rounds to the same kernel
        with np.errstate(over="ignore"):
            former = np.exp(-0.5 * u * u) / np.sqrt(2 * np.pi)
        former[former < SMALLEST_NORMAL] = 0.0
        assert want.tobytes() == former.tobytes()

    def test_transform_values(self):
        assert bandlimited_kernel_ft(0.0) == 1.0
        assert bandlimited_kernel_ft(1.0) == 0.0
        assert bandlimited_kernel_ft(-1.0) == 0.0
        assert bandlimited_kernel_ft(0.5) == pytest.approx(0.421875, abs=1e-15)
        assert bandlimited_kernel_ft(1.7) == 0.0

    def test_kernel_at_zero_exact_value(self, quad128):
        expected = 16.0 / (35.0 * np.pi)
        assert _plain_kernel(0.0, quad128) == pytest.approx(expected, abs=1e-10)
        assert bandlimited_kernel_closed_form(0.0) == pytest.approx(expected, abs=1e-15)

    def test_two_path_agreement(self, quad128):
        u = np.linspace(-50.0, 50.0, 4001)
        diff = np.abs(_plain_kernel(u, quad128) - bandlimited_kernel_closed_form(u))
        assert diff.max() < 1e-10

    def test_closed_form_branches_agree_with_quadrature(self, quad128):
        # both sides of the series/sin-cos switchover at |u| = 2
        for u in (1.999999, 2.000001, -1.999999, -2.000001):
            assert bandlimited_kernel_closed_form(u) == pytest.approx(
                _plain_kernel(u, quad128), abs=1e-12
            )

    def test_unit_mass_by_fine_trapezoid(self, quad128):
        u = np.linspace(-200.0, 200.0, 80_001)
        total = np.trapezoid(_plain_kernel(u, quad128), u)
        assert total == pytest.approx(1.0, abs=1e-4)


class TestDeconvWeights:
    """The half-node cosine coefficients c_jv, read with the quadrature factor divided out."""

    def test_degenerate_weights_are_transform_over_n(self, quad128):
        n = 4
        w = build_deconv_weights(_degenerate_ensemble(n), 0.1, quad128)
        expected = bandlimited_kernel_ft(w.nodes) / n
        assert np.array_equal(w.nodes, quad128.nodes[64:])
        assert np.allclose(w.values / _quadrature_factor(quad128), expected, rtol=0, atol=1e-15)
        assert w.values.dtype == float

    def test_endpoint_nodes_get_zero_weight(self):
        quad = trapezoid_grid(33)
        w = build_deconv_weights(_degenerate_ensemble(2), 0.1, quad)
        # v = 1 is the last half node; v = -1 is its mirror image
        assert w.nodes[-1] == 1.0 and w.values[0, -1] == 0.0

    def test_homoscedastic_laplace_closed_form(self, quad128):
        n, s, b = 5, 0.8, 0.2
        ens = ErrorEnsemble(tuple(ErrorModel(ErrorFamily.LAPLACE, s) for _ in range(n)))
        w = build_deconv_weights(ens, b, quad128)
        v = w.nodes
        expected = bandlimited_kernel_ft(v) * (1.0 + s * (v / b) ** 2 / 2.0) / n
        assert np.allclose(w.values / _quadrature_factor(quad128), expected,
                           rtol=1e-12, atol=1e-15)

    def test_shape_and_finiteness(self, quad64):
        ens = build_ensemble(ErrorFamily.LAPLACE, 11)
        w = build_deconv_weights(ens, 0.05, quad64)
        assert w.values.shape == (11, 32)
        assert np.all(np.isfinite(w.values))

    def test_odd_grid_keeps_the_zero_node_at_half_its_coefficient(self):
        quad = trapezoid_grid(65)
        n = 3
        w = build_deconv_weights(_degenerate_ensemble(n), 0.1, quad)
        assert w.values.shape == (n, 33) and w.nodes[0] == 0.0
        assert w.values[0, 0] == pytest.approx(quad.weights[32] / np.pi / n / 2.0, rel=1e-15)
        expected = bandlimited_kernel_ft(w.nodes) / n
        assert np.allclose(w.values / _quadrature_factor(quad), expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("ens", [
        build_ensemble(ErrorFamily.GAUSSIAN, 7),
        ErrorEnsemble.from_arrays(["gaussian", "laplace", "degenerate", "laplace"] * 3,
                                  [0.3, 0.5, 0.0, 0.1] * 3),
    ], ids=["gaussian", "mixed"])
    def test_weights_are_the_half_of_the_full_complex_weights(self, ens):
        # c_jv is bit for bit the v >= 0 half of the full weights times weight / pi
        for quad in (QuadratureGrid.gauss_legendre(64), trapezoid_grid(65)):
            w = build_deconv_weights(ens, 0.15, quad)
            half = quad.size // 2
            expected = full_weights(w)[:, half:] * (quad.weights[half:] / np.pi)
            if quad.size % 2:
                expected[:, 0] *= 0.5
            assert np.array_equal(w.values, expected)

    @pytest.mark.parametrize("family", [ErrorFamily.GAUSSIAN, ErrorFamily.LAPLACE])
    def test_weights_keep_the_denominator_and_its_report(self, family):
        # S(v/b) on all M nodes and its passed report, as tabulated from the CFs
        for quad in (QuadratureGrid.gauss_legendre(64), trapezoid_grid(65)):
            ens, b = build_ensemble(family, 9), 0.07
            w = build_deconv_weights(ens, b, quad)
            denom = shared_denominator(ens.cf_matrix(quad.nodes / b))
            assert w.denominator.shape == (quad.size,)
            assert np.array_equal(w.denominator, denom)
            assert not w.denominator.flags.writeable
            with pytest.raises(ValueError):
                w.denominator[0] = 1.0
            assert w.report == ValidationReport.from_denominator(b, quad.nodes / b, denom)
            assert w.report.passed

    def test_invalid_report_is_that_of_the_all_node_tabulation(self, quad64):
        # S(v/b) tabulated on the nodes v >= 0 and mirrored reports as the all-node S
        ens, b = underflowing_ensemble(3), 0.05
        with pytest.raises(EnsembleInvalid) as info:
            build_deconv_weights(ens, b, quad64)
        freqs = quad64.nodes / b
        denom = shared_denominator(ens.cf_matrix(freqs))
        report = info.value.report
        assert report == ValidationReport.from_denominator(b, freqs, denom)
        half = quad64.size // 2
        failing = np.array(report.failing_indices)
        assert (failing < half).any() and (failing >= half).any()
        mirror = quad64.size - 1 - report.min_index
        assert {report.min_index, mirror} <= set(report.failing_indices)


class TestDeconvKernelEvaluation:
    def test_degenerate_reduces_to_plain_kernel(self, quad128):
        n = 3
        w = build_deconv_weights(_degenerate_ensemble(n), 0.1, quad128)
        for arg in (0.0, 0.9, -2.4, 7.7):
            expected = bandlimited_kernel_closed_form(arg) / n
            for j in range(n):
                assert deconv_kernel(w, j, arg) == pytest.approx(expected, abs=1e-10)

    def test_single_observation_at_zero(self, quad128):
        w = build_deconv_weights(_degenerate_ensemble(1), 0.25, quad128)
        assert deconv_kernel(w, 0, 0.0) == pytest.approx(16.0 / (35.0 * np.pi), abs=1e-10)

    def test_homoscedastic_gaussian_matches_direct_quadrature_oracle(self, quad128):
        # oracle: dense-trapezoid Fourier inversion of the classical
        # homoscedastic formula kernel_ft(v) / (n cf(v/b))
        n, s, b = 6, 0.3, 0.15
        ens = ErrorEnsemble(tuple(ErrorModel(ErrorFamily.GAUSSIAN, s) for _ in range(n)))
        w = build_deconv_weights(ens, b, quad128)
        v = np.linspace(-1.0, 1.0, 40_001)
        profile = bandlimited_kernel_ft(v) / (n * np.exp(-0.5 * s * (v / b) ** 2))
        for arg in (-1.7, 0.0, 0.4, 2.2):
            oracle = np.trapezoid(np.cos(v * arg) * profile, v) / (2 * np.pi)
            assert deconv_kernel(w, 2, arg) == pytest.approx(oracle, abs=1e-8)

    def test_evenness_in_argument(self, quad128):
        ens = build_ensemble(ErrorFamily.LAPLACE, 9)
        w = build_deconv_weights(ens, 0.1, quad128)
        rng = np.random.default_rng(3)
        for _ in range(20):
            j = int(rng.integers(0, 9))
            arg = float(rng.uniform(0.1, 6.0))
            assert deconv_kernel(w, j, arg) == pytest.approx(
                deconv_kernel(w, j, -arg), abs=1e-10
            )

    def test_total_mass_near_one(self, quad128):
        # sum_j of each observation's kernel integrates to 1
        ens = ErrorEnsemble(tuple(ErrorModel(ErrorFamily.LAPLACE, 0.2 + 0.1 * k)
                                  for k in range(5)))
        w = build_deconv_weights(ens, 0.2, quad128)
        grid = np.linspace(-100.0, 100.0, 20_001)
        vals = deconv_kernel_grid(w, np.zeros(5), grid)
        total = np.trapezoid(vals.sum(axis=0), grid)
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_grid_evaluation_matches_scalar_path(self, quad64):
        ens = build_ensemble(ErrorFamily.GAUSSIAN, 8)
        b = 0.15
        w = build_deconv_weights(ens, b, quad64)
        obs = np.linspace(-1.0, 1.0, 8)
        evals = np.array([-0.7, 0.0, 1.3])
        grid_vals = deconv_kernel_grid(w, obs / b, evals / b)
        for j in range(8):
            for i, t in enumerate(evals):
                direct = deconv_kernel(w, j, (t - obs[j]) / b)
                assert grid_vals[j, i] == pytest.approx(direct, rel=1e-11, abs=1e-13)

    @pytest.mark.parametrize("quad", [QuadratureGrid.gauss_legendre(64),
                                      trapezoid_grid(65)], ids=["gl64", "trap65"])
    def test_grid_equals_the_stacked_operand_product(self, quad):
        ens, b = build_ensemble(ErrorFamily.LAPLACE, 9), 0.1
        w = build_deconv_weights(ens, b, quad)
        rng = np.random.default_rng(5)
        obs, evals = rng.uniform(-2.5, 2.5, 9) / b, np.linspace(-2.0, 2.0, 13) / b
        assert np.array_equal(deconv_kernel_grid(w, obs, evals), stacked_kernel_grid(w, obs, evals))

    def test_index_out_of_range(self, quad64):
        w = build_deconv_weights(_degenerate_ensemble(2), 0.1, quad64)
        with pytest.raises(IndexError):
            deconv_kernel(w, 2, 0.0)


class TestSelfConvergence:
    """Doubling the node count must not move converged evaluations.

    The ordinary-smooth (Laplace) family is converged on the whole
    bandwidth ladder; the supersmooth (Gaussian) family is converged only
    for b >= 0.08 (the acceptance suite carries the full stated claim and
    documents where it breaks).
    """

    @pytest.mark.parametrize("family,b_values", [
        (ErrorFamily.LAPLACE, (0.02, 0.05, 0.1, 0.2)),
        (ErrorFamily.GAUSSIAN, (0.08, 0.1, 0.15, 0.2)),
    ])
    def test_m64_vs_m128(self, family, b_values, quad64, quad128):
        ens = build_ensemble(family, 50)
        rng = np.random.default_rng(11)
        for b in b_values:
            w64 = build_deconv_weights(ens, b, quad64)
            w128 = build_deconv_weights(ens, b, quad128)
            for _ in range(25):
                j = int(rng.integers(0, 50))
                arg = float(rng.uniform(-4.0, 4.0))
                diff = abs(deconv_kernel(w64, j, arg) - deconv_kernel(w128, j, arg))
                assert diff < 1e-6, f"family={family} b={b} j={j} arg={arg}: diff={diff}"


_FAMILIES = st.sampled_from([ErrorFamily.GAUSSIAN, ErrorFamily.LAPLACE, ErrorFamily.DEGENERATE])


@st.composite
def _laws(draw):
    family = draw(_FAMILIES)
    if family is ErrorFamily.DEGENERATE:
        return ErrorModel(family)
    return ErrorModel(family, draw(st.floats(0.01, 1.0)))


@st.composite
def _quadratures(draw):
    m = draw(st.integers(16, 81))
    if draw(st.booleans()):
        return QuadratureGrid.gauss_legendre(m)
    return trapezoid_grid(m)


def _assert_grid_matches_scalar(weights, obs, evals):
    """deconv_kernel_grid against the complex scalar sum, to 1e-11 of the sum of |terms|."""
    b = weights.bandwidth
    grid = deconv_kernel_grid(weights, obs / b, evals / b)
    quad = weights.quad
    full = full_weights(weights)
    for j in range(weights.n):
        scale = (quad.weights * np.abs(full[j])).sum() / (2 * np.pi)
        for i, t in enumerate(evals):
            direct = deconv_kernel(weights, j, (t - obs[j]) / b)
            assert abs(grid[j, i] - direct) <= 1e-11 * scale, (j, i, grid[j, i], direct)


class TestRealHalfNodeKernel:
    """deconv_kernel_grid, a real cosine sum, against the complex scalar oracle."""

    @settings(max_examples=60, deadline=None)
    @given(
        laws=st.lists(_laws(), min_size=1, max_size=5),
        quad=_quadratures(),
        b=st.floats(0.05, 1.0),
        obs=st.lists(st.floats(-3.0, 3.0), min_size=5, max_size=5),
        evals=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4),
    )
    def test_built_in_laws_take_the_real_path_and_match_the_oracle(
            self, laws, quad, b, obs, evals):
        weights = build_deconv_weights(ErrorEnsemble(laws), b, quad)
        assert weights.values.dtype == float
        _assert_grid_matches_scalar(weights, np.array(obs[:len(laws)]), np.array(evals))

    @pytest.mark.parametrize("m", [16, 17, 64, 65])
    def test_every_built_in_grid_is_mirrored(self, m):
        for quad in (QuadratureGrid.gauss_legendre(m), trapezoid_grid(m)):
            assert np.array_equal(quad.nodes, -quad.nodes[::-1])
            assert np.array_equal(quad.weights, quad.weights[::-1])

    def test_vanishing_cf_is_still_invalid(self, quad64):
        with pytest.raises(EnsembleInvalid):
            build_deconv_weights(underflowing_ensemble(2), 0.05, quad64)


class TestPerBandwidthBuild:
    """The kernels of several b, built b by b into one array, equal their one-b builds."""

    @pytest.mark.parametrize("m", [64, 65], ids=["gl64", "gl65-node-at-0"])
    @pytest.mark.parametrize("family", [ErrorFamily.GAUSSIAN, ErrorFamily.LAPLACE])
    def test_cache_lt_equals_the_one_b_builds(self, m, family):
        quad = QuadratureGrid.gauss_legendre(m)
        ens, bs = build_ensemble(family, 37), [0.065, 0.11, 0.155, 0.2, 0.5]
        rng = np.random.default_rng(9)
        obs, evals = rng.uniform(-2.5, 2.5, 37), np.linspace(-2.0, 2.0, 13)
        sample = Sample(rng.uniform(-2, 2, 37), obs, rng.normal(size=37), ens)
        cache = KernelCache(sample, [0.0], evals, quad)
        lt = cache.lt(bs)
        assert lt.shape == (len(bs), 37, 13)
        for k, b in enumerate(bs):
            w = build_deconv_weights(ens, b, quad)
            one = deconv_kernel_grid(w, obs / b, evals / b)
            assert lt[k].tobytes() == one.tobytes(), b
            assert np.array_equal(one, stacked_kernel_grid(w, obs / b, evals / b))
            out = np.empty_like(one)
            assert deconv_kernel_grid(w, obs / b, evals / b, out=out) is out
            assert out.tobytes() == one.tobytes()
        # any run of b builds the same kernels
        assert cache.lt(bs[1:3]).tobytes() == lt[1:3].tobytes()

    @pytest.mark.parametrize("m", [64, 65], ids=["gl64", "gl65-node-at-0"])
    def test_the_left_factor_is_written_into_a_strided_out(self, m):
        # the (rows, 2, M) slot of a wider row-major buffer, as predict_grid passes it
        w = build_deconv_weights(build_ensemble(ErrorFamily.GAUSSIAN, 11), 0.2,
                                 QuadratureGrid.gauss_legendre(m))
        obs, half = np.linspace(-9.0, 9.0, 11), w.nodes.size
        buffer = np.full((11, 2, 2, half), np.nan)
        rows = slice(3, 8)
        got = deconv_left(w, obs, rows, out=buffer[rows, 1])
        assert got.shape == (5, 2 * half) and np.shares_memory(got, buffer)
        assert buffer[rows, 1].reshape(5, -1).tobytes() == deconv_left(w, obs)[rows].tobytes()
        assert got.tobytes() == deconv_left(w, obs)[rows].tobytes()
        assert np.isnan(np.delete(buffer, np.s_[3:8], axis=0)).all() and np.isnan(buffer[:, 0]).all()
        with pytest.raises(ValueError, match="out of shape"):
            deconv_left(w, obs, rows, out=np.empty((5, 2 * half)))

    def test_observation_arguments_must_match_the_sample_size(self, quad64):
        w = build_deconv_weights(build_ensemble(ErrorFamily.LAPLACE, 6), 0.2, quad64)
        for obs in (np.zeros(5), np.zeros(7), np.zeros((2, 6))):
            with pytest.raises(ValueError, match=f"{obs.size} observation arguments .* n=6"):
                deconv_kernel_grid(w, obs, np.zeros(3))
