import numpy as np
import pytest
from conftest import NonHermitianCF

from hetdeconv import (
    ErrorEnsemble,
    ErrorFamily,
    ErrorModel,
    QuadratureGrid,
    QuadratureRule,
    bandlimited_kernel_closed_form,
    bandlimited_kernel_ft,
    build_deconv_weights,
    deconv_kernel,
    deconv_kernel_grid,
    gaussian_kernel,
)
from hetdeconv.simulation import build_ensemble


def _degenerate_ensemble(n):
    return ErrorEnsemble(tuple(ErrorModel(ErrorFamily.DEGENERATE) for _ in range(n)))


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
        assert quad.rule is QuadratureRule.GAUSS_LEGENDRE
        assert abs(quad.weights.sum() - 2.0) < 1e-10
        assert np.all(np.diff(quad.nodes) > 0)
        assert quad.nodes[0] > -1.0 and quad.nodes[-1] < 1.0
        # symmetrized: paired nodes are exact negations
        assert np.all(quad.nodes == -quad.nodes[::-1])
        assert np.all(quad.weights == quad.weights[::-1])

    def test_trapezoid_includes_endpoints(self):
        quad = QuadratureGrid.trapezoid(65)
        assert quad.nodes[0] == -1.0 and quad.nodes[-1] == 1.0
        assert abs(quad.weights.sum() - 2.0) < 1e-10

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            QuadratureGrid.gauss_legendre(8)

    def test_decreasing_nodes_rejected(self):
        nodes = np.linspace(1, -1, 20)
        weights = np.full(20, 0.1)
        with pytest.raises(ValueError):
            QuadratureGrid(nodes, weights, QuadratureRule.TRAPEZOID)

    def test_bad_weight_sum_rejected(self):
        nodes = np.linspace(-1, 1, 20)
        with pytest.raises(ValueError):
            QuadratureGrid(nodes, np.full(20, 0.5), QuadratureRule.TRAPEZOID)


class TestScalarKernels:
    def test_gaussian_kernel_at_zero(self):
        assert gaussian_kernel(0.0) == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-12)

    def test_gaussian_kernel_tails(self):
        assert gaussian_kernel(10.0) < 1e-8
        assert gaussian_kernel(-10.0) < 1e-8

    def test_gaussian_kernel_even(self):
        assert gaussian_kernel(1.3) == gaussian_kernel(-1.3)

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
    def test_degenerate_weights_are_transform_over_n(self, quad128):
        n = 4
        w = build_deconv_weights(_degenerate_ensemble(n), 0.1, quad128)
        expected = bandlimited_kernel_ft(quad128.nodes) / n
        assert np.allclose(w.values.real, expected, rtol=0, atol=1e-15)
        assert np.all(w.values.imag == 0.0)

    def test_endpoint_nodes_get_zero_weight(self):
        quad = QuadratureGrid.trapezoid(33)
        w = build_deconv_weights(_degenerate_ensemble(2), 0.1, quad)
        assert w.values[0, 0] == 0.0 and w.values[0, -1] == 0.0

    def test_homoscedastic_laplace_closed_form(self, quad128):
        n, s, b = 5, 0.8, 0.2
        ens = ErrorEnsemble(tuple(ErrorModel(ErrorFamily.LAPLACE, s) for _ in range(n)))
        w = build_deconv_weights(ens, b, quad128)
        v = quad128.nodes
        expected = bandlimited_kernel_ft(v) * (1.0 + s * (v / b) ** 2 / 2.0) / n
        assert np.allclose(w.values.real, expected, rtol=1e-12, atol=1e-15)

    def test_shape_and_finiteness(self, quad64):
        ens = build_ensemble(ErrorFamily.LAPLACE, 11)
        w = build_deconv_weights(ens, 0.05, quad64)
        assert w.values.shape == (11, 64)
        assert np.all(np.isfinite(w.values))


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

    def test_non_hermitian_law_trips_the_realness_check(self, quad64):
        ens = ErrorEnsemble((NonHermitianCF(), NonHermitianCF(variance=0.8, phase=-0.3)))
        w = build_deconv_weights(ens, 0.5, quad64)
        with pytest.raises(AssertionError):
            deconv_kernel(w, 0, 1.0)

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
