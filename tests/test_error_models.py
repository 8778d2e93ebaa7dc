import numpy as np
import pytest
from conftest import underflowing_ensemble
from oracles import law_cf, masked_cf_matrix, shared_denominator

from hetdeconv import (
    EnsembleInvalid,
    ErrorEnsemble,
    ErrorFamily,
    ErrorModel,
    ValidationReport,
    bandlimited_kernel_ft,
    build_deconv_weights,
)


def _gaussians(variance, n):
    return ErrorEnsemble(tuple(ErrorModel(ErrorFamily.GAUSSIAN, variance) for _ in range(n)))


def _degenerates(n):
    return ErrorEnsemble(tuple(ErrorModel(ErrorFamily.DEGENERATE) for _ in range(n)))


def _denominator(ensemble, v):
    """S(v) = sum_k cf_k(v)^2 of ``ensemble``, shape (len(v),)."""
    return shared_denominator(ensemble.cf_matrix(v))


def _report(ensemble, bandwidth, freqs):
    """The validation report of S(v) at ``freqs``."""
    return ValidationReport.from_denominator(bandwidth, freqs, _denominator(ensemble, freqs))


def _cf(law, v):
    """cf(v) of the one law ``law``, shaped as v, tabulated by a one-law ensemble.

    Checked bit for bit against the per-law reference.
    """
    got = ErrorEnsemble((law,)).cf_matrix(v)[0].reshape(np.shape(v))
    assert got.tobytes() == law_cf(law, v).tobytes()
    return got


def _draw_one(law, rng):
    """One error from ``law``, drawn on its own."""
    if law.family is ErrorFamily.GAUSSIAN:
        return rng.normal(0.0, np.sqrt(law.variance), 1)[0]
    if law.family is ErrorFamily.LAPLACE:
        return rng.laplace(0.0, np.sqrt(law.variance / 2.0), 1)[0]
    return 0.0


class TestCharacteristicFunctions:
    def test_gaussian_at_zero(self):
        assert _cf(ErrorModel(ErrorFamily.GAUSSIAN, 1.0), 0.0) == 1.0

    def test_laplace_hand_value(self):
        # 1 / (1 + s v^2 / 2) with s=2, v=1
        assert _cf(ErrorModel(ErrorFamily.LAPLACE, 2.0), 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_degenerate_is_one_everywhere(self):
        m = ErrorModel(ErrorFamily.DEGENERATE)
        assert _cf(m, 37.2) == 1.0
        assert np.all(_cf(m, np.linspace(-100, 100, 101)) == 1.0)

    @pytest.mark.parametrize("family,variance", [
        (ErrorFamily.GAUSSIAN, 0.3),
        (ErrorFamily.GAUSSIAN, 2.5),
        (ErrorFamily.LAPLACE, 0.3),
        (ErrorFamily.LAPLACE, 2.5),
        (ErrorFamily.DEGENERATE, 0.0),
    ])
    def test_bounds_unit_at_zero_and_even(self, family, variance):
        m = ErrorModel(family, variance)
        v = np.linspace(-30.0, 30.0, 601)
        vals = _cf(m, v)
        assert _cf(m, 0.0) == 1.0
        assert np.all(np.abs(vals) <= 1.0 + 1e-15)
        # built-in families are symmetric: cf is real and even
        assert np.allclose(vals, _cf(m, -v), rtol=0, atol=0)

    @pytest.mark.filterwarnings("error")
    def test_a_frequency_beyond_the_double_range_is_a_zero_cf_and_no_warning(self):
        # v / b at b = 1e-300: variance * v^2 / 2 overflows to inf, where both CFs are 0
        ens = ErrorEnsemble.from_arrays(["gaussian", "laplace", "degenerate"], [0.1, 0.1, 0.0])
        cf = ens.cf_matrix([-1e300, 1e160, 0.0])
        assert np.array_equal(cf, [[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("families", [["degenerate"], ["gaussian", "laplace", "degenerate"],
                                          ["degenerate", "laplace"], ["gaussian", "degenerate"]],
                             ids=["degenerate", "mixed", "mixed-no-gaussian", "mixed-no-laplace"])
    def test_every_slice_equals_the_per_law_cf_to_the_ends_of_the_double_range(self, families):
        # each row is its law's CF bit for bit at |v| = 0, 1e308 (p past the
        # double range) and inf, where a degenerate law's p = 0 v^2 is NaN,
        # through row slices and out=, without a warning
        v = np.array([-np.inf, -1e308, 0.0, 1e308, np.inf])
        names = (families * 5)[:13]
        laws = [ErrorModel(f, 0.0 if f == "degenerate" else 0.1 * (k + 1))
                for k, f in enumerate(names)]
        ens = ErrorEnsemble.from_arrays(names, [law.variance for law in laws])
        whole = np.vstack([law_cf(law, v) for law in laws])
        assert np.all(whole[np.array(names) == "degenerate"] == 1.0)
        assert ens.cf_matrix(v).tobytes() == whole.tobytes()
        for rows in (slice(0, 1), slice(2, 9), slice(12, 13), slice(4, None)):
            assert ens.cf_matrix(v, rows).tobytes() == whole[rows].tobytes()
            buffer = np.full((2, whole[rows].shape[0], v.size), np.nan)
            out = buffer[1]
            assert ens.cf_matrix(v, rows, out=out) is out
            assert out.tobytes() == whole[rows].tobytes() and np.isnan(buffer[0]).all()

    def test_degenerate_rejects_positive_variance(self):
        with pytest.raises(ValueError):
            ErrorModel(ErrorFamily.DEGENERATE, 0.5)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            ErrorModel(ErrorFamily.GAUSSIAN, -1.0)

    def test_draw_variance_matches(self):
        rng = np.random.default_rng(42)
        s = 0.7
        draws = ErrorEnsemble.from_arrays(["laplace"] * 200_000, [s] * 200_000).draw(rng)
        assert np.var(draws) == pytest.approx(s, rel=0.03)


class TestEnsembleDenominator:
    def test_degenerate_ensemble_counts_models(self):
        ens = _degenerates(4)
        for v in (0.0, 1.3, -81.0):
            assert _denominator(ens, v) == 4.0

    def test_two_gaussians_hand_value(self):
        ens = _gaussians(1.0, 2)
        assert _denominator(ens, 1.0) == pytest.approx(2.0 * np.exp(-1.0), rel=1e-14)

    def test_at_zero_equals_n(self):
        rng = np.random.default_rng(0)
        for n in (1, 3, 17):
            models = tuple(
                ErrorModel([ErrorFamily.GAUSSIAN, ErrorFamily.LAPLACE][rng.integers(0, 2)],
                           rng.uniform(0.1, 2.0))
                for _ in range(n)
            )
            assert _denominator(ErrorEnsemble(models), 0.0) == float(n)

    def test_even_in_frequency(self):
        rng = np.random.default_rng(1)
        models = tuple(ErrorModel(ErrorFamily.LAPLACE, rng.uniform(0.1, 1.0)) for _ in range(5))
        ens = ErrorEnsemble(models)
        v = rng.uniform(0.1, 40.0, 50)
        assert np.allclose(_denominator(ens, v), _denominator(ens, -v), rtol=1e-12, atol=0)


def _psi(ens, b, quad):
    """(v, psi): psi[j] = cf_j(v) / S(v) at the scaled nodes v = nodes / b, v >= 0.

    Read off build_deconv_weights by dividing out the quadrature factor
    (weight / pi) and the kernel transform, which is positive at every
    interior Gauss-Legendre node; ``quad`` has an even node count, so no
    node sits at 0.
    """
    weights = build_deconv_weights(ens, b, quad)
    half = quad.nodes[quad.size // 2:]
    factor = bandlimited_kernel_ft(half) * (quad.weights[quad.size // 2:] / np.pi)
    return half / b, weights.coefficients() / factor


class TestDeconvWeights:
    """The weights cf_j(-v) / S(v), as tabulated by build_deconv_weights."""

    def test_degenerate_reduces_to_uniform(self, quad64):
        _, psi = _psi(_degenerates(4), 0.77, quad64)
        assert np.allclose(psi, 0.25, rtol=0, atol=1e-15)

    def test_two_gaussians_hand_value(self, quad64):
        # b = largest node puts the last scaled node at v = 1 exactly
        v, psi = _psi(_gaussians(1.0, 2), quad64.nodes[-1], quad64)
        expected = np.exp(0.5) / 2.0  # exp(-1/2) / (2 exp(-1))
        assert v[-1] == 1.0
        assert psi[0, -1] == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("family", [ErrorFamily.GAUSSIAN, ErrorFamily.LAPLACE])
    def test_homoscedastic_reduction(self, family, quad64):
        # identical models: weight * n * cf(v) == 1, for |v| up to 4.2
        n, s = 7, 0.6
        ens = ErrorEnsemble(tuple(ErrorModel(family, s) for _ in range(n)))
        v, psi = _psi(ens, quad64.nodes[-1] / 4.2, quad64)
        cf = law_cf(ErrorModel(family, s), v)
        assert np.allclose(psi[0] * n * cf, 1.0, rtol=0, atol=1e-12)

    def test_weights_times_cf_sum_to_one(self, quad64):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            models = tuple(
                ErrorModel([ErrorFamily.GAUSSIAN, ErrorFamily.LAPLACE][rng.integers(0, 2)],
                           rng.uniform(0.05, 1.5))
                for _ in range(n)
            )
            ens = ErrorEnsemble(models)
            v, psi = _psi(ens, 1.0 / 8.0, quad64)
            cf = ens.cf_matrix(v)
            total = (psi * cf).sum(axis=0)
            assert np.allclose(total, 1.0, rtol=0, atol=1e-12)

    def test_degenerate_denominator_raises(self, quad64):
        # scaled nodes reach |v| ~ 19.5, where S(v) underflows to 0
        with pytest.raises(EnsembleInvalid) as info:
            build_deconv_weights(underflowing_ensemble(1), 0.05, quad64)
        assert not info.value.report.passed


class TestValidation:
    def test_all_degenerate_passes_with_min_n(self):
        report = _report(_degenerates(6), 0.1, np.linspace(-10, 10, 41))
        assert report.passed
        assert report.min_denominator == 6.0

    def test_one_gaussian_rest_degenerate_passes(self):
        models = (ErrorModel(ErrorFamily.GAUSSIAN, 1.0),) + tuple(
            ErrorModel(ErrorFamily.DEGENERATE) for _ in range(3)
        )
        report = _report(ErrorEnsemble(models), 0.05, np.linspace(-20, 20, 81))
        assert report.passed
        assert report.min_denominator >= 3.0

    def test_vanishing_cf_fails_with_offending_nodes(self, quad64):
        with pytest.raises(EnsembleInvalid) as info:
            build_deconv_weights(underflowing_ensemble(2), 0.05, quad64)
        report = info.value.report
        freqs = quad64.nodes / 0.05
        assert not report.passed
        assert report.failing_indices
        # S(v) underflows in both tails only: every failing node lies farther out than any other
        passing = np.delete(np.abs(freqs), report.failing_indices)
        for idx in report.failing_indices:
            assert abs(freqs[idx]) > passing.max()
        assert report.failing_frequencies == tuple(freqs[list(report.failing_indices)])
        assert report.min_frequency == pytest.approx(freqs[report.min_index])
        assert "FAIL" in report.summary()

    def test_nonpositive_bandwidth_rejected(self, quad64):
        with pytest.raises(ValueError):
            build_deconv_weights(_degenerates(2), 0.0, quad64)


def _mixed_models(seed, n=40):
    rng = np.random.default_rng(seed)
    families = [ErrorFamily.GAUSSIAN, ErrorFamily.LAPLACE, ErrorFamily.DEGENERATE]
    models = []
    for _ in range(n):
        family = families[rng.integers(0, 3)]
        variance = 0.0 if family is ErrorFamily.DEGENERATE else rng.uniform(0.01, 3.0)
        models.append(ErrorModel(family, variance))
    return tuple(models)


class TestArrayNativeEnsemble:
    """Built-in laws are held as family-code and variance arrays."""

    def test_cf_matrix_is_bit_identical_to_stacking_each_law(self):
        models = _mixed_models(0)
        v = np.concatenate([np.linspace(-400.0, 400.0, 1601), [0.0, -0.0, 1e-300, 1e150]])
        got = ErrorEnsemble(models).cf_matrix(v)
        assert got.dtype == float
        assert np.array_equal(got, np.vstack([law_cf(m, v) for m in models]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("families", [["gaussian"], ["laplace"], ["degenerate"],
                                          ["gaussian", "laplace", "degenerate"],
                                          ["laplace", "degenerate"]],
                             ids=["gaussian", "laplace", "degenerate", "mixed", "mixed-no-gaussian"])
    def test_every_slice_of_rows_equals_the_masked_whole_table(self, families):
        # the one-family chain and the mixed per-row choice give the bits of
        # each family written through its mask, p past the double range included
        rng = np.random.default_rng(len(families))
        n = 3000
        names = [families[i] for i in rng.integers(0, len(families), n)]
        variances = np.where(np.array(names) == "degenerate", 0.0, rng.uniform(0.01, 3.0, n))
        ens = ErrorEnsemble.from_arrays(names, variances)
        v = np.concatenate([np.linspace(-400.0, 400.0, 801), [0.0, -0.0, 1e-300, 1e150, 1e300]])
        whole = masked_cf_matrix(ens, v)
        assert ens.cf_matrix(v).tobytes() == whole.tobytes()
        for rows in (slice(0, 1), slice(7, 263), slice(2999, 3000), slice(1000, None)):
            assert ens.cf_matrix(v, rows).tobytes() == whole[rows].tobytes()
            buffer = np.full((2, whole[rows].shape[0], v.size), np.nan)
            out = buffer[0]
            assert ens.cf_matrix(v, rows, out=out) is out
            assert out.tobytes() == whole[rows].tobytes() and np.isnan(buffer[1]).all()

    def test_from_arrays_matches_the_models(self):
        models = _mixed_models(1)
        ens = ErrorEnsemble.from_arrays([m.family.value for m in models],
                                        [m.variance for m in models])
        ref = ErrorEnsemble(models)
        assert np.array_equal(ens.codes, ref.codes)
        assert np.array_equal(ens.variances, ref.variances)
        families = list(ErrorFamily)
        assert ens.codes.tolist() == [families.index(m.family) for m in models]
        assert ens.variances.tolist() == [m.variance for m in models]
        assert ens.n == len(models)
        v = np.linspace(-50.0, 50.0, 101)
        assert np.array_equal(ens.cf_matrix(v), ref.cf_matrix(v))

    @pytest.mark.parametrize("family,variance", [
        ("gaussian", -1.0), ("laplace", float("nan")), ("gaussian", float("inf")),
        ("degenerate", 0.5), ("cauchy", 1.0),
    ])
    def test_from_arrays_rejects_what_error_model_rejects(self, family, variance):
        with pytest.raises(ValueError):
            ErrorModel(family, variance)
        with pytest.raises(ValueError, match="position 1"):
            ErrorEnsemble.from_arrays(["laplace", family], [0.5, variance])

    @pytest.mark.parametrize("family,variance,text", [
        ("laplace", -0.5, "family 'laplace', variance -0.5"),
        ("cauchy", 1.0, "family 'cauchy', variance 1.0"),
        ("degenerate", 0.25, "family 'degenerate', variance 0.25"),
    ])
    def test_from_arrays_error_names_the_law_in_plain_numbers(self, family, variance, text):
        with pytest.raises(ValueError) as info:
            ErrorEnsemble.from_arrays(["gaussian", family], [0.5, variance])
        assert str(info.value) == f"invalid error law at position 1: {text}"

    def test_from_arrays_rejects_empty_and_ragged_input(self):
        with pytest.raises(ValueError):
            ErrorEnsemble.from_arrays([], [])
        with pytest.raises(ValueError):
            ErrorEnsemble.from_arrays(["laplace", "gaussian"], [0.5])

    @pytest.mark.parametrize("law", [
        ErrorFamily.GAUSSIAN, ("gaussian", 0.5), None, 0.5,
        type("LawLike", (), {"cf": staticmethod(lambda v: v)})(),
    ], ids=["family", "tuple", "none", "float", "cf-object"])
    def test_only_error_models_are_accepted(self, law):
        with pytest.raises(TypeError, match="ErrorModel"):
            ErrorEnsemble((ErrorModel(ErrorFamily.LAPLACE, 0.5), law))

    @pytest.mark.parametrize("models", [
        tuple(ErrorModel(ErrorFamily.GAUSSIAN, 0.1 + 0.01 * k) for k in range(30)),
        tuple(ErrorModel(ErrorFamily.LAPLACE, 0.1 + 0.01 * k) for k in range(30)),
        _mixed_models(2),
    ], ids=["gaussian", "laplace", "mixed"])
    def test_draw_consumes_the_generator_as_one_draw_per_law(self, models):
        got = ErrorEnsemble(models).draw(np.random.default_rng(5))
        rng = np.random.default_rng(5)
        expected = np.array([_draw_one(m, rng) for m in models])
        assert np.array_equal(got, expected)
