import sys
import threading
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from conftest import underflowing_ensemble
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    bandlimited_kernel_closed_form,
    longdouble_ratio_sums,
    ratio_grid,
    whole_stack_ratio_grid,
)

from hetdeconv import (
    BandwidthUnderflow,
    Bandwidths,
    DegenerateDesign,
    DimensionMismatch,
    EnsembleInvalid,
    ErrorEnsemble,
    ErrorFamily,
    ErrorModel,
    KernelCache,
    Model,
    QuadratureGrid,
    Sample,
    build_deconv_weights,
    build_ensemble,
    estimators,
    fit,
    gaussian_kernel,
    generate,
    linear_slope,
    true_regression,
    variance_bound_diagnostic,
)
from hetdeconv.estimators import RIDGE_SCALE, floored_ratio, stacked_ratio_grid
from hetdeconv.kernels import SMALLEST_NORMAL, deconv_left, deconv_right


def _degenerate_ensemble(n):
    return ErrorEnsemble(tuple(ErrorModel(ErrorFamily.DEGENERATE) for _ in range(n)))


def _degenerate_sample(rng, n, model=Model.MODEL1):
    data = generate(model, n, _degenerate_ensemble(n), rng)
    return data.sample


def _point(est, x, t):
    """(value, flagged, density) at one point, through the grid API."""
    values, flags, density = est.predict_grid([x], [t])
    return values[0, 0], bool(flags[0, 0]), density[0, 0]


def _nw_oracle(sample, h, b, x_values, t_values):
    """Bivariate Nadaraya-Watson with the normal kernel in x and the
    closed-form band-limited kernel in t; coded without the deconvolution
    machinery."""
    kx = gaussian_kernel((np.asarray(x_values)[None, :] - sample.x[:, None]) / h)
    lt = bandlimited_kernel_closed_form((np.asarray(t_values)[None, :] - sample.w[:, None]) / b)
    num = (kx * sample.y[:, None]).T @ lt
    den = kx.T @ lt
    return num / den


class TestFloorRatio:
    def test_plain_division_above_floor(self):
        vals, flags = floored_ratio(4.0, 2.0, 1e-6)
        assert vals == 2.0 and not flags

    def test_zero_denominator_uses_positive_floor(self):
        vals, flags = floored_ratio(3.0, 0.0, 1e-6)
        assert flags and vals == 3.0 / 1e-6

    def test_negative_denominator_uses_negative_floor(self):
        vals, flags = floored_ratio(3.0, -1e-9, 1e-6)
        assert flags and vals == -3.0 / 1e-6

    def test_a_density_that_is_not_finite_is_floored_and_flagged(self):
        den = np.array([np.nan, np.inf, -np.inf, 2.0])
        vals, flags = floored_ratio(np.array([3.0, 3.0, 3.0, np.nan]), den, 1e-6)
        assert flags.tolist() == [True, True, True, True]
        assert vals[:3].tolist() == [-3e6, 3e6, -3e6]

    def test_an_overflowing_ratio_is_flagged(self):
        # 1e300 / 1e-10 overflows although its density clears the floor
        with np.errstate(all="raise"):
            vals, flags = floored_ratio(np.array([1e300, 1e300, 1.0]),
                                        np.array([1e-5, 1e-10, 0.5]), 1e-12)
        assert flags.tolist() == [False, True, False]
        assert vals[0] == 1e300 / 1e-5 and np.isinf(vals[1]) and vals[2] == 2.0


class TestSampleAndFit:
    def test_minimal_sample_fits_and_evaluates(self, quad64):
        sample = Sample(x=[0.0, 1.0], w=[0.2, -0.5], y=[1.0, 2.0],
                        ensemble=_degenerate_ensemble(2))
        est = fit(sample, Bandwidths(0.3, 0.3), quad64)
        value, _, _ = _point(est, 0.5, 0.0)
        assert np.isfinite(value)

    def test_the_callers_arrays_stay_writeable_and_the_samples_are_read_only(self):
        x, w, y = np.array([0.0, 1.0]), np.array([0.2, -0.5]), np.array([1.0, 2.0])
        sample = Sample(x=x, w=w, y=y, ensemble=_degenerate_ensemble(2))
        for given, held in ((x, sample.x), (w, sample.w), (y, sample.y)):
            assert held is not given and given.flags.writeable
            assert not held.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                held[0] = 5.0
        x[0] = 5.0
        assert sample.x[0] == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            Sample(x=[0.0, 1.0, 2.0], w=[0.0, 1.0], y=[0.0, 1.0],
                   ensemble=_degenerate_ensemble(2))

    def test_ensemble_length_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            Sample(x=[0.0, 1.0], w=[0.0, 1.0], y=[0.0, 1.0, 2.0],
                   ensemble=_degenerate_ensemble(2))

    def test_single_observation_rejected(self):
        with pytest.raises(DimensionMismatch):
            Sample(x=[0.0], w=[0.0], y=[0.0], ensemble=_degenerate_ensemble(1))

    def test_nonfinite_entries_rejected(self):
        with pytest.raises(ValueError):
            Sample(x=[0.0, np.nan], w=[0.0, 1.0], y=[0.0, 1.0],
                   ensemble=_degenerate_ensemble(2))

    def test_estimator_rejects_mismatched_weights(self, quad64):
        from hetdeconv import DeconvEstimator, build_deconv_weights

        sample = Sample(x=[0.0, 1.0], w=[0.2, -0.5], y=[1.0, 2.0],
                        ensemble=_degenerate_ensemble(2))
        weights = build_deconv_weights(sample.ensemble, 0.3, quad64)
        with pytest.raises(DimensionMismatch):
            DeconvEstimator(sample=sample, bandwidths=Bandwidths(0.3, 0.2), weights=weights)

    def test_vanishing_cf_ensemble_raises_ensemble_invalid(self, quad64):
        sample = Sample(x=[0.0, 1.0], w=[0.2, -0.5], y=[1.0, 2.0],
                        ensemble=underflowing_ensemble(2))
        with pytest.raises(EnsembleInvalid):
            fit(sample, Bandwidths(0.1, 0.05), quad64)  # S(v) underflows at |v| ~ 19.5


class TestNumeratorAndDensity:
    def test_zero_response_gives_zero_numerator(self, quad64):
        rng = np.random.default_rng(0)
        sample = _degenerate_sample(rng, 30)
        sample = Sample(x=sample.x, w=sample.w, y=np.zeros(30), ensemble=sample.ensemble)
        est = fit(sample, Bandwidths(0.2, 0.2), quad64)
        value, _, _ = _point(est, 0.3, -0.4)
        assert value == 0.0

    def test_isolated_observation_closed_form(self, quad128):
        # second observation pushed far enough that its x-kernel underflows
        # to exact zero; the remaining term is y1 K L / (2 h b) for n=2
        h = b = 0.2
        sample = Sample(x=[0.0, 1000.0], w=[0.1, 0.0], y=[2.5, 7.0],
                        ensemble=_degenerate_ensemble(2))
        est = fit(sample, Bandwidths(h, b), quad128)
        x, t = 0.15, -0.3
        expected = (2.5 * gaussian_kernel((x - 0.0) / h)
                    * bandlimited_kernel_closed_form((t - 0.1) / b) / 2.0) / (h * b)
        value, flagged, density = _point(est, x, t)  # numerator = value * density
        assert not flagged
        assert value * density == pytest.approx(expected, rel=1e-10)

    def test_constant_response_numerator_is_scaled_density(self, quad64):
        rng = np.random.default_rng(1)
        base = _degenerate_sample(rng, 40)
        c = -2.25
        sample = Sample(x=base.x, w=base.w, y=np.full(40, c), ensemble=base.ensemble)
        est = fit(sample, Bandwidths(0.15, 0.15), quad64)
        for (x, t) in [(0.0, 0.0), (1.2, -0.7), (-1.8, 1.9)]:
            value, flagged, density = _point(est, x, t)  # numerator = value * density
            assert not flagged
            assert value * density == pytest.approx(c * density, rel=1e-12)

    def test_degenerate_density_matches_plain_kde(self, quad128):
        rng = np.random.default_rng(2)
        sample = _degenerate_sample(rng, 80)
        h = b = 0.25
        est = fit(sample, Bandwidths(h, b), quad128)
        xg = np.linspace(-1.5, 1.5, 7)
        tg = np.linspace(-1.5, 1.5, 7)
        kx = gaussian_kernel((xg[None, :] - sample.x[:, None]) / h)
        lt = bandlimited_kernel_closed_form((tg[None, :] - sample.w[:, None]) / b)
        kde = kx.T @ lt / (80 * h * b)
        assert np.allclose(est.predict_grid(xg, tg)[2], kde, rtol=0, atol=1e-8)

    def test_density_decays_far_from_data(self, quad64):
        rng = np.random.default_rng(3)
        sample = _degenerate_sample(rng, 50)
        h = b = 0.1
        est = fit(sample, Bandwidths(h, b), quad64)
        far_x = sample.x.max() + 20 * h
        assert abs(_point(est, far_x, 0.0)[2]) < 1e-6

    def test_density_mass_near_one(self, quad128):
        rng = np.random.default_rng(4)
        n = 500
        ens = build_ensemble(ErrorFamily.LAPLACE, n)
        data = generate(Model.MODEL1, n, ens, rng)
        est = fit(data.sample, Bandwidths(0.15, 0.15), quad128)
        xg = np.linspace(-4.0, 4.0, 161)
        tg = np.linspace(-9.0, 9.0, 361)
        f = est.predict_grid(xg, tg)[2]
        mass = np.trapezoid(np.trapezoid(f, tg, axis=1), xg)
        assert mass == pytest.approx(1.0, abs=0.05)


def _group_operands(n, n_h, n_x, n_t, n_b):
    """(stack, y, kt, scale, floor) of the naive estimator at n_h h and n_b b, as the sweep forms them."""
    rng = np.random.default_rng(n + n_h + n_x + n_t + n_b)
    x, w, y = rng.uniform(-2, 2, n), rng.uniform(-2, 2, n), rng.normal(size=n)
    hs, bs = np.linspace(0.02, 0.5, n_h), np.linspace(0.1, 0.3, n_b)
    stack = gaussian_kernel((np.linspace(-2, 2, n_x) - x[:, None]) / hs[:, None, None])
    kt = gaussian_kernel((np.linspace(-2, 2, n_t) - w[:, None]) / bs[:, None, None])
    hb = hs * bs[:, None]
    return stack, y, kt, n * hb, RIDGE_SCALE / hb


class TestStackedRatioGrid:
    """Both sums add per-pair products over row blocks, in block order, bit for bit.

    The numerator operand of a block is formed for runs of h bounded by
    GROUP_BUDGET.
    """

    # (n, H, X, T, B, R): one block and one product (desk-like, and one just
    # under the budget), two blocks of two runs of five h (full scale at
    # n = 500), one h alone over the budget (estimate-like), an empty x
    # grid, n < R, n = R, n = R + 1, and three blocks with a partial last
    # one (full scale at n = 600: 256, 256 and 88 rows)
    SHAPES = [(100, 5, 20, 20, 5, 512), (500, 5, 20, 20, 2, 512), (500, 10, 50, 50, 1, 256),
              (2000, 1, 60, 60, 1, 2000), (100, 3, 0, 4, 2, 512), (255, 3, 20, 20, 2, 256),
              (256, 3, 20, 20, 2, 256), (257, 3, 20, 20, 2, 256), (600, 10, 50, 50, 2, 256)]

    @pytest.mark.parametrize("one_h_per_run", [False, True])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_equals_the_whole_stack_contraction(self, shape, one_h_per_run, monkeypatch):
        n, n_h, n_x, n_t, n_b, rows = shape
        if one_h_per_run:
            monkeypatch.setattr(estimators, "GROUP_BUDGET", min(n, rows) * n_x)
        operands = _group_operands(n, n_h, n_x, n_t, n_b)
        got = stacked_ratio_grid(*operands, rows)
        want = whole_stack_ratio_grid(*operands, rows)
        for a, r in zip(got, want):
            assert a.shape == r.shape == (n_b, n_h, n_x, n_t)
            assert a.dtype == r.dtype and a.tobytes() == r.tobytes()
        if n_x:
            assert got[1].any() and not got[1].all()     # flagged and clean points

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(n=st.integers(1, 12), n_h=st.integers(1, 4), n_x=st.integers(0, 6),
           n_t=st.integers(1, 6), n_b=st.integers(1, 4), budget=st.integers(1, 300),
           rows=st.integers(1, 13), floor_exp=st.sampled_from([-300, -1, 0, 1]),
           seed=st.integers(0, 2 ** 32 - 1))
    # X = 1 or T = 1 makes each product a BLAS dot or matrix-vector product,
    # whose sum order follows the operand's strides: with an (n, H, X)
    # stack a run of two h once summed the numerator in another order, and
    # the density of each h depended on H
    @example(n=4, n_h=2, n_x=1, n_t=1, n_b=1, budget=8, rows=4, floor_exp=-300, seed=2)
    @example(n=4, n_h=2, n_x=2, n_t=1, n_b=1, budget=16, rows=4, floor_exp=-300, seed=0)
    @example(n=4, n_h=2, n_x=1, n_t=2, n_b=1, budget=16, rows=4, floor_exp=-300, seed=0)
    @example(n=5, n_h=2, n_x=1, n_t=1, n_b=2, budget=8, rows=2, floor_exp=-300, seed=2)
    def test_equals_the_per_pair_oracle_bit_for_bit(self, n, n_h, n_x, n_t, n_b, budget, rows,
                                                    floor_exp, seed):
        # budgets from 1 to past R H X run the numerator operand one h at a
        # time, in runs of several h and in one product; blocks from 1 row
        # to past n run one block, several and a partial last one; the
        # floors range from none flagged to all flagged.  Every pair equals
        # the call made for it alone and the per-pair oracle, both of which
        # read stack[r] itself: the h-major stack holds each kx_h as a single
        # pair has it.
        rng = np.random.default_rng(seed)
        x, y = rng.uniform(-2, 2, n), rng.normal(size=n)
        hs = rng.uniform(0.02, 1.0, n_h)
        stack = gaussian_kernel((np.linspace(-2, 2, n_x) - x[:, None]) / hs[:, None, None])
        assert all(stack[r].flags.c_contiguous for r in range(n_h))
        kt = rng.normal(size=(n_b, n, n_t))      # signed, as deconvolution kernels are
        scale = rng.uniform(0.1, 10.0, (n_b, n_h))
        floor = 10.0 ** floor_exp * rng.uniform(0.5, 2.0, (n_b, n_h))
        with mock.patch.object(estimators, "GROUP_BUDGET", budget):
            got = stacked_ratio_grid(stack, y, kt, scale, floor, rows)
            for k in range(n_b):
                for r in range(n_h):
                    alone = stacked_ratio_grid(stack[r:r + 1], y, kt[k:k + 1],
                                               scale[k:k + 1, r:r + 1], floor[k:k + 1, r:r + 1],
                                               rows)
                    oracle = ratio_grid(stack[r], kt[k], y, scale[k, r], floor[k, r], rows)
                    for want in ([w[0, 0] for w in alone], oracle):
                        for a, w in zip(got, want):
                            assert a.shape == (n_b, n_h, n_x, n_t)
                            assert a[k, r].dtype == w.dtype and a[k, r].tobytes() == w.tobytes()

    @pytest.mark.parametrize("m,rows", [(128, 256), (64, 512), (65, 496)])
    def test_the_sweep_and_predict_grid_take_their_blocks_from_one_rule(self, m, rows,
                                                                        monkeypatch):
        # R = GROUP_BUDGET // 2M', M' = 2 ceil(M/2): 65 nodes make M' = 66
        quad = QuadratureGrid.gauss_legendre(m)
        assert estimators.block_rows(quad) == rows
        n = rows + 7
        ens = build_ensemble(ErrorFamily.LAPLACE, n)
        data = generate(Model.MODEL1, n, ens, np.random.default_rng(m))
        xg = tg = np.linspace(-1, 1, 5)
        stacked_fn, rows_fn, seen = estimators.stacked_ratio_grid, estimators.normal_rows, []

        def recorded_stacked(*args):
            seen.append(("stacked", args[-1]))
            return stacked_fn(*args)

        def recorded_rows(x_values, x_obs, h, out):
            seen.append(("predict", x_obs.size))
            return rows_fn(x_values, x_obs, h, out)

        monkeypatch.setattr(estimators, "stacked_ratio_grid", recorded_stacked)
        cache = KernelCache(data.sample, xg, tg, quad)
        cache.kx_stack([0.2])
        cache.deconv([0.2], [0.3])
        cache.naive([0.2], [0.3])
        monkeypatch.setattr(estimators, "normal_rows", recorded_rows)
        fit(data.sample, Bandwidths(0.2, 0.3), quad).predict_grid(xg, tg)
        assert seen[:2] == [("stacked", rows)] * 2
        assert sorted(seen[2:]) == [("predict", 7), ("predict", rows)]

    @pytest.mark.parametrize("method", ["naive", "deconv"])
    @pytest.mark.parametrize("n_x,n_t", [(1, 1), (2, 1), (1, 2)])
    def test_a_pair_on_a_one_wide_grid_does_not_depend_on_the_other_h(self, n_x, n_t, method,
                                                                      quad64):
        ens = build_ensemble(ErrorFamily.LAPLACE, 50)
        data = generate(Model.MODEL1, 50, ens, np.random.default_rng(3))
        grid = np.linspace(-1, 1, n_x), np.linspace(-1, 1, n_t)
        both = getattr(KernelCache(data.sample, *grid, quad64), method)([0.2, 0.3], [0.25])
        for i, h in enumerate([0.2, 0.3]):
            alone = getattr(KernelCache(data.sample, *grid, quad64), method)([h], [0.25])
            for a, w in zip(both, alone):
                assert a[:, i].tobytes() == w[:, 0].tobytes()

    @pytest.mark.parametrize("n_x", [0, 1, 7])
    def test_kx_stack_is_h_major_with_each_kx_as_a_lone_h_has_it(self, n_x, quad64):
        ens = build_ensemble(ErrorFamily.LAPLACE, 30)
        data = generate(Model.MODEL1, 30, ens, np.random.default_rng(8))
        hs = [0.05, 0.2, 0.7]
        xg = np.linspace(-1, 1, n_x)
        stack = KernelCache(data.sample, xg, [0.0], quad64).kx_stack(hs)
        assert stack.shape == (len(hs), 30, n_x)
        for r, h in enumerate(hs):
            lone = KernelCache(data.sample, xg, [0.0], quad64).kx_stack([h])
            assert stack[r].flags.c_contiguous
            assert stack[r].tobytes() == lone[0].tobytes()

    @pytest.mark.parametrize("n,rows", [(500, 512), (600, 256)])     # one block, three blocks
    def test_holds_no_copy_of_the_whole_stack(self, n, rows):
        operands = _group_operands(n, 10, 50, 50, 1)
        tracemalloc.start()
        try:
            stacked_ratio_grid(*operands, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < operands[0].nbytes


    def test_a_full_scale_sweep_of_three_blocks_is_within_the_oracle_budget(self, quad128):
        # n = 600 at 128 nodes runs blocks of 256, 256 and 88 rows, whose
        # sums differ from one product over all 600 in the last bits.  Each
        # of the sweep's sums adds the n rounded products kx_j (y_j) lt_jt,
        # lt_jt = left_j @ right_t rounded after its M' products, kx_j y_j
        # rounded once: in any order of the n terms, blocked or not, it errs
        # by at most (n + M' + 1) u times the sum of its |terms| (u = eps / 2),
        # within the (n + M' + 4) eps of ``_assert_within_the_oracle_budget``,
        # which also bounds the division by h b and checks every unflagged
        # point, every density and every flag clear of the floor by that budget
        n = 600
        ens = build_ensemble(ErrorFamily.LAPLACE, n)
        data = generate(Model.MODEL2, n, ens, np.random.default_rng(20250808))
        xg = tg = np.linspace(-2.0, 2.0, 50)
        hs, bs = [0.02 * k for k in range(1, 11)], [0.04, 0.06]    # one full-scale group
        assert -(-n // estimators.block_rows(quad128)) == 3
        got = KernelCache(data.sample, xg, tg, quad128).deconv(hs, bs)
        for k, b in enumerate(bs):
            for i, h in (0, hs[0]), (7, hs[7]), (9, hs[9]):
                assert not got[1][k, i].all()
                est = fit(data.sample, Bandwidths(h, b), quad128)
                _assert_within_the_oracle_budget(est, xg, tg, [a[k, i] for a in got])


class _CountedThread(threading.Thread):
    started = 0

    def start(self):
        type(self).started += 1
        super().start()


def _mixed_ensemble(n, scale):
    return ErrorEnsemble.from_arrays(["gaussian", "laplace"] * (n // 2) + ["gaussian"] * (n % 2),
                                     scale * (1.0 + np.arange(1, n + 1) / n))


def _assert_within_the_oracle_budget(est, xg, tg, got):
    """``got``, est.predict_grid(xg, tg), against long-double sums of the same float64 operands.

    Each sum adds n products of kx by the rounded y a, in blocks, and M'
    products by right: after the n products when a is left (factored), or
    before them in a = left @ right (lt order); it is divided by h b.  In
    either order such a sum errs by at most (n + M' + 2) u times the sum of
    its |terms| (u = eps / 2); the budget is (n + M' + 4) eps times that
    sum, over h b.
    """
    s, weights, h, b = est.sample, est.weights, est.bandwidths.h, est.bandwidths.b
    kx = estimators.normal_rows(xg, s.x, h, np.empty((s.n, xg.size)))
    left, right = deconv_left(weights, s.w / b), deconv_right(weights, tg / b)
    num, den, num_abs, den_abs = (a / (h * b) for a in longdouble_ratio_sums(kx, s.y, left, right))
    gamma = (s.n + right.shape[0] + 4) * np.finfo(float).eps
    values, flags, density = got
    assert np.all(np.abs(density - den) <= gamma * den_abs)
    floor = RIDGE_SCALE / (h * b)
    clear = np.abs(np.abs(den) - floor) > gamma * den_abs
    assert np.array_equal(flags[clear], np.abs(den[clear]) <= floor)
    ok = ~flags
    assert np.all(np.abs(values[ok] * density[ok] - num[ok])
                  <= gamma * num_abs[ok] + 2 * np.finfo(float).eps * np.abs(num[ok]))


class TestPredictGridHelper:
    """predict_grid accumulates blocks of rows over one helper thread and this one.

    Each block is contracted in the order ``factored_order`` finds cheaper;
    both orders are held to a long-double oracle.
    """

    @staticmethod
    def _estimator(family, quad, n=300, b=0.3):
        ens = build_ensemble(family, n)
        data = generate(Model.MODEL1, n, ens, np.random.default_rng(11))
        return fit(data.sample, Bandwidths(0.2, b), quad)

    @pytest.mark.parametrize("shape,factored", [
        ((5000, 200, 200, 128), True),     # the benchmark's estimate
        ((5000, 20, 20, 128), False),      # the CLI's default grid
        ((5000, 60, 60, 128), False),      # pinned est_a
        ((5000, 30, 30, 128), False),      # pinned est_b
        ((5000, 30, 30, 66), False),       # pinned est_c, 65 nodes
        ((5000, 40, 40, 64), True),        # pinned est_d
        ((5000, 200, 1, 128), False),      # a tall grid: factored would cost about 100 times
        ((300, 60, 60, 64), True),
        ((300, 1, 2, 64), True),
        ((300, 17, 23, 64), False),
    ])
    def test_the_order_rule_pins_each_shape(self, shape, factored):
        assert estimators.factored_order(*shape) is factored

    @pytest.mark.parametrize("n", [300, 301])
    @pytest.mark.parametrize("n_x,n_t", [(1, 1), (2, 1), (1, 2), (17, 23), (60, 60)])
    @pytest.mark.parametrize("family", [ErrorFamily.GAUSSIAN, ErrorFamily.LAPLACE])
    def test_equals_the_cache_without_a_helper(self, family, n_x, n_t, n, quad64):
        # (1, 2) and (60, 60) take the factored order, the others the lt order
        est = self._estimator(family, quad64, n)
        xg, tg = np.linspace(-1.5, 1.5, n_x), np.linspace(-1.5, 1.5, n_t)
        got = est.predict_grid(xg, tg)
        want = KernelCache(est.sample, xg, tg, quad64).deconv([0.2], [0.3])
        for a, w in zip(got, want):
            assert a.shape == (n_x, n_t) and a.dtype == w.dtype
        _assert_within_the_oracle_budget(est, xg, tg, got)

    @pytest.mark.parametrize("block_rows", [None, 61])     # n = 301 in 5 blocks of at most 61
    @pytest.mark.parametrize("n,m,b,n_x,n_t,factored", [
        (301, 64, 0.3, 60, 60, True),
        (300, 64, 0.3, 1, 30, True),
        (301, 65, 0.3, 60, 60, True),      # odd M: a node at v = 0
        (301, 65, 0.3, 1, 40, True),
        (301, 64, 0.02, 60, 60, True),
        (1001, 128, 0.02, 120, 120, True),
        (301, 64, 0.3, 17, 23, False),
        (301, 64, 0.02, 20, 20, False),
        (301, 128, 0.3, 60, 1, False),
    ])
    @pytest.mark.parametrize("family", ["gaussian", "laplace", "mixed"])
    def test_the_factored_order_is_within_the_oracle_budget(self, family, n, m, b, n_x, n_t,
                                                             factored, block_rows, monkeypatch):
        # and so is the lt order; at the default budget a call runs one block
        # at M = 64 and 65, and two (n = 301) or four (n = 1001) at M = 128
        ens = (_mixed_ensemble(n, 0.002) if family == "mixed"
               else ErrorEnsemble.from_arrays([family] * n, 0.002 * (1.0 + np.arange(n) / n)))
        data = generate(Model.MODEL1, n, ens, np.random.default_rng(n + m))
        est = fit(data.sample, Bandwidths(0.2, b), QuadratureGrid.gauss_legendre(m))
        rank = 2 * est.weights.nodes.size
        assert estimators.factored_order(n, n_x, n_t, rank) is factored
        if block_rows:
            monkeypatch.setattr(estimators, "GROUP_BUDGET", 2 * rank * block_rows)
            assert -(-n // block_rows) % 2 == 1 and n > 2 * block_rows
        monkeypatch.setattr(estimators, "stacked_ratio_grid", None)    # predict_grid calls none
        xg, tg = np.linspace(-1.5, 1.5, n_x), np.linspace(-1.2, 1.7, n_t)
        got = est.predict_grid(xg, tg)
        assert [a.shape for a in got] == [(n_x, n_t)] * 3
        _assert_within_the_oracle_budget(est, xg, tg, got)

    @pytest.mark.parametrize("b", [0.02, 0.2])
    @pytest.mark.parametrize("family", [ErrorFamily.GAUSSIAN, ErrorFamily.LAPLACE])
    def test_the_lt_order_returns_a_constant_response_over_many_blocks(self, family, b, quad64,
                                                                       monkeypatch):
        # why the lt order stays: criterion 2's sample and grid, in 7 blocks
        # of 16 rows.  Each L_j is rounded once and shared by the numerator
        # and the density; forced into the factored order, the same calls
        # read up to 1.5e-12 (gaussian) and 1.3e-10 (laplace) off
        n, c = 100, 3.7
        ens = build_ensemble(family, n)
        data = generate(Model.MODEL1, n, ens, np.random.default_rng(20250810))
        sample = Sample(x=data.sample.x, w=data.sample.w, y=np.full(n, c), ensemble=ens)
        xg = tg = np.linspace(-2, 2, 20)
        assert not estimators.factored_order(n, xg.size, tg.size, 64)
        monkeypatch.setattr(estimators, "GROUP_BUDGET", 2 * 64 * 16)
        for h in (0.02, 0.2):
            values, flags, _ = fit(sample, Bandwidths(h, b), quad64).predict_grid(xg, tg)
            assert (~flags).any()
            assert np.abs(values[~flags] - c).max() < 1e-12

    @pytest.mark.parametrize("m,n_x,n_t", [(16, 20, 20), (16, 20, 1)])
    def test_holds_no_array_of_n_rows_beyond_w_over_b(self, m, n_x, n_t):
        # at n = 8 R a thread's buffers are an eighth of a whole kx and
        # operand; kx and the operand (n, 2M') or lt (n, T) held whole, as
        # before the blocks, peaked at 2.1 to 2.4 times this bound
        quad = QuadratureGrid.gauss_legendre(m)
        rank = 2 * (m // 2)
        rows = estimators.GROUP_BUDGET // (2 * rank)
        n = 8 * rows
        est = self._estimator(ErrorFamily.LAPLACE, quad, n)
        factored = estimators.factored_order(n, n_x, n_t, rank)
        assert factored is (n_t > 1)
        width = rank if factored else n_t
        # per thread: kx, [y a | a], the left rows of the lt order, the total
        # and one block's product, and temporaries of at most R (X + M')
        # elements (the kernels' mask, ufunc buffers); then right, the sums,
        # the ratio's arrays and w / b, the one array of n elements
        per_thread = (rows * (n_x + 2 * width + (0 if factored else rank) + n_x + rank)
                      + 2 * n_x * 2 * width)
        bound = 8 * (2 * per_thread + rank * n_t + 4 * n_x * n_t + n) + (64 << 10)
        xg, tg = np.linspace(-1, 1, n_x), np.linspace(-1, 1, n_t)
        est.predict_grid(xg, tg)
        tracemalloc.start()
        try:
            est.predict_grid(xg, tg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("column", ["x", "w", "y"])
    def test_the_factored_order_leaks_no_overflow_warning(self, column, quad64):
        # w_j = 1e308 overflows w_j / b, so every sum is NaN and every point
        # is flagged; x_j = 1e308 overflows (x - x_j) / h, whose kernel is an
        # exact 0.  y_j = 1e308 overflows y_j left_j to +-inf, which reaches
        # every point through right (inf - inf = NaN where the signs meet),
        # so every point is flagged, where ``KernelCache.deconv``, which forms
        # kx_j y_j first, flags only part of the grid.  At b = 0.05 the Gaussian
        # weights reach 1e15.
        est = self._estimator(ErrorFamily.GAUSSIAN, quad64, b=0.05)
        s = est.sample
        arrays = {"x": s.x.copy(), "w": s.w.copy(), "y": s.y.copy()}
        arrays[column][7] = 1e308
        sample = Sample(arrays["x"], arrays["w"], arrays["y"], s.ensemble)
        xg = tg = np.linspace(-1.5, 1.5, 60)
        values, flags, _ = fit(sample, est.bandwidths, quad64).predict_grid(xg, tg)
        assert np.isfinite(values[~flags]).all()
        assert {"x": not flags.any(), "w": flags.all(), "y": flags.all()}[column]
        if column == "y":
            with np.errstate(over="ignore", invalid="ignore"):
                lt_flags = KernelCache(sample, xg, tg, quad64).deconv([0.2], [0.05])[1]
            assert 0 < lt_flags.sum() < flags.size

    @pytest.mark.parametrize("n_x", [5, 60])      # the lt order and the factored order
    def test_starts_one_thread_and_joins_it(self, n_x, quad64, monkeypatch):
        est = self._estimator(ErrorFamily.LAPLACE, quad64)
        monkeypatch.setattr(_CountedThread, "started", 0)
        monkeypatch.setattr(threading, "Thread", _CountedThread)
        before = threading.active_count()
        est.predict_grid(np.linspace(-1, 1, n_x), np.linspace(-1, 1, n_x - 1))
        assert _CountedThread.started == 1
        assert threading.active_count() == before

    def test_an_exception_of_the_helper_leaves_predict_grid(self, quad64, monkeypatch):
        est = self._estimator(ErrorFamily.GAUSSIAN, quad64)
        left_fn = estimators.deconv_left

        def failing_left(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("left failed on the helper")
            return left_fn(*args, **kwargs)

        monkeypatch.setattr(estimators, "deconv_left", failing_left)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="left failed on the helper"):
            est.predict_grid([0.0, 0.5], [0.0])
        assert threading.active_count() == before

    def test_an_exception_of_the_caller_waits_for_the_helper(self, quad64, monkeypatch):
        # 300 rows in blocks of 100: the helper takes the first and the third
        est = self._estimator(ErrorFamily.GAUSSIAN, quad64)
        monkeypatch.setattr(estimators, "GROUP_BUDGET", 2 * 64 * 100)
        rows_fn, finished = estimators.normal_rows, []

        def slow_or_failing_rows(x_values, x_obs, h, out):
            if threading.current_thread() is threading.main_thread():
                raise MemoryError("no room for kx")
            time.sleep(0.2)
            finished.append(x_obs.size)
            return rows_fn(x_values, x_obs, h, out)

        monkeypatch.setattr(estimators, "normal_rows", slow_or_failing_rows)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="no room for kx"):
            est.predict_grid([0.0, 0.5], [0.0])
        assert finished == [100, 100]
        assert threading.active_count() == before

    def test_callers_on_many_threads_each_get_their_own_result(self, quad64):
        # 4 calling threads and their 4 helpers on 2 cores, switching often:
        # a call handed to the wrong helper, a block added in another order,
        # or a result read before it was written, would change some caller's
        # bytes; the first two grids take the factored order
        est = self._estimator(ErrorFamily.LAPLACE, quad64)
        grids = [(np.linspace(-1, 1, n_x), np.linspace(-1, 1, n_t))
                 for n_x, n_t in ((1, 6), (2, 9), (5, 4), (6, 3))]
        assert [estimators.factored_order(300, x.size, t.size, 64) for x, t in grids] == \
            [True, True, False, False]
        want = [est.predict_grid(*g) for g in grids]
        got = [[] for _ in grids]

        def call(k):
            for _ in range(5):
                got[k].append(est.predict_grid(*grids[k]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(k,)) for k in range(len(grids))]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        for k, (results, ref) in enumerate(zip(got, want)):
            assert len(results) == 5
            for result in results:
                assert [a.tobytes() for a in result] == [w.tobytes() for w in ref]
            _assert_within_the_oracle_budget(est, *grids[k], ref)


class TestRegressionEstimator:
    def test_constant_response_exact(self, quad64):
        rng = np.random.default_rng(5)
        n = 60
        ens = build_ensemble(ErrorFamily.LAPLACE, n)
        data = generate(Model.MODEL1, n, ens, rng)
        c = 3.7
        sample = Sample(x=data.sample.x, w=data.sample.w, y=np.full(n, c),
                        ensemble=ens)
        est = fit(sample, Bandwidths(0.11, 0.11), quad64)
        vals, flags, _ = est.predict_grid(np.linspace(-2, 2, 15), np.linspace(-2, 2, 15))
        assert np.abs(vals[~flags] - c).max() < 1e-12

    def test_degenerate_matches_independent_nw(self, quad128):
        rng = np.random.default_rng(6)
        sample = _degenerate_sample(rng, 60)
        h = b = 0.3
        est = fit(sample, Bandwidths(h, b), quad128)
        xg = tg = np.linspace(-1.2, 1.2, 5)
        vals, flags, _ = est.predict_grid(xg, tg)
        oracle = _nw_oracle(sample, h, b, xg, tg)
        assert not flags.any()
        assert np.abs(vals - oracle).max() < 1e-8

    def test_homoscedastic_matches_direct_formula(self, quad128):
        # identical Laplace laws: weights reduce to kernel_ft / (n cf(v/b))
        rng = np.random.default_rng(7)
        n, s, h, b = 60, 4.0 / 15.0, 0.25, 0.25
        ens = ErrorEnsemble(tuple(ErrorModel(ErrorFamily.LAPLACE, s) for _ in range(n)))
        data = generate(Model.MODEL1, n, ens, rng)
        est = fit(data.sample, Bandwidths(h, b), quad128)
        xg = tg = np.linspace(-1.5, 1.5, 6)
        vals, flags, _ = est.predict_grid(xg, tg)

        v = quad128.nodes
        from hetdeconv import bandlimited_kernel_ft
        profile = quad128.weights * bandlimited_kernel_ft(v) * (
            1.0 + s * (v / b) ** 2 / 2.0) / n
        args = (tg[None, :] - data.sample.w[:, None]) / b
        lt = np.cos(np.multiply.outer(args, v)) @ profile / (2 * np.pi)
        kx = gaussian_kernel((xg[None, :] - data.sample.x[:, None]) / h)
        oracle = ((kx * data.sample.y[:, None]).T @ lt) / (kx.T @ lt)
        assert np.abs(vals[~flags] - oracle[~flags]).max() < 1e-8

    def test_affine_equivariance_in_response(self, quad64):
        rng = np.random.default_rng(8)
        n = 50
        ens = build_ensemble(ErrorFamily.GAUSSIAN, n)
        data = generate(Model.MODEL1, n, ens, rng)
        a, d = -1.7, 0.9
        shifted = Sample(x=data.sample.x, w=data.sample.w,
                         y=a * data.sample.y + d, ensemble=ens)
        bw = Bandwidths(0.15, 0.15)
        est0 = fit(data.sample, bw, quad64)
        est1 = fit(shifted, bw, quad64)
        for (x, t) in [(0.0, 0.0), (1.0, -1.0), (-0.5, 0.3)]:
            r0, f0, _ = _point(est0, x, t)
            r1, f1, _ = _point(est1, x, t)
            assert f0 == f1
            if not f0:
                assert r1 == pytest.approx(a * r0 + d, rel=1e-12, abs=1e-12)

    def test_location_equivariance_in_x(self, quad64):
        rng = np.random.default_rng(9)
        n = 50
        ens = build_ensemble(ErrorFamily.LAPLACE, n)
        data = generate(Model.MODEL1, n, ens, rng)
        delta = 0.37
        shifted = Sample(x=data.sample.x + delta, w=data.sample.w,
                         y=data.sample.y, ensemble=ens)
        bw = Bandwidths(0.2, 0.2)
        est0 = fit(data.sample, bw, quad64)
        est1 = fit(shifted, bw, quad64)
        for (x, t) in [(0.4, 0.0), (-1.0, 1.2)]:
            assert _point(est1, x + delta, t)[0] == pytest.approx(
                _point(est0, x, t)[0], rel=1e-12, abs=1e-12
            )

    def test_tracks_truth_at_interior_point(self, quad128):
        # model-1 truth at (1, 0) is 1; n=500 fits should land within 0.25
        # in at least 9 of 10 seeds
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            n = 500
            ens = build_ensemble(ErrorFamily.LAPLACE, n)
            data = generate(Model.MODEL1, n, ens, rng)
            est = fit(data.sample, Bandwidths(0.2, 0.2), quad128)
            hits += abs(_point(est, 1.0, 0.0)[0] - 1.0) < 0.25
        assert hits >= 9


class TestNaiveEstimator:
    def test_constant_response_exact(self, quad64):
        rng = np.random.default_rng(10)
        n = 40
        ens = build_ensemble(ErrorFamily.GAUSSIAN, n)
        data = generate(Model.MODEL1, n, ens, rng)
        c = 1.25
        sample = Sample(x=data.sample.x, w=data.sample.w, y=np.full(n, c), ensemble=ens)
        cache = KernelCache(sample, [0.2], [-0.2], quad64)
        values, _, _ = (a[0, 0] for a in cache.naive([0.1], [0.1]))
        assert values[0, 0] == pytest.approx(c, abs=1e-12)

    def test_error_free_large_n_comparable_to_deconv(self, quad64, quad128):
        # with no measurement error both estimators are consistent; their
        # grid ASEs should be within a factor of two of each other
        rng = np.random.default_rng(11)
        n = 500
        data = generate(Model.MODEL1, n, _degenerate_ensemble(n), rng)
        xg = tg = np.linspace(-2, 2, 15)
        truth = true_regression(data.model, xg[:, None], tg[None, :])
        bw = Bandwidths(0.15, 0.15)
        vals_d, flags_d, _ = fit(data.sample, bw, quad128).predict_grid(xg, tg)
        naive = KernelCache(data.sample, xg, tg, quad64).naive([bw.h], [bw.b])
        vals_n, flags_n, _ = (a[0, 0] for a in naive)
        ase_d = np.mean((vals_d[~flags_d] - truth[~flags_d]) ** 2)
        ase_n = np.mean((vals_n[~flags_n] - truth[~flags_n]) ** 2)
        assert ase_n < 2.0 * ase_d
        assert ase_d < 2.0 * ase_n

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_difference_past_the_double_range_leaks_no_warning(self, quad64):
        # t - w_j = -1e308 - 1e308 overflows, and so does (t - w_j) / b for
        # w_j = 0 and 1: each kernel is an exact 0, so the density at that t
        # is 0 and flagged
        sample = Sample(x=np.zeros(3), w=[0.0, 1.0, 1e308], y=np.ones(3),
                        ensemble=_degenerate_ensemble(3))
        cache = KernelCache(sample, np.zeros(2), [-1e308, 0.0], quad64)
        assert not cache.kt([0.3])[0, :, 0].any()
        values, flags, density = (a[0, 0] for a in cache.naive([0.3], [0.3]))
        assert flags[:, 0].all() and not density[:, 0].any()
        assert not flags[:, 1].any() and np.all(values[:, 1] == 1.0)


class TestSlopeEstimator:
    def test_exact_linear_response(self):
        x = np.array([-1.0, 0.0, 1.0, 2.0])
        sample = Sample(x=x, w=np.zeros(4), y=3.0 * x, ensemble=_degenerate_ensemble(4))
        assert linear_slope(sample) == pytest.approx(3.0, abs=1e-14)

    def test_intercept_absorbed(self):
        x = np.array([-1.0, 0.5, 1.0, 2.0])
        sample = Sample(x=x, w=np.zeros(4), y=3.0 * x + 5.0,
                        ensemble=_degenerate_ensemble(4))
        assert linear_slope(sample) == pytest.approx(3.0, abs=1e-13)

    def test_zero_variance_design_rejected(self):
        sample = Sample(x=np.ones(4), w=np.zeros(4), y=np.arange(4.0),
                        ensemble=_degenerate_ensemble(4))
        with pytest.raises(DegenerateDesign):
            linear_slope(sample)

    def test_root_n_consistency_on_separable_model(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(2000 + seed)
            n = 500
            ens = build_ensemble(ErrorFamily.GAUSSIAN, n)
            data = generate(Model.MODEL2, n, ens, rng)
            hits += abs(linear_slope(data.sample) - 3.0) < 0.2
        assert hits >= 19


class TestPartialLinearEstimator:
    def test_pure_linear_response_recovers_plane(self, quad64):
        rng = np.random.default_rng(12)
        n = 50
        ens = build_ensemble(ErrorFamily.LAPLACE, n)
        data = generate(Model.MODEL2, n, ens, rng)
        theta = 3.0
        sample = Sample(x=data.sample.x, w=data.sample.w,
                        y=theta * data.sample.x, ensemble=ens)
        vals, flags, _ = (a[0, 0] for a in KernelCache(sample, np.linspace(-2, 2, 9),
                                                       np.linspace(-2, 2, 9),
                                                       quad64).partial_linear([0.15], theta))
        expected = np.linspace(-2, 2, 9)[:, None] * theta
        assert np.abs((vals - expected)[~flags]).max() < 1e-12

    def test_degenerate_reduces_to_nw_of_residuals(self, quad128):
        rng = np.random.default_rng(13)
        n = 80
        data = generate(Model.MODEL2, n, _degenerate_ensemble(n), rng)
        slope = linear_slope(data.sample)
        b = 0.3
        tg = np.linspace(-1.5, 1.5, 7)
        xg = np.array([0.0, 1.0])
        vals, flags, _ = (a[0, 0] for a in
                          KernelCache(data.sample, xg, tg, quad128).partial_linear([b], slope))
        resid = data.sample.y - data.sample.x * slope
        lt = bandlimited_kernel_closed_form((tg[None, :] - data.sample.w[:, None]) / b)
        oracle = resid @ lt / lt.sum(axis=0)
        for i, xv in enumerate(xg):
            assert np.abs(vals[i][~flags[i]] - (xv * slope + oracle)[~flags[i]]).max() < 1e-8

    def test_flags_shared_across_x(self, quad64):
        rng = np.random.default_rng(14)
        n = 30
        ens = build_ensemble(ErrorFamily.GAUSSIAN, n)
        data = generate(Model.MODEL2, n, ens, rng)
        vals, flags, _ = (a[0, 0] for a in KernelCache(data.sample, np.linspace(-2, 2, 5),
                                                       np.linspace(-2, 2, 11),
                                                       quad64).partial_linear([0.1], 3.0))
        assert np.all(flags == flags[0:1, :])


class TestBandwidths:
    @pytest.mark.parametrize("h,b", [(1e-300, 1e-30), (1e-320, 0.3), (0.3, 1e-320),
                                     (SMALLEST_NORMAL, 0.5)])
    def test_a_product_below_the_smallest_normal_is_rejected(self, h, b):
        with pytest.raises(BandwidthUnderflow, match="h\\*b is below"):
            Bandwidths(h, b)

    @pytest.mark.parametrize("h,b", [(SMALLEST_NORMAL, 1.0), (1e-300, 0.3), (0.3, 1e-300)])
    def test_a_product_at_or_above_the_smallest_normal_is_kept(self, h, b):
        assert (Bandwidths(h, b).h, Bandwidths(h, b).b) == (h, b)

    def test_a_subnormal_b_is_rejected_whatever_the_product(self):
        # 1e20 * 1e-310 clears the smallest normal, but v / b overflows
        with pytest.raises(BandwidthUnderflow, match="bandwidth b is below"):
            Bandwidths(1e20, 1e-310)
        assert Bandwidths(1e-300, SMALLEST_NORMAL * 1e300).b == SMALLEST_NORMAL * 1e300

    def test_an_overflowing_product_is_rejected(self):
        # the ridge floor RIDGE_SCALE / (h b) would be 0
        with pytest.raises(ValueError, match="h\\*b overflows"):
            Bandwidths(1e300, 1e10)
        assert Bandwidths(1e300, 1e8).h == 1e300


class TestVarianceBoundDiagnostic:
    def test_degenerate_closed_form(self, quad128):
        # S == n, so the bound is c_sup/(2 pi h b n) * int (1-u^2)^6 du,
        # and the exact polynomial integral is 2048/3003
        n, h, b, c_sup = 7, 0.1, 0.2, 3.0
        weights = build_deconv_weights(_degenerate_ensemble(n), b, quad128)
        bound = variance_bound_diagnostic(weights, h, c_sup)
        exact = c_sup / (2 * np.pi * h * b * n) * (2048.0 / 3003.0)
        assert bound == pytest.approx(exact, rel=1e-12)

    def test_halving_h_doubles_exactly(self, quad64):
        b, c_sup = 0.1, 1.0
        weights = build_deconv_weights(build_ensemble(ErrorFamily.GAUSSIAN, 25), b, quad64)
        lo = variance_bound_diagnostic(weights, 0.05, c_sup)
        hi = variance_bound_diagnostic(weights, 0.1, c_sup)
        assert lo == pytest.approx(2.0 * hi, rel=1e-12)

    def test_monotone_in_bandwidth_for_gaussian(self, quad64):
        ens = build_ensemble(ErrorFamily.GAUSSIAN, 25)
        bounds = [
            variance_bound_diagnostic(build_deconv_weights(ens, b, quad64), 0.1, 1.0)
            for b in (0.2, 0.1, 0.05)
        ]
        assert bounds[0] < bounds[1] < bounds[2]

    def test_nonpositive_constant_rejected(self, quad64):
        with pytest.raises(ValueError):
            variance_bound_diagnostic(build_deconv_weights(_degenerate_ensemble(3), 0.1, quad64),
                                      0.1, 0.0)

    @pytest.mark.parametrize("c_sup", [float("nan"), float("inf"), -1.0])
    def test_nonfinite_or_negative_constant_rejected(self, quad64, c_sup):
        with pytest.raises(ValueError, match="finite and positive"):
            variance_bound_diagnostic(build_deconv_weights(_degenerate_ensemble(3), 0.1, quad64),
                                      0.1, c_sup)

    def test_an_underflowing_product_is_rejected(self, quad64):
        # h b = 1e-330 rounds to 0, which the bound divides by
        weights = build_deconv_weights(_degenerate_ensemble(3), 1e-30, quad64)
        with pytest.raises(BandwidthUnderflow):
            variance_bound_diagnostic(weights, 1e-300, 1.0)

    @pytest.mark.parametrize("h", [0.0, -1.0, float("nan"), float("inf")])
    def test_nonfinite_or_nonpositive_h_rejected(self, quad64, h):
        weights = build_deconv_weights(_degenerate_ensemble(3), 0.1, quad64)
        with pytest.raises(ValueError, match="h must be finite and positive"):
            variance_bound_diagnostic(weights, h, 1.0)
