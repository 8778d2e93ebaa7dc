import json
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from conftest import exit_in_child, needs_fork, underflowing_ensemble
from hypothesis import given, settings
from hypothesis import strategies as st

from hetdeconv import (
    ConfigError,
    EnsembleInvalid,
    ErrorEnsemble,
    ErrorFamily,
    GridAxis,
    KernelCache,
    Model,
    QuadratureGrid,
    Sample,
    SimulationConfig,
    bandwidth_search,
    build_ensemble,
    cross_section,
    generate,
    linear_slope,
    replication_rng,
    run_replications,
    simulation,
    true_regression,
)
from hetdeconv.estimators import RIDGE_SCALE, Bandwidths
from hetdeconv.kernels import MAX_QUAD_NODES, gaussian_kernel
from hetdeconv.simulation import (
    ERROR_VARIANCE_SCALE,
    GeneratedData,
    RunContext,
    SearchResult,
    _b_groups,
    _select_best,
)
from oracles import AllPointsExcluded, ase, ratio_grid


class TestTrueRegression:
    def test_model1_values(self):
        assert true_regression(Model.MODEL1, 1.0, 0.0) == 1.0
        for t in (-2.0, 0.3, 1.9):
            assert true_regression(Model.MODEL1, 0.0, t) == 0.0

    def test_model2_values(self):
        assert true_regression(Model.MODEL2, 1.0, 0.0) == 4.0
        assert true_regression(Model.MODEL2, 0.0, 0.0) == 1.0


class TestBuildEnsemble:
    def test_variance_profile(self):
        ens = build_ensemble(ErrorFamily.GAUSSIAN, 100)
        assert ens.n == 100
        assert ens.variances[99] == pytest.approx(8.0 / 15.0, abs=1e-15)
        assert ens.variances[0] == pytest.approx((4.0 / 15.0) * 1.01, abs=1e-15)
        assert ERROR_VARIANCE_SCALE == pytest.approx(4.0 / 15.0, abs=1e-16)

    def test_gaussian_ensemble_validates_at_small_bandwidth(self, quad64):
        from hetdeconv import build_deconv_weights

        ens = build_ensemble(ErrorFamily.GAUSSIAN, 100)
        assert build_deconv_weights(ens, 0.02, quad64).report.passed


class TestGenerate:
    def test_covariate_mean(self):
        rng = np.random.default_rng(1)
        n = 100_000
        data = generate(Model.MODEL1, n, build_ensemble(ErrorFamily.GAUSSIAN, n), rng)
        assert abs(data.sample.x.mean()) < 0.02

    def test_pooled_error_variance(self):
        rng = np.random.default_rng(2)
        n = 10_000
        data = generate(Model.MODEL1, n, build_ensemble(ErrorFamily.GAUSSIAN, n), rng)
        pooled = np.var(data.sample.w - data.latent)
        assert pooled == pytest.approx((4.0 / 15.0) * 1.5, rel=0.05)

    def test_bitwise_determinism(self):
        a = generate(Model.MODEL2, 200, build_ensemble(ErrorFamily.LAPLACE, 200),
                     replication_rng(77, 3))
        b = generate(Model.MODEL2, 200, build_ensemble(ErrorFamily.LAPLACE, 200),
                     replication_rng(77, 3))
        assert np.array_equal(a.sample.x, b.sample.x)
        assert np.array_equal(a.sample.w, b.sample.w)
        assert np.array_equal(a.sample.y, b.sample.y)
        assert np.array_equal(a.latent, b.latent)

    @pytest.mark.parametrize("family", [ErrorFamily.GAUSSIAN, ErrorFamily.LAPLACE])
    def test_draw_order_is_x_t_noise_errors(self, family):
        # one vectorized error draw over the whole ensemble, as in every
        # earlier version, so seeded datasets keep their bytes
        n = 300
        data = generate(Model.MODEL2, n, build_ensemble(family, n), replication_rng(5, 2))
        rng = replication_rng(5, 2)
        x, t = rng.uniform(-2.0, 2.0, n), rng.uniform(-2.0, 2.0, n)
        eps = rng.normal(0.0, 0.25, n)
        variances = ERROR_VARIANCE_SCALE * (1.0 + np.arange(1, n + 1) / n)
        if family is ErrorFamily.GAUSSIAN:
            u = rng.normal(0.0, np.sqrt(variances))
        else:
            u = rng.laplace(0.0, np.sqrt(variances / 2.0))
        assert data.sample.x.tobytes() == x.tobytes()
        assert data.latent.tobytes() == t.tobytes()
        assert data.sample.w.tobytes() == (t + u).tobytes()
        assert data.sample.y.tobytes() == (true_regression(Model.MODEL2, x, t) + eps).tobytes()

    def test_substreams_differ_across_replications(self):
        a = replication_rng(77, 1).uniform(size=4)
        b = replication_rng(77, 2).uniform(size=4)
        assert not np.array_equal(a, b)

    def test_response_uses_truth_plus_noise(self):
        rng = np.random.default_rng(3)
        n = 50_000
        data = generate(Model.MODEL1, n, build_ensemble(ErrorFamily.LAPLACE, n), rng)
        resid = data.sample.y - true_regression(data.model, data.sample.x, data.latent)
        assert resid.std() == pytest.approx(0.25, rel=0.03)
        assert abs(resid.mean()) < 0.005


class TestAse:
    def _truth(self, n=10):
        xg = tg = np.linspace(-2, 2, n)
        return true_regression(Model.MODEL1, xg[:, None], tg[None, :])

    def test_perfect_estimate_scores_zero(self):
        truth = self._truth()
        value, excluded = ase(truth, np.zeros_like(truth, dtype=bool), truth)
        assert value == 0.0 and excluded == 0

    def test_constant_offset(self):
        truth = self._truth()
        value, _ = ase(truth + 0.1, np.zeros_like(truth, dtype=bool), truth)
        assert value == pytest.approx(0.01, rel=1e-12)

    def test_all_points_flagged_raises(self):
        truth = self._truth(5)
        vals = np.zeros_like(truth)
        with pytest.raises(AllPointsExcluded):
            ase(vals, np.ones_like(vals, dtype=bool), truth)

    def test_excluded_points_are_not_scored(self):
        truth = self._truth(4)
        flags = np.zeros_like(truth, dtype=bool)
        vals = truth.copy()
        vals[0, 0] = 1e6  # garbage, but flagged away
        flags[0, 0] = True
        value, excluded = ase(vals, flags, truth)
        assert value == 0.0 and excluded == 1


class TestSelectBest:
    def test_ties_prefer_smallest_h_then_b(self):
        pairs = ((0.2, 0.1), (0.1, 0.2), (0.1, 0.1))
        values = np.array([1.0, 1.0, 1.0])
        assert _select_best(pairs, values) == 2

    def test_duplicate_pairs_keep_first(self):
        pairs = ((0.1, 0.1), (0.1, 0.1))
        assert _select_best(pairs, np.array([2.0, 2.0])) == 0

    def test_infinite_entries_skipped(self):
        pairs = ((0.1, 0.1), (0.2, 0.2))
        assert _select_best(pairs, np.array([np.inf, 5.0])) == 1


def _cache(data, count, quad):
    """Kernel cache of the sample on the count x count grid over [-2, 2]^2."""
    grid = np.linspace(-2, 2, count)
    return KernelCache(data.sample, grid, grid, quad)


class TestBandwidthSearch:
    def _data(self, seed=4, n=80, model=Model.MODEL1, family=ErrorFamily.LAPLACE):
        rng = np.random.default_rng(seed)
        return generate(model, n, build_ensemble(family, n), rng)

    def test_single_pair_returned(self, quad64):
        data = self._data()
        res = bandwidth_search(data, [(0.15, 0.15)], _cache(data, 10, quad64))
        assert res.best_pair == (0.15, 0.15)
        assert res.ase_values.shape == (1,)

    def test_duplicate_pair_tiebreak_first_occurrence(self, quad64):
        data = self._data()
        res = bandwidth_search(data, [(0.15, 0.15), (0.15, 0.15)], _cache(data, 10, quad64))
        assert res.best_index == 0
        assert res.ase_values[0] == res.ase_values[1]

    def test_invalid_bandwidths_recorded_and_skipped(self, quad64):
        # S(v) underflows at b = 0.05: small b invalid
        n = 30
        rng = np.random.default_rng(5)
        ens = underflowing_ensemble(n)
        x = rng.uniform(-2, 2, n)
        t = rng.uniform(-2, 2, n)
        y = true_regression(Model.MODEL1, x, t) + rng.normal(0, 0.25, n)
        sample = Sample(x=x, w=t, y=y, ensemble=ens)
        data = GeneratedData(sample=sample, latent=t, model=Model.MODEL1)
        cache = KernelCache(sample, np.linspace(-1, 1, 8), np.linspace(-1, 1, 8), quad64)
        res = bandwidth_search(data, [(0.1, 0.05), (0.1, 0.2)], cache)
        assert not np.isfinite(res.ase_values[0])         # invalid at b = 0.05
        assert res.statuses[0] and "invalid" in res.statuses[0]
        assert res.best_pair == (0.1, 0.2)

    def test_partial_linear_searches_unique_b_only(self, quad64):
        data = self._data(model=Model.MODEL2)
        pairs = [(h, b) for h in (0.1, 0.2) for b in (0.1, 0.2)]
        res = bandwidth_search(data, pairs, _cache(data, 8, quad64), estimator="partial_linear")
        assert res.pairs == ((None, 0.1), (None, 0.2))

    def test_deconv_beats_naive_majority_laplace_n500(self, quad64):
        wins = 0
        grid = np.linspace(0.02, 0.2, 4)
        pairs = [(h, b) for h in grid for b in grid]
        for seed in range(5):
            data = self._data(seed=100 + seed, n=500)
            cache = _cache(data, 12, quad64)
            r_d = bandwidth_search(data, pairs, cache, "deconv")
            r_n = bandwidth_search(data, pairs, cache, "naive")
            wins += r_d.best_ase <= r_n.best_ase
        assert wins >= 3


class TestSharedKernelCache:
    """Searches sharing one cache score exactly as the public grid functions do."""

    PAIRS = [(0.1, 0.05), (0.1, 0.2), (0.2, 0.2), (0.15, 0.3)]

    def _data(self):
        # the ensemble is invalid at b = 0.05 (S(v) underflows) and valid above
        n = 30
        rng = np.random.default_rng(6)
        ens = underflowing_ensemble(n)
        x = rng.uniform(-2, 2, n)
        t = rng.uniform(-2, 2, n)
        y = true_regression(Model.MODEL2, x, t) + rng.normal(0, 0.25, n)
        sample = Sample(x=x, w=t, y=y, ensemble=ens)
        return GeneratedData(sample=sample, latent=t, model=Model.MODEL2)

    def test_scores_equal_direct_grid_evaluation(self, quad64):
        data = self._data()
        sample = data.sample
        xg, tg = np.linspace(-2, 2, 9), np.linspace(-2, 2, 7)
        truth = true_regression(data.model, xg[:, None], tg[None, :])
        cache = KernelCache(sample, xg, tg, quad64)
        slope = linear_slope(sample)
        direct = {
            "deconv": lambda h, b: tuple(a[0, 0] for a in KernelCache(sample, xg, tg,
                                                                      quad64).deconv([h], [b])),
            "naive": lambda h, b: tuple(a[0, 0] for a in KernelCache(sample, xg, tg,
                                                                     quad64).naive([h], [b])),
            "partial_linear": lambda h, b: tuple(a[0, 0] for a in KernelCache(
                sample, xg, tg, quad64).partial_linear([b], slope)),
        }
        for name, evaluate in direct.items():
            res = bandwidth_search(data, self.PAIRS, cache, estimator=name)
            for i, (h, b) in enumerate(res.pairs):
                try:
                    values, flags, _ = evaluate(h, b)
                except EnsembleInvalid:
                    assert name != "naive"
                    assert b == 0.05 and res.ase_values[i] == np.inf
                    assert "invalid" in res.statuses[i]
                    continue
                assert res.ase_values[i] == ase(values, flags, truth)[0], (name, h, b)
        assert np.isfinite(bandwidth_search(data, self.PAIRS, cache, "naive").ase_values).all()

    def test_naive_search_never_validates(self, quad64, monkeypatch):
        import hetdeconv.estimators as estimators

        def refuse(*args, **kwargs):
            raise AssertionError("the naive estimator built deconvolution weights")

        monkeypatch.setattr(estimators, "build_deconv_weights", refuse)
        data = self._data()
        res = bandwidth_search(data, self.PAIRS, _cache(data, 8, quad64), estimator="naive")
        assert np.isfinite(res.ase_values).all()

    def test_replication_builds_each_kernel_matrix_once(self, monkeypatch):
        import hetdeconv.estimators as estimators
        import hetdeconv.simulation as simulation

        cfg = _tiny_config(model="model2", reps=1, bandwidth_grid={
            "h": {"start": 0.1, "stop": 0.2, "count": 2},
            "b": {"start": 0.1, "stop": 0.3, "count": 3}})
        built = []
        build_fn, right_fn = estimators.build_deconv_weights, simulation.deconv_right
        with monkeypatch.context() as patch:
            # the run builds each b's weights and its t-side factor once
            patch.setattr(estimators, "build_deconv_weights",
                          lambda ens, b, quad: built.append(("weights", b)) or build_fn(ens, b, quad))
            patch.setattr(simulation, "deconv_right",
                          lambda w, args: built.append(("right", w.bandwidth)) or right_fn(w, args))
            context = simulation.RunContext.build(cfg)
        b_values = list(cfg.b_values)
        assert built == [("weights", b) for b in b_values] + [("right", b) for b in b_values]
        # the (n, T) kernels of one b outweigh its (H, X, T) contraction of
        # two h, so a budget of two b's kernels cuts the three b into groups
        # of 2 and 1
        n, n_x, n_t = cfg.n, context.x_values.size, context.t_values.size
        assert n * n_t > 2 * n_x * n_t
        for budget, groups in ((simulation.GROUP_BUDGET, [b_values]),
                               (2 * n * n_t, [b_values[:2], b_values[2:]])):
            with monkeypatch.context() as patch:
                patch.setattr(simulation, "GROUP_BUDGET", budget)
                self._check_builds(patch, context, groups)

    @staticmethod
    def _check_builds(monkeypatch, context, groups):
        import hetdeconv.estimators as estimators
        import hetdeconv.simulation as simulation

        calls = {"lt": [], "kt": [], "deconv_left": [], "deconv_right": [], "gaussian_kernel": 0,
                 "stacked": [], "floored_ratio": 0, "build_deconv_weights": 0}
        lt_fn, kt_fn = estimators.KernelCache.lt, estimators.KernelCache.kt
        left_fn, gauss_fn = estimators.deconv_left, estimators.gaussian_kernel
        stacked_fn, floored_fn = estimators.stacked_ratio_grid, estimators.floored_ratio

        def counted_lt(cache, bs):
            calls["lt"].append(list(bs))
            return lt_fn(cache, bs)

        def counted_kt(cache, bs):
            calls["kt"].append(list(bs))
            return kt_fn(cache, bs)

        def counted_left(weights, obs_args, rows, **buffers):
            calls["deconv_left"].append(weights.bandwidth)
            return left_fn(weights, obs_args, rows, **buffers)

        def counted_right(weights, eval_args):
            calls["deconv_right"].append(weights.bandwidth)

        def counted_build(ensemble, b, quad):
            calls["build_deconv_weights"] += 1

        def counted_gauss(u, out=None):
            calls["gaussian_kernel"] += 1
            return gauss_fn(u, out)

        def counted_stacked(stack, y, kt, scale, floor, rows):
            calls["stacked"].append((kt.shape[0], stack.shape[0]))
            return stacked_fn(stack, y, kt, scale, floor, rows)

        def counted_floored(num, den, floor):
            calls["floored_ratio"] += 1
            return floored_fn(num, den, floor)

        monkeypatch.setattr(estimators.KernelCache, "lt", counted_lt)
        monkeypatch.setattr(estimators.KernelCache, "kt", counted_kt)
        monkeypatch.setattr(estimators, "deconv_left", counted_left)
        monkeypatch.setattr(estimators, "deconv_right", counted_right)
        monkeypatch.setattr(estimators, "build_deconv_weights", counted_build)
        monkeypatch.setattr(estimators, "gaussian_kernel", counted_gauss)
        monkeypatch.setattr(estimators, "stacked_ratio_grid", counted_stacked)
        monkeypatch.setattr(estimators, "floored_ratio", counted_floored)
        out = simulation._replicate(context, 1)
        assert all(isinstance(out[name], SearchResult)
                   for name in ("deconv", "naive", "partial_linear"))
        h_values = {h for h, _ in context.config.bw_pairs}
        # each b in exactly one lt build (one per group, shared by deconv and
        # partial-linear, of one kernel build per b, here one block of rows)
        # and in exactly one kt build; the weights and the t-side factors
        # are the run's
        assert calls["lt"] == groups
        assert calls["deconv_left"] == [b for g in groups for b in g]
        assert calls["deconv_right"] == [] and calls["build_deconv_weights"] == 0
        assert calls["kt"] == groups
        # kx once per distinct h (into the stack), the naive kt once per group
        assert calls["gaussian_kernel"] == len(h_values) + len(groups)
        # one contraction per (group, estimator): deconv, then naive, over
        # every (b, h) of the group at once; partial-linear over every b of
        # the group at once, on the contaminated direction alone
        assert calls["stacked"] == [(len(g), len(h_values)) for g in groups for _ in range(2)]
        assert calls["floored_ratio"] == 3 * len(groups)


def _per_pair(cache, estimator, h, b, slope=None):
    """One estimator at one (h, b) by oracles.ratio_grid on per-pair kx, kt and lt."""
    sample = cache.sample
    if estimator == "partial_linear":
        ratio, flags, density = ratio_grid(None, cache.lt([b])[0], sample.y - sample.x * slope, b,
                                           RIDGE_SCALE / b)
        values = cache.x_values[:, None] * slope + ratio[None, :]
        return (values, np.broadcast_to(flags, values.shape),
                np.broadcast_to(density, values.shape))
    kx = gaussian_kernel((cache.x_values[None, :] - sample.x[:, None]) / h)
    if estimator == "deconv":
        return ratio_grid(kx, cache.lt([b])[0], sample.y, h * b, RIDGE_SCALE / (h * b))
    return ratio_grid(kx, cache.kt([b])[0], sample.y, sample.n * h * b, RIDGE_SCALE / (h * b))


def _per_pair_search(data, pairs, cache, estimator):
    """The search as one oracle ratio per pair: the reference for the stacked pass.

    Returns (ase_values, excluded, statuses) as a SearchResult holds them.
    """
    truth = true_regression(data.model, cache.x_values[:, None], cache.t_values[None, :])
    slope = None
    if estimator == "partial_linear":
        slope = linear_slope(data.sample)
        pairs = [(None, b) for b in sorted({b for _, b in pairs})]
    scores, statuses = [], []
    for h, b in pairs:
        try:
            values, flags, _ = _per_pair(cache, estimator, h, b, slope)
            scores.append(ase(values, flags, truth))
            statuses.append(None)
        except (EnsembleInvalid, AllPointsExcluded) as exc:
            scores.append((np.inf, 0))
            statuses.append(str(exc))
    return (np.array([a for a, _ in scores]), np.array([e for _, e in scores]),
            tuple(statuses))


class TestStackedSweep:
    """The stacked estimators and the b-major pass reproduce the per-pair oracle ratio."""

    def test_stacked_pass_equals_per_pair_estimators(self, quad64):
        # n = 500 on a 20 x 20 grid: one flat (2 H X, n) @ (n, T) product
        # takes another BLAS kernel than the (X, n) @ (n, T) products here
        n = 500
        data = generate(Model.MODEL2, n, build_ensemble(ErrorFamily.LAPLACE, n),
                        replication_rng(20250808, 1))
        grid = np.linspace(0.02, 0.2, 5)
        pairs = [(h, b) for h in grid for b in grid]
        xg = tg = np.linspace(-2, 2, 20)
        cache = KernelCache(data.sample, xg, tg, quad64)
        hs, b = sorted(grid), grid[2]
        values, flags, density = (a[0] for a in cache.naive(hs, [b]))
        deconv = tuple(a[0] for a in cache.deconv(hs, [b]))
        reference = KernelCache(data.sample, xg, tg, quad64)
        for r, h in enumerate(hs):
            ref = _per_pair(reference, "naive", h, b)
            assert np.array_equal(values[r], ref[0]) and np.array_equal(density[r], ref[2])
            assert np.array_equal(flags[r], ref[1])
            ref = _per_pair(reference, "deconv", h, b)
            np.testing.assert_allclose(deconv[0][r], ref[0], rtol=1e-12, atol=0)
            np.testing.assert_allclose(deconv[2][r], ref[2], rtol=1e-12, atol=0)
            assert np.array_equal(deconv[1][r], ref[1])
        for name in ("deconv", "naive", "partial_linear"):
            res = bandwidth_search(data, pairs, cache, estimator=name)
            ase_values, excluded, statuses = _per_pair_search(data, pairs, reference, name)
            if name == "naive":
                assert np.array_equal(res.ase_values, ase_values)
            else:
                np.testing.assert_allclose(res.ase_values, ase_values, rtol=1e-12, atol=0)
            assert np.array_equal(res.excluded, excluded) and res.statuses == statuses

    def test_stack_answers_subsets_as_fresh_caches_do(self, quad64, monkeypatch):
        import hetdeconv.estimators as estimators

        n = 200
        data = generate(Model.MODEL2, n, build_ensemble(ErrorFamily.LAPLACE, n),
                        replication_rng(3, 1))
        xg, tg = np.linspace(-2, 2, 12), np.linspace(-2, 2, 9)
        hs, b = [0.02, 0.065, 0.11, 0.155, 0.2], 0.11
        subsets = ([0.155, 0.065], [0.11], hs)
        fresh = [KernelCache(data.sample, xg, tg, quad64) for _ in subsets]
        expected = [(c.deconv(subset, [b]), c.naive(subset, [b]))
                    for c, subset in zip(fresh, subsets)]
        cache = KernelCache(data.sample, xg, tg, quad64)
        cache.kx_stack(hs)
        gauss_fn, calls = estimators.gaussian_kernel, []

        def counted_gauss(u):
            calls.append(np.shape(u))
            return gauss_fn(u)

        monkeypatch.setattr(estimators, "gaussian_kernel", counted_gauss)
        for subset, refs in zip(subsets, expected):
            for got, ref in zip((cache.deconv(subset, [b]), cache.naive(subset, [b])), refs):
                for a, r in zip(got, ref):
                    assert a.shape == (1, len(subset), xg.size, tg.size)
                    assert a.tobytes() == r.tobytes()
        # one kt per naive call; every kx came from the stack
        assert calls == [(1, n, tg.size)] * len(subsets)

    def test_statuses_match_per_pair(self, quad64):
        # x far from the x grid: at h = 0.05 every kx underflows to 0 and the
        # whole grid is ridge-floored; the Gaussian laws are invalid at b = 0.018
        n = 40
        rng = np.random.default_rng(8)
        x = rng.uniform(-2.0, -1.6, n)
        t = rng.uniform(-2.0, 2.0, n)
        y = true_regression(Model.MODEL2, x, t) + rng.normal(0, 0.25, n)
        sample = Sample(x=x, w=t, y=y, ensemble=build_ensemble(ErrorFamily.GAUSSIAN, n))
        data = GeneratedData(sample=sample, latent=t, model=Model.MODEL2)
        pairs = [(0.05, 0.3), (1.0, 0.3), (0.5, 0.3), (1.0, 0.018), (0.05, 0.018)]
        xg, tg = np.linspace(1.6, 2.0, 6), np.linspace(-2, 2, 7)
        seen = set()
        for name in ("deconv", "naive", "partial_linear"):
            res = bandwidth_search(data, pairs, KernelCache(sample, xg, tg, quad64), name)
            ase_values, excluded, statuses = _per_pair_search(
                data, pairs, KernelCache(sample, xg, tg, quad64), name)
            assert res.statuses == statuses, name
            assert np.array_equal(res.ase_values, ase_values), name
            assert np.array_equal(res.excluded, excluded), name
            seen.update(s.split(" ")[0] for s in statuses if s)
        assert seen == {"all", "ensemble"}   # both kinds of status occur


def _far_sample(n=40, seed=8):
    """Gaussian-error sample with x in [-2, -1.6]: far from an x grid on [1.6, 2], every kx
    underflows to 0 at h = 0.05, so that h is ridge-floored on the whole grid."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, -1.6, n)
    t = rng.uniform(-2.0, 2.0, n)
    y = true_regression(Model.MODEL2, x, t) + rng.normal(0, 0.25, n)
    sample = Sample(x=x, w=t, y=y, ensemble=build_ensemble(ErrorFamily.GAUSSIAN, n))
    return GeneratedData(sample=sample, latent=t, model=Model.MODEL2)


def _partition(cfg):
    """The sweep's groups of b for one replication of ``cfg``, as lists of b."""
    context = RunContext.build(cfg)
    data = generate(cfg.model, cfg.n, context.ensemble, replication_rng(cfg.seed, 1))
    cache = KernelCache(data.sample, context.x_values, context.t_values, context.quad)
    h_of = {b: {h for h, pb in cfg.bw_pairs if pb == b} for b in cfg.b_values}
    return [bs for bs, _ in _b_groups(h_of, cache)]


class TestGroupedSweep:
    """The sweep over groups of b scores exactly as one b, and one pair, at a time."""

    def test_group_contraction_equals_per_b_slices(self, quad64):
        from hetdeconv.estimators import block_rows, stacked_ratio_grid

        data = _far_sample()
        xg, tg = np.linspace(1.6, 2.0, 6), np.linspace(-2, 2, 7)
        cache = KernelCache(data.sample, xg, tg, quad64)
        hs, bs = [0.05, 0.5, 1.0], np.array([0.1, 0.2, 0.3])
        stack = cache.kx_stack(hs)
        hb = np.asarray(hs) * bs[:, None]
        for kernels, scale in ((cache.lt(bs), hb), (cache.kt(bs), data.sample.n * hb)):
            group = stacked_ratio_grid(stack, data.sample.y, kernels, scale, RIDGE_SCALE / hb,
                                       block_rows(quad64))
            assert group[1].any() and not group[1].all()     # flagged and clean slices
            for k in range(len(bs)):
                one = stacked_ratio_grid(stack, data.sample.y, kernels[k:k + 1], scale[k:k + 1],
                                         RIDGE_SCALE / hb[k:k + 1], block_rows(quad64))
                for a, r in zip(group, one):
                    assert a.shape == (len(bs), len(hs), xg.size, tg.size)
                    assert a[k].tobytes() == r[0].tobytes()
        for evaluate in (cache.deconv, cache.naive):
            group = evaluate(hs, bs)
            for k, b in enumerate(bs):
                for a, r in zip(group, evaluate(hs, [b])):
                    assert a[k].tobytes() == r[0].tobytes()

    @pytest.mark.parametrize("m", [64, 65])
    @pytest.mark.parametrize("family", [ErrorFamily.GAUSSIAN, ErrorFamily.LAPLACE])
    def test_partial_linear_group_equals_per_b_and_the_oracle(self, family, m):
        n = 40
        data = generate(Model.MODEL2, n, build_ensemble(family, n), replication_rng(11, 1))
        # w_0 / b overflows at b = 0.05 only, so that slice is flagged at every t
        w = data.sample.w.copy()
        w[0] = 1.5e307
        sample = Sample(data.sample.x, w, data.sample.y, data.sample.ensemble)
        xg, tg = np.linspace(-2, 2, 5), np.linspace(-2, 2, 7)
        cache = KernelCache(sample, xg, tg, QuadratureGrid.gauss_legendre(m))
        bs, slope = [0.05, 0.1, 0.2, 0.3], linear_slope(sample)
        group = cache.partial_linear(bs, slope)
        assert group[1][0].all() and not group[1][1:].any()
        for k, b in enumerate(bs):
            oracle = _per_pair(cache, "partial_linear", None, b, slope)
            for a, one, r in zip(group, cache.partial_linear([b], slope), oracle):
                assert a.shape == (len(bs), 1, xg.size, tg.size)
                assert a[k].tobytes() == one[0].tobytes()
                assert a[k, 0].tobytes() == np.ascontiguousarray(r).tobytes()

    def test_group_with_invalid_b_and_flagged_h_equals_per_pair(self, quad64):
        # b = 0.018 is invalid for the Gaussian laws, h = 0.05 is ridge-floored
        # everywhere; both sit in one group with the valid b
        data = _far_sample()
        xg, tg = np.linspace(1.6, 2.0, 6), np.linspace(-2, 2, 7)
        pairs = [(h, b) for b in (0.3, 0.018, 0.1) for h in (1.0, 0.05, 0.5)]
        cache = KernelCache(data.sample, xg, tg, quad64)
        h_of = {b: {h for h, pb in pairs if pb == b} for b in (0.018, 0.1, 0.3)}
        assert _b_groups(h_of, cache) == [([0.018, 0.1, 0.3], [0.05, 0.5, 1.0])]
        seen = set()
        for name in ("deconv", "naive", "partial_linear"):
            res = bandwidth_search(data, pairs, cache, name)
            ase_values, excluded, statuses = _per_pair_search(
                data, pairs, KernelCache(data.sample, xg, tg, quad64), name)
            assert res.statuses == statuses, name
            assert np.array_equal(res.ase_values, ase_values), name
            assert np.array_equal(res.excluded, excluded), name
            seen.update(s.split(" ")[0] for s in statuses if s)
        assert seen == {"all", "ensemble"}   # both kinds of status occur

    @settings(max_examples=100, deadline=None, derandomize=True)
    # n_t and n_x range so that either the (B, n, T) kernels or the
    # (B, H, X, T) contraction can be the largest array of a group
    @given(n=st.integers(2, 60), m=st.integers(16, 40),
           n_x=st.integers(1, 12), n_t=st.integers(1, 24), budget=st.integers(1, 6000),
           h_sets=st.lists(st.sets(st.sampled_from([0.02, 0.05, 0.1, 0.2, 0.5]), min_size=1),
                           min_size=1, max_size=8))
    def test_groups_partition_the_sorted_b_within_the_budget(self, n, m, n_x, n_t, budget,
                                                              h_sets):
        h_of = {0.1 * (k + 1): sorted(hs) for k, hs in enumerate(h_sets)}
        sample = Sample(x=np.zeros(n), w=np.zeros(n), y=np.zeros(n),
                        ensemble=ErrorEnsemble.from_arrays(["degenerate"] * n, [0.0] * n))
        cache = KernelCache(sample, np.zeros(n_x), np.zeros(n_t), QuadratureGrid.gauss_legendre(m))

        def largest(bs, hs):
            # the (B, H, X, T) contraction and the (B, n, T) kernels
            return len(bs) * max(len(hs) * n_x * n_t, n * n_t)

        with mock.patch.object(simulation, "GROUP_BUDGET", budget):
            groups = _b_groups(h_of, cache)
        assert [b for bs, _ in groups for b in bs] == list(h_of)
        for bs, hs in groups:
            assert hs == sorted(set().union(*(h_of[b] for b in bs)))
            assert len(bs) == 1 or largest(bs, hs) <= budget
        for (bs, hs), (after, _) in zip(groups, groups[1:]):
            # each group is the longest run that fits: its next b would not
            assert largest(bs + after[:1], set(hs) | set(h_of[after[0]])) > budget

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(2, 60), n_x=st.integers(1, 12), n_t=st.integers(1, 24),
           budget=st.integers(1, 6000), seed=st.integers(0, 2 ** 32 - 1),
           h_sets=st.lists(st.sets(st.sampled_from([0.2, 0.5, 1.0]), min_size=1),
                           min_size=1, max_size=6))
    def test_the_sweep_allocates_within_the_budget(self, n, n_x, n_t, budget, seed, h_sets):
        # measured, not restated: every (B, n, T) kernel that lt and kt
        # return and every (B, H, X, T) contraction of stacked_ratio_grid
        # during one sweep holds at most the budget, unless its group is one b
        import hetdeconv.estimators as estimators
        import hetdeconv.kernels as kernels

        rng = np.random.default_rng(seed)
        sample = Sample(x=rng.uniform(-1, 1, n), w=rng.uniform(-1, 1, n), y=rng.normal(size=n),
                        ensemble=ErrorEnsemble.from_arrays(["laplace"] * n, [0.01] * n))
        cache = KernelCache(sample, np.linspace(-1, 1, n_x), np.linspace(-1, 1, n_t),
                            QuadratureGrid.gauss_legendre(16))
        pairs = [(h, 0.1 * (k + 1)) for k, hs in enumerate(h_sets) for h in sorted(hs)]
        shapes = {"lt": [], "kt": [], "stacked": []}

        def recorded(name, fn):
            def call(*args):
                out = fn(*args)
                shapes[name].append((out[0] if name == "stacked" else out).shape)
                return out
            return call

        with mock.patch.object(simulation, "GROUP_BUDGET", budget), \
                mock.patch.object(estimators, "GROUP_BUDGET", budget), \
                mock.patch.object(kernels, "GROUP_BUDGET", budget), \
                mock.patch.object(KernelCache, "lt", recorded("lt", KernelCache.lt)), \
                mock.patch.object(KernelCache, "kt", recorded("kt", KernelCache.kt)), \
                mock.patch.object(estimators, "stacked_ratio_grid",
                                  recorded("stacked", estimators.stacked_ratio_grid)):
            simulation._sweep(pairs, cache, ("deconv", "naive", "partial_linear"),
                              np.zeros((n_x, n_t)))
        # each b is in one lt and one kt build, and in two contractions
        b_count = len(h_sets)
        assert sum(shape[0] for shape in shapes["lt"]) == b_count
        assert sum(shape[0] for shape in shapes["kt"]) == b_count
        assert sum(shape[0] for shape in shapes["stacked"]) == 2 * b_count
        for shape in shapes["lt"] + shapes["kt"] + shapes["stacked"]:
            assert shape[0] == 1 or np.prod(shape) <= budget, shape

    @pytest.mark.parametrize("raw,full_scale,sizes", [
        ({"model": "model2", "error_family": "laplace", "n": 500}, True, [2] * 5),
        ({"model": "model1", "error_family": "gaussian", "n": 500}, True, [2] * 5),
        ({"model": "model1", "error_family": "gaussian", "n": 100}, False, [5]),
        ({"model": "model2", "error_family": "laplace", "n": 100}, False, [5]),
        ({"model": "model1", "error_family": "gaussian", "n": 500}, False, [5]),
        ({"model": "model1", "error_family": "laplace", "n": 100}, True, [2] * 5),
    ], ids=["full-500", "full-500-gauss", "desk-100", "desk-100-m2", "desk-500", "full-100"])
    def test_group_partition_of_the_protocols(self, raw, full_scale, sizes):
        # full scale, n = 500: the (n, T) kernels of one b and its (H, X, T)
        # contraction each hold 25 000 of the 65 536 elements, so the ten b
        # run in groups of two; desk: all five b fit in one group at n = 100
        # and at n = 500
        cfg = SimulationConfig.from_dict({**raw, "seed": 20250808}, full_scale=full_scale)
        groups = _partition(cfg)
        assert [len(g) for g in groups] == sizes
        assert [b for g in groups for b in g] == list(cfg.b_values)


class TestSubnormalFlush:
    def test_full_scale_naive_search_equals_the_unflushed_kernel(self, quad64, monkeypatch):
        import hetdeconv.estimators as estimators

        cfg = SimulationConfig.from_dict(
            {"model": "model2", "error_family": "laplace", "n": 500, "seed": 20250808},
            full_scale=True)
        data = generate(cfg.model, cfg.n, build_ensemble(cfg.error_family, cfg.n),
                        replication_rng(cfg.seed, 1))
        xg, tg = cfg.eval_x.values(), cfg.eval_t.values()
        flushed = bandwidth_search(data, cfg.bw_pairs, KernelCache(data.sample, xg, tg, quad64),
                                   "naive")

        def unflushed(u, out=None):
            k = np.exp(-0.5 * u * u) / np.sqrt(2 * np.pi)
            if out is None:
                return k
            out[...] = k
            return out

        tiny = np.finfo(float).tiny
        kx = unflushed((xg[None, :] - data.sample.x[:, None]) / 0.02)
        assert np.any((kx > 0) & (kx < tiny))              # subnormals do occur here
        monkeypatch.setattr(estimators, "gaussian_kernel", unflushed)
        reference = bandwidth_search(data, cfg.bw_pairs, KernelCache(data.sample, xg, tg, quad64),
                                     "naive")
        assert np.array_equal(flushed.ase_values, reference.ase_values)
        assert np.array_equal(flushed.excluded, reference.excluded)


class TestConfig:
    def _raw(self, **extra):
        raw = {"model": "model1", "error_family": "normal", "n": 100, "seed": 9}
        raw.update(extra)
        return raw

    def test_desk_defaults(self):
        cfg = SimulationConfig.from_dict(self._raw())
        assert cfg.reps == 20
        assert cfg.quad_nodes == 64
        assert len(cfg.bw_pairs) == 25
        assert cfg.eval_x.count == 20 and cfg.eval_t.count == 20
        assert cfg.error_family is ErrorFamily.GAUSSIAN

    def test_full_scale_defaults(self):
        cfg = SimulationConfig.from_dict(self._raw(), full_scale=True)
        assert cfg.reps == 100
        assert cfg.quad_nodes == 128
        assert len(cfg.bw_pairs) == 100
        assert cfg.eval_x.count == 50

    def test_round_trip(self):
        cfg = SimulationConfig.from_dict(self._raw(reps=3, quad_nodes=32))
        again = SimulationConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_axes_form_tensor_grid(self):
        raw = self._raw(bandwidth_grid={
            "h": {"start": 0.1, "stop": 0.2, "count": 2},
            "b": {"start": 0.05, "stop": 0.15, "count": 3},
        })
        cfg = SimulationConfig.from_dict(raw)
        assert len(cfg.bw_pairs) == 6
        assert cfg.b_values == (0.05, 0.1, 0.15)

    def test_explicit_pairs(self):
        cfg = SimulationConfig.from_dict(self._raw(bandwidth_grid={"pairs": [[0.1, 0.2]]}))
        assert cfg.bw_pairs == ((0.1, 0.2),)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1])
    def test_nonfinite_pairs_rejected(self, bad):
        for pair in ([bad, 0.1], [0.1, bad]):
            with pytest.raises(ConfigError, match="bandwidth_grid.pairs: bandwidths must be finite"):
                SimulationConfig.from_dict(self._raw(bandwidth_grid={"pairs": [pair]}))

    def test_an_underflowing_pair_product_is_rejected(self):
        with pytest.raises(ConfigError, match="bandwidth product h\\*b is below"):
            SimulationConfig.from_dict(self._raw(bandwidth_grid={"pairs": [[1e-300, 1e-30]]}))

    def test_quad_nodes_are_capped(self):
        assert SimulationConfig.from_dict(self._raw(quad_nodes=MAX_QUAD_NODES)).quad_nodes == MAX_QUAD_NODES
        for bad in (15, MAX_QUAD_NODES + 1):
            with pytest.raises(ConfigError, match=f"in \\[16, {MAX_QUAD_NODES}\\]"):
                SimulationConfig.from_dict(self._raw(quad_nodes=bad))

    def test_negative_n_rejected(self):
        with pytest.raises(ConfigError):
            SimulationConfig.from_dict(self._raw(n=-5))

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            SimulationConfig.from_dict(self._raw(bogus=1))

    def test_degenerate_family_rejected(self):
        with pytest.raises(ConfigError):
            SimulationConfig.from_dict(self._raw(error_family="degenerate"))

    def test_eval_grid_outside_support_rejected(self):
        with pytest.raises(ConfigError):
            SimulationConfig.from_dict(self._raw(eval_grid={
                "x": {"start": -3, "stop": 2, "count": 10},
                "t": {"start": -2, "stop": 2, "count": 10},
            }))

    @pytest.mark.parametrize("extra", [
        {"bandwidth_grid": 5},
        {"eval_grid": [1, 2]},
        {"schema_version": "x"},
        {"eval_grid": {"x": {"start": -2, "stop": 2, "count": "a"},
                       "t": {"start": -2, "stop": 2, "count": 5}}},
        {"bandwidth_grid": {"h": {"start": 0.1, "stop": 0.2, "count": "a"},
                            "b": {"start": 0.1, "stop": 0.2, "count": 2}}},
        {"n": 2.9}, {"reps": 1.5}, {"quad_nodes": 32.5}, {"seed": 1.5}, {"n": None},
        {"eval_grid": {"x": {"start": -2, "stop": 2, "count": 5.5},
                       "t": {"start": -2, "stop": 2, "count": 5}}},
    ], ids=["bandwidth_grid", "eval_grid", "schema_version", "eval_count", "bw_count",
            "n", "reps", "quad_nodes", "seed", "n_null", "fractional_count"])
    def test_malformed_values_raise_config_error(self, extra):
        with pytest.raises(ConfigError):
            SimulationConfig.from_dict(self._raw(**extra))

    def test_integral_numbers_are_accepted_as_integers(self):
        cfg = SimulationConfig.from_dict(self._raw(n=100.0, reps=3.0, quad_nodes=32.0,
                                                   schema_version=1.0))
        assert (cfg.n, cfg.reps, cfg.quad_nodes) == (100, 3, 32)
        assert all(type(v) is int for v in (cfg.n, cfg.reps, cfg.quad_nodes, cfg.seed))
        assert GridAxis(-2, 2, 5.0).count == 5

    @pytest.mark.parametrize("value,shown", [(True, "True"), (False, "False"), ("20", "'20'")])
    @pytest.mark.parametrize("field", ["n", "reps", "quad_nodes", "seed", "schema_version",
                                       "eval_grid.x.count", "bandwidth_grid.h.count"])
    def test_booleans_and_strings_are_no_integers(self, field, value, shown):
        # JSON true once ran one replication, and "n": true failed as "n must be >= 2, got 1"
        raw = self._raw(
            eval_grid={"x": {"start": -2, "stop": 2, "count": 5},
                       "t": {"start": -2, "stop": 2, "count": 5}},
            bandwidth_grid={"h": {"start": 0.1, "stop": 0.2, "count": 2},
                            "b": {"start": 0.1, "stop": 0.2, "count": 2}})
        *path, name = field.split(".")
        node = raw
        for part in path:
            node = node[part]
        node[name] = value
        prefix = f"{'.'.join(path)}: " if path else ""
        with pytest.raises(ConfigError, match=f"^{prefix}{name} must be an integer, got {shown}$"):
            SimulationConfig.from_dict(raw)

    @pytest.mark.parametrize("value,shown", [(True, "True"), (False, "False"), ("0.1", "'0.1'"),
                                             (None, "None"), (10 ** 400, str(10 ** 400))],
                             ids=["true", "false", "string", "null", "huge_int"])
    @pytest.mark.parametrize("field", ["pairs.h", "pairs.b", "eval_grid.x.start",
                                       "eval_grid.t.stop", "bandwidth_grid.h.start",
                                       "bandwidth_grid.b.stop"])
    def test_booleans_and_strings_are_no_numbers(self, field, value, shown):
        # [[true, 0.2]] once ran h = 1.0, an axis "start": true failed as
        # "axis start 1.0 must be < stop 0.2", and an integer beyond the
        # float range raised OverflowError
        axis = {"start": 0.1, "stop": 0.2, "count": 2}
        if field.startswith("pairs."):
            pair = [0.1, 0.2]
            pair[field == "pairs.b"] = value
            raw = self._raw(bandwidth_grid={"pairs": [[0.1, 0.1], pair]})
            pattern = f"^bandwidth_grid.pairs entry must be a number, got {shown}$"
        else:
            grid, key, name = field.split(".")
            raw = self._raw(**{grid: {k: dict(axis) for k in ("xt" if grid == "eval_grid"
                                                                 else "hb")}})
            raw[grid][key][name] = value
            pattern = f"^{grid}.{key}: {name} must be a number, got {shown}$"
        with pytest.raises(ConfigError, match=pattern):
            SimulationConfig.from_dict(raw)

    def test_numbers_of_any_real_type_are_accepted(self):
        cfg = SimulationConfig.from_dict(self._raw(
            bandwidth_grid={"pairs": [[1, np.float32(0.5)], [np.int64(2), 0.25]]},
            eval_grid={"x": {"start": -2, "stop": 2, "count": 3},
                       "t": {"start": np.float64(-1), "stop": 1.5, "count": 3}}))
        assert cfg.bw_pairs == ((1.0, 0.5), (2.0, 0.25))
        assert all(type(v) is float for pair in cfg.bw_pairs for v in pair)
        assert (cfg.eval_t.start, cfg.eval_x.start) == (-1.0, -2.0)

    @pytest.mark.parametrize("grid,message", [
        ({"eval_grid": {"x": {"start": -1, "stop": 1, "count": 5, "cnt": 50},
                        "t": {"start": -1, "stop": 1, "count": 5}}},
         "unknown eval_grid.x fields: ['cnt']"),
        ({"eval_grid": {"x": {"start": -1, "stop": 1, "count": 5},
                        "t": {"start": -1, "stop": 1, "count": 5},
                        "y": {"start": -1, "stop": 1, "count": 5}}},
         "unknown eval_grid fields: ['y']"),
        ({"bandwidth_grid": {"h": {"start": 0.1, "stop": 0.2, "count": 2},
                             "b": {"start": 0.1, "stop": 0.2, "count": 2, "Count": 9}}},
         "unknown bandwidth_grid.b fields: ['Count']"),
        ({"bandwidth_grid": {"pairs": [[0.1, 0.2]], "pair": [[0.3, 0.4]]}},
         "bandwidth_grid takes either 'pairs' or the 'h' and 'b' axes, got ['pair', 'pairs']"),
        ({"bandwidth_grid": {"h": {"start": 0.1, "stop": 0.2, "count": 2},
                             "b": {"start": 0.1, "stop": 0.2, "count": 2}, "x": 1}},
         "bandwidth_grid takes either 'pairs' or the 'h' and 'b' axes, got ['b', 'h', 'x']"),
        ({"bandwidth_grid": {"pairs": [[0.1, 0.2]],
                             "h": {"start": 0.1, "stop": 0.2, "count": 2},
                             "b": {"start": 0.1, "stop": 0.2, "count": 2}}},
         "bandwidth_grid takes either 'pairs' or the 'h' and 'b' axes, got ['b', 'h', 'pairs']"),
    ], ids=["axis", "eval_grid", "bandwidth_axis", "bandwidth_pairs", "bandwidth_axes",
            "two_forms"])
    def test_nested_unknown_keys_are_rejected(self, grid, message):
        # the misspelt count once ran with count 5, and the axes beside
        # pairs were dropped
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            SimulationConfig.from_dict(self._raw(**grid))

    def test_grid_axis_values_inclusive(self):
        axis = GridAxis(-2.0, 2.0, 5)
        assert np.array_equal(axis.values(), np.linspace(-2, 2, 5))


def _tiny_config(**overrides):
    raw = {
        "model": "model1",
        "error_family": "laplace",
        "n": 40,
        "reps": 2,
        "seed": 11,
        "quad_nodes": 32,
        "bandwidth_grid": {"h": {"start": 0.1, "stop": 0.2, "count": 2},
                           "b": {"start": 0.1, "stop": 0.2, "count": 2}},
        "eval_grid": {"x": {"start": -2, "stop": 2, "count": 8},
                      "t": {"start": -2, "stop": 2, "count": 8}},
    }
    raw.update(overrides)
    return SimulationConfig.from_dict(raw)


def assert_same_results(got, want):
    """Two summaries keep the same replications, with equal scores, exclusions, statuses and optima."""
    assert [rep for rep, _ in got.results] == [rep for rep, _ in want.results]
    for (_, a), (_, b) in zip(got.results, want.results):
        assert a.pairs == b.pairs
        assert a.ase_values.tobytes() == b.ase_values.tobytes()
        assert np.array_equal(a.excluded, b.excluded)
        assert a.statuses == b.statuses
        assert a.best_index == b.best_index


class TestRunReplications:
    def test_single_replication_deterministic(self):
        cfg = _tiny_config(reps=1)
        r1 = run_replications(cfg)
        r2 = run_replications(cfg)
        for name in r1.estimators:
            assert r1.estimators[name].grand_mean == r2.estimators[name].grand_mean
            assert_same_results(r1.estimators[name], r2.estimators[name])

    def test_worker_count_does_not_change_results(self):
        # reps=5 is not divisible by 2, 3 or 4 workers: uneven chunks, each
        # child process's results merged by replication index
        import multiprocessing

        for reps, workers in ((2, 2), (5, 2), (5, 3), (5, 4)):
            cfg = _tiny_config(reps=reps)
            serial = run_replications(cfg, workers=1)
            parallel = run_replications(cfg, workers=workers)
            assert parallel.workers == min(workers, reps)
            assert not multiprocessing.active_children()
            for name in serial.estimators:
                assert np.array_equal(serial.estimators[name].mean_ase_by_pair,
                                      parallel.estimators[name].mean_ase_by_pair)
                assert_same_results(parallel.estimators[name], serial.estimators[name])
                assert not parallel.estimators[name].failures

    @needs_fork
    @pytest.mark.parametrize("reps,workers", [(5, 3), (7, 2), (3, 3), (10, 4)])
    def test_this_process_runs_one_chunk_and_a_child_each_other(self, monkeypatch, tmp_path,
                                                                 reps, workers):
        import hetdeconv.simulation as simulation

        log = tmp_path / "pids"
        replicate = simulation._replicate

        def logged(context, rep_index):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {rep_index}\n")
            return replicate(context, rep_index)

        monkeypatch.setattr(simulation, "_replicate", logged)
        report = run_replications(_tiny_config(reps=reps), workers=workers)
        assert report.workers == workers
        ran = {}
        for pid, rep in (line.split() for line in log.read_text().splitlines()):
            ran.setdefault(int(pid), []).append(int(rep))
        chunks = sorted(ran.values())
        assert len(chunks) == workers
        assert ran[os.getpid()] == chunks[0] == list(range(1, len(chunks[0]) + 1))
        assert sorted(rep for chunk in chunks for rep in chunk) == list(range(1, reps + 1))
        for chunk in chunks:
            assert chunk == list(range(chunk[0], chunk[-1] + 1))
        sizes = [len(chunk) for chunk in chunks]
        assert max(sizes) - min(sizes) <= 1

    def test_one_worker_starts_no_process(self, monkeypatch):
        from multiprocessing.process import BaseProcess

        def refuse(*args, **kwargs):
            raise AssertionError("a process was started for workers=1")

        # every start method's processes start through BaseProcess.start
        monkeypatch.setattr(BaseProcess, "start", refuse)
        report = run_replications(_tiny_config(reps=3), workers=1)
        assert report.workers == 1
        assert report.start_method is None
        assert all(summary.rep_count == 3 for summary in report.estimators.values())

    def test_every_replication_keeps_the_status_of_an_invalid_b(self):
        # the Gaussian laws are invalid at b = 0.018: each replication's kept
        # SearchResult says so for every candidate at that b, and only there
        cfg = _tiny_config(model="model2", error_family="normal", reps=3,
                           bandwidth_grid={"pairs": [[0.1, 0.1], [0.2, 0.1], [0.1, 0.018]]})
        report = run_replications(cfg, workers=2)
        for name in ("deconv", "partial_linear"):
            summary = report.estimators[name]
            assert [rep for rep, _ in summary.results] == [1, 2, 3]
            for _, res in summary.results:
                for status, (_, b), ase_value in zip(res.statuses, res.pairs, res.ase_values):
                    if b == 0.018:
                        assert status.startswith("ensemble invalid at b=0.018: ")
                        assert ase_value == np.inf
                    else:
                        assert status is None
                assert res.best_pair[1] == 0.1
        assert all(s is None for _, res in report.estimators["naive"].results
                   for s in res.statuses)

    @pytest.mark.skipif("spawn" not in multiprocessing.get_all_start_methods(),
                        reason="needs the spawn start method")
    def test_children_start_by_the_default_where_the_platform_cannot_fork(self, tmp_path):
        # a platform without fork, its default forced to spawn: the child
        # unpickles a RunContext that holds the EnsembleInvalid of b = 0.018
        cfg = _tiny_config(model="model2", error_family="normal", reps=3,
                           bandwidth_grid={"pairs": [[0.1, 0.1], [0.2, 0.1], [0.1, 0.018]]})
        (tmp_path / "config.json").write_text(json.dumps(cfg.to_dict()))
        script = ("import multiprocessing, pickle, sys\n"
                  "multiprocessing.get_all_start_methods = lambda: ['spawn', 'forkserver']\n"
                  "multiprocessing.set_start_method('spawn', force=True)\n"
                  "from hetdeconv import cli, simulation\n"
                  "reports = []\n"
                  "def kept(config, workers):\n"
                  "    reports.append(simulation.run_replications(config, workers))\n"
                  "    return reports[-1]\n"
                  "cli.run_replications = kept\n"
                  "try:\n"
                  "    cli.main(sys.argv[2:])\n"
                  "finally:\n"
                  "    with open(sys.argv[1], 'wb') as fh:\n"
                  "        pickle.dump(reports, fh)\n")
        out = tmp_path / "out"
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "reports.pickle"),
                               "simulate", "--config", str(tmp_path / "config.json"),
                               "--out", str(out), "--workers", "2"],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["workers"], manifest["start_method"]) == (2, "spawn")
        (parallel,) = pickle.loads((tmp_path / "reports.pickle").read_bytes())
        serial = run_replications(cfg)
        for name in serial.estimators:
            assert_same_results(parallel.estimators[name], serial.estimators[name])
        assert any(status for _, res in parallel.estimators["deconv"].results
                   for status in res.statuses)

    @needs_fork
    def test_a_lost_child_fails_the_run_and_leaves_no_process(self, monkeypatch):
        import multiprocessing
        import signal

        import hetdeconv.simulation as simulation

        monkeypatch.setattr(simulation, "_replicate", exit_in_child(4))

        def too_slow(signum, frame):
            raise TimeoutError("run_replications did not return after losing a child")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(30)
        try:
            with pytest.raises(RuntimeError, match=r"replications 3-4 lost: .* code 7 "):
                run_replications(_tiny_config(reps=4), workers=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert not multiprocessing.active_children()

    @needs_fork
    def test_an_interrupt_in_this_process_ends_every_child(self, monkeypatch):
        import multiprocessing
        import time

        import hetdeconv.simulation as simulation

        parent = os.getpid()

        def interrupt_here_stall_there(context, rep_index):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)

        monkeypatch.setattr(simulation, "_replicate", interrupt_here_stall_there)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_replications(_tiny_config(reps=6), workers=3)
        assert time.monotonic() - started < 30, "the stalled children were waited for"
        assert not multiprocessing.active_children()

    def test_model2_runs_three_estimators(self):
        cfg = _tiny_config(model="model2")
        report = run_replications(cfg)
        assert set(report.estimators) == {"deconv", "naive", "partial_linear"}
        rows = report.summary_rows()
        assert [r["estimator"] for r in rows] == ["deconv", "naive", "partial_linear"]
        assert rows[2]["h"] is None
        assert all(r["rep_count"] == 2 for r in rows)

    def test_every_replication_failing_keeps_the_config_pairs(self):
        # the Gaussian laws are invalid at b = 0.01, so only the naive estimator scores
        cfg = _tiny_config(model="model2", error_family="normal", reps=3,
                           bandwidth_grid={"pairs": [[0.1, 0.01], [0.2, 0.01]]})
        report = run_replications(cfg)
        expected = {"deconv": cfg.bw_pairs, "partial_linear": ((None, 0.01),)}
        for name, pairs in expected.items():
            summary = report.estimators[name]
            assert [rep for rep, _ in summary.failures] == [1, 2, 3]
            assert all(message == "no bandwidth candidate produced a finite ASE"
                       for _, message in summary.failures)
            assert summary.results == ()
            assert summary.pairs == pairs
            assert summary.mean_ase_by_pair.shape == (len(pairs),)
            assert np.all(summary.mean_ase_by_pair == np.inf)
        assert report.estimators["naive"].rep_count == 3
        assert not report.estimators["naive"].failures

    def test_family_swap_changes_values_not_shape(self):
        a = run_replications(_tiny_config())
        b = run_replications(_tiny_config(error_family="normal"))
        assert set(a.estimators) == set(b.estimators)
        for name in a.estimators:
            assert a.estimators[name].pairs == b.estimators[name].pairs
        assert (a.estimators["deconv"].grand_mean != b.estimators["deconv"].grand_mean)

    def test_report_rows_carry_config_metadata(self):
        report = run_replications(_tiny_config())
        row = report.summary_rows()[0]
        assert row["model"] == "model1"
        assert row["family"] == "laplace"
        assert row["n"] == 40


class TestCrossSection:
    def _data(self, model=Model.MODEL1, n=60, seed=21):
        rng = np.random.default_rng(seed)
        return generate(model, n, build_ensemble(ErrorFamily.LAPLACE, n), rng)

    def test_fixed_x_truth_column(self, quad64):
        data = self._data()
        section = cross_section(data, "deconv", "fix_x", 1.0, Bandwidths(0.2, 0.2), quad64)
        assert section.coords.size == 200
        assert np.allclose(section.truth, np.exp(-0.5 * section.coords ** 2), atol=0)

    def test_fixed_t_truth_column(self, quad64):
        data = self._data()
        section = cross_section(data, "deconv", "fix_t", 0.0, Bandwidths(0.2, 0.2), quad64)
        assert np.allclose(section.truth, section.coords ** 2, atol=0)

    def test_partial_linear_section_is_affine_in_x(self, quad64):
        from hetdeconv import linear_slope

        data = self._data(model=Model.MODEL2)
        slope = linear_slope(data.sample)
        section = cross_section(data, "partial_linear", "fix_t", 1.0,
                                Bandwidths(0.2, 0.2), quad64)
        keep = ~section.flags
        fitted = np.polyfit(section.coords[keep], section.estimates[keep], 1)
        assert fitted[0] == pytest.approx(slope, rel=1e-9)

    def test_value_outside_support_rejected(self, quad64):
        with pytest.raises(ValueError):
            cross_section(self._data(), "deconv", "fix_x", 2.5, Bandwidths(0.2, 0.2), quad64)

    def test_unknown_axis_rejected(self, quad64):
        with pytest.raises(ValueError):
            cross_section(self._data(), "deconv", "diagonal", 0.0, Bandwidths(0.2, 0.2), quad64)


class TestRunContext:
    """Everything that does not depend on the data is built once per run."""

    def _counted(self, monkeypatch, after_context=None):
        """Count gauss_legendre and build_deconv_weights; raise once ``after_context`` is set."""
        import hetdeconv.estimators as estimators
        from hetdeconv import QuadratureGrid

        calls = {"gauss_legendre": 0, "build_deconv_weights": []}
        legendre, build = QuadratureGrid.gauss_legendre.__func__, estimators.build_deconv_weights

        def counted_legendre(cls, m=128):
            if after_context:
                raise AssertionError("quadrature rebuilt after the run context")
            calls["gauss_legendre"] += 1
            return legendre(cls, m)

        def counted_build(ensemble, bandwidth, quad):
            if after_context:
                raise AssertionError("weights rebuilt after the run context")
            calls["build_deconv_weights"].append(bandwidth)
            return build(ensemble, bandwidth, quad)

        monkeypatch.setattr(QuadratureGrid, "gauss_legendre", classmethod(counted_legendre))
        monkeypatch.setattr(estimators, "build_deconv_weights", counted_build)
        return calls

    @pytest.mark.parametrize("reps", [1, 3])
    def test_one_quadrature_and_one_weight_build_per_b(self, monkeypatch, reps):
        calls = self._counted(monkeypatch)
        cfg = _tiny_config(reps=reps, error_family="normal",
                           bandwidth_grid={"pairs": [[0.1, 0.1], [0.2, 0.1], [0.1, 0.018]]})
        report = run_replications(cfg)
        assert calls["gauss_legendre"] == 1
        assert sorted(calls["build_deconv_weights"]) == [0.018, 0.1]
        # b = 0.018 is invalid for these laws: remembered, not rebuilt per replication
        assert report.estimators["deconv"].rep_count == reps

    @needs_fork
    def test_workers_rebuild_nothing(self, monkeypatch):
        from hetdeconv.simulation import RunContext

        cfg = _tiny_config(model="model2", reps=5)
        serial = run_replications(cfg)
        built = []
        calls = self._counted(monkeypatch, after_context=built)
        build_context = RunContext.build.__func__

        def build_then_refuse(cls, config):
            context = build_context(cls, config)
            built.append(context)
            return context

        monkeypatch.setattr(RunContext, "build", classmethod(build_then_refuse))
        parallel = run_replications(cfg, workers=2)
        assert len(built) == 1 and calls["gauss_legendre"] == 1
        assert sorted(calls["build_deconv_weights"]) == list(cfg.b_values)
        for name, summary in parallel.estimators.items():
            assert not summary.failures, summary.failures
            assert_same_results(summary, serial.estimators[name])
