"""Acceptance criteria, one test per criterion.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all;
failed criteria carry the same line in the assertion message).  Criteria 3,
4 and 5 encode targets the implementation demonstrably cannot meet under the
pinned simulation protocol; they are kept faithful to their statement and
fail with a quantitative diagnostic rather than being loosened.  Each
affected test's docstring summarizes why the target is out of reach.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest
from oracles import bandlimited_kernel_closed_form, deconv_kernel

from hetdeconv import (
    Bandwidths,
    ErrorEnsemble,
    ErrorFamily,
    ErrorModel,
    Model,
    Sample,
    SimulationConfig,
    bandlimited_kernel_ft,
    build_deconv_weights,
    build_ensemble,
    fit,
    gaussian_kernel,
    generate,
    run_replications,
    variance_bound_diagnostic,
)
from hetdeconv.kernels import QuadratureGrid

SEED = 20250808


def _report(number, label, ok, detail):
    line = f"CRITERION {number} ({label}): {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    return line


def _desk_config(model, family, n, seed=SEED):
    return SimulationConfig.from_dict({
        "model": model, "error_family": family, "n": n, "seed": seed,
    })


@pytest.fixture(scope="module")
def quad64():
    return QuadratureGrid.gauss_legendre(64)


@pytest.fixture(scope="module")
def quad128():
    return QuadratureGrid.gauss_legendre(128)


class TestCriterion1ReductionOracles:
    def test_degenerate_reduces_to_nadaraya_watson(self, quad128):
        started = time.monotonic()
        n = 200
        rng = np.random.default_rng(SEED)
        ens = ErrorEnsemble(tuple(ErrorModel(ErrorFamily.DEGENERATE) for _ in range(n)))
        data = generate(Model.MODEL1, n, ens, rng)
        h = b = 0.25
        xg = tg = np.linspace(-1.5, 1.5, 10)
        vals, flags, _ = fit(data.sample, Bandwidths(h, b), quad128).predict_grid(xg, tg)

        kx = gaussian_kernel((xg[None, :] - data.sample.x[:, None]) / h)
        lt = bandlimited_kernel_closed_form((tg[None, :] - data.sample.w[:, None]) / b)
        oracle = ((kx * data.sample.y[:, None]).T @ lt) / (kx.T @ lt)

        worst = float(np.abs(vals[~flags] - oracle[~flags]).max())
        elapsed = time.monotonic() - started
        ok = worst < 1e-8 and elapsed < 10.0
        line = _report(1, "error-free reduction to Nadaraya-Watson", ok,
                       f"max |diff| = {worst:.3e} on 10x10 probes, {elapsed:.1f}s")
        assert ok, line

    def test_homoscedastic_laplace_reduces_to_direct_formula(self, quad128):
        started = time.monotonic()
        n, s = 200, 4.0 / 15.0
        rng = np.random.default_rng(SEED + 1)
        ens = ErrorEnsemble(tuple(ErrorModel(ErrorFamily.LAPLACE, s) for _ in range(n)))
        data = generate(Model.MODEL1, n, ens, rng)
        h = b = 0.15
        xg = tg = np.linspace(-1.5, 1.5, 10)
        vals, flags, _ = fit(data.sample, Bandwidths(h, b), quad128).predict_grid(xg, tg)

        # direct homoscedastic construction: kernel_ft(v) / (n cf(v/b))
        v = quad128.nodes
        profile = quad128.weights * bandlimited_kernel_ft(v) * (
            1.0 + s * (v / b) ** 2 / 2.0) / n
        args = (tg[None, :] - data.sample.w[:, None]) / b
        lt = np.cos(np.multiply.outer(args, v)) @ profile / (2 * np.pi)
        kx = gaussian_kernel((xg[None, :] - data.sample.x[:, None]) / h)
        oracle = ((kx * data.sample.y[:, None]).T @ lt) / (kx.T @ lt)

        worst = float(np.abs(vals[~flags] - oracle[~flags]).max())
        elapsed = time.monotonic() - started
        ok = worst < 1e-8 and elapsed < 10.0
        line = _report(1, "homoscedastic reduction", ok,
                       f"max |diff| = {worst:.3e} on 10x10 probes, {elapsed:.1f}s")
        assert ok, line


class TestCriterion2ConstantResponse:
    @pytest.mark.parametrize("family", [ErrorFamily.GAUSSIAN, ErrorFamily.LAPLACE])
    def test_constant_response_is_exact(self, family, quad64):
        started = time.monotonic()
        n, c = 100, 3.7
        rng = np.random.default_rng(SEED + 2)
        ens = build_ensemble(family, n)
        data = generate(Model.MODEL1, n, ens, rng)
        sample = Sample(x=data.sample.x, w=data.sample.w, y=np.full(n, c), ensemble=ens)
        xg = tg = np.linspace(-2, 2, 20)

        pairs = [(0.02, 0.02), (0.02, 0.2), (0.2, 0.02), (0.2, 0.2)]
        pairs += [tuple(rng.uniform(0.02, 0.2, 2)) for _ in range(8)]
        worst = 0.0
        for h, b in pairs:
            est = fit(sample, Bandwidths(h, b), quad64)
            vals, flags, _ = est.predict_grid(xg, tg)
            if (~flags).any():
                worst = max(worst, float(np.abs(vals[~flags] - c).max()))
        elapsed = time.monotonic() - started
        ok = worst < 1e-12 and elapsed < 5.0
        line = _report(2, f"constant-response exactness, {family.value}", ok,
                       f"max |r_hat - {c}| = {worst:.3e} over {len(pairs)} "
                       f"bandwidth pairs, {elapsed:.1f}s")
        assert ok, line


class TestCriterion3QuadratureSelfConvergence:
    """M=64 vs M=128 must agree to 1e-6 for both study families at b >= 0.02.

    The ordinary-smooth (Laplace) family satisfies this on the whole
    bandwidth ladder.  The supersmooth (Gaussian) family cannot: its
    deconvolution weights grow like exp(s v^2 / (2 b^2)), reaching ~1e145
    at b = 0.02 where no fixed-node rule has converged, so the criterion
    fails there by an astronomical margin.  Kept faithful rather than
    restricted to the convergent bandwidths.
    """

    @pytest.mark.parametrize("family", [ErrorFamily.LAPLACE, ErrorFamily.GAUSSIAN])
    def test_node_doubling_stability(self, family, quad64, quad128):
        started = time.monotonic()
        n = 100
        ens = build_ensemble(family, n)
        ladder = np.linspace(0.02, 0.2, 10)
        rng = np.random.default_rng(SEED + 3)
        worst = (0.0, None, None, None)
        for k in range(100):
            b = float(ladder[k % ladder.size])
            j = int(rng.integers(0, n))
            arg = float(rng.uniform(-4.0, 4.0))
            w64 = build_deconv_weights(ens, b, quad64)
            w128 = build_deconv_weights(ens, b, quad128)
            diff = abs(deconv_kernel(w64, j, arg) - deconv_kernel(w128, j, arg))
            if diff > worst[0]:
                worst = (diff, b, j, arg)
        elapsed = time.monotonic() - started
        ok = worst[0] < 1e-6 and elapsed < 5.0
        line = _report(3, f"quadrature self-convergence, {family.value}", ok,
                       f"max |M64-M128| = {worst[0]:.3e} at b={worst[1]}, "
                       f"j={worst[2]}, arg={worst[3]:.3f} over 100 probes, "
                       f"{elapsed:.1f}s")
        assert ok, line


class TestCriterion4Model1Benchmarks:
    """Desk-scale benchmark bands for the first regression model.

    The target bands ([0.015, 0.060] normal, [0.016, 0.066] laplace, around
    reference values 0.0300/0.0332) presume a far smaller error scale than
    the pinned variance profile (4/15)(1 + j/n): with error sd up to 0.73
    even an error-FREE bivariate Nadaraya-Watson at n=500 scores ~0.028 on
    this grid, and the deconvolution estimator additionally pays a
    supersmooth amplification of ~30x at the top frequency with b capped at
    0.2.  The achievable oracle ASE is an order of magnitude above the band
    and the n=100 ordering reverses; the test is kept faithful.
    """

    @pytest.mark.parametrize("family,label,band", [
        ("normal", "normal, reference 0.0300/0.0457", (0.015, 0.060)),
        ("laplace", "laplace, reference 0.0332/0.0517", (0.016, 0.066)),
    ])
    def test_model1_n100_bands(self, family, label, band):
        started = time.monotonic()
        report = run_replications(_desk_config("model1", family, 100))
        deconv = report.estimators["deconv"].grand_mean
        naive = report.estimators["naive"].grand_mean
        elapsed = time.monotonic() - started
        in_band = band[0] <= deconv <= band[1]
        beats_naive = deconv < naive
        ok = in_band and beats_naive and elapsed < 300.0
        line = _report(4, f"model-1 benchmark bands, {label}", ok,
                       f"mean ASE deconv={deconv:.4f} (band {band}), "
                       f"naive={naive:.4f}, N=20, {elapsed:.1f}s")
        assert ok, line


class TestCriterion5Model2Benchmarks:
    """Desk-scale benchmark ordering and band for the separable model;
    out of reach for the same reason as criterion 4 (reference values
    0.0108 < 0.0780 < 0.1204 at n=100, normal errors)."""

    def test_model2_n100_ordering_and_band(self):
        started = time.monotonic()
        report = run_replications(_desk_config("model2", "normal", 100))
        partial = report.estimators["partial_linear"].grand_mean
        deconv = report.estimators["deconv"].grand_mean
        naive = report.estimators["naive"].grand_mean
        elapsed = time.monotonic() - started
        ordering = partial < deconv < naive
        in_band = 0.005 <= partial <= 0.025
        ok = ordering and in_band and elapsed < 300.0
        line = _report(5, "model-2 benchmark ordering and band, normal", ok,
                       f"mean ASE partial_linear={partial:.4f} (band [0.005, 0.025]), "
                       f"deconv={deconv:.4f}, naive={naive:.4f}, N=20, {elapsed:.1f}s")
        assert ok, line


class TestCriterion6ConvergenceTrend:
    def test_model1_ase_improves_with_sample_size(self):
        started = time.monotonic()
        ase_100 = run_replications(
            _desk_config("model1", "normal", 100)).estimators["deconv"].grand_mean
        ase_500 = run_replications(
            _desk_config("model1", "normal", 500)).estimators["deconv"].grand_mean
        elapsed = time.monotonic() - started
        ok = ase_500 <= 0.9 * ase_100 and elapsed < 900.0
        line = _report(6, "convergence trend n=100 -> n=500", ok,
                       f"mean ASE {ase_100:.4f} -> {ase_500:.4f} "
                       f"({100 * (1 - ase_500 / ase_100):.0f}% drop, need >= 10%), "
                       f"N=20, {elapsed:.1f}s")
        assert ok, line


class TestCriterion7Determinism:
    def test_simulate_command_is_byte_identical(self, tmp_path):
        config = {"model": "model1", "error_family": "normal", "n": 100, "seed": SEED}
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        outputs = []
        for sub in ("run1", "run2"):
            out = tmp_path / sub
            proc = subprocess.run(
                [sys.executable, "-m", "hetdeconv.cli", "simulate",
                 "--config", str(cfg_path), "--out", str(out), "--workers", "2"],
                capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append((out / "ase_report.csv").read_bytes())
        ok = outputs[0] == outputs[1]
        line = _report(7, "byte-identical rerun of the criterion-4 command", ok,
                       f"{len(outputs[0])} bytes, identical={ok}")
        assert ok, line


class TestCriterion8DiagnosticScaling:
    def test_halving_h_doubles_the_bound(self, quad64):
        ens = build_ensemble(ErrorFamily.GAUSSIAN, 100)
        worst = 0.0
        for b in (0.05, 0.1, 0.2):
            weights = build_deconv_weights(ens, b, quad64)
            for h in (0.04, 0.1):
                full = variance_bound_diagnostic(weights, h, 2.5)
                halved = variance_bound_diagnostic(weights, h / 2.0, 2.5)
                worst = max(worst, abs(halved / (2.0 * full) - 1.0))
        ok = worst < 1e-12
        line = _report(8, "variance bound halves when h doubles", ok,
                       f"max relative error {worst:.3e}")
        assert ok, line
