"""Regression estimators for one exact covariate and one error-contaminated covariate.

Implements the heteroscedastic partial deconvolution estimator (ratio of a
response-weighted kernel sum to a joint-density estimate), the naive
Nadaraya-Watson baseline that ignores the measurement error, the partial-linear
shortcut for separable models, and the variance-bound diagnostic.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

import numpy as np

from .error_models import ErrorEnsemble
from .exceptions import DegenerateDesign, DimensionMismatch, EnsembleInvalid
from .kernels import (
    TWO_PI,
    DeconvWeights,
    QuadratureGrid,
    WeightGroup,
    bandlimited_kernel_ft,
    build_deconv_weights,
    deconv_kernel_grid,
    gaussian_kernel,
)

# Ratio guard: density estimates with |value| <= RIDGE_SCALE / (h*b) are
# flagged and the ratio is taken against the signed floor instead.  The
# deconvolution kernel takes negative values, so finite samples can push the
# density estimate to zero or below far from the data.
RIDGE_SCALE = 1e-8

# Every batched array of one group of (b, h) pairs holds at most this many
# float64 elements (512 KiB), unless one b or one h alone holds more.  The
# sweep cuts the b grid into groups by it (the (B, H, X, T) contraction, the
# (B, n, 2 ceil(M/2)) cos/sin operand of the kernel build, the (B, n, T)
# kernels), and ``stacked_ratio_grid`` cuts the h of its numerator operand
# by it.  The bound keeps large runs at the memory of one b at a time: at
# full scale with n = 500 one b already fills it, and batching all ten b
# there raised a run's peak RSS from 49.7 to 60.5 MB.
GROUP_BUDGET = 1 << 16


@dataclass(frozen=True)
class Sample:
    """Observed triples (x_j, w_j, y_j) bound to the error ensemble of the w's."""

    x: np.ndarray
    w: np.ndarray
    y: np.ndarray
    ensemble: ErrorEnsemble

    def __post_init__(self):
        # Copies: the caller's arrays stay writeable, the sample's are frozen.
        x = np.array(self.x, dtype=float)
        w = np.array(self.w, dtype=float)
        y = np.array(self.y, dtype=float)
        for name, arr in (("x", x), ("w", w), ("y", y)):
            if arr.ndim != 1:
                raise DimensionMismatch(f"{name} must be one-dimensional")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        if not (x.size == w.size == y.size):
            raise DimensionMismatch(
                f"x, w, y lengths differ: {x.size}, {w.size}, {y.size}"
            )
        if x.size < 2:
            raise DimensionMismatch("need at least 2 observations")
        if self.ensemble.n != x.size:
            raise DimensionMismatch(
                f"ensemble has {self.ensemble.n} models for {x.size} observations"
            )
        for name, arr in (("x", x), ("w", w), ("y", y)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class Bandwidths:
    """Smoothing parameters: h for the exact direction, b for the contaminated one."""

    h: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "h", float(self.h))
        object.__setattr__(self, "b", float(self.b))
        if not (0 < self.h < np.inf and 0 < self.b < np.inf):
            raise ValueError(f"bandwidths must be finite and positive, got h={self.h}, b={self.b}")


def floored_ratio(num, den, floor):
    """num/den with |den| <= floor replaced by the signed floor; returns (ratio, flagged).

    ``num`` has the shape of ``den`` (or broadcasts to it).  The guarded
    denominator is one array of that shape, and the ratio is divided into it
    in place, so the guard holds one temporary beside its inputs.
    """
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    flagged = np.abs(den) <= floor
    safe = np.where(den >= 0.0, floor, -floor)
    np.copyto(safe, den, where=~flagged)
    with np.errstate(over="ignore"):
        return np.divide(num, safe, out=safe), flagged


class _Helper:
    """One helper thread that runs one call at a time beside the calling thread.

    ``helper(fn, *args)`` hands fn(*args) to the thread and returns a join
    callable, which waits for the call and returns its value or raises its
    exception; the caller joins each call before it hands over the next.
    ``close`` lets the thread finish the call in hand, ends it and waits for it.
    """

    def __init__(self):
        self._calls, self._handed, self._done = [], threading.Semaphore(0), threading.Semaphore(0)
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while self._handed.acquire() and (call := self._calls.pop(0)) is not None:
            try:
                self._result = call(), None
            except BaseException as exc:    # raised again by the caller's join
                self._result = None, exc
            self._done.release()

    def __call__(self, fn, *args):
        self._calls.append(functools.partial(fn, *args))
        self._handed.release()
        return self._join

    def _join(self):
        self._done.acquire()
        value, exc = self._result
        if exc is not None:
            raise exc
        return value

    def close(self):
        self._calls.append(None)
        self._handed.release()
        self._thread.join()


def stacked_ratio_grid(stack, y, kt, scale, floor, aside=None):
    """The ratio estimator on a tensor grid for every (b, h) of a group: (values, flags, density).

    density = kx_h.T @ kt_b / scale and values = (kx_h * y).T @ kt_b / scale / density
    per (b, h), with |density| <= floor ridge-floored; ``stack`` (H, n, X)
    holds the kx_h, ``kt`` (B, n, T) the kt_b, ``scale`` and ``floor`` (B, H)
    one value per pair, and each result is (B, H, X, T).  Each batched product
    runs one (X, n) @ (n, T) product per pair on operands laid out as those of
    a lone pair, as for B = H = 1; one flat (H X, n) @ (n, T) product would
    not (BLAS may pick another kernel for the larger shape, with another
    summation order).  The numerator operand kx_h * y is formed after kt, for
    a run of consecutive h whose (h, n, X) slice fits ``GROUP_BUDGET`` (at
    least one h), and lives only for the product of its run, which is written
    into the numerator in place: no (H, n, X) copy of the stack is held beside
    kt's temporaries.  With a ``_Helper`` as ``aside`` the density product
    runs on its thread while the numerator runs here; the products and their
    operands are the same either way.
    """
    n_h, n, n_x = stack.shape
    scale = np.asarray(scale, dtype=float)[:, :, None, None]
    kt = kt[:, None]
    num = np.empty((kt.shape[0], n_h, n_x, kt.shape[-1]))
    den = None if aside is None else aside(np.matmul, stack.transpose(0, 2, 1), kt)
    run = max(1, GROUP_BUDGET // max(1, n * n_x))
    for lo in range(0, n_h, run):
        np.matmul((stack[lo:lo + run] * y[:, None]).transpose(0, 2, 1), kt,
                  out=num[:, lo:lo + run])
    den = np.matmul(stack.transpose(0, 2, 1), kt) if den is None else den()
    num /= scale
    den /= scale
    values, flags = floored_ratio(num, den, np.asarray(floor, dtype=float)[:, :, None, None])
    return values, flags, den


def kernel_weights(ensemble: ErrorEnsemble, b_values, quad: QuadratureGrid) -> dict:
    """b -> the DeconvWeights at b, or the EnsembleInvalid raised at b."""
    table = {}
    for b in b_values:
        try:
            table[b] = build_deconv_weights(ensemble, b, quad)
        except EnsembleInvalid as exc:
            table[b] = exc
    return table


class KernelCache:
    """Kernel matrices of one sample on one tensor evaluation grid.

    Lives for one sample (one replication).  It keeps the last ``kx_stack``
    with the row of each of its h, and the deconvolution weights of each b
    (an EnsembleInvalid raised at b is kept too and raised again on every
    later request).  The kernels of a group of b, the deconvolution lt and
    the naive normal kt, each (B, n, T), are rebuilt on every request and
    kept by nobody; a single b is the group of one.  ``weights`` maps b to
    weights built beforehand for the sample's ensemble (as by ``fit``, or
    entries of ``kernel_weights``).  ``deconv`` and ``naive`` take a sequence
    of h and a group of b and return (values, flags, density), each
    (B, H, X, T); ``partial_linear`` returns them on the (X, T) grid of one b.
    """

    def __init__(self, sample: Sample, x_values, t_values, quad: QuadratureGrid, weights=None):
        self.sample = sample
        self.x_values = np.atleast_1d(np.asarray(x_values, dtype=float))
        self.t_values = np.atleast_1d(np.asarray(t_values, dtype=float))
        self.quad = quad
        self._stack, self._row = None, {}
        self._weights = dict(weights or {})

    def kx_stack(self, hs):
        """kx_h for every h in ``hs``, shape (H, n, X); kept for later calls.

        Each kx_h is a C-contiguous (n, X) block, laid out as the stack of a
        lone h.  (x_values - x_j) / h and its normal kernel are formed in the
        block of kx_h, so no memory is used beyond the stack.
        """
        stack = np.empty((len(hs), self.sample.n, self.x_values.size))
        for i, h in enumerate(hs):
            u = np.subtract(self.x_values, self.sample.x[:, None], out=stack[i])
            u /= h
            gaussian_kernel(u, out=u)
        self._stack, self._row = stack, {h: i for i, h in enumerate(hs)}
        return stack

    def _stack_of(self, hs):
        """The kept stack restricted to ``hs``, in their order; a new stack if one is missing."""
        if not all(h in self._row for h in hs):
            return self.kx_stack(hs)
        rows = [self._row[h] for h in hs]
        return self._stack if rows == list(range(self._stack.shape[0])) else self._stack[rows]

    def deconv_weights(self, b) -> DeconvWeights:
        """The weights at b, built on first request; raises the EnsembleInvalid of b."""
        if b not in self._weights:
            self._weights.update(kernel_weights(self.sample.ensemble, [b], self.quad))
        weights = self._weights[b]
        if isinstance(weights, EnsembleInvalid):
            raise weights.with_traceback(None)
        return weights

    def kt(self, bs):
        """The normal kernels of the w's at each b of ``bs``, (B, n, T)."""
        bs = np.asarray(bs, dtype=float)[:, None, None]
        return gaussian_kernel((self.t_values - self.sample.w[:, None]) / bs)

    def lt(self, bs):
        """The deconvolution kernels at each b of ``bs``, (B, n, T), in one group build."""
        group = WeightGroup(tuple(self.deconv_weights(b) for b in bs))
        bs = np.asarray(bs, dtype=float)[:, None]
        return deconv_kernel_grid(group, self.sample.w / bs, self.t_values / bs)

    def deconv(self, hs, bs, lt=None, aside=None):
        """The heteroscedastic partial deconvolution estimator; ``lt`` is lt(bs) if at hand.

        ``aside`` (a ``_Helper``) runs the density product beside the numerator.
        """
        hs, bs = np.asarray(hs, dtype=float), np.asarray(bs, dtype=float)
        hb = hs * bs[:, None]
        return stacked_ratio_grid(self._stack_of(hs), self.sample.y,
                                  self.lt(bs) if lt is None else lt, hb, RIDGE_SCALE / hb,
                                  aside)

    def naive(self, hs, bs):
        """Nadaraya-Watson on (x, w) with normal kernels both ways.

        Ignores the measurement error entirely; the ridge policy matches the
        deconvolution estimator with the denominator on the same density scale.
        """
        hs, bs = np.asarray(hs, dtype=float), np.asarray(bs, dtype=float)
        return stacked_ratio_grid(self._stack_of(hs), self.sample.y, self.kt(bs),
                                  self.sample.n * hs * bs[:, None],
                                  RIDGE_SCALE / (hs * bs[:, None]))

    def partial_linear(self, b, slope, lt=None):
        """x*slope plus a deconvolution-kernel mean of the residuals y - x*slope.

        Only the contaminated direction is smoothed, so flags and density
        are constant across x.  ``lt`` (n, T) is the lt of b if the caller
        has it.
        """
        lt = self.lt([b])[0] if lt is None else lt
        resid = self.sample.y - self.sample.x * slope
        density = lt.sum(axis=0) / b
        ratio, flags = floored_ratio(resid @ lt / b, density, RIDGE_SCALE / b)
        values = self.x_values[:, None] * slope + ratio[None, :]
        return (values, np.broadcast_to(flags[None, :], values.shape).copy(),
                np.broadcast_to(density[None, :], values.shape).copy())


@dataclass(frozen=True)
class DeconvEstimator:
    """Fitted state: sample, bandwidths, tabulated weights (which hold the grid).

    Immutable after fit; every evaluation is pure.
    """

    sample: Sample
    bandwidths: Bandwidths
    weights: DeconvWeights

    def __post_init__(self):
        if self.weights.ensemble is not self.sample.ensemble:
            raise DimensionMismatch("weights were built against a different ensemble")
        if self.weights.bandwidth != self.bandwidths.b:
            raise DimensionMismatch("weights were built for a different bandwidth")

    def predict_grid(self, x_values, t_values):
        """Regression estimate on the tensor grid: (values, flags, density), each (X, T).

        One helper thread builds lt while this thread builds kx, and then
        forms the density while this thread forms the numerator; the result
        is that of ``KernelCache.deconv`` without a helper, bit for bit.
        """
        h, b = self.bandwidths.h, self.bandwidths.b
        cache = KernelCache(self.sample, x_values, t_values, self.weights.quad,
                            {b: self.weights})
        helper = _Helper()
        try:
            lt = helper(cache.lt, [b])
            cache.kx_stack([h])
            return tuple(a[0, 0] for a in cache.deconv([h], [b], lt(), helper))
        finally:
            helper.close()


def fit(sample: Sample, bandwidths: Bandwidths, quad: QuadratureGrid) -> DeconvEstimator:
    """Validate the ensemble at bandwidth b and tabulate the estimator weights.

    Raises EnsembleInvalid when the shared denominator degenerates on the
    scaled quadrature grid, DimensionMismatch on inconsistent inputs.
    """
    weights = build_deconv_weights(sample.ensemble, bandwidths.b, quad)
    return DeconvEstimator(sample=sample, bandwidths=bandwidths, weights=weights)


def linear_slope(sample: Sample) -> float:
    """Centered least-squares slope of y on x.

    Root-n consistent for the separable model because the exact covariate is
    independent of the contaminated one, so the nonlinear term is uncorrelated
    with x.  Raises DegenerateDesign when x has zero variance.
    """
    dx = sample.x - sample.x.mean()
    sxx = float(dx @ dx)
    if sxx == 0.0:
        raise DegenerateDesign("x has zero variance; slope is not identifiable")
    dy = sample.y - sample.y.mean()
    return float(dx @ dy) / sxx


def variance_bound_diagnostic(weights: DeconvWeights, h: float, c_sup: float) -> float:
    """Upper bound on the estimator's variance term, up to the caller's sup-norm constant.

    Computes c_sup / (2 pi h b) * int_{-1}^{1} kernel_ft(u)^2 / S(u/b) du,
    the substituted form of the variance bound, from the S(v/b) that
    ``weights`` holds (b is ``weights.bandwidth``); monotone diagnostics only.
    """
    if not 0 < h < np.inf:
        raise ValueError(f"h must be finite and positive, got {h}")
    if not 0 < c_sup < np.inf:
        raise ValueError(f"c_sup must be finite and positive, got {c_sup}")
    quad = weights.quad
    integrand = bandlimited_kernel_ft(quad.nodes) ** 2 / weights.denominator
    integral = float(quad.weights @ integrand)
    return c_sup * integral / (TWO_PI * h * weights.bandwidth)
