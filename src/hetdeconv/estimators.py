"""Regression estimators for one exact covariate and one error-contaminated covariate.

Implements the heteroscedastic partial deconvolution estimator (ratio of a
response-weighted kernel sum to a joint-density estimate), the naive
Nadaraya-Watson baseline that ignores the measurement error, the partial-linear
shortcut for separable models, and the variance-bound diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .error_models import ErrorEnsemble
from .exceptions import BandwidthUnderflow, DegenerateDesign, DimensionMismatch, EnsembleInvalid
from .kernels import (
    SMALLEST_NORMAL,
    TWO_PI,
    DeconvWeights,
    QuadratureGrid,
    bandlimited_kernel_ft,
    build_deconv_weights,
    deconv_kernel_grid,
    deconv_left,
    deconv_right,
    gaussian_kernel,
)

# Ratio guard: density estimates with |value| <= RIDGE_SCALE / (h*b) are
# flagged and the ratio is taken against the signed floor instead.  The
# deconvolution kernel takes negative values, so finite samples can push the
# density estimate to zero or below far from the data.
RIDGE_SCALE = 1e-8

# Every batched array of one group of (b, h) pairs holds at most this many
# float64 elements (512 KiB), unless one b or one h alone holds more.  The
# sweep cuts the b grid into groups by it (the (B, H, X, T) contraction and
# the (B, n, T) kernels), ``stacked_ratio_grid`` the h of its numerator
# operand, and ``block_rows`` the observations into blocks of R rows.
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
    """Smoothing parameters: h for the exact direction, b for the contaminated one.

    Their product h*b scales every kernel sum and sets the ridge floor
    RIDGE_SCALE / (h*b).  A product below the smallest normal double loses
    its digits or is 0, and a subnormal b overflows the scaled quadrature
    nodes v/b: both raise BandwidthUnderflow.  A product that overflows
    would make the floor 0 and raises ValueError.
    """

    h: float
    b: float

    def __post_init__(self):
        object.__setattr__(self, "h", float(self.h))
        object.__setattr__(self, "b", float(self.b))
        if not (0 < self.h < np.inf and 0 < self.b < np.inf):
            raise ValueError(f"bandwidths must be finite and positive, got h={self.h}, b={self.b}")
        if self.h * self.b < SMALLEST_NORMAL:
            raise BandwidthUnderflow(f"bandwidth product h*b is below {SMALLEST_NORMAL:g}, "
                                     f"got h={self.h}, b={self.b}")
        if self.b < SMALLEST_NORMAL:
            raise BandwidthUnderflow(f"bandwidth b is below {SMALLEST_NORMAL:g}, got b={self.b}")
        if self.h * self.b == np.inf:
            raise ValueError(f"bandwidth product h*b overflows, got h={self.h}, b={self.b}")


def floored_ratio(num, den, floor):
    """num/den with |den| <= floor replaced by the signed floor; returns (ratio, flagged).

    A den that is not finite is floored too, and every point whose den is
    floored or whose ratio is not finite is flagged.  ``num`` has the shape
    of ``den`` (or broadcasts to it).  The guarded denominator is one array
    of that shape, and the ratio is divided into it in place.
    """
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    flagged = ~(np.abs(den) > floor)        # a NaN den compares False
    flagged |= np.isinf(den)
    safe = np.where(den >= 0.0, floor, -floor)
    np.copyto(safe, den, where=~flagged)
    with np.errstate(over="ignore"):
        ratio = np.divide(num, safe, out=safe)
    flagged |= ~np.isfinite(ratio)
    return ratio, flagged


def scaled_ratio(num, den, scale, floor):
    """The ratio estimator from its sums: (num / scale) / (den / scale), ridge-floored.

    ``num`` and ``den`` are divided by ``scale`` in place; returns (values,
    flags, density) as ``floored_ratio`` does, with density = den / scale.
    """
    with np.errstate(over="ignore"):    # a sum that overflows is flagged by the guard
        num /= scale
        den /= scale
    values, flags = floored_ratio(num, den, floor)
    return values, flags, den


def factored_order(n, n_x, n_t, rank):
    """Whether kx.T @ (left @ right) is cheaper formed as (kx.T @ left) @ right.

    kx (n, X) and left (n, rank) are contracted for both sums of the ratio
    estimator, and right is (rank, T): 2 X rank (n + T) multiply-adds that
    way against n T (rank + 2 X) through the (n, T) product left @ right.
    The lt order rounds each L_j once for both sums, so a constant response
    comes back within criterion 2's 1e-12; the factored order can miss it.
    """
    return 2 * n_x * rank * (n + n_t) < n * n_t * (rank + 2 * n_x)


def normal_rows(x_values, x_obs, h, out):
    """The normal kernels of (x_values - x_j) / h for each x_j of ``x_obs``, formed in ``out``.

    ``out`` is (r, X) for r observations; an infinite argument has the exact
    kernel 0, so its overflow is no warning.
    """
    with np.errstate(over="ignore"):
        u = np.subtract(x_values, x_obs[:, None], out=out)
        u /= h
    return gaussian_kernel(u, out=u)


def block_rows(quad: QuadratureGrid) -> int:
    """R = max(1, GROUP_BUDGET // 2M'), M' = 2 ceil(M/2): the observations of one block.

    ``predict_grid`` and the ``KernelCache`` estimators sum over blocks of R
    rows: 256 at 128 nodes, 512 at 64.
    """
    return max(1, GROUP_BUDGET // (4 * (quad.size - quad.size // 2)))


def stacked_ratio_grid(stack, y, kt, scale, floor, rows):
    """The ratio estimator on a tensor grid for every (b, h) of a group: (values, flags, density).

    density = kx_h.T @ kt_b / scale and values = (kx_h * y).T @ kt_b / scale / density
    per (b, h), with |density| <= floor ridge-floored; ``stack`` (H, n, X)
    holds the kx_h, ``kt`` (B, n, T) the kt_b, ``scale`` and ``floor`` (B, H)
    one value per pair, and each result is (B, H, X, T).  Each sum adds one
    (X, r) @ (r, T) product per pair and block of ``rows`` observations, in
    block order: the first block is written into the total and each later
    one added from a scratch array of one run of h (below), so a call of one
    block (n <= rows) runs the products over all n.  The numerator is summed
    before the density's total is allocated.  Each batched product reads
    operands laid out as a lone pair's (B = H = 1); one flat (H X, r) @ (r, T)
    product would not (BLAS may pick another kernel for the larger shape,
    with another summation order).  A block's products are formed for runs
    of consecutive h whose (h, r, X) slice fits ``GROUP_BUDGET`` (at least
    one h), and the numerator operand kx_h * y lives only for its run's
    product: no (H, n, X) copy of the stack is held.
    """
    (n_h, n, n_x), n_b, n_t = stack.shape, kt.shape[0], kt.shape[-1]
    kt = kt[:, None]
    run = max(1, GROUP_BUDGET // max(1, min(rows, n) * n_x))

    def pair_sums(operand):
        """operand(kx rows, lo).T @ kt rows per pair, summed over the blocks; (B, H, X, T)."""
        total = np.empty((n_b, n_h, n_x, n_t))
        part = np.empty((n_b, min(run, n_h), n_x, n_t)) if rows < n else None
        for lo in range(0, n, rows):
            for h in range(0, n_h, run):
                kx = stack[h:h + run, lo:lo + rows]
                out = total[:, h:h + run] if lo == 0 else part[:, :kx.shape[0]]
                np.matmul(operand(kx, lo).transpose(0, 2, 1), kt[:, :, lo:lo + rows], out=out)
                if lo:
                    total[:, h:h + run] += out
        return total

    num = pair_sums(lambda kx, lo: kx * y[lo:lo + rows, None])
    den = pair_sums(lambda kx, lo: kx)
    return scaled_ratio(num, den, np.asarray(scale, dtype=float)[:, :, None, None],
                        np.asarray(floor, dtype=float)[:, :, None, None])


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
    entries of ``kernel_weights``).  Every estimator takes a group of b and
    returns (values, flags, density), each (B, H, X, T): ``deconv`` and
    ``naive`` for a sequence of h, ``partial_linear`` (no h) with H = 1.
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
            normal_rows(self.x_values, self.sample.x, h, stack[i])
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
        with np.errstate(over="ignore"):    # an infinite argument has the exact kernel 0
            return gaussian_kernel((self.t_values - self.sample.w[:, None]) / bs)

    def lt(self, bs):
        """The deconvolution kernels at each b of ``bs``, (B, n, T), built b by b in place.

        A w or t so large that w / b or t / b overflows gives non-finite
        kernel values, whose points the ratio guard flags, so the overflow
        and the trig of inf are no warning.
        """
        lt = np.empty((len(bs), self.sample.n, self.t_values.size))
        with np.errstate(over="ignore", invalid="ignore"):
            for k, b in enumerate(bs):
                deconv_kernel_grid(self.deconv_weights(b), self.sample.w / b,
                                   self.t_values / b, out=lt[k])
        return lt

    def deconv(self, hs, bs, lt=None):
        """The heteroscedastic partial deconvolution estimator; ``lt`` is lt(bs) if at hand."""
        hs, bs = np.asarray(hs, dtype=float), np.asarray(bs, dtype=float)
        hb = hs * bs[:, None]
        return stacked_ratio_grid(self._stack_of(hs), self.sample.y,
                                  self.lt(bs) if lt is None else lt, hb, RIDGE_SCALE / hb,
                                  block_rows(self.quad))

    def naive(self, hs, bs):
        """Nadaraya-Watson on (x, w) with normal kernels both ways.

        Ignores the measurement error entirely; the ridge policy matches the
        deconvolution estimator with the denominator on the same density scale.
        """
        hs, bs = np.asarray(hs, dtype=float), np.asarray(bs, dtype=float)
        return stacked_ratio_grid(self._stack_of(hs), self.sample.y, self.kt(bs),
                                  self.sample.n * hs * bs[:, None],
                                  RIDGE_SCALE / (hs * bs[:, None]), block_rows(self.quad))

    def partial_linear(self, bs, slope, lt=None):
        """x*slope plus a deconvolution-kernel mean of the residuals y - x*slope, per b of ``bs``.

        Only the contaminated direction is smoothed (H = 1), so flags and
        density are constant across x.  ``lt`` is lt(bs) if the caller has it.
        """
        bs = np.asarray(bs, dtype=float)[:, None, None, None]
        lt = self.lt(bs.ravel()) if lt is None else lt
        resid = self.sample.y - self.sample.x * slope
        ratio, flags, density = scaled_ratio((resid @ lt)[:, None, None],
                                             lt.sum(axis=1)[:, None, None], bs, RIDGE_SCALE / bs)
        values = self.x_values[:, None] * slope + ratio
        return (values, np.broadcast_to(flags, values.shape).copy(),
                np.broadcast_to(density, values.shape).copy())


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

        Both sums gather over blocks of R = ``block_rows`` observations,
        M' = 2 ceil(M/2): each block adds kx.T @ [y a | a] into an (X, 2W) total,
        with a its rows of lt = left @ right (W = T) or, where ``factored_order``
        holds, of ``deconv_left`` (W = M'), the total then times ``deconv_right``.
        A one-worker executor takes the even blocks and this thread the odd ones,
        each into its own total in block order; the worker's is added first, so
        the result does not depend on the threads' timing.
        """
        from concurrent.futures import ThreadPoolExecutor   # not loaded by importing the CLI

        sample, weights, h, b = self.sample, self.weights, self.bandwidths.h, self.bandwidths.b
        x_values = np.atleast_1d(np.asarray(x_values, dtype=float))
        t_values = np.atleast_1d(np.asarray(t_values, dtype=float))
        n, n_x, rank = sample.n, x_values.size, 2 * weights.nodes.size
        # A w or t so large that w / b or t / b overflows, or a y_j a_j that
        # overflows, gives non-finite sums, whose points the ratio guard flags.
        with np.errstate(over="ignore", invalid="ignore"):
            obs, right = sample.w / b, deconv_right(weights, t_values / b)
        factored = factored_order(n, n_x, t_values.size, rank)
        width = rank if factored else t_values.size
        rows = min(n, block_rows(weights.quad))
        # Allocated on this thread: what the worker allocates stays in its malloc arena.
        kx, ops, totals = (np.empty((2, rows, n_x)), np.empty((2, rows, 2, width)),
                           np.zeros((2, n_x, 2 * width)))
        left = None if factored else np.empty((2, rows, 2, rank // 2))

        def accumulate(k):
            for lo in range(k * rows, n, 2 * rows):
                r = min(rows, n - lo)
                block, op = slice(lo, lo + r), ops[k, :r]
                normal_rows(x_values, sample.x[block], h, kx[k, :r])
                with np.errstate(over="ignore", invalid="ignore"):
                    if factored:
                        deconv_left(weights, obs, block, out=op[:, 1].reshape(r, 2, -1))
                    else:
                        np.matmul(deconv_left(weights, obs, block, out=left[k, :r]), right,
                                  out=op[:, 1])
                    np.multiply(op[:, 1], sample.y[block, None], out=op[:, 0])
                    totals[k] += kx[k, :r].T @ op.reshape(r, -1)

        with ThreadPoolExecutor(max_workers=1) as pool:
            aside = pool.submit(accumulate, 0)
            accumulate(1)
            aside.result()
        with np.errstate(over="ignore", invalid="ignore"):
            sums = (totals[0] + totals[1]).reshape(n_x, 2, width).transpose(1, 0, 2)
            sums = sums @ right if factored else sums
        return scaled_ratio(sums[0], sums[1], h * b, RIDGE_SCALE / (h * b))


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
    Raises BandwidthUnderflow for a pair that ``Bandwidths`` rejects.
    """
    if not 0 < h < np.inf:
        raise ValueError(f"h must be finite and positive, got {h}")
    Bandwidths(h, weights.bandwidth)
    if not 0 < c_sup < np.inf:
        raise ValueError(f"c_sup must be finite and positive, got {c_sup}")
    quad = weights.quad
    integrand = bandlimited_kernel_ft(quad.nodes) ** 2 / weights.denominator
    integral = float(quad.weights @ integrand)
    return c_sup * integral / (TWO_PI * h * weights.bandwidth)
