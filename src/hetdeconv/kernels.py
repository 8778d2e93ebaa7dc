"""Smoothing kernels and the quadrature engine for the deconvolution kernel.

The contaminated direction is smoothed with a kernel whose Fourier transform
(1 - v^2)^3 is supported on [-1, 1]; that compact support is what turns the
Fourier-inversion integral into a fixed-interval quadrature, summed as a
real cosine series by one matrix product per bandwidth.  The error-free
direction uses the standard normal kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .error_models import ErrorEnsemble, ValidationReport
from .exceptions import EnsembleInvalid

TWO_PI = 2.0 * np.pi

# Smallest positive normal double; smaller kernel values are flushed to 0.
SMALLEST_NORMAL = np.finfo(float).tiny

# Exponents below which exp(x) / sqrt(2 pi) is below SMALLEST_NORMAL.
_UNDERFLOW_EXPONENT = np.log(SMALLEST_NORMAL * np.sqrt(TWO_PI))

# Every batched array of one group of (b, h) pairs holds at most this many
# float64 elements (512 KiB), unless one b or one h alone holds more.  The
# sweep cuts the b grid into groups by it (the (B, H, X, T) contraction and
# the (B, n, T) kernels), ``stacked_ratio_grid`` the h of its numerator
# operand, and ``block_rows`` the observations into blocks of R rows.
GROUP_BUDGET = 1 << 16

# Most quadrature nodes a command accepts.  leggauss(m) forms an m x m
# companion matrix and solves its eigenvalues before any check could run:
# 128 MiB at 4096 nodes, 20 GB at 50 000.  The protocols use 64 and 128.
MAX_QUAD_NODES = 4096


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes and weights for integrating over the kernel support [-1, 1].

    Nodes and weights are exact mirror images about 0, so every node v > 0
    pairs with -v under the same weight; the deconvolution kernel relies on
    that pairing.
    """

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.size < 16:
            raise ValueError(f"need at least 16 nodes, got {nodes.size}")
        if nodes.shape != weights.shape:
            raise ValueError("nodes and weights must have matching shapes")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if nodes[0] < -1.0 or nodes[-1] > 1.0:
            raise ValueError("nodes must lie in [-1, 1]")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        if abs(weights.sum() - 2.0) > 1e-10:
            raise ValueError(f"weights must sum to 2, got {weights.sum()!r}")
        if not (np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])):
            raise ValueError("nodes and weights must be exact mirror images about 0")
        nodes.setflags(write=False)
        weights.setflags(write=False)

    @property
    def size(self) -> int:
        return self.nodes.size

    @classmethod
    def gauss_legendre(cls, m: int = 128) -> "QuadratureGrid":
        nodes, weights = leggauss(m)
        # Symmetrize so paired +/-v nodes cancel odd integrands exactly.
        nodes = 0.5 * (nodes - nodes[::-1])
        weights = 0.5 * (weights + weights[::-1])
        return cls(nodes, weights)


def gaussian_kernel(u, out=None):
    """Standard normal density, the kernel for the error-free direction.

    Values below the smallest normal double (|u| > 37.5 or so) are exactly 0.
    Subnormal operands put BLAS matrix products on a slow path, and a term of
    at most 2.2e-308 cannot move a kernel sum that clears the ridge floor.
    Exponents whose kernel is below it skip ``exp``, whose underflowing
    results cost about twenty times a normal one; the values are the same.
    A square u^2 beyond the double range is inf, whose kernel is exactly 0,
    so that overflow is no warning.  Computed in place in one buffer: ``out``
    (which may be ``u`` itself) or a new one (0-d for scalar ``u``).
    """
    u = np.asarray(u, dtype=float)
    with np.errstate(over="ignore"):
        k = np.square(u, out=np.empty_like(u) if out is None else out)
    k *= -0.5
    zero = k < _UNDERFLOW_EXPONENT      # exp would underflow: a slow path, and the value is 0
    np.copyto(k, 0.0, where=zero)
    np.exp(k, out=k)
    k /= np.sqrt(TWO_PI)
    np.copyto(k, 0.0, where=zero)
    del zero                            # one mask alive at a time
    k[k < SMALLEST_NORMAL] = 0.0
    return k


def bandlimited_kernel_ft(v):
    """Fourier transform of the contaminated-direction kernel: (1-v^2)^3 on [-1, 1]."""
    v = np.asarray(v, dtype=float)
    inside = np.abs(v) <= 1.0
    base = 1.0 - v * v
    return np.where(inside, base * base * base, 0.0)


def block_rows(quad: QuadratureGrid) -> int:
    """R = max(1, GROUP_BUDGET // 2M'), M' = 2 ceil(M/2): the observations of one block.

    ``build_deconv_weights``, ``predict_grid`` and the ``KernelCache``
    estimators work over blocks of R rows: 256 at 128 nodes, 512 at 64.
    """
    return max(1, GROUP_BUDGET // (4 * (quad.size - quad.size // 2)))


@dataclass(frozen=True)
class DeconvWeights:
    """The deconvolution kernel's coefficients at bandwidth b, formed per block of observations.

    ``coefficients(rows)`` forms c_jv = kernel_ft(v) * psi_j(v / b) *
    (quadrature weight at v) / pi for the observations j of a slice and the
    nodes v >= 0 (``nodes``), with the v = 0 node (odd M) at half its
    coefficient; psi_j = cf_j / S is real and even for every built-in law,
    so the nodes v < 0 repeat these values.  Only vectors over the nodes are
    held: ``denominator``, S(v/b) on all M nodes, read-only; ``report``, its
    validation report, which must have passed; and at the nodes v >= 0, v / b,
    S(v/b), kernel_ft(v) and weight / pi.
    """

    ensemble: ErrorEnsemble
    bandwidth: float
    quad: QuadratureGrid
    denominator: np.ndarray
    report: ValidationReport

    def __post_init__(self):
        if not self.report.passed:
            raise ValueError("the validation report failed; no weights for an invalid ensemble")
        denominator = np.asarray(self.denominator, dtype=float)
        if denominator.shape != (self.quad.size,):
            raise ValueError(f"denominator of shape {denominator.shape} for {self.quad.size} nodes")
        denominator.setflags(write=False)
        object.__setattr__(self, "denominator", denominator)
        half = self.quad.size // 2
        for name, vector in (("_scaled_nodes", self.nodes / self.bandwidth),
                             ("_half_denominator", denominator[half:]),
                             ("_kernel_ft", bandlimited_kernel_ft(self.nodes)),
                             ("_weight_over_pi", self.quad.weights[half:] / np.pi)):
            object.__setattr__(self, name, vector)

    @property
    def n(self) -> int:
        return self.ensemble.n

    @property
    def nodes(self) -> np.ndarray:
        return self.quad.nodes[self.quad.size // 2:]

    def coefficients(self, rows=slice(None), out=None) -> np.ndarray:
        """c_jv for the observations j of the slice ``rows``, (r, ceil(M/2)), into ``out`` if given.

        cf / S, times kernel_ft, times weight / pi, in that order.
        """
        c = self.ensemble.cf_matrix(self._scaled_nodes, rows, out=out)
        c /= self._half_denominator
        c *= self._kernel_ft
        c *= self._weight_over_pi
        if self.quad.size % 2:
            c[:, 0] *= 0.5
        return c


def build_deconv_weights(
    ensemble: ErrorEnsemble, bandwidth: float, quad: QuadratureGrid
) -> DeconvWeights:
    """Validate the ensemble at bandwidth b and return its deconvolution weights.

    S(v/b) = sum_j cf_j(v/b)^2 is tabulated at the scaled nodes v/b >= 0
    (ceil(M/2) of them) over blocks of ``block_rows`` observations: the
    first block's squares are summed down their rows, and each later
    block's after the running S, which continues that one chain of rows,
    so S is the sum over all n rows at once bit for bit.  Every built-in law
    is even and the grid mirrored, so S(-v/b) = S(v/b) bit for bit: S is
    mirrored to all M nodes (the v = 0 node of odd M once) for the
    validation report, and the weights keep S and the report.  This is the
    only place S(v/b) is tabulated and checked.  Raises EnsembleInvalid,
    carrying the report, when S falls at or below the numeric floor.
    """
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    half = quad.size // 2          # quad.nodes[half:] are the nodes v >= 0
    scaled, n, rows = quad.nodes[half:] / bandwidth, ensemble.n, block_rows(quad)
    squares = np.empty((min(rows, n) + 1, scaled.size))     # row 0: the running S
    for lo in range(0, n, rows):
        r = min(rows, n - lo)
        cf = ensemble.cf_matrix(scaled, slice(lo, lo + r), out=squares[1:r + 1])
        np.multiply(cf, cf, out=cf)
        denom_half = squares[1 if lo == 0 else 0:r + 1].sum(axis=0)
        squares[0] = denom_half
    denom = np.concatenate([denom_half[::-1][:half], denom_half])
    report = ValidationReport.from_denominator(bandwidth, quad.nodes / bandwidth, denom)
    if not report.passed:
        raise EnsembleInvalid(f"ensemble invalid at b={bandwidth:g}: {report.summary()}", report)
    return DeconvWeights(ensemble=ensemble, bandwidth=float(bandwidth), quad=quad,
                         denominator=denom, report=report)


def deconv_left(weights: DeconvWeights, obs_args, rows=slice(None), out=None,
                coef=None) -> np.ndarray:
    """The observation-side factor [c cos(v o), c sin(v o)] of the kernels L_j, (r, M').

    Each node v > 0 pairs with -v, so at the bandwidth of ``weights``
    L_j(e) = sum_{v>=0} c_jv [cos(v e) cos(v o_j) + sin(v e) sin(v o_j)]:
    row j of this factor times ``deconv_right``, with M' = 2 ceil(M/2)
    columns, the cos half then the sin half, so the (n, T) kernel matrix
    has rank at most M'.  ``obs_args`` (n) hold every observation's argument
    o_j at that bandwidth; the factor is formed for the observations of the
    slice ``rows`` (r of them), with c = ``weights.coefficients(rows)``.  It
    is written into ``out`` when given, an (r, 2, M) array of the two halves,
    whose (r, M') view is returned; c is formed in ``coef`` when given, an
    (r, ceil(M/2)) array.
    """
    obs_args = np.asarray(obs_args, dtype=float)
    if obs_args.shape != (weights.n,):
        raise ValueError(f"{obs_args.size} observation arguments for weights of n={weights.n}")
    v, obs = weights.nodes, obs_args[rows]
    shape = (obs.size, 2, v.size)
    if out is not None and out.shape != shape:
        raise ValueError(f"out of shape {out.shape} for a factor of shape {shape}")
    left = np.empty(shape) if out is None else out
    c = weights.coefficients(rows, out=coef)
    phase = obs[:, None] * v
    np.multiply(c, np.cos(phase), out=left[:, 0])
    np.multiply(c, np.sin(phase, out=phase), out=left[:, 1])
    return left.reshape(obs.size, -1)


def deconv_right(weights: DeconvWeights, eval_args) -> np.ndarray:
    """The evaluation-side factor [cos(v e); sin(v e)] of the kernels L_j, (M', T)."""
    eval_args = np.asarray(eval_args, dtype=float)
    v = weights.nodes
    right = np.empty((2, v.size, eval_args.size))
    phase = np.multiply(v[:, None], eval_args, out=right[1])
    np.cos(phase, out=right[0])
    np.sin(phase, out=phase)
    return right.reshape(2 * v.size, -1)

