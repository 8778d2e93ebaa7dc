"""Smoothing kernels and the quadrature engine for the deconvolution kernel.

The contaminated direction is smoothed with a kernel whose Fourier transform
(1 - v^2)^3 is supported on [-1, 1]; that compact support is what turns the
Fourier-inversion integral into a fixed-interval quadrature.  The error-free
direction uses the standard normal kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import factorial

import numpy as np
from numpy.polynomial.legendre import leggauss

from .error_models import ErrorEnsemble, ValidationReport, shared_denominator
from .exceptions import EnsembleInvalid, NonRealKernel

TWO_PI = 2.0 * np.pi

# Smallest positive normal double; smaller kernel values are flushed to 0.
SMALLEST_NORMAL = np.finfo(float).tiny

# Relative tolerance for the imaginary residue of Fourier sums over symmetric
# node pairs.  Scaled by the evaluation magnitude: supersmooth error laws at
# small bandwidths produce kernel values far above 1, where an absolute
# threshold would reject pure roundoff.
IMAG_TOL = 1e-10


class QuadratureRule(str, Enum):
    GAUSS_LEGENDRE = "gauss-legendre"
    TRAPEZOID = "trapezoid"


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes and weights for integrating over the kernel support [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray
    rule: QuadratureRule

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "rule", QuadratureRule(self.rule))
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
        return cls(nodes, weights, QuadratureRule.GAUSS_LEGENDRE)

    @classmethod
    def trapezoid(cls, m: int = 129) -> "QuadratureGrid":
        nodes = np.linspace(-1.0, 1.0, m)
        # Symmetrize as above; a no-op whenever 2 / (m - 1) is exact.
        nodes = 0.5 * (nodes - nodes[::-1])
        h = 2.0 / (m - 1)
        weights = np.full(m, h)
        weights[0] = weights[-1] = h / 2.0
        return cls(nodes, weights, QuadratureRule.TRAPEZOID)

    @property
    def mirrored(self) -> bool:
        """Whether nodes and weights are exactly symmetric about 0."""
        return (np.array_equal(self.nodes, -self.nodes[::-1])
                and np.array_equal(self.weights, self.weights[::-1]))


def gaussian_kernel(u):
    """Standard normal density, the kernel for the error-free direction.

    Values below the smallest normal double (|u| > 37.5 or so) are exactly 0.
    Subnormal operands put BLAS matrix products on a slow path, and a term of
    at most 2.2e-308 cannot move a kernel sum that clears the ridge floor.
    """
    u = np.asarray(u, dtype=float)
    k = np.exp(-0.5 * u * u) / np.sqrt(TWO_PI)
    return np.where(k < SMALLEST_NORMAL, 0.0, k)


def bandlimited_kernel_ft(v):
    """Fourier transform of the contaminated-direction kernel: (1-v^2)^3 on [-1, 1]."""
    v = np.asarray(v, dtype=float)
    inside = np.abs(v) <= 1.0
    base = 1.0 - v * v
    return np.where(inside, base * base * base, 0.0)


# Moments of the kernel transform: c_k = int_{-1}^{1} v^{2k} (1-v^2)^3 dv.
_SERIES_TERMS = 18
_SERIES_COEF = np.array(
    [
        (-1.0) ** k
        / factorial(2 * k)
        * 2.0
        * (1.0 / (2 * k + 1) - 3.0 / (2 * k + 3) + 3.0 / (2 * k + 5) - 1.0 / (2 * k + 7))
        for k in range(_SERIES_TERMS)
    ]
)


def bandlimited_kernel_closed_form(u):
    """Exact antiderivative evaluation of the contaminated-direction kernel.

    Used only as a cross-check oracle for the quadrature path
    (``deconv_kernel`` with a single error-free observation).  The
    sin/cos closed form cancels catastrophically near 0, so |u| < 2 switches
    to the Taylor series of the integral.
    """
    u = np.asarray(u, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    out = np.empty_like(u)

    small = np.abs(u) < 2.0
    if small.any():
        powers = np.power.outer(u[small] ** 2, np.arange(_SERIES_TERMS))
        out[small] = powers @ _SERIES_COEF / TWO_PI
    if (~small).any():
        x = u[~small]
        s, c = np.sin(x), np.cos(x)
        integral = (
            96.0 * c / x**4
            - 576.0 * s / x**5
            - 1440.0 * c / x**6
            + 1440.0 * s / x**7
        )
        out[~small] = integral / TWO_PI
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class DeconvWeights:
    """Tabulated integrand weights kernel_ft(v_m) * psi_j(v_m / b), shape (n, M).

    ``values`` stay real when they are real, even in v and the quadrature
    grid is mirrored, as for every built-in law: the kernel sum then reduces
    to a real cosine sum (``real``).  Any other weights are held complex.
    """

    ensemble: ErrorEnsemble
    bandwidth: float
    quad: QuadratureGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.shape != (self.ensemble.n, self.quad.size):
            raise ValueError(
                f"weights shape {values.shape} does not match "
                f"(n={self.ensemble.n}, M={self.quad.size})"
            )
        real = (np.isrealobj(values) and self.quad.mirrored
                and np.array_equal(values, values[:, ::-1]))
        values = values.astype(float if real else complex)
        object.__setattr__(self, "values", values)
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite deconvolution weights; validate the ensemble first")
        values.setflags(write=False)

    @property
    def n(self) -> int:
        return self.ensemble.n

    @property
    def real(self) -> bool:
        """Whether the weights are real and even on a mirrored grid (see the class doc)."""
        return np.isrealobj(self.values)


@dataclass(frozen=True)
class CosineWeights:
    """Real DeconvWeights reduced to what the real kernel sum consumes.

    ``values`` (n, ceil(M/2)) hold c_jv = (quadrature weight at v) / pi times
    the weight of law j at v, for the nodes v >= 0 (``nodes``), with the
    v = 0 node (odd M) at half its coefficient: half the size of the weights
    they come from.
    """

    quad: QuadratureGrid
    bandwidth: float
    values: np.ndarray

    @classmethod
    def of(cls, weights: DeconvWeights) -> "CosineWeights":
        if not weights.real:
            raise ValueError("complex deconvolution weights have no cosine form")
        half = weights.quad.size // 2          # quad.nodes[half:] are the nodes v >= 0
        coef = weights.values[:, half:] * (weights.quad.weights[half:] / np.pi)
        if weights.quad.size % 2:
            coef[:, 0] *= 0.5
        coef.setflags(write=False)
        return cls(weights.quad, weights.bandwidth, coef)

    @property
    def nodes(self) -> np.ndarray:
        return self.quad.nodes[self.quad.size // 2:]


def build_deconv_weights(
    ensemble: ErrorEnsemble, bandwidth: float, quad: QuadratureGrid
) -> DeconvWeights:
    """Validate the ensemble at bandwidth b and tabulate its deconvolution weights.

    One CF tabulation at the scaled nodes v/b gives S(v/b), which feeds both
    the validation report and the weights cf_j(-v/b) / S(v/b); the laws are
    CFs of real errors, so cf_j(-v) = conj(cf_j(v)).  Raises EnsembleInvalid,
    carrying the report, when S falls at or below the numeric floor.
    """
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    freqs = quad.nodes / bandwidth
    cf = ensemble.cf_matrix(freqs)
    denom = shared_denominator(cf)
    report = ValidationReport.from_denominator(bandwidth, freqs, denom)
    if not report.passed:
        raise EnsembleInvalid(f"ensemble invalid at b={bandwidth:g}: {report.summary()}", report)
    values = bandlimited_kernel_ft(quad.nodes)[None, :] * (np.conj(cf) / denom)
    return DeconvWeights(ensemble=ensemble, bandwidth=float(bandwidth), quad=quad, values=values)


def _real_part_checked(values: np.ndarray) -> np.ndarray:
    """Drop the imaginary part after checking it is roundoff-level small."""
    mag = np.abs(values)
    scale = max(1.0, float(mag.max())) if mag.size else 1.0
    worst = float(np.abs(values.imag).max()) if mag.size else 0.0
    if worst > IMAG_TOL * scale:
        raise NonRealKernel(
            f"imaginary residue {worst:.3e} exceeds {IMAG_TOL:.0e} * scale {scale:.3e}; "
            "asymmetric error law or corrupted weights"
        )
    return values.real


def deconv_kernel(weights: DeconvWeights, j: int, arg: float) -> float:
    """Generalized deconvolution kernel for observation j at a single argument.

    Callers supply arg = (t - W_j) / b.  Always sums the complex Fourier
    series, so it serves as the reference for ``deconv_kernel_grid``.
    """
    if not 0 <= j < weights.n:
        raise IndexError(f"observation index {j} outside 0..{weights.n - 1}")
    phases = np.exp(-1j * float(arg) * weights.quad.nodes)
    total = (weights.quad.weights * phases) @ weights.values[j] / TWO_PI
    return float(_real_part_checked(np.atleast_1d(total))[0])


def deconv_kernel_grid(weights, obs_args, eval_args) -> np.ndarray:
    """Kernel values L_j(eval_args[i] - obs_args[j]) for all j, i at once.

    ``weights`` are DeconvWeights, or the CosineWeights of real ones.  Real
    weights (``DeconvWeights.real``) pair each node v > 0 with -v:
    L_j(e) = (1/pi) sum_{v>0} c_jv [cos(v e) cos(v o_j) + sin(v e) sin(v o_j)],
    with c_jv the CosineWeights coefficients.  That is one real product of
    [c cos(v o), c sin(v o)] by [cos(v e); sin(v e)], inner size M (M + 1 for
    odd M).  Complex weights factorize exp(-i v (e_i - o_j)) =
    exp(i v o_j) exp(-i v e_i) into one complex (n, M) @ (M, I) product whose
    imaginary residue is checked.
    """
    obs_args = np.atleast_1d(np.asarray(obs_args, dtype=float))
    eval_args = np.atleast_1d(np.asarray(eval_args, dtype=float))
    if isinstance(weights, DeconvWeights):
        if not weights.real:
            v = weights.quad.nodes
            obs_phase = np.exp(1j * np.outer(obs_args, v))
            eval_phase = np.exp(-1j * np.outer(v, eval_args))
            combined = (weights.values * obs_phase * weights.quad.weights) @ eval_phase / TWO_PI
            return _real_part_checked(combined)
        weights = CosineWeights.of(weights)
    coef, v = weights.values, weights.nodes
    obs_phase = np.outer(obs_args, v)
    eval_phase = np.outer(v, eval_args)
    left = np.hstack([coef * np.cos(obs_phase), coef * np.sin(obs_phase)])
    return left @ np.vstack([np.cos(eval_phase), np.sin(eval_phase)])
