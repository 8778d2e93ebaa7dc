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

from .error_models import ErrorEnsemble, ValidationReport, shared_denominator
from .exceptions import EnsembleInvalid

TWO_PI = 2.0 * np.pi

# Smallest positive normal double; smaller kernel values are flushed to 0.
SMALLEST_NORMAL = np.finfo(float).tiny

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
    A square u^2 beyond the double range is inf, whose kernel is exactly 0,
    so that overflow is no warning.  Computed in place in one buffer: ``out``
    (which may be ``u`` itself) or a new one (0-d for scalar ``u``).
    """
    u = np.asarray(u, dtype=float)
    with np.errstate(over="ignore"):
        k = np.square(u, out=np.empty_like(u) if out is None else out)
    k *= -0.5
    np.exp(k, out=k)
    k /= np.sqrt(TWO_PI)
    k[k < SMALLEST_NORMAL] = 0.0
    return k


def bandlimited_kernel_ft(v):
    """Fourier transform of the contaminated-direction kernel: (1-v^2)^3 on [-1, 1]."""
    v = np.asarray(v, dtype=float)
    inside = np.abs(v) <= 1.0
    base = 1.0 - v * v
    return np.where(inside, base * base * base, 0.0)


@dataclass(frozen=True)
class DeconvWeights:
    """Half-node cosine coefficients of the deconvolution kernel at bandwidth b.

    ``values`` (n, ceil(M/2)) hold c_jv = kernel_ft(v) * psi_j(v / b) *
    (quadrature weight at v) / pi for the nodes v >= 0 (``nodes``), with the
    v = 0 node (odd M) at half its coefficient; psi_j = cf_j / S is real and
    even for every built-in law, so the nodes v < 0 repeat these values.
    ``denominator`` is S(v/b) on all M nodes, read-only, and ``report`` the
    passed validation report of it.
    """

    ensemble: ErrorEnsemble
    bandwidth: float
    quad: QuadratureGrid
    values: np.ndarray
    denominator: np.ndarray
    report: ValidationReport

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.ensemble.n, self.nodes.size):
            raise ValueError(
                f"weights shape {values.shape} does not match "
                f"(n={self.ensemble.n}, ceil(M/2)={self.nodes.size})"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("non-finite deconvolution weights; validate the ensemble first")
        denominator = np.asarray(self.denominator, dtype=float)
        for name, arr in (("values", values), ("denominator", denominator)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.ensemble.n

    @property
    def nodes(self) -> np.ndarray:
        return self.quad.nodes[self.quad.size // 2:]


def build_deconv_weights(
    ensemble: ErrorEnsemble, bandwidth: float, quad: QuadratureGrid
) -> DeconvWeights:
    """Validate the ensemble at bandwidth b and tabulate its deconvolution weights.

    One CF tabulation at the scaled nodes v/b >= 0 (ceil(M/2) of them) gives
    S(v/b) there and the weights cf_j(v/b) / S(v/b).  Every built-in law is
    even and the grid mirrored, so S(-v/b) = S(v/b) bit for bit: S is
    mirrored to all M nodes (the v = 0 node of odd M once) for the
    validation report, and the weights keep S(v/b) and the report.  This is
    the only place S(v/b) is tabulated and checked.  Raises EnsembleInvalid,
    carrying the report, when S falls at or below the numeric floor.
    """
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    half = quad.size // 2          # quad.nodes[half:] are the nodes v >= 0
    nodes = quad.nodes[half:]
    cf = ensemble.cf_matrix(nodes / bandwidth)
    denom_half = shared_denominator(cf)
    denom = np.concatenate([denom_half[::-1][:half], denom_half])
    report = ValidationReport.from_denominator(bandwidth, quad.nodes / bandwidth, denom)
    if not report.passed:
        raise EnsembleInvalid(f"ensemble invalid at b={bandwidth:g}: {report.summary()}", report)
    values = (bandlimited_kernel_ft(nodes)[None, :] * (cf / denom_half)
              * (quad.weights[half:] / np.pi))
    if quad.size % 2:
        values[:, 0] *= 0.5
    return DeconvWeights(ensemble=ensemble, bandwidth=float(bandwidth), quad=quad,
                         values=values, denominator=denom, report=report)


def deconv_left(weights: DeconvWeights, obs_args, rows=slice(None), out=None) -> np.ndarray:
    """The observation-side factor of ``deconv_kernel_grid``: [c cos(v o), c sin(v o)], (r, M').

    ``obs_args`` (n) hold every observation's argument at the bandwidth of
    ``weights``; the factor is formed for the observations of the slice
    ``rows`` (r of them), with M' = 2 ceil(M/2) columns: the cos half, then the sin half.
    Each phase is formed in its sin slot, its cos is taken from there and
    then its sin in place.  It is written into ``out`` when given, an
    (r, 2, M) array of the two halves, whose (r, M') view is returned.
    """
    obs_args = np.asarray(obs_args, dtype=float)
    if obs_args.shape != (weights.n,):
        raise ValueError(f"{obs_args.size} observation arguments for weights of n={weights.n}")
    v, obs = weights.nodes, obs_args[rows]
    shape = (obs.size, 2, v.size)
    if out is not None and out.shape != shape:
        raise ValueError(f"out of shape {out.shape} for a factor of shape {shape}")
    left = np.empty(shape) if out is None else out
    phase = np.multiply(obs[:, None], v, out=left[:, 1])
    np.cos(phase, out=left[:, 0])
    np.sin(phase, out=phase)
    left *= weights.values[rows, None, :]
    return left.reshape(obs.size, -1)


def deconv_right(weights: DeconvWeights, eval_args) -> np.ndarray:
    """The evaluation-side factor of ``deconv_kernel_grid``: [cos(v e); sin(v e)], (M', T)."""
    eval_args = np.asarray(eval_args, dtype=float)
    v = weights.nodes
    right = np.empty((2, v.size, eval_args.size))
    phase = np.multiply(v[:, None], eval_args, out=right[1])
    np.cos(phase, out=right[0])
    np.sin(phase, out=phase)
    return right.reshape(2 * v.size, -1)


def deconv_kernel_grid(weights: DeconvWeights, obs_args, eval_args, out=None) -> np.ndarray:
    """Kernel values L_j(eval_args[i] - obs_args[j]) at the bandwidth of ``weights``, (n, T).

    ``obs_args`` (n) and ``eval_args`` (T) hold the arguments at that
    bandwidth.  Each node v > 0 pairs with -v, so L_j(e) = sum_{v>=0} c_jv
    [cos(v e) cos(v o_j) + sin(v e) sin(v o_j)], with c_jv the coefficients
    of ``weights``: the real product ``deconv_left`` @ ``deconv_right``,
    inner size M' = 2 ceil(M/2), so the matrix has rank at most M'.  The
    product is written into ``out`` when given.
    """
    return np.matmul(deconv_left(weights, obs_args), deconv_right(weights, eval_args), out=out)
