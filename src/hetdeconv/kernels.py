"""Smoothing kernels and the quadrature engine for the deconvolution kernel.

The contaminated direction is smoothed with a kernel whose Fourier transform
(1 - v^2)^3 is supported on [-1, 1]; that compact support is what turns the
Fourier-inversion integral into a fixed-interval quadrature.  The error-free
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


@dataclass(frozen=True)
class WeightGroup:
    """The DeconvWeights of B bandwidths whose kernels are built together.

    The members share one sample size and one quadrature grid ``quad``, so
    their cosine coefficients stack over one set of nodes; a single b is the
    group of one.
    """

    members: tuple

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValueError("a weight group needs at least one member")
        first = members[0]
        if any(w.n != first.n or not np.array_equal(w.quad.nodes, first.quad.nodes)
               for w in members[1:]):
            raise ValueError("group members must share one sample size and quadrature grid")
        object.__setattr__(self, "members", members)

    @property
    def quad(self) -> QuadratureGrid:
        return self.members[0].quad


def deconv_kernel_grid(weights: WeightGroup, obs_args, eval_args) -> np.ndarray:
    """Kernel values L_j(eval_args[k, i] - obs_args[k, j]) of every member k, shape (B, n, T).

    ``obs_args`` (B, n) and ``eval_args`` (B, T) hold the arguments of each
    member's bandwidth (1-D for a group of one).  Each node v > 0 pairs with
    -v, so L_j(e) = sum_{v>=0} c_jv [cos(v e) cos(v o_j) + sin(v e) sin(v o_j)],
    with c_jv the member's ``DeconvWeights`` coefficients.  Per member that is
    one real product of [c cos(v o), c sin(v o)] by [cos(v e); sin(v e)], inner
    size M (M + 1 for odd M).  Each phase is formed in its operand's sin slot,
    its cos is taken from there and then its sin in place, and one batched
    product runs the B products.
    """
    obs_args = np.atleast_2d(np.asarray(obs_args, dtype=float))
    eval_args = np.atleast_2d(np.asarray(eval_args, dtype=float))
    members = weights.members
    if not len(members) == len(obs_args) == len(eval_args):
        raise ValueError(f"{len(members)} members for {len(obs_args)} observation and "
                         f"{len(eval_args)} evaluation argument rows")
    v = members[0].nodes
    size, n, t, m = len(members), obs_args.shape[1], eval_args.shape[1], v.size
    left = np.empty((size, n, 2, m))
    phase = np.multiply(obs_args[:, :, None], v, out=left[:, :, 1])
    np.cos(phase, out=left[:, :, 0])
    np.sin(phase, out=phase)
    for k, member in enumerate(members):
        left[k] *= member.values[:, None, :]
    right = np.empty((size, 2, m, t))
    phase = np.multiply(v[:, None], eval_args[:, None, :], out=right[:, 1])
    np.cos(phase, out=right[:, 0])
    np.sin(phase, out=phase)
    return np.matmul(left.reshape(size, n, 2 * m), right.reshape(size, 2 * m, t))
