"""Per-observation measurement-error laws and their ensemble quantities.

Each observation's error distribution enters the estimator only through its
characteristic function.  The ensemble combines the n per-observation laws
into the shared denominator S(v) = sum_k |cf_k(v)|^2 of the per-observation
deconvolution weights cf_j(-v) / S(v) that generalize the homoscedastic
factor 1/(n cf(v)); ``kernels.build_deconv_weights`` tabulates them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# Values of S(v) below this floor are treated as a degenerate frequency.
# Far below anything the built-in families produce at usable bandwidths, so
# only true CF zeros and deep Gaussian-tail underflow reach it.
DENOMINATOR_FLOOR = 1e-300


def shared_denominator(cf) -> np.ndarray:
    """S(v) = sum_k |cf_k(v)|^2 from a tabulated (n, len(v)) CF matrix."""
    return (np.abs(cf) ** 2).sum(axis=0)


class ErrorFamily(str, Enum):
    GAUSSIAN = "gaussian"
    LAPLACE = "laplace"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class ErrorModel:
    """One observation's error law, identified by family and variance.

    The Laplace family is parameterized by variance: scale = sqrt(variance/2),
    so its characteristic function is 1 / (1 + variance * v^2 / 2).
    """

    family: ErrorFamily
    variance: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "family", ErrorFamily(self.family))
        object.__setattr__(self, "variance", float(self.variance))
        if not math.isfinite(self.variance) or self.variance < 0.0:
            raise ValueError(f"variance must be finite and >= 0, got {self.variance}")
        if self.family is ErrorFamily.DEGENERATE and self.variance != 0.0:
            raise ValueError("the degenerate (no-error) law has variance 0")

    def cf(self, v):
        """Characteristic function at frequency v (real for these symmetric laws)."""
        v = np.asarray(v, dtype=float)
        if self.family is ErrorFamily.GAUSSIAN:
            return np.exp(-0.5 * self.variance * v * v)
        if self.family is ErrorFamily.LAPLACE:
            return 1.0 / (1.0 + 0.5 * self.variance * v * v)
        return np.ones_like(v)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Sample ``size`` errors from this law."""
        if self.family is ErrorFamily.GAUSSIAN:
            return rng.normal(0.0, np.sqrt(self.variance), size)
        if self.family is ErrorFamily.LAPLACE:
            return rng.laplace(0.0, np.sqrt(self.variance / 2.0), size)
        return np.zeros(size)


@dataclass(frozen=True)
class ErrorEnsemble:
    """Ordered collection of n error laws, one per observation.

    ``models`` may hold any objects exposing ``cf(v)``; tests use that to
    construct characteristic functions with real zeros, which the three
    built-in families never produce.
    """

    models: tuple

    def __post_init__(self):
        object.__setattr__(self, "models", tuple(self.models))
        if len(self.models) < 1:
            raise ValueError("ensemble needs at least one error model")

    @property
    def n(self) -> int:
        return len(self.models)

    def cf_matrix(self, v) -> np.ndarray:
        """cf_j(v) for every model j, shape (n, len(v))."""
        v = np.atleast_1d(np.asarray(v, dtype=float))
        return np.vstack([np.asarray(m.cf(v)) for m in self.models])

    def denominator(self, v):
        """Shared denominator S(v) = sum_k |cf_k(v)|^2, computed once per node."""
        scalar = np.isscalar(v) or np.ndim(v) == 0
        out = shared_denominator(self.cf_matrix(v))
        return float(out[0]) if scalar else out

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """One error draw per observation, in observation order.

        Single-family ensembles are drawn in one vectorized call; mixed
        ensembles fall back to per-observation draws.
        """
        families = {getattr(m, "family", None) for m in self.models}
        if families == {ErrorFamily.GAUSSIAN}:
            sd = np.sqrt(np.array([m.variance for m in self.models]))
            return rng.normal(0.0, sd)
        if families == {ErrorFamily.LAPLACE}:
            scale = np.sqrt(np.array([m.variance for m in self.models]) / 2.0)
            return rng.laplace(0.0, scale)
        if families == {ErrorFamily.DEGENERATE}:
            return np.zeros(self.n)
        return np.array([m.draw(rng, 1)[0] for m in self.models])


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking S(v) against the numeric floor on a frequency grid."""

    bandwidth: float
    floor: float
    n_nodes: int
    min_denominator: float
    min_index: int
    min_frequency: float
    failing_indices: tuple[int, ...]
    failing_frequencies: tuple[float, ...]

    @classmethod
    def from_denominator(cls, bandwidth, freqs, denom) -> "ValidationReport":
        """Report on S(v) already tabulated at ``freqs``."""
        failing = np.flatnonzero(denom <= DENOMINATOR_FLOOR)
        min_index = int(np.argmin(denom))
        return cls(
            bandwidth=float(bandwidth),
            floor=DENOMINATOR_FLOOR,
            n_nodes=freqs.size,
            min_denominator=float(denom[min_index]),
            min_index=min_index,
            min_frequency=float(freqs[min_index]),
            failing_indices=tuple(int(i) for i in failing),
            failing_frequencies=tuple(float(freqs[i]) for i in failing),
        )

    @property
    def passed(self) -> bool:
        return not self.failing_indices

    def summary(self) -> str:
        status = "pass" if self.passed else "FAIL"
        lines = [
            f"[{status}] b={self.bandwidth:g}: min denominator "
            f"{self.min_denominator:.6e} at node {self.min_index} "
            f"(frequency {self.min_frequency:.6g}, floor {self.floor:.0e}, "
            f"{self.n_nodes} nodes)"
        ]
        if self.failing_indices:
            freqs = ", ".join(f"{f:.6g}" for f in self.failing_frequencies[:8])
            more = "" if len(self.failing_indices) <= 8 else ", ..."
            lines.append(
                f"  failing nodes {list(self.failing_indices[:8])}{more} "
                f"at frequencies [{freqs}{more}]"
            )
        return "\n".join(lines)


def validate_ensemble(ensemble: ErrorEnsemble, bandwidth: float, frequencies) -> ValidationReport:
    """Check that the shared denominator stays above the floor on ``frequencies``.

    ``frequencies`` is the grid the deconvolution weights will be evaluated
    on; callers fitting with bandwidth b pass the quadrature nodes scaled by
    1/b so the grid spans [-1/b, 1/b].
    """
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    freqs = np.atleast_1d(np.asarray(frequencies, dtype=float))
    return ValidationReport.from_denominator(bandwidth, freqs, ensemble.denominator(freqs))
