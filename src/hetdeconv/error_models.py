"""Per-observation measurement-error laws and their ensemble quantities.

Each observation's error distribution enters the estimator only through its
characteristic function.  The ensemble combines the n per-observation laws
into the shared denominator S(v) = sum_k cf_k(v)^2 of the per-observation
deconvolution weights cf_j(v) / S(v) that generalize the homoscedastic
factor 1/(n cf(v)); ``kernels.build_deconv_weights`` tabulates them.  Every
built-in law is symmetric, so its characteristic function is real and even.
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
    """S(v) = sum_k cf_k(v)^2 from a tabulated real (n, len(v)) CF matrix."""
    return (cf * cf).sum(axis=0)


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


# Family codes of an array-native ensemble, keyed by family name; ErrorFamily
# members are str values, so they hash and compare as their names do.
_FAMILY_CODES = {family.value: code for code, family in enumerate(ErrorFamily)}
_GAUSSIAN, _LAPLACE, _DEGENERATE = (_FAMILY_CODES[f] for f in ErrorFamily)


class ErrorEnsemble:
    """Ordered collection of n built-in error laws, one per observation.

    The laws are held as two read-only arrays, ``codes`` (family codes) and
    ``variances``, from which the ensemble tabulates and draws in closed form.
    """

    def __init__(self, models):
        models = tuple(models)
        for m in models:
            if not isinstance(m, ErrorModel):
                raise TypeError(f"error laws must be ErrorModel, got {type(m).__name__}")
        self._set_arrays([m.family for m in models], [m.variance for m in models])

    @classmethod
    def from_arrays(cls, families, variances) -> "ErrorEnsemble":
        """Built-in laws from parallel family-name and variance sequences, checked as arrays.

        Accepts what ``ErrorModel(family, variance)`` accepts, pair by pair,
        without building the per-law objects; raises ValueError naming the
        first invalid pair otherwise.
        """
        ensemble = cls.__new__(cls)
        ensemble._set_arrays(families, variances)
        return ensemble

    def _set_arrays(self, families, variances):
        codes = np.array([_FAMILY_CODES.get(f, -1) for f in families], dtype=np.int8)
        variances = np.array(variances, dtype=float)
        if codes.shape != variances.shape or codes.ndim != 1:
            raise ValueError(f"{codes.size} families for {variances.size} variances")
        bad = ((codes < 0) | ~np.isfinite(variances) | (variances < 0.0)
               | ((codes == _DEGENERATE) & (variances != 0.0)))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"invalid error law at position {i}: "
                             f"family {families[i]!r}, variance {float(variances[i])!r}")
        if codes.size < 1:
            raise ValueError("ensemble needs at least one error model")
        codes.setflags(write=False)
        variances.setflags(write=False)
        self.codes, self.variances = codes, variances

    @property
    def n(self) -> int:
        return self.variances.size

    def cf_matrix(self, v) -> np.ndarray:
        """cf_j(v) for every model j, shape (n, len(v))."""
        v = np.atleast_1d(np.asarray(v, dtype=float))
        # ErrorModel.cf's operation order, so every value is bit-identical to it.
        p = (0.5 * self.variances)[:, None] * v * v
        cf = np.ones_like(p)
        gaussian, laplace = self.codes == _GAUSSIAN, self.codes == _LAPLACE
        cf[gaussian] = np.exp(-p[gaussian])
        cf[laplace] = 1.0 / (1.0 + p[laplace])
        return cf

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """One error draw per observation, in observation order.

        Each run of consecutive same-family laws is drawn in one vectorized
        call, which consumes the generator exactly as one draw per law would.
        """
        out = np.zeros(self.n)
        starts = np.flatnonzero(np.diff(self.codes)) + 1
        for lo, hi in zip([0, *starts.tolist()], [*starts.tolist(), self.n]):
            var = self.variances[lo:hi]
            if self.codes[lo] == _GAUSSIAN:
                out[lo:hi] = rng.normal(0.0, np.sqrt(var))
            elif self.codes[lo] == _LAPLACE:
                out[lo:hi] = rng.laplace(0.0, np.sqrt(var / 2.0))
        return out


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

