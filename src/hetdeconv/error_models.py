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


class ErrorFamily(str, Enum):
    GAUSSIAN = "gaussian"
    LAPLACE = "laplace"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class ErrorModel:
    """One observation's error law, identified by family and variance.

    Its characteristic function is exp(-variance v^2 / 2) (Gaussian),
    1 / (1 + variance v^2 / 2) (Laplace, of scale sqrt(variance / 2)) or 1
    (degenerate); ``ErrorEnsemble.cf_matrix`` tabulates it.
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
        # the family code of an ensemble of one family, None for a mixed one;
        # whether any law is degenerate, whose rows cf_matrix sets to 1
        self._family = int(codes[0]) if np.all(codes == codes[0]) else None
        self._degenerate = bool(np.any(codes == _DEGENERATE))

    @property
    def n(self) -> int:
        return self.variances.size

    def cf_matrix(self, v, rows=slice(None), out=None) -> np.ndarray:
        """cf_j(v) for the models j of the slice ``rows``, shape (r, len(v)), into ``out`` if given.

        Each closed form from p = (variance / 2) v^2, in the operation order
        of the per-law reference ``law_cf`` of ``tests/oracles.py``, so every
        value is bit-identical to it: one chain of ufuncs when every law is
        Gaussian or every law Laplace; otherwise the Laplace form in place,
        the Gaussian one copied over its rows and exactly 1 over the
        degenerate ones, whose p = 0 v^2 is NaN at |v| = inf.  A p beyond the
        double range is inf, where both CFs are exactly 0.
        """
        v = np.atleast_1d(np.asarray(v, dtype=float))
        with np.errstate(over="ignore", invalid="ignore"):
            p = np.multiply((0.5 * self.variances[rows])[:, None], v, out=out)
            p *= v
        if self._family == _GAUSSIAN:
            return np.exp(np.negative(p, out=p), out=p)
        if self._family == _LAPLACE:
            p += 1.0
            return np.divide(1.0, p, out=p)
        codes = self.codes[rows][:, None]
        gaussian = np.exp(np.negative(p))
        p += 1.0
        np.divide(1.0, p, out=p)
        np.copyto(p, gaussian, where=codes == _GAUSSIAN)
        if self._degenerate:
            np.copyto(p, 1.0, where=codes == _DEGENERATE)
        return p

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

