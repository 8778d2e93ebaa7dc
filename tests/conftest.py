import os
from pathlib import Path

import numpy as np
import pytest

import hetdeconv
from hetdeconv import QuadratureGrid

# Child processes (``python -m hetdeconv.cli``) import the package under test,
# also when it runs from a checkout through pytest's ``pythonpath`` setting.
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(Path(hetdeconv.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p)


class VanishingCF:
    """Synthetic error law whose characteristic function has real zeros.

    cf(v) = max(0, 1 - |v|/cutoff): equals 1 at 0, falls to 0 at |v| >= cutoff.
    None of the built-in families can produce a zero, so tests needing a
    degenerate denominator construct it with this stub.
    """

    def __init__(self, cutoff=1.0):
        self.cutoff = cutoff

    def cf(self, v):
        v = np.asarray(v, dtype=float)
        return np.maximum(0.0, 1.0 - np.abs(v) / self.cutoff)


class NonHermitianCF:
    """Corrupted 'characteristic function' with cf(-v) != conj(cf(v)).

    No real random variable has such a transform; feeding it through the
    pipeline must trip the kernel realness check rather than silently
    produce a complex kernel.
    """

    def __init__(self, variance=0.5, phase=0.2):
        self.variance = variance
        self.phase = phase

    def cf(self, v):
        v = np.asarray(v, dtype=float)
        return np.exp(-0.5 * self.variance * v * v) * np.exp(1j * self.phase)


@pytest.fixture(scope="session")
def quad128():
    return QuadratureGrid.gauss_legendre(128)


@pytest.fixture(scope="session")
def quad64():
    return QuadratureGrid.gauss_legendre(64)
