import os
from pathlib import Path

import pytest

import hetdeconv
from hetdeconv import ErrorEnsemble, QuadratureGrid

# Child processes (``python -m hetdeconv.cli``) import the package under test,
# also when it runs from a checkout through pytest's ``pythonpath`` setting.
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(Path(hetdeconv.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p)


def underflowing_ensemble(n):
    """n Gaussian laws of variance 2: invalid at b = 0.05 on 64 nodes, valid at b >= 0.1.

    Tests that need a degenerate shared denominator use it: at b = 0.05 the
    scaled nodes reach |v| ~ 19.5, where cf(v)^2 = exp(-2 v^2) and so S(v)
    underflow to 0.  No built-in law has a true CF zero.
    """
    return ErrorEnsemble.from_arrays(["gaussian"] * n, [2.0] * n)


@pytest.fixture(scope="session")
def quad128():
    return QuadratureGrid.gauss_legendre(128)


@pytest.fixture(scope="session")
def quad64():
    return QuadratureGrid.gauss_legendre(64)
