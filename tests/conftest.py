import multiprocessing
import os
from pathlib import Path

import pytest

import hetdeconv
from hetdeconv import ErrorEnsemble, QuadratureGrid, simulation

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


# A child process runs a patched function of this process only when forked;
# run_replications forks wherever the platform can.
needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="child processes inherit the patch only when forked")


def exit_in_child(rep):
    """``simulation._replicate``, except that a child process exits with code 7 at ``rep``."""
    parent, replicate = os.getpid(), simulation._replicate

    def replicate_or_exit(context, rep_index):
        if rep_index == rep and os.getpid() != parent:
            os._exit(7)
        return replicate(context, rep_index)

    return replicate_or_exit


@pytest.fixture(scope="session")
def quad128():
    return QuadratureGrid.gauss_legendre(128)


@pytest.fixture(scope="session")
def quad64():
    return QuadratureGrid.gauss_legendre(64)
