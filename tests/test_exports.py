import ast
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

import hetdeconv
from hetdeconv import (
    DeconvEstimator,
    DeconvWeights,
    ErrorEnsemble,
    ErrorModel,
    GeneratedData,
    KernelCache,
    QuadratureGrid,
    error_models,
    estimators,
    exceptions,
    kernels,
    simulation,
)

MODULES = (hetdeconv, error_models, estimators, exceptions, kernels, simulation)

# Names of the general-CF and complex-kernel path, which only laws other than
# the built-in ones reached, and the per-pair ratio that the stacked one
# replaced; the scalar kernel oracles and ratio_grid now live in tests/oracles.py.
# S(v/b) is tabulated and checked in build_deconv_weights alone, so the
# exception of a second floor check is gone too.  Every grid is Gauss-Legendre
# (the trapezoid grid is a test oracle now), and the two one-line grid
# wrappers gave way to the KernelCache methods they called.  The sweep scores
# a group of b from squared errors it forms once, so the per-slice ase is an
# oracle too, with the exception it alone raised.  A run's summary keeps each
# replication's whole SearchResult, not an optimum repackaged from it.  The
# deconvolution kernel has one program path, deconv_left @ deconv_right, so
# its one-call form is gone; one law's CF is the oracle law_cf.
DELETED = ("CosineWeights", "NonRealKernel", "validate_ensemble", "IMAG_TOL",
           "_real_part_checked", "deconv_kernel", "bandlimited_kernel_closed_form",
           "ratio_grid", "DegenerateDenominator", "QuadratureRule",
           "naive_regression_grid", "partial_linear_grid", "ase", "AllPointsExcluded",
           "RepOutcome", "WeightGroup", "deconv_kernel_grid")


def test_every_exported_name_resolves():
    assert len(set(hetdeconv.__all__)) == len(hetdeconv.__all__)
    for name in hetdeconv.__all__:
        assert hasattr(hetdeconv, name), name


def _loaded_names(path):
    """Every name a module loads, as a bare name or as an attribute."""
    loaded = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loaded.add(node.attr)
    return loaded


def test_every_exported_name_is_used_by_the_package_itself():
    # the public API is what the package's own modules use: an export that
    # only __init__ re-exports is a copy of a path no command runs
    package = Path(hetdeconv.__file__).parent
    used = set().union(*(_loaded_names(path) for path in package.glob("*.py")
                         if path.name != "__init__.py"))
    assert sorted(set(hetdeconv.__all__) - used) == []


@pytest.mark.parametrize("name", DELETED)
def test_deleted_names_do_not_resolve(name):
    assert name not in hetdeconv.__all__
    for module in MODULES:
        assert not hasattr(module, name), (module.__name__, name)


@pytest.mark.parametrize("owner,attr", [
    (ErrorModel, "draw"), (QuadratureGrid, "mirrored"), (DeconvWeights, "real"),
    (DeconvWeights, "of"), (KernelCache, "kx"), (ErrorEnsemble, "denominator"),
    (ErrorEnsemble, "models"), (QuadratureGrid, "trapezoid"), (QuadratureGrid, "rule"),
    (GeneratedData, "truth"), (DeconvEstimator, "quad"),
    (simulation.EstimatorSummary, "rep_optima"), (ErrorModel, "cf"),
])
def test_deleted_attributes_do_not_resolve(owner, attr):
    assert not hasattr(owner, attr)
    # a dataclass field without a default is no attribute of the class
    if is_dataclass(owner):
        assert attr not in {f.name for f in fields(owner)}
