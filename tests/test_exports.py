from dataclasses import fields, is_dataclass

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
# oracle too.
DELETED = ("CosineWeights", "NonRealKernel", "validate_ensemble", "IMAG_TOL",
           "_real_part_checked", "deconv_kernel", "bandlimited_kernel_closed_form",
           "ratio_grid", "DegenerateDenominator", "QuadratureRule",
           "naive_regression_grid", "partial_linear_grid", "ase")


def test_every_exported_name_resolves():
    assert len(set(hetdeconv.__all__)) == len(hetdeconv.__all__)
    for name in hetdeconv.__all__:
        assert hasattr(hetdeconv, name), name


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
])
def test_deleted_attributes_do_not_resolve(owner, attr):
    assert not hasattr(owner, attr)
    # a dataclass field without a default is no attribute of the class
    if is_dataclass(owner):
        assert attr not in {f.name for f in fields(owner)}
