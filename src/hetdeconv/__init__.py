"""Partial deconvolution kernel regression under heteroscedastic measurement error."""

from .error_models import (
    DENOMINATOR_FLOOR,
    ErrorEnsemble,
    ErrorFamily,
    ErrorModel,
    ValidationReport,
)
from .estimators import (
    Bandwidths,
    DeconvEstimator,
    KernelCache,
    Sample,
    fit,
    linear_slope,
    variance_bound_diagnostic,
)
from .exceptions import (
    BandwidthUnderflow,
    ConfigError,
    DegenerateDesign,
    DimensionMismatch,
    EnsembleInvalid,
    HetdeconvError,
)
from .kernels import (
    DeconvWeights,
    QuadratureGrid,
    bandlimited_kernel_ft,
    build_deconv_weights,
    gaussian_kernel,
)
from .simulation import (
    AseReport,
    GeneratedData,
    GridAxis,
    Model,
    SimulationConfig,
    bandwidth_search,
    build_ensemble,
    cross_section,
    generate,
    replication_rng,
    run_replications,
    true_regression,
)

__version__ = "0.1.0"

__all__ = [
    "AseReport",
    "BandwidthUnderflow",
    "Bandwidths",
    "ConfigError",
    "DeconvEstimator",
    "DeconvWeights",
    "DegenerateDesign",
    "DENOMINATOR_FLOOR",
    "DimensionMismatch",
    "EnsembleInvalid",
    "ErrorEnsemble",
    "ErrorFamily",
    "ErrorModel",
    "GeneratedData",
    "GridAxis",
    "HetdeconvError",
    "KernelCache",
    "Model",
    "QuadratureGrid",
    "Sample",
    "SimulationConfig",
    "ValidationReport",
    "bandlimited_kernel_ft",
    "bandwidth_search",
    "build_deconv_weights",
    "build_ensemble",
    "cross_section",
    "fit",
    "gaussian_kernel",
    "generate",
    "linear_slope",
    "replication_rng",
    "run_replications",
    "true_regression",
    "variance_bound_diagnostic",
]
