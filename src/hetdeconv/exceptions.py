"""Exception types shared across the package."""


class HetdeconvError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(HetdeconvError, ValueError):
    """Arrays or ensembles that must share a length do not."""


class EnsembleInvalid(HetdeconvError, ValueError):
    """Ensemble validation failed for the requested bandwidth.

    Carries the failing validation report as ``.report`` when available.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class DegenerateDesign(HetdeconvError, ValueError):
    """The error-free covariate has zero variance; no slope is identifiable."""


class AllPointsExcluded(HetdeconvError, RuntimeError):
    """Every evaluation-grid point was ridge-floored; no ASE can be formed."""


class ConfigError(HetdeconvError, ValueError):
    """A configuration file or override could not be parsed or validated."""
