"""Exception and warning types shared across the library."""


class FbsdeFilterError(Exception):
    """Base class for all library errors."""


class UnknownFunctionName(FbsdeFilterError):
    """A named model function does not exist in the registry."""


class DimensionMismatch(FbsdeFilterError):
    """Matrix/vector dimensions of a model specification are inconsistent."""


class NonPositiveSigma(FbsdeFilterError):
    """Diffusion amplitude must be finite and satisfy sigma > 0."""


class ConfigError(FbsdeFilterError):
    """A configuration document is malformed or carries unknown keys."""


class SpaceGridTooNarrow(FbsdeFilterError):
    """Prior puts non-negligible mass outside the spatial domain."""


class SimulationDiverged(FbsdeFilterError):
    """A simulated state exceeded the overflow guard."""


class GridMismatch(FbsdeFilterError):
    """Two time-indexed objects do not share the same grid."""


class MissingTruthPath(FbsdeFilterError):
    """Operation requires a synthetic truth path that is not present."""


class LinearSolveFailure(FbsdeFilterError):
    """A tridiagonal/linear system solve failed or returned non-finite values."""


class RiccatiBlowup(FbsdeFilterError):
    """A Riccati solution entry exceeded the overflow guard."""


class FixedPointNotConverged(FbsdeFilterError):
    """Control fixed-point iteration hit the sweep cap without converging."""


class ModeModelMismatch(FbsdeFilterError):
    """Estimator mode is incompatible with the supplied model kind."""


class ResamplingForbiddenInEstimatorMode(FbsdeFilterError):
    """Resampled ensembles cannot feed the weighted-path estimators."""


class WeightUnderflow(FbsdeFilterError):
    """Every path weight of a time step underflowed to zero."""


class IterationNotConverged(FbsdeFilterError):
    """Alternating filter/control iteration hit the sweep cap."""


class FilterDivergence(FbsdeFilterError):
    """Closed-loop filter collapsed (effective sample size floor hit)."""


class CFLWarning(UserWarning):
    """Advection cell Peclet number exceeded 2; upwinding was applied."""


class WeightCollapse(UserWarning):
    """Effective sample size of an ensemble fell below the configured floor."""
