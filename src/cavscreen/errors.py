"""Exception types shared across the package."""


class CavscreenError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(CavscreenError):
    """Operands live on simplices of different dimension."""


class EmptySupport(CavscreenError):
    """A distribution over posteriors has no support points."""


class ZeroProbabilitySignal(CavscreenError):
    """Posterior requested for a signal with zero marginal probability."""


class InfinitePotential(CavscreenError):
    """A cost potential evaluates to +inf on a support point."""


class EmptyGrid(CavscreenError):
    """An envelope was requested over an empty grid."""


class InfeasibleBarycenter(CavscreenError):
    """The query belief lies outside the convex hull of the grid."""


class AssumptionViolated(CavscreenError):
    """Some ball-grid prior has no affordable, sufficiently valuable experiment."""

    def __init__(self, message, prior=None):
        super().__init__(message)
        self.prior = prior


class NoFeasibleU(CavscreenError):
    """No payment window: at the chosen fine no payment keeps every informed
    type whole below the rejection bound, or no positive fine exists."""


class BoundaryPrior(CavscreenError):
    """A strictly interior prior is required but a coordinate is zero."""


class SearchExhausted(CavscreenError):
    """A lattice search found no contract meeting all conditions."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class ConfigError(CavscreenError):
    """A scenario config file is missing, malformed, or inconsistent."""


class NotCertified(CavscreenError):
    """An exact solver could not certify a value within its iteration cap."""
