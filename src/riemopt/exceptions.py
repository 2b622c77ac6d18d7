"""Exception types shared across the library."""


class RiemoptError(Exception):
    """Base class for library errors."""


class DimensionMismatchError(RiemoptError, ValueError):
    """Array shapes are incompatible with the manifold's representation."""


class DegenerateStepError(RiemoptError, RuntimeError):
    """A step left the representable set (a retraction or normalization hit
    a near-zero vector); the solvers score it as an infinite cost."""


class RankCollapseError(DegenerateStepError):
    """A fixed-rank retraction produced a numerically rank-deficient point."""


class MissingDerivativeError(RiemoptError, ValueError):
    """The problem definition lacks a derivative required by the caller."""
