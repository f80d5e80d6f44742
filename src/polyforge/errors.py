"""Exception hierarchy shared across the package."""


class PolyforgeError(Exception):
    """Base class for all package-specific failures."""


class SchemaError(PolyforgeError):
    """Input JSON is malformed or does not match the development schema."""


class DevelopmentError(PolyforgeError):
    """A structurally well-formed development violates a semantic invariant.

    Carries the full list of violations so callers can itemize them.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class MetricError(PolyforgeError):
    """The glued surface is not a convex polyhedral metric on the sphere."""


class TriangleError(PolyforgeError):
    """Degenerate or nonexistent (Euclidean or spherical) triangle."""


class StepReductionError(PolyforgeError):
    """A denominator angle is too close to degenerate to differentiate.

    Not a hard failure: the continuation solver treats it as a signal to
    retry with a smaller step.
    """


class PyramidError(PolyforgeError):
    """No pyramid with the requested base and side lengths exists."""


class FlipError(PolyforgeError):
    """Requested diagonal flip is not executable."""


class InadmissibleWeightsError(PolyforgeError):
    """The flip algorithm certified the weight vector as inadmissible."""


class SolverAbort(PolyforgeError):
    """Continuation could not reach the target curvature."""

    def __init__(self, message, state_dump=None):
        super().__init__(message)
        self.state_dump = state_dump


class EmbedError(PolyforgeError):
    """Reconstruction in R^3 failed a closure or consistency threshold."""
