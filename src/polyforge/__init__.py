"""polyforge: convex polytopes from polyhedral metrics on the sphere.

Feed it a development (Euclidean triangles with glued sides) describing a
convex cone metric; it deforms a generalized convex polytope along the
curvature path kappa(t) = t * kappa(1) down to kappa = 0 and returns the
unique convex polytope realizing the metric, up to rigid motion.
"""

from .errors import (
    DevelopmentError,
    EmbedError,
    FlipError,
    InadmissibleWeightsError,
    MetricError,
    PolyforgeError,
    PyramidError,
    SchemaError,
    SolverAbort,
    StepReductionError,
)
from .polytope import GeneralizedPolytope
from .solver import solve_path
from .surface import Development, PolyhedralMetric, build_metric, parse_development
from .triangulation import CornerMesh, weighted_delaunay
from .embed import congruence_check, place_faces, solve_apex

__version__ = "0.1.0"

__all__ = [
    "CornerMesh",
    "Development",
    "DevelopmentError",
    "EmbedError",
    "FlipError",
    "GeneralizedPolytope",
    "InadmissibleWeightsError",
    "MetricError",
    "PolyforgeError",
    "PolyhedralMetric",
    "PyramidError",
    "SchemaError",
    "SolverAbort",
    "StepReductionError",
    "build_metric",
    "congruence_check",
    "parse_development",
    "place_faces",
    "solve_apex",
    "solve_path",
    "weighted_delaunay",
    "__version__",
]
