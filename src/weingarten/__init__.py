"""Star-shaped surfaces with prescribed curvature-quotient equations.

The package computes closed star-shaped surfaces whose principal
curvatures satisfy a prescribed relation between elementary symmetric
functions, by a homotopy from a round-sphere problem driven with damped
Newton steps.  Modules: exprlang (coefficient expressions), spheregeom
(radial-graph geometry), curvop (operator, residual, Jacobian), linsolve
(preconditioned GMRES for the Newton steps), continuation (certification
and homotopy driving), config/export/cli (runs and files).
"""

from .config import ConfigError, RunConfig, load_config
from .continuation import (
    ContinuationFailure,
    HypothesisError,
    HypothesisReport,
    InitializationError,
    NewtonResult,
    SolveReport,
    check_hypotheses,
    continue_to_one,
    initial_solution,
    newton_solve,
)
from .curvop import (
    AdmissibilityError,
    ProblemSpec,
    alpha_blend,
    jacobian,
    residual,
    residual_field,
)
from .exprlang import (
    EvalEnv,
    ExprEvalError,
    ExprNameError,
    ExprSyntaxError,
    evaluate,
    parse,
    ray_slope,
)
from .export import (
    SolutionFormatError,
    read_solution_csv,
    write_hypothesis_report,
    write_obj,
    write_report,
    write_solution_csv,
    write_solve_report,
)
from .spheregeom import GeometryState, SphereGrid, geometry

__version__ = "0.1.0"
