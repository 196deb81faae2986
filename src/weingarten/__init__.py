"""Star-shaped surfaces with prescribed curvature-quotient equations.

The package computes closed star-shaped surfaces whose principal
curvatures satisfy a prescribed relation between elementary symmetric
functions, by a homotopy from a round-sphere problem driven with damped
Newton steps.  Modules: symmfunc (symmetric-function algebra), exprlang
(coefficient expressions), spheregeom (radial-graph geometry), curvop
(operator, residual, Jacobian), linsolve (preconditioned GMRES for the
Newton steps), continuation (certification and homotopy driving),
config/export/cli (runs and files).
"""

from .config import ConfigError, RunConfig, load_config
from .continuation import (
    ConeExitError,
    ContinuationFailure,
    HypothesisError,
    HypothesisReport,
    InitializationError,
    NewtonResult,
    SolveReport,
    StagnationError,
    check_hypotheses,
    continue_to_one,
    initial_solution,
    newton_solve,
)
from .curvop import (
    AdmissibilityError,
    ProblemSpec,
    SolverSettings,
    alpha_blend,
    concavity_check,
    ellipticity_check,
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
    radial_derivative,
    to_text,
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
from .symmfunc import (
    SingularQuotientError,
    in_gamma_cone,
    newton_maclaurin_holds,
    quotient_monotone_holds,
    sigma,
    sigma_all,
    sigma_gradient,
    sigma_quotient,
)

__version__ = "0.1.0"
