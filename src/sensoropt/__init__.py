"""Information-optimal sensor placement for shear-building system identification.

The package answers one question: given a limited sensor budget for a
multistory shear building, which stories should be instrumented so the
recorded response is maximally informative about the structural
parameters?  It scores a placement by the expected log-determinant of the
parameter information matrix under a designer prior, relaxes the binary
selection to a convex program, solves it with an interior-point method,
and certifies (or repairs) the rounded configuration against greedy,
exhaustive, and fixed baselines.
"""

__version__ = "0.1.0"

from .building import (
    PARAMETER_NAMES,
    SystemParameters,
    TimeGrid,
    UnsupportedDampingError,
    build_uniform_shear_model,
    modal_constants,
    modal_response,
    physical_response,
    response_sensitivities,
)
from .priors import (
    Marginal,
    PriorSpec,
    SampleSet,
    default_prior,
    lognormal_underlying,
    sample_prior,
)
from .fim import (
    SingularInformationError,
    compute_elementary_set,
    mc_gradient_hessian,
    mc_objective,
    preflight_check,
)
from .solver import (
    ConvergenceError,
    certify_or_repair,
    solve_relaxed,
)
from .baselines import compare, exhaustive, fixed_configs, greedy_forward
from .config import ConfigError, validate_config
from .pipeline import PipelineError, run_pipeline, write_report
