"""Strategic content moderation as an optimization problem.

Users rewrite content toward a trend as far as a moderator's benign region
allows; this package computes those best responses in closed form, measures
the induced social distortion and free-speech indices, fits approximately
optimal halfspace moderators via a smoothed penalized objective, and checks
everything against exhaustive two-dimensional reference searches.
"""

from .model import (
    BENIGN_TOL,
    BestResponseResult,
    EmptyBenignRegionError,
    LinearModerator,
    Moderator,
    Population,
    PolytopeModerator,
    ResponseCase,
    Trend,
    TRIVIAL,
    TrivialModerator,
    UserProfile,
    best_response,
    best_responses,
    ideal_point,
    project_hyperplane,
    project_polytope,
)
from .metrics import (
    MetricReport,
    dm_closed_form_linear,
    generalization_gap,
    halfspace_scores,
    metrics,
)
from .solver import (
    CalibrationOutcome,
    CalibrationTarget,
    DegenerateSolutionError,
    NonPositiveAError,
    SolveResult,
    SolverConfig,
    calibrate_lambda,
    derive_seed,
    lambda_max,
    pgd_solve,
    polish_penalized,
    surrogate_gradient,
    surrogate_loss,
    sweep_lambda,
)
from .oracle import (
    NoFeasibleCandidateError,
    OracleConfig,
    oracle_2d,
    oracle_penalized_2d,
    toy_disk,
)
from .data import DatasetFormatError, MixtureSpec, generate, load, save

__version__ = "0.1.0"
