"""locsim: locally simultaneous inference.

Selective confidence intervals that pay a simultaneous correction only over
the targets that could plausibly have been selected given the observed
data, with an error budget split between screening and inference.
"""

from .stats_core import (
    RngSpec,
    GaussianNoise,
    QuantileEstimate,
    CovarianceError,
    normal_quantile,
    max_abs_quantile_iid,
    max_stat_quantile_mc,
    contrast_quantile_mc,
    hoeffding_width,
    bentkus_width,
    betting_ci,
)
from .theory_core import BudgetSplit, BudgetError, ScreenCorrectPlan, compose
from .winner import (
    WinnerProblem,
    FileDrawerProblem,
    SampleMatrix,
    PlausibleSet,
    IntervalSet,
    plausible_winner_set,
    plausible_filedrawer_set,
    winner_interval,
    filedrawer_region,
    np_winner_interval,
    np_filedrawer_region,
    two_candidate_interval,
    conditional_winner_interval,
)
from .lp import Polyhedron, LpResult, LpError, lp_maximize, constraint_nonredundant
from .lasso import (
    Design,
    ModelSignPair,
    ModelFrontier,
    DegeneracyError,
    SolverError,
    lasso_solve,
    selection_polyhedron,
    safe_screening,
    exact_screening,
    enumerate_plausible_models,
    posi_intervals,
    marginal_screening_plausible,
    column_max_quantile,
)
from .erm import (
    LossMatrix,
    LocalizedBound,
    rademacher_mc,
    plausible_hypotheses,
    erm_risk_bound,
    load_loss_matrix,
)
from .sphere import (
    SphereProblem,
    mu_norm_lower_bound,
    s_tau,
    cap_quantile,
    sphere_interval,
)
from .experiments import (
    ExperimentConfig,
    ResultRow,
    ConfigError,
    generate_mu,
    run_experiment,
    run_coverage,
)

__version__ = "0.1.0"
