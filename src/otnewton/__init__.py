"""Entropic optimal transport with temperature annealing and a truncated Newton inner solver."""

from . import errors, opcount
from .core import chi_sq_div, kl_div, lse_cols, lse_rows, shannon_entropy
from .driver import (
    MdotOptions,
    OuterIteration,
    RunReport,
    ScheduleState,
    Solution,
    adjust_schedule,
    eps_rule,
    error_bound,
    extrapolate,
    mdot,
    round_plan,
    smooth_marginals,
)
from .dual import DualState
from .newton import (
    DiscountedSystem,
    NewtonResult,
    newton_solve,
    next_rho0,
    pcg_solve,
)
from .oracles import (
    ExactSolution,
    dense_spd_solve,
    exact_ot_small,
    sinkhorn_project,
)
from .problems import (
    Problem,
    TraceRow,
    gen_grid_cost,
    gen_marginal,
    grid_points_cost,
    load_problem,
    read_trace,
    save_problem,
    write_trace,
)
from .projector import (
    ProjStats,
    StepRecord,
    armijo_accept,
    chi_sinkhorn,
    delta_ratio,
    eta_rule,
    project,
)

__all__ = [
    "errors", "opcount",
    "chi_sq_div", "kl_div", "lse_cols", "lse_rows", "shannon_entropy",
    "MdotOptions", "OuterIteration", "RunReport", "ScheduleState", "Solution",
    "adjust_schedule", "eps_rule", "error_bound", "extrapolate", "mdot",
    "round_plan", "smooth_marginals",
    "DualState",
    "DiscountedSystem", "NewtonResult", "newton_solve", "next_rho0", "pcg_solve",
    "ExactSolution", "dense_spd_solve", "exact_ot_small", "sinkhorn_project",
    "Problem", "TraceRow", "gen_grid_cost", "gen_marginal", "grid_points_cost",
    "load_problem", "read_trace", "save_problem", "write_trace",
    "ProjStats", "StepRecord", "armijo_accept", "chi_sinkhorn", "delta_ratio",
    "eta_rule", "project",
]

__version__ = "0.1.0"
