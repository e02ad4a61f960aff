"""Outer temperature-annealing loop: schedule, smoothing, rounding, reporting.

The driver solves a sequence of Bregman projections at geometrically
increasing ``gamma``, warm-starting each from a first-order extrapolation of
the previous two dual iterates.  The final plan is rounded onto the exact
polytope of the *original* marginals, which yields the standard guarantee
``<P - P*, C> <= 2 min(H(r), H(c)) / gamma_f`` for the rounded cost.  The
final plan is the state's anchored plan, scaled in place to the final
potentials and rounded in place (``_kernels.round_plan``, imported here as
``round_plan``), so a solve allocates one n-by-n plan.  The driver only
orchestrates: every n-by-n pass is a kernel's.

Each solve also certifies its own gap.  With ``f = u / gamma_f`` at the
final row potentials and ``g`` its c-transform, ``g_j = min_i (C_ij - f_i)``,
every pair satisfies ``f_i + g_j <= C_ij``, so by weak duality
``f.r + g.c`` is below the optimal cost whatever ``u`` is (Peyre & Cuturi,
*Computational Optimal Transport*, 2019, section 3).  ``g`` is one
``log_plan_max`` pass, taken before the plan is released, and
``RunReport.certified_gap`` is the rounded cost minus that bound: a proven
suboptimality, with no LP and no convergence assumption.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import opcount, oracles
from ._kernels import log_plan_max, plan_cost, round_plan
from .core import shannon_entropy
from .dual import DualState
from .errors import DegenerateInputError, DomainError, OTNError
from .newton import next_rho0
from .problems import TraceRow
from .projector import ProjStats, project

DEFAULT_W_R = 0.45
Q_GROW_THRESHOLD = 0.95
Q_SHRINK_THRESHOLD = 0.8
Q_MAX = 2.0
# Floor for the decay rate: repeated square roots would otherwise collapse q
# to 1.0 in floating point and freeze the temperature schedule.
Q_MIN = 2.0 ** (1.0 / 16.0)
# The solver name of each projector, as ``RunReport.solver`` and the command
# line give it.
SOLVER_NAMES = {"newton": "mdot-tn", "sinkhorn": "mdot-sinkhorn"}


@dataclass
class MdotOptions:
    """Driver configuration; defaults reproduce the benchmarked setup."""

    w_r: float = DEFAULT_W_R
    adaptive_q: bool = True
    adaptive_rho0: bool = True
    projector: str = "newton"  # "newton" or "sinkhorn"


@dataclass
class OuterIteration:
    """One annealing step: the temperature, tolerance, and projection stats.

    ``plan_density`` is the share of entries at or above the floor of the
    projection's anchored plan (``dual.flush_floor``; the last anchor,
    should the projection anchor again), so a run shows which
    temperatures were served sparse (see ``dual.sparse_anchor``).  Both
    projectors anchor at every temperature; it is nan only when the state
    holds no anchor.
    """

    t: int
    gamma: float
    eps_d: float
    q_next: float
    stats: ProjStats
    ops_n2: int
    wall_ms: float
    plan_density: float


@dataclass
class RunReport:
    """Per-run summary; serialized as JSON for the benchmark harness."""

    label: str
    n: int
    gamma_i: float
    gamma_f: float
    p: float
    q_init: float
    adaptive_q: bool
    adaptive_rho0: bool
    w_r: float
    solver: str
    primal_cost_rounded: float
    dual_value_final: float
    grad_norm_final: float
    error_bound: float
    certified_gap: float
    ops: dict
    wall_ms: float
    outer_iterations: int

    def to_json(self, indent=2):
        return json.dumps(self.__dict__, indent=indent)

    @classmethod
    def from_json(cls, text):
        return cls(**json.loads(text))


@dataclass
class Solution:
    """Feasible rounded plan plus cost, guarantee, and run telemetry.

    ``lower_bound`` is the c-transform bound below the optimal cost, so
    ``primal_cost - lower_bound`` (``report.certified_gap``) bounds the
    plan's suboptimality.
    """

    P: np.ndarray
    primal_cost: float
    error_bound: float
    lower_bound: float
    report: RunReport
    iterations: list[OuterIteration] = field(default_factory=list)
    trace: list[TraceRow] = field(default_factory=list)
    final_state: DualState | None = None


def eps_rule(gamma, p, r, c, entropy=None):
    """Gradient-norm tolerance min(H(r), H(c)) / gamma^p for this temperature;
    ``entropy`` is min(H(r), H(c)) when the caller has taken it already."""
    if gamma <= 0.0:
        raise DomainError("gamma must be positive")
    if entropy is None:
        entropy = min(shannon_entropy(r), shannon_entropy(c))
    return entropy / gamma ** p


def smooth_marginals(r, c, eps_d, w_r=DEFAULT_W_R):
    """Mix the marginals toward uniform, spending the stability budget asymmetrically.

    The weights of the row and column marginals add up to 1/2: the rows
    take ``w_r`` and the columns ``w_c = 1/2 - w_r``.  The row marginal
    receives most of the budget because the row system's diagonal
    preconditioning is the stability-critical path, while column sums are
    restored by exact log-domain scalings.
    """
    if not 0.25 < w_r < 0.5:
        raise DomainError(f"need 1/4 < w_r < 1/2 (so that w_r > 1/2 - w_r > 0), got {w_r}")
    w_c = 0.5 - w_r
    if not 0.0 < eps_d < 1.0:
        raise DomainError(f"eps_d must be in (0, 1), got {eps_d}")
    r = np.asarray(r, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    n = r.shape[0]
    r_s = (1.0 - w_r * eps_d) * r + (w_r * eps_d / n)
    c_s = (1.0 - w_c * eps_d) * c + (w_c * eps_d / len(c))
    return r_s, c_s


def adjust_schedule(q, delta_min):
    """Grow/shrink the temperature decay rate from the worst reduction ratio.

    Shrinks are floored at ``Q_MIN`` so the schedule always makes progress.
    """
    if not q > 1.0:
        raise DomainError(f"q must exceed 1, got {q}")
    if delta_min > Q_GROW_THRESHOLD:
        return min(Q_MAX, q * q)
    if delta_min < Q_SHRINK_THRESHOLD:
        return max(Q_MIN, math.sqrt(q))
    return q


def extrapolate(z_t, z_tm1, gamma_next, gamma_t, gamma_tm1):
    """First-order warm start in gamma from the last two dual iterates."""
    if gamma_t == gamma_tm1:
        raise DomainError("extrapolation needs distinct consecutive gammas")
    step = (gamma_next - gamma_t) / (gamma_t - gamma_tm1)
    return z_t + step * (z_t - z_tm1)


def error_bound(gamma_f, r, c, entropy=None):
    """Worst-case suboptimality of the rounded plan at final temperature:
    twice ``eps_rule`` at p = 1."""
    return 2.0 * eps_rule(gamma_f, 1.0, r, c, entropy)


def mdot(problem, gamma_i, gamma_f, p=1.5, q_init=2.0, opts=None):
    """Anneal the temperature from gamma_i to gamma_f and return a rounded plan.

    Runs the outer mirror-descent loop: per iteration, pick the gradient
    tolerance for the current gamma, smooth the marginals, project to half
    the tolerance on the smoothed marginals, adapt the decay rate from the
    projection's worst reduction ratio and record the iteration.  The loop
    leaves after the iteration at ``gamma_f``; before any other temperature
    it decays gamma and extrapolates the duals to warm start the next
    projection.  Wall time covers solve, certificate and rounding, no I/O.
    A point-mass marginal raises ``DegenerateInputError`` before any pass.
    """
    for name, x in (("gamma_i", gamma_i), ("gamma_f", gamma_f), ("p", p), ("q_init", q_init)):
        if not math.isfinite(x):
            raise DomainError(f"{name} must be finite, got {x}")
    if gamma_i <= 0.0 or gamma_f <= 0.0:
        raise DomainError("gamma_i and gamma_f must be positive")
    if p < 1.0:
        raise DomainError(f"p must be >= 1, got {p}")
    if q_init <= 1.0:
        raise DomainError(f"q_init must exceed 1, got {q_init}")
    opts = opts or MdotOptions()
    if opts.projector not in SOLVER_NAMES:
        raise DomainError(f"unknown projector {opts.projector!r}")
    for name, m in (("r", problem.r), ("c", problem.c)):
        if np.count_nonzero(m) == 1:
            # Its entropy, and so every tolerance eps_rule gives, is 0.
            raise DegenerateInputError(
                f"marginal {name} is a point mass, so the only feasible plan is r c^T",
                diagnostics={f"nonzeros_{name}": 1})

    t0 = time.monotonic()
    ops_cat_start = opcount.snapshot()

    entropy = min(shannon_entropy(problem.r), shannon_entropy(problem.c))
    gamma_prev, gamma, q = 0.0, min(gamma_i, gamma_f), float(q_init)
    state = None
    rho_next = 0.0
    iterations = []

    while True:
        t = len(iterations) + 1
        it_t0 = time.monotonic()
        it_ops0 = opcount.total()
        eps_d = eps_rule(gamma, p, problem.r, problem.c, entropy)
        if eps_d >= 1.0:
            raise DomainError(
                f"tolerance {eps_d:.3g} >= 1 at gamma={gamma}; raise gamma_i")
        r_s, c_s = smooth_marginals(problem.r, problem.c, eps_d, opts.w_r)
        if state is None:
            state = DualState(problem, gamma, u=np.log(r_s), v=np.log(c_s), r=r_s, c=c_s)
            z_prev = np.concatenate([state.u, state.v])
        else:
            state.set_gamma(gamma)

        try:
            if opts.projector == "newton":
                stats = project(state, r_s, c_s, eps_d / 2.0, rho0=rho_next,
                                adaptive_rho0=opts.adaptive_rho0)
                rho_next = next_rho0(stats.rho_final)
            else:
                # Looked up in oracles at call time, so that a wrapper installed
                # there (perfbench/spans.py) sees the call.
                _, steps = oracles.sinkhorn_project(state, r_s, c_s, eps_d / 2.0)
                stats = ProjStats(sinkhorn_steps=steps,
                                  grad_norm_final=state.grad_norm_l1())
        except OTNError as exc:
            exc.diagnostics["outer_iteration"] = t
            exc.diagnostics["gamma"] = gamma
            raise

        if opts.adaptive_q:
            q = adjust_schedule(q, stats.delta_min)
        iterations.append(OuterIteration(
            t=t, gamma=gamma, eps_d=eps_d, q_next=q, stats=stats,
            ops_n2=opcount.total() - it_ops0,
            wall_ms=(time.monotonic() - it_t0) * 1e3,
            plan_density=state.plan_density,
        ))
        if gamma == gamma_f:
            break
        gamma_next = min(q * gamma, gamma_f)
        z = np.concatenate([state.u, state.v])
        z_new = extrapolate(z, z_prev, gamma_next, gamma, gamma_prev)
        state.set_potentials(z_new[:problem.n], z_new[problem.n:])
        z_prev, gamma_prev, gamma = z, gamma, gamma_next

    dual_final = state.dual_value()
    with opcount.category("mirror_descent"):
        # f.r + g.c with f = u / gamma_f and g = -top / gamma_f, taken before
        # the plan is released and keeping no vector, so that nothing it
        # allocates is held beside the rounded plan and round_plan's vectors.
        top_c = float(log_plan_max(problem.C, gamma_f, state.u, 0) @ problem.c)
        lower = (float(state.u @ problem.r) - top_c) / gamma_f
        P = state.release_plan()
        round_plan(P, problem.r, problem.c, out=P)
        primal = plan_cost(P, problem.C)
    wall_ms = (time.monotonic() - t0) * 1e3

    ops_cat_end = opcount.snapshot()
    ops = {k: ops_cat_end.get(k, 0) - ops_cat_start.get(k, 0)
           for k in ops_cat_end
           if ops_cat_end.get(k, 0) != ops_cat_start.get(k, 0)}
    ops["total"] = sum(ops.values())

    bound = error_bound(gamma_f, problem.r, problem.c, entropy)
    report = RunReport(
        label=problem.label, n=problem.n, gamma_i=gamma_i, gamma_f=gamma_f,
        p=p, q_init=q_init, adaptive_q=opts.adaptive_q,
        adaptive_rho0=opts.adaptive_rho0, w_r=opts.w_r,
        solver=SOLVER_NAMES[opts.projector],
        primal_cost_rounded=primal,
        dual_value_final=dual_final,
        grad_norm_final=iterations[-1].stats.grad_norm_final,
        error_bound=bound,
        certified_gap=primal - lower,
        ops=ops, wall_ms=wall_ms, outer_iterations=len(iterations),
    )
    trace = [
        TraceRow(
            t=it.t, gamma=it.gamma, eps_d=it.eps_d,
            newton_steps=it.stats.newton_steps, cg_iters=it.stats.cg_iters,
            sinkhorn_steps=it.stats.sinkhorn_steps,
            linesearch_backtracks=it.stats.backtracks,
            grad_norm_l1=it.stats.grad_norm_final,
            rho_final=it.stats.rho_final, delta_min=it.stats.delta_min,
            q=it.q_next, ops_n2=it.ops_n2, wall_ms=it.wall_ms,
        )
        for it in iterations
    ]
    return Solution(P=P, primal_cost=primal, error_bound=bound, lower_bound=lower,
                    report=report, iterations=iterations, trace=trace, final_state=state)
