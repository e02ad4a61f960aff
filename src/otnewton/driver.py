"""Outer temperature-annealing loop: schedule, smoothing, rounding, reporting.

The driver solves a sequence of Bregman projections at geometrically
increasing ``gamma``, warm-starting each from a first-order extrapolation of
the previous two dual iterates.  The final plan is rounded onto the exact
polytope of the *original* marginals, which yields the standard guarantee
``<P - P*, C> <= 2 min(H(r), H(c)) / gamma_f`` for the rounded cost.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import opcount, oracles
from .core import shannon_entropy
from .dual import DualState
from .errors import DegenerateInputError, DomainError, OTNError
from .newton import next_rho0
from .problems import TraceRow
from .projector import ProjStats, project

DEFAULT_W_R = 0.45
DEFAULT_W_C = 0.05
Q_GROW_THRESHOLD = 0.95
Q_SHRINK_THRESHOLD = 0.8
Q_MAX = 2.0
# Floor for the decay rate: repeated square roots would otherwise collapse q
# to 1.0 in floating point and freeze the temperature schedule.
Q_MIN = 2.0 ** (1.0 / 16.0)


@dataclass
class ScheduleState:
    """Annealing bookkeeping carried between outer iterations."""

    t: int
    gamma_prev: float
    gamma: float
    q: float
    p: float
    z_prev: np.ndarray | None
    z: np.ndarray | None


@dataclass
class MdotOptions:
    """Driver configuration; defaults reproduce the benchmarked setup."""

    w_r: float = DEFAULT_W_R
    w_c: float = DEFAULT_W_C
    adaptive_q: bool = True
    adaptive_rho0: bool = True
    projector: str = "newton"  # "newton" or "sinkhorn"


@dataclass
class OuterIteration:
    """One annealing step: the temperature, tolerance, and projection stats."""

    t: int
    gamma: float
    eps_d: float
    q_next: float
    stats: ProjStats
    ops_n2: int
    wall_ms: float


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
    w_r: float
    solver: str
    primal_cost_rounded: float
    dual_value_final: float
    grad_norm_final: float
    error_bound: float
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
    """Feasible rounded plan plus cost, guarantee, and run telemetry."""

    P: np.ndarray
    primal_cost: float
    error_bound: float
    report: RunReport
    iterations: list[OuterIteration] = field(default_factory=list)
    trace: list[TraceRow] = field(default_factory=list)
    final_state: DualState | None = None


def eps_rule(gamma, p, r, c):
    """Gradient-norm tolerance min(H(r), H(c)) / gamma^p for this temperature."""
    if gamma <= 0.0:
        raise DomainError("gamma must be positive")
    return min(shannon_entropy(r), shannon_entropy(c)) / gamma ** p


def smooth_marginals(r, c, eps_d, w_r=DEFAULT_W_R, w_c=DEFAULT_W_C):
    """Mix the marginals toward uniform, spending the stability budget asymmetrically.

    The row marginal receives most of the budget because the row system's
    diagonal preconditioning is the stability-critical path, while column
    sums are restored by exact log-domain scalings.
    """
    if not (w_r > w_c > 0.0):
        raise DomainError(f"need w_r > w_c > 0, got {w_r}, {w_c}")
    if abs((w_r + w_c) - 0.5) > 1e-12:
        raise DomainError(f"weights must satisfy w_r + w_c = 1/2, got {w_r + w_c}")
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


def round_plan(P, r, c):
    """Round a near-feasible nonnegative plan onto the exact polytope.

    Scales rows then columns down toward their targets and repairs the
    remaining (nonnegative) deficit with a rank-one correction; the output
    has row sums r and column sums c exactly up to roundoff.
    """
    P = np.asarray(P, dtype=np.float64)
    if P.min() < 0.0:
        raise DomainError("round_plan needs a nonnegative plan")
    total = P.sum()
    if not total > 0.0:
        raise DegenerateInputError("round_plan needs positive total mass")
    opcount.add(2)
    rP = P.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        row_scale = np.where(rP > 0.0, np.minimum(1.0, r / rP), 1.0)
    P = P * row_scale[:, None]
    opcount.add(2)
    cP = P.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        col_scale = np.where(cP > 0.0, np.minimum(1.0, c / cP), 1.0)
    P = P * col_scale[None, :]
    opcount.add(1)
    # The deficits are nonnegative in exact arithmetic; clamp the roundoff
    # below zero so the rank-one repair cannot make an entry negative.
    err_r = np.maximum(r - P.sum(axis=1), 0.0)
    err_c = np.maximum(c - P.sum(axis=0), 0.0)
    deficit = err_r.sum()
    if deficit > 0.0:
        opcount.add(1)
        P = P + np.outer(err_r, err_c) / deficit
    return P


def error_bound(gamma_f, r, c):
    """Worst-case suboptimality of the rounded plan at final temperature."""
    if gamma_f <= 0.0:
        raise DomainError("gamma_f must be positive")
    return 2.0 * min(shannon_entropy(r), shannon_entropy(c)) / gamma_f


def mdot(problem, gamma_i, gamma_f, p=1.5, q_init=2.0, opts=None):
    """Anneal the temperature from gamma_i to gamma_f and return a rounded plan.

    Runs the outer mirror-descent loop: per iteration, pick the gradient
    tolerance for the current gamma, smooth the marginals, project to half
    the tolerance on the smoothed marginals, adapt the decay rate from the
    projection's worst reduction ratio, decay the temperature, and
    extrapolate the duals.  Wall time covers solve plus rounding, no I/O.
    """
    if gamma_i <= 0.0 or gamma_f <= 0.0:
        raise DomainError("gamma_i and gamma_f must be positive")
    if p < 1.0:
        raise DomainError(f"p must be >= 1, got {p}")
    if q_init <= 1.0:
        raise DomainError(f"q_init must exceed 1, got {q_init}")
    opts = opts or MdotOptions()
    if opts.projector not in ("newton", "sinkhorn"):
        raise DomainError(f"unknown projector {opts.projector!r}")

    t0 = time.monotonic()
    ops_start = opcount.total()
    ops_cat_start = opcount.snapshot()

    sched = ScheduleState(t=1, gamma_prev=0.0, gamma=min(gamma_i, gamma_f),
                          q=float(q_init), p=float(p), z_prev=None, z=None)
    state = None
    rho_next = 0.0
    iterations = []

    while True:
        t, gamma = sched.t, sched.gamma
        done = gamma == gamma_f
        it_t0 = time.monotonic()
        it_ops0 = opcount.total()
        eps_d = eps_rule(gamma, p, problem.r, problem.c)
        if eps_d >= 1.0:
            raise DomainError(
                f"tolerance {eps_d:.3g} >= 1 at gamma={gamma}; raise gamma_i")
        r_s, c_s = smooth_marginals(problem.r, problem.c, eps_d, opts.w_r, opts.w_c)
        if t == 1:
            state = DualState(problem, gamma, u=np.log(r_s), v=np.log(c_s), r=r_s, c=c_s)
            sched.z_prev = state.z
        else:
            state.set_gamma(gamma)

        try:
            if opts.projector == "newton":
                stats = project(state, r_s, c_s, eps_d / 2.0, rho0=rho_next,
                                adaptive_rho0=opts.adaptive_rho0)
                rho_next = next_rho0(stats.rho_final) if opts.adaptive_rho0 else 0.0
            else:
                # Looked up in oracles at call time, so that a wrapper installed
                # there (perfbench/spans.py) sees the call.
                _, steps = oracles.sinkhorn_project(state, r_s, c_s, eps_d / 2.0)
                stats = ProjStats(sinkhorn_steps=steps,
                                  grad_norm_final=state.grad_norm_l1())
        except OTNError as exc:
            diag = getattr(exc, "diagnostics", None)
            if diag is not None:
                diag["outer_iteration"] = t
                diag["gamma"] = gamma
            raise

        if opts.adaptive_q:
            sched.q = adjust_schedule(sched.q, stats.delta_min)
        gamma_next = min(sched.q * gamma, gamma_f)
        sched.z = state.z
        z_new = extrapolate(sched.z, sched.z_prev, gamma_next, gamma, sched.gamma_prev)

        iterations.append(OuterIteration(
            t=t, gamma=gamma, eps_d=eps_d, q_next=sched.q, stats=stats,
            ops_n2=opcount.total() - it_ops0,
            wall_ms=(time.monotonic() - it_t0) * 1e3,
        ))
        if done:
            break
        sched.z_prev = sched.z
        sched.gamma_prev = gamma
        sched.gamma = gamma_next
        state.set_z(z_new)
        sched.t += 1

    with opcount.category("mirror_descent"):
        P = state.materialize_plan()
        P = round_plan(P, problem.r, problem.c)
        opcount.add(1)
        primal = float(np.vdot(P, problem.C))
    wall_ms = (time.monotonic() - t0) * 1e3

    ops_cat_end = opcount.snapshot()
    ops = {k: ops_cat_end.get(k, 0) - ops_cat_start.get(k, 0)
           for k in ops_cat_end
           if ops_cat_end.get(k, 0) != ops_cat_start.get(k, 0)}
    ops["total"] = opcount.total() - ops_start

    bound = error_bound(gamma_f, problem.r, problem.c)
    report = RunReport(
        label=problem.label, n=problem.n, gamma_i=gamma_i, gamma_f=gamma_f,
        p=p, q_init=q_init, adaptive_q=opts.adaptive_q, w_r=opts.w_r,
        solver="mdot-tn" if opts.projector == "newton" else "mdot-sinkhorn",
        primal_cost_rounded=primal,
        dual_value_final=state.dual_value(),
        grad_norm_final=iterations[-1].stats.grad_norm_final,
        error_bound=bound,
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
    return Solution(P=P, primal_cost=primal, error_bound=bound, report=report,
                    iterations=iterations, trace=trace, final_state=state)
