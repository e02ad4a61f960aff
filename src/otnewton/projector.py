"""Bregman projection onto the transportation polytope.

Column sums are kept exactly on target throughout by
``DualState.rebalance_columns``: at the entry, in every chi-square sweep and
after every accepted step.  Each iteration first runs chi-square Sinkhorn
sweeps until the row mismatch is well conditioned, then takes one truncated
Newton step with backtracking line search.  The search accepts a step by
testing the increase of total plan mass over its value at step size 0
against the linearized decrease, which is equivalent to the textbook Armijo
condition on the dual objective when the column sums match their target.
Both masses come from one evaluation path (see ``dual``), so the rounding
noise they share cancels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import opcount
from .core import chi_sq_div
from .errors import DomainError, LineSearchError, NonconvergenceError
from .newton import ETA_MAX, DiscountedSystem, newton_solve, next_rho0

# Armijo slope fraction c1; the mass-form test uses 1 - c1.
ARMIJO_C1 = 0.01
# Below this linearized decrease, the plan-mass excess is smaller than its
# own float64 evaluation noise, so backtracking would only bisect noise; the
# full step is taken instead.
ARMIJO_SLOPE_FLOOR = 1e-13
# Exponent of the chi-square tolerance: eps_chi = eps_d ** CHI_EXPONENT.
CHI_EXPONENT = 0.4
MIN_ALPHA = 2.0 ** -30


@dataclass
class StepRecord:
    """Telemetry for one Newton step of a projection."""

    eta: float
    grad_before: float
    grad_after: float
    alpha: float
    delta: float
    rho_final: float
    cg_iters: int
    backtracks: int
    eta_terminal_branch: bool
    exited_after: bool = False
    # The direction met only the relaxed forcing test (``NewtonResult.relaxed``).
    relaxed: bool = False


@dataclass
class ProjStats:
    """Aggregate telemetry of one projection.

    ``delta_min`` drives the annealing schedule and excludes a terminal step
    whose forcing parameter came from the target-tolerance branch (such a
    step deliberately over-solves, so its reduction ratio is off-model).  It
    is ``+inf`` when no Newton step ran.  ``newton_steps``, ``cg_iters`` and
    ``backtracks`` are read off the step records.
    """

    sinkhorn_steps: int = 0
    delta_min: float = math.inf
    grad_norm_final: float = math.nan
    rho_final: float = 0.0
    steps: list[StepRecord] = field(default_factory=list)

    @property
    def newton_steps(self):
        return len(self.steps)

    @property
    def cg_iters(self):
        return sum(s.cg_iters for s in self.steps)

    @property
    def backtracks(self):
        return sum(s.backtracks for s in self.steps)


def eta_rule(grad_norm_l1, eps_d):
    """Forcing parameter, and whether its target-tolerance branch was active.

    Aims for quadratic contraction without over-solving."""
    if not grad_norm_l1 > 0.0:
        raise DomainError("eta_rule needs a positive gradient norm")
    if not 0.0 < eps_d < grad_norm_l1:
        raise DomainError(f"eta_rule needs 0 < eps_d < grad_norm, got {eps_d}, {grad_norm_l1}")
    terminal = 0.8 * eps_d / grad_norm_l1
    return min(max(grad_norm_l1, terminal), ETA_MAX), terminal > grad_norm_l1


def armijo_accept(alpha, mass_at_alpha, slope):
    """Mass-form Armijo test: accept iff mass excess <= (1-c1) * alpha * slope,
    or the slope ``<-grad_u, d_u>`` is at most ``ARMIJO_SLOPE_FLOOR``."""
    if slope <= 0.0:
        raise DomainError(f"not a descent direction: <-grad, d> = {slope:.3g}")
    return (slope <= ARMIJO_SLOPE_FLOOR
            or mass_at_alpha - 1.0 <= (1.0 - ARMIJO_C1) * alpha * slope)


def delta_ratio(grad_k, grad_k1, eta_k):
    """Actual over predicted reduction of the gradient norm for one step."""
    if not grad_k > 0.0:
        raise DomainError("delta_ratio needs a positive starting gradient norm")
    if not eta_k < 1.0:
        raise DomainError("delta_ratio needs eta < 1")
    return (grad_k - grad_k1) / ((1.0 - eta_k) * grad_k)


def _mass(log_cols):
    """Total plan mass from log column sums; a wild trial overflows to inf
    and is rejected by the line search rather than raising."""
    with np.errstate(over="ignore"):
        return float(np.exp(log_cols).sum())


def chi_sinkhorn(state, eps_chi, budget=10 ** 6):
    """Row-scale / column-rebalance sweeps until chi^2(r | r(P)) <= eps_chi,
    r the state's row target.

    Expects column sums already on target; every sweep restores them exactly,
    so the column half of the gradient stays zero throughout.  Returns the
    number of sweeps taken.
    """
    steps = 0
    with opcount.category("chi_sinkhorn"):
        while (chi_sq := chi_sq_div(state.r, state.row_sums())) > eps_chi:
            if steps >= budget:
                raise NonconvergenceError(
                    f"chi-square balancing still above {eps_chi:.3g} after {budget} sweeps",
                    diagnostics={"chi_sq": chi_sq},
                )
            state.sinkhorn_sweep()
            steps += 1
    return steps


def _row_gradient(state, r):
    """The row half of the gradient, r(P) - r, and its L1 norm."""
    grad_u = state.row_sums() - r
    return grad_u, float(np.abs(grad_u).sum())


def project(state, r, c, eps_d, rho0=0.0, adaptive_rho0=True, newton_step_budget=200):
    """Project the dual state onto marginals (r, c) to gradient tolerance eps_d.

    Implements the truncated Newton projection loop: entry column rebalance;
    then, while the row mismatch exceeds ``eps_d``, chi-square balancing to
    ``eps_d ** 0.4``, an annealed discounted Newton direction, backtracking
    from step size 1, and an exact column rebalance.  The loop's head holds
    its one exit test; a chi-square phase that swept, or the fallback sweep
    after a non-descent direction, re-enters it, and after a phase that swept
    the Newton step follows with no second chi-square test.  The row
    gradient and its norm are formed once per state (at the entry, after a
    phase that swept, after the fallback sweep and after an accepted step)
    and serve the exit test, the Newton system's right-hand side and the
    slope.  A final exact row step zeroes the row half of the gradient on
    exit.  ``adaptive_rho0`` warm starts each discount from ``rho0``, then
    from the previous solve's; without it ``rho0`` is ignored.  The state is
    updated in place; returns :class:`ProjStats`.
    """
    if not 0.0 < eps_d < 1.0:
        raise DomainError(f"eps_d must be in (0, 1), got {eps_d}")
    if np.min(r) <= 0.0 or np.min(c) <= 0.0:
        raise DomainError("project requires strictly positive marginals")
    state.set_targets(r, c)
    stats = ProjStats()
    eps_chi = eps_d ** CHI_EXPONENT
    rho_next = rho0 if adaptive_rho0 else 0.0
    with opcount.category("mirror_descent"):
        state.rebalance_columns()

    grad_u, grad_norm = _row_gradient(state, r)
    balanced = False
    while not grad_norm <= eps_d:  # a NaN norm does not exit
        if stats.newton_steps >= newton_step_budget:
            raise NonconvergenceError(
                f"projection still at gradient norm {grad_norm:.3g} > {eps_d:.3g} "
                f"after {stats.newton_steps} Newton steps",
                diagnostics={"gamma": state.gamma, "eps_d": eps_d,
                             "grad_norm": grad_norm,
                             "newton_steps": stats.newton_steps,
                             "cg_iters": stats.cg_iters,
                             "sinkhorn_steps": stats.sinkhorn_steps,
                             "backtracks": stats.backtracks},
            )

        # After a chi-square phase that swept, the next pass goes straight to
        # the Newton step: the phase's test would pass again at that state.
        sweeps = 0 if balanced else chi_sinkhorn(state, eps_chi)
        balanced = sweeps > 0
        if balanced:
            stats.sinkhorn_steps += sweeps
            grad_u, grad_norm = _row_gradient(state, r)
            continue

        eta, terminal_branch = eta_rule(grad_norm, eps_d)
        with opcount.category("newton_solve"):
            result = newton_solve(grad_u, DiscountedSystem.from_state(state), eta,
                                  rho0=rho_next)
            d_u, d_v = result.d_u, result.d_v
        stats.rho_final = result.rho_final
        rho_next = next_rho0(result.rho_final) if adaptive_rho0 else 0.0

        slope = float(-(grad_u @ d_u))
        if slope <= 0.0:
            # Numerically non-descent direction: fall back to one
            # chi-square sweep and re-enter the loop.  Never hit in practice.
            with opcount.category("chi_sinkhorn"):
                state.sinkhorn_sweep()
            stats.sinkhorn_steps += 1
            grad_u, grad_norm = _row_gradient(state, r)
            continue

        # The mass increment over alpha = 0 is measured on one evaluation
        # path, so the rounding noise the two masses share cancels.
        alpha = 1.0
        with opcount.category("newton_solve"):
            mass0 = _mass(state.base_log_col_sums(d_u, d_v))
            trial_cols = state.trial_log_col_sums(d_u, d_v, alpha)
        backtracks = 0
        while not armijo_accept(alpha, 1.0 + _mass(trial_cols) - mass0, slope):
            alpha *= 0.5
            if alpha < MIN_ALPHA:
                raise LineSearchError(
                    f"backtracking fell below alpha = {MIN_ALPHA:.3g}",
                    diagnostics={"gamma": state.gamma, "grad_norm": grad_norm,
                                 "slope": slope, "eta": eta},
                )
            with opcount.category("line_search"):
                trial_cols = state.trial_log_col_sums(d_u, d_v, alpha)
            backtracks += 1

        # Apply the accepted step and restore the column sums exactly from
        # the accepted trial's.
        with opcount.category("newton_solve"):
            state.rebalance_columns(state.u + alpha * d_u, state.v + alpha * d_v, trial_cols)

        grad_before = grad_norm
        grad_u, grad_norm = _row_gradient(state, r)
        stats.steps.append(StepRecord(
            eta=eta, grad_before=grad_before, grad_after=grad_norm, alpha=alpha,
            delta=delta_ratio(grad_before, grad_norm, eta), rho_final=result.rho_final,
            cg_iters=result.cg_iters, backtracks=backtracks,
            eta_terminal_branch=terminal_branch, relaxed=result.relaxed,
        ))

    with opcount.category("mirror_descent"):
        state.scale_rows_to_target()
    stats.grad_norm_final = state.grad_norm_l1()
    if stats.steps:
        stats.steps[-1].exited_after = True
        counted = [s.delta for s in stats.steps
                   if not (s.eta_terminal_branch and s.exited_after)]
        stats.delta_min = min(counted) if counted else math.inf
    return stats
