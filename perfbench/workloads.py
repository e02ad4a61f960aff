"""The benchmark's workloads: fixed instance sets built with the public generators.

Every workload is a fixed list of instances plus the ``mdot`` settings used
on all of them.  The instance sets do not depend on the run's seed, because
solve time varies several-fold between seeded marginals (5 to 16 s for the
n = 1024 l2sq TN solve) and a per-seed instance would measure the instance,
not the program.  The seed only orders the timed solves (see ``solve_order``).

``toy=True`` shrinks every workload to a few tiny instances with the same
structure, for the benchmark's self-test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import otnewton as ot

NAMES = ("tn-l2sq-n1024", "tn-l1-n4096", "sinkhorn-l2sq-n1024", "tn-mixed-n64-batch")

# Instance k of the n = 1024 l2sq set uses gen_marginal seeds 2k (rows) and
# 2k + 1 (columns).  k = 1 and k = 3 are the first two whose TN and Sinkhorn
# solves each take under 15 s (k = 0: 16 s TN; k = 2: 16 s Sinkhorn).  The
# Sinkhorn workload solves only k = 1, to fit the run-time budget.
L2SQ_N1024_KS = (1, 3)
MIXED_COUNT = 300
# Random costs use seeds COST_SEED_BASE + i; marginals use 2i and 2i + 1.
COST_SEED_BASE = 100_000


@dataclass
class Workload:
    """Instances plus the settings every instance is solved with."""

    name: str
    problems: list
    gamma_i: float
    gamma_f: float
    opts: object = field(default_factory=ot.MdotOptions)
    # "lp": exact HiGHS optimum; "certificate": c-transform lower bound.
    oracle: str = "certificate"

    def solve(self, problem):
        return ot.mdot(problem, self.gamma_i, self.gamma_f, opts=self.opts)


def _smooth_pair(n, k):
    return (ot.gen_marginal(n, "smooth-random", 2 * k),
            ot.gen_marginal(n, "smooth-random", 2 * k + 1))


def _grid_set(n, metric, ks):
    C = ot.grid_points_cost(n, metric)
    out = []
    for k in ks:
        r, c = _smooth_pair(n, k)
        out.append(ot.Problem(C=C, r=r, c=c, label=f"{metric}-n{n}-k{k}"))
    return out


def _mixed_set(n, count):
    """Costs cycle L1 grid / l2sq grid / uniform random; marginals alternate
    smooth-random / spiky-random."""
    grids = (ot.grid_points_cost(n, "l1"), ot.grid_points_cost(n, "l2sq"))
    out = []
    for i in range(count):
        kind = i % 3
        if kind < 2:
            C = grids[kind]
            cost_name = ("l1", "l2sq")[kind]
        else:
            C = np.random.default_rng(COST_SEED_BASE + i).uniform(size=(n, n))
            C /= C.max()
            cost_name = "rand"
        marg = "smooth-random" if i % 2 == 0 else "spiky-random"
        r = ot.gen_marginal(n, marg, 2 * i)
        c = ot.gen_marginal(n, marg, 2 * i + 1)
        out.append(ot.Problem(C=C, r=r, c=c, label=f"mixed-{i}-{cost_name}-{marg}"))
    return out


def build(name, toy=False):
    """Generate the workload's instances (this is the benchmark's set-up work)."""
    if name == "tn-l2sq-n1024":
        probs = _grid_set(16 if toy else 1024, "l2sq", L2SQ_N1024_KS)
        return Workload(name, probs, 2.0 ** 5, 2.0 ** (10 if toy else 18))
    if name == "sinkhorn-l2sq-n1024":
        probs = _grid_set(16 if toy else 1024, "l2sq", L2SQ_N1024_KS[:1])
        return Workload(name, probs, 2.0 ** 5, 2.0 ** (8 if toy else 11),
                        opts=ot.MdotOptions(projector="sinkhorn"))
    if name == "tn-l1-n4096":
        probs = _grid_set(16 if toy else 4096, "l1", (0,))
        return Workload(name, probs, 2.0 ** 5, 2.0 ** (8 if toy else 10))
    if name == "tn-mixed-n64-batch":
        probs = _mixed_set(16, 6) if toy else _mixed_set(64, MIXED_COUNT)
        return Workload(name, probs, 2.0 ** 5, 2.0 ** (10 if toy else 18), oracle="lp")
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def solve_order(count, seed):
    """Seeded order of one round of timed solves over all instances."""
    return [int(i) for i in np.random.default_rng(seed).permutation(count)]
