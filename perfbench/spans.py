"""Spans around the library's layer functions, installed from outside the library.

Each wrapped function is replaced where its callers look it up (a module
attribute or a class attribute), so no library code changes.  A span records
the solve it belongs to, its nesting depth, start, end and self time (its
duration minus the time its child spans cover).  Spans stay in memory until
``write_csv`` is called at the end of the run.
"""

from __future__ import annotations

import csv
import functools
import importlib
import time
from collections import defaultdict

# (span name, module, attribute path, return-value counter or None).
# A counter maps the function's return value to a count added under
# ``<span name>.<counter name>``.
SETUP_LAYERS = (
    ("problems.grid_points_cost", "otnewton", "grid_points_cost", None),
    ("problems.gen_marginal", "otnewton", "gen_marginal", None),
)
SOLVE_LAYERS = (
    ("driver.mdot", "otnewton", "mdot", None),
    ("projector.project", "otnewton.driver", "project",
     ("newton_steps", lambda stats: stats.newton_steps)),
    ("driver.round_plan", "otnewton.driver", "round_plan", None),
    ("oracles.sinkhorn_project", "otnewton.oracles", "sinkhorn_project",
     ("sweeps", lambda res: res[1])),
    ("projector.chi_sinkhorn", "otnewton.projector", "chi_sinkhorn",
     ("sweeps", lambda steps: steps)),
    ("projector.newton_solve", "otnewton.projector", "newton_solve", None),
    ("newton.pcg_solve", "otnewton.newton", "pcg_solve",
     ("iters", lambda res: res[1])),
    ("newton.apply_F", "otnewton.newton", "DiscountedSystem.apply_F", None),
    ("newton.apply_pc", "otnewton.newton", "DiscountedSystem.apply_pc", None),
    ("kernels.square_matvec", "otnewton.newton", "square_matvec", None),
    ("dual.refresh", "otnewton.dual", "DualState.refresh", None),
    ("dual.refresh_rows_only", "otnewton.dual", "DualState.refresh_rows_only", None),
    ("dual.rebalance_columns", "otnewton.dual", "DualState.rebalance_columns", None),
    ("dual.trial_log_col_sums", "otnewton.dual", "DualState.trial_log_col_sums", None),
    ("dual.scale_rows_to_target", "otnewton.dual", "DualState.scale_rows_to_target", None),
    ("dual.scale_cols_to_target", "otnewton.dual", "DualState.scale_cols_to_target", None),
    ("kernels.log_plan_row_sums", "otnewton.dual", "log_plan_row_sums", None),
    ("kernels.materialize_plan", "otnewton.dual", "materialize_plan", None),
)

SETUP = -1  # solve id of spans recorded while instances are generated


class Tracer:
    """Installs span wrappers and aggregates their spans per solve."""

    def __init__(self):
        self.solve_id = SETUP
        self.spans = []  # (solve_id, name, depth, start, end, self_s)
        self.counts = defaultdict(float)  # (solve_id, "<span>.<counter>") -> count
        self.missing = []
        self._stack = []
        self._installed = []

    def install(self, layers):
        for name, module, path, counter in layers:
            try:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for p in parents:
                    owner = getattr(owner, p)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(name)
                continue
            self._installed.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, self._wrap(name, original, counter))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, counter):
        stack = self._stack
        spans = self.spans
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                child = stack.pop()
                if stack:
                    stack[-1] += t1 - t0
                spans.append((self.solve_id, name, len(stack), t0, t1, t1 - t0 - child))
            if counter is not None:
                counts[(self.solve_id, f"{name}.{counter[0]}")] += counter[1](result)
            return result

        return span

    def totals(self, solve_ids):
        """Per span name: (calls, self seconds) summed over the given solves."""
        keep = set(solve_ids)
        out = defaultdict(lambda: [0, 0.0])
        for sid, name, _, _, _, self_s in self.spans:
            if sid in keep:
                agg = out[name]
                agg[0] += 1
                agg[1] += self_s
        return out

    def count(self, key, solve_ids):
        return sum(self.counts.get((sid, key), 0.0) for sid in solve_ids)

    def root_gap(self, solve_ids):
        """Largest |root span duration - sum of self times| over the solves."""
        keep = set(solve_ids)
        roots, selfs = defaultdict(float), defaultdict(float)
        for sid, _, depth, t0, t1, self_s in self.spans:
            if sid in keep:
                selfs[sid] += self_s
                if depth == 0:
                    roots[sid] += t1 - t0
        return max((abs(roots[s] - selfs[s]) for s in keep), default=0.0)

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["solve", "span", "depth", "start_s", "end_s", "self_s"])
            w.writerows(self.spans)
