"""One benchmark process: set up a workload, then warm up, time and check solves.

Started by ``run.py``, which times set-up from process start to the
``READY`` line this process prints.  The last line of standard output is a
JSON object with the run's counts and metrics (``setup_s`` is added by
``run.py``).  With ``--trace 1`` the process first times rounds untraced,
then installs the span wrappers and times the same rounds again.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from otnewton.errors import OTNError  # noqa: E402

import workloads  # noqa: E402
from spans import SETUP, SETUP_LAYERS, SOLVE_LAYERS, Tracer  # noqa: E402

OUT_DIR = HERE / "out"
LP_MEMO = OUT_DIR / "lp-optima.json"
OPS_CATEGORIES = ("newton_solve", "line_search", "chi_sinkhorn", "mirror_descent", "sinkhorn")


def entropy_bound(r, c, gamma_f):
    """2 min(H(r), H(c)) / gamma_f, the rounded plan's suboptimality guarantee."""
    def h(p):
        p = p[p > 0.0]
        return float(-(p * np.log(p)).sum())
    return 2.0 * min(h(r), h(c)) / gamma_f


class Rounds:
    """Closed-loop timed solves in whole rounds over a workload's instances."""

    def __init__(self, wl, order):
        # Imported here, after READY: the checker's scipy.optimize import is
        # not part of what a user pays to set up.
        import check

        self.check = check
        self.wl = wl
        self.order = order
        self.next_id = 0
        # LP optima keyed by a digest of (C, r, c), kept between runs because
        # 300 LPs take ~7 s, a quarter of a batch run.
        self.lp = json.loads(LP_MEMO.read_text()) if LP_MEMO.is_file() else {}
        self.lp_new = False

    def lp_optimum(self, prob):
        key = hashlib.sha256(prob.C.tobytes() + prob.r.tobytes() + prob.c.tobytes()).hexdigest()
        if key not in self.lp:
            self.lp[key] = self.check.lp_optimum(prob.C, prob.r, prob.c)
            self.lp_new = True
        return self.lp[key]

    def save_lp(self):
        if self.lp_new:
            OUT_DIR.mkdir(exist_ok=True)
            LP_MEMO.write_text(json.dumps(self.lp))

    def verify(self, prob, sol):
        missed = self.check.check_plan(sol.P, prob.C, prob.r, prob.c, sol.primal_cost)
        bound = entropy_bound(prob.r, prob.c, self.wl.gamma_f)
        if self.wl.oracle == "lp":
            missed += self.check.check_lp_gap(sol.primal_cost, bound, self.lp_optimum(prob))
        else:
            lower = self.check.ctransform_lower_bound(prob.C, prob.r, prob.c,
                                                      sol.final_state.u, self.wl.gamma_f)
            missed += self.check.check_certificate(sol.primal_cost, bound, lower)
        return missed

    def run(self, seconds, tracer=None):
        """Solve whole rounds until the timed attempts add up to ``seconds``."""
        res = {"times": [], "attempt_s": 0.0, "attempted": 0, "errors": [],
               "missed": [], "ok_ids": [], "reports": {}, "by_label": {}}
        while res["attempt_s"] < seconds or res["attempted"] == 0:
            for idx in self.order:
                prob = self.wl.problems[idx]
                sid = self.next_id
                self.next_id += 1
                if tracer is not None:
                    tracer.solve_id = sid
                res["attempted"] += 1
                t0 = time.perf_counter()
                try:
                    sol = self.wl.solve(prob)
                except OTNError as exc:
                    res["attempt_s"] += time.perf_counter() - t0
                    res["errors"].append((prob.label, type(exc).__name__))
                    continue
                dt = time.perf_counter() - t0
                res["attempt_s"] += dt
                missed = self.verify(prob, sol)
                report = sol.report
                del sol  # free the plan and dual state before the next timed solve
                if missed:
                    res["missed"].append((prob.label, missed))
                    continue
                res["times"].append(dt)
                res["by_label"].setdefault(prob.label, []).append(dt)
                res["ok_ids"].append(sid)
                res["reports"][sid] = report
        return res


def warm_up(wl, rounds):
    """Untimed solve of the first instance that completes; returns its
    tracemalloc peak in bytes and the checks its output missed."""
    for prob in wl.problems:
        tracemalloc.start()
        try:
            sol = wl.solve(prob)
            peak = tracemalloc.get_traced_memory()[1]
        except OTNError as exc:
            print(f"# warm-up skipped {prob.label}: {type(exc).__name__}")
            continue
        finally:
            tracemalloc.stop()
        return peak, rounds.verify(prob, sol)
    raise RuntimeError("no instance of the workload completes")


def end_to_end(res, peak_bytes):
    """Every end-to-end metric but setup_s.  The p90 is a tail only on the
    batch workload; elsewhere a run has one or two solves and it reads as
    the slowest of them."""
    times = res["times"]
    return {"solve_s": (statistics.median(times), "s"),
            "solve_s_p90": (float(np.percentile(times, 90)), "s"),
            "solves_per_s": (len(times) / res["attempt_s"], "1/s"),
            "peak_mb": (peak_bytes / 2 ** 20, "MB")}


def per_layer(tracer, res, untraced_median, n):
    """Per-layer metrics, each a mean per completed traced solve, plus the
    layers' shares of mdot wall time."""
    ids = res["ok_ids"]
    k = len(ids)
    tot = tracer.totals(ids)

    def calls(name):
        return tot[name][0] / k

    def self_s(name):
        return tot[name][1] / k

    def ms_per_call(name):
        return 1e3 * tot[name][1] / tot[name][0] if tot[name][0] else 0.0

    def count(key):
        return tracer.count(key, ids) / k

    # One pass over the n-by-n float64 log kernel per call.
    lse_bytes = tot["kernels.log_plan_row_sums"][0] * n * n * 8
    lse_s = tot["kernels.log_plan_row_sums"][1]
    newton_steps = count("projector.project.newton_steps")
    trials = calls("dual.trial_log_col_sums")
    directions = calls("projector.newton_solve")
    reports = [res["reports"][sid] for sid in ids]

    m = {
        "newton.apply_F.calls": (calls("newton.apply_F"), "count"),
        "newton.apply_F.self_s": (self_s("newton.apply_F"), "s"),
        "newton.apply_F.ms_per_call": (ms_per_call("newton.apply_F"), "ms"),
        "newton.cg_iters": (count("newton.pcg_solve.iters"), "count"),
        "newton.pcg_solve.calls": (calls("newton.pcg_solve"), "count"),
        "newton.pcg_per_step": (calls("newton.pcg_solve") / directions if directions else 0.0, "ratio"),
        "newton.pcg_solve.self_s": (self_s("newton.pcg_solve"), "s"),
        "projector.project.self_s": (self_s("projector.project"), "s"),
        "driver.unattributed_s": (self_s("driver.mdot"), "s"),
        "kernels.log_plan_row_sums.calls": (calls("kernels.log_plan_row_sums"), "count"),
        "kernels.log_plan_row_sums.self_s": (self_s("kernels.log_plan_row_sums"), "s"),
        "kernels.log_plan_row_sums.ms_per_call": (ms_per_call("kernels.log_plan_row_sums"), "ms"),
        "kernels.log_plan_row_sums.gb_per_s_computed": (lse_bytes / lse_s / 1e9 if lse_s else 0.0, "GB/s"),
        "dual.refresh_rows_only.calls": (calls("dual.refresh_rows_only"), "count"),
        "dual.rebalance_columns.calls": (calls("dual.rebalance_columns"), "count"),
        "dual.trial_log_col_sums.calls": (trials, "count"),
        "dual.scale_rows_to_target.calls": (calls("dual.scale_rows_to_target"), "count"),
        "dual.scale_cols_to_target.calls": (calls("dual.scale_cols_to_target"), "count"),
        "kernels.materialize_plan.calls": (calls("kernels.materialize_plan"), "count"),
        "kernels.materialize_plan.self_s": (self_s("kernels.materialize_plan"), "s"),
        "kernels.square_matvec.self_s": (self_s("kernels.square_matvec"), "s"),
        "projector.newton_steps": (newton_steps, "count"),
        "projector.chi_sinkhorn.sweeps": (count("projector.chi_sinkhorn.sweeps"), "count"),
        "projector.chi_sinkhorn.self_s": (self_s("projector.chi_sinkhorn"), "s"),
        "projector.line_search.trials": (trials, "count"),
        "projector.line_search.accept_ratio": (newton_steps / trials if trials else 0.0, "ratio"),
        "driver.outer_iters": (statistics.fmean(r.outer_iterations for r in reports), "count"),
        "driver.round_plan.self_s": (self_s("driver.round_plan"), "s"),
        "oracles.sinkhorn_project.sweeps": (count("oracles.sinkhorn_project.sweeps"), "count"),
        "oracles.sinkhorn_project.self_s": (self_s("oracles.sinkhorn_project"), "s"),
        "ops.total": (statistics.fmean(r.ops["total"] for r in reports), "count"),
    }
    for cat in OPS_CATEGORIES:
        m[f"ops.{cat}"] = (statistics.fmean(r.ops.get(cat, 0) for r in reports), "count")
    setup = tracer.totals([SETUP])
    m["problems.grid_points_cost.s"] = (setup["problems.grid_points_cost"][1], "s")
    m["problems.gen_marginal.s"] = (setup["problems.gen_marginal"][1], "s")
    m["trace.overhead_s"] = (statistics.median(res["times"]) - untraced_median, "s")

    wall = sum(v[1] for v in tot.values())  # self times add up to mdot wall time
    shares = {key: round(v[1] / wall, 4) for key, v in sorted(tot.items(), key=lambda kv: -kv[1][1])}
    return m, shares


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(SETUP_LAYERS)
    wl = workloads.build(args.workload, toy=args.toy)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if tracer is not None:
        tracer.uninstall()

    rounds = Rounds(wl, workloads.solve_order(len(wl.problems), args.seed))
    peak, warm_missed = warm_up(wl, rounds)

    res = rounds.run(args.seconds)
    if tracer is not None:
        untraced_median = statistics.median(res["times"])
        tracer.install(SOLVE_LAYERS)
        try:
            traced = rounds.run(args.seconds, tracer)
        finally:
            tracer.uninstall()
        metrics, shares = per_layer(tracer, traced, untraced_median, wl.problems[0].n)
        for key in ("times", "errors", "missed"):
            res[key] = res[key] + traced[key]
        res["attempted"] += traced["attempted"]
        print("# layer shares of mdot wall time:", json.dumps(shares))
        print(f"# root span minus summed self times, worst solve: "
              f"{tracer.root_gap(traced['ok_ids']):.3g} s")
        if tracer.missing:
            print("# missing layers (reported as 0):", ", ".join(tracer.missing))
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write_csv(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv")
    else:
        metrics = end_to_end(res, peak)

    rounds.save_lp()
    errors = Counter(cls for _, cls in res["errors"])
    failed = sorted({f"{label} ({cls})" for label, cls in res["errors"]}
                    | {f"{label} (checks)" for label, _ in res["missed"]})
    print(f"# solves: {len(res['times'])} completed, {len(res['errors'])} raised "
          f"{dict(errors)}, {len(res['missed'])} failed checks")
    if len(res["by_label"]) <= 8:
        print("# median solve s per instance:", json.dumps(
            {k: round(statistics.median(v), 4) for k, v in sorted(res["by_label"].items())}))
    if failed:
        print("# failed instances:", ", ".join(failed))
    for label, missed in res["missed"] + ([("warm-up", warm_missed)] if warm_missed else []):
        print(f"# check missed on {label}: {', '.join(missed)}")
    out = {
        "correct": not res["missed"] and not warm_missed and all(
            math.isfinite(v) for v, _ in metrics.values()),
        "attempted": res["attempted"],
        "failed": len(res["errors"]) + len(res["missed"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
