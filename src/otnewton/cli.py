"""Command-line entry point: problem generation, single solves, benchmark sweeps.

Exit codes: 0 success, 2 usage error (argparse), 3 I/O error, 4 solver error
(with a diagnostic JSON object printed to stdout).  ``OTN_DETERMINISTIC=1``
forces fixed-order reductions so repeated runs are bit-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import opcount
from .driver import MdotOptions, mdot
from .errors import OTNError, ParseError
from .oracles import EXACT_MAX_N, exact_ot_small
from .problems import Problem, gen_grid_cost, gen_marginal, load_problem, save_problem, write_trace

EXIT_OK = 0
EXIT_IO = 3
EXIT_SOLVER = 4

# Column marginals draw from an offset seed stream so r and c differ.
COL_SEED_OFFSET = 1

REFERENCE_GAMMA_FACTOR = 16.0


@dataclass
class BenchSetting:
    """One solver configuration of a sweep; defaults are the benchmarked setup."""

    name: str
    solver: str = "mdot-tn"
    gamma_i: float = 2.0 ** 5
    gamma_f: float = 2.0 ** 18
    p: float = 1.5
    q_init: float = 2.0
    adaptive_q: bool = True
    adaptive_rho0: bool = True
    w_r: float = 0.45


@dataclass
class BenchConfig:
    """Benchmark axes: problems x settings, repeated over seeds."""

    problems: list = field(default_factory=list)
    settings: list = field(default_factory=list)
    seeds: list = field(default_factory=lambda: [0])
    repeats: int = 1
    output_dir: str = "bench_out"
    jobs: int = 1

    @classmethod
    def from_dict(cls, data):
        settings = [BenchSetting(**s) for s in data.pop("settings", [])]
        if not settings:
            keys = ("solver", "gamma_i", "gamma_f", "p", "q_init", "adaptive_q",
                    "adaptive_rho0", "w_r")
            settings = [BenchSetting(name="default",
                                     **{k: data.pop(k) for k in keys if k in data})]
        known = {f: data[f] for f in ("problems", "seeds", "repeats", "output_dir", "jobs")
                 if f in data}
        cfg = cls(settings=settings, **known)
        return cfg

    def to_dict(self):
        d = asdict(self)
        return d


def _mdot_options(solver, adaptive_q, adaptive_rho0, w_r):
    return MdotOptions(
        w_r=w_r,
        adaptive_q=adaptive_q, adaptive_rho0=adaptive_rho0,
        projector="newton" if solver == "mdot-tn" else "sinkhorn",
    )


def _gen_problem(kind, metric, side, marginal, seed, label=None):
    if kind != "grid":
        raise ParseError(f"unknown generator kind {kind!r}")
    C = gen_grid_cost(side, metric)
    n = side * side
    r = gen_marginal(n, marginal, seed)
    c = gen_marginal(n, marginal, seed + COL_SEED_OFFSET)
    if label is None:
        label = f"grid-{metric}-s{side}-{marginal}-seed{seed}"
    return Problem(C=C, r=r, c=c, label=label)


def cmd_gen(args):
    problem = _gen_problem(args.kind, args.metric, args.side, args.marginal,
                           args.seed, args.label)
    save_problem(problem, args.out)
    print(f"wrote {args.out}: n={problem.n} label={problem.label}")
    return EXIT_OK


def cmd_solve(args):
    try:
        problem = load_problem(args.problem)
    except FileNotFoundError:
        print(f"error: problem file not found: {args.problem}", file=sys.stderr)
        return EXIT_IO
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    opts = _mdot_options(args.solver, args.adaptive_q, args.adaptive_rho0, args.w_r)
    opcount.reset()
    try:
        sol = mdot(problem, args.gamma_init, args.gamma_final, p=args.p,
                   q_init=args.q_init, opts=opts)
    except OTNError as exc:
        diag = {"error": type(exc).__name__, "message": str(exc),
                "diagnostics": exc.diagnostics}
        print(json.dumps(diag, default=str))
        return EXIT_SOLVER
    if args.report:
        Path(args.report).write_text(sol.report.to_json() + "\n")
    if args.trace:
        write_trace(sol.trace, args.trace)
    print(sol.report.to_json())
    return EXIT_OK


def _bench_problem(spec, index):
    if isinstance(spec, str) or "path" in spec:
        path = spec if isinstance(spec, str) else spec["path"]
        return load_problem(path)
    return _gen_problem(spec.get("kind", "grid"), spec.get("metric", "l1"),
                        spec["side"], spec.get("marginal", "smooth-random"),
                        spec.get("seed", index))


def _run_one(task):
    """One (problem, setting, seed, repeat) cell; runs in a worker process."""
    spec, setting, seed, repeat, out_dir = task
    setting = BenchSetting(**setting)
    problem = _bench_problem(spec, seed)
    opts = _mdot_options(setting.solver, setting.adaptive_q,
                         setting.adaptive_rho0, setting.w_r)
    opcount.reset()
    run_id = f"{setting.name}__{problem.label}__seed{seed}__rep{repeat}"
    try:
        sol = mdot(problem, setting.gamma_i, setting.gamma_f, p=setting.p,
                   q_init=setting.q_init, opts=opts)
    except OTNError as exc:
        return {"run_id": run_id, "setting": setting.name, "label": problem.label,
                "ok": False, "error": f"{type(exc).__name__}: {exc}"}
    out = Path(out_dir)
    Path(out / f"{run_id}.json").write_text(sol.report.to_json() + "\n")
    write_trace(sol.trace, out / f"{run_id}.csv")

    gap, gap_basis = _optimality_gap(problem, setting, sol.primal_cost)
    return {"run_id": run_id, "setting": setting.name, "label": problem.label,
            "ok": True, "wall_ms": sol.report.wall_ms,
            "ops_total": sol.report.ops.get("total", 0),
            "ops": sol.report.ops, "primal_cost": sol.primal_cost,
            "gap": gap, "gap_basis": gap_basis}


def _optimality_gap(problem, setting, primal_cost):
    if problem.n <= EXACT_MAX_N:
        exact = exact_ot_small(problem.C, problem.r, problem.c)
        return primal_cost - exact.cost, "exact"
    ref_opts = _mdot_options("mdot-tn", True, True, 0.45)
    ref = mdot(problem, setting.gamma_i,
               setting.gamma_f * REFERENCE_GAMMA_FACTOR, p=setting.p,
               q_init=2.0, opts=ref_opts)
    return primal_cost - ref.primal_cost, "reference"


def _percentiles(values):
    values = sorted(values)
    if not values:
        return math.nan, math.nan, math.nan
    arr = np.array(values)
    return (float(np.percentile(arr, 50)), float(np.percentile(arr, 10)),
            float(np.percentile(arr, 90)))


def cmd_bench(args):
    try:
        cfg_data = json.loads(Path(args.config).read_text())
    except FileNotFoundError:
        print(f"error: config not found: {args.config}", file=sys.stderr)
        return EXIT_IO
    cfg = BenchConfig.from_dict(cfg_data)
    if args.output_dir:
        cfg.output_dir = args.output_dir
    if args.jobs:
        cfg.jobs = args.jobs
    if args.seeds is not None:
        cfg.seeds = [int(s) for s in args.seeds.split(",")]
    if args.repeats is not None:
        cfg.repeats = args.repeats
    # solver-setting flags apply across every setting of the sweep
    for flag in ("solver", "gamma_i", "gamma_f", "p", "q_init", "adaptive_q", "w_r"):
        value = getattr(args, flag)
        if value is not None:
            for setting in cfg.settings:
                setattr(setting, flag, value)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    tasks = []
    for spec in cfg.problems:
        for setting in cfg.settings:
            for seed in cfg.seeds:
                for rep in range(cfg.repeats):
                    tasks.append((spec, asdict(setting), seed, rep, str(out)))
    t0 = time.monotonic()
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            results = list(pool.map(_run_one, tasks))
    else:
        results = [_run_one(t) for t in tasks]

    subroutines = ["newton_solve", "line_search", "chi_sinkhorn",
                   "mirror_descent", "sinkhorn"]
    rows = ["setting,label,runs,failures,wall_ms_med,wall_ms_p10,wall_ms_p90,"
            "ops_med,ops_p10,ops_p90,"
            + ",".join(f"ops_{s}_med" for s in subroutines)
            + ",gap_med,gap_p10,gap_p90,gap_basis"]
    groups: dict = {}
    for res in results:
        groups.setdefault((res["setting"], res["label"]), []).append(res)
    for (setting, label), runs in sorted(groups.items()):
        ok = [r for r in runs if r["ok"]]
        fails = len(runs) - len(ok)
        wall = _percentiles([r["wall_ms"] for r in ok])
        ops = _percentiles([r["ops_total"] for r in ok])
        per_sub = ",".join(
            f"{_percentiles([r['ops'].get(s, 0) for r in ok])[0]:.1f}"
            for s in subroutines)
        gaps = _percentiles([r["gap"] for r in ok])
        basis = ok[0]["gap_basis"] if ok else ""
        rows.append(f"{setting},{label},{len(runs)},{fails},"
                    f"{wall[0]:.3f},{wall[1]:.3f},{wall[2]:.3f},"
                    f"{ops[0]:.1f},{ops[1]:.1f},{ops[2]:.1f},{per_sub},"
                    f"{gaps[0]:.3e},{gaps[1]:.3e},{gaps[2]:.3e},{basis}")
    summary = out / "summary.csv"
    summary.write_text("\n".join(rows) + "\n")
    n_fail = sum(1 for r in results if not r["ok"])
    print(f"{len(results)} runs ({n_fail} failed) in "
          f"{time.monotonic() - t0:.1f}s; summary at {summary}")
    for res in results:
        if not res["ok"]:
            print(f"  FAILED {res['run_id']}: {res['error']}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="otnewton",
                                     description="Entropic OT solver and benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a problem file")
    g.add_argument("--kind", default="grid", choices=["grid"])
    g.add_argument("--metric", default="l1", choices=["l1", "l2sq"])
    g.add_argument("--side", type=int, required=True)
    g.add_argument("--marginal", default="smooth-random",
                   choices=["uniform", "smooth-random", "spiky-random"])
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--label", default=None)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="solve one problem file")
    s.add_argument("--problem", required=True)
    s.add_argument("--solver", default="mdot-tn", choices=["mdot-tn", "mdot-sinkhorn"])
    s.add_argument("--gamma-init", type=float, default=2.0 ** 5)
    s.add_argument("--gamma-final", type=float, default=2.0 ** 18)
    s.add_argument("--p", type=float, default=1.5)
    s.add_argument("--q-init", type=float, default=2.0)
    s.add_argument("--adaptive-q", action=argparse.BooleanOptionalAction, default=True)
    s.add_argument("--adaptive-rho0", action=argparse.BooleanOptionalAction, default=True)
    s.add_argument("--w-r", type=float, default=0.45)
    s.add_argument("--report", default=None, help="write the JSON report here")
    s.add_argument("--trace", default=None, help="write the CSV trace here")
    s.set_defaults(func=cmd_solve)

    b = sub.add_parser("bench", help="run a benchmark sweep from a JSON config")
    b.add_argument("--config", required=True)
    b.add_argument("--output-dir", default=None)
    b.add_argument("--jobs", type=int, default=None)
    b.add_argument("--seeds", default=None, help="comma-separated, overrides config")
    b.add_argument("--repeats", type=int, default=None)
    b.add_argument("--solver", default=None, choices=["mdot-tn", "mdot-sinkhorn"])
    b.add_argument("--gamma-init", dest="gamma_i", type=float, default=None)
    b.add_argument("--gamma-final", dest="gamma_f", type=float, default=None)
    b.add_argument("--p", type=float, default=None)
    b.add_argument("--q-init", dest="q_init", type=float, default=None)
    b.add_argument("--adaptive-q", action=argparse.BooleanOptionalAction, default=None)
    b.add_argument("--w-r", dest="w_r", type=float, default=None)
    b.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
