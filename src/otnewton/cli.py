"""Command-line entry point: problem generation, single solves, benchmark sweeps.

A ``BenchSetting`` is one solve; a ``bench`` config holds ``BenchConfig``'s
keys, rejects unknown ones and checks every value against its field's type.
Each ``bench`` cell makes one solve.  Its gap is taken against the exact
HiGHS LP for n <= ``EXACT_MAX_N`` (``gap_basis=exact``); above that it is
the solve's own ``certified_gap`` (``gap_basis=certificate``), the rounded
cost minus a weak-duality lower bound.  Exit codes: 0 success, 2 usage
(argparse), 3 input, config or output error (one ``error:`` line on stderr),
4 solver error (a diagnostic JSON object on stdout).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import opcount
from .driver import DEFAULT_W_R, SOLVER_NAMES, MdotOptions, mdot
from .errors import DimensionError, DomainError, OTNError, ParseError
from .oracles import EXACT_MAX_N, exact_ot_small
from .problems import (Problem, gen_marginal, grid_points_cost, load_problem, save_problem,
                       write_trace)

EXIT_OK = 0
EXIT_IO = 3
EXIT_SOLVER = 4

# Column marginals draw from an offset seed stream so r and c differ.
COL_SEED_OFFSET = 1

# The projector of each solver name that settings and flags accept.
PROJECTORS = {solver: projector for projector, solver in SOLVER_NAMES.items()}


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


# The JSON values each field annotation of the config dataclasses accepts.
_ACCEPTS = {
    "str": lambda x: isinstance(x, str),
    "bool": lambda x: isinstance(x, bool),
    "int": _is_int,
    "float": lambda x: _is_int(x) or isinstance(x, float),
    "list": lambda x: isinstance(x, list),
    "list[int]": lambda x: isinstance(x, list) and all(map(_is_int, x)),
}


def _checked(obj):
    """``obj``, once each of its fields holds a value of the field's type;
    otherwise a ``ParseError`` naming the field."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if not _ACCEPTS[f.type](value):
            raise ParseError(f"bad bench config: {f.name} must be {f.type}, got {value!r}")
    return obj


@dataclass
class BenchSetting:
    """One solve: a solver and its annealing settings; defaults are the benchmarked setup."""

    name: str
    solver: str = "mdot-tn"
    gamma_i: float = 2.0 ** 5
    gamma_f: float = 2.0 ** 18
    p: float = 1.5
    q_init: float = 2.0
    adaptive_q: bool = True
    adaptive_rho0: bool = True
    w_r: float = DEFAULT_W_R

    def solve(self, problem):
        """``mdot`` on ``problem`` with this setting, after resetting the op
        counts; an unknown solver name is a ``ParseError``."""
        if self.solver not in PROJECTORS:
            raise ParseError(f"unknown solver {self.solver!r}; use one of {sorted(PROJECTORS)}")
        opts = MdotOptions(w_r=self.w_r, adaptive_q=self.adaptive_q,
                           adaptive_rho0=self.adaptive_rho0,
                           projector=PROJECTORS[self.solver])
        opcount.reset()
        return mdot(problem, self.gamma_i, self.gamma_f, p=self.p, q_init=self.q_init,
                    opts=opts)


# The fields that ``solve`` and ``bench`` take as flags: all but the name.
SETTING_FIELDS = fields(BenchSetting)[1:]


@dataclass
class BenchConfig:
    """Benchmark axes: problems x settings, repeated over seeds."""

    problems: list = field(default_factory=list)
    settings: list = field(default_factory=lambda: [BenchSetting("default")])
    seeds: list[int] = field(default_factory=lambda: [0])
    repeats: int = 1
    output_dir: str = "bench_out"
    jobs: int = 1

    @classmethod
    def from_dict(cls, data):
        """The config of a parsed JSON object, which is left as it was; an
        unknown key, a setting without a name, or a value not of its field's
        type is a ``ParseError``."""
        try:
            cfg = _checked(cls(**data))
            if "settings" in data:
                cfg.settings = [_checked(BenchSetting(**s)) for s in data["settings"]]
        except TypeError as exc:
            raise ParseError(f"bad bench config: {exc}") from exc
        return cfg

    def check_sweep(self):
        """A ``ParseError`` unless the sweep has a seed, a repeat and a job."""
        if not self.seeds:
            raise ParseError("bad bench config: seeds must not be empty")
        for name in ("repeats", "jobs"):
            if getattr(self, name) < 1:
                raise ParseError(f"bad bench config: {name} must be >= 1, "
                                 f"got {getattr(self, name)}")


def _gen_problem(side, seed, kind="grid", metric="l1", marginal="smooth-random"):
    """A problem on a side-by-side grid, its marginals drawn from ``seed``."""
    if kind != "grid":
        raise ParseError(f"unknown generator kind {kind!r}")
    if side < 1:
        raise DimensionError("grid side must be >= 1")
    n = side * side
    C = grid_points_cost(n, metric)
    r = gen_marginal(n, marginal, seed)
    c = gen_marginal(n, marginal, seed + COL_SEED_OFFSET)
    return Problem(C=C, r=r, c=c, label=f"grid-{metric}-s{side}-{marginal}-seed{seed}")


def cmd_gen(args):
    given = {k: getattr(args, k) for k in ("kind", "metric", "marginal") if getattr(args, k)}
    problem = _gen_problem(args.side, args.seed, **given)
    if args.label is not None:
        problem.label = args.label
    save_problem(problem, args.out)
    print(f"wrote {args.out}: n={problem.n} label={problem.label}")
    return EXIT_OK


def cmd_solve(args):
    problem = load_problem(args.problem)
    setting = BenchSetting("solve", **{f.name: getattr(args, f.name) for f in SETTING_FIELDS})
    for path in filter(None, (args.report, args.trace)):
        if not Path(path).parent.is_dir():
            raise FileNotFoundError(f"cannot write {path}: no directory {Path(path).parent}")
    try:
        sol = setting.solve(problem)
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


def _bench_problem(spec, seed):
    """The problem of a config entry: a path, ``{"path": ...}``, or
    ``_gen_problem``'s arguments, the seed defaulting to the run's."""
    if isinstance(spec, str):
        spec = {"path": spec}
    try:
        return load_problem(**spec) if "path" in spec else _gen_problem(**{"seed": seed, **spec})
    except TypeError as exc:
        raise ParseError(f"bad problem spec {spec!r}: {exc}") from exc


def _run_one(task):
    """One (problem, setting, seed, repeat) cell; runs in a worker process."""
    spec, setting, seed, repeat, out_dir = task
    problem = _bench_problem(spec, seed)
    run_id = f"{setting.name}__{problem.label}__seed{seed}__rep{repeat}"
    try:
        sol = setting.solve(problem)
    except ParseError:
        raise  # a bad setting ends the sweep, as a bad problem does
    except OTNError as exc:
        return {"run_id": run_id, "setting": setting.name, "label": problem.label,
                "ok": False, "error": f"{type(exc).__name__}: {exc}"}
    (out_dir / f"{run_id}.json").write_text(sol.report.to_json() + "\n")
    write_trace(sol.trace, out_dir / f"{run_id}.csv")

    gap, gap_basis = _optimality_gap(problem, sol)
    return {"run_id": run_id, "setting": setting.name, "label": problem.label,
            "ok": True, "wall_ms": sol.report.wall_ms,
            "ops_total": sol.report.ops.get("total", 0),
            "ops": sol.report.ops, "primal_cost": sol.primal_cost,
            "gap": gap, "gap_basis": gap_basis}


def _optimality_gap(problem, sol):
    """The solution's gap and its basis: exact up to ``EXACT_MAX_N``, else certified."""
    if problem.n <= EXACT_MAX_N:
        exact = exact_ot_small(problem.C, problem.r, problem.c)
        return sol.primal_cost - exact.cost, "exact"
    return sol.report.certified_gap, "certificate"


def _percentiles(values):
    values = sorted(values)
    if not values:
        return math.nan, math.nan, math.nan
    arr = np.array(values)
    return (float(np.percentile(arr, 50)), float(np.percentile(arr, 10)),
            float(np.percentile(arr, 90)))


def cmd_bench(args):
    cfg = BenchConfig.from_dict(json.loads(Path(args.config).read_text()))
    if args.output_dir:
        cfg.output_dir = args.output_dir
    if args.jobs is not None:
        cfg.jobs = args.jobs
    if args.seeds is not None:
        try:
            cfg.seeds = [int(s) for s in args.seeds.split(",")]
        except ValueError as exc:
            raise ParseError(f"bad --seeds {args.seeds!r}: {exc}") from exc
    if args.repeats is not None:
        cfg.repeats = args.repeats
    cfg.check_sweep()
    # solver-setting flags apply across every setting of the sweep
    for f in SETTING_FIELDS:
        value = getattr(args, f.name)
        if value is not None:
            for setting in cfg.settings:
                setattr(setting, f.name, value)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    tasks = []
    for spec in cfg.problems:
        for setting in cfg.settings:
            for seed in cfg.seeds:
                for rep in range(cfg.repeats):
                    tasks.append((spec, setting, seed, rep, out))
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


def _add_setting_flags(parser, default):
    """One flag per ``SETTING_FIELDS`` entry, its dest the field's name and its
    default the ``default`` setting's value, or None (an unset flag) without one."""
    spelled = {"gamma_i": "--gamma-init", "gamma_f": "--gamma-final"}
    kinds = {"str": {"choices": PROJECTORS}, "float": {"type": float},
             "bool": {"action": argparse.BooleanOptionalAction}}
    for f in SETTING_FIELDS:
        flag = spelled.get(f.name, "--" + f.name.replace("_", "-"))
        parser.add_argument(flag, dest=f.name, **kinds[f.type],
                            default=None if default is None else getattr(default, f.name))


def build_parser():
    parser = argparse.ArgumentParser(prog="otnewton",
                                     description="Entropic OT solver and benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a problem file")
    g.add_argument("--kind", choices=["grid"])
    g.add_argument("--metric", choices=["l1", "l2sq"])
    g.add_argument("--side", type=int, required=True)
    g.add_argument("--marginal", choices=["uniform", "smooth-random", "spiky-random"])
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--label", default=None)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="solve one problem file")
    s.add_argument("--problem", required=True)
    _add_setting_flags(s, BenchSetting("default"))
    s.add_argument("--report", default=None, help="write the JSON report here")
    s.add_argument("--trace", default=None, help="write the CSV trace here")
    s.set_defaults(func=cmd_solve)

    b = sub.add_parser("bench", help="run a benchmark sweep from a JSON config")
    b.add_argument("--config", required=True)
    b.add_argument("--output-dir", default=None)
    b.add_argument("--jobs", type=int, default=None)
    b.add_argument("--seeds", default=None, help="comma-separated, overrides config")
    b.add_argument("--repeats", type=int, default=None)
    _add_setting_flags(b, None)
    b.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    """Run one command; an input, config or output failure is exit 3."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, ParseError, DomainError,
            DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
