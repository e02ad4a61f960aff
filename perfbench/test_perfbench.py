"""Fast self-test of the benchmark: ``python3 -m pytest perfbench`` from the repo root.

Every workload runs end to end at toy size, traced and untraced; the checker
must reject broken outputs; and the benchmark must refuse to run without
the library's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--toy"],
        capture_output=True, text=True, cwd=cwd, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_toy_workload_runs_end_to_end(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_refuses_to_run_without_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("tn-l2sq-n1024", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture(scope="module")
def solved():
    wl = workloads.build("tn-l2sq-n1024", toy=True)
    prob = wl.problems[0]
    return prob, wl.solve(prob)


def test_checker_accepts_solver_output(solved):
    prob, sol = solved
    assert check.check_plan(sol.P, prob.C, prob.r, prob.c, sol.primal_cost) == []
    lower = check.ctransform_lower_bound(prob.C, prob.r, prob.c, sol.final_state.u,
                                         sol.final_state.gamma)
    assert check.check_certificate(sol.primal_cost, sol.error_bound, lower) == []
    lp = check.lp_optimum(prob.C, prob.r, prob.c)
    assert lower <= lp + 1e-12
    assert check.check_lp_gap(sol.primal_cost, sol.error_bound, lp) == []


def test_checker_rejects_broken_row_sum(solved):
    prob, sol = solved
    P = sol.P.copy()
    P[0, 0] += 1e-9
    missed = check.check_plan(P, prob.C, prob.r, prob.c, float(np.vdot(P, prob.C)))
    assert "row_sums" in missed


def test_checker_rejects_wrong_cost(solved):
    prob, sol = solved
    missed = check.check_plan(sol.P, prob.C, prob.r, prob.c, sol.primal_cost * (1 + 1e-9))
    assert missed == ["primal_cost"]


def test_checker_rejects_lower_bound_above_primal(solved):
    _, sol = solved
    assert check.check_certificate(sol.primal_cost, sol.error_bound,
                                   sol.primal_cost + 1e-9) == ["lower_bound_above_primal"]
    assert check.check_lp_gap(sol.primal_cost, sol.error_bound,
                              sol.primal_cost + 1e-9) == ["below_lp_optimum"]


def test_missing_layer_is_reported_not_raised():
    tracer = spans.Tracer()
    tracer.install([("gone.layer", "otnewton.dual", "no_such_function", None),
                    ("gone.module", "otnewton.no_such_module", "f", None)])
    tracer.uninstall()
    assert tracer.missing == ["gone.layer", "gone.module"]
