import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import otnewton
from otnewton.cli import BenchSetting, main
from otnewton.problems import load_problem, read_trace


def run(argv):
    return main(argv)


class TestGen:
    def test_writes_valid_problem(self, tmp_path, capsys):
        out = tmp_path / "p.otp"
        code = run(["gen", "--kind", "grid", "--metric", "l1", "--side", "8",
                    "--marginal", "smooth-random", "--seed", "1",
                    "--out", str(out)])
        assert code == 0
        prob = load_problem(out)
        assert prob.n == 64
        assert "n=64" in capsys.readouterr().out

    def test_degenerate_side_one(self, tmp_path):
        out = tmp_path / "p1.otp"
        assert run(["gen", "--side", "1", "--out", str(out)]) == 0
        assert load_problem(out).n == 1

    def test_byte_identical_regeneration(self, tmp_path):
        a = tmp_path / "a.otp"
        b = tmp_path / "b.otp"
        args = ["gen", "--side", "4", "--marginal", "spiky-random", "--seed", "9"]
        run(args + ["--out", str(a)])
        run(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestSolve:
    def _fixture(self, tmp_path):
        path = tmp_path / "sym.otp"
        path.write_text("OTP 2\n0.5 0.5\n0.5 0.5\n0 1\n1 0\n")
        return path

    def test_solve_within_bound(self, tmp_path, capsys):
        prob = self._fixture(tmp_path)
        report_path = tmp_path / "report.json"
        trace_path = tmp_path / "trace.csv"
        code = run(["solve", "--problem", str(prob),
                    "--gamma-init", "32", "--gamma-final", str(2.0 ** 14),
                    "--report", str(report_path), "--trace", str(trace_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        # exact optimum is 0, so the rounded cost is within the bound
        assert report["primal_cost_rounded"] <= report["error_bound"]
        assert read_trace(trace_path)[0].t == 1
        assert json.loads(capsys.readouterr().out)["n"] == 2

    def test_single_temperature_sinkhorn(self, tmp_path):
        prob = self._fixture(tmp_path)
        code = run(["solve", "--problem", str(prob), "--solver", "mdot-sinkhorn",
                    "--gamma-init", "64", "--gamma-final", "64"])
        assert code == 0

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = run(["solve", "--problem", str(tmp_path / "nope.otp")])
        assert code == 3
        assert not list(tmp_path.iterdir())  # no partial outputs

    def test_report_records_adaptive_rho0(self, tmp_path):
        prob = self._fixture(tmp_path)
        for flag, expected in (("--adaptive-rho0", True), ("--no-adaptive-rho0", False)):
            report_path = tmp_path / f"{flag}.json"
            assert run(["solve", "--problem", str(prob), "--gamma-init", "32",
                        "--gamma-final", "256", flag, "--report", str(report_path)]) == 0
            assert json.loads(report_path.read_text())["adaptive_rho0"] is expected

    def test_point_mass_problem_is_solver_error(self, tmp_path, capsys):
        # gen --side 1 writes n = 1, whose marginals are point masses.
        prob = tmp_path / "p1.otp"
        assert run(["gen", "--side", "1", "--out", str(prob)]) == 0
        capsys.readouterr()
        assert run(["solve", "--problem", str(prob)]) == 4
        diag = json.loads(capsys.readouterr().out)
        assert diag["error"] == "DegenerateInputError"
        assert "point mass" in diag["message"]


class TestBench:
    def test_sweep_outputs(self, tmp_path, capsys):
        cfg = {
            "problems": [
                {"kind": "grid", "metric": "l1", "side": 2, "seed": 1},
                {"kind": "grid", "metric": "l1", "side": 2, "seed": 2},
                {"kind": "grid", "metric": "l2sq", "side": 2, "seed": 3},
            ],
            "settings": [
                {"name": "adaptive", "gamma_i": 16, "gamma_f": 1024,
                 "q_init": 2.0, "adaptive_q": True},
                {"name": "fixed-sqrt2", "gamma_i": 16, "gamma_f": 1024,
                 "q_init": 1.41421356, "adaptive_q": False},
            ],
            "seeds": [0],
            "output_dir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(["bench", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        reports = sorted(out.glob("*.json"))
        traces = sorted(out.glob("*.csv"))
        assert len(reports) == 6
        assert len(traces) == 7  # 6 run traces + summary.csv
        summary = (out / "summary.csv").read_text().strip().split("\n")
        assert summary[0].startswith("setting,label,runs,failures")
        assert len(summary) == 7  # header + 2 settings x 3 problems
        # gap against the exact oracle at n = 4, flagged as such
        assert all(line.endswith("exact") for line in summary[1:])

    def test_exact_gap_at_side_eight(self, tmp_path):
        # n = 64 is inside the exact LP's guard, so the gap is exact
        cfg = {
            "problems": [{"kind": "grid", "metric": "l1", "side": 8, "seed": 1}],
            "settings": [{"name": "s", "gamma_i": 32, "gamma_f": 1024}],
            "seeds": [0],
            "output_dir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(["bench", "--config", str(cfg_path)]) == 0
        header, summary = (tmp_path / "out" / "summary.csv").read_text().strip().split("\n")
        cols = dict(zip(header.split(","), summary.split(",")))
        assert cols["gap_basis"] == "exact"
        assert float(cols["gap_med"]) >= -1e-10

    def test_certificate_gap_above_the_exact_guard(self, tmp_path, monkeypatch):
        # n = 289 is past the exact LP's guard, so the gap is the solve's own
        # certified gap: the rounded cost minus a lower bound on the optimum,
        # so it lies in [0, bound] up to roundoff.  Each cell makes one solve.
        solves = []
        real_solve = BenchSetting.solve

        def solve(setting, problem):
            solves.append(setting.name)
            return real_solve(setting, problem)

        monkeypatch.setattr(BenchSetting, "solve", solve)
        cfg = {
            "problems": [{"kind": "grid", "metric": "l1", "side": 17, "seed": 1}],
            "settings": [{"name": "s", "gamma_i": 16, "gamma_f": 256}],
            "seeds": [0],
            "output_dir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(["bench", "--config", str(cfg_path)]) == 0
        assert solves == ["s"]
        out = tmp_path / "out"
        header, summary = (out / "summary.csv").read_text().strip().split("\n")
        cols = dict(zip(header.split(","), summary.split(",")))
        (report,) = [json.loads(p.read_text()) for p in out.glob("*.json")]
        assert report["n"] == 289
        bound = report["error_bound"]
        assert cols["gap_basis"] == "certificate"
        assert float(cols["gap_med"]) == float(f"{report['certified_gap']:.3e}")
        assert -1e-12 <= float(cols["gap_med"]) <= bound

    def test_summary_percentiles_are_order_stats(self, tmp_path):
        cfg = {
            "problems": [{"kind": "grid", "metric": "l1", "side": 2, "seed": 5}],
            "settings": [{"name": "s", "gamma_i": 16, "gamma_f": 256}],
            "seeds": [0, 1, 2],
            "output_dir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(["bench", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        reports = [json.loads(p.read_text()) for p in out.glob("*.json")]
        ops = sorted(r["ops"]["total"] for r in reports)
        header, summary = (out / "summary.csv").read_text().strip().split("\n")
        cols = dict(zip(header.split(","), summary.split(",")))
        assert float(cols["ops_med"]) == ops[1]  # middle order statistic
        # per-subroutine medians are order statistics too
        newton = sorted(r["ops"].get("newton_solve", 0) for r in reports)
        assert float(cols["ops_newton_solve_med"]) == newton[1]

    def test_missing_config_is_io_error(self, tmp_path):
        assert run(["bench", "--config", str(tmp_path / "nope.json")]) == 3

    def test_parallel_jobs(self, tmp_path):
        cfg = {
            "problems": [{"kind": "grid", "metric": "l1", "side": 2, "seed": 7},
                         {"kind": "grid", "metric": "l1", "side": 2, "seed": 8}],
            "settings": [{"name": "s", "gamma_i": 16, "gamma_f": 256}],
            "seeds": [0],
            "output_dir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(["bench", "--config", str(cfg_path), "--jobs", "2"]) == 0
        assert (tmp_path / "out" / "summary.csv").exists()
        assert len(list((tmp_path / "out").glob("*.json"))) == 2

    def test_flag_overrides_every_setting(self, tmp_path):
        cfg = {
            "problems": [{"kind": "grid", "metric": "l1", "side": 2, "seed": 7}],
            "settings": [{"name": "a", "gamma_i": 16, "gamma_f": 256},
                         {"name": "b", "gamma_i": 16, "gamma_f": 256, "adaptive_rho0": True}],
            "output_dir": str(tmp_path / "out"),
        }
        cfg_path = tmp_path / "bench.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(["bench", "--config", str(cfg_path), "--no-adaptive-rho0"]) == 0
        reports = [json.loads(p.read_text()) for p in (tmp_path / "out").glob("*.json")]
        assert len(reports) == 2
        assert all(r["adaptive_rho0"] is False for r in reports)


class TestInputErrors:
    """Each input, config or output failure exits 3 with one ``error:`` line."""

    def _exits_3(self, argv, capsys):
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("cfg", [
        {"settings": [{"name": "s", "gama_f": 256}]},
        {"settings": [{"gamma_f": 256}]},
        {"settings": [{"name": "s", "solver": "mdot-newton"}],
         "problems": [{"side": 2}]},
        {"problems": [{"side": 2, "metric": "l3"}]},
        {"problems": [{"side": 2, "metrc": "l2sq"}]},
        {"problems": [{"metric": "l1"}]},
        {"problems": [{"path": "missing.otp"}]},
        {"gamma_f": 4096.0},
        {"repeats": "2"},
        {"settings": [{"name": "s", "gamma_i": "32"}]},
        {"seeds": [0, "1"]},
        {"settings": [{"name": "s", "adaptive_q": 1}]},
        {"repeats": 0, "problems": [{"side": 2}]},
        {"jobs": -2, "problems": [{"side": 2}]},
        {"seeds": [], "problems": [{"side": 2}]},
    ], ids=["setting-key", "setting-name", "solver", "metric", "spec-key", "spec-side",
            "problem-file", "flat-setting", "repeats-type", "gamma-type", "seed-type",
            "flag-type", "repeats-zero", "jobs-negative", "seeds-empty"])
    def test_bad_config(self, tmp_path, capsys, cfg):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"output_dir": str(tmp_path / "out"), **cfg}))
        self._exits_3(["bench", "--config", str(path)], capsys)
        assert not list(tmp_path.glob("out/*.json"))

    def test_bad_seeds_flag(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"output_dir": str(tmp_path / "out"),
                                    "problems": [{"side": 2}]}))
        self._exits_3(["bench", "--config", str(path), "--seeds", "5,x"], capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag,value", [("--repeats", "-1"), ("--repeats", "0"),
                                            ("--jobs", "0")])
    def test_sweep_flag_below_one(self, tmp_path, capsys, flag, value):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"output_dir": str(tmp_path / "out"),
                                    "problems": [{"side": 2}]}))
        self._exits_3(["bench", "--config", str(path), flag, value], capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", ['{"problems": [}', '["not", "an", "object"]'])
    def test_malformed_json(self, tmp_path, capsys, text):
        path = tmp_path / "bench.json"
        path.write_text(text)
        self._exits_3(["bench", "--config", str(path)], capsys)

    @pytest.mark.parametrize("side", ["0", "-2"])
    def test_nonpositive_side(self, tmp_path, capsys, side):
        self._exits_3(["gen", "--side", side, "--out", str(tmp_path / "p.otp")], capsys)
        assert not list(tmp_path.iterdir())

    def test_gen_into_missing_directory(self, tmp_path, capsys):
        self._exits_3(["gen", "--side", "2", "--out", str(tmp_path / "no" / "p.otp")], capsys)

    @pytest.mark.parametrize("flag", ["--report", "--trace"])
    def test_report_into_missing_directory(self, tmp_path, capsys, monkeypatch, flag):
        # The output paths are checked before the solve, not after it.
        prob = tmp_path / "p.otp"
        assert run(["gen", "--side", "2", "--out", str(prob)]) == 0
        capsys.readouterr()
        solves = []
        monkeypatch.setattr(BenchSetting, "solve", lambda *args: solves.append(args))
        self._exits_3(["solve", "--problem", str(prob), "--gamma-final", "256",
                       flag, str(tmp_path / "no" / "out")], capsys)
        assert solves == []

    def test_cost_outside_unit_interval(self, tmp_path, capsys):
        prob = tmp_path / "p.otp"
        prob.write_text("OTP 2\n0.5 0.5\n0.5 0.5\n0 2\n2 0\n")
        self._exits_3(["solve", "--problem", str(prob)], capsys)

    def test_config_dict_left_as_it_was(self):
        from otnewton.cli import BenchConfig
        data = {"problems": [{"side": 2}], "settings": [{"name": "s", "gamma_f": 256.0}],
                "seeds": [1]}
        copy = json.loads(json.dumps(data))
        cfg = BenchConfig.from_dict(data)
        assert data == copy
        assert cfg.settings[0].gamma_f == 256.0 and cfg.settings[0].p == 1.5


class TestExitCodesEndToEnd:
    """``python -m otnewton`` in a subprocess ends with each documented code."""

    def _cli(self, tmp_path, *argv):
        env = dict(os.environ)
        src = str(Path(otnewton.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "otnewton", *argv], cwd=tmp_path,
                              env=env, capture_output=True, text=True, timeout=120)

    def test_exit_codes(self, tmp_path):
        ok = self._cli(tmp_path, "gen", "--side", "1", "--out", "p1.otp")
        assert ok.returncode == 0, ok.stderr
        usage = self._cli(tmp_path, "solve")
        assert usage.returncode == 2 and "--problem" in usage.stderr
        (tmp_path / "bad.json").write_text('{"settings": [')
        bad_config = self._cli(tmp_path, "bench", "--config", "bad.json")
        assert bad_config.returncode == 3
        assert bad_config.stderr.startswith("error: ") and bad_config.stderr.count("\n") == 1
        solver = self._cli(tmp_path, "solve", "--problem", "p1.otp")
        assert solver.returncode == 4, solver.stderr
        assert json.loads(solver.stdout)["error"] == "DegenerateInputError"


class TestDefaults:
    def test_solver_defaults_match_benchmark_setup(self):
        from otnewton.cli import build_parser
        args = build_parser().parse_args(["solve", "--problem", "x.otp"])
        assert args.gamma_i == 2.0 ** 5
        assert args.gamma_f == 2.0 ** 18
        assert args.p == 1.5
        assert args.q_init == 2.0
        assert args.adaptive_q is True

    def test_bench_flag_overrides(self, tmp_path):
        from otnewton.cli import build_parser, BenchConfig
        cfg = BenchConfig.from_dict({"problems": [],
                                     "settings": [{"name": "s", "gamma_f": 4096.0}]})
        args = build_parser().parse_args(
            ["bench", "--config", "c.json", "--gamma-final", "256",
             "--seeds", "5,6", "--no-adaptive-q"])
        assert args.gamma_f == 256.0
        assert args.seeds == "5,6"
        assert args.adaptive_q is False
        assert cfg.settings[0].gamma_f == 4096.0


class TestDeterminism:
    def test_op_counts_repeat_across_runs(self, tmp_path):
        from otnewton import opcount
        from otnewton.driver import mdot
        from otnewton.problems import Problem, gen_marginal, grid_points_cost

        prob = Problem(C=grid_points_cost(16, "l1"),
                       r=gen_marginal(16, "smooth-random", 0),
                       c=gen_marginal(16, "smooth-random", 1))
        totals = []
        for _ in range(2):
            opcount.reset()
            sol = mdot(prob, 16.0, 1024.0)
            totals.append((sol.report.ops["total"], sol.primal_cost))
        assert totals[0] == totals[1]

    def test_deterministic_mode_bit_identical(self):
        from otnewton.driver import mdot
        from otnewton.problems import Problem, gen_marginal, grid_points_cost

        prob = Problem(C=grid_points_cost(16, "l1"),
                       r=gen_marginal(16, "smooth-random", 2),
                       c=gen_marginal(16, "smooth-random", 3))
        a = mdot(prob, 16.0, 1024.0)
        b = mdot(prob, 16.0, 1024.0)
        np.testing.assert_array_equal(a.P, b.P)
        assert a.primal_cost == b.primal_cost
