"""``tools/pairs.py``: alternating benchmark pairs against the bounds, on
canned result lines (no benchmark runs)."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).resolve().parent.parent / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

METRICS = [
    {"name": "solve_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "solves_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]


def result_line(solve_s, setup_s, peak_mb=8.8, correct=True, failed=0):
    return json.dumps({"correct": correct, "attempted": 20, "failed": failed, "metrics": {
        "solve_s": {"value": solve_s, "unit": "s"},
        "solve_s_p90": {"value": 1.2 * solve_s, "unit": "s"},
        "solves_per_s": {"value": 1.0 / solve_s, "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_mb": {"value": peak_mb, "unit": "MB"}}})


def run_output(*args, **kwargs):
    return "# workload=w seed=1 blas_threads=2\n# solves: 20 completed\n" \
        + result_line(*args, **kwargs) + "\n"


def canned_pairs(parent_solve, change_solve, parent_setup, change_setup):
    return [(pairs.parse_result(run_output(a, s)), pairs.parse_result(run_output(b, t)))
            for a, b, s, t in zip(parent_solve, change_solve, parent_setup, change_setup)]


def verdicts(lines):
    return {line.split(":")[0]: line.rsplit(": ", 1)[1] for line in lines}


def test_parse_result_reads_the_last_line_and_refuses_failures():
    assert pairs.parse_result(run_output(0.5, 0.2))["metrics"]["solve_s"]["value"] == 0.5
    with pytest.raises(pairs.RunFailed, match="incorrect"):
        pairs.parse_result(run_output(0.5, 0.2, correct=False))
    with pytest.raises(pairs.RunFailed, match="no JSON"):
        pairs.parse_result("# workload=w\n")
    with pytest.raises(pairs.RunFailed, match="no JSON"):
        pairs.parse_result("")


def test_verdicts_against_the_bounds():
    # solve_s: a steady parent and a change 40 % slower in every pair;
    # setup_s: a parent whose quartiles lie 40 % of its median apart; peak_mb: equal.
    got = canned_pairs([1.0, 1.02, 0.98, 1.0, 1.01], [1.4, 1.42, 1.38, 1.41, 1.4],
                       [0.2, 0.4, 0.25, 0.15, 0.3], [0.2, 0.2, 0.2, 0.2, 0.2])
    lines, worse = pairs.summarize(got, METRICS)
    assert worse
    assert verdicts(lines) == {"solve_s": "worse beyond bound",
                               "solves_per_s": "worse beyond bound",
                               "setup_s": "unresolved", "peak_mb": "within bound"}
    solve, per_s, setup, peak = lines
    assert solve.startswith("solve_s: median 1 -> 1.4 s (+40.0%), parent IQR 0.01 (1.0%), "
                            "change better in 0 of 5 pairs, bound 25%")
    assert "change better in 0 of 5 pairs" in per_s
    assert "parent IQR 0.1 (40.0%)" in setup and "change better in 3 of 5" in setup
    assert "(+0.0%)" in peak and "change better in 0 of 5" in peak


def test_a_faster_change_is_within_bound_and_wins():
    got = canned_pairs([1.0, 1.02, 0.98, 1.0, 1.01], [0.6, 0.61, 0.59, 0.6, 0.62],
                       [0.2] * 5, [0.21] * 5)
    lines, worse = pairs.summarize(got, METRICS)
    assert not worse
    assert set(verdicts(lines).values()) == {"within bound"}
    assert "change better in 5 of 5 pairs" in lines[0]
    assert "change better in 5 of 5 pairs" in lines[1]  # higher is better there


def test_main_alternates_sides_and_stops_at_a_failed_run(monkeypatch, capsys):
    calls = []

    def fake_run(command, checkout, workload, seed, seconds):
        calls.append((str(checkout), seed))
        if str(checkout) == "bad":
            return run_output(0.5, 0.2, correct=False)
        return run_output(0.5 if str(checkout) == "old" else 0.45, 0.2)

    monkeypatch.setattr(pairs, "run_once", fake_run)
    assert pairs.main(["old", "new", "--workload", "w", "--pairs", "3", "--seed0", "7"]) == 0
    assert calls == [("old", 7), ("new", 7), ("new", 8), ("old", 8), ("old", 9), ("new", 9)]
    out = capsys.readouterr().out
    assert "pair 1 seed 8 change first: 0.5/0.45" in out
    assert "failed operations: parent 0 of 60, change 0 of 60" in out
    calls.clear()
    assert pairs.main(["old", "bad", "--workload", "w", "--pairs", "3"]) == 1
    assert calls == [("old", 1), ("bad", 1)]
    assert "the change run failed: the run reported an incorrect result" in capsys.readouterr().out
