"""Alternating parent/change benchmark pairs, summarized against the
benchmark's bounds.

    python3 tools/pairs.py PARENT_DIR CHANGE_DIR --workload W [--pairs 10]
                           [--seconds 5] [--seed0 S]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository.  Pair i
runs the benchmark's command from ``BENCHMARK.json`` (``perfbench/run.py``)
with ``--trace 0`` and seed S + i once in each checkout; the parent runs
first on even pairs and the change on odd ones, so that a drift of the
host's speed falls on both sides alike.  The last line a run prints is its
JSON result.  The tool prints each pair's end-to-end metrics as they come,
then, for each metric that ``BENCHMARK.json`` lists as end to end:

- the two medians and the change's relative move;
- the parent's interquartile range, absolute and relative to its median;
- the number of pairs in which the change was better;
- a verdict against the metric's bound: "unresolved" when the parent's
  interquartile range exceeds the bound, so that its runs cannot tell a
  move of that size; else "worse beyond bound" when the change's median is
  worse than the parent's by more than the bound; else "within bound".

It exits with 1 as soon as a run fails or reports an incorrect result, with
2 when a metric is worse beyond its bound, and with 0 otherwise.  It only
reads ``BENCHMARK.json`` of the checkout it sits in and runs the
benchmark's command; it changes nothing in either checkout apart from what
that command writes there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# A run that takes longer is abandoned (perfbench/run.py ends its own
# workers within 170 s).
RUN_TIMEOUT_S = 600.0


class RunFailed(Exception):
    """A benchmark run that exited non-zero, printed no result or reported
    an incorrect one."""


def run_once(command, checkout, workload, seed, seconds):
    """Standard output of one untraced benchmark run in ``checkout``."""
    cmd = [*command, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"no result within {RUN_TIMEOUT_S:.0f} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        raise RunFailed(f"exit status {proc.returncode} {tail[0]}".rstrip())
    return proc.stdout


def parse_result(stdout):
    """The JSON result on the last line of a run's output, checked correct."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RunFailed("the run printed no JSON result") from None
    if not result.get("correct"):
        raise RunFailed("the run reported an incorrect result")
    return result


def value(result, name):
    return result["metrics"][name]["value"]


def summarize(pairs, metrics):
    """One line per end-to-end metric for ``pairs`` of (parent, change)
    results, and whether any metric is worse beyond its bound."""
    lines, worse = [], False
    for metric in metrics:
        name, bound = metric["name"], metric["bound"]
        # sign * (new - old) > 0 is a move for the worse.
        sign = 1.0 if metric["better"] == "lower" else -1.0
        old = [value(p, name) for p, _ in pairs]
        new = [value(c, name) for _, c in pairs]
        old_med, new_med = statistics.median(old), statistics.median(new)
        move = (new_med - old_med) / old_med
        q1, _, q3 = statistics.quantiles(old, n=4, method="inclusive")
        spread = (q3 - q1) / old_med
        wins = sum(sign * (b - a) < 0.0 for a, b in zip(old, new))
        if spread > bound:
            verdict = "unresolved"
        elif sign * move > bound:
            verdict = "worse beyond bound"
            worse = True
        else:
            verdict = "within bound"
        lines.append(f"{name}: median {old_med:.6g} -> {new_med:.6g} {metric['unit']} "
                     f"({move:+.1%}), parent IQR {q3 - q1:.3g} ({spread:.1%}), "
                     f"change better in {wins} of {len(pairs)} pairs, "
                     f"bound {bound:.0%}: {verdict}")
    return lines, worse


def failed_share(results):
    return f"{sum(r['failed'] for r in results)} of {sum(r['attempted'] for r in results)}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, metavar="PARENT_DIR")
    ap.add_argument("change", type=Path, metavar="CHANGE_DIR")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("a spread needs at least 2 pairs")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    names = [m["name"] for m in metrics]
    print(f"# {args.workload}: {args.pairs} pairs, seeds {args.seed0}-"
          f"{args.seed0 + args.pairs - 1}, parent first on even pairs; "
          f"values parent/change: {', '.join(names)}", flush=True)
    pairs = []
    for i in range(args.pairs):
        seed = args.seed0 + i
        sides = [("parent", args.parent), ("change", args.change)]
        if i % 2:
            sides.reverse()
        got = {}
        for side, checkout in sides:
            try:
                got[side] = parse_result(run_once(spec["command"], checkout, args.workload,
                                                  seed, args.seconds))
            except RunFailed as exc:
                print(f"pair {i} seed {seed}: the {side} run failed: {exc}", flush=True)
                return 1
        pairs.append((got["parent"], got["change"]))
        print(f"pair {i} seed {seed} {sides[0][0]} first: " + ", ".join(
            f"{value(got['parent'], n):.6g}/{value(got['change'], n):.6g}" for n in names),
            flush=True)
    lines, worse = summarize(pairs, metrics)
    print(f"failed operations: parent {failed_share([p for p, _ in pairs])}, "
          f"change {failed_share([c for _, c in pairs])}")
    print("\n".join(lines))
    return 2 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
