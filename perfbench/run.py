"""Benchmark entry point for the otnewton solver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from ``src/`` of the
checkout.  ``setup_s`` is the median over ``SETUP_PROBES`` fresh processes of
the time from process start to the end of instance generation; the last of
those processes goes on to warm up, time and check solves (``worker.py``).
BLAS is pinned to one thread per available core and ``OTN_DETERMINISTIC`` is
removed from the environment, as users run the library.  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
# A run ends within this many seconds or is abandoned.
RUN_TIMEOUT_S = 170.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env():
    env = dict(os.environ)
    env.pop("OTN_DETERMINISTIC", None)
    threads = str(len(os.sched_getaffinity(0)))
    for key in BLAS_ENV:
        env[key] = threads
    return env, threads


def run_worker(args, extra, env, timeout):
    """Run one worker to its end; return (seconds from start to READY, stdout lines)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            out, _ = proc.communicate(timeout=timeout)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return ready, out.splitlines()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--toy", action="store_true",
                    help="tiny instances, for the benchmark's self-test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "otnewton" / "__init__.py").is_file():
        print(f"error: no otnewton sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_TIMEOUT_S
    env, threads = worker_env()
    extra = ["--toy"] if args.toy else []

    # Extra set-up probes stop after generating instances; the last worker runs.
    runs = [[*extra, "--setup-only"]] * (0 if args.trace else SETUP_PROBES - 1) + [extra]
    setups = []
    try:
        for worker_args in runs:
            ready, lines = run_worker(args, worker_args, env,
                                      max(1.0, deadline - time.perf_counter()))
            setups.append(ready)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if not lines:
        print("error: worker printed no result", file=sys.stderr)
        return 4
    result = json.loads(lines[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(f"# workload={args.workload} seed={args.seed} blas_threads={threads} "
          f"setup_probes_s={[round(s, 4) for s in setups]}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
