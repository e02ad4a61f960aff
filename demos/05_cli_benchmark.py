"""Drive the command-line benchmark harness end to end from Python.

Generates problem files, writes a sweep config comparing two decay
schedules, runs the sweep, and prints the aggregated summary table.
The same flow works from a shell:

    otnewton gen --side 8 --marginal smooth-random --seed 1 --out p.otp
    otnewton solve --problem p.otp --gamma-final 16384 --trace trace.csv
    otnewton bench --config bench.json --output-dir out/
"""

import json
import tempfile
from pathlib import Path

from otnewton.cli import main

with tempfile.TemporaryDirectory(prefix="otnewton-demo-") as tmp:
    workdir = Path(tmp)
    config = {
        "problems": [
            {"kind": "grid", "metric": "l2sq", "side": 8, "marginal": "smooth-random",
             "seed": s} for s in (1, 2, 3)
        ],
        "settings": [
            {"name": "adaptive", "gamma_i": 32, "gamma_f": 2 ** 12,
             "q_init": 2.0, "adaptive_q": True},
            {"name": "fixed-q2", "gamma_i": 32, "gamma_f": 2 ** 12,
             "q_init": 2.0, "adaptive_q": False},
        ],
        "seeds": [0],
        "output_dir": str(workdir / "results"),
    }
    config_path = workdir / "bench.json"
    config_path.write_text(json.dumps(config, indent=2))

    code = main(["bench", "--config", str(config_path)])
    assert code == 0

    print("\nsummary.csv:")
    print((workdir / "results" / "summary.csv").read_text())
    reports = len(list((workdir / "results").glob("*.json")))
    print(f"{reports} per-run reports and traces were written beside summary.csv; "
          "their temporary directory is removed on exit")
