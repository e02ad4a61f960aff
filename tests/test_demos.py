"""Every demo script runs to completion against the library in this checkout."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import otnewton

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SLOW = {"03_newton_vs_sinkhorn.py"}


@pytest.mark.parametrize("name", [
    pytest.param(p.name, marks=[pytest.mark.slow] if p.name in SLOW else [])
    for p in sorted(DEMOS.glob("*.py"))
])
def test_demo_exits_cleanly(name, tmp_path):
    env = dict(os.environ)
    src = str(Path(otnewton.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(tmp_path)  # demo 05 writes its bench files under a temp dir
    proc = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
