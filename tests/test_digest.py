"""``tools/digest.py``: per-instance result digests of the benchmark's workloads."""

import importlib.util
from pathlib import Path

from otnewton.dual import DualState

_spec = importlib.util.spec_from_file_location(
    "digest", Path(__file__).resolve().parent.parent / "tools" / "digest.py")
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)


def test_digests_repeat_and_compare_names_what_moved(monkeypatch):
    # On the toy batch (six n = 16 instances): two runs give the same
    # digests, every solve counts its anchors, and a changed instance is
    # the one ``--compare`` names.
    build = digest.workloads.build
    monkeypatch.setattr(digest.workloads, "build", lambda name: build(name, toy=True))
    monkeypatch.setattr(DualState, "_anchor_plan", DualState._anchor_plan)  # restored after
    count = digest.count_anchors()
    old, new = (digest.digest_workload("tn-mixed-n64-batch", count) for _ in range(2))
    assert old == new
    assert all(inst["anchors"] > 0 for inst in old["instances"])
    first = dict(new["instances"][0], sha256="0", anchors=new["instances"][0]["anchors"] + 1)
    new = dict(new, digest="0", instances=[first] + new["instances"][1:])
    lines = digest.compare([old], [new])
    assert lines[0] == "tn-mixed-n64-batch: digest differs, 1 of 6 instances moved"
    assert lines[1].startswith(f"  {first['label']}: anchors {first['anchors'] - 1} -> "
                               f"{first['anchors']}, primal moved 0.00e+00 relative")
    assert len(lines) == 2
    assert digest.compare([old], [old]) == [
        "tn-mixed-n64-batch: digest same, 0 of 6 instances moved"]
