"""``tools/digest.py``: per-instance result digests of the benchmark's workloads."""

import importlib.util
import json
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
    lines, same = digest.compare([old], [new])
    assert not same
    assert lines[0] == "tn-mixed-n64-batch: digest differs, 1 of 6 instances moved"
    assert lines[1].startswith(f"  {first['label']}: anchors {first['anchors'] - 1} -> "
                               f"{first['anchors']}, primal moved 0.00e+00 relative")
    assert lines[2] == ("  summary: anchors moved on 1 of 6, primal moved at most 0.00e+00 "
                        "relative, gap / bound at most 0.00e+00, failed 0 old, 0 new")
    assert len(lines) == 3
    assert digest.compare([old], [old]) == ([
        "tn-mixed-n64-batch: digest same, 0 of 6 instances moved",
        "  summary: anchors moved on 0 of 6, primal moved at most 0.00e+00 relative, "
        "gap / bound at most 0.00e+00, failed 0 old, 0 new"], True)


def inst(label, primal, gap, anchors):
    return {"label": label, "sha256": f"{label}{primal}", "anchors": anchors,
            "primal": primal, "error_bound": 1.0, "certified_gap": gap}


def test_summary_takes_the_largest_moves():
    # Two instances: the primal moves by 1e-8 and 3e-8 relative, the ratio
    # certified_gap / error_bound by 0.25 and 0.125, and one anchor count.
    old = [{"workload": "w", "digest": "a", "instances": [inst("x", 1.0, 0.5, 3),
                                                          inst("y", 2.0, 0.25, 4)]}]
    new = [{"workload": "w", "digest": "b", "instances": [inst("x", 1.0 + 1e-8, 0.25, 3),
                                                          inst("y", 2.0 + 6e-8, 0.375, 5)]}]
    lines, same = digest.compare(old, new)
    assert not same
    assert lines[0] == "w: digest differs, 2 of 2 instances moved"
    assert lines[-1] == ("  summary: anchors moved on 1 of 2, primal moved at most 3.00e-08 "
                         "relative, gap / bound at most 2.50e-01, failed 0 old, 0 new")
    assert len(lines) == 4


def test_matches_workloads_by_name_and_instances_by_label(tmp_path):
    # Two workloads listed in the other order compare as the same; an
    # instance or a workload that only one output holds counts as moved,
    # and the exit status says whether every digest is the same.
    x, y = inst("x", 1.0, 0.5, 3), inst("y", 2.0, 0.25, 4)
    v = {"workload": "v", "digest": "d", "instances": [x]}
    w = {"workload": "w", "digest": "e", "instances": [x, y]}
    lines, same = digest.compare([v, w], [w, v])
    assert same
    assert [line for line in lines if not line.startswith(" ")] == [
        "v: digest same, 0 of 1 instances moved", "w: digest same, 0 of 2 instances moved"]

    short = dict(w, digest="f", instances=[y])
    lines, same = digest.compare([v, w], [short])
    assert not same
    assert lines[:3] == ["v: only in the old output",
                         "w: digest differs, 1 of 2 instances moved",
                         "  x: only in the old output"]
    assert lines[3] == ("  summary: anchors moved on 0 of 2, primal moved at most 0.00e+00 "
                        "relative, gap / bound at most 0.00e+00, failed 0 old, 0 new")
    lines, same = digest.compare([short], [w])
    assert not same and lines[1] == "  x: only in the new output"

    def status(old, new):
        paths = []
        for name, out in (("old", old), ("new", new)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(json.dumps(out))
        return digest.main(["--compare", *map(str, paths)])

    assert status([v, w], [w, v]) == 0
    assert status([v, w], [v, short]) == 1
    moved = dict(w, digest="g", instances=[x, dict(y, sha256="0")])
    assert status([v, w], [v, moved]) == 1


def test_a_solve_that_raises_is_a_failed_instance(monkeypatch):
    # On the toy batch, the second instance's solve raises: the run goes on,
    # records its label and error class in place of a digest, and --compare
    # counts it as moved against a run where it solved, also when both
    # sides failed, and prints each side's failed count.
    from otnewton.errors import NonconvergenceError

    build = digest.workloads.build
    monkeypatch.setattr(digest.workloads, "build", lambda name: build(name, toy=True))
    monkeypatch.setattr(DualState, "_anchor_plan", DualState._anchor_plan)  # restored after
    count = digest.count_anchors()
    good = digest.digest_workload("tn-mixed-n64-batch", count)

    def failing_build(name):
        wl = build(name, toy=True)
        bad = wl.problems[1].label
        solve = wl.solve

        def solve_or_raise(prob):
            if prob.label == bad:
                raise NonconvergenceError("no convergence")
            return solve(prob)

        wl.solve = solve_or_raise
        return wl

    monkeypatch.setattr(digest.workloads, "build", failing_build)
    bad = digest.digest_workload("tn-mixed-n64-batch", count)
    label = good["instances"][1]["label"]
    assert bad["instances"][1] == {"label": label, "failed": "NonconvergenceError",
                                   "anchors": 0}
    assert bad["instances"][0] == good["instances"][0]
    assert bad["instances"][2:] == good["instances"][2:]
    assert bad["digest"] != good["digest"]

    lines, same = digest.compare([good], [bad])
    assert not same
    assert lines[:2] == ["tn-mixed-n64-batch: digest differs, 1 of 6 instances moved",
                         f"  {label}: solved -> NonconvergenceError"]
    assert lines[2].endswith("failed 0 old, 1 new")
    lines, same = digest.compare([bad], [bad])
    assert not same
    assert lines[1] == f"  {label}: NonconvergenceError -> NonconvergenceError"
    assert lines[2].endswith("failed 1 old, 1 new")
