"""Result digests of the benchmark's workloads, to show that a change keeps
(or which instances it moves in) the solver's results.

    python3 tools/digest.py WORKLOAD [WORKLOAD ...] [--out FILE]
    python3 tools/digest.py --compare OLD.json NEW.json

Run from the repository root; the library is imported from ``src/`` of the
checkout this script sits in.  Each instance of a workload (``perfbench``'s
fixed instance sets, solved with the workload's settings) is solved once,
and its digest is a SHA-256 over the rounded plan's bytes, the primal cost,
the lower and error bounds, ``RunReport`` minus ``wall_ms``, and the number
of anchored plans the solve took (calls of ``DualState._anchor_plan``).  One
digest over all instances closes each workload.  The output is JSON.

A solve that raises does not stop the run: its instance is recorded as
failed, with its label and the error's class, in place of a digest.

``--compare`` names the instances whose digests differ between two outputs,
with the anchors of each side, the relative move of the primal cost and
``certified_gap / error_bound`` of each side.  Workloads are matched by
name and instances by label; one that only one output holds counts as
moved, and so does one that failed on either side, whose line names each
side's error class (or "solved").  It ends each workload with a summary
line: the number of instances whose anchor counts moved, the largest
relative move of the primal cost, the largest move of
``certified_gap / error_bound`` and the failed instances of each side.  It
exits with 1 when any digest differs, else 0, so its status alone decides a
bit-identity claim.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from otnewton.dual import DualState  # noqa: E402
from perfbench import workloads  # noqa: E402


def count_anchors():
    """Wrap ``DualState._anchor_plan``; returns a one-entry list it counts into."""
    count = [0]
    anchor = DualState._anchor_plan

    def counted(state, *args, **kwargs):
        count[0] += 1
        return anchor(state, *args, **kwargs)

    DualState._anchor_plan = counted
    return count


def instance_digest(sol, anchors):
    report = {k: v for k, v in sol.report.__dict__.items() if k != "wall_ms"}
    h = hashlib.sha256(sol.P.tobytes())
    h.update(struct.pack("<3d", sol.primal_cost, sol.lower_bound, sol.error_bound))
    h.update(json.dumps(report, sort_keys=True).encode())
    h.update(struct.pack("<q", anchors))
    return h.hexdigest()


def digest_workload(name, count):
    """The digests of a workload's instances; a solve that raises is recorded
    as a failed instance, with its label and the error's class."""
    wl = workloads.build(name)
    out, total = [], hashlib.sha256()
    for prob in wl.problems:
        count[0] = 0
        try:
            sol = wl.solve(prob)
        except Exception as exc:  # any error fails the instance, and the run goes on
            failed = type(exc).__name__
            total.update(f"{prob.label} failed {failed}".encode())
            out.append({"label": prob.label, "failed": failed, "anchors": count[0]})
            continue
        sha = instance_digest(sol, count[0])
        total.update(sha.encode())
        out.append({"label": prob.label, "sha256": sha, "anchors": count[0],
                    "primal": sol.primal_cost, "error_bound": sol.error_bound,
                    "certified_gap": sol.report.certified_gap})
    return {"workload": name, "digest": total.hexdigest(), "instances": out}


def compare(old, new):
    """Lines naming each instance whose digest differs between two outputs,
    and a summary line per workload; and whether every digest is the same.

    Workloads are matched by name and instances by label, so the order of
    either output does not matter; a workload or an instance that only one
    output holds counts as moved."""
    lines, same_all = [], True
    old_w = {w["workload"]: w for w in old}
    new_w = {w["workload"]: w for w in new}
    for name in {**old_w, **new_w}:
        wo, wn = old_w.get(name), new_w.get(name)
        if wo is None or wn is None:
            lines.append(f"{name}: only in the {'new' if wo is None else 'old'} output")
            same_all = False
            continue
        old_i = {inst["label"]: inst for inst in wo["instances"]}
        new_i = {inst["label"]: inst for inst in wn["instances"]}
        labels = {**old_i, **new_i}
        moved = []
        anchors_moved, primal_move, ratio_move = 0, 0.0, 0.0
        failed = [sum("failed" in inst for inst in w["instances"]) for w in (wo, wn)]
        for label in labels:
            a, b = old_i.get(label), new_i.get(label)
            if a is None or b is None:
                moved.append(f"  {label}: only in the {'new' if a is None else 'old'} output")
                continue
            if "failed" in a or "failed" in b:
                moved.append(f"  {label}: {a.get('failed', 'solved')} -> "
                             f"{b.get('failed', 'solved')}")
                continue
            rel = abs(b["primal"] - a["primal"]) / abs(a["primal"])
            ratio_a = a["certified_gap"] / a["error_bound"]
            ratio_b = b["certified_gap"] / b["error_bound"]
            anchors_moved += a["anchors"] != b["anchors"]
            primal_move = max(primal_move, rel)
            ratio_move = max(ratio_move, abs(ratio_b - ratio_a))
            if a["sha256"] != b["sha256"]:
                moved.append(f"  {label}: anchors {a['anchors']} -> {b['anchors']}, "
                             f"primal moved {rel:.2e} relative, gap / bound "
                             f"{ratio_a:.6g} -> {ratio_b:.6g}")
        same = wo["digest"] == wn["digest"] and not moved
        same_all = same_all and same
        count = len(labels)
        lines.append(f"{name}: digest {'same' if same else 'differs'}, "
                     f"{len(moved)} of {count} instances moved")
        lines.extend(moved)
        lines.append(f"  summary: anchors moved on {anchors_moved} of {count}, primal moved "
                     f"at most {primal_move:.2e} relative, gap / bound at most {ratio_move:.2e}, "
                     f"failed {failed[0]} old, {failed[1]} new")
    return lines, same_all


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                    help=f"one of {', '.join(workloads.NAMES)}")
    ap.add_argument("--out", help="write the JSON here instead of standard output")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args(argv)
    if args.compare:
        old, new = (json.loads(Path(p).read_text()) for p in args.compare)
        lines, same = compare(old, new)
        print("\n".join(lines))
        return 0 if same else 1
    if not args.workloads:
        ap.error("name at least one workload, or --compare two outputs")
    count = count_anchors()
    text = json.dumps([digest_workload(name, count) for name in args.workloads], indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    sys.exit(main())
