"""Write ``perfbench/expected.json``: every job's output at the default seed,
for both sizes, from the repository's current fsglab.

    python3 perfbench/make_expected.py

Run it only when a workload's job list changes, and review the diff: the
committed values are what later versions of fsglab are checked against.
A job whose seed-independent check fails (a predictor that disagrees with
its oracle, a non-monotone sweep) stops the script instead of being
recorded.  The known-red items are recorded as they are: the four
``double-mult-probe-small`` disagreements and ``p4_edge_budget = False`` in
every gadget check table.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402


def expected_for(name: str, size: str) -> dict:
    wl = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, size)
    reps = workloads.LAB_DIGEST_REPS if name == "lab" else 1
    sections: dict[str, list] = {}
    for rep in range(reps):
        for job in wl.jobs(rep):
            if job.key is None or (rep > 0 and job.key[0] != "sweep"):
                continue
            out = job.run()
            if not job.invariant(out):
                raise SystemExit(f"{name}/{size} {job.kind} {job.key}: "
                                 f"seed-independent check failed on {out!r}")
            section, index = job.key
            values = sections.setdefault(section, [])
            if index != len(values):
                raise SystemExit(f"{name}/{size}: job keys out of order at {job.key}")
            values.append(job.value(out))
    return sections


def main() -> int:
    out = {
        size: {name: expected_for(name, size) for name in workloads.NAMES}
        for size in workloads.SIZES
    }
    path = os.path.join(HERE, "expected.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    for size, by_name in out.items():
        for name, sections in by_name.items():
            print(size, name, {s: len(v) for s, v in sections.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
