"""fsglab benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload oracle-large --seed 2026 --seconds 25 --trace 0

Workloads (see ``workloads.py`` for why each exists): ``oracle-large``,
``oracle-many``, ``predict``, ``lab``.  The workload runs in a child
process (``worker.py``) so its peak RSS is its own; load is that one
process with no extra threads, a closed loop of jobs.  The last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is the run record (machine, source digest,
seed, job counts, wall-time quartiles).

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median time of one
repetition of the job list), ``setup_s`` (median over 5 to 9 fresh
processes of importing fsglab and generating the inputs) and
``peak_rss_mb`` (the worker's peak RSS after set-up and one repetition,
before any output check).  ``--trace 1`` reports the per-layer metrics named in
``BENCHMARK.json`` and writes every span to ``perfbench/out/``.

Every job's output is checked against ``expected.json`` and
seed-independent invariants; a wrong or raising job counts in ``failed``.
``--size tiny`` and ``--expected`` exist for ``selftest.py``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# setup_s is the median of 5 to 9 fresh processes: more while they are cheap
SETUP_SAMPLES = (5, 9)
SETUP_BUDGET_S = 4.0
RUN_LIMIT_S = 170.0


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _worker(root: str, argv: list[str], timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")] + argv,
        cwd=root, stdout=subprocess.PIPE, timeout=max(timeout, 1.0),
        text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {argv} exited with {proc.returncode}")
    return json.loads(lines[-1])


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _git_commit(root: str):
    head = _read(os.path.join(root, ".git", "HEAD")).strip()
    if head.startswith("ref: "):
        ref = head[5:]
        commit = _read(os.path.join(root, ".git", ref)).strip()
        if not commit:
            for line in _read(os.path.join(root, ".git", "packed-refs")).splitlines():
                if line.endswith(" " + ref):
                    commit = line.split()[0]
        return commit or None
    return head or None


def _source_digest(root: str) -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "fsglab", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _machine() -> dict:
    cpu = next(
        (line.split(":", 1)[1].strip()
         for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor() or None,
    )
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(os.path.join(index, "level")).strip()
        kind = _read(os.path.join(index, "type")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(os.path.join(index, "size")).strip()
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "platform": platform.platform(),
    }


def _quartiles(xs: list[float]) -> list[float]:
    if len(xs) < 2:
        return [xs[0]] * 3
    return statistics.quantiles(xs, n=4, method="inclusive")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--expected", default=os.path.join(HERE, "expected.json"))
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fsglab", "__init__.py")):
        return _fail("run from the root of an fsglab checkout (src/fsglab is missing)")
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return _fail(f"unknown workload {args.workload!r}")

    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--size", args.size]
    try:
        res = _worker(root, common + [
            "--mode", "run", "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--expected", os.path.abspath(args.expected),
        ], deadline - time.monotonic())
        setups = [res["setup_s"]]
        t0 = time.monotonic()
        while not args.trace and len(setups) < SETUP_SAMPLES[1] and (
                len(setups) < SETUP_SAMPLES[0] or time.monotonic() - t0 < SETUP_BUDGET_S):
            setups.append(_worker(root, common + ["--mode", "setup"],
                                  deadline - time.monotonic())["setup_s"])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        return _fail(str(exc))

    walls = res["walls"]
    if args.trace:
        values = res["layers"]
        names = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        names = spec["end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in values]
    if missing:
        return _fail(f"worker did not report {missing}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "machine": _machine(),
        "jobs_per_rep": res["jobs_per_rep"],
        "jobs_by_kind": res["jobs_by_kind"],
        "wall_s": {"samples": len(walls), "quartiles": _quartiles(walls),
                   "values": walls},
        "setup_s": {"samples": len(setups), "values": setups},
        "peak_rss_mb": res["peak_rss_mb"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failed_frac": res["failed"] / res["attempted"],
    }
    if args.trace:
        record["traced_wall_s"] = res["traced_walls"]
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
