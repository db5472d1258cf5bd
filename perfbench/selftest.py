"""Self-test of the benchmark itself, run from the repository root:

    python3 perfbench/selftest.py

* every workload at the tiny size, untraced and traced, prints exactly the
  metrics ``BENCHMARK.json`` names, each with its unit, and no failed job;
* a deliberately wrong expected value makes that workload report failed
  jobs (``failed_frac`` > 0), for every workload;
* without ``src/fsglab`` beside it the benchmark exits non-zero and prints
  no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def _run(cwd, workload, trace, seed=7, expected=None):
    argv = [sys.executable, os.path.join("perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--size", "tiny"]
    if expected:
        argv += ["--expected", expected]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=180, check=False)


def _result(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-1000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    return result


def _check_metrics(result: dict, names: list, where: str) -> None:
    want = {m["name"]: m["unit"] for m in names}
    got = result["metrics"]
    if set(got) != set(want):
        raise AssertionError(f"{where}: metrics {sorted(set(got) ^ set(want))} differ")
    for name, unit in want.items():
        value = got[name]
        if value.get("unit") != unit or not isinstance(value.get("value"), (int, float)):
            raise AssertionError(f"{where}: {name} printed as {value}")


def _corrupt(v):
    if isinstance(v, bool):
        return not v
    if isinstance(v, (int, float)):
        return v + 1
    if isinstance(v, str):
        return v[::-1]
    if isinstance(v, list):
        return [_corrupt(v[0])] + v[1:] if v else [0]
    key = sorted(v)[0]
    return {**v, key: _corrupt(v[key])}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.NAMES):
        raise AssertionError(f"BENCHMARK.json names {names}")

    for name in names:
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = _result(_run(ROOT, name, trace))
            _check_metrics(result, metrics, f"{name} trace={trace}")
            if not result["correct"] or result["failed"]:
                raise AssertionError(f"{name} trace={trace}: {result['failed']} failed")
        print(f"ok   {name}: every metric printed with its unit, no failed job")

    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-selftest-") as tmp:
        cases = [(name, sorted(expected["tiny"][name])[0], 7) for name in names]
        cases.append(("lab", "sweep", workloads.DEFAULT_SEED))
        for name, section, seed in cases:
            wrong = json.loads(json.dumps(expected))
            values = wrong["tiny"][name][section]
            values[0] = _corrupt(values[0])
            path = os.path.join(tmp, "expected.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(wrong, fh)
            for trace in (0, 1):
                result = _result(_run(ROOT, name, trace, seed=seed, expected=path))
                if result["correct"] or result["failed"] == 0:
                    raise AssertionError(f"{name}/{section}: wrong expected value passed")
                if trace and result["metrics"]["failed_frac"]["value"] <= 0:
                    raise AssertionError(f"{name}/{section}: failed_frac is 0")
            print(f"ok   {name}: wrong expected {section}[0] gives "
                  f"{result['failed']}/{result['attempted']} failed")

        bare = os.path.join(tmp, "bare")
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = _run(bare, names[0], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            raise AssertionError("ran without src/fsglab")
        print(f"ok   without src/fsglab: exit {proc.returncode}, no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
