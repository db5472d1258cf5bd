"""One workload in one process, started by ``run.py``.

``--mode setup`` imports fsglab, generates the workload's inputs and
reports how long that took.  ``--mode run`` does the same, then runs the
workload's job list as a closed loop (each job starts when the previous one
returns, each repetition when the previous one ends) until ``--seconds``
would be exceeded, checks every output outside the timed region, and prints
one JSON object on its last stdout line.  With ``--trace 1`` the first half
of the time runs untraced and the second half traced, which gives the
per-layer numbers and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _maxrss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class _Raised:
    """A job that raised; always a failed job."""

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"


def _run_jobs(jobs, tracer=None):
    outs = []
    start = time.perf_counter()
    if tracer is None:
        for job in jobs:
            try:
                outs.append(job.run())
            except Exception as exc:  # a failed job is data, the loop goes on
                outs.append(_Raised(exc))
    else:
        with tracer.span("rep"):
            for job in jobs:
                with tracer.span("job." + job.kind):
                    try:
                        outs.append(job.run())
                    except Exception as exc:
                        outs.append(_Raised(exc))
    return time.perf_counter() - start, outs


class _Tally:
    """Output checks, run right after each repetition, outside its timing."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.censored: list[int] = []   # per repetition, lab only

    def check(self, rep: int, jobs, outs) -> None:
        censored = 0
        for job, out in zip(jobs, outs):
            self.attempted += 1
            try:
                ok = not isinstance(out, _Raised) and job.check(out, self.expected)
            except Exception as exc:  # a check that raises is a failed job
                ok = False
                out = _Raised(exc)
            if not ok:
                self.failed += 1
                self.failures.append(
                    f"rep {rep} {job.kind} {job.key}: "
                    + (out.text if isinstance(out, _Raised) else repr(out)[:200])
                )
            elif job.kind == "sweep":
                censored += out["censored"]
        self.censored.append(censored)


def _loop(wl, first_rep, first_jobs, budget_s, tally, tracer=None):
    """Repetitions until the next one would overrun ``budget_s``.

    Returns the wall time and span range of each repetition, the next
    repetition index, and the peak RSS after the first repetition, taken
    before any output check can add to it.
    """
    walls, spans, rss_first = [], [], None
    rep, jobs = first_rep, first_jobs
    t0 = time.perf_counter()
    while True:
        lo = len(tracer.spans) if tracer else 0
        wall, outs = _run_jobs(jobs, tracer)
        spans.append((lo, len(tracer.spans) if tracer else 0))
        walls.append(wall)
        if rss_first is None:
            rss_first = _maxrss_bytes()
        if tracer:
            with tracer.paused():
                tally.check(rep, jobs, outs)
        else:
            tally.check(rep, jobs, outs)
        rep += 1
        if time.perf_counter() - t0 + statistics.median(walls) > budget_s:
            return walls, spans, rep, rss_first
        jobs = wl.jobs(rep)


def _layer_metrics(tracer, setup_range, traced_walls, traced_spans,
                   untraced_walls, probes, peak_growth, tally) -> dict:
    setup_agg = tracer.aggregate(*setup_range)
    rep_aggs = [tracer.aggregate(*span) for span in traced_spans]

    def fn(name, field):
        part = setup_agg.get(name, {}).get(field, 0)
        return part + statistics.median(a.get(name, {}).get(field, 0) for a in rep_aggs)

    counters = tracer.counters
    n_traced = len(traced_walls)
    bc_self = fn("statespace.build_components", "self_s")
    bc_incl = fn("statespace.build_components", "s")
    states = counters["statespace.states"] / n_traced
    return {
        "statespace.build_components.calls": fn("statespace.build_components", "calls"),
        "statespace.build_components.s": bc_self,
        "statespace.states": states,
        "statespace.links": counters["statespace.links"] / n_traced,
        "statespace.states_per_s": states / bc_incl if bc_incl else 0.0,
        "statespace.enumerate.s": probes.get("enumerate", 0.0),
        "statespace.neighbors.s": probes.get("neighbors", 0.0),
        "statespace.union_label.s": (
            max(0.0, bc_self - probes["enumerate"] - probes["neighbors"])
            if probes else 0.0
        ),
        # only oracle-large's spaces are big enough for RSS growth to be theirs
        "statespace.peak_bytes_per_state": (
            peak_growth / counters["statespace.max_states"] if probes else 0.0
        ),
        "statespace.is_exchangeable.calls": fn("statespace.is_exchangeable", "calls"),
        "statespace.is_exchangeable.hits":
            counters["statespace.is_exchangeable.hits"] / n_traced,
        "statespace.is_exchangeable.s": fn("statespace.is_exchangeable", "self_s"),
        "statespace.quotient_audit.s": fn("statespace.quotient_audit", "self_s"),
        "orientations.enumerate_acyc.calls": fn("orientations.enumerate_acyc", "calls"),
        "orientations.enumerate_acyc.s": fn("orientations.enumerate_acyc", "self_s"),
        "orientations.acyc_count": counters["orientations.acyc_count"] / n_traced,
        "orientations.partition_by.calls": fn("orientations.partition_by", "calls"),
        "orientations.partition_by.s": fn("orientations.partition_by", "self_s"),
        "orientations.period_profile.s": fn("orientations.period_profile", "self_s"),
        "orientations.complement_of_lift.s": fn("orientations.complement_of_lift", "self_s"),
        "predictors.predict_multgraph_vs_star.calls":
            fn("predictors.predict_multgraph_vs_star", "calls"),
        "predictors.predict_multgraph_vs_star.s":
            fn("predictors.predict_multgraph_vs_star", "self_s"),
        "graphs.find_blocking_chains.s": fn("graphs.find_blocking_chains", "self_s"),
        "graphs.contingency_count.s": fn("graphs.contingency_count", "self_s"),
        "graphs.articulation_analysis.calls": fn("graphs.articulation_analysis", "calls"),
        "graphs.articulation_analysis.s": fn("graphs.articulation_analysis", "self_s"),
        "families.graph_classes.s": fn("families.graph_classes", "self_s"),
        "families.multiplicity_graphs.s": fn("families.multiplicity_graphs", "self_s"),
        "families.canonical_key.calls": fn("families.canonical_key", "calls"),
        "families.canonical_key.s": fn("families.canonical_key", "self_s"),
        "randomlab.find_packing.calls": fn("randomlab.find_packing", "calls"),
        "randomlab.find_packing.s": fn("randomlab.find_packing", "self_s"),
        "randomlab.censored_trials": statistics.median(tally.censored[-n_traced:]),
        "gadgets.build_gadget.s": fn("gadgets.build_gadget", "self_s"),
        "gadgets.validate_gadget.s": fn("gadgets.validate_gadget", "self_s"),
        "trace.overhead_frac": (
            statistics.median(traced_walls) / statistics.median(untraced_walls) - 1
        ),
        "failed_frac": tally.failed / tally.attempted,
    }


def _probe(spaces) -> dict:
    """Enumerate every state of the big spaces and generate its neighbours,
    timed apart from the union-find and labelling that build_components adds."""
    out = {"enumerate": 0.0, "neighbors": 0.0}
    for space in spaces:
        t0 = time.perf_counter()
        states = list(space.enumerate())
        t1 = time.perf_counter()
        for a in states:
            space.neighbors(a)
        t2 = time.perf_counter()
        out["enumerate"] += t1 - t0
        out["neighbors"] += t2 - t1
        del states
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full")
    ap.add_argument("--expected", default=os.path.join(ROOT, "perfbench", "expected.json"))
    ap.add_argument("--mode", choices=("run", "setup"), default="run")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import fsglab
    import workloads

    if not os.path.abspath(fsglab.__file__).startswith(SRC + os.sep):
        print(f"fsglab imported from {fsglab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS or args.size not in workloads.SIZES:
        print(f"unknown workload or size: {args.workload} {args.size}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.active = True
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size)
    jobs0 = wl.jobs(0)
    setup_s = time.perf_counter() - t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_range = (0, len(tracer.spans)) if tracer else (0, 0)
    if tracer:
        tracer.active = False
        tracer.uninstall()
        tracer.counters.clear()
    rss_setup = _maxrss_bytes()
    with open(args.expected, encoding="utf-8") as fh:
        tally = _Tally(json.load(fh)[args.size][args.workload])

    kinds: dict[str, int] = {}
    for job in jobs0:
        kinds[job.kind] = kinds.get(job.kind, 0) + 1
    budget = args.seconds / 2 if args.trace else args.seconds
    walls, _spans, next_rep, peak_rss = _loop(wl, 0, jobs0, budget, tally)
    del jobs0
    result = {
        "setup_s": setup_s,
        "walls": walls,
        "peak_rss_mb": peak_rss / 2**20,
        "jobs_per_rep": sum(kinds.values()),
        "jobs_by_kind": kinds,
    }

    if tracer:
        tracer.install()
        tracer.active = True
        traced_walls, traced_spans, _, _ = _loop(
            wl, next_rep, wl.jobs(next_rep), budget, tally, tracer)
        tracer.active = False
        probes = _probe(wl.probe_spaces()) if hasattr(wl, "probe_spaces") else {}
        result["layers"] = _layer_metrics(
            tracer, setup_range, traced_walls, traced_spans, walls, probes,
            peak_rss - rss_setup, tally)
        result["traced_walls"] = traced_walls
        out_dir = os.path.join(ROOT, "perfbench", "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(
            os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json"),
            {"setup": list(setup_range), "reps": [list(r) for r in traced_spans]},
        )
        tracer.uninstall()

    for line in tally.failures[:10]:
        print("FAILED " + line, file=sys.stderr)
    result["attempted"] = tally.attempted
    result["failed"] = tally.failed
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
