"""Spans around calls into fsglab's public functions, recorded from outside
the package.

``Tracer.install`` rebinds each traced function in every module namespace
that holds it (``build_components`` is bound in ``statespace``,
``predictors``, ``randomlab``, ``cli`` and the package root), so calls made
inside the library are caught as well as calls made by the benchmark.
Spans are kept in memory as ``(name, start, end, parent)`` tuples and
written out once, when the worker exits.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, function) pairs whose calls become spans.
TRACED = (
    ("statespace", "build_components"),
    ("statespace", "is_exchangeable"),
    ("statespace", "quotient_audit"),
    ("orientations", "enumerate_acyc"),
    ("orientations", "partition_by"),
    ("orientations", "period_profile"),
    ("orientations", "complement_of_lift"),
    ("predictors", "predict_multgraph_vs_star"),
    ("graphs", "find_blocking_chains"),
    ("graphs", "contingency_count"),
    ("graphs", "articulation_analysis"),
    ("families", "graph_classes"),
    ("families", "multiplicity_graphs"),
    ("families", "canonical_key"),
    ("randomlab", "find_packing"),
    ("gadgets", "build_gadget"),
    ("gadgets", "validate_gadget"),
)


def _count_components(counters: Counter, report) -> None:
    counters["statespace.states"] += report.vertex_count
    counters["statespace.links"] += 2 * report.edge_count
    if report.vertex_count > counters["statespace.max_states"]:
        counters["statespace.max_states"] = report.vertex_count


def _count_hit(counters: Counter, answer) -> None:
    counters["statespace.is_exchangeable.hits"] += bool(answer)


def _count_acyc(counters: Counter, orientations) -> None:
    counters["orientations.acyc_count"] += len(orientations)


# Counters read off a traced function's result.
_RESULT_COUNTERS = {
    "statespace.build_components": _count_components,
    "statespace.is_exchangeable": _count_hit,
    "orientations.enumerate_acyc": _count_acyc,
}


class Tracer:
    def __init__(self):
        self.spans: list = []      # (name, start, end, parent index or -1)
        self.counters: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._rebound: list = []   # (module, attribute, original)

    # -- spans ---------------------------------------------------------------

    def _open(self):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent, time.perf_counter()

    def _close(self, name: str, idx: int, parent: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent)

    @contextmanager
    def span(self, name: str):
        """A span recorded by the benchmark itself (a repetition, a job)."""
        if not self.active:
            yield
            return
        idx, parent, start = self._open()
        try:
            yield
        finally:
            self._close(name, idx, parent, start)

    @contextmanager
    def paused(self):
        """Calls made inside are not recorded (the untimed output checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    def _wrap(self, name: str, fn):
        count = _RESULT_COUNTERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx, parent, start = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, idx, parent, start)
            if count is not None:
                count(tracer.counters, result)
            return result

        return traced

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function wherever the package imported it."""
        if self._rebound:
            raise RuntimeError("tracer already installed")
        holders = [
            mod for modname, mod in sorted(sys.modules.items())
            if mod is not None
            and (modname == "fsglab" or modname.startswith("fsglab."))
        ]
        for modname, fname in TRACED:
            original = getattr(sys.modules["fsglab." + modname], fname)
            wrapper = self._wrap(f"{modname}.{fname}", original)
            for mod in holders:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._rebound.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    # -- aggregation -------------------------------------------------------------

    def aggregate(self, lo: int, hi: int) -> dict:
        """Per span name: calls, inclusive seconds and self seconds, over the
        spans recorded in [lo, hi).  Self time is a span's duration minus the
        durations of its direct children."""
        child_time: dict[int, float] = defaultdict(float)
        for i in range(lo, hi):
            _name, start, end, parent = self.spans[i]
            if parent >= lo:
                child_time[parent] += end - start
        out: dict[str, list] = {}
        for i in range(lo, hi):
            name, start, end, _parent = self.spans[i]
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += end - start
            acc[2] += end - start - child_time.get(i, 0.0)
        return {
            name: {"calls": c, "s": incl, "self_s": self_s}
            for name, (c, incl, self_s) in out.items()
        }

    def write(self, path: str, phases: dict) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": names,
                    "phases": phases,
                    "spans": [
                        [index[n], round(s, 7), round(e, 7), p]
                        for n, s, e, p in self.spans
                    ],
                },
                fh,
                separators=(",", ":"),
            )
