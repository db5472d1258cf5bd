"""The benchmark's four workloads: inputs from a seed, one repetition's job
list, and the checks on every job's output.

``WORKLOADS[name](seed, size)`` enumerates a workload's base instances; that
enumeration, together with importing fsglab, is what ``setup_s`` times.
``Workload.jobs(rep)`` then builds one repetition's job list.  Every
repetition relabels positions and labels by permutations drawn from
``(seed, rep)``.  Component structure, predictor verdicts and exchange
answers are invariant under relabelling, so each job has a committed
expected output at every seed; the labelled inputs still differ between
repetitions and seeds, so a cache keyed on labelled graphs cannot replay an
earlier repetition's answers.

Why these four:

* ``oracle-large``: a few big state spaces; ``statespace`` does nearly all
  the work and has to amortise its per-space set-up.
* ``oracle-many``: thousands of small oracle calls and exchangeability
  queries, too short to amortise per-space set-up, so a change that helps
  ``oracle-large`` by precomputing whole-space tables shows its cost here.
* ``predict``: the path/cycle/coprime predictors, each followed by its
  oracle; ``orientations`` does most of the work, ``statespace`` little.
* ``lab``: the random lab's packing sweep and the exchange gadgets, with no
  oracle and no orientations.
"""

from __future__ import annotations

import hashlib
import random
from functools import partial

from fsglab import (
    families,
    gadgets,
    graphs,
    orientations,
    predictors,
    randomlab,
    statespace,
)
from fsglab.graphs import MultiplicityGraph, SimpleGraph

NAMES = ("oracle-large", "oracle-many", "predict", "lab")
SIZES = ("full", "tiny")

# At this seed the lab's sweep digests are checked against committed values;
# every other committed value holds at every seed.  2026 is the base seed of
# the c10 sweep configuration, which repetition 0 uses unchanged.
DEFAULT_SEED = 2026

# The lab sweep uses as many repetition digests as a run can need.
LAB_DIGEST_REPS = 16


class Job:
    """One closed-loop job: ``run`` is timed, the rest is not.

    ``key`` names the committed expected value as (section, index), or is
    None when no committed value applies; ``value`` projects the output onto
    what is committed; ``invariant`` holds the seed-independent checks.
    """

    __slots__ = ("kind", "key", "run", "value", "invariant")

    def __init__(self, kind, key, run, value=None, invariant=None):
        self.kind = kind
        self.key = key
        self.run = run
        self.value = value or (lambda out: out)
        self.invariant = invariant or (lambda out: True)

    def check(self, out, expected) -> bool:
        if self.key is not None:
            section, index = self.key
            if expected[section][index] != self.value(out):
                return False
        return bool(self.invariant(out))


# -- relabelling ---------------------------------------------------------------


def _rng(seed: int, rep: int) -> random.Random:
    return random.Random(seed * 1_000_003 + rep)


def _perm(n: int, rng: random.Random) -> list[int]:
    p = list(range(n))
    rng.shuffle(p)
    return p


def _relabel(g, perm):
    """The same graph with vertex v renamed perm[v] (multiplicities follow)."""
    if isinstance(g, MultiplicityGraph):
        mult = [0] * g.base.n
        for v, c in enumerate(g.mult):
            mult[perm[v]] = c
        return MultiplicityGraph(_relabel(g.base, perm), mult)
    return SimpleGraph(g.n, [(perm[u], perm[v]) for u, v in g.edge_list])


def _shuffle(g, rng):
    n = g.base.n if isinstance(g, MultiplicityGraph) else g.n
    return _relabel(g, _perm(n, rng))


def _pred_matches_oracle(out) -> bool:
    return out[0] == out[1]


# -- oracle-large ------------------------------------------------------------------


def _sorted_sizes(x, y, variant):
    rep = statespace.build_components(x, y, variant=variant)
    return sorted(rep.component_sizes)


def _audit(x, y):
    return statespace.quotient_audit(x, y)


class OracleLarge:
    """FS(K4,5, C9), FSm(C11, P4 x (3,3,3,2)), FSmm(C6, P6 with
    multiplicities (2,2,2,2,2,1)) and the lift quotient audit of
    (C8, P3 x (3,3,2))."""

    def __init__(self, seed: int, size: str):
        mg = MultiplicityGraph
        if size == "tiny":
            self.spaces = [
                ("fs", graphs.complete_bipartite_graph(2, 3), graphs.cycle_graph(5)),
                ("fsm", graphs.cycle_graph(5), mg(graphs.path_graph(3), (2, 2, 1))),
                ("fsmm", mg(graphs.cycle_graph(3), (2, 2, 1)),
                 mg(graphs.path_graph(3), (2, 2, 1))),
            ]
            self.audit = (graphs.cycle_graph(4), mg(graphs.path_graph(2), (2, 2)))
        else:
            self.spaces = [
                ("fs", graphs.complete_bipartite_graph(4, 5), graphs.cycle_graph(9)),
                ("fsm", graphs.cycle_graph(11),
                 mg(graphs.path_graph(4), (3, 3, 3, 2))),
                ("fsmm", mg(graphs.cycle_graph(6), (2, 2, 2, 2, 2, 1)),
                 mg(graphs.path_graph(6), (2, 2, 2, 2, 2, 1))),
            ]
            self.audit = (graphs.cycle_graph(8), mg(graphs.path_graph(3), (3, 3, 2)))
        self.seed = seed

    def jobs(self, rep: int) -> list[Job]:
        rng = _rng(self.seed, rep)
        out = []
        for i, (variant, x, y) in enumerate(self.spaces):
            out.append(Job("components", ("jobs", i), partial(
                _sorted_sizes, _shuffle(x, rng), _shuffle(y, rng), variant)))
        x, y = self.audit
        out.append(Job("quotient_audit", ("jobs", len(self.spaces)),
                       partial(_audit, _shuffle(x, rng), _shuffle(y, rng))))
        return out

    def probe_spaces(self):
        """The big spaces, for the traced enumerate/neighbors probes."""
        return [statespace.space_for(x, y, v) for v, x, y in self.spaces]


# -- oracle-many ------------------------------------------------------------------


def _cut_bound(y, x, margins):
    count = statespace.build_components(y, x, variant="fsm").component_count
    bound = max(graphs.contingency_count(r, c) for r, c in margins)
    return [count, bound]


def _bound_holds(out) -> bool:
    return out[0] >= out[1]


def _star_labels(x, star):
    predicted = predictors.predict_multgraph_vs_star(x, star)
    oracle = statespace.build_components(x, star, variant="fsm").component_count == 1
    return [predicted, oracle]


def _probe(x, star):
    v = predictors.double_multiplicity_bridge_probe(x, star)
    return [v.predicted, v.oracle]


def _exchange(x, y, a, u, v):
    return statespace.is_exchangeable(x, y, a, u, v)


def _component_totals(x: MultiplicityGraph, x0: int) -> list[int]:
    rest, old = x.base.subgraph(set(range(x.base.n)) - {x0})
    return [sum(x.mult[old[i]] for i in comp) for comp in rest.connected_components()]


def _component_sizes(y: SimpleGraph, y0: int) -> list[int]:
    rest, _ = y.subgraph(set(range(y.n)) - {y0})
    return [len(c) for c in rest.connected_components()]


class _ExchangeReference:
    """Component ids of one repetition's exchange space, computed once, in
    the untimed check phase, to cross-check every ``is_exchangeable``
    answer."""

    def __init__(self, x, y):
        self.x, self.y = x, y
        self.report = None

    def agrees(self, a, u, v, answer) -> bool:
        if self.report is None:
            self.report = statespace.build_components(self.x, self.y, variant="fs")
        target = tuple(u if t == v else v if t == u else t for t in a)
        same = self.report.component_of(tuple(a)) == self.report.component_of(target)
        return answer == same


class OracleMany:
    """Bundled ``cut-bound-small`` (every fifth instance), ``thm16-small``
    and ``double-mult-probe-small`` instances, plus exchangeability queries
    for every label pair from two starts on FS(C8, complement of P8)."""

    CUT_BOUND_STRIDE = 5
    EXCHANGE_N = 8
    EXCHANGE_STARTS = 2

    def __init__(self, seed: int, size: str):
        self.seed = seed
        tiny = size == "tiny"
        total_max = 4 if tiny else 6
        self.cut_bound = []   # (position graph y, label graph x, margins)
        for x in families.multiplicity_graphs(total_max, total_max, connected=True):
            if x.base.n < 3:
                continue
            cuts, _ = graphs.articulation_analysis(x.base)
            unit_cuts = [v for v in cuts if x.mult[v] == 1]
            if not unit_cuts:
                continue
            for y in families.graph_classes(x.total, connected=True):
                ycuts, _ = graphs.articulation_analysis(y)
                if ycuts:
                    margins = [
                        (_component_totals(x, x0), _component_sizes(y, y0))
                        for x0 in unit_cuts for y0 in ycuts
                    ]
                    self.cut_bound.append((y, x, margins))
        self.cut_bound = self.cut_bound[::self.CUT_BOUND_STRIDE]

        self.star_labels = []
        for n in range(3, (4 if tiny else 6) + 1):
            stars = families.star_mult_configs(n, centers=(2, 3), sizes=(3, 4))
            for x in families.graph_classes(n, connected=True) if stars else ():
                self.star_labels.extend((x, star) for star in stars)

        self.probes = []
        for n in range(4, (4 if tiny else 5) + 1):
            stars = families.star_mult_configs(n, centers=(2, 3), sizes=(3,))
            for base in families.graph_classes(n, connected=True):
                for mults in families.mult_lists(base.n, 6):
                    x = MultiplicityGraph(base, mults)
                    self.probes.extend(
                        (x, star) for star in stars if star.total == x.total)

        n = 5 if tiny else self.EXCHANGE_N
        self.exchange_space = (graphs.cycle_graph(n),
                               graphs.complement(graphs.path_graph(n)))
        start_rng = random.Random(n)
        self.exchanges = []   # (start arrangement, u, v)
        for u in range(n):
            for v in range(u + 1, n):
                for _ in range(self.EXCHANGE_STARTS):
                    self.exchanges.append((tuple(_perm(n, start_rng)), u, v))
        if tiny:
            self.cut_bound = self.cut_bound[:20]
            self.star_labels = self.star_labels[:20]
            self.probes = self.probes[:4]

    def jobs(self, rep: int) -> list[Job]:
        rng = _rng(self.seed, rep)
        out = []
        for i, (y, x, margins) in enumerate(self.cut_bound):
            out.append(Job("cut_bound", ("cut_bound", i),
                           partial(_cut_bound, _shuffle(y, rng), _shuffle(x, rng), margins),
                           invariant=_bound_holds))
        for i, (x, star) in enumerate(self.star_labels):
            out.append(Job("star_labels", ("star_labels", i),
                           partial(_star_labels, _shuffle(x, rng), _shuffle(star, rng)),
                           invariant=_pred_matches_oracle))
        for i, (x, star) in enumerate(self.probes):
            # disagreements are recorded in the expected values, not excused
            out.append(Job("probe", ("probe", i),
                           partial(_probe, _shuffle(x, rng), _shuffle(star, rng))))
        x, y = self.exchange_space
        pos, lab = _perm(x.n, rng), _perm(y.n, rng)
        xr, yr = _relabel(x, pos), _relabel(y, lab)
        ref = _ExchangeReference(xr, yr)
        for i, (a, u, v) in enumerate(self.exchanges):
            ar = [0] * len(a)
            for p, t in enumerate(a):
                ar[pos[p]] = lab[t]
            ar = tuple(ar)
            out.append(Job("exchange", ("exchange", i),
                           partial(_exchange, xr, yr, ar, lab[u], lab[v]),
                           invariant=partial(ref.agrees, ar, lab[u], lab[v])))
        return out


# -- predict ----------------------------------------------------------------------


def _path_job(x, pos):
    predicted = orientations.predict_path_components(x)
    oracle = statespace.build_components(pos, x, variant="fsm").component_count
    return [predicted, oracle]


def _cycle_job(x, pos):
    predicted = orientations.predict_cycle_components(x)
    oracle = statespace.build_components(pos, x, variant="fsm").component_count
    return [predicted, oracle]


def _coprime_job(x, pos):
    predicted = orientations.coprime_forest_connected(x)
    oracle = statespace.build_components(pos, x, variant="fsm").component_count == 1
    return [predicted, oracle]


class Predict:
    """Path, cycle and coprime-forest predictors, each followed by its
    oracle, over every fifth graph of ``multiplicity_graphs(4, 7)``."""

    STRIDE = 5

    def __init__(self, seed: int, size: str):
        self.seed = seed
        if size == "tiny":
            self.labels = families.multiplicity_graphs(3, 4)[::self.STRIDE]
        else:
            self.labels = families.multiplicity_graphs(4, 7)[::self.STRIDE]
        totals = {x.total for x in self.labels}
        self.paths = {n: graphs.path_graph(n) for n in totals}
        self.cycles = {n: graphs.cycle_graph(n) for n in totals if n >= 3}

    def jobs(self, rep: int) -> list[Job]:
        rng = _rng(self.seed, rep)
        out = []
        for x in self.labels:
            xr = _shuffle(x, rng)
            plan = [("path", _path_job, self.paths[x.total])]
            if x.total >= 3:
                cycle = self.cycles[x.total]
                plan += [("cycle", _cycle_job, cycle), ("coprime", _coprime_job, cycle)]
            for kind, fn, pos in plan:
                out.append(Job(kind, ("jobs", len(out)), partial(fn, xr, pos),
                               invariant=_pred_matches_oracle))
        return out


# -- lab ----------------------------------------------------------------------------


def _sweep(cfg):
    res = randomlab.run_sweep(cfg)
    return {
        "csv_sha256": hashlib.sha256(res.to_csv().encode("utf-8")).hexdigest(),
        "censored": sum(c.censored for c in res.cells),
        "cells": [[c.successes, c.censored] for c in res.cells],
        "outcomes": res.outcomes,
    }


def _sweep_value(out):
    return [out["csv_sha256"], out["censored"]]


def _sweep_consistent(out) -> bool:
    """Each trial's packing outcome is non-increasing in p (the grid is
    coupled), and the cell counts agree with the outcomes."""
    rows = out["outcomes"]
    for t in range(len(rows[0]) if rows else 0):
        seen = [row[t] for row in rows if row[t] is not None]
        if any(a < b for a, b in zip(seen, seen[1:])):
            return False
    for (succ, cens), row in zip(out["cells"], rows):
        if succ != sum(1 for o in row if o) or cens != sum(1 for o in row if o is None):
            return False
    return True


def _gadget(rho, scale, seed):
    pair = gadgets.build_gadget(gadgets.desk_params(rho, scale))
    report = gadgets.validate_gadget(pair, seed=seed)
    return {name: c["passed"] for name, c in report.checks.items()}


class Lab:
    """The c10 packing sweep shape (gnp, n=20, 21 p values) and the four
    desk gadgets built and validated at scale 32.

    Repetition r sweeps with base seed ``seed + 1_000_003 * r``, so
    repetition 0 at the default seed is the c10 base seed.  Unlike the other
    workloads the sweep's cost moves with its base seed (censored trials run
    to the node budget), and varying it per repetition averages that over a
    run.
    """

    TRIALS = 24
    NODE_BUDGET = 20_000

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.check_digests = seed == DEFAULT_SEED
        if size == "tiny":
            self.n, self.p_grid, self.trials = 12, [0.1 * k for k in range(11)], 2
            self.rhos, self.scale = (1, 3), 16
        else:
            self.n, self.p_grid, self.trials = 20, [0.05 * k for k in range(21)], self.TRIALS
            self.rhos, self.scale = (1, 2, 3, 4), 32

    def jobs(self, rep: int) -> list[Job]:
        cfg = randomlab.ExperimentConfig(
            model="gnp", n=self.n, p_grid=list(self.p_grid), trials=self.trials,
            base_seed=self.seed + 1_000_003 * rep, statistic="isolated-vertex",
            node_budget=self.NODE_BUDGET,
        )
        key = ("sweep", rep) if self.check_digests and rep < LAB_DIGEST_REPS else None
        out = [Job("sweep", key, partial(_sweep, cfg), value=_sweep_value,
                   invariant=_sweep_consistent)]
        for i, rho in enumerate(self.rhos):
            # the check table includes the known-red p4_edge_budget = False
            out.append(Job("gadget", ("gadget", i),
                           partial(_gadget, rho, self.scale, self.seed + rep)))
        return out


WORKLOADS = {
    "oracle-large": OracleLarge,
    "oracle-many": OracleMany,
    "predict": Predict,
    "lab": Lab,
}
