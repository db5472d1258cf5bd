"""Executable connectivity predictors and the predictor-vs-oracle harness.

Each predictor answers a connectivity (or component-count) question about a
swap state space from graph structure alone; ``verify_family`` sweeps an
enumerated instance family and compares every prediction against the
brute-force component oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Optional

from .graphs import (
    MultiplicityGraph,
    SimpleGraph,
    articulation_analysis,
    contingency_count,
    find_blocking_chains,
    find_k_bridges,
    graph_to_json_dict,
    path_graph,
    cycle_graph,
    star_graph,
    star_center,
    _wilson_star_components,
)
from .orientations import (
    coprime_forest_connected,
    predict_cycle_components,
    predict_path_components,
)
from .statespace import build_components
from . import families


class PreconditionError(ValueError):
    pass


@dataclass
class Verdict:
    family: str
    instance: dict
    predicted: object
    oracle: object
    asserted: bool = True

    @property
    def agree(self) -> bool:
        return self.predicted == self.oracle

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "instance": self.instance,
            "predicted": self.predicted,
            "oracle": self.oracle,
            "agree": self.agree,
            "asserted": self.asserted,
        }


# -- star-position connectivity (multiplicities on the label graph) ------------


def predict_star_vs_multgraph(x: MultiplicityGraph) -> bool:
    """Connectivity of the swap space with star positions and multiplicity
    labels x: Wilsonian label graphs always connect; biconnected ones need
    some repeated label; otherwise every cut vertex must repeat."""
    if not x.base.is_connected():
        raise PreconditionError("label graph must be connected")
    cuts, biconnected = articulation_analysis(x.base)
    if _wilson_star_components(x.base, biconnected) == 1:  # Wilsonian
        return True
    if biconnected:
        return any(c >= 2 for c in x.mult)
    return all(x.mult[v] >= 2 for v in cuts)


# -- multiplicity-star labels on an arbitrary position graph -------------------


def predict_multgraph_vs_star(x: SimpleGraph, star: MultiplicityGraph) -> bool:
    """Connectivity of the swap space with position graph x and star labels.

    Cycles follow the cyclic-order rule; otherwise connectivity fails exactly
    when the position graph contains a blocking chain as long as the blank
    count (k-bridges for k >= 3, a big-sided cut edge for k = 2).
    """
    if not x.is_connected():
        raise PreconditionError("position graph must be connected")
    m = star.base.n
    if m <= 2:
        raise PreconditionError("star must have more than 2 vertices")
    center = star_center(star.base)
    k = star.mult[center]
    if k < 2:
        raise PreconditionError("center multiplicity must be at least 2")
    if star.total != x.n:
        raise PreconditionError("total multiplicity must match |V(x)|")
    if x.is_cycle_graph():
        leaves = [star.mult[v] for v in range(m) if v != center]
        return m == 3 and min(leaves) == 1
    return not find_blocking_chains(x, k)


def small_support_connectivity(x: SimpleGraph, star: MultiplicityGraph) -> bool:
    """Oracle connectivity for a support of blank-count-plus-two vertices.

    Used to validate that any connected non-path non-cycle support of k+2
    vertices lets the two non-blank labels trade places.
    """
    center = star_center(star.base)
    k = star.mult[center]
    if x.n != k + 2:
        raise PreconditionError("support must have center-multiplicity + 2 vertices")
    report = build_components(x, star, variant="fsm")
    return report.component_count == 1


def double_multiplicity_bridge_probe(
    x: MultiplicityGraph, star: MultiplicityGraph, budget: Optional[int] = None
) -> Verdict:
    """Exploration probe for the double-multiplicity star question: predict
    connectivity by the absence of an all-unit-multiplicity bridge of length
    equal to the center multiplicity; record (never assert) the oracle.

    It lacks the two-blank case: for center multiplicity 2 ``find_k_bridges``
    finds nothing on a connected base, where ``find_blocking_chains(x.base,
    2)`` finds the all-unit chain behind each of the four disagreements in
    ``double-mult-probe-small``."""
    if x.total != star.total:
        raise PreconditionError("totals must match")
    center = star_center(star.base)
    k = star.mult[center]
    bridges = find_k_bridges(x.base, k)
    predicted = not any(
        all(x.mult[a] == 1 for a in br) for br in bridges
    )
    report = build_components(x, star, budget=budget, variant="fsmm")
    return Verdict(
        family="double-multiplicity-star-probe",
        instance={
            "x": graph_to_json_dict(x),
            "star": graph_to_json_dict(star),
        },
        predicted=predicted,
        oracle=report.component_count == 1,
        asserted=False,
    )


# -- the theorem table -----------------------------------------------------------


@dataclass(frozen=True)
class Theorem:
    """A checked statement: its predictor and the oracle question it answers.

    ``predict`` takes a multiplicity label graph x, or for thm16 a position
    graph x and a multiplicity star.  The oracle runs ``positions(x.total)``
    against the labels x, or x against the star when ``positions`` is None,
    and reports ``component_count == 1`` when ``connected``, else
    ``component_count``.
    """

    family: str
    predict: Callable
    positions: Optional[Callable[[int], SimpleGraph]]
    connected: bool

    def oracle(self, x, star=None, budget: Optional[int] = None):
        if self.positions is None:
            report = build_components(x, star, budget=budget, variant="fsm")
        else:
            report = build_components(self.positions(x.total), x,
                                      budget=budget, variant="fsm")
        return report.component_count == 1 if self.connected \
            else report.component_count


THEOREMS = {
    "thm14": Theorem("star-positions", predict_star_vs_multgraph, star_graph, True),
    "thm16": Theorem("star-labels", predict_multgraph_vs_star, None, True),
    "cor511": Theorem("cycle-connectivity", coprime_forest_connected, cycle_graph, True),
    "path-count": Theorem("path-count", predict_path_components, path_graph, False),
    "cycle-count": Theorem("cycle-count", predict_cycle_components, cycle_graph, False),
}


# -- the sweep harness ----------------------------------------------------------


def _instance_dict(**kwargs) -> dict:
    out = {}
    for key, val in kwargs.items():
        if isinstance(val, (SimpleGraph, MultiplicityGraph)):
            out[key] = graph_to_json_dict(val)
        else:
            out[key] = val
    return out


def _theorem_verdicts(name: str, max_n: int, total_max: int) -> Iterator[Verdict]:
    """Every multiplicity label graph of the family against its theorem's
    positions; star positions need a connected label graph and record n."""
    theorem = THEOREMS[name]
    star = theorem.positions is star_graph
    for x in families.multiplicity_graphs(max_n, total_max, connected=star):
        if theorem.positions is cycle_graph and x.total < 3:
            continue
        yield Verdict(
            family=theorem.family,
            instance=_instance_dict(x=x, n=x.total) if star else _instance_dict(x=x),
            predicted=theorem.predict(x),
            oracle=theorem.oracle(x),
        )


def _bridge_family_verdicts(max_n: int) -> Iterator[Verdict]:
    theorem = THEOREMS["thm16"]
    for n in range(3, max_n + 1):
        stars = families.star_mult_configs(n, centers=(2, 3), sizes=(3, 4))
        if not stars:
            continue
        for x in families.graph_classes(n, connected=True):
            for star in stars:
                yield Verdict(
                    family=theorem.family,
                    instance=_instance_dict(x=x, star=star),
                    predicted=theorem.predict(x, star),
                    oracle=theorem.oracle(x, star),
                )


def _cut_vertex_bound_verdicts(total_max: int) -> Iterator[Verdict]:
    """Lower bound via contingency tables: label graphs with a unit-multiplicity
    cut vertex against position graphs with a cut vertex."""
    for x in families.multiplicity_graphs(total_max, total_max, connected=True):
        base = x.base
        if base.n < 3:
            continue
        cuts, _ = articulation_analysis(base)
        unit_cuts = [v for v in cuts if x.mult[v] == 1]
        if not unit_cuts:
            continue
        n = x.total
        for y in families.graph_classes(n, connected=True):
            ycuts, _ = articulation_analysis(y)
            if not ycuts:
                continue
            report = build_components(y, x, variant="fsm")
            bound = 0
            for x0 in unit_cuts:
                for y0 in ycuts:
                    rows = _component_totals(x, x0)
                    cols = _component_sizes(y, y0)
                    bound = max(bound, contingency_count(rows, cols))
            yield Verdict(
                family="cut-vertex-bound",
                instance=_instance_dict(x=x, y=y),
                predicted=True,
                oracle=report.component_count >= bound,
            )


def _component_totals(x: MultiplicityGraph, x0: int) -> list[int]:
    return [sum(x.mult[v] for v in comp)
            for comp in x.base.connected_components((x0,))]


def _component_sizes(y: SimpleGraph, y0: int) -> list[int]:
    return [len(c) for c in y.connected_components((y0,))]


def _probe_family_verdicts(max_n: int, total_max: int) -> Iterator[Verdict]:
    for n in range(4, max_n + 1):
        stars = families.star_mult_configs(n, centers=(2, 3), sizes=(3,))
        for base in families.graph_classes(n, connected=True):
            for mults in families.mult_lists(base.n, total_max):
                x = MultiplicityGraph(base, mults)
                for star in stars:
                    if star.total != x.total:
                        continue
                    yield double_multiplicity_bridge_probe(x, star)


# Each bundled family: its verdict generator and its default limits, the only
# keys a spec may override.
FAMILY_BUILDERS = {
    "thm14-small": (partial(_theorem_verdicts, "thm14"), {"max_n": 4, "total_max": 6}),
    "thm16-small": (_bridge_family_verdicts, {"max_n": 6}),
    "thm51-small": (partial(_theorem_verdicts, "path-count"), {"max_n": 4, "total_max": 6}),
    "thm55-small": (partial(_theorem_verdicts, "cycle-count"), {"max_n": 4, "total_max": 6}),
    "cor511-small": (partial(_theorem_verdicts, "cor511"), {"max_n": 4, "total_max": 6}),
    "cut-bound-small": (_cut_vertex_bound_verdicts, {"total_max": 6}),
    "double-mult-probe-small": (_probe_family_verdicts, {"max_n": 5, "total_max": 6}),
}


def verify_family(spec) -> list[Verdict]:
    """Run a named (or dict-configured) instance family.

    A dict spec has the shape {"family": name, ...overrides}; each override
    must be one of that family's limits and a positive int.  Disagreements
    are returned as data; callers decide whether they are fatal.
    """
    if isinstance(spec, str):
        spec = {"family": spec}
    if not isinstance(spec, dict):
        raise ValueError("a family spec must be a JSON object")
    name = spec.get("family")
    if not isinstance(name, str) or name not in FAMILY_BUILDERS:
        raise ValueError(f"unknown family {name!r}")
    builder, defaults = FAMILY_BUILDERS[name]
    limits = dict(defaults)
    for key, value in spec.items():
        if key == "family":
            continue
        if key not in defaults:
            raise ValueError(f"family {name!r} has no limit {key!r} "
                             f"(its limits: {', '.join(sorted(defaults))})")
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValueError(f"limit {key!r} must be a positive int, got {value!r}")
        limits[key] = value
    return list(builder(**limits))


def verdicts_to_jsonl(verdicts: Iterable[Verdict]) -> str:
    return "".join(
        json.dumps(v.to_json_dict(), sort_keys=True) + "\n" for v in verdicts
    )
