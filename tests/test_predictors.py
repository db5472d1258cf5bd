"""Connectivity predictors and the verification harness."""

import hashlib
import itertools
import json

import pytest
from hypothesis import assume, given, settings, strategies as st

from fsglab.graphs import (
    MultiplicityGraph,
    SimpleGraph,
    articulation_analysis,
    complete_graph,
    cycle_graph,
    find_blocking_chains,
    find_k_bridges,
    graph_from_json_dict,
    path_graph,
    star_graph,
)
from fsglab.predictors import (
    PreconditionError,
    Verdict,
    double_multiplicity_bridge_probe,
    predict_multgraph_vs_star,
    predict_star_vs_multgraph,
    small_support_connectivity,
    verdicts_to_jsonl,
    verify_family,
)
from fsglab.statespace import build_components
from fsglab import families, graphs, predictors


def star_mults(k, leaves):
    return MultiplicityGraph(star_graph(1 + len(leaves)), (k,) + tuple(leaves))


# -- star positions, multiplicity labels ----------------------------------------

def test_star_vs_multgraph_examples():
    c4 = cycle_graph(4)
    assert not predict_star_vs_multgraph(MultiplicityGraph(c4, (1, 1, 1, 1)))
    assert predict_star_vs_multgraph(MultiplicityGraph(c4, (2, 1, 1, 1)))
    p3 = path_graph(3)
    assert not predict_star_vs_multgraph(MultiplicityGraph(p3, (1, 1, 1)))
    assert predict_star_vs_multgraph(MultiplicityGraph(p3, (1, 2, 1)))
    assert predict_star_vs_multgraph(MultiplicityGraph(complete_graph(4), (1, 1, 1, 1)))


def test_star_vs_multgraph_requires_connected():
    g = SimpleGraph(3, [(0, 1)])
    with pytest.raises(PreconditionError):
        predict_star_vs_multgraph(MultiplicityGraph(g, (1, 1, 1)))


def test_star_vs_multgraph_oracle_agreement_small():
    for x in families.multiplicity_graphs(4, 5, connected=True):
        rep = build_components(star_graph(x.total), x, variant="fsm")
        assert predict_star_vs_multgraph(x) == (rep.component_count == 1), x


def test_star_vs_multgraph_runs_one_articulation_pass(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return articulation_analysis(*args, **kwargs)

    # graphs.wilson_star_components looks the name up in graphs
    monkeypatch.setattr(graphs, "articulation_analysis", counted)
    monkeypatch.setattr(predictors, "articulation_analysis", counted)
    assert predict_star_vs_multgraph(MultiplicityGraph(cycle_graph(5), (1, 2, 1, 1, 1)))
    assert len(calls) == 1


# -- star labels on arbitrary positions -------------------------------------------

def test_multgraph_vs_star_examples():
    assert not predict_multgraph_vs_star(path_graph(5), star_mults(3, (1, 1)))
    # no blocking chain: a 4-cycle with a chord is fine with 2 blanks
    g = SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    assert predict_multgraph_vs_star(g, star_mults(2, (1, 1)))
    # cycles: connected exactly for a 3-vertex star with a unit leaf
    assert predict_multgraph_vs_star(cycle_graph(5), star_mults(2, (2, 1)))
    assert not predict_multgraph_vs_star(cycle_graph(6), star_mults(2, (2, 2)))


def test_multgraph_vs_star_path_is_disconnected_with_two_pebbles():
    # order of two distinct labels along a path cannot change
    star = star_mults(2, (1, 1))
    assert not predict_multgraph_vs_star(path_graph(4), star)
    rep = build_components(path_graph(4), star, variant="fsm")
    assert rep.component_count == 2


def test_multgraph_vs_star_preconditions():
    with pytest.raises(PreconditionError):
        predict_multgraph_vs_star(SimpleGraph(4, [(0, 1)]), star_mults(2, (1, 1)))
    with pytest.raises(PreconditionError):
        predict_multgraph_vs_star(path_graph(4), star_mults(1, (2, 1)))
    with pytest.raises(PreconditionError):
        # star on 2 vertices is out of scope
        predict_multgraph_vs_star(
            path_graph(4),
            MultiplicityGraph(SimpleGraph(2, [(0, 1)]), (2, 2)),
        )


def test_multgraph_vs_star_oracle_agreement_small():
    for n in range(4, 6):
        stars = families.star_mult_configs(n, centers=(2, 3), sizes=(3, 4))
        for x in families.graph_classes(n, connected=True):
            for s in stars:
                rep = build_components(x, s, variant="fsm")
                assert predict_multgraph_vs_star(x, s) == (rep.component_count == 1)


# -- small-support oracle ------------------------------------------------------------

def test_small_support_claw_connected():
    claw = star_graph(4)
    assert small_support_connectivity(claw, star_mults(2, (1, 1)))


def test_small_support_k4_connected():
    assert small_support_connectivity(complete_graph(4), star_mults(2, (1, 1)))


def test_small_support_path_disconnected():
    assert not small_support_connectivity(path_graph(4), star_mults(2, (1, 1)))


def test_small_support_always_connected_off_paths_and_cycles():
    # the support lemma: connected, not a path, not a cycle => connected
    for k in (2, 3):
        star = star_mults(k, (1, 1))
        n = k + 2
        for x in families.graph_classes(n, connected=True):
            if x.is_path_graph() or x.is_cycle_graph():
                continue
            assert small_support_connectivity(x, star), x


def test_small_support_size_mismatch():
    with pytest.raises(PreconditionError):
        small_support_connectivity(path_graph(5), star_mults(2, (1, 1)))


# -- double multiplicity probe ----------------------------------------------------------

def test_probe_reduces_to_single_multiplicity_when_units():
    x = MultiplicityGraph(path_graph(5), (1,) * 5)
    star = star_mults(3, (1, 1))
    v = double_multiplicity_bridge_probe(x, star)
    assert v.predicted is False and v.oracle is False and not v.asserted


def test_probe_with_repeated_bridge_label():
    x = MultiplicityGraph(path_graph(5), (1, 1, 2, 1, 1))
    star = star_mults(3, (2, 1))
    v = double_multiplicity_bridge_probe(x, star)
    assert v.predicted is True
    assert isinstance(v.oracle, bool)


def test_probe_vacuous_without_bridges():
    x = MultiplicityGraph(complete_graph(4), (1, 1, 1, 1))
    star = star_mults(2, (1, 1))
    v = double_multiplicity_bridge_probe(x, star)
    assert v.predicted is True


# The four disagreements of double-mult-probe-small.  Each has center
# multiplicity 2, where the probe's find_k_bridges finds nothing on a
# connected base, while the blocking-chain criterion of thm16 finds an
# all-unit chain and so agrees with the oracle.
PROBE_MISSES = [
    (SimpleGraph(4, [(0, 1), (0, 3), (1, 2)]), (1, 1)),                   # P4
    (SimpleGraph(5, [(0, 2), (0, 4), (1, 2), (1, 3)]), (1, 2)),           # P5
    (SimpleGraph(5, [(0, 1), (0, 3), (0, 4), (1, 2)]), (1, 2)),           # spider
    (SimpleGraph(5, [(0, 1), (0, 4), (1, 2), (1, 3), (2, 3)]), (1, 2)),   # triangle + path
]


def test_probe_misses_are_two_blank_blocking_chains():
    misses = [v for v in verify_family("double-mult-probe-small") if not v.agree]
    assert [(graph_from_json_dict(v.instance["x"]), graph_from_json_dict(v.instance["star"]))
            for v in misses] == [(MultiplicityGraph(base, (1,) * base.n), star_mults(2, leaves))
                                 for base, leaves in PROBE_MISSES]
    for v in misses:
        x = graph_from_json_dict(v.instance["x"])
        assert v.predicted is True and v.oracle is False
        assert find_k_bridges(x.base, 2) == []
        assert any(all(x.mult[a] == 1 for a in chain)
                   for chain in find_blocking_chains(x.base, 2))


# -- path and cycle counts past the bundled families -------------------------------


@st.composite
def labels_past_bundled(draw):
    """Multiplicity graphs on 5 to 7 base vertices with total at most 7; the
    bundled families stop at 4 base vertices and total 6."""
    n = draw(st.integers(5, 7))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    mult = [1] * n
    for v in draw(st.lists(st.integers(0, n - 1), max_size=7 - n)):
        mult[v] += 1
    return MultiplicityGraph(SimpleGraph(n, [e for e, k in zip(pairs, keep) if k]), mult)


@pytest.mark.parametrize("theorem", ["path-count", "cycle-count", "cor511", "thm14"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(x=labels_past_bundled())
def test_count_predictors_match_oracle_past_bundled_families(theorem, x):
    if theorem == "thm14":
        assume(x.base.is_connected())
    t = predictors.THEOREMS[theorem]
    assert t.predict(x) == t.oracle(x)


@st.composite
def star_labels_on_seven(draw):
    """A connected position graph on 7 vertices, a spanning tree plus up to
    8 edges, and star labels of total 7 with k >= 2 blanks at the center
    and 2 to 7 - k leaves."""
    parents = [draw(st.integers(0, v - 1)) for v in range(1, 7)]
    extra = draw(st.lists(st.sampled_from(list(itertools.combinations(range(7), 2))),
                          max_size=8))
    x = SimpleGraph(7, list(zip(parents, range(1, 7))) + extra)
    k = draw(st.integers(2, 5))
    leaves = [1] * draw(st.integers(2, 7 - k))
    for i in draw(st.lists(st.integers(0, len(leaves) - 1),
                           min_size=7 - k - len(leaves), max_size=7 - k - len(leaves))):
        leaves[i] += 1
    return x, star_mults(k, leaves)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=star_labels_on_seven())
def test_thm16_matches_oracle_on_seven_positions(case):
    x, star = case
    t = predictors.THEOREMS["thm16"]
    assert t.predict(x, star) == t.oracle(x, star)


# -- harness -----------------------------------------------------------------------------

def test_verify_family_small_star():
    verdicts = verify_family({"family": "thm14-small", "max_n": 3, "total_max": 4})
    assert verdicts and all(v.agree for v in verdicts)


def test_verify_family_jsonl_roundtrip():
    verdicts = verify_family({"family": "thm51-small", "max_n": 2, "total_max": 3})
    text = verdicts_to_jsonl(verdicts)
    rows = [json.loads(line) for line in text.splitlines()]
    assert len(rows) == len(verdicts)
    assert all(set(r) == {"family", "instance", "predicted", "oracle",
                          "agree", "asserted"} for r in rows)


@pytest.mark.parametrize("family, limits, digest", [
    ("thm14-small", {"max_n": 3, "total_max": 5},
     "131c7be1135831d5e820f93d5897545ef9332c666579caf8d363ac3defef3e67"),
    ("thm16-small", {"max_n": 4},
     "ca045ba85c6499d919fb02991566880d5356bcf7c7272ef7b642f17a6bdd98fe"),
    ("thm51-small", {"max_n": 3, "total_max": 5},
     "9f9280bc00fe855fd495badf05518136624c1741471be74e204465f22a3fea59"),
    ("thm55-small", {"max_n": 3, "total_max": 5},
     "2e78fa851dd614ea4a1cd57afa0fce983163334baf3eda82df96addf777d0b02"),
    ("cor511-small", {"max_n": 3, "total_max": 5},
     "7a701485746b7e262622ca4bbc78376fdc1fc59a5b9bf5f98a6c5a824e11ddc7"),
    ("cut-bound-small", {"total_max": 5},
     "935e51e7811165bc72886a545ca3bd3a595bfa9d4935c919c25d92f72d04dd2e"),
    ("double-mult-probe-small", {"max_n": 4, "total_max": 5},
     "6ffb86452db419a2e778ef82a4cea60ee30e47586e3f2a580bfc9a057bfcf1eb"),
])
def test_verify_family_golden_digest(family, limits, digest):
    text = verdicts_to_jsonl(verify_family({"family": family, **limits}))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def test_verify_family_unknown_name():
    with pytest.raises(ValueError):
        verify_family("no-such-family")


def test_verdict_agree_property():
    v = Verdict(family="f", instance={}, predicted=2, oracle=3)
    assert not v.agree
