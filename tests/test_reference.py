"""Differential tests: live kernels against the frozen copies in reference.py."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import reference
from fsglab import families, statespace
from fsglab.graphs import (
    MultiplicityGraph,
    SimpleGraph,
    articulation_analysis,
    as_multiplicity,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    is_wilsonian,
    path_graph,
)
from fsglab.orientations import (
    RELATIONS,
    Orientation,
    complement_of_lift,
    enumerate_acyc,
    partition_by,
    period_of_orientation,
    period_profile,
    permutation_class_count,
)
from fsglab.randomlab import PackingBudgetError, find_packing, sample_gnp, trial_seed
from fsglab.statespace import FSmSpace, _multiset_permutations, build_components, space_for


@st.composite
def simple_graphs(draw, n):
    pairs = list(itertools.combinations(range(n), 2))
    mask = draw(st.integers(0, 2 ** len(pairs) - 1))
    return SimpleGraph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


@st.composite
def multiplicity_graphs(draw, total):
    """A graph whose positive multiplicities sum to total."""
    cut = draw(st.lists(st.booleans(), min_size=total - 1, max_size=total - 1))
    cuts = [i + 1 for i, c in enumerate(cut) if c]
    mult = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    return MultiplicityGraph(draw(simple_graphs(len(mult))), mult)


@st.composite
def instances(draw):
    variant = draw(st.sampled_from(("fs", "fsm", "fsmm")))
    n = draw(st.integers(1, 6))
    if variant == "fs":
        return variant, draw(simple_graphs(n)), draw(simple_graphs(n))
    if variant == "fsm":
        return variant, draw(simple_graphs(n)), draw(multiplicity_graphs(n))
    return variant, draw(multiplicity_graphs(n)), draw(multiplicity_graphs(n))


def _assert_same_report(live, ref):
    # same arrangements in the same enumeration order, with the same ids
    assert list(live.component_id.items()) == list(ref.component_id.items())
    assert live.component_sizes == ref.component_sizes
    assert live.component_count == ref.component_count
    assert live.vertex_count == ref.vertex_count
    assert live.edge_count == ref.edge_count


@settings(max_examples=150, deadline=None)
@given(instances())
def test_build_components_matches_reference(inst):
    variant, x, y = inst
    _assert_same_report(build_components(x, y, variant=variant),
                        reference.build_components(x, y, variant=variant))


@settings(max_examples=150, deadline=None)
@given(instances())
def test_tuple_kernel_matches_reference(inst):
    # with no shared tables every fs/fsm space takes the tuple kernel
    variant, x, y = inst
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statespace, "_TABLE_STATES", 0)
        live = build_components(x, y, variant=variant)
    assert live.component_id.index is not statespace._state_table(
        as_multiplicity(y).mult).index
    _assert_same_report(live, reference.build_components(x, y, variant=variant))


@pytest.mark.parametrize("x, y, variant, total, shared", [
    (path_graph(7), cycle_graph(7), "fs", 5040, True),
    (cycle_graph(8), MultiplicityGraph(path_graph(7), (2, 1, 1, 1, 1, 1, 1)),
     "fsm", 20160, False),
])
def test_build_components_at_the_table_bound(x, y, variant, total, shared):
    live = build_components(x, y, variant=variant)
    assert live.vertex_count == total
    table = statespace._state_table(as_multiplicity(y).mult)
    assert (live.component_id.index is table.index) == shared
    _assert_same_report(live, reference.build_components(x, y, variant=variant))


def test_reports_sharing_a_table_keep_their_own_ids():
    y = MultiplicityGraph(path_graph(4), (2, 1, 1, 1))
    table = statespace._state_table(y.mult)
    before = list(table.index.items())
    xs = (path_graph(5), cycle_graph(5), complete_graph(5))
    reports = [build_components(x, y, variant="fsm") for x in xs]
    assert all(r.component_id.index is table.index for r in reports)
    assert len({r.component_count for r in reports}) == len(xs)
    for x, r in zip(xs, reports):
        _assert_same_report(r, reference.build_components(x, y, variant="fsm"))
    assert list(table.index.items()) == before


def test_state_table_swaps_are_the_forward_moves():
    # swaps(p, q) lists each forward move across p < q once, keyed by the
    # labels (s, t), s < t, that it moves
    mult = (2, 1, 2)
    n = sum(mult)
    table = statespace._state_table(mult)
    index = table.index
    labels = MultiplicityGraph(complete_graph(len(mult)), mult)
    for p, q in complete_graph(n).edge_list:
        space = FSmSpace(SimpleGraph(n, [(p, q)]), labels)
        expected: dict = {}
        for a, i in index.items():
            for b in space.forward_neighbors(a):
                expected.setdefault((a[p], a[q]), []).append((i, index[b]))
        swaps = table.swaps(p, q)
        assert {st: list(zip(pairs[::2], pairs[1::2]))
                for st, pairs in swaps.items()} == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(simple_graphs(n),
                                                      simple_graphs(n))))
def test_fs_is_fsm_with_unit_multiplicities(pair):
    x, y = pair
    unit = as_multiplicity(y)
    for build in (build_components, reference.build_components):
        _assert_same_report(build(x, y, variant="fs"),
                            build(x, unit, variant="fsm"))


@settings(max_examples=100, deadline=None)
@given(instances())
def test_forward_neighbors_give_each_link_once(inst):
    variant, x, y = inst
    space = space_for(x, y, variant)
    forward = {a: space.forward_neighbors(a) for a in space.enumerate()}
    backward = {a: [] for a in forward}
    for a, nbrs in forward.items():
        for b in nbrs:
            backward[b].append(a)
    # every link once from one end: forward and backward moves split the
    # neighbours, with nothing repeated
    for a in forward:
        assert sorted(space.neighbors(a)) == sorted(forward[a] + backward[a])
    assert sum(map(len, forward.values())) == \
        build_components(x, y, variant=variant).edge_count


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=6).filter(lambda c: sum(c) <= 8))
def test_multiset_enumeration_matches_reference(counts):
    ref = list(reference._multiset_permutations(list(counts), sum(counts)))
    assert list(_multiset_permutations(counts)) == ref
    positive = [c for c in counts if c]
    if positive:
        labels = MultiplicityGraph(edgeless_graph(len(positive)), positive)
        space = FSmSpace(edgeless_graph(sum(positive)), labels)
        assert list(space.enumerate()) == list(reference._multiset_permutations(
            positive, sum(positive)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(simple_graphs(n),
                                                      simple_graphs(n))))
def test_fsmm_with_unit_multiplicities_is_fs(pair):
    # a permutation matrix's row u holds its 1 in column sigma(u), and a move
    # of fsmm(X, Y) is then a friendly swap of fs(X, Y) on sigma
    x, y = pair
    fs = build_components(x, y, variant="fs")
    mm = build_components(as_multiplicity(x), as_multiplicity(y), variant="fsmm")
    assert (mm.vertex_count, mm.edge_count) == (fs.vertex_count, fs.edge_count)
    fs_of = {}
    for a, cid in mm.component_id.items():
        sigma = tuple(row.index(1) for row in a)
        assert fs_of.setdefault(cid, fs.component_id[sigma]) == fs.component_id[sigma]
    assert sorted(fs_of.values()) == list(range(fs.component_count))
    assert all(mm.component_sizes[c] == fs.component_sizes[f]
               for c, f in fs_of.items())


# -- vertex deletion ------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    simple_graphs(n), st.sets(st.integers(0, n - 1)))))
def test_masked_deletion_matches_subgraph(case):
    g, removed = case
    sub, old = g.subgraph(set(range(g.n)) - removed)
    assert g.connected_components(removed) == [
        [old[i] for i in comp] for comp in sub.connected_components()
    ]
    cuts, biconnected = reference.articulation_analysis(sub)
    assert articulation_analysis(g, removed) == (
        frozenset(old[i] for i in cuts), biconnected)


@pytest.mark.parametrize("n", range(1, 7))
def test_is_wilsonian_matches_reference(n):
    for g in families.graph_classes(n):
        assert is_wilsonian(g) == reference.is_wilsonian(g), g


# -- graph classes --------------------------------------------------------------


@pytest.mark.parametrize("connected", (False, True))
@pytest.mark.parametrize("n", range(0, 7))
def test_graph_classes_match_reference(n, connected):
    assert [(g.n, g.edge_list) for g in families.graph_classes(n, connected)] == [
        (g.n, g.edge_list) for g in reference.graph_classes(n, connected)]


def test_graph_class_counts_at_seven_vertices():
    # OEIS A000088 and A001349
    assert len(families.graph_classes(7)) == 1044
    assert len(families.graph_classes(7, connected=True)) == 853


def _edge_mask(n, edges):
    index = {p: i for i, p in enumerate(itertools.combinations(range(n), 2))}
    return sum(1 << index[(u, v) if u < v else (v, u)] for u, v in edges)


def test_min_mask_labelling_matches_brute_force():
    rng = random.Random(1998)
    for n in range(0, 7):
        for rep in families.graph_classes(n):
            perm = list(range(n))
            rng.shuffle(perm)
            g = SimpleGraph(n, [(perm[u], perm[v]) for u, v in rep.edge_list])
            brute = min(_edge_mask(n, [(p[u], p[v]) for u, v in g.edge_list])
                        for p in itertools.permutations(range(n)))
            best = families._min_mask_labelling(g)
            assert _edge_mask(n, best.edge_list) == brute, rep
            assert best == rep


# -- orientations ---------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(simple_graphs))
def test_enumerate_acyc_matches_reference(host):
    assert [o.dirs for o in enumerate_acyc(host)] == [
        o.dirs for o in reference.enumerate_acyc(host)
    ]


@pytest.mark.parametrize("relation", RELATIONS)
@settings(max_examples=30, deadline=None)
@given(x=st.integers(1, 6).flatmap(multiplicity_graphs))
def test_partition_by_matches_reference(relation, x):
    # the lift complement of a unit-multiplicity graph is any simple graph
    host, cliques = complement_of_lift(x)
    live = partition_by(relation, host, cliques)
    ref = reference.partition_by(relation, host, cliques)
    assert [[o.dirs for o in c] for c in live.classes] == [
        [o.dirs for o in c] for c in ref.classes
    ]
    assert live.class_of == ref.class_of


def _total7_sample():
    """Total-7 multiplicity graphs for the predict-scale comparison: eight
    drawn from ``multiplicity_graphs(6, 7)`` with a fixed seed, and two
    unit-multiplicity graphs on seven base vertices.  Those two stand for
    the base-7 part of ``multiplicity_graphs(7, 7)``, which holds one graph
    for each of the 1,044 classes on seven vertices; random labelled graphs
    keep the comparison with the reference orientation layer to two hosts."""
    rng = random.Random(7007)
    pool = [x for x in families.multiplicity_graphs(6, 7) if x.total == 7]
    sample = rng.sample(pool, 8)
    pairs = list(itertools.combinations(range(7), 2))
    for p in (0.3, 0.6):
        base = SimpleGraph(7, [e for e in pairs if rng.random() < p])
        sample.append(MultiplicityGraph(base, (1,) * 7))
    return sample


TOTAL7 = _total7_sample()


def test_total7_sample_covers_isolated_vertices_and_components():
    hosts = [complement_of_lift(x)[0] for x in TOTAL7]
    # an isolated vertex is both a source and a sink, so double flips pair
    # it with every other sink and source
    assert any(0 in map(h.degree, range(h.n)) for h in hosts)
    assert any(len(h.connected_components()) > 1 for h in hosts)
    assert any(h.m >= 12 for h in hosts)


@pytest.mark.parametrize("relation", RELATIONS)
def test_partition_by_matches_reference_at_predict_scale(relation):
    for x in TOTAL7:
        host, cliques = complement_of_lift(x)
        live = partition_by(relation, host, cliques)
        ref = reference.partition_by(relation, host, cliques)
        assert live.class_count == ref.class_count, x
        assert [[o.dirs for o in c] for c in live.classes] == [
            [o.dirs for o in c] for c in ref.classes
        ], x
        assert live.class_of == ref.class_of, x


def test_permutation_class_count_matches_reference_at_predict_scale():
    for x in TOTAL7:
        host, cliques = complement_of_lift(x)
        assert permutation_class_count(host, cliques) == \
            reference.partition_by("permutation", host, cliques).class_count, x


def test_period_of_orientation_matches_full_walk():
    # every orientation of every component of the multiplicity_graphs(5, 6)
    # lift complements, against the walk over every extension and divisor
    seen = 0
    for x in families.multiplicity_graphs(5, 6):
        host, cliques = complement_of_lift(x)
        for comp in host.connected_components():
            sub, _ = host.subgraph(comp)
            sub_cliques = cliques.restricted(comp)
            for o in enumerate_acyc(sub):
                assert period_of_orientation(o, sub_cliques) == \
                    reference.period_of_orientation(o, sub_cliques), (x, comp, o)
                seen += 1
    assert seen == 43_306


def test_period_profile_matches_per_component_construction():
    # every toric class representative of the multiplicity_graphs(4, 6) lift
    # complements (a superset of the toric_permutation ones), against the
    # periods of a relabelled copy of each component: its subgraph, its
    # orientation and its restricted blocks
    seen = 0
    for x in families.multiplicity_graphs(4, 6):
        host, cliques = complement_of_lift(x)
        part = partition_by("toric", host, cliques)
        for cid in range(part.class_count):
            o = part.representative(cid)
            periods = []
            for comp in host.connected_components():
                sub, _ = host.subgraph(comp)
                inside = set(comp)
                dirs = [d for (u, _), d in zip(host.edge_list, o.dirs) if u in inside]
                periods.append(reference.period_of_orientation(
                    Orientation(sub, dirs), cliques.restricted(comp)))
            assert period_profile(o, cliques).periods == tuple(periods), (x, o)
            seen += 1
    assert seen == 2_757


# -- packing search -------------------------------------------------------------


def _packing(find, x, y, budget):
    try:
        return "answer", find(x, y, node_budget=budget)
    except PackingBudgetError as e:
        return "budget", e.nodes


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(simple_graphs(n),
                                                      simple_graphs(n))))
def test_find_packing_matches_reference(pair):
    x, y = pair
    assert find_packing(x, y) == reference.find_packing(x, y)
    # the search raises exactly when it needs more nodes than its budget, so
    # the least budget that answers is the node count
    hi = 1
    while _packing(find_packing, x, y, hi)[0] == "budget":
        hi *= 2
    lo = hi // 2
    while lo < hi:
        mid = (lo + hi) // 2
        if _packing(find_packing, x, y, mid)[0] == "budget":
            lo = mid + 1
        else:
            hi = mid
    nodes = lo
    assert _packing(find_packing, x, y, nodes - 1) == ("budget", nodes)
    for budget in (0, nodes // 2, nodes - 1, nodes):
        assert _packing(find_packing, x, y, budget) == \
            _packing(reference.find_packing, x, y, budget)


# Trials of the c10 sweep shape (gnp, n = 20, base seed 2026) with their node
# counts, read from reference.find_packing: (grid index k of p = 0.05 * k,
# trial, packing found, nodes).  At a 20,000-node budget the first is found,
# the second refuted and the third censored.
SWEEP_TRIALS = [(5, 0, True, 2_321), (13, 4, False, 8_068), (11, 4, False, 29_272)]


@pytest.mark.parametrize("k,trial,found,nodes", SWEEP_TRIALS)
def test_find_packing_matches_reference_at_sweep_scale(k, trial, found, nodes):
    p = 0.05 * k
    x = sample_gnp(20, p, trial_seed(2026, trial, 0))
    y = sample_gnp(20, p, trial_seed(2026, trial, 1))
    live = _packing(find_packing, x, y, None)
    assert live == _packing(reference.find_packing, x, y, None)
    assert live[0] == "answer" and (live[1] is not None) == found
    assert _packing(find_packing, x, y, nodes - 1) == ("budget", nodes)
    for budget in (nodes - 1, nodes):
        assert _packing(find_packing, x, y, budget) == \
            _packing(reference.find_packing, x, y, budget)
    censored = _packing(find_packing, x, y, 20_000)[0] == "budget"
    assert censored == (nodes > 20_000)
