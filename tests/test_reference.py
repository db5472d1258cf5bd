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
    complement,
    complete_bipartite_graph,
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
from fsglab.statespace import FSmSpace, build_components, space_for


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
def instances(draw, max_positions=6):
    variant = draw(st.sampled_from(("fs", "fsm", "fsmm")))
    n = draw(st.integers(1, max_positions))
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
def test_block_path_matches_reference(inst):
    # with no shared tables every fs/fsm space walks the prefix blocks of
    # its own rank index, split at 0 or inside, and with no list bound
    # every space keeps its parents in an array of 4 B entries
    variant, x, y = inst
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statespace, "_TABLE_STATES", 0)
        mp.setattr(statespace, "_LIST_STATES", 0)
        live = build_components(x, y, variant=variant)
    assert live.component_id.ids.typecode == "i"
    assert live.component_id.index is not statespace._state_table(
        as_multiplicity(y).mult).index
    _assert_same_report(live, reference.build_components(x, y, variant=variant))


def _link_kinds(x, k):
    return {"prefix" if q < k else "suffix" if k <= p else "cross"
            for p, q in x.edge_list}


@pytest.mark.parametrize("x, y, variant, kinds", [
    # K4,4 with parts {0, 1, 4, 5} and {2, 3, 6, 7}
    (SimpleGraph(8, [(p, q) for p in (0, 1, 4, 5) for q in (2, 3, 6, 7)]),
     cycle_graph(8), "fs", {"prefix", "suffix", "cross"}),
    # 22,680 arrangements, labels repeating in the prefix and the suffix
    (cycle_graph(9), MultiplicityGraph(path_graph(5), (2, 2, 2, 2, 1)), "fsm",
     {"prefix", "suffix", "cross"}),
    # two K4 on either side of the split: no room has a cross link
    (SimpleGraph(8, [(p, q) for p, q in itertools.combinations(range(8), 2)
                     if (p < 4) == (q < 4)]),
     path_graph(8), "fs", {"prefix", "suffix"}),
    # 7,227 count matrices, rows split 3 | 3, columns of 2 and 1 copies
    (MultiplicityGraph(cycle_graph(6), (2, 2, 2, 1, 1, 1)),
     MultiplicityGraph(path_graph(6), (2, 2, 2, 1, 1, 1)), "fsmm",
     {"prefix", "suffix", "cross"}),
])
def test_block_path_above_the_table_bound_matches_reference(x, y, variant, kinds):
    live = build_components(x, y, variant=variant)
    k = _split(live, x, y, variant)
    assert live.vertex_count > statespace._TABLE_STATES and 0 < k < _steps(x).n
    assert _link_kinds(_steps(x), k) == kinds
    _assert_same_report(live, reference.build_components(x, y, variant=variant))


def _steps(x):
    """The graph on the steps of the rank index: positions, or fsmm rows."""
    return as_multiplicity(x).base


def _split(report, x, y, variant):
    """The number of steps in a prefix of the report's rank index."""
    bits = space_for(x, y, variant).steps().bits
    return _steps(x).n - report.component_id.index.shift // bits


def test_fsmm_block_path_with_two_byte_cells_matches_reference():
    # a column of 257 copies takes two bytes a cell, and a row of 6 bytes a
    # step; rows split 2 | 2
    x = MultiplicityGraph(path_graph(4), (256, 1, 1, 2))
    y = MultiplicityGraph(complete_graph(3), (257, 2, 1))
    live = build_components(x, y, variant="fsmm")
    assert space_for(x, y, "fsmm").steps().bits == 48
    assert _split(live, x, y, "fsmm") == 2
    assert _link_kinds(_steps(x), 2) == {"prefix", "suffix", "cross"}
    _assert_same_report(live, reference.build_components(x, y, variant="fsmm"))


def test_fsmm_room_swaps_are_the_forward_moves():
    # in each block, swaps(p - k, q - k) of its room's table, offset by the
    # block's first rank, lists each forward move between the suffix rows
    # p < q once, keyed by the columns (s, t), s < t, that copies leave
    x = MultiplicityGraph(complete_graph(5), (1, 2, 1, 2, 1))
    y = MultiplicityGraph(complete_graph(3), (3, 2, 2))
    space = space_for(x, y, "fsmm")
    index = space.index()
    k = 5 - index.shift // space.steps().bits
    assert 0 < k <= 3
    ref = reference.space_for(x, y, "fsmm")
    rank = {a: i for i, a in enumerate(ref.enumerate())}
    tables = [(index.prefix[c], statespace._StateTable(suffixes, 5 - k, space.steps()))
              for c, suffixes in index.fits.items()]
    for p, q in itertools.combinations(range(k, 5), 2):
        expected: dict = {}
        for a, i in rank.items():
            for b in ref.neighbors(a):
                rows = [u for u in range(5) if a[u] != b[u]]
                if rows == [p, q] and _is_forward(a, b):
                    s = next(col for col in range(3) if b[p][col] < a[p][col])
                    t = next(col for col in range(3) if b[p][col] > a[p][col])
                    expected.setdefault((s, t), []).append((i, rank[b]))
        got: dict = {}
        for first, table in tables:
            for st, pairs in table.swaps(p - k, q - k).items():
                got.setdefault(st, []).extend(
                    (first + i, first + j) for i, j in zip(pairs[::2], pairs[1::2]))
        assert got == expected
        assert expected


def test_fsmm_builds_generate_no_move_code():
    # a shape no other test builds (7 rows; hypothesis draws at most 6): the
    # build compiles nothing, and the space's first BFS step compiles its
    # moves
    x = as_multiplicity(SimpleGraph(7, [(0, 3), (1, 4), (2, 3), (3, 6), (5, 6)]))
    y = MultiplicityGraph(SimpleGraph(4, [(0, 2), (1, 3), (2, 3)]), (3, 2, 1, 1))
    before = statespace._fsmm_moves.cache_info()
    live = build_components(x, y, variant="fsmm")
    assert statespace._fsmm_moves.cache_info() == before
    _assert_same_report(live, reference.build_components(x, y, variant="fsmm"))
    space = space_for(x, y, "fsmm")
    a = next(iter(live.component_id))
    assert space.neighbors(a) == reference.space_for(x, y, "fsmm").neighbors(a)
    assert statespace._fsmm_moves.cache_info().misses == before.misses + 1


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
    # labels (s, t), s < t, that it moves; ranks are enumeration ranks
    mult = (2, 1, 2)
    n = sum(mult)
    table = statespace._state_table(mult)
    labels = MultiplicityGraph(complete_graph(len(mult)), mult)
    for p, q in complete_graph(n).edge_list:
        ref = reference.space_for(SimpleGraph(n, [(p, q)]), labels, "fsm")
        rank = {a: i for i, a in enumerate(ref.enumerate())}
        assert list(table.index.values()) == list(rank.values())
        expected: dict = {}
        for a, i in rank.items():
            for b in ref.neighbors(a):
                if _is_forward(a, b):
                    expected.setdefault((a[p], a[q]), []).append((i, rank[b]))
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


def _entries(a):
    return list(itertools.chain.from_iterable(a)) if a and isinstance(a[0], tuple) \
        else list(a)


@settings(max_examples=150, deadline=None)
@given(instances(), st.booleans())
def test_codes_round_trip_and_component_of(inst, table):
    # with and without the shared tables: every report's index is keyed by
    # the codes of its arrangements in enumeration order, a code's digits
    # are the arrangement's entries, and component_of agrees with reference
    variant, x, y = inst
    space = space_for(x, y, variant)
    with pytest.MonkeyPatch.context() as mp:
        if not table:
            mp.setattr(statespace, "_TABLE_STATES", 0)
        live = build_components(x, y, variant=variant)
    ref = reference.build_components(x, y, variant=variant)
    arrangements = list(ref.component_id)
    codes = [space.code(a) for a in arrangements]
    assert list(map(space.decode, codes)) == arrangements
    assert list(live.component_id.index) == codes
    width = getattr(space, "width", 1)
    for a, c in zip(arrangements, codes):
        flat = _entries(a)
        digits = c.to_bytes(len(flat) * width, "big")
        assert [int.from_bytes(digits[k:k + width], "big")
                for k in range(0, len(digits), width)] == flat
        assert live.component_of(a) == ref.component_of(a)
    assert list(live.component_id.coded()) == list(zip(codes, (
        ref.component_of(a) for a in arrangements)))


@pytest.mark.parametrize("x, y", [
    (MultiplicityGraph(complete_graph(2), (300, 2)),
     MultiplicityGraph(complete_graph(2), (301, 1))),
    (MultiplicityGraph(path_graph(3), (256, 1, 2)),
     MultiplicityGraph(complete_graph(3), (257, 1, 1))),
])
def test_fsmm_cells_above_a_byte_match_reference(x, y):
    # a cell above 255 takes two bytes in the code, and neither raises nor
    # collides
    space = space_for(x, y, "fsmm")
    assert space.width == 2
    live = build_components(x, y, variant="fsmm")
    ref = reference.build_components(x, y, variant="fsmm")
    _assert_same_report(live, ref)
    assert max(max(_entries(a)) for a in ref.component_id) >= 256
    assert len(set(live.component_id.index)) == live.vertex_count > 1
    assert all(live.component_of(a) == i for a, i in ref.component_id.items())


P4_UNITS = as_multiplicity(path_graph(4))
# each half of these is a half of some arrangement, but the two do not fit
# together: the labels repeat, the column sums disagree
UNFIT = [(path_graph(4), path_graph(4), "fs", (0, 1, 0, 1)),
         (P4_UNITS, P4_UNITS, "fsmm", ((1, 0, 0, 0), (0, 1, 0, 0)) * 2)]


@pytest.mark.parametrize("x, y, variant, outside", [
    # (1, 2) reads as the same number as (0, 1, 2)
    (path_graph(3), path_graph(3), "fs", [(1, 2), (0, 1, 2, 0), (0, 1, 256),
                                          (0, 1, -1), (0, 1, "2"), 7]),
    (as_multiplicity(path_graph(2)), as_multiplicity(path_graph(2)), "fsmm",
     [((1, 0, 0), (1,)), ((1,), (0, 1)), ((1, 0),), ((1, 0), (0, -1)),
      ((1, 0), (0, "1"))]),
] + [(x, y, variant, [a]) for x, y, variant, a in UNFIT])
def test_component_of_rejects_what_is_not_an_arrangement(x, y, variant, outside):
    ids = build_components(x, y, variant=variant).component_id
    for a in outside:
        assert a not in ids
        with pytest.raises(KeyError):
            ids[a]


@pytest.mark.parametrize("x, y, variant, a", UNFIT)
def test_unfit_halves_are_each_in_the_rank_index(x, y, variant, a):
    # so the rejection above comes from fitting the halves, not from either
    index = build_components(x, y, variant=variant).component_id.index
    code = space_for(x, y, variant).code(a)
    assert code >> index.shift in index.prefix
    assert any(code & index.mask in table for table in index.fits.values())


@st.composite
def wide_cells(draw):
    """fsmm instances with a column of at least 256, so two bytes a cell."""
    columns = [draw(st.integers(256, 300))] + draw(
        st.lists(st.integers(1, 3), max_size=2))
    total = sum(columns)
    cuts = sorted(draw(st.lists(st.integers(1, total - 1), max_size=2,
                                unique=True)))
    rows = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    return ("fsmm", MultiplicityGraph(draw(simple_graphs(len(rows))), rows),
            MultiplicityGraph(draw(simple_graphs(len(columns))), columns))


@settings(max_examples=150, deadline=None)
@given(st.one_of(instances(), instances(max_positions=2), wide_cells()))
def test_rank_index_ranks_every_arrangement_in_order(inst):
    variant, x, y = inst
    space = space_for(x, y, variant)
    index = space.index()
    arrangements = list(reference.space_for(x, y, variant).enumerate())
    assert list(index) == [space.code(a) for a in arrangements]
    assert len(index) == space.count()
    for rank, a in enumerate(arrangements):
        assert index[space.code(a)] == rank


@settings(max_examples=150, deadline=None)
@given(st.one_of(instances(), instances(max_positions=2), wide_cells()))
def test_enumeration_decodes_the_reference_order(inst):
    # decode inverts code, and the largest entry of any arrangement is the
    # space's largest_entry
    variant, x, y = inst
    space = space_for(x, y, variant)
    arrangements = list(reference.space_for(x, y, variant).enumerate())
    assert [space.decode(space.code(a)) for a in arrangements] == arrangements
    assert list(space.enumerate()) == arrangements
    assert max(max(_entries(a)) for a in arrangements) == space.largest_entry()


@settings(max_examples=100, deadline=None)
@given(instances())
def test_forward_neighbors_give_each_link_once(inst):
    # every link once from one end: of its two moves exactly one is forward,
    # no two moves from an arrangement reach the same neighbour, and
    # edge_count, with or without a shared table, counts the forward moves
    variant, x, y = inst
    ref = reference.space_for(x, y, variant)
    forward = 0
    for a in ref.enumerate():
        nbrs = ref.neighbors(a)
        assert len(set(nbrs)) == len(nbrs)
        for b in nbrs:
            assert _is_forward(a, b) != _is_forward(b, a)
            forward += _is_forward(a, b)
    assert build_components(x, y, variant=variant).edge_count == forward
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statespace, "_TABLE_STATES", 0)
        assert build_components(x, y, variant=variant).edge_count == forward


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=6).filter(lambda c: sum(c) <= 8))
def test_multiset_enumeration_matches_reference(counts):
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


# -- generated moves and the BFS ------------------------------------------------


def _is_forward(a, b):
    """Whether the move from ``a`` to neighbour ``b`` is forward: in fs/fsm
    the smaller label leaves the lower of the two positions that change; in
    fsmm the lower changed row loses a copy on the lower column."""
    changed = [i for i in range(len(a)) if a[i] != b[i]]
    if isinstance(a[0], tuple):
        row, new = a[changed[0]], b[changed[0]]
        lost = next(k for k in range(len(row)) if new[k] < row[k])
        gained = next(k for k in range(len(row)) if new[k] > row[k])
        return lost < gained
    p, q = changed
    return a[p] < a[q]


def _assert_moves_match_reference(space, ref, arrangements):
    for i, a in enumerate(arrangements):
        nbrs = ref.neighbors(a)
        assert space.neighbors(a) == nbrs, a
        # every other neighbour seen already, plus an arrangement that is
        # not a neighbour
        seen = {a, *nbrs[i % 2::2]}
        before = set(seen)
        fresh = space.fresh_neighbors(a, seen)
        assert fresh == [b for b in nbrs if b not in before], a
        assert seen == before | set(nbrs), a


@settings(max_examples=150, deadline=None)
@given(instances())
def test_generated_moves_match_reference_in_order(inst):
    variant, x, y = inst
    space = space_for(x, y, variant)
    _assert_moves_match_reference(space, reference.space_for(x, y, variant),
                                  list(space.enumerate()))


@pytest.mark.parametrize("variant, x, y", [
    ("fs", edgeless_graph(4), path_graph(4)),
    ("fsm", edgeless_graph(5), MultiplicityGraph(path_graph(2), (3, 2))),
    ("fsmm", as_multiplicity(edgeless_graph(3)),
     MultiplicityGraph(path_graph(2), (2, 1))),
    ("fs", edgeless_graph(1), edgeless_graph(1)),
    ("fsm", edgeless_graph(1), MultiplicityGraph(edgeless_graph(1), (1,))),
    ("fsmm", MultiplicityGraph(path_graph(2), (1, 2)),
     MultiplicityGraph(edgeless_graph(1), (3,))),
])
def test_generated_moves_without_x_edges_or_positions(variant, x, y):
    space = space_for(x, y, variant)
    arrangements = list(space.enumerate())
    _assert_moves_match_reference(space, reference.space_for(x, y, variant),
                                  arrangements)
    assert all(space.neighbors(a) == [] for a in arrangements)


@pytest.mark.parametrize("variant, x, y", [
    ("fs", complete_bipartite_graph(4, 5), cycle_graph(9)),
    ("fsm", cycle_graph(11), MultiplicityGraph(path_graph(4), (3, 3, 3, 2))),
])
def test_generated_moves_on_the_large_oracle_shapes(variant, x, y):
    rng = random.Random(19)
    space = space_for(x, y, variant)
    labels = [lab for lab, c in enumerate(as_multiplicity(y).mult)
              for _ in range(c)]
    sample = []
    for _ in range(2_000):
        rng.shuffle(labels)
        sample.append(tuple(labels))
    _assert_moves_match_reference(space, reference.space_for(x, y, variant),
                                  sample)


def _walk(bfs):
    """The arrangements a BFS yields, and the ``required`` it raises with."""
    out = []
    try:
        for a in bfs:
            out.append(a)
    except statespace.BudgetExceededError as e:
        return out, e.required
    return out, None


@pytest.mark.parametrize("x, y", [
    (complete_bipartite_graph(1, 5), complete_graph(6)),
    (complete_graph(5), cycle_graph(5)),
    (path_graph(5), complete_graph(5)),
])
def test_reachable_matches_reference_at_every_budget(x, y):
    # the first expansions add several new arrangements at once, so the
    # budget falls inside a batch of fresh neighbours
    space = space_for(x, y, "fs")
    ref = reference.space_for(x, y, "fs")
    for start in ((0, 1, 2, 3, 4, 5)[:x.n], (x.n - 1, *range(x.n - 1))):
        full = _walk(statespace.reachable(space, start))
        assert full == _walk(reference.reachable(ref, start))
        assert full[1] is None
        assert len(ref.neighbors(start)) >= 3
        for budget in range(len(full[0]) + 3):
            assert _walk(statespace.reachable(space, start, budget)) == \
                _walk(reference.reachable(ref, start, budget)), (start, budget)


@settings(max_examples=100, deadline=None)
@given(instances().filter(lambda inst: inst[0] != "fsmm"), st.randoms())
def test_reachable_matches_reference_near_the_budget(inst, rng):
    variant, x, y = inst
    space = space_for(x, y, variant)
    ref = reference.space_for(x, y, variant)
    start = rng.choice(list(space.enumerate()))
    size = len(_walk(reference.reachable(ref, start))[0])
    for budget in {None, 0, 1, 2, size // 2, size - 1, size, size + 1}:
        assert _walk(statespace.reachable(space, start, budget)) == \
            _walk(reference.reachable(ref, start, budget)), budget


def test_fs_above_the_table_bound_matches_reference():
    # FS(C8, complement of P8): 40,320 arrangements in 8 components of 5,040,
    # the exchange space of the benchmark's oracle-many workload
    x, y = cycle_graph(8), complement(path_graph(8))
    live = build_components(x, y, variant="fs")
    assert live.vertex_count == 40_320 > statespace._TABLE_STATES
    _assert_same_report(live, reference.build_components(x, y, variant="fs"))
    hits = 0
    for a in ((0, 1, 2, 3, 4, 5, 6, 7), (3, 7, 1, 6, 0, 4, 2, 5)):
        for u, v in itertools.combinations(range(8), 2):
            swapped = tuple(u if t == v else v if t == u else t for t in a)
            same = live.component_of(a) == live.component_of(swapped)
            assert statespace.is_exchangeable(x, y, a, u, v) == same, (a, u, v)
            hits += same
    assert 0 < hits < 56
