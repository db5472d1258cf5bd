"""Arrangement state spaces: enumeration, components, audits."""

import gc
import itertools
import json
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from fsglab.graphs import (
    MultiplicityGraph,
    SimpleGraph,
    as_multiplicity,
    complement,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    lift,
    path_graph,
    star_graph,
)
from fsglab.statespace import (
    BudgetExceededError,
    FSmmSpace,
    InvalidArrangementError,
    KBridgeError,
    _arrangement_key,
    build_components,
    is_exchangeable,
    kbridge_component_invariant,
    parity_audit,
    quotient_audit,
    space_for,
)
from fsglab import families, statespace


EDGE12 = MultiplicityGraph(SimpleGraph(2, [(0, 1)]), (1, 2))


# -- enumeration -----------------------------------------------------------------

def test_enumeration_counts():
    assert sum(1 for _ in space_for(path_graph(3), path_graph(3), "fs").enumerate()) == 6
    fsm = space_for(path_graph(3), EDGE12, "fsm")
    assert list(fsm.enumerate()) == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    one = MultiplicityGraph(SimpleGraph(1, []), (4,))
    assert list(space_for(edgeless_graph(4), one, "fsm").enumerate()) == [(0, 0, 0, 0)]


def test_enumeration_lexicographic_and_exact():
    y = MultiplicityGraph(path_graph(3), (2, 1, 1))
    space = space_for(path_graph(4), y, "fsm")
    arrs = list(space.enumerate())
    assert arrs == sorted(arrs)
    assert len(arrs) == space.count() == math.factorial(4) // 2
    assert all(space.is_valid(a) for a in arrs)


def test_fsmm_enumeration_margins():
    x = MultiplicityGraph(SimpleGraph(2, [(0, 1)]), (2, 1))
    y = MultiplicityGraph(SimpleGraph(2, [(0, 1)]), (1, 2))
    space = FSmmSpace(x, y)
    arrs = list(space.enumerate())
    assert len(arrs) == space.count()
    for a in arrs:
        assert tuple(sum(r) for r in a) == (2, 1)
        assert tuple(sum(c) for c in zip(*a)) == (1, 2)


def test_incompatible_sizes_error():
    from fsglab.graphs import IncompatibleSizesError

    with pytest.raises(IncompatibleSizesError):
        space_for(path_graph(3), path_graph(4), "fs")
    with pytest.raises(IncompatibleSizesError):
        space_for(path_graph(4), EDGE12, "fsm")


def test_fs_rejects_label_multiplicities():
    from fsglab.graphs import IncompatibleSizesError

    with pytest.raises(IncompatibleSizesError):
        space_for(path_graph(3), EDGE12, "fs")


def test_fs_accepts_unit_multiplicities():
    p3 = path_graph(3)
    unit = build_components(as_multiplicity(p3), as_multiplicity(p3), variant="fs")
    assert unit.component_sizes == build_components(p3, p3).component_sizes == [3, 3]


@pytest.mark.parametrize("call, error", [
    (lambda: space_for(path_graph(3), path_graph(3), "fsx"),
     (ValueError, "unknown variant 'fsx'")),
    (lambda: space_for(path_graph(3), path_graph(3), "fs").x_moves,
     (AttributeError, "x_moves")),
], ids=["unknown-variant", "unknown-move"])
def test_input_errors(call, error):
    with pytest.raises(error[0], match=error[1]):
        call()


# -- friendly neighbors -------------------------------------------------------------

def test_neighbors_fs_p3_p3():
    space = space_for(path_graph(3), path_graph(3), "fs")
    nbrs = set(space.neighbors((0, 1, 2)))
    assert nbrs == {(1, 0, 2), (0, 2, 1)}


def test_neighbors_fig3_middle_arrangement():
    space = space_for(path_graph(3), EDGE12, "fsm")
    assert set(space.neighbors((1, 0, 1))) == {(0, 1, 1), (1, 1, 0)}


def test_neighbors_edgeless_positions():
    space = space_for(edgeless_graph(3), path_graph(3), "fs")
    assert space.neighbors((0, 1, 2)) == []


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 6 - 1), st.integers(0, 2 ** 6 - 1), st.integers(1, 3))
def test_swap_symmetry_all_variants(mx, my, c_extra):
    pairs4 = list(itertools.combinations(range(4), 2))
    x = SimpleGraph(4, [pairs4[i] for i in range(6) if mx >> i & 1])
    ybase = SimpleGraph(3, [e for i, e in enumerate([(0, 1), (0, 2), (1, 2)]) if my >> i & 1])
    y = MultiplicityGraph(ybase, (2, 1, c_extra))
    xm = MultiplicityGraph(x, (1, 1, 1, c_extra))
    for variant, xx, yy in (
        ("fs", x, SimpleGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])),
        ("fsm", SimpleGraph(3 + c_extra, [(i, i + 1) for i in range(2 + c_extra)]), y),
        ("fsmm", xm, MultiplicityGraph(ybase, (2, 1, 1 + c_extra))),
    ):
        try:
            space = space_for(xx, yy, variant)
        except Exception:
            continue
        for a in itertools.islice(space.enumerate(), 12):
            for b in space.neighbors(a):
                assert a in space.neighbors(b)


# -- components ----------------------------------------------------------------------

def test_components_fs_p3_p3():
    rep = build_components(path_graph(3), path_graph(3), variant="fs")
    assert rep.component_count == 2
    assert rep.component_sizes == [3, 3]
    assert rep.vertex_count == 6 and rep.edge_count == 4
    # cross-check = number of acyclic orientations of the complement
    from fsglab.orientations import enumerate_acyc
    from fsglab.graphs import complement

    assert rep.component_count == len(enumerate_acyc(complement(path_graph(3))))


def test_components_fig3():
    rep = build_components(path_graph(3), EDGE12, variant="fsm")
    assert rep.component_count == 1 and rep.component_sizes == [3]


def test_components_cycle4_parity_split():
    rep = build_components(cycle_graph(4), cycle_graph(4), variant="fs")
    assert rep.component_count == 2


def test_components_budget():
    with pytest.raises(BudgetExceededError) as exc:
        build_components(path_graph(5), path_graph(5), budget=100, variant="fs")
    assert exc.value.required == 120


def test_components_symmetry_in_both_arguments():
    # FS(X, Y) and FS(Y, X) have matching component size multisets:
    # exhaustive through n = 4, sampled at n = 5
    for n in range(2, 5):
        classes = families.graph_classes(n)
        for x in classes:
            for y in classes:
                a = build_components(x, y, variant="fs")
                b = build_components(y, x, variant="fs")
                assert sorted(a.component_sizes) == sorted(b.component_sizes)
    rng = random.Random(9)
    for _ in range(60):
        x = families.random_graph(5, rng.uniform(0.2, 0.8), rng)
        y = families.random_graph(5, rng.uniform(0.2, 0.8), rng)
        a = build_components(x, y, variant="fs")
        b = build_components(y, x, variant="fs")
        assert sorted(a.component_sizes) == sorted(b.component_sizes)


def test_component_ids_dense_and_deterministic():
    rep = build_components(path_graph(4), path_graph(4), variant="fs")
    seen = []
    for a in space_for(path_graph(4), path_graph(4), "fs").enumerate():
        cid = rep.component_id[a]
        if cid not in seen:
            seen.append(cid)
    assert seen == list(range(rep.component_count))
    assert sum(rep.component_sizes) == rep.vertex_count


K2 = SimpleGraph(2, [(0, 1)])


@pytest.mark.parametrize("x, y, variant", [
    (path_graph(5), cycle_graph(5), "fs"),
    (cycle_graph(5), MultiplicityGraph(path_graph(3), (2, 2, 1)), "fsm"),
    (MultiplicityGraph(path_graph(3), (2, 2, 2)),
     MultiplicityGraph(path_graph(4), (3, 1, 1, 1)), "fsmm"),
    # two-digit entries: key order is not enumeration order
    (MultiplicityGraph(path_graph(3), (10, 10, 3)),
     MultiplicityGraph(K2, (12, 11)), "fsmm"),
    (edgeless_graph(0), edgeless_graph(0), "fs"),
    (edgeless_graph(0), edgeless_graph(0), "fsmm"),
])
def test_json_text_is_the_sorted_dump_of_the_key_dict(x, y, variant):
    rep = build_components(x, y, variant=variant)
    d = {"vertices": rep.vertex_count, "edges": rep.edge_count,
         "components": rep.component_sizes}
    assert rep.to_json() == json.dumps(d, sort_keys=True)
    d["component_id"] = {_arrangement_key(a): i
                         for a, i in rep.component_id.items()}
    assert rep.to_json(include_ids=True) == json.dumps(d, sort_keys=True)


# -- exchangeability -----------------------------------------------------------------

def test_exchangeable_fs_labels():
    p3 = path_graph(3)
    assert is_exchangeable(p3, p3, (0, 1, 2), 0, 1, variant="fs")
    assert not is_exchangeable(p3, p3, (0, 1, 2), 0, 2, variant="fs")


def test_exchangeable_one_swap_trivial():
    g = complete_graph(3)
    assert is_exchangeable(g, path_graph(3), (0, 1, 2), 0, 1, variant="fs")


def test_exchangeable_fsm_positions():
    y = MultiplicityGraph(star_graph(3), (2, 1, 1))
    x = path_graph(4)
    # positions 1, 2 hold the two distinct leaf labels; a path cannot
    # reorder them
    a = (0, 1, 2, 0)
    assert not is_exchangeable(x, y, a, 1, 2, variant="fsm", budget=10_000)
    assert is_exchangeable(x, y, a, 0, 3, variant="fsm", budget=10_000)


def test_exchangeable_rejects_equal_pair():
    with pytest.raises(ValueError, match="distinct"):
        is_exchangeable(path_graph(3), path_graph(3), (0, 1, 2), 1, 1, variant="fs")


def test_exchangeable_rejects_bad_arrangement():
    with pytest.raises(InvalidArrangementError):
        is_exchangeable(path_graph(3), path_graph(3), (0, 0, 2), 0, 1, variant="fs")
    # labels are ints, not numbers equal to them
    with pytest.raises(InvalidArrangementError):
        is_exchangeable(path_graph(3), path_graph(3), (0, 1.0, 2), 0, 1, variant="fs")
    with pytest.raises(InvalidArrangementError):
        is_exchangeable(path_graph(3), EDGE12, (1, 0.0, 1), 0, 1, variant="fsm")


def _no_walk(*args, **kwargs):
    raise AssertionError("walked the space")


def test_exchangeable_rejects_labels_outside_the_space():
    # (0, 99) used to walk the whole component and answer False
    p3, a = path_graph(3), (0, 1, 2)
    assert not is_exchangeable(p3, p3, a, 0, 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statespace, "reachable", _no_walk)
        for u, v in ((0, 99), (99, 0), (-1, 0), (0, 3), (0, 2.0)):
            with pytest.raises(ValueError, match=r"label .* is not in range\(3\)"):
                is_exchangeable(p3, p3, a, u, v, variant="fs")


def test_exchangeable_rejects_positions_outside_the_space():
    # position -1 used to wrap to the last position and answer True
    x, y = path_graph(4), MultiplicityGraph(star_graph(3), (2, 1, 1))
    a = (0, 1, 2, 0)
    assert not is_exchangeable(x, y, a, 1, 2, variant="fsm")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statespace, "reachable", _no_walk)
        for u, v in ((-1, 0), (0, -1), (1, 4), (1, 2.0)):
            with pytest.raises(ValueError, match=r"position .* is not in range\(4\)"):
                is_exchangeable(x, y, a, u, v, variant="fsm")


def test_exchangeable_rejects_fsmm_before_reading_the_arrangement():
    x = MultiplicityGraph(K2, (2, 1))
    with pytest.raises(ValueError, match="defined for fs and fsm variants"):
        is_exchangeable(x, x, "not an arrangement", 0, 1, variant="fsmm")


def test_exchangeable_answers_before_charging_the_budget():
    # FS(P3, K3) from (0, 1, 2) in BFS order: (1, 0, 2), (0, 2, 1),
    # (1, 2, 0), (2, 0, 1), then the target (2, 1, 0) as the sixth state
    x, y = path_graph(3), complete_graph(3)
    assert is_exchangeable(x, y, (0, 1, 2), 0, 2, budget=5)
    with pytest.raises(BudgetExceededError) as exc:
        is_exchangeable(x, y, (0, 1, 2), 0, 2, budget=4)
    assert exc.value.required == 5


@pytest.mark.parametrize("x, y, a, u, v, variant", [
    (path_graph(3), path_graph(3), (0, 1, 2), 0, 2, "fs"),
    (path_graph(4), MultiplicityGraph(star_graph(3), (2, 1, 1)),
     (0, 1, 2, 0), 1, 2, "fsm"),
])
def test_exchangeable_miss_charges_the_whole_component(x, y, a, u, v, variant):
    rep = build_components(x, y, variant=variant)
    size = rep.component_sizes[rep.component_id[a]]
    assert size > 1
    assert not is_exchangeable(x, y, a, u, v, budget=size, variant=variant)
    for budget in range(1, size):
        with pytest.raises(BudgetExceededError) as exc:
            is_exchangeable(x, y, a, u, v, budget=budget, variant=variant)
        assert exc.value.required == budget + 1


def test_exchangeability_transfer_along_paths():
    # if a swap path avoids u, v then exchangeability of (u, v) transfers
    rng = random.Random(7)
    x = cycle_graph(5)
    y = SimpleGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
    space = space_for(x, y, "fs")
    rep = build_components(x, y, variant="fs")
    for _ in range(30):
        a = tuple(rng.sample(range(5), 5))
        u, v = rng.sample(range(5), 2)
        ex_a = is_exchangeable(x, y, a, u, v, variant="fs")
        # random swap walk avoiding labels u, v
        cur = a
        for _ in range(6):
            nbrs = [
                b for b in space.neighbors(cur)
                if all(cur[p] == b[p] for p in range(5)
                       if cur[p] in (u, v))
            ]
            if not nbrs:
                break
            cur = rng.choice(nbrs)
        assert is_exchangeable(x, y, cur, u, v, variant="fs") == ex_a


# -- parity audit ---------------------------------------------------------------------

def test_parity_audit_examples():
    assert parity_audit(cycle_graph(4), cycle_graph(4))
    assert parity_audit(path_graph(4), path_graph(4))


def test_parity_audit_rejects_nonbipartite():
    from fsglab.statespace import NonBipartiteError

    with pytest.raises(NonBipartiteError):
        parity_audit(complete_graph(3), path_graph(3))


def test_parity_audit_all_bipartite_pairs_n4():
    bip = [g for g in families.graph_classes(4) if g.n == 4]
    from fsglab.graphs import bipartition

    bip = [g for g in bip if bipartition(g) is not None]
    for x in bip:
        for y in bip:
            assert parity_audit(x, y)


def test_bipartite_pairs_split_into_at_least_two_components():
    # with at least one edge on each side, the parity obstruction forces >= 2
    for x in (path_graph(4), cycle_graph(4), complete_bipartite_graph(2, 2)):
        for y in (path_graph(4), cycle_graph(4)):
            rep = build_components(x, y, variant="fs")
            assert rep.component_count >= 2


# -- quotient audit -------------------------------------------------------------------

def test_quotient_audit_fig3():
    assert quotient_audit(path_graph(3), EDGE12)


def test_quotient_audit_identity_when_unit_mults():
    y = MultiplicityGraph(path_graph(3), (1, 1, 1))
    assert quotient_audit(path_graph(3), y)


def test_quotient_audit_cycle4_vs_p3():
    y = MultiplicityGraph(path_graph(3), (1, 1, 2))
    assert quotient_audit(cycle_graph(4), y)


def test_quotient_audit_on_a_multi_block_lift():
    # the lift of P3 x (3,3,2) has 8 labels, so its fs space on C8 has 8!
    # arrangements, above the 7! one-block bound: the multi-block path
    y = MultiplicityGraph(path_graph(3), (3, 3, 2))
    states = space_for(cycle_graph(8), lift(y)[0], "fs").count()
    assert states == 40_320 > statespace._TABLE_STATES
    assert quotient_audit(cycle_graph(8), y)


def test_quotient_audit_small_family():
    for x in families.graph_classes(4, connected=True):
        for y in families.multiplicity_graphs(3, 4):
            if y.total != x.n:
                continue
            assert quotient_audit(x, y), (x, y)


def _graph(n, mask):
    pairs = list(itertools.combinations(range(n), 2))
    return SimpleGraph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


def _graphs(n):
    return st.integers(0, 2 ** (n * (n - 1) // 2) - 1).map(lambda m: _graph(n, m))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(_graphs(n), _graphs(n))))
def test_fs_swapping_the_graphs_keeps_component_sizes(pair):
    # an arrangement of FS(X, Y) maps to its inverse in FS(Y, X), and a
    # friendly swap to a friendly swap (Defant-Kravitz 2020)
    x, y = pair
    assert sorted(build_components(x, y, variant="fs").component_sizes) == \
        sorted(build_components(y, x, variant="fs").component_sizes)


def _fsm_spaces():
    """(X, Y) with total multiplicity |V(X)| <= 6, each label used 1 to 3
    times."""
    return (st.lists(st.integers(1, 3), min_size=1, max_size=6)
            .filter(lambda mult: sum(mult) <= 6)
            .flatmap(lambda mult: st.tuples(_graphs(sum(mult)), _graphs(len(mult)),
                                            st.just(tuple(mult))))
            .map(lambda case: (case[0], MultiplicityGraph(case[1], case[2]))))


@settings(max_examples=60, deadline=None)
@given(_fsm_spaces())
def test_quotient_audit_on_random_multiplicities(case):
    x, y = case
    assert quotient_audit(x, y)


# -- exchangeability across queries -------------------------------------------------------

def _target(a, u, v, variant):
    if variant == "fs":
        return tuple(u if t == v else v if t == u else t for t in a)
    b = list(a)
    b[u], b[v] = b[v], b[u]
    return tuple(b)


def _outcome(x, y, a, u, v, variant="fs", budget=None):
    """``is_exchangeable``'s answer, or the ``required`` it raises with."""
    try:
        return is_exchangeable(x, y, a, u, v, budget=budget, variant=variant)
    except BudgetExceededError as e:
        return "budget", e.required


def _cold(x, y, a, u, v, variant="fs", budget=None):
    """The answer of a BFS from ``a`` that stops at the target, or the
    ``required`` it raises with: the query asked with nothing kept."""
    target = _target(a, u, v, variant)
    if target == a:
        return True
    try:
        return any(s == target for s in
                   statespace.reachable(space_for(x, y, variant), a, budget))
    except BudgetExceededError as e:
        return "budget", e.required


def _queries(starts):
    return [(a, u, v) for a in starts
            for u, v in itertools.combinations(range(len(a)), 2)]


def _partition_answers(rep, queries, variant="fs"):
    return [rep.component_of(a) == rep.component_of(_target(a, u, v, variant))
            for a, u, v in queries]


def _forbid_walks(mp):
    """Make a BFS or a component build fail the test."""
    mp.setattr(statespace, "reachable", _no_walk)
    mp.setattr(statespace, "build_components", _no_walk)


def _assert_warm_answers(x, y, starts, variant):
    """Every pair from every start, asked in turn, gets the answer of the
    component partition and of a cold BFS; asked again, it walks nothing.
    Returns the answers."""
    rep = build_components(x, y, variant=variant)
    queries = _queries(starts)
    partition = _partition_answers(rep, queries, variant)
    assert [_outcome(x, y, a, u, v, variant) for a, u, v in queries] == partition
    assert [_cold(x, y, a, u, v, variant) for a, u, v in queries] == partition
    with pytest.MonkeyPatch.context() as mp:
        _forbid_walks(mp)
        assert [_outcome(x, y, a, u, v, variant) for a, u, v in queries] == partition
    return partition


def test_kept_components_answer_every_label_pair_on_the_oracle_many_space():
    # FS(C8, complement of P8): 8 components of 5,040, the exchange space of
    # the benchmark's oracle-many workload
    x, y = cycle_graph(8), complement(path_graph(8))
    starts = [tuple(range(8)), (3, 7, 1, 6, 0, 4, 2, 5), (5, 2, 7, 0, 6, 1, 3, 4)]
    answers = _assert_warm_answers(x, y, starts, "fs")
    assert 0 < sum(answers) < len(answers)


@settings(max_examples=40, deadline=None)
@given(_fsm_spaces(), _fsm_spaces(), st.randoms())
def test_kept_components_answer_every_position_pair_on_fsm_spaces(one, two, rng):
    for x, y in (one, two):
        arrangements = list(space_for(x, y, "fsm").enumerate())
        starts = [rng.choice(arrangements) for _ in range(3)]
        _assert_warm_answers(x, y, starts, "fsm")


def _relabel(g, perm):
    return SimpleGraph(g.n, [(perm[u], perm[v]) for u, v in g.edge_list])


def test_kept_components_follow_the_space_they_were_walked_on():
    # A, then B, then A again, then A with positions and labels renamed:
    # each answers as its own partition, and a query on one space drops what
    # was kept for another
    a_graphs = (cycle_graph(6), complement(path_graph(6)))
    b_graphs = (path_graph(6), cycle_graph(6))
    pos, lab = (2, 0, 5, 1, 3, 4), (4, 2, 0, 5, 1, 3)
    renamed = (_relabel(a_graphs[0], pos), _relabel(a_graphs[1], lab))
    starts = [(0, 1, 2, 3, 4, 5), (5, 3, 1, 0, 2, 4)]
    a_queries = _queries(starts)
    renamed_queries = []
    for a, u, v in a_queries:
        b = [0] * 6
        for p, t in enumerate(a):
            b[pos[p]] = lab[t]
        renamed_queries.append((tuple(b), lab[u], lab[v]))
    a_answers = _partition_answers(build_components(*a_graphs), a_queries)
    b_answers = _partition_answers(build_components(*b_graphs), a_queries)
    assert _partition_answers(build_components(*renamed), renamed_queries) == a_answers
    # both answers come from every start on both spaces
    for answers in (a_answers, b_answers):
        for part in (answers[:15], answers[15:]):
            assert any(part) and not all(part)
    passes = ((a_graphs, a_queries, a_answers), (b_graphs, a_queries, b_answers),
              (a_graphs, a_queries, a_answers),
              (renamed, renamed_queries, a_answers))
    for k, ((x, y), queries, answers) in enumerate(passes):
        assert [is_exchangeable(x, y, a, u, v) for a, u, v in queries] == answers
        with pytest.MonkeyPatch.context() as mp:
            _forbid_walks(mp)
            # the space just asked answers again without a walk; the one
            # before it walks again
            assert [is_exchangeable(x, y, a, u, v)
                    for a, u, v in queries] == answers
            if k:
                (px, py), pq, _ = passes[k - 1]
                with pytest.raises(AssertionError, match="walked the space"):
                    is_exchangeable(px, py, *pq[0])
    # A's kept components answer A's questions without a walk, but not
    # those of the renamed copy
    for a, u, v in a_queries:
        is_exchangeable(*a_graphs, a, u, v)
    with pytest.MonkeyPatch.context() as mp:
        _forbid_walks(mp)
        assert [is_exchangeable(*a_graphs, a, u, v)
                for a, u, v in a_queries] == a_answers
        with pytest.raises(AssertionError, match="walked the space"):
            is_exchangeable(*renamed, *renamed_queries[0])


def test_fs_and_unit_fsm_share_the_kept_components():
    # the same space asked by labels (fs) and by positions (fsm)
    x, y = cycle_graph(8), complement(path_graph(8))
    unit = MultiplicityGraph(y, (1,) * 8)
    a = (3, 7, 1, 6, 0, 4, 2, 5)
    pairs = list(itertools.combinations(range(8), 2))
    by_positions = [tuple(sorted((a.index(u), a.index(v)))) for u, v in pairs]
    p3 = path_graph(3)
    for (first, ask_first), (then, ask_then) in (
            (("fs", pairs), ("fsm", by_positions)),
            (("fsm", by_positions), ("fs", pairs))):
        yy = {"fs": y, "fsm": unit}
        # another space replaces what the last pass kept
        assert not is_exchangeable(p3, p3, (0, 1, 2), 0, 2)
        answers = [is_exchangeable(x, yy[first], a, u, v, variant=first)
                   for u, v in ask_first]
        assert 0 < sum(answers) < len(answers)
        with pytest.MonkeyPatch.context() as mp:
            _forbid_walks(mp)
            assert [is_exchangeable(x, yy[then], a, p, q, variant=then)
                    for p, q in ask_then] == answers


@pytest.mark.parametrize("x, y, a, u, v, variant", [
    (path_graph(3), path_graph(3), (0, 1, 2), 0, 2, "fs"),
    (path_graph(4), MultiplicityGraph(star_graph(3), (2, 1, 1)),
     (0, 1, 2, 0), 1, 2, "fsm"),
])
def test_warm_miss_charges_the_whole_component(x, y, a, u, v, variant):
    # test_exchangeable_miss_charges_the_whole_component, after an
    # unbudgeted miss has kept the space's components
    rep = build_components(x, y, variant=variant)
    size = rep.component_sizes[rep.component_id[a]]
    total = rep.vertex_count
    assert 1 < size < total
    cold = {budget: _cold(x, y, a, u, v, variant, budget) for budget in (-1, 0)}
    assert not is_exchangeable(x, y, a, u, v, variant=variant)
    assert not is_exchangeable(x, y, a, u, v, budget=size, variant=variant)
    for budget in range(1, size):
        with pytest.raises(BudgetExceededError) as exc:
            is_exchangeable(x, y, a, u, v, budget=budget, variant=variant)
        assert exc.value.required == budget + 1
    for budget in (-1, 0):
        assert _outcome(x, y, a, u, v, variant, budget) == cold[budget] == \
            ("budget", 2)
    # a budget that covers the space answers from what was kept
    with pytest.MonkeyPatch.context() as mp:
        _forbid_walks(mp)
        for budget in (None, total, total + 1):
            assert not is_exchangeable(x, y, a, u, v, budget=budget,
                                       variant=variant)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_warm_budgets_give_the_cold_answers_and_raises(n):
    # the budget half of test_exchangeability_agrees_with_is_exchangeable,
    # asked again after unbudgeted queries on the same space
    graphs = [g for g in families.graph_classes(n, connected=True) if g.n == n]
    ident = tuple(range(n))
    pairs = list(itertools.combinations(range(n), 2))
    total = math.factorial(n)
    for g, h in itertools.product(graphs, repeat=2):
        component = [ident, *statespace.reachable(space_for(g, h, "fs"), ident)]
        asked = []
        for u, v in pairs:
            target = _target(ident, u, v, "fs")
            if target in component:
                # the BFS sees this many states up to the target
                explored = component.index(target)
                pinned = {explored: True, explored - 1: ("budget", explored)}
            else:
                size = len(component)
                pinned = {size: False, size - 1: ("budget", size)}
            for budget in {-1, 0, total, *pinned}:
                asked.append((u, v, budget, pinned.get(budget)))
        cold = [_cold(g, h, ident, u, v, budget=budget) for u, v, budget, _ in asked]
        assert [is_exchangeable(g, h, ident, u, v) for u, v in pairs] == \
            [_target(ident, u, v, "fs") in component for u, v in pairs]
        warm = [_outcome(g, h, ident, u, v, budget=budget) for u, v, budget, _ in asked]
        assert warm == cold
        for (u, v, budget, expected), got in zip(asked, warm):
            if expected is not None and budget > 0:
                assert got == expected, (g, h, u, v, budget)


def test_kept_slot_costs_at_most_24_bytes_a_state():
    # the 56 queries of one oracle-many repetition
    x, y = cycle_graph(8), complement(path_graph(8))
    rng = random.Random(8)
    queries = [(tuple(rng.sample(range(8), 8)), u, v)
               for u, v in itertools.combinations(range(8), 2) for _ in range(2)]
    is_exchangeable(x, y, *queries[0])   # compiles the space's moves
    p3 = path_graph(3)
    assert not is_exchangeable(p3, p3, (0, 1, 2), 0, 2)   # keeps 6 states
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        answers = [is_exchangeable(x, y, a, u, v) for a, u, v in queries]
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert 0 < sum(answers) < len(answers)
    states = space_for(x, y, "fs").count()
    assert states == 40_320 == statespace._SLOT_STATES
    # measured: about 17.7 B a state, the report's 8 B ids and its index
    assert kept <= 24 * states


def test_build_components_peak_under_31_bytes_a_state():
    # FS(K4,4, C8): 40,320 arrangements, above the 7! table bound, so the
    # rank index is this call's own
    x, y = complete_bipartite_graph(4, 4), cycle_graph(8)
    build_components(x, y)   # grows the shared list of rank ints to this size
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        report = build_components(x, y)
        gc.collect()
        kept, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    states = report.vertex_count
    assert states == 40_320 > statespace._TABLE_STATES
    # measured: 24.8 B a state at the peak, 17.9 B of it kept by the report
    assert peak <= 31 * states
    assert kept <= 24 * states


def test_build_components_above_8_factorial_keeps_4_byte_ids():
    # FSm(C9, K7 with labels 0 and 1 twice): 90,720 arrangements, above the
    # bound of the shared list of rank ints, so parents and ids are an
    # array of 4 B entries.  FS(K4,5, C9) takes about 8 s under tracemalloc
    x, y = cycle_graph(9), MultiplicityGraph(complete_graph(7), (2, 2, 1, 1, 1, 1, 1))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        report = build_components(x, y, variant="fsm")
        gc.collect()
        kept, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    states = report.vertex_count
    assert states == 90_720 > statespace._LIST_STATES
    assert report.component_id.ids.itemsize == 4
    # measured: 13.3 B a state at the peak, 9.8 B of it kept by the report
    # (11.5 B kept with a flat table of every suffix, 15.5 B with 8 B ids too)
    assert peak <= 18 * states
    assert kept <= 14 * states


def test_oracle_large_fsmm_space_peaks_under_30_bytes_a_state():
    # FSmm(C6 x (2,2,2,2,2,1), P6 x (2,2,2,2,2,1)), the fsmm space of the
    # benchmark's oracle-large workload: 3,630 blocks of 3 rows in 96 rooms
    x = MultiplicityGraph(cycle_graph(6), (2, 2, 2, 2, 2, 1))
    y = MultiplicityGraph(path_graph(6), (2, 2, 2, 2, 2, 1))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        report = build_components(x, y, variant="fsmm")
        gc.collect()
        kept, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert (report.vertex_count, report.edge_count, report.component_count) \
        == (61_260, 167_124, 161)
    states = report.vertex_count
    # measured: 23.8 B a state at the peak, 15.6 B of it kept by the report
    # (30.3 and 16.9 B with a union kernel generated and compiled per shape)
    assert peak <= 30 * states
    assert kept <= 18 * states


def test_a_query_above_the_state_bound_keeps_nothing():
    # FS(K4,5, C9): 362,880 arrangements; the identity's component has 2,520
    x, y = complete_bipartite_graph(4, 5), cycle_graph(9)
    a = tuple(range(9))
    assert space_for(x, y, "fs").count() > statespace._SLOT_STATES
    with pytest.raises(BudgetExceededError) as exc:
        is_exchangeable(x, y, a, 0, 1, budget=2519)
    assert exc.value.required == 2520
    p3 = path_graph(3)
    assert not is_exchangeable(p3, p3, (0, 1, 2), 0, 2)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert not is_exchangeable(x, y, a, 0, 1, budget=2520)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 1024
    with pytest.MonkeyPatch.context() as mp:
        # without a budget it still walks the one component, building nothing
        mp.setattr(statespace, "build_components", _no_walk)
        assert not is_exchangeable(x, y, a, 0, 1)
        # and P3 is still kept
        _forbid_walks(mp)
        assert not is_exchangeable(p3, p3, (0, 1, 2), 0, 2)


# -- bridge component invariant ---------------------------------------------------------

def test_kbridge_invariant_p5():
    x = path_graph(5)
    star = MultiplicityGraph(star_graph(3), (3, 1, 1))
    # blanks on the bridge (1,2,3), leaf label 1 inside side A = {0}
    start = (1, 0, 0, 0, 2)
    assert kbridge_component_invariant(x, star, (1, 2, 3), 1, start)


def test_kbridge_invariant_excludes_other_components():
    x = path_graph(5)
    star = MultiplicityGraph(star_graph(3), (3, 1, 1))
    start = (1, 0, 0, 0, 2)
    rep = build_components(x, star, variant="fsm")
    # arrangements violating the containment sit in other components
    violating = (2, 0, 0, 0, 1)
    assert rep.component_id[start] != rep.component_id[violating]


def test_kbridge_invariant_budget_covers_the_component():
    x = path_graph(5)
    star = MultiplicityGraph(star_graph(3), (3, 1, 1))
    start = (1, 0, 0, 0, 2)
    rep = build_components(x, star, variant="fsm")
    size = rep.component_sizes[rep.component_id[start]]
    assert kbridge_component_invariant(x, star, (1, 2, 3), 1, start, budget=size)
    for budget in range(1, size):
        with pytest.raises(BudgetExceededError) as exc:
            kbridge_component_invariant(x, star, (1, 2, 3), 1, start,
                                        budget=budget)
        assert exc.value.required == budget + 1


def test_kbridge_invariant_rejects_a_leaf_outside_the_star():
    # 99 used to walk the whole component and answer True, and the centre
    # label 0 answered False, the blanks being taken for the leaf
    x, star = path_graph(5), MultiplicityGraph(star_graph(3), (3, 1, 1))
    start = (1, 0, 0, 0, 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statespace, "reachable", _no_walk)
        for leaf in (99, 0, -1, 3, 1.0):
            with pytest.raises(ValueError, match="is not a leaf label of the star"):
                kbridge_component_invariant(x, star, (1, 2, 3), leaf, start)


def test_kbridge_invariant_rejects_non_bridge():
    x = cycle_graph(5)
    star = MultiplicityGraph(star_graph(3), (3, 1, 1))
    with pytest.raises(KBridgeError):
        kbridge_component_invariant(x, star, (1, 2, 3), 1, (1, 0, 0, 0, 2))


def test_kbridge_invariant_rejects_wrong_bridge_length():
    star = MultiplicityGraph(star_graph(3), (3, 1, 1))
    with pytest.raises(KBridgeError, match="bridge length 2"):
        kbridge_component_invariant(path_graph(5), star, (1, 2), 1, (1, 0, 0, 0, 2))


def test_kbridge_invariant_rejects_invalid_start():
    star = MultiplicityGraph(star_graph(3), (3, 1, 1))
    with pytest.raises(InvalidArrangementError):
        kbridge_component_invariant(path_graph(5), star, (1, 2, 3), 1, (1, 1, 0, 0, 2))


def test_cut_vertex_bound_small():
    # label graphs with a unit-multiplicity cut vertex against position
    # graphs with a cut vertex: component count >= contingency count
    from fsglab.graphs import contingency_count

    x = MultiplicityGraph(path_graph(3), (1, 1, 1))  # center is a cut vertex
    y = path_graph(3)
    rep = build_components(y, x, variant="fsm")
    # rows: component totals of x minus center; cols: component sizes of y
    bound = contingency_count([1, 1], [1, 1])
    assert rep.component_count >= bound == 2
