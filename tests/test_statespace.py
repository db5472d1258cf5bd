"""Arrangement state spaces: enumeration, components, audits."""

import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from fsglab.graphs import (
    MultiplicityGraph,
    SimpleGraph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    edgeless_graph,
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
from fsglab import families


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


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=6)
       .filter(lambda mult: sum(mult) <= 6)
       .flatmap(lambda mult: st.tuples(_graphs(sum(mult)), _graphs(len(mult)),
                                       st.just(tuple(mult)))))
def test_quotient_audit_on_random_multiplicities(case):
    x, base, mult = case
    assert quotient_audit(x, MultiplicityGraph(base, mult))


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
