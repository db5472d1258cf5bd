"""Core graph types and predicates."""

import itertools
import random
import re
import sys
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from fsglab.graphs import (
    CliquePartition,
    MarginMismatchError,
    MultiplicityGraph,
    SimpleGraph,
    articulation_analysis,
    bipartition,
    complement,
    complete_bipartite_graph,
    complete_graph,
    compositions,
    contingency_count,
    cycle_graph,
    cyclic_order_count,
    edgeless_graph,
    find_blocking_chains,
    find_k_bridges,
    graph_from_json_dict,
    graph_to_json_dict,
    is_theta0,
    is_valid_bipartition,
    is_wilsonian,
    lift,
    path_graph,
    star_center,
    star_graph,
    theta0,
    wilson_star_components,
    _union,
)
import reference
from fsglab import families
from fsglab.statespace import build_components


def random_graph_strategy(max_n=6):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = list(itertools.combinations(range(n), 2))
        mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
        return SimpleGraph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
    return build()


# -- complement ---------------------------------------------------------------

def test_complement_path3():
    assert sorted(complement(path_graph(3)).edges) == [(0, 2)]


def test_complement_triangle_is_edgeless():
    assert complement(complete_graph(3)).m == 0


@settings(max_examples=60, deadline=None)
@given(random_graph_strategy())
def test_complement_involution(g):
    assert complement(complement(g)) == g


# -- construction and subgraphs ------------------------------------------------

@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 8).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
             .filter(lambda e: e[0] != e[1]), max_size=3 * n))))
def test_adjacency_rows_sorted_for_any_edge_order(case):
    # edges in any order and orientation, repeats included
    n, edges = case
    g = SimpleGraph(n, edges)
    assert g.edge_list == tuple(sorted({(min(e), max(e)) for e in edges}))
    for v in range(n):
        assert list(g.neighbors(v)) == sorted(
            w for e in g.edge_list if v in e for w in e if w != v)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(random_graph_strategy(max_n=8).flatmap(lambda g: st.tuples(
    st.just(g), st.sets(st.integers(0, g.n - 1)))))
def test_subgraph_equals_constructed_relabelling(case):
    g, keep = case
    sub, old = g.subgraph(keep)
    idx = {v: i for i, v in enumerate(old)}
    built = SimpleGraph(len(old), [(idx[u], idx[v]) for u, v in g.edge_list
                                   if u in idx and v in idx])
    assert old == sorted(keep)
    assert (sub.n, sub.edges, sub.edge_list) == (built.n, built.edges, built.edge_list)
    assert [sub.neighbors(v) for v in range(sub.n)] == [
        built.neighbors(v) for v in range(built.n)]
    # the edge set is no larger in memory than the constructor's
    assert sys.getsizeof(sub.edges) == sys.getsizeof(built.edges)


@pytest.mark.parametrize("n, edges, error", [
    (3, [(0, 1), (2, 2), (0, 5)], "loop at vertex 2"),
    (3, [(0, 1), (0, 5), (2, 2)], r"edge \(0,5\) out of range for n=3"),
    (3, [(5, 0), (1, 1)], r"edge \(5,0\) out of range for n=3"),
    (3, [(1, 0), (-1, 2)], r"edge \(-1,2\) out of range for n=3"),
    (3, [(2, -1)], r"edge \(2,-1\) out of range for n=3"),
    (2, [(7, 7), (0, 9)], "loop at vertex 7"),
], ids=["loop-first", "range-first", "range-reversed", "negative-first",
        "negative-second", "loop-out-of-range"])
def test_first_offending_edge_is_reported(n, edges, error):
    with pytest.raises(ValueError, match=f"^{error}$"):
        SimpleGraph(n, edges)


# -- bipartition ---------------------------------------------------------------

def test_bipartition_c4():
    assert bipartition(cycle_graph(4)) == (frozenset({0, 2}), frozenset({1, 3}))


def test_bipartition_triangle_absent():
    assert bipartition(complete_graph(3)) is None


def test_bipartition_edgeless_canonical():
    a, b = bipartition(edgeless_graph(3))
    assert a == frozenset({0, 1, 2}) and b == frozenset()


@settings(max_examples=60, deadline=None)
@given(random_graph_strategy())
def test_bipartition_is_a_2_coloring(g):
    parts = bipartition(g)
    if parts is None:
        # brute-force: some odd closed walk must exist
        assert any(
            len(c) % 2 == 1
            for c in _all_cycles(g)
        )
    else:
        a, _ = parts
        for u, v in g.edges:
            assert (u in a) != (v in a)


def _all_cycles(g):
    # cycle vertex-sets via DFS, small graphs only
    out = []

    def walk(start, v, path):
        for w in g.neighbors(v):
            if w == start and len(path) >= 3:
                out.append(tuple(path))
            elif w not in path and w > start:
                walk(start, w, path + [w])

    for s in range(g.n):
        walk(s, s, [s])
    return out


# -- articulation ---------------------------------------------------------------

def test_articulation_path3():
    cuts, biconn = articulation_analysis(path_graph(3))
    assert cuts == frozenset({1}) and not biconn


def test_articulation_c5():
    cuts, biconn = articulation_analysis(cycle_graph(5))
    assert cuts == frozenset() and biconn


def test_articulation_theta0():
    # independent oracle: vertex deletion must not raise the component count
    g = theta0()
    cuts, biconn = articulation_analysis(g)
    assert cuts == frozenset() and biconn
    for v in range(g.n):
        sub, _ = g.subgraph(set(range(g.n)) - {v})
        assert len(sub.connected_components()) == 1


@settings(max_examples=60, deadline=None)
@given(random_graph_strategy())
def test_articulation_matches_deletion_oracle(g):
    cuts, biconn = articulation_analysis(g)
    base = len(g.connected_components())
    expected = set()
    for v in range(g.n):
        if g.n == 1:
            continue
        sub, _ = g.subgraph(set(range(g.n)) - {v})
        # v is a cut vertex iff its removal increases the component count
        if len(sub.connected_components()) > base:
            expected.add(v)
    assert cuts == frozenset(expected)
    assert biconn == (base == 1 and not expected and g.n >= 3)


# -- theta0 / wilsonian ----------------------------------------------------------

def test_theta0_recognition():
    assert is_theta0(theta0())
    assert not is_theta0(cycle_graph(7))


def test_theta0_under_relabeling():
    rng = random.Random(5)
    base = theta0()
    for _ in range(12):
        perm = list(range(7))
        rng.shuffle(perm)
        g = SimpleGraph(7, [(perm[u], perm[v]) for u, v in base.edge_list])
        assert is_theta0(g)


def test_theta0_not_fooled_by_degree_twin():
    # same degree sequence, 8 edges, but not isomorphic: center joined to
    # two vertices at distance 2 instead of 3
    ring = [(i, (i + 1) % 6) for i in range(6)]
    g = SimpleGraph(7, ring + [(0, 6), (2, 6)])
    assert g.degree_sequence() == theta0().degree_sequence()
    assert not is_theta0(g)


def test_wilsonian_cases():
    assert not is_wilsonian(cycle_graph(6))      # long cycle
    assert not is_wilsonian(theta0())            # the exception
    assert is_wilsonian(complete_graph(4))
    assert is_wilsonian(complete_graph(3))       # triangle counts as K3, not C3
    assert not is_wilsonian(complete_bipartite_graph(2, 3))  # bipartite
    assert not is_wilsonian(path_graph(5))       # cut vertices
    assert not is_wilsonian(complete_graph(2))   # too small


@settings(max_examples=60, deadline=None)
@given(random_graph_strategy())
def test_wilsonian_implies_biconnected_nonbipartite(g):
    if is_wilsonian(g):
        assert articulation_analysis(g)[1]
        assert bipartition(g) is None


def test_wilson_star_components_matches_oracle():
    # Wilson (1974): the star puzzle on g, checked exhaustively through n = 6
    decided = {1: 0, 2: 0}
    for n in range(1, 7):
        for g in families.graph_classes(n):
            predicted = wilson_star_components(g)
            if predicted is None:
                continue
            decided[predicted] += 1
            rep = build_components(star_graph(n), g, variant="fs")
            assert rep.component_count == predicted, g
    assert decided == {1: 62, 2: 5}


# -- lift -------------------------------------------------------------------------

def test_lift_edge_with_mults_1_2_is_triangle():
    y = MultiplicityGraph(SimpleGraph(2, [(0, 1)]), (1, 2))
    lifted, blocks = lift(y)
    assert lifted == complete_graph(3)
    assert blocks.blocks == ((0,), (1, 2))


def test_lift_identity_when_all_mults_one():
    g = cycle_graph(5)
    lifted, blocks = lift(MultiplicityGraph(g, (1,) * 5))
    assert lifted == g
    assert blocks.blocks == tuple((i,) for i in range(5))


def test_lift_path_2_2_4_complement_shape():
    x = MultiplicityGraph(path_graph(3), (2, 2, 4))
    lifted, blocks = lift(x)
    comp = complement(lifted)
    # complement is complete bipartite between first and last blocks
    expected = {(a, b) for a in blocks.blocks[0] for b in blocks.blocks[2]}
    assert comp.edges == frozenset(expected)
    assert all(comp.degree(v) == 0 for v in blocks.blocks[1])


@settings(max_examples=40, deadline=None)
@given(random_graph_strategy(max_n=4), st.lists(st.integers(1, 3), min_size=4, max_size=4))
def test_lift_projection_recovers_base(g, mults):
    m = MultiplicityGraph(g, mults[: g.n])
    lifted, blocks = lift(m)
    block_of = blocks.block_of
    for a in range(lifted.n):
        for b in range(a + 1, lifted.n):
            same = block_of[a] == block_of[b]
            if same:
                assert lifted.has_edge(a, b)
            else:
                assert lifted.has_edge(a, b) == g.has_edge(block_of[a], block_of[b])


# -- k-bridges -----------------------------------------------------------------

def _bridge_oracle(g, k):
    """Definition-literal brute force over all k-tuples."""
    out = set()
    for tup in itertools.permutations(range(g.n), k):
        ok = True
        for i in range(1, k - 1):
            if set(g.neighbors(tup[i])) != {tup[i - 1], tup[i + 1]}:
                ok = False
                break
        if not ok:
            continue
        interior = set(tup[1:-1])
        sub, old = g.subgraph(set(range(g.n)) - interior)
        pos = {v: i for i, v in enumerate(old)}
        comps = sub.connected_components()
        cof = {}
        for ci, comp in enumerate(comps):
            for v in comp:
                cof[v] = ci
        ca, cb = cof[pos[tup[0]]], cof[pos[tup[-1]]]
        if ca == cb:
            continue
        if len(comps[ca]) < 2 or len(comps[cb]) < 2:
            continue
        out.add(tup if tup[0] < tup[-1] else tuple(reversed(tup)))
    return sorted(out)


def test_kbridges_path5():
    assert find_k_bridges(path_graph(5), 3) == [(1, 2, 3)]


def test_kbridges_cycle6_empty():
    assert find_k_bridges(cycle_graph(6), 3) == []


def test_kbridges_match_bruteforce_oracle():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(4, 7)
        g = families.random_graph(n, rng.uniform(0.2, 0.7), rng)
        for k in (2, 3, 4):
            assert find_k_bridges(g, k) == _bridge_oracle(g, k), (g, k)


@pytest.mark.parametrize("n", range(1, 7))
def test_kbridges_match_bruteforce_on_connected_classes_and_cycles(n):
    # chains of k - 2 >= 2 vertices, including a cycle walked whole; a
    # k-bridge with k >= 4 needs two sides of two vertices, so n = 6
    found = 0
    for g in families.graph_classes(n, connected=True):
        for k in range(3, 7):
            bridges = find_k_bridges(g, k)
            assert bridges == _bridge_oracle(g, k), (g, k)
            if k >= 4:
                found += len(bridges)
    assert found or n < 6
    if n >= 3:
        for k in range(3, n + 3):
            assert find_k_bridges(cycle_graph(n), k) == [], k


def test_k2_bridges_empty_on_connected_graphs():
    # exhaustive over all labeled connected graphs up to 6 vertices,
    # sampled at 7
    for n in range(2, 7):
        for g in reference.all_graphs(n, connected=True):
            assert find_k_bridges(g, 2) == []
    rng = random.Random(3)
    count = 0
    while count < 4000:
        g = families.random_graph(7, rng.uniform(0.2, 0.8), rng)
        if g.is_connected():
            count += 1
            assert find_k_bridges(g, 2) == []


def test_blocking_chains_k2_is_cut_edge_with_big_sides():
    # path: middle edge qualifies, pendant edges do not
    assert find_blocking_chains(path_graph(4), 2) == [(1, 2)]
    # two triangles joined by an edge
    g = SimpleGraph(6, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
    assert find_blocking_chains(g, 2) == [(2, 3)]
    # cycle with pendants: every cut edge has a singleton side
    g2 = SimpleGraph(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (2, 5)])
    assert find_blocking_chains(g2, 2) == []
    assert find_blocking_chains(cycle_graph(5), 2) == []


def _blocking_chains_by_deletion(g):
    # the definition: delete each edge in turn and look at the two sides
    base = len(g.connected_components())
    out = []
    for a, b in g.edge_list:
        comps = SimpleGraph(g.n, [e for e in g.edge_list if e != (a, b)]
                            ).connected_components()
        if len(comps) == base:
            continue
        side_a = next(c for c in comps if a in c)
        side_b = next(c for c in comps if b in c)
        if len(side_a) >= 2 and len(side_b) >= 2:
            out.append((a, b))
    return out


def test_blocking_chains_k2_match_edge_deletion():
    # every labelled graph through five vertices, every class (connected or
    # not) through seven
    graphs = [g for n in range(0, 6) for g in reference.all_graphs(n)]
    graphs += [g for n in range(6, 8) for g in families.graph_classes(n)]
    for g in graphs:
        assert find_blocking_chains(g, 2) == _blocking_chains_by_deletion(g), g


def test_blocking_chains_k3_equals_kbridges():
    rng = random.Random(12)
    for _ in range(40):
        g = families.random_graph(6, rng.uniform(0.2, 0.6), rng)
        assert find_blocking_chains(g, 3) == find_k_bridges(g, 3)


# -- contingency tables -----------------------------------------------------------

def _contingency_oracle(rows, cols):
    cells = [(i, j) for i in range(len(rows)) for j in range(len(cols))]
    count = 0

    def fill(idx, r, c):
        nonlocal count
        if idx == len(cells):
            count += not any(r) and not any(c)
            return
        i, j = cells[idx]
        for val in range(min(r[i], c[j]) + 1):
            r[i] -= val
            c[j] -= val
            fill(idx + 1, r, c)
            r[i] += val
            c[j] += val

    fill(0, list(rows), list(cols))
    return count


def test_contingency_examples():
    assert contingency_count([1, 2], [1, 2]) == 2
    assert contingency_count([5], [5]) == 1
    assert contingency_count([1, 1], [1, 1]) == 2


def test_contingency_margin_mismatch():
    with pytest.raises(MarginMismatchError):
        contingency_count([2, 1], [1, 1])


def _weak_compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, parts - 1):
            yield (first,) + rest


def test_contingency_matches_enumeration():
    # exhaustive over small margins, then random larger spot checks
    for total in range(0, 7):
        for nr in (1, 2, 3):
            for nc in (1, 2, 3):
                for r in _weak_compositions(total, nr):
                    for c in _weak_compositions(total, nc):
                        assert contingency_count(r, c) == _contingency_oracle(r, c)
    rng = random.Random(2)
    for _ in range(25):
        r = [rng.randint(0, 4) for _ in range(rng.randint(1, 4))]
        total = sum(r)
        ncols = rng.randint(1, 4)
        c = []
        rem = total
        for j in range(ncols - 1):
            v = rng.randint(0, rem)
            c.append(v)
            rem -= v
        c.append(rem)
        assert contingency_count(r, c) == _contingency_oracle(r, c)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=5), st.integers(-1, 21))
def test_compositions_match_filtered_product(bounds, total):
    # the pruned enumerator gives exactly the in-bound tuples of the right
    # sum, in the lexicographic order of itertools.product
    expected = [c for c in itertools.product(*(range(b + 1) for b in bounds))
                if sum(c) == total]
    assert list(compositions(total, bounds)) == expected


# -- cyclic order count -------------------------------------------------------------

def test_cyclic_order_count_values():
    from fractions import Fraction

    assert cyclic_order_count([1, 5]) == 1
    assert cyclic_order_count([1, 1]) == 1
    assert cyclic_order_count([2, 2]) == Fraction(3, 2)
    assert cyclic_order_count([1, 1, 1]) == 2


def test_cyclic_order_count_unit_iff_pair_with_one():
    for mults in itertools.product(range(1, 4), repeat=2):
        assert (cyclic_order_count(mults) == 1) == (1 in mults)
    for mults in itertools.product(range(1, 4), repeat=3):
        assert cyclic_order_count(mults) != 1


# -- disjoint sets ------------------------------------------------------------------

@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         max_size=3 * n))),
       st.sampled_from(["list", "array"]))
def test_union_then_roots_pass_matches_reference(case, kind):
    # one pass in increasing order after _union leaves every entry at its
    # root, the smallest member of its set
    n, drawn = case
    # every stream repeats pairs, in both orders, and has self-pairs
    pairs = (drawn + [(j, i) for i, j in drawn[:n]] + drawn[:n]
             + [(i, i) for i, _ in drawn[:3]])
    parent = list(range(n)) if kind == "list" else array("i", range(n))
    _union(parent, pairs)
    assert all(parent[i] <= i for i in range(n))
    for j, r in enumerate(parent):
        parent[j] = parent[r]
    uf = reference._UnionFind(n)
    for i, j in pairs:
        uf.union(i, j)
    sets: dict = {}
    for v in range(n):
        sets.setdefault(uf.find(v), []).append(v)
    assert {v: members[0] for members in sets.values() for v in members} == \
        dict(enumerate(parent))


# -- JSON ---------------------------------------------------------------------------

def test_graph_json_roundtrip():
    g = SimpleGraph(4, [(0, 1), (2, 3)])
    assert graph_from_json_dict(graph_to_json_dict(g)) == g
    m = MultiplicityGraph(g, (2, 1, 1, 3))
    assert graph_from_json_dict(graph_to_json_dict(m)) == m


# -- input errors and degenerate inputs ---------------------------------------------

@pytest.mark.parametrize("call, error", [
    (lambda: SimpleGraph(-1, []), "vertex count must be nonnegative"),
    (lambda: SimpleGraph(2, [(1, 1)]), "loop at vertex 1"),
    (lambda: SimpleGraph(2, [(0, 2)]), r"edge \(0,2\) out of range for n=2"),
    (lambda: CliquePartition(((0,), (2,))), "blocks must partition"),
    (lambda: MultiplicityGraph(path_graph(2), (1,)), "one multiplicity per vertex"),
    (lambda: MultiplicityGraph(path_graph(2), (1, 0)), "must be positive"),
    (lambda: find_k_bridges(path_graph(5), 0), "k must be positive"),
    (lambda: find_blocking_chains(path_graph(5), 1), "defined for k >= 2"),
    (lambda: contingency_count([-1, 1], [0, 0]), "margins must be nonnegative"),
    (lambda: cyclic_order_count([]), "nonempty list of positive"),
    (lambda: cycle_graph(2), "at least 3 vertices"),
    (lambda: star_graph(0), "at least one vertex"),
    (lambda: star_center(edgeless_graph(2)), "not a star"),
    (lambda: star_center(complete_graph(4)), "not a star"),
    (lambda: star_center(path_graph(4)), "not a star"),
], ids=["negative-n", "loop", "edge-out-of-range", "clique-partition",
        "mult-length", "mult-zero", "k-bridge-0", "blocking-chain-1",
        "negative-margin", "empty-cyclic-order", "cycle-2", "star-0",
        "star-center-edgeless-k2", "star-center-k4", "star-center-p4"])
def test_input_errors(call, error):
    with pytest.raises(ValueError, match=error):
        call()


def test_degenerate_inputs():
    assert find_k_bridges(path_graph(5), 1) == []
    assert star_center(star_graph(1)) == star_center(star_graph(2)) == 0
    assert not is_valid_bipartition(path_graph(2), [0, 1], [1])


def test_graph_hash_and_repr():
    g = SimpleGraph(3, [(1, 0)])
    assert hash(g) == hash(SimpleGraph(3, [(0, 1)]))
    assert repr(g) == "SimpleGraph(n=3, edges=[(0, 1)])"
    m = MultiplicityGraph(g, (1, 2, 1))
    assert {m, MultiplicityGraph(SimpleGraph(3, [(0, 1)]), [1, 2, 1])} == {m}
    assert repr(m) == ("MultiplicityGraph(SimpleGraph(n=3, edges=[(0, 1)]), "
                       "mult=[1, 2, 1])")


def test_graph_json_rejects_garbage():
    with pytest.raises(ValueError):
        graph_from_json_dict({"edges": []})


@pytest.mark.parametrize("d, error", [
    ({"n": 2.7, "edges": []}, "'n' must be an integer, not 2.7"),
    ({"n": True, "edges": []}, "'n' must be an integer, not True"),
    ({"n": "3", "edges": []}, "'n' must be an integer, not '3'"),
    ({"n": 2, "edges": [[0, True]]}, "edge endpoint must be an integer, not True"),
    ({"n": 2, "edges": [[0, 1.0]]}, "edge endpoint must be an integer, not 1.0"),
    ({"n": 2, "edges": [[0, 1]], "mult": [1, 1.9]},
     "multiplicity must be an integer, not 1.9"),
    ({"n": 2, "edges": [[0, 1]], "mult": [1, False]},
     "multiplicity must be an integer, not False"),
    ({"n": 2, "edges": [[0, 1]], "mult": "12"}, "'mult' must be a list"),
    ({"n": 3, "edges": [[0, 1, 2]]}, "must be a list of vertex pairs"),
    ({"n": 3, "edges": [[0]]}, "must be a list of vertex pairs"),
    ({"n": 3, "edges": ["01"]}, "must be a list of vertex pairs"),
    ({"n": 3, "edges": {"0": 1}}, "must be a list of vertex pairs"),
], ids=["n-float", "n-bool", "n-string", "endpoint-bool", "endpoint-float",
        "mult-float", "mult-bool", "mult-string", "edge-triple", "edge-single",
        "edge-string", "edges-object"])
def test_graph_json_rejects_non_integers_and_non_pairs(d, error):
    with pytest.raises(ValueError, match=re.escape(error)):
        graph_from_json_dict(d)
