"""Acyclic orientations, flips, equivalence classes, periods, predictors."""

import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from fsglab.graphs import (
    CliquePartition,
    MultiplicityGraph,
    SimpleGraph,
    complement,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    lift,
    path_graph,
)
from fsglab.orientations import (
    FlipError,
    Orientation,
    complement_of_lift,
    coprime_forest_connected,
    enumerate_acyc,
    flip,
    induced_orientation,
    linear_extensions,
    partition_by,
    period_of_arrangement,
    period_of_orientation,
    period_profile,
    permutation_class_count,
    predict_cycle_components,
    predict_path_components,
    _EdgeMasks,
    _toric_representatives,
)
from fsglab import families


X224 = MultiplicityGraph(path_graph(3), (2, 2, 4))
SIGMA = (0, 4, 2, 5, 1, 6, 3, 7)   # projects to u1,u3,u2,u3,u1,u3,u2,u3
TAU = (4, 0, 2, 5, 1, 6, 3, 7)     # projects to u3,u1,u2,u3,u1,u3,u2,u3


def test_induced_orientation_single_edge():
    host = complement(path_graph(3))  # single edge {0, 2}
    o = induced_orientation((0, 1, 2), host)
    assert o.directed_edges() == [(0, 2)]
    o2 = induced_orientation((2, 1, 0), host)
    assert o2.directed_edges() == [(2, 0)]


def test_enumerate_acyc_counts():
    assert len(enumerate_acyc(edgeless_graph(3))) == 1
    assert len(enumerate_acyc(SimpleGraph(2, [(0, 1)]))) == 2
    assert len(enumerate_acyc(complete_graph(3))) == 6
    # oracle: all direction vectors minus the two rotating triangles
    host = complete_graph(3)
    count = 0
    for dirs in itertools.product((0, 1), repeat=3):
        try:
            Orientation(host, dirs)
            count += 1
        except ValueError:
            pass
    assert count == 6


def _chromatic_at(n, edges, k, memo):
    """The chromatic polynomial of the graph on 0..n-1 with ``edges`` (pairs
    u < v), evaluated at k, by deletion-contraction on the largest edge."""
    if not edges:
        return k ** n
    key = (n, edges)
    if key not in memo:
        u, v = max(edges)
        rest = edges - {(u, v)}

        def merged(w):  # v merged into u, later vertices shifted down
            return u if w == v else w - (w > v)

        contracted = frozenset(
            (min(a, b), max(a, b))
            for a, b in ((merged(a), merged(b)) for a, b in rest) if a != b
        )
        memo[key] = (_chromatic_at(n, rest, k, memo)
                     - _chromatic_at(n - 1, contracted, k, memo))
    return memo[key]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(0, 2 ** (n * (n - 1) // 2) - 1))))
def test_acyc_count_is_chromatic_polynomial_at_minus_one(case):
    # Stanley (1973): |Acyc(G)| = |chi_G(-1)|
    n, mask = case
    pairs = list(itertools.combinations(range(n), 2))
    edges = frozenset(e for i, e in enumerate(pairs) if mask >> i & 1)
    host = SimpleGraph(n, edges)
    assert len(enumerate_acyc(host)) == abs(_chromatic_at(n, edges, -1, {}))


def test_chromatic_at_known_values():
    triangle = frozenset({(0, 1), (0, 2), (1, 2)})
    assert _chromatic_at(3, triangle, 3, {}) == 6          # k(k-1)(k-2)
    assert _chromatic_at(4, frozenset({(0, 1), (1, 2), (2, 3)}), 2, {}) == 2
    assert _chromatic_at(3, frozenset(), 5, {}) == 125


def test_flip_involution_and_errors():
    host = SimpleGraph(3, [(0, 1)])
    o = Orientation(host, (1,))
    assert flip(o, 0).dirs == (0,)
    assert flip(flip(o, 0), 0) == o
    assert flip(o, 2) == o  # isolated vertex flip is vacuous
    with pytest.raises(FlipError):
        host2 = path_graph(3)
        flip(Orientation(host2, (1, 1)), 1)  # middle vertex is neither


def test_class_partition_examples():
    host = SimpleGraph(2, [(0, 1)])
    cl = CliquePartition(((0,), (1,)))
    part = partition_by("toric", host, cl)
    assert part.class_count == 1 and len(part.classes[0]) == 2
    host2 = SimpleGraph(3, [(0, 1)])
    part2 = partition_by("double_flip", host2, CliquePartition(((0,), (1,), (2,))))
    assert part2.class_count == 1  # double flip pairing a real source with a vacuous sink
    host3 = edgeless_graph(3)
    part3 = partition_by("permutation", host3, CliquePartition(((0, 1, 2),)))
    assert part3.class_count == 1


def test_partition_by_rejects_bad_relations():
    host = path_graph(3)
    with pytest.raises(ValueError, match="unknown relation 'rotation'"):
        partition_by("rotation", host)
    for relation in ("permutation", "toric_permutation", "double_flip_permutation"):
        with pytest.raises(ValueError, match="needs the block partition"):
            partition_by(relation, host)


def test_refinement_lattice_small_hosts():
    for x in families.multiplicity_graphs(3, 5):
        host, cl = complement_of_lift(x)
        parts = {
            rel: partition_by(rel, host, cl)
            for rel in ("toric", "double_flip", "permutation",
                        "toric_permutation", "double_flip_permutation")
        }

        def refines(fine, coarse):
            mapping = {}
            for o in enumerate_acyc(host):
                f = parts[fine].class_of[o.dirs]
                c = parts[coarse].class_of[o.dirs]
                if f in mapping and mapping[f] != c:
                    return False
                mapping[f] = c
            return True

        assert refines("double_flip", "toric")
        assert refines("toric", "toric_permutation")
        assert refines("double_flip", "double_flip_permutation")
        assert refines("double_flip_permutation", "toric_permutation")
        assert refines("permutation", "toric_permutation")
        assert refines("permutation", "double_flip_permutation")


def test_linear_extensions_counts():
    assert len(linear_extensions(Orientation(edgeless_graph(3), ()))) == 6
    assert len(linear_extensions(Orientation(SimpleGraph(2, [(0, 1)]), (1,)))) == 1
    host = SimpleGraph(3, [(0, 1)])
    assert len(linear_extensions(Orientation(host, (1,)))) == 3


def test_linear_extensions_induce_back():
    host = complement(lift(X224)[0])
    o = induced_orientation(SIGMA, host)
    for ext in linear_extensions(o)[:50]:
        assert induced_orientation(ext, host) == o


# -- periods -------------------------------------------------------------------

def test_period_golden_values():
    _, cl = lift(X224)
    assert period_of_arrangement(SIGMA, cl) == 4
    assert period_of_arrangement(TAU, cl) == 8
    host = complement(lift(X224)[0])
    alpha = induced_orientation(SIGMA, host)
    assert period_of_orientation(alpha, cl) == 4


def test_period_of_empty_orientation_is_one():
    o = Orientation(edgeless_graph(0), ())
    assert period_of_orientation(o, CliquePartition(())) == 1
    assert period_profile(o, CliquePartition(())).delta == 1


def test_period_all_unit_mults_is_length():
    g = path_graph(4)
    _, cl = lift(MultiplicityGraph(g, (1,) * 4))
    for a in itertools.permutations(range(4)):
        assert period_of_arrangement(a, cl) == 4


def test_period_single_block_is_one():
    cl = CliquePartition(((0, 1, 2, 3),))
    assert period_of_arrangement((2, 0, 3, 1), cl) == 1


def test_period_divides_length():
    rng = random.Random(4)
    for _ in range(40):
        mults = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        base = edgeless_graph(len(mults))
        _, cl = lift(MultiplicityGraph(base, mults))
        n = sum(mults)
        a = list(range(n))
        rng.shuffle(a)
        p = period_of_arrangement(tuple(a), cl)
        assert n % p == 0


def test_period_structure_residue_classes():
    # residues mod the period map into single blocks; block sizes force the
    # count of classes each block receives (mult * period / length)
    _, cl = lift(X224)
    block_of = cl.block_of
    for a in (SIGMA, TAU):
        p = period_of_arrangement(a, cl)
        n = len(a)
        received = [0] * len(cl.blocks)
        for r in range(p):
            blocks = {block_of[a[i]] for i in range(r, n, p)}
            assert len(blocks) == 1
            received[blocks.pop()] += 1
        for b, cnt in enumerate(received):
            assert cnt * n == len(cl.blocks[b]) * p


def test_tree_component_oriented_from_root_has_full_period():
    # a tree oriented away from a root: period equals its size
    host = SimpleGraph(3, [(0, 1), (0, 2)])
    o = Orientation(host, (1, 1))  # 0 -> 1, 0 -> 2
    cl = CliquePartition(((0,), (1,), (2,)))
    assert period_of_orientation(o, cl) == 3


def test_period_profile_examples():
    # two trees of sizes 2 and 3 with singleton blocks: profile (2, 3), gcd 1
    host = SimpleGraph(5, [(0, 1), (2, 3), (3, 4)])
    o = Orientation(host, (1, 1, 1))
    cl = CliquePartition(tuple((i,) for i in range(5)))
    prof = period_profile(o, cl)
    assert tuple(prof) == (2, 3) and prof.delta == 1
    # isolated vertex forces delta 1
    host2 = SimpleGraph(3, [(0, 1)])
    prof2 = period_profile(Orientation(host2, (1,)),
                           CliquePartition(((0,), (1,), (2,))))
    assert prof2.delta == 1


def test_period_invariant_on_toric_permutation_classes():
    for x in families.multiplicity_graphs(3, 5, connected=True):
        host, cl = complement_of_lift(x)
        part = partition_by("toric_permutation", host, cl)
        for members in part.classes:
            periods = {period_of_orientation(o, cl) for o in members}
            assert len(periods) == 1, (x, periods)


def test_period_divides_every_extension_per_component():
    # on each connected component, the orientation period divides the
    # period of every linear extension of that component
    for x in families.multiplicity_graphs(3, 5):
        host, cl = complement_of_lift(x)
        for comp in host.connected_components():
            sub, old = host.subgraph(comp)
            sub_cl = cl.restricted(comp)
            for o in enumerate_acyc(sub):
                p_alpha = period_of_orientation(o, sub_cl)
                for ext in linear_extensions(o):
                    assert period_of_arrangement(ext, sub_cl) % p_alpha == 0


# -- predictors ----------------------------------------------------------------

def test_predict_path_components_examples():
    assert predict_path_components(MultiplicityGraph(SimpleGraph(2, [(0, 1)]), (1, 2))) == 1
    assert predict_path_components(MultiplicityGraph(path_graph(3), (1, 1, 1))) == 2
    one = MultiplicityGraph(SimpleGraph(1, []), (3,))
    assert predict_path_components(one) == 1


def test_permutation_class_count_matches_the_closure():
    xs = families.multiplicity_graphs(4, 7)
    assert len(xs) == 574
    for x in xs:
        host, cliques = complement_of_lift(x)
        assert permutation_class_count(host, cliques) == \
            partition_by("permutation", host, cliques).class_count, x


@pytest.mark.parametrize("n", range(1, 7))
def test_permutation_class_count_with_unit_multiplicities_is_acyc(n):
    for g in families.graph_classes(n):
        host, cliques = complement_of_lift(MultiplicityGraph(g, (1,) * n))
        assert permutation_class_count(host, cliques) == len(enumerate_acyc(host)), g


def _stirling(m, c):
    """Unsigned Stirling number of the first kind: permutations of m points
    with c cycles."""
    if m == 0 or c == 0:
        return int(m == c)
    return _stirling(m - 1, c - 1) + (m - 1) * _stirling(m - 1, c)


def _burnside_sum(host, cliques):
    """sum over c of prod_B s(m_B, c_B) a(S_c) / prod_B m_B!, term by term,
    with a(S) from the source recursion over every vertex subset S and S_c
    the first c_B vertices of each block."""
    n = host.n
    adjacent = [sum(1 << w for w in host.neighbors(v)) for v in range(n)]
    acyc = [1] + [0] * ((1 << n) - 1)
    for s in range(1, 1 << n):
        i = s
        while i:
            verts = [v for v in range(n) if i >> v & 1]
            if not any(adjacent[v] & i for v in verts):
                acyc[s] += (1 if len(verts) % 2 else -1) * acyc[s ^ i]
            i = (i - 1) & s
    sizes = [len(block) for block in cliques.blocks]
    fixed = 0
    for c in itertools.product(*(range(1, m + 1) for m in sizes)):
        term = acyc[sum(1 << v for block, k in zip(cliques.blocks, c)
                        for v in block[:k])]
        for m, k in zip(sizes, c):
            term *= _stirling(m, k)
        fixed += term
    order = math.prod(math.factorial(m) for m in sizes)
    assert fixed % order == 0
    return fixed // order


def test_permutation_class_count_is_the_burnside_sum():
    for x in families.multiplicity_graphs(4, 6):
        host, cliques = complement_of_lift(x)
        assert permutation_class_count(host, cliques) == _burnside_sum(host, cliques), x


def test_predict_cycle_components_examples():
    assert predict_cycle_components(MultiplicityGraph(cycle_graph(4), (1,) * 4)) == 2
    assert predict_cycle_components(MultiplicityGraph(path_graph(3), (1, 1, 1))) == 1


def test_cycle_count_matches_all_unit_toric_formula():
    # with unit multiplicities the count equals (number of toric classes)
    # times the gcd of complement component sizes
    for x in families.graph_classes(4):
        m = MultiplicityGraph(x, (1,) * x.n)
        host, cl = complement_of_lift(m)
        toric = partition_by("toric", host, cl).class_count
        nu = 0
        for comp in host.connected_components():
            nu = math.gcd(nu, len(comp))
        assert predict_cycle_components(m) == toric * nu


def _chromatic_linear_coefficient(g):
    """[q] chi_g(q) = sum over k of (-1)^(k-1) (k-1)! P_k, with P_k the
    partitions of the vertices into k independent sets, counted over vertex
    subsets: the part that holds a subset's smallest vertex is chosen first."""
    n = g.n
    adjacent = [sum(1 << w for w in g.neighbors(v)) for v in range(n)]
    parts = [Counter({0: 1})]  # subset -> {k: partitions into k independent sets}
    for s in range(1, 1 << n):
        low = s & -s
        rest, sub = s ^ low, s ^ low
        parts.append(Counter())
        while True:
            i = sub | low
            if not any(adjacent[v] & i for v in range(n) if i >> v & 1):
                for k, count in parts[s ^ i].items():
                    parts[s][k + 1] += count
            if sub == 0:
                break
            sub = (sub - 1) & rest
    return sum((-1) ** (k - 1) * math.factorial(k - 1) * count
               for k, count in parts[-1].items())


def test_chromatic_linear_coefficient_examples():
    assert _chromatic_linear_coefficient(edgeless_graph(1)) == 1        # q
    assert _chromatic_linear_coefficient(path_graph(3)) == 1            # q(q-1)^2
    assert _chromatic_linear_coefficient(complete_graph(4)) == -6       # q(q-1)(q-2)(q-3)
    assert _chromatic_linear_coefficient(cycle_graph(4)) == -3          # (q-1)^4 + (q-1)


@pytest.mark.parametrize("max_n, total_max", [(4, 6), (4, 7), (6, 6)])
def test_toric_representatives_count_the_toric_classes(max_n, total_max):
    # one representative per toric class of each host component: as many as
    # |[q] chi(q)| (Greene-Zaslavsky) and as the closure finds, each with
    # the component's smallest vertex as its only source
    for x in families.multiplicity_graphs(max_n, total_max):
        host, _ = complement_of_lift(x)
        t = _EdgeMasks(host)
        for comp in host.connected_components():
            reps = _toric_representatives(t, comp)
            sub, _ = host.subgraph(comp)
            assert len(reps) == abs(_chromatic_linear_coefficient(sub)) == \
                partition_by("toric", sub).class_count, (x, comp)
            assert all([v for v in comp if o & t.inc[v] == t.low[v]] == comp[:1]
                       for o in reps), (x, comp)


def test_predict_cycle_components_matches_the_class_closure():
    # the sum of period gcds over the closed and glued toric_permutation classes
    xs = [x for x in families.multiplicity_graphs(4, 7) if x.total >= 3]
    assert len(xs) == 570
    for x in xs:
        host, cl = complement_of_lift(x)
        part = partition_by("toric_permutation", host, cl)
        assert predict_cycle_components(x) == sum(
            period_profile(part.representative(c), cl).delta
            for c in range(part.class_count)), x


def test_period_profile_constant_on_toric_permutation_classes():
    # the cycle predictor takes one period per orbit of each component; the
    # per-component periods, and so delta, agree on every member of a class
    classes = 0
    for x in families.multiplicity_graphs(4, 6):
        host, cl = complement_of_lift(x)
        for members in partition_by("toric_permutation", host, cl).classes:
            profiles = {period_profile(o, cl).periods for o in members}
            assert len(profiles) == 1, (x, profiles)
            classes += 1
    assert classes == 1_169


def test_coprime_forest_examples():
    assert coprime_forest_connected(MultiplicityGraph(path_graph(3), (1, 1, 1)))
    assert not coprime_forest_connected(MultiplicityGraph(cycle_graph(4), (1,) * 4))
    assert not coprime_forest_connected(X224)  # complement of lift has a cycle


def test_rotation_relabeling_is_automorphism():
    # rotating cycle positions preserves adjacency of the swap space
    x = MultiplicityGraph(path_graph(3), (1, 1, 2))
    n = x.total
    from fsglab.statespace import space_for

    space = space_for(cycle_graph(n), x, "fsm")
    edges = set()
    for a in space.enumerate():
        for b in space.neighbors(a):
            edges.add((a, b))

    def rot(a):
        return tuple(a[(i + 1) % n] for i in range(n))

    assert all((rot(a), rot(b)) in edges for a, b in edges)
