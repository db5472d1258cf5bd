"""Gadget construction, validation, embeddings, exchangeability."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from fsglab import families
from fsglab.graphs import (
    SimpleGraph,
    articulation_analysis,
    bipartition,
    complete_graph,
    edgeless_graph,
    is_valid_bipartition,
    path_graph,
    theta0,
)
from fsglab.gadgets import (
    EmbeddingBudgetError,
    InfeasibleParamsError,
    PlacementConflictError,
    _audit_cases,
    _SuppressedGraph,
    build_gadget,
    derive_params,
    desk_params,
    find_respecting_embeddings,
    _wilson_regular_after_removal,
    removable_set,
    validate_gadget,
)
from fsglab.statespace import (
    BudgetExceededError,
    build_components,
    is_exchangeable,
    reachable,
    space_for,
)


def test_derive_params_small_m_infeasible():
    for m in (8, 16, 24, 32, 4096):
        with pytest.raises(InfeasibleParamsError):
            derive_params(1, m)
    with pytest.raises(InfeasibleParamsError):
        derive_params(1, 12)  # not divisible by 8


def test_derive_params_paper_scale():
    params = derive_params(1, 168000)
    assert params.k == 2 * params.ell
    assert params.ell % 8 == 0
    assert params.g % 4 == 0
    assert params.ell_prime == params.ell - 1
    p3 = derive_params(3, 168000)
    assert p3.ell == params.ell


def test_desk_params_scale_knob():
    with pytest.raises(InfeasibleParamsError):
        desk_params(1, 8)
    a = desk_params(1, 16)
    b = desk_params(1, 24)
    assert b.extra_pad > a.extra_pad
    assert a.k == 2 * a.ell and a.g % 4 == 0
    assert a.g > a.special_cycle_length


def test_build_reports_actual_size():
    pair = build_gadget(desk_params(1, 16))
    assert pair.m == pair.g.n - 2
    assert pair.params.requested == 16
    assert pair.cycle_length % 2 == 0
    d = pair.to_json_dict()
    assert d["m"] == pair.m and d["requested"] == 16


def test_population_identity():
    # m = 2*ell + ell*k + fillers + 7, plus 3k more z's for rho in {3, 4}
    for rho in (1, 3):
        pair = build_gadget(desk_params(rho, 16))
        ell, k = pair.params.ell, pair.params.k
        extra = 3 * k if rho in (3, 4) else 0
        assert pair.m == 2 * ell + ell * k + extra + pair.filler_count + 7
    # the rho 3/4 variants spend 3k more named vertices than rho 1/2 at the
    # same filler budget
    a = build_gadget(desk_params(1, 16))
    b = build_gadget(desk_params(3, 16))
    k = b.params.k
    assert (b.m - b.filler_count) - (a.m - a.filler_count) == 3 * k


def test_placement_conflict_detected():
    params = desk_params(1, 16)
    base = build_gadget(params)
    x2 = base.roles["x2"]
    with pytest.raises(PlacementConflictError):
        build_gadget(params, overrides={"x1": x2})


@pytest.mark.parametrize("rho", [1, 2, 3, 4])
def test_desk_gadget_structural_checks(rho):
    pair = build_gadget(desk_params(rho, 16))
    rep = validate_gadget(pair, p3_samples=60)
    failing = [n for n, c in rep.checks.items() if not c["passed"]]
    # the literal edge budget cannot coexist with deletion robustness (the
    # bound is derived in test_c11_gadget_edge_budget_as_stated); every
    # other check must pass
    assert failing == ["p4_edge_budget"], rep.to_json_dict()
    assert rep.checks["p1_unique_short_cycle"]["cycle_lengths"] == [
        pair.params.special_cycle_length
    ]


def test_h_star_shape():
    pair = build_gadget(desk_params(1, 16))
    h = pair.h
    w = pair.roles["w"]
    assert set(h.neighbors(w)) == set(pair.b_h) - {pair.v}
    ell, k = pair.params.ell, pair.params.k
    assert h.m == 2 * ell + ell * k + len(pair.b_h) - 1
    assert set(h.neighbors(pair.u)) == {pair.roles[f"x{j+1}"] for j in range(ell)}
    assert set(h.neighbors(pair.v)) == {pair.roles[f"y{j+1}"] for j in range(ell)}


def test_rho3_fans_attach_to_interval_ends():
    pair = build_gadget(desk_params(3, 16))
    k = pair.params.k
    for i in (1, 2, 3):
        s = pair.roles[f"s{i}"]
        fan = [w for w in pair.h.neighbors(s)]
        assert len(fan) == k
    assert pair.h.m == 2 * pair.params.ell + pair.params.ell * k \
        + len(pair.b_h) - 1 + 3 * k


def test_bipartitions_declared_and_valid():
    for rho in (2, 4):
        pair = build_gadget(desk_params(rho, 16))
        assert is_valid_bipartition(pair.g, pair.a_g, pair.b_g)
        assert is_valid_bipartition(pair.h, pair.a_h, pair.b_h)
        assert bipartition(pair.g) is not None


def test_removable_pool_contents():
    pair = build_gadget(desk_params(1, 16))
    pool = set(removable_set(pair))
    assert pair.u in pool and pair.v in pool
    ell = pair.params.ell
    assert all(pair.roles[f"y{j+1}"] in pool for j in range(ell))
    for i in (1, 2, 3):
        assert pair.roles[f"s{i}"] in pool and pair.roles[f"r{i}"] in pool


def test_deletion_audit_rejects_theta0_and_cycle_remainders():
    # theta0 plus vertex 7 on ring vertices 1 and 4: deleting 7 leaves the
    # exceptional graph, deleting 6 and 7 leaves the hexagon; both are
    # biconnected, so only the cycle and theta0 tests can reject them
    g = SimpleGraph(8, list(theta0().edge_list) + [(1, 7), (4, 7)])
    assert _wilson_regular_after_removal(g, set())
    assert not _wilson_regular_after_removal(g, {7})
    assert not _wilson_regular_after_removal(g, {6, 7})
    assert not _wilson_regular_after_removal(theta0(), {6})
    # 7 vertices and 8 edges, biconnected, but not theta0
    twin = SimpleGraph(7, [(i, (i + 1) % 6) for i in range(6)] + [(0, 6), (2, 6)])
    assert _wilson_regular_after_removal(twin, set())
    assert _wilson_regular_after_removal(complete_graph(5), {0})
    # unlike is_wilsonian, the audit counts a triangle as a cycle
    assert not _wilson_regular_after_removal(complete_graph(5), {0, 1})


@st.composite
def sparse_graphs(draw):
    """A shuffled disjoint union of one to three sparse pieces: a cycle with
    chords, a path, a tree, two cycles sharing one vertex, or a bare
    cycle."""
    edges, n = [], 0
    kinds = ("chorded", "path", "tree", "figure_eight", "cycle")
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)):
        if kind == "path":
            k = draw(st.integers(1, 7))
            piece = [(i, i + 1) for i in range(k - 1)]
        elif kind == "tree":
            k = draw(st.integers(1, 8))
            piece = [(i, draw(st.integers(0, i - 1))) for i in range(1, k)]
        elif kind == "figure_eight":
            a, b = draw(st.integers(3, 6)), draw(st.integers(3, 6))
            loop = [0] + list(range(a, a + b - 1))
            k = a + b - 1
            piece = [(i, (i + 1) % a) for i in range(a)] + list(
                zip(loop, loop[1:] + loop[:1]))
        else:
            k = draw(st.integers(3, 9))
            piece = [(i, (i + 1) % k) for i in range(k)]
            if kind == "chorded":
                chords = draw(st.lists(st.tuples(st.integers(0, k - 1),
                                                 st.integers(0, k - 1)), max_size=3))
                piece += [(a, b) for a, b in chords if a != b]
        edges += [(n + a, n + b) for a, b in piece]
        n += k
    perm = draw(st.permutations(range(n)))
    return SimpleGraph(n, [(perm[a], perm[b]) for a, b in edges])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.data())
def test_suppressed_graph_matches_direct_biconnectivity(data):
    g = data.draw(sparse_graphs())
    roles = data.draw(st.lists(st.sampled_from("oooopf"), min_size=g.n, max_size=g.n))
    fixed = {x for x in range(g.n) if roles[x] == "f"}
    pool = [x for x in range(g.n) if roles[x] == "p"]
    small = _SuppressedGraph(g, fixed, pool)
    removals = [set(), set(pool)] + data.draw(st.lists(
        st.sets(st.sampled_from(pool)) if pool else st.just(set()), max_size=4))
    for removed in removals:
        assert small.biconnected(removed) == articulation_analysis(
            g, fixed | removed)[1], (g, fixed, pool, removed)


@pytest.mark.parametrize("rho", [1, 2, 3, 4])
def test_suppressed_graph_matches_direct_path_on_gadgets(rho):
    pair = build_gadget(desk_params(rho, 16))
    fixed = {pair.u, pair.v}
    pool = [x for x in removable_set(pair) if x not in fixed]
    small = _SuppressedGraph(pair.g, fixed, pool)
    assert small.h.n < pair.g.n // 10
    removals = [set(case) - fixed for case in _audit_cases(pair, 200, 2026)]
    removals += [{x} for x in pool] + [set(pool) - {x} for x in pool]
    for removed in removals:
        assert small.biconnected(removed) == articulation_analysis(
            pair.g, fixed | removed)[1], sorted(removed)
    for outside in (pair.u, pair.roles["w"], pair.q):
        with pytest.raises(ValueError, match="not in the pool"):
            small.biconnected({pool[0], outside})


# -- exchangeability -------------------------------------------------------------


def _mini_pair():
    # shared vertex set {0, 1, u=2, v=3}: a small exchangeable analogue
    g = complete_graph(4)
    h = complete_graph(4)
    return g, h


def test_exchangeability_miniature_true():
    g, h = _mini_pair()
    assert is_exchangeable(g, h, (0, 1, 2, 3), 2, 3, budget=10_000, variant="fs")


def test_exchangeability_miniature_false_when_disconnected():
    g = SimpleGraph(4, [(0, 1), (0, 2), (1, 2)])  # v=3 isolated in g
    h = complete_graph(4)
    assert not is_exchangeable(g, h, (0, 1, 2, 3), 2, 3, budget=10_000, variant="fs")


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_exchangeability_agrees_with_is_exchangeable(n):
    graphs = [g for g in families.graph_classes(n, connected=True) if g.n == n]
    ident = tuple(range(n))
    for g, h in itertools.product(graphs, repeat=2):
        rep = build_components(g, h, variant="fs")
        component = [ident, *reachable(space_for(g, h, "fs"), ident)]
        for u, v in itertools.combinations(range(n), 2):
            target = tuple(u if t == v else v if t == u else t for t in ident)
            answer = target in component
            assert answer == is_exchangeable(g, h, ident, u, v)
            if not answer:
                assert len(component) == rep.component_sizes[rep.component_id[ident]]
                continue
            # the BFS sees this many states up to the target, so that many
            # fit the budget and one fewer does not
            explored = component.index(target)
            assert is_exchangeable(g, h, ident, u, v, budget=explored)
            if explored > 1:
                with pytest.raises(BudgetExceededError) as exc:
                    is_exchangeable(g, h, ident, u, v, budget=explored - 1)
                assert exc.value.required == explored


# -- respecting embeddings ----------------------------------------------------------


def test_embedding_single_edge_gadget():
    # g = h = the edge {u, v} alone (m = 0)
    g = SimpleGraph(2, [(0, 1)])
    h = SimpleGraph(2, [(0, 1)])
    x = path_graph(4)
    y = SimpleGraph(4, [(1, 2)])
    sigma = (0, 1, 2, 3)
    res = find_respecting_embeddings(g, h, x, y, sigma, u0=1, v0=2)
    assert res is not None
    psi_g, psi_h = res
    assert psi_h == (1, 2) and psi_g == (1, 2)


def test_embedding_absent_for_edgeless_positions():
    g = SimpleGraph(2, [(0, 1)])
    h = SimpleGraph(2, [(0, 1)])
    x = edgeless_graph(4)
    y = complete_graph(4)
    sigma = (0, 1, 2, 3)
    assert find_respecting_embeddings(g, h, x, y, sigma, u0=0, v0=1) is None


def test_embedding_budget():
    g = SimpleGraph(5, [(0, 3), (1, 4), (2, 0)])
    h = SimpleGraph(5, [(0, 3), (1, 4), (0, 1)])
    x = complete_graph(8)
    y = complete_graph(8)
    sigma = tuple(range(8))
    with pytest.raises(EmbeddingBudgetError):
        find_respecting_embeddings(g, h, x, y, sigma, u0=0, v0=1, budget=2)


def test_embedding_soundness_replay():
    # a path gadget with one middle vertex: swaps pushed through the
    # embedding exchange the images
    g = SimpleGraph(3, [(0, 1), (0, 2)])   # u=1 - 0 - v=2 in positions
    h = SimpleGraph(3, [(0, 1), (0, 2)])
    rng = random.Random(3)
    found = 0
    attempts = 0
    while found < 5 and attempts < 200:
        attempts += 1
        from fsglab import families

        x = families.random_graph(5, 0.6, rng)
        y = families.random_graph(5, 0.6, rng)
        sigma = tuple(rng.sample(range(5), 5))
        res = find_respecting_embeddings(g, h, x, y, sigma, u0=0, v0=1,
                                         budget=50_000)
        if res is None:
            continue
        psi_g, psi_h = res
        found += 1
        # embeddings preserve adjacency and commute with the arrangement
        for a, b in g.edge_list:
            assert x.has_edge(psi_g[a], psi_g[b])
        for a, b in h.edge_list:
            assert y.has_edge(psi_h[a], psi_h[b])
        for wvert in range(3):
            assert sigma[psi_g[wvert]] == psi_h[wvert]
        # pushing the (g, h)-exchange of u, v through psi_h exchanges the
        # images whenever the miniature itself can exchange them
        if is_exchangeable(g, h, (0, 1, 2), 1, 2, budget=1000):
            assert is_exchangeable(
                x, y, sigma, psi_h[1], psi_h[2], variant="fs", budget=10_000
            )
    assert found >= 3
