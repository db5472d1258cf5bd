"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.

Criterion 11 states an edge budget |E(G)| <= |V(G)| + 5*ell next to the
interval-deletion property that ``p3_interval_deletions`` audits: deleting u,
v and any subset of ``removable_set`` leaves G 2-connected and not a cycle.
Read that way, the two clauses conflict.  A 2-connected graph has minimum
degree 2, so every vertex that survives a deletion needs two surviving
neighbours.  The fixed skeleton (cycle, ladder hangers, q shortcut, u/v
edges, z~ hangers) already costs ell + 6 (+3 for rho in {3, 4}) edges above
|V|.  On top of it every interval vertex needs one never-deleted anchor per
cycle neighbour in the pool (s1's q shortcut already serves once), and each
never-deleted cycle vertex next to an interval needs one edge that two of
them may share.  Hence |E| - |V| >= 7*ell + 2 (+3), which exceeds 5*ell for
every ell >= 1.  ``test_c11_gadget_edge_budget_as_stated`` asserts the
literal budget only where that lower bound permits it; otherwise it checks
that the built gadget spends no edge beyond the skeleton and chords, and
that every chord is needed by some deletion set.  The full derivation is in
that test's docstring.
"""

import hashlib
import itertools
import math
import random
import time

import pytest

from fsglab.graphs import (
    MultiplicityGraph,
    SimpleGraph,
    articulation_analysis,
    bipartition,
    contingency_count,
    cycle_graph,
    lift,
    path_graph,
    star_graph,
)
from fsglab.orientations import (
    complement_of_lift,
    coprime_forest_connected,
    enumerate_acyc,
    induced_orientation,
    linear_extensions,
    partition_by,
    period_of_arrangement,
    period_of_orientation,
    predict_cycle_components,
    predict_path_components,
)
from fsglab.predictors import (
    predict_multgraph_vs_star,
    predict_star_vs_multgraph,
)
from fsglab.randomlab import ExperimentConfig, find_packing, run_sweep
from fsglab.statespace import build_components, quotient_audit, parity_audit
from fsglab.gadgets import (
    _neither_cycle_nor_theta0,
    build_gadget,
    desk_params,
    removable_set,
    validate_gadget,
)
from fsglab import families


def _report(num, name, t0, limit_s):
    elapsed = time.monotonic() - t0
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({elapsed:.2f}s, limit {limit_s}s)")
    assert elapsed < limit_s


def test_c01_three_chair_golden():
    t0 = time.monotonic()
    edge12 = MultiplicityGraph(SimpleGraph(2, [(0, 1)]), (1, 2))
    rep = build_components(path_graph(3), edge12, variant="fsm")
    assert rep.component_count == 1 and rep.component_sizes == [3]
    lifted = build_components(path_graph(3), lift(edge12)[0], variant="fs")
    assert lifted.vertex_count == 6
    assert quotient_audit(path_graph(3), edge12)
    _report(1, "three-chair golden quotient", t0, 1)


def test_c02_period_golden():
    t0 = time.monotonic()
    x = MultiplicityGraph(path_graph(3), (2, 2, 4))
    _, cliques = lift(x)
    sigma = (0, 4, 2, 5, 1, 6, 3, 7)
    tau = (4, 0, 2, 5, 1, 6, 3, 7)
    assert period_of_arrangement(sigma, cliques) == 4
    assert period_of_arrangement(tau, cliques) == 8
    host, _ = complement_of_lift(x)
    alpha = induced_orientation(sigma, host)
    assert period_of_orientation(alpha, cliques) == 4
    _report(2, "rotation period golden", t0, 1)


def test_c03_path_count_sweep():
    t0 = time.monotonic()
    bad = []
    for x in families.multiplicity_graphs(4, 6):
        predicted = predict_path_components(x)
        oracle = build_components(path_graph(x.total), x, variant="fsm")
        if predicted != oracle.component_count:
            bad.append(x)
    assert not bad, bad[:3]
    _report(3, "path-host component predictor sweep", t0, 600)


def test_c04_cycle_count_sweep():
    t0 = time.monotonic()
    bad = []
    for x in families.multiplicity_graphs(4, 6):
        if x.total < 3:
            continue
        oracle = build_components(cycle_graph(x.total), x, variant="fsm")
        if predict_cycle_components(x) != oracle.component_count:
            bad.append(("count", x))
        if coprime_forest_connected(x) != (oracle.component_count == 1):
            bad.append(("connectivity", x))
        # per-arrangement class membership matches components
        host, cliques = complement_of_lift(x)
        part = partition_by("double_flip_permutation", host, cliques)
        block_of = cliques.block_of
        pairing = {}
        for sig in itertools.permutations(range(x.total)):
            proj = tuple(block_of[v] for v in sig)
            cid = oracle.component_id[proj]
            kid = part.class_of[induced_orientation(sig, host).dirs]
            if pairing.setdefault(cid, kid) != kid:
                bad.append(("membership", x))
                break
        else:
            if len(set(pairing.values())) != len(pairing):
                bad.append(("membership-injective", x))
    assert not bad, bad[:3]
    _report(4, "cycle-host component predictor sweep", t0, 900)


def test_c05_star_position_sweep():
    t0 = time.monotonic()
    bad = []
    for x in families.multiplicity_graphs(4, 6, connected=True):
        predicted = predict_star_vs_multgraph(x)
        oracle = build_components(star_graph(x.total), x, variant="fsm")
        if predicted != (oracle.component_count == 1):
            bad.append(x)
    assert not bad, bad[:3]
    _report(5, "star-position connectivity sweep", t0, 600)


def test_c06_star_label_sweep():
    t0 = time.monotonic()
    bad = []
    count = 0
    for n in range(3, 7):
        stars = families.star_mult_configs(n, centers=(2, 3), sizes=(3, 4))
        if not stars:
            continue
        for x in families.graph_classes(n, connected=True):
            for star in stars:
                count += 1
                predicted = predict_multgraph_vs_star(x, star)
                oracle = build_components(x, star, variant="fsm")
                if predicted != (oracle.component_count == 1):
                    bad.append((x, star))
    assert count > 500
    assert not bad, bad[:3]
    _report(6, "star-label connectivity sweep (cycles included)", t0, 1200)


def test_c07_cut_vertex_bound():
    t0 = time.monotonic()
    checked = 0
    for x in families.multiplicity_graphs(6, 6, connected=True):
        if x.base.n < 3:
            continue
        cuts, _ = articulation_analysis(x.base)
        unit_cuts = [v for v in cuts if x.mult[v] == 1]
        if not unit_cuts:
            continue
        n = x.total
        for y in families.graph_classes(n, connected=True):
            ycuts, _ = articulation_analysis(y)
            if not ycuts:
                continue
            rep = build_components(y, x, variant="fsm")
            for x0 in unit_cuts:
                rest, old = x.base.subgraph(set(range(x.base.n)) - {x0})
                rows = [sum(x.mult[old[i]] for i in comp)
                        for comp in rest.connected_components()]
                for y0 in ycuts:
                    rest_y, _ = y.subgraph(set(range(y.n)) - {y0})
                    cols = [len(c) for c in rest_y.connected_components()]
                    checked += 1
                    assert rep.component_count >= contingency_count(rows, cols), \
                        (x, y, x0, y0)
    assert checked > 100
    _report(7, "cut-vertex contingency lower bound", t0, 300)


def test_c08_parity_audit():
    t0 = time.monotonic()
    for n in range(2, 5):
        bip = [g for g in families.graph_classes(n) if bipartition(g) is not None]
        for x in bip:
            for y in bip:
                assert parity_audit(x, y), (x, y)
    rng = random.Random(88)
    done = 0
    while done < 50:
        x = families.random_graph(5, rng.uniform(0.2, 0.8), rng)
        y = families.random_graph(5, rng.uniform(0.2, 0.8), rng)
        if bipartition(x) is None or bipartition(y) is None:
            continue
        assert parity_audit(x, y)
        done += 1
    _report(8, "two-coloring parity audit", t0, 300)


def test_c09_packing_correspondence():
    t0 = time.monotonic()
    for n in range(1, 5):
        classes = families.graph_classes(n)
        for x in classes:
            for y in classes:
                rep = build_components(x, y, variant="fs")
                assert (find_packing(x, y) is not None) == (1 in rep.component_sizes)
    rng = random.Random(55)
    for _ in range(500):
        x = families.random_graph(5, rng.uniform(0.1, 0.9), rng)
        y = families.random_graph(5, rng.uniform(0.1, 0.9), rng)
        rep = build_components(x, y, variant="fs")
        assert (find_packing(x, y) is not None) == (1 in rep.component_sizes)
    _report(9, "packing = isolated arrangement", t0, 300)


def test_c10_random_lab_trends():
    t0 = time.monotonic()
    cfg = ExperimentConfig(
        model="gnp", n=20, p_grid=[0.05 * k for k in range(21)],
        trials=12, base_seed=2026, statistic="isolated-vertex",
        node_budget=400_000,
    )
    res = run_sweep(cfg)
    for t in range(cfg.trials):
        seq = [res.outcomes[i][t] for i in range(len(res.cells))
               if res.outcomes[i][t] is not None]
        assert all(not (a < b) for a, b in zip(seq, seq[1:]))
    # the bytes and the censoring of the one-image-at-a-time packing search
    assert hashlib.sha256(res.to_csv().encode()).hexdigest() == \
        "0c1ddea86b590c206e3fbb80cc98637cb4f2cfb7deedfd060cb714987dfc7fd6"
    assert sum(cell.censored for cell in res.cells) == 40
    cfg2 = ExperimentConfig(
        model="bipartite", n=4, p_grid=[1.0], trials=2, base_seed=3,
        statistic="component-count", state_budget=50_000,
    )
    res2 = run_sweep(cfg2)
    assert res2.cells[0].successes == 2 and res2.cells[0].censored == 0
    _report(10, "coupled monotone trend + bipartite split", t0, 120)


@pytest.mark.parametrize("rho", [1, 2, 3, 4])
@pytest.mark.parametrize("scale", [16, 24, 32])
def test_c11_gadget_structural_suite(rho, scale):
    t0 = time.monotonic()
    pair = build_gadget(desk_params(rho, scale))
    rep = validate_gadget(pair, p3_samples=200)
    checks = rep.checks
    assert checks["bipartite_g"]["passed"] and checks["bipartite_h"]["passed"]
    assert checks["uv_sides"]["passed"]
    assert checks["neighbor_conditions"]["passed"]
    assert checks["p1_unique_short_cycle"]["passed"], checks["p1_unique_short_cycle"]
    assert checks["p2_special_distances"]["passed"]
    assert checks["p3_interval_deletions"]["passed"], checks["p3_interval_deletions"]
    elapsed = time.monotonic() - t0
    print(f"ACCEPTANCE 11 gadget rho={rho} scale={scale}: structural PASS "
          f"({elapsed:.2f}s)")
    assert elapsed < 300


def _skeleton_edges(pair):
    """G's fixed edges, rebuilt from the pair's roles: the cycle, the ladder
    hangers, the q shortcut, the u/v edges and the z~ hangers."""
    roles, length = pair.roles, pair.cycle_length
    u, v = pair.u, pair.v
    edges = [(p, (p + 1) % length) for p in range(length)]
    for j in range(pair.params.ell):
        y = roles[f"y{j + 1}"]
        edges += [(y, pair.ladder_feet[2 * j]), (y, pair.ladder_feet[2 * j + 1])]
    edges.append((roles["s1"], pair.q))
    for i in (1, 2, 3):
        edges += [(u, roles[f"s{i}"]), (v, roles[f"r{i}"])]
    edges.append((u, v))
    for i in range(len(pair.tilde_feet) // 2):
        z = roles[f"zt_{i + 1}_1"]
        edges += [(z, pair.tilde_feet[2 * i]), (z, pair.tilde_feet[2 * i + 1])]
    return SimpleGraph(pair.g.n, edges)


def _extra_edge_lower_bound(pair, skeleton):
    """Fewest edges beyond the skeleton that the deletion property forces."""
    length = pair.cycle_length
    removable = set(removable_set(pair))
    pool = removable - {pair.u, pair.v}
    kept = set(range(pair.g.n)) - removable

    def need(x):
        around = {(x - 1) % length, (x + 1) % length}
        anchors = [w for w in skeleton.neighbors(x) if w in kept and w not in around]
        return max(0, len(around & pool) - len(anchors))

    interval = [x for x in pool if x < length]
    outer = {w for x in interval for w in ((x - 1) % length, (x + 1) % length)
             if w in kept}
    return sum(need(x) for x in interval) + math.ceil(sum(need(w) for w in outer) / 2)


@pytest.mark.parametrize("rho", [1, 3])
def test_c11_gadget_edge_budget_as_stated(rho):
    """The edge budget |E(G)| <= |V(G)| + 5*ell, asserted where the deletion
    property permits it.

    The audit (``p3_interval_deletions``) deletes u, v and any subset of the
    pool ``removable_set(pair) - {u, v}`` and requires the rest to be
    2-connected and not a cycle.  A 2-connected graph on at least three
    vertices has minimum degree 2, which gives a lower bound on |E| - |V|:

    * The skeleton is fixed by the pair's roles: the cycle (excess 0), ell
      ladder hangers (+1 each), the q shortcut (+1), the u/v edges (seven
      edges on two vertices, +5) and, for rho in {3, 4}, three z~ hangers
      (+1 each).  Excess ell + 6 (+3).
    * An interval vertex x survives the deletion of ``removable - {x}``.
      Each cycle neighbour of x in the pool is then gone, and only
      never-deleted neighbours are sure to remain, so x needs one
      never-deleted anchor off the cycle per pooled cycle neighbour: two for
      each of the ell - 2 interior vertices, one for each end.  s1 is the
      one exception: the never-deleted q shortcut anchors it once.  Each
      such edge has exactly one pool endpoint, so no two vertices share one:
      3 * (2*ell - 2) - 1 = 6*ell - 7 edges.
    * A never-deleted cycle vertex next to an interval survives the deletion
      of the whole pool and then has one cycle neighbour left, so it needs
      one more edge between never-deleted vertices.  Two such vertices can
      share one: ceil(6 / 2) = 3 edges.

    So |E| - |V| >= (ell + 6) + (6*ell - 7) + 3 = 7*ell + 2 (+3): 30 or 33 at
    the desk fan count ell = 4, against the stated 5*ell = 20.  The budget
    clause therefore holds only where this bound is at most 5*ell.  The
    repository holds only the paper's abstract, so it cannot settle whether
    the paper's deletion property ranges over arbitrary pool subsets, as the
    audit assumes, or only over the sets the exchange argument removes.

    Where the bound exceeds 5*ell, the test checks the construction is as
    sparse as its chord system allows instead: G is exactly the skeleton
    plus ``pair.chords``, and every chord is necessary.  A chord (x, t) is
    necessary because the deletion set {u, v} plus x's pooled cycle
    neighbours is accepted with the chord and rejected without it.  The
    built excess is 7*ell + 5 (+3), three above the bound, because the six
    outer neighbours each get their own chord instead of sharing three.
    """
    pair = build_gadget(desk_params(rho, 16))
    g, ell = pair.g, pair.params.ell
    skeleton = _skeleton_edges(pair)
    lower = skeleton.m - g.n + _extra_edge_lower_bound(pair, skeleton)
    excess = g.m - g.n
    assert lower <= excess, (lower, excess)
    if lower <= 5 * ell:
        assert g.m <= g.n + 5 * ell, (g.m, g.n + 5 * ell)
        return
    assert excess == skeleton.m - g.n + len(pair.chords), (excess, len(pair.chords))
    assert g.edges == skeleton.edges | SimpleGraph(g.n, pair.chords).edges
    length = pair.cycle_length
    pool = set(removable_set(pair)) - {pair.u, pair.v}
    for chord in pair.chords:
        src = chord[0]
        removed = {pair.u, pair.v} | ({(src - 1) % length, (src + 1) % length} & pool)
        without = SimpleGraph(g.n, [e for e in g.edge_list if set(e) != set(chord)])
        # the check _interval_deletion_audit makes of G minus ``removed``
        assert (articulation_analysis(g, removed)[1]
                and _neither_cycle_nor_theta0(g, removed)), chord
        assert not (articulation_analysis(without, removed)[1]
                    and _neither_cycle_nor_theta0(without, removed)), (
            f"chord {chord} is redundant: deleting {sorted(removed)} is "
            f"survived without it"
        )
    print(f"ACCEPTANCE 11 gadget rho={rho}: |E|-|V|={excess}, deletion "
          f"property forces >= {lower} > 5*ell={5 * ell}; every chord needed")


def test_c12_period_invariance_and_refinement():
    t0 = time.monotonic()
    hosts = 0
    for x in families.multiplicity_graphs(6, 6):
        host, cliques = complement_of_lift(x)
        hosts += 1
        parts = {
            rel: partition_by(rel, host, cliques)
            for rel in ("toric", "double_flip", "permutation",
                        "toric_permutation", "double_flip_permutation")
        }
        universe = enumerate_acyc(host)

        def refines(fine, coarse):
            seen = {}
            for o in universe:
                f, c = parts[fine].class_of[o.dirs], parts[coarse].class_of[o.dirs]
                if seen.setdefault(f, c) != c:
                    return False
            return True

        assert refines("double_flip", "toric")
        assert refines("double_flip", "double_flip_permutation")
        assert refines("toric", "toric_permutation")
        assert refines("double_flip_permutation", "toric_permutation")
        assert refines("permutation", "toric_permutation")
        assert refines("permutation", "double_flip_permutation")
        # period constant on each coarsened-flip class
        for members in parts["toric_permutation"].classes:
            periods = {period_of_orientation(o, cliques) for o in members}
            assert len(periods) == 1, (x, periods)
        # per-component divisibility: orientation period divides every
        # linear extension period
        for comp in host.connected_components():
            sub, _ = host.subgraph(comp)
            sub_cl = cliques.restricted(comp)
            for o in enumerate_acyc(sub):
                p_alpha = period_of_orientation(o, sub_cl)
                for ext in linear_extensions(o):
                    assert period_of_arrangement(ext, sub_cl) % p_alpha == 0
    assert hosts > 300
    _report(12, "period invariance, divisibility, refinement lattice", t0, 600)
