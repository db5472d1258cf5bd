"""Samplers, packing search, balancing, and Monte Carlo sweeps."""

import random

import pytest

from fsglab.graphs import (
    SimpleGraph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    is_valid_bipartition,
    path_graph,
)
from fsglab.randomlab import (
    ExperimentConfig,
    InsufficientMatchingError,
    PackingBudgetError,
    balance_arrangement,
    find_packing,
    run_sweep,
    sample_bipartite,
    sample_gnp,
    trial_seed,
)
from fsglab.statespace import build_components
from fsglab import families


# -- samplers ------------------------------------------------------------------

def test_gnp_extremes():
    assert sample_gnp(5, 0.0, 1).m == 0
    assert sample_gnp(5, 1.0, 1) == complete_graph(5)


@pytest.mark.parametrize("sampler", [sample_gnp, sample_bipartite])
@pytest.mark.parametrize("p", [-0.1, 1.5])
def test_samplers_reject_p_outside_unit_interval(sampler, p):
    with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
        sampler(4, p, 1)


def test_gnp_determinism():
    assert sample_gnp(12, 0.4, 99) == sample_gnp(12, 0.4, 99)
    assert sample_gnp(12, 0.4, 99) != sample_gnp(12, 0.4, 100)


def test_gnp_coupling_is_monotone_in_p():
    for seed in range(8):
        lo = sample_gnp(10, 0.3, seed)
        hi = sample_gnp(10, 0.6, seed)
        assert lo.edges <= hi.edges


def test_bipartite_sampler_sides():
    g = sample_bipartite(4, 1.0, 0)
    assert g == complete_bipartite_graph(4, 4)
    for seed in range(6):
        g = sample_bipartite(5, 0.5, seed)
        assert is_valid_bipartition(g, range(5), range(5, 10))


# -- packing -------------------------------------------------------------------

def test_packing_triangles_refuted():
    k3 = complete_graph(3)
    assert find_packing(k3, k3) is None


def test_packing_single_edges():
    g = SimpleGraph(4, [(0, 1)])
    res = find_packing(g, g)
    assert res is not None
    # verify the defining property
    for u, v in g.edge_list:
        assert not g.has_edge(res[u], res[v])


def test_packing_p3_plus_isolated():
    g = SimpleGraph(4, [(0, 1), (1, 2)])
    res = find_packing(g, g)
    assert res is not None


def test_packing_budget():
    g = complete_graph(7)
    with pytest.raises(PackingBudgetError):
        find_packing(g, g, node_budget=3)


def test_packing_iff_singleton_component():
    # a packing is exactly an isolated vertex of the joint swap space
    rng = random.Random(21)
    for _ in range(25):
        n = rng.randint(2, 4)
        x = families.random_graph(n, rng.uniform(0.2, 0.9), rng)
        y = families.random_graph(n, rng.uniform(0.2, 0.9), rng)
        rep = build_components(x, y, variant="fs")
        has_singleton = 1 in rep.component_sizes
        assert (find_packing(x, y) is not None) == has_singleton


# -- balancing ------------------------------------------------------------------

def test_balance_k33_pathological_arrangement():
    k33 = complete_bipartite_graph(3, 3)
    sides = (list(range(3)), list(range(3, 6)))
    # sigma maps side A onto side A entirely: count 3 > 2n/3 = 2,
    # and the complete auxiliary graph yields a one-swap fix
    sigma = (0, 1, 2, 3, 4, 5)
    swaps = balance_arrangement(k33, k33, sigma, forbidden=(2, 5),
                                sides_x=sides, sides_y=sides)
    assert len(swaps) == 1


def test_balance_infers_the_bipartitions():
    k33 = complete_bipartite_graph(3, 3)
    sides = (list(range(3)), list(range(3, 6)))
    for sigma, forbidden in (((0, 1, 2, 3, 4, 5), (2, 5)),
                             ((3, 4, 5, 0, 1, 2), (0, 3)),
                             ((0, 1, 3, 2, 4, 5), (0, 3))):
        assert balance_arrangement(k33, k33, sigma, forbidden) == \
            balance_arrangement(k33, k33, sigma, forbidden,
                                sides_x=sides, sides_y=sides)
    c5 = cycle_graph(5)
    with pytest.raises(ValueError, match="^x must be bipartite$"):
        balance_arrangement(c5, path_graph(5), range(5), (0, 1))
    with pytest.raises(ValueError, match="^y must be bipartite$"):
        balance_arrangement(path_graph(5), c5, range(5), (0, 1))


def test_balance_already_balanced():
    k33 = complete_bipartite_graph(3, 3)
    sides = (list(range(3)), list(range(3, 6)))
    sigma = (0, 1, 3, 2, 4, 5)
    assert balance_arrangement(k33, k33, sigma, forbidden=(0, 3),
                               sides_x=sides, sides_y=sides) == []


def test_balance_output_is_friendly_and_avoids_forbidden():
    rng = random.Random(5)
    for trial in range(30):
        n = 6
        x = sample_bipartite(n, 1.0, trial)
        y = sample_bipartite(n, 1.0, trial + 1)
        sides = (list(range(n)), list(range(n, 2 * n)))
        sigma = list(range(2 * n))
        rng.shuffle(sigma)
        forbidden = (0, n)
        try:
            swaps = balance_arrangement(x, y, sigma, forbidden,
                                        sides_x=sides, sides_y=sides)
        except InsufficientMatchingError:
            continue
        cur = list(sigma)
        inv = [0] * len(cur)
        for p, lab in enumerate(cur):
            inv[lab] = p
        ax, ay = set(range(n)), set(range(n))
        for c, d in swaps:
            assert c not in forbidden and d not in forbidden
            pc, pd = inv[c], inv[d]
            assert x.has_edge(pc, pd) and y.has_edge(c, d)
            cur[pc], cur[pd] = d, c
            inv[c], inv[d] = pd, pc
        count = sum(1 for p in range(n) if cur[p] < n)
        assert n <= 3 * count <= 2 * n


def test_balance_insufficient_matching():
    # bipartite graphs with no usable swap pairs at all
    x = edgeless_graph(4)
    y = edgeless_graph(4)
    sides = ([0, 1], [2, 3])
    sigma = (0, 1, 2, 3)
    with pytest.raises(InsufficientMatchingError):
        balance_arrangement(x, y, sigma, forbidden=(3, 2),
                            sides_x=sides, sides_y=sides)


# -- sweeps ----------------------------------------------------------------------

def _cfg(**kw):
    base = dict(model="gnp", n=6, p_grid=[0.0, 0.5, 1.0], trials=4,
                base_seed=7, statistic="isolated-vertex")
    base.update(kw)
    return ExperimentConfig(**base)


def test_sweep_extreme_probabilities():
    res = run_sweep(_cfg())
    by_p = {c.p: c for c in res.cells}
    assert by_p[0.0].successes == 4   # empty graphs always pack
    assert by_p[1.0].successes == 0   # complete graphs never pack


def test_sweep_deterministic_bytes():
    a = run_sweep(_cfg()).to_csv()
    b = run_sweep(_cfg()).to_csv()
    assert a == b
    c = run_sweep(_cfg(base_seed=8)).to_csv()
    assert a != c


def test_sweep_per_trial_monotone():
    cfg = _cfg(n=10, p_grid=[0.1 * k for k in range(11)], trials=6)
    res = run_sweep(cfg)
    for t in range(cfg.trials):
        seq = [res.outcomes[i][t] for i in range(len(res.cells))]
        seq = [s for s in seq if s is not None]
        assert all(not (a < b) for a, b in zip(seq, seq[1:]))  # non-increasing


def test_sweep_component_count_bipartite():
    cfg = ExperimentConfig(model="bipartite", n=3, p_grid=[1.0], trials=2,
                           base_seed=1, statistic="component-count")
    res = run_sweep(cfg)
    assert res.cells[0].successes == 2  # complete bipartite: exactly 2 parts


def test_sweep_balance_statistic():
    cfg = ExperimentConfig(model="bipartite", n=6, p_grid=[1.0], trials=3,
                           base_seed=3, statistic="balance-success")
    res = run_sweep(cfg)
    assert res.cells[0].successes == 3


def test_sweep_csv_schema():
    text = run_sweep(_cfg(trials=2)).to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "model,n,p,trials,successes,estimate,ci_lo,ci_hi,censored"
    assert len(lines) == 4
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] == "gnp" and int(fields[3]) == 2


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig.from_json_dict(dict(
            model="gnp", n=4, p_grid=[0.5], trials=1, base_seed=0,
            statistic="balance-success"))
    with pytest.raises(ValueError):
        ExperimentConfig.from_json_dict(dict(
            model="gnp", n=4, p_grid=[1.5], trials=1, base_seed=0,
            statistic="isolated-vertex"))


def test_config_rejects_unknown_model_and_statistic():
    with pytest.raises(ValueError, match="unknown model 'er'"):
        _cfg(model="er").validate()
    with pytest.raises(ValueError, match="unknown statistic 'diameter'"):
        _cfg(statistic="diameter").validate()


def test_trial_seed_streams_distinct():
    seeds = {trial_seed(5, t, s) for t in range(10) for s in range(3)}
    assert len(seeds) == 30
