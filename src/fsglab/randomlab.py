"""Random graph samplers, packing search, balancing swaps, and Monte Carlo
threshold sweeps.

Determinism contract: every sample is produced by ``random.Random`` (the
stdlib Mersenne Twister) seeded explicitly, with one uniform draw per
potential edge consumed in canonical pair order.  An edge is present iff its
uniform is below p, so a fixed seed couples the whole p-grid: raising p only
ever adds edges.
"""

from __future__ import annotations

import math
import random
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional, Sequence

from .families import random_graph
from .graphs import SimpleGraph, bipartition
from .statespace import BudgetExceededError, build_components


class PackingBudgetError(RuntimeError):
    def __init__(self, nodes: int):
        super().__init__(f"packing search exceeded node budget ({nodes} nodes)")
        self.nodes = nodes


class InsufficientMatchingError(RuntimeError):
    def __init__(self, nu: int, needed: int):
        super().__init__(
            f"auxiliary matching has size {nu}, need {needed} usable swaps"
        )
        self.nu = nu
        self.needed = needed


# -- samplers ------------------------------------------------------------------


def sample_gnp(n: int, p: float, seed: int) -> SimpleGraph:
    """One draw per pair (i, j), i < j, in lexicographic order."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    return random_graph(n, p, random.Random(seed))


def sample_bipartite(n: int, p: float, seed: int) -> SimpleGraph:
    """Edge-subgraph of the balanced complete bipartite graph on sides
    {0..n-1} and {n..2n-1}; one draw per cross pair in (i, j) order."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = random.Random(seed)
    edges = []
    for i in range(n):
        for j in range(n):
            if rng.random() < p:
                edges.append((i, n + j))
    return SimpleGraph(2 * n, edges)


# -- packing search -------------------------------------------------------------


def find_packing(
    x: SimpleGraph, y: SimpleGraph, node_budget: Optional[int] = None
) -> Optional[tuple[int, ...]]:
    """A bijection sending every edge of x onto a non-edge of y, or None
    after exhaustive refutation.  Budget exhaustion raises; a None return
    always means the search space was fully explored.

    Such a bijection is exactly an isolated vertex of the joint swap space.

    X-vertices are placed in order of non-increasing degree, each on the
    lowest free image first.  A node is one unused image tried for a vertex,
    whether or not it conflicts with the images of the vertex's placed
    neighbours.  The search keeps free images and Y-neighbourhoods as int
    bitmasks and counts the skipped images by popcount, so the node count is
    that of the one-image-at-a-time backtracking.  ``PackingBudgetError``
    carries ``node_budget + 1``, the node that went over.
    """
    if x.n != y.n:
        raise ValueError("packing needs equal vertex counts")
    n = x.n
    order = sorted(range(n), key=lambda v: -x.degree(v))
    rank = [0] * n
    for i, v in enumerate(order):
        rank[v] = i
    # the X-neighbours of order[i] that are placed before it
    placed_nbrs = [[w for w in x.neighbors(v) if rank[w] < i]
                   for i, v in enumerate(order)]
    ymask = [0] * n  # y-vertex -> bitmask of its y-neighbours
    for a, b in y.edge_list:
        ymask[a] |= 1 << b
        ymask[b] |= 1 << a
    assigned = [-1] * n  # x-vertex -> y-vertex
    limit = math.inf if node_budget is None else node_budget
    nodes = 0

    def place(i: int, free: int) -> Optional[list[int]]:
        nonlocal nodes
        if i == n:
            return assigned[:]
        v = order[i]
        forbidden = 0
        for w in placed_nbrs[i]:
            forbidden |= ymask[assigned[w]]
        cand = free & ~forbidden
        counted = 0  # the images up to the last candidate tried
        while cand:
            c = cand & -cand
            upto = (c << 1) - 1
            nodes += (free & upto & ~counted).bit_count()
            if nodes > limit:
                raise PackingBudgetError(node_budget + 1)
            counted = upto
            assigned[v] = c.bit_length() - 1
            res = place(i + 1, free ^ c)
            if res is not None:
                return res
            cand ^= c
        nodes += (free & ~counted).bit_count()
        if nodes > limit:
            raise PackingBudgetError(node_budget + 1)
        return None

    res = place(0, (1 << n) - 1)
    return tuple(res) if res is not None else None


# -- balancing by matching --------------------------------------------------------


def _max_matching(left: Sequence[int], right: Sequence[int],
                  adj: dict[int, list[int]]) -> dict[int, int]:
    """Maximum bipartite matching by augmenting paths; returns left->right."""
    match_l: dict[int, int] = {}
    match_r: dict[int, int] = {}

    def augment(u: int, seen: set[int]) -> bool:
        for w in adj.get(u, ()):
            if w in seen:
                continue
            seen.add(w)
            if w not in match_r or augment(match_r[w], seen):
                match_l[u] = w
                match_r[w] = u
                return True
        return False

    for u in left:
        augment(u, set())
    return match_l


def balance_arrangement(
    x: SimpleGraph,
    y: SimpleGraph,
    a: Sequence[int],
    forbidden: tuple[int, int],
    sides_x: Optional[tuple[Sequence[int], Sequence[int]]] = None,
    sides_y: Optional[tuple[Sequence[int], Sequence[int]]] = None,
) -> list[tuple[int, int]]:
    """Friendly swaps (as label pairs) that drive an arrangement into the
    balanced band, never touching the forbidden labels.

    Works on the auxiliary graph whose edges are the label pairs that can be
    friendly-swapped right now; a maximum matching supplies disjoint swaps,
    each shifting the side-A image count by one.
    """
    if sides_x is None:
        bx = bipartition(x)
        if bx is None:
            raise ValueError("x must be bipartite")
        sides_x = bx
    if sides_y is None:
        by = bipartition(y)
        if by is None:
            raise ValueError("y must be bipartite")
        sides_y = by
    ax = set(sides_x[0])
    ay, by_ = set(sides_y[0]), set(sides_y[1])
    n = x.n // 2
    sigma = list(a)
    inv = [0] * len(sigma)
    for p, lab in enumerate(sigma):
        inv[lab] = p

    def count_a() -> int:
        return sum(1 for p in ax if sigma[p] in ay)

    cur = count_a()
    if n <= 3 * cur <= 2 * n:  # n/3 <= cur <= 2n/3 with n = side size
        return []
    if 3 * cur > 2 * n:
        c_side, d_side = ay, by_
        need = cur - (2 * n) // 3
    else:
        # mirror case: too few A-images means too many B-images
        c_side, d_side = by_, ay
        need = (n - cur) - (2 * n) // 3

    c_labels = [lab for lab in c_side if inv[lab] in ax]
    d_labels = [lab for lab in d_side if inv[lab] not in ax]
    adj: dict[int, list[int]] = {}
    for c in c_labels:
        row = [
            d
            for d in d_labels
            if y.has_edge(c, d) and x.has_edge(inv[c], inv[d])
        ]
        if row:
            adj[c] = row
    matching = _max_matching(c_labels, d_labels, adj)
    usable = [
        (c, d)
        for c, d in sorted(matching.items())
        if c not in forbidden and d not in forbidden
    ]
    if len(usable) < need:
        raise InsufficientMatchingError(len(matching), need)
    swaps = []
    for c, d in usable[:need]:
        pc, pd = inv[c], inv[d]
        if not (x.has_edge(pc, pd) and y.has_edge(c, d)):
            raise AssertionError("planned swap is not friendly")
        sigma[pc], sigma[pd] = d, c
        inv[c], inv[d] = pd, pc
        swaps.append((c, d))
    final = count_a()
    if not (n <= 3 * final <= 2 * n):
        raise AssertionError("balancing swaps did not reach the balanced band")
    return swaps


# -- Monte Carlo sweeps ------------------------------------------------------------


@dataclass
class ExperimentConfig:
    model: str                 # "gnp" | "bipartite"
    n: int
    p_grid: list[float]
    trials: int
    base_seed: int
    statistic: str             # "isolated-vertex" | "component-count" | "balance-success"
    node_budget: int = 500_000
    state_budget: int = 200_000

    def validate(self) -> None:
        if self.model not in ("gnp", "bipartite"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.statistic not in (
            "isolated-vertex", "component-count", "balance-success"
        ):
            raise ValueError(f"unknown statistic {self.statistic!r}")
        if self.statistic == "balance-success" and self.model != "bipartite":
            raise ValueError("balance-success needs the bipartite model")
        if any(not 0.0 <= p <= 1.0 for p in self.p_grid):
            raise ValueError("'p_grid' values must lie in [0, 1]")
        if self.trials < 1:
            raise ValueError("'trials' must be at least 1")
        for key in ("n", "node_budget", "state_budget"):
            if getattr(self, key) < 0:
                raise ValueError(f"{key!r} must be nonnegative")

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentConfig":
        """A validated config from a parsed JSON object; each error names
        its key."""
        known = {f.name: f for f in fields(cls)}
        for key in d:
            if key not in known:
                raise ValueError(f"unknown key {key!r} "
                                 f"(keys: {', '.join(known)})")
        for key, f in known.items():
            if key not in d and f.default is MISSING:
                raise ValueError(f"missing key {key!r}")
        for key in ("n", "trials", "base_seed", "node_budget", "state_budget"):
            value = d.get(key, 0)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{key!r} must be an int, got {value!r}")
        p_grid = d["p_grid"]
        if not isinstance(p_grid, list) or any(
            isinstance(p, bool) or not isinstance(p, (int, float)) for p in p_grid
        ):
            raise ValueError(f"'p_grid' must be a list of numbers, got {p_grid!r}")
        cfg = cls(**{**d, "p_grid": [float(p) for p in p_grid]})
        cfg.validate()
        return cfg


def trial_seed(base_seed: int, trial: int, stream: int) -> int:
    """Seed for one trial: base composed with trial index and stream id
    (0 = x-graph, 1 = y-graph, 2 = extras)."""
    return (base_seed * 1_000_003 + trial) * 4 + stream


@dataclass
class SweepCell:
    p: float
    trials: int
    successes: int
    censored: int

    @property
    def estimate(self) -> Optional[float]:
        done = self.trials - self.censored
        return self.successes / done if done else None

    def wilson_interval(self) -> tuple[float, float]:
        """The 95% Wilson score interval of ``estimate``."""
        done = self.trials - self.censored
        if not done:
            return (0.0, 1.0)
        z = 1.96
        phat = self.successes / done
        denom = 1 + z * z / done
        center = (phat + z * z / (2 * done)) / denom
        half = (
            z
            * math.sqrt(phat * (1 - phat) / done + z * z / (4 * done * done))
            / denom
        )
        return (max(0.0, center - half), min(1.0, center + half))


@dataclass
class SweepResult:
    config: ExperimentConfig
    cells: list[SweepCell]
    outcomes: list[list[Optional[bool]]] = field(default_factory=list)
    # outcomes[cell][trial]: True/False, or None when censored

    def to_csv(self) -> str:
        lines = ["model,n,p,trials,successes,estimate,ci_lo,ci_hi,censored"]
        for cell in self.cells:
            lo, hi = cell.wilson_interval()
            est = cell.estimate
            lines.append(
                ",".join(
                    [
                        self.config.model,
                        str(self.config.n),
                        f"{cell.p:g}",
                        str(cell.trials),
                        str(cell.successes),
                        "" if est is None else f"{est:.6f}",
                        f"{lo:.6f}",
                        f"{hi:.6f}",
                        str(cell.censored),
                    ]
                )
            )
        return "\n".join(lines) + "\n"


def _trial_outcome(cfg: ExperimentConfig, p: float, trial: int) -> Optional[bool]:
    sx = trial_seed(cfg.base_seed, trial, 0)
    sy = trial_seed(cfg.base_seed, trial, 1)
    if cfg.model == "gnp":
        x = sample_gnp(cfg.n, p, sx)
        y = sample_gnp(cfg.n, p, sy)
    else:
        x = sample_bipartite(cfg.n, p, sx)
        y = sample_bipartite(cfg.n, p, sy)
    if cfg.statistic == "isolated-vertex":
        try:
            return find_packing(x, y, node_budget=cfg.node_budget) is not None
        except PackingBudgetError:
            return None
    if cfg.statistic == "component-count":
        target = 2 if cfg.model == "bipartite" else 1
        try:
            report = build_components(x, y, budget=cfg.state_budget, variant="fs")
        except BudgetExceededError:
            return None
        return report.component_count == target
    # balance-success
    rng = random.Random(trial_seed(cfg.base_seed, trial, 2))
    sigma = list(range(x.n))
    rng.shuffle(sigma)
    sides = (list(range(cfg.n)), list(range(cfg.n, 2 * cfg.n)))
    try:
        balance_arrangement(
            x, y, sigma, forbidden=(0, cfg.n), sides_x=sides, sides_y=sides
        )
        return True
    except InsufficientMatchingError:
        return False


def run_sweep(cfg: ExperimentConfig) -> SweepResult:
    """One cell per grid probability; identical configs give identical bytes.

    Trials are seeded per (base_seed, trial) and re-used across the grid, so
    for the isolated-vertex statistic each trial's outcome is monotone
    non-increasing in p by construction.
    """
    cfg.validate()
    cells = []
    outcomes = []
    for p in sorted(cfg.p_grid):
        succ = 0
        cens = 0
        row: list[Optional[bool]] = []
        for t in range(cfg.trials):
            out = _trial_outcome(cfg, p, t)
            row.append(out)
            if out is None:
                cens += 1
            elif out:
                succ += 1
        cells.append(SweepCell(p=p, trials=cfg.trials, successes=succ, censored=cens))
        outcomes.append(row)
    return SweepResult(config=cfg, cells=cells, outcomes=outcomes)
