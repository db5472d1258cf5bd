"""Frozen copies of kernels, kept as differential baselines.

* The state-space oracle as it stood before ``fs`` became ``fsm`` with unit
  label multiplicities.
* ``articulation_analysis`` and ``is_wilsonian`` as they stood before
  vertex-deletion questions were asked of the graph itself.
* The orientation layer (``Orientation``, ``enumerate_acyc``,
  ``partition_by`` and the moves it closes under) and the packing search
  ``find_packing``, before their kernels change.
* ``period_of_orientation`` as a walk over every linear extension that
  tries every divisor of n, before it tried only feasible divisors.
* ``graph_classes`` as a scan of every labelled graph (``all_graphs``)
  through ``canonical_key``, first labelling seen wins, before classes
  were grown by vertex augmentation.

Each is copied unchanged.  ``tests/test_reference.py`` checks the live code
against these copies.  Do not edit the copied code: its value is that it
does not move when the live code does.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from fsglab.graphs import (
    CliquePartition,
    IncompatibleSizesError,
    MultiplicityGraph,
    SimpleGraph,
    as_multiplicity,
    bipartition,
    contingency_count,
    is_theta0,
)
from fsglab.randomlab import PackingBudgetError
from fsglab.statespace import BudgetExceededError, ComponentsReport


class FSSpace:
    """FS(X, Y): bijections from positions V(X) to labels V(Y)."""

    variant = "fs"

    def __init__(self, x: SimpleGraph, y: SimpleGraph):
        if x.n != y.n:
            raise IncompatibleSizesError(
                f"|V(X)|={x.n} but |V(Y)|={y.n}"
            )
        self.x = x
        self.y = y

    def count(self) -> int:
        return math.factorial(self.x.n)

    def enumerate(self) -> Iterator[tuple[int, ...]]:
        return itertools.permutations(range(self.y.n))

    def is_valid(self, a: Sequence[int]) -> bool:
        return sorted(a) == list(range(self.y.n))

    def neighbors(self, a: tuple[int, ...]) -> list[tuple[int, ...]]:
        out = []
        for p, q in self.x.edge_list:
            if self.y.has_edge(a[p], a[q]):
                b = list(a)
                b[p], b[q] = b[q], b[p]
                out.append(tuple(b))
        return out


class FSmSpace:
    """FSm(X, Y): label vectors over positions V(X), label y used mult[y] times."""

    variant = "fsm"

    def __init__(self, x: SimpleGraph, y: MultiplicityGraph):
        if x.n != y.total:
            raise IncompatibleSizesError(
                f"|V(X)|={x.n} but total multiplicity of Y is {y.total}"
            )
        self.x = x
        self.y = y

    def count(self) -> int:
        c = math.factorial(self.y.total)
        for k in self.y.mult:
            c //= math.factorial(k)
        return c

    def enumerate(self) -> Iterator[tuple[int, ...]]:
        return _multiset_permutations(list(self.y.mult), self.x.n)

    def is_valid(self, a: Sequence[int]) -> bool:
        counts = [0] * self.y.base.n
        for lab in a:
            if not 0 <= lab < self.y.base.n:
                return False
            counts[lab] += 1
        return tuple(counts) == self.y.mult

    def neighbors(self, a: tuple[int, ...]) -> list[tuple[int, ...]]:
        ybase = self.y.base
        out = []
        for p, q in self.x.edge_list:
            if ybase.has_edge(a[p], a[q]):
                b = list(a)
                b[p], b[q] = b[q], b[p]
                out.append(tuple(b))
        return out


class FSmmSpace:
    """FSmm(X, Y): count matrices, row u = copies of label u on each position.

    A move swaps one copy of label u on position y1 with one copy of a
    different label v on an adjacent position y2, and needs uv in E(X) and
    y1y2 in E(Y).  With all X-multiplicities equal to 1 this is exactly the
    fsm variant.
    """

    variant = "fsmm"

    def __init__(self, x: MultiplicityGraph, y: MultiplicityGraph):
        if x.total != y.total:
            raise IncompatibleSizesError(
                f"total multiplicities differ: {x.total} vs {y.total}"
            )
        self.x = x
        self.y = y

    def count(self) -> int:
        return contingency_count(self.x.mult, self.y.mult)

    def enumerate(self) -> Iterator[tuple[tuple[int, ...], ...]]:
        rows = list(self.x.mult)
        cols = list(self.y.mult)

        def fill(i: int, remaining: list[int], acc: list[tuple[int, ...]]):
            if i == len(rows):
                yield tuple(acc)
                return
            for row in _bounded_compositions(rows[i], remaining):
                acc.append(row)
                left = [r - v for r, v in zip(remaining, row)]
                yield from fill(i + 1, left, acc)
                acc.pop()

        return fill(0, cols, [])

    def is_valid(self, a) -> bool:
        if len(a) != self.x.base.n:
            return False
        if any(len(row) != self.y.base.n for row in a):
            return False
        if any(v < 0 for row in a for v in row):
            return False
        if tuple(sum(row) for row in a) != self.x.mult:
            return False
        return tuple(sum(col) for col in zip(*a)) == self.y.mult

    def neighbors(self, a) -> list[tuple[tuple[int, ...], ...]]:
        out = []
        for u, v in self.x.base.edge_list:
            for y1, y2 in self.y.base.edge_list:
                if a[u][y1] > 0 and a[v][y2] > 0:
                    out.append(_matrix_swap(a, u, v, y1, y2))
                if a[u][y2] > 0 and a[v][y1] > 0:
                    out.append(_matrix_swap(a, u, v, y2, y1))
        return out


def _matrix_swap(a, u, v, y1, y2):
    b = [list(row) for row in a]
    b[u][y1] -= 1
    b[u][y2] += 1
    b[v][y2] -= 1
    b[v][y1] += 1
    return tuple(tuple(row) for row in b)


def _multiset_permutations(counts: list[int], length: int) -> Iterator[tuple[int, ...]]:
    """All vectors using label i exactly counts[i] times, lexicographically."""
    out: list[int] = []

    def rec():
        if len(out) == length:
            yield tuple(out)
            return
        for lab, c in enumerate(counts):
            if c > 0:
                counts[lab] -= 1
                out.append(lab)
                yield from rec()
                out.pop()
                counts[lab] += 1

    return rec()


def _bounded_compositions(total: int, bounds: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Compositions of ``total`` into len(bounds) parts with part i <= bounds[i],
    in lexicographic order."""
    k = len(bounds)
    acc: list[int] = []

    def rec(i: int, left: int):
        if i == k - 1:
            if left <= bounds[i]:
                acc.append(left)
                yield tuple(acc)
                acc.pop()
            return
        for take in range(min(bounds[i], left) + 1):
            acc.append(take)
            yield from rec(i + 1, left - take)
            acc.pop()

    if k == 0:
        if total == 0:
            yield ()
        return
    yield from rec(0, total)


def space_for(x, y, variant: str):
    if variant == "fs":
        return FSSpace(_as_simple(x), _as_simple(y))
    if variant == "fsm":
        return FSmSpace(_as_simple(x), as_multiplicity(y))
    if variant == "fsmm":
        return FSmmSpace(as_multiplicity(x), as_multiplicity(y))
    raise ValueError(f"unknown variant {variant!r}")


def _as_simple(g) -> SimpleGraph:
    if isinstance(g, MultiplicityGraph):
        if any(c != 1 for c in g.mult):
            raise IncompatibleSizesError(
                "variant requires unit multiplicities on this side"
            )
        return g.base
    return g


class _UnionFind:
    __slots__ = ("parent", "rank")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, v: int) -> int:
        p = self.parent
        while p[v] != v:
            p[v] = p[p[v]]
            v = p[v]
        return v

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


def build_components(
    x, y, budget: Optional[int] = None, variant: str = "fs"
) -> ComponentsReport:
    """Exact component partition of the full arrangement space.

    Component ids are dense and assigned in order of each component's first
    arrangement in the canonical enumeration, so reports are deterministic.
    """
    space = space_for(x, y, variant)
    total = space.count()
    if budget is not None and total > budget:
        raise BudgetExceededError(total, budget)
    arrangements = list(space.enumerate())
    index = {a: i for i, a in enumerate(arrangements)}
    uf = _UnionFind(total)
    links = 0
    for i, a in enumerate(arrangements):
        for b in space.neighbors(a):
            links += 1
            uf.union(i, index[b])
    ids: dict = {}
    root_id: dict[int, int] = {}
    sizes: list[int] = []
    for i, a in enumerate(arrangements):
        r = uf.find(i)
        if r not in root_id:
            root_id[r] = len(sizes)
            sizes.append(0)
        cid = root_id[r]
        sizes[cid] += 1
        ids[a] = cid
    return ComponentsReport(
        component_count=len(sizes),
        component_sizes=sizes,
        vertex_count=total,
        edge_count=links // 2,
        component_id=ids,
    )


# -- graphs: articulation and Wilson's criterion ------------------------------


def articulation_analysis(g: SimpleGraph) -> tuple[frozenset[int], bool]:
    """Cut vertices plus a biconnectivity verdict.

    A graph is biconnected here iff it is connected, has no cut vertex and
    has at least 3 vertices.
    """
    n = g.n
    disc = [-1] * n
    low = [0] * n
    cut = [False] * n
    timer = 0
    comps = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        comps += 1
        # iterative DFS with low-link
        stack = [(root, -1, iter(g.neighbors(root)))]
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    if v == root:
                        root_children += 1
                    stack.append((w, v, iter(g.neighbors(w))))
                    advanced = True
                    break
                elif w != parent:
                    low[v] = min(low[v], disc[w])
            if not advanced:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    low[pv] = min(low[pv], low[v])
                    if pv != root and low[v] >= disc[pv]:
                        cut[pv] = True
        if root_children >= 2:
            cut[root] = True
    cut_set = frozenset(v for v in range(n) if cut[v])
    biconnected = comps == 1 and not cut_set and n >= 3
    return cut_set, biconnected


def is_wilsonian(g: SimpleGraph) -> bool:
    """True iff every star puzzle on g is fully solvable.

    Requires: at least 3 vertices, biconnected, not bipartite, not a cycle
    of length >= 4, and not the exceptional 7-vertex graph.
    """
    if g.n < 3:
        return False
    _, biconn = articulation_analysis(g)
    if not biconn:
        return False
    if bipartition(g) is not None:
        return False
    if g.n >= 4 and g.is_cycle_graph():
        return False
    return not is_theta0(g)


# -- orientations -------------------------------------------------------------


class FlipError(ValueError):
    pass


class Orientation:
    """An acyclic direction assignment on the edges of a host graph.

    ``dirs[i]`` is 1 when canonical edge ``(u, v)`` (u < v) points u -> v.
    """

    __slots__ = ("host", "dirs", "_out")

    def __init__(self, host: SimpleGraph, dirs: Sequence[int], check: bool = True):
        self.host = host
        self.dirs = tuple(int(d) for d in dirs)
        if len(self.dirs) != len(host.edge_list):
            raise ValueError("one direction bit per host edge required")
        out: list[list[int]] = [[] for _ in range(host.n)]
        for (u, v), d in zip(host.edge_list, self.dirs):
            if d:
                out[u].append(v)
            else:
                out[v].append(u)
        self._out = tuple(tuple(o) for o in out)
        if check and not self._acyclic():
            raise ValueError("orientation has a directed cycle")

    def _acyclic(self) -> bool:
        n = self.host.n
        indeg = [0] * n
        for outs in self._out:
            for w in outs:
                indeg[w] += 1
        queue = [v for v in range(n) if indeg[v] == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for w in self._out[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        return seen == n

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        return self._out[v]

    def directed_edges(self) -> list[tuple[int, int]]:
        return [
            (u, v) if d else (v, u)
            for (u, v), d in zip(self.host.edge_list, self.dirs)
        ]

    def is_source(self, v: int) -> bool:
        """All incident edges leave v.  Isolated vertices count."""
        return len(self._out[v]) == self.host.degree(v)

    def is_sink(self, v: int) -> bool:
        return not self._out[v]

    def sources(self) -> list[int]:
        return [v for v in range(self.host.n) if self.is_source(v)]

    def sinks(self) -> list[int]:
        return [v for v in range(self.host.n) if self.is_sink(v)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Orientation)
            and self.host == other.host
            and self.dirs == other.dirs
        )

    def __hash__(self) -> int:
        return hash(self.dirs)

    def __repr__(self) -> str:
        return f"Orientation({self.directed_edges()})"


def enumerate_acyc(host: SimpleGraph) -> list[Orientation]:
    """All acyclic orientations, deterministically ordered by direction bits.

    Every acyclic orientation is induced by some vertex order, so sweeping
    all n! orders and deduplicating is exact (hosts here are small).
    """
    seen = set()
    import itertools

    for perm in itertools.permutations(range(host.n)):
        pos = [0] * host.n
        for p, vert in enumerate(perm):
            pos[vert] = p
        dirs = tuple(
            1 if pos[u] < pos[v] else 0 for u, v in host.edge_list
        )
        seen.add(dirs)
    return [Orientation(host, d, check=False) for d in sorted(seen)]


def flip(o: Orientation, v: int) -> Orientation:
    """Reverse all edges at a source or sink; a no-op on isolated vertices."""
    if not (o.is_source(v) or o.is_sink(v)):
        raise FlipError(f"vertex {v} is neither a source nor a sink")
    dirs = list(o.dirs)
    for i, (a, b) in enumerate(o.host.edge_list):
        if a == v or b == v:
            dirs[i] ^= 1
    return Orientation(o.host, dirs, check=False)


def apply_block_permutation(o: Orientation, perm: Sequence[int]) -> Orientation:
    """Relabel an orientation along a vertex permutation: the image directs
    perm(u) -> perm(v) exactly when u -> v."""
    edge_index = {e: i for i, e in enumerate(o.host.edge_list)}
    dirs = [0] * len(o.dirs)
    for (u, v), d in zip(o.host.edge_list, o.dirs):
        a, b = perm[u], perm[v]
        forward = d
        if a > b:
            a, b = b, a
            forward = 1 - d
        dirs[edge_index[(a, b)]] = forward
    return Orientation(o.host, dirs, check=False)


RELATIONS = (
    "toric",                      # closure under single flips
    "double_flip",                # closure under source/sink double flips
    "permutation",                # orbits of within-block relabelings
    "toric_permutation",          # coarsening of toric and permutation
    "double_flip_permutation",    # coarsening of double_flip and permutation
)


@dataclass
class ClassPartition:
    relation: str
    classes: list[list[Orientation]]
    class_of: dict  # dirs tuple -> class id

    @property
    def class_count(self) -> int:
        return len(self.classes)

    def class_of_orientation(self, o: Orientation) -> int:
        return self.class_of[o.dirs]

    def to_json_dict(self) -> dict:
        return {
            "relation": self.relation,
            "class_sizes": [len(c) for c in self.classes],
            "representatives": [
                list(c[0].dirs) for c in self.classes
            ],
        }


def _flip_moves(o: Orientation) -> Iterator[Orientation]:
    for v in range(o.host.n):
        if o.host.degree(v) == 0:
            continue
        if o.is_source(v) or o.is_sink(v):
            yield flip(o, v)


def _double_flip_moves(o: Orientation) -> Iterator[Orientation]:
    host = o.host
    srcs = o.sources()
    snks = o.sinks()
    for u in srcs:
        for v in snks:
            if u == v or host.has_edge(u, v):
                continue
            yield flip(flip(o, u), v)


def _block_transposition_moves(o: Orientation, cliques: CliquePartition) -> Iterator[Orientation]:
    n = o.host.n
    for block in cliques.blocks:
        for i in range(len(block) - 1):
            perm = list(range(n))
            a, b = block[i], block[i + 1]
            perm[a], perm[b] = b, a
            yield apply_block_permutation(o, perm)


def partition_by(relation: str, host: SimpleGraph,
                 cliques: Optional[CliquePartition] = None) -> ClassPartition:
    """Partition Acyc(host) by closure under the relation's generating moves.

    Classes are numbered by their smallest member under the fixed
    orientation ordering, so numbering is deterministic.
    """
    if relation not in RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    needs_cliques = relation in (
        "permutation", "toric_permutation", "double_flip_permutation"
    )
    if needs_cliques and cliques is None:
        raise ValueError(f"relation {relation!r} needs the block partition")

    def moves(o: Orientation) -> Iterator[Orientation]:
        if relation in ("toric", "toric_permutation"):
            yield from _flip_moves(o)
        if relation in ("double_flip", "double_flip_permutation"):
            yield from _double_flip_moves(o)
        if needs_cliques:
            yield from _block_transposition_moves(o, cliques)

    universe = enumerate_acyc(host)
    class_of: dict = {}
    classes: list[list[Orientation]] = []
    for o in universe:
        if o.dirs in class_of:
            continue
        cid = len(classes)
        members = [o]
        class_of[o.dirs] = cid
        frontier = [o]
        while frontier:
            nxt = []
            for cur in frontier:
                for mv in moves(cur):
                    if mv.dirs not in class_of:
                        class_of[mv.dirs] = cid
                        members.append(mv)
                        nxt.append(mv)
            frontier = nxt
        members.sort(key=lambda e: e.dirs)
        classes.append(members)
    return ClassPartition(relation, classes, class_of)


# -- periods --------------------------------------------------------------------


def iter_linear_extensions(o: Orientation) -> Iterator[tuple[int, ...]]:
    n = o.host.n
    indeg = [0] * n
    for v in range(n):
        for w in o.out_neighbors(v):
            indeg[w] += 1
    order: list[int] = []
    used = [False] * n

    def rec():
        if len(order) == n:
            yield tuple(order)
            return
        for v in range(n):
            if not used[v] and indeg[v] == 0:
                used[v] = True
                for w in o.out_neighbors(v):
                    indeg[w] -= 1
                order.append(v)
                yield from rec()
                order.pop()
                for w in o.out_neighbors(v):
                    indeg[w] += 1
                used[v] = False

    yield from rec()


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def period_of_arrangement(a: Sequence[int], cliques: CliquePartition) -> int:
    """Least positive rotation power after which the arrangement is
    blockwise equal to itself.  Always divides the length."""
    n = len(a)
    block_of = cliques.block_of
    proj = [block_of[v] for v in a]
    for d in _divisors(n):
        if all(proj[i] == proj[(i + d) % n] for i in range(n)):
            return d


def period_of_orientation(o: Orientation, cliques: CliquePartition) -> int:
    """Minimum arrangement period over all linear extensions."""
    n = o.host.n
    if n == 0:
        return 1
    divisors = _divisors(n)
    best = n
    for ext in iter_linear_extensions(o):
        p = period_of_arrangement(ext, cliques)
        if p < best:
            best = p
            if best == divisors[0]:
                break
    return best


# -- packing search -----------------------------------------------------------


def find_packing(
    x: SimpleGraph, y: SimpleGraph, node_budget: Optional[int] = None
) -> Optional[tuple[int, ...]]:
    """A bijection sending every edge of x onto a non-edge of y, or None
    after exhaustive refutation.  Budget exhaustion raises; a None return
    always means the search space was fully explored.

    Such a bijection is exactly an isolated vertex of the joint swap space.
    """
    if x.n != y.n:
        raise ValueError("packing needs equal vertex counts")
    n = x.n
    order = sorted(range(n), key=lambda v: -x.degree(v))
    assigned = [-1] * n  # x-vertex -> y-vertex
    used = [False] * n
    nodes = 0

    def place(i: int) -> Optional[list[int]]:
        nonlocal nodes
        if i == n:
            return assigned[:]
        v = order[i]
        placed_nbrs = [w for w in x.neighbors(v) if assigned[w] != -1]
        for img in range(n):
            if used[img]:
                continue
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                raise PackingBudgetError(nodes)
            if any(y.has_edge(img, assigned[w]) for w in placed_nbrs):
                continue
            assigned[v] = img
            used[img] = True
            res = place(i + 1)
            if res is not None:
                return res
            assigned[v] = -1
            used[img] = False
        return None

    res = place(0)
    return tuple(res) if res is not None else None


# -- graph classes ------------------------------------------------------------


def _edge_pairs(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(n), 2))


def _wl_colors(n: int, adj: list[list[int]], rounds: int = 2) -> tuple[int, ...]:
    colors = [len(a) for a in adj]
    for _ in range(rounds):
        keys = [
            (colors[v], tuple(sorted(colors[w] for w in adj[v])))
            for v in range(n)
        ]
        remap = {k: i for i, k in enumerate(sorted(set(keys)))}
        colors = [remap[k] for k in keys]
    return tuple(colors)


def canonical_key(g: SimpleGraph) -> tuple:
    """Isomorphism-invariant key: minimum edge bitmask over all vertex
    permutations that preserve the refined color classes."""
    n = g.n
    pairs = _edge_pairs(n)
    pair_index = {p: i for i, p in enumerate(pairs)}
    mask = 0
    for e in g.edge_list:
        mask |= 1 << pair_index[e]
    adj = [list(g.neighbors(v)) for v in range(n)]
    colors = _wl_colors(n, adj)
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(colors[v], []).append(v)
    ordered_groups = [groups[c] for c in sorted(groups)]
    slots: list[int] = []
    for grp in ordered_groups:
        slots.extend(range(len(slots), len(slots) + len(grp)))
    best = None
    for placed in itertools.product(
        *(itertools.permutations(grp) for grp in ordered_groups)
    ):
        perm = [0] * n  # old vertex -> new position
        i = 0
        for grp_perm in placed:
            for v in grp_perm:
                perm[v] = slots[i]
                i += 1
        m2 = 0
        for u, v in g.edge_list:
            a, b = perm[u], perm[v]
            if a > b:
                a, b = b, a
            m2 |= 1 << pair_index[(a, b)]
        if best is None or m2 < best:
            best = m2
    return (n, best)


def all_graphs(n: int, connected: bool = False) -> Iterator[SimpleGraph]:
    """Every labeled graph on n vertices (optionally connected only)."""
    pairs = _edge_pairs(n)
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        g = SimpleGraph(n, edges)
        if connected and not g.is_connected():
            continue
        yield g


@lru_cache(maxsize=None)
def _graph_classes_cached(n: int, connected: bool) -> tuple[SimpleGraph, ...]:
    reps: dict[tuple, SimpleGraph] = {}
    for g in all_graphs(n, connected=connected):
        key = canonical_key(g)
        if key not in reps:
            reps[key] = g
    return tuple(reps[k] for k in sorted(reps))


def graph_classes(n: int, connected: bool = False) -> list[SimpleGraph]:
    """One representative per isomorphism class, deterministic order."""
    return list(_graph_classes_cached(n, connected))
