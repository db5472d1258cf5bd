"""Acyclic orientations of complement graphs: flips, equivalence classes,
linear extensions, rotation periods, and the path/cycle component predictors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from .graphs import CliquePartition, MultiplicityGraph, SimpleGraph, complement, lift


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


def induced_orientation(a: Sequence[int], host: SimpleGraph) -> Orientation:
    """Orientation induced by a bijection from positions onto host vertices:
    each edge points from the earlier-placed endpoint to the later one."""
    if sorted(a) != list(range(host.n)):
        raise ValueError("arrangement must be a bijection onto the host vertices")
    pos = [0] * host.n
    for p, vert in enumerate(a):
        pos[vert] = p
    dirs = [1 if pos[u] < pos[v] else 0 for u, v in host.edge_list]
    return Orientation(host, dirs, check=False)


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


# -- equivalence-class partitions ----------------------------------------------

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


# -- linear extensions and periods ----------------------------------------------


def linear_extensions(o: Orientation) -> list[tuple[int, ...]]:
    """All bijections (position -> vertex) that induce this orientation."""
    return list(iter_linear_extensions(o))


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
    return n


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


@dataclass
class PeriodProfile:
    periods: tuple[int, ...]   # one per host component, components by smallest vertex
    delta: int

    def __iter__(self):
        return iter(self.periods)


def period_profile(o: Orientation, cliques: CliquePartition) -> PeriodProfile:
    """Per-component periods of an orientation plus their gcd."""
    periods = []
    for comp in o.host.connected_components():
        sub_host, _ = o.host.subgraph(comp)
        # subgraph relabels monotonically, so the component's edges keep
        # their order and orientation; an edge never leaves its component
        inside = set(comp)
        dirs = [d for (u, _), d in zip(o.host.edge_list, o.dirs) if u in inside]
        sub_o = Orientation(sub_host, dirs, check=False)
        sub_cliques = cliques.restricted(comp)
        periods.append(period_of_orientation(sub_o, sub_cliques))
    delta = 0
    for p in periods:
        delta = math.gcd(delta, p)
    return PeriodProfile(tuple(periods), delta if delta else 1)


# -- component predictors ---------------------------------------------------------


def complement_of_lift(x: MultiplicityGraph) -> tuple[SimpleGraph, CliquePartition]:
    lifted, cliques = lift(x)
    return complement(lifted), cliques


def predict_path_components(x: MultiplicityGraph,
                            n: Optional[int] = None) -> int:
    """Component count of the path-position swap space over x: the number of
    relabeling orbits of acyclic orientations of the lift complement."""
    if n is not None and n != x.total:
        raise ValueError("n must equal the total multiplicity")
    host, cliques = complement_of_lift(x)
    return partition_by("permutation", host, cliques).class_count


def predict_cycle_components(x: MultiplicityGraph,
                             n: Optional[int] = None) -> int:
    """Component count of the cycle-position swap space over x: for each
    flip-and-relabel class, its per-component period gcd counts the rotated
    copies; the prediction is the sum of those gcds."""
    if n is not None and n != x.total:
        raise ValueError("n must equal the total multiplicity")
    host, cliques = complement_of_lift(x)
    part = partition_by("toric_permutation", host, cliques)
    total = 0
    for members in part.classes:
        total += period_profile(members[0], cliques).delta
    return total


def coprime_forest_connected(x: MultiplicityGraph) -> bool:
    """True iff the lift complement is a forest whose tree sizes have gcd 1."""
    host, _ = complement_of_lift(x)
    comps = host.connected_components()
    if host.m > host.n - len(comps):
        return False  # a cycle exists
    return math.gcd(*(len(comp) for comp in comps)) == 1
