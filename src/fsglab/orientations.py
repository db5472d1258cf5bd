"""Acyclic orientations of complement graphs: flips, equivalence classes,
linear extensions, rotation periods, and the path/cycle component predictors.

Enumeration and class closure work on direction masks, ints whose bit
``m-1-i`` is the direction of edge i of ``host.edge_list``, so integer order
is the order of ``Orientation.dirs`` tuples.  Flips, double flips and block
transpositions are bit operations on per-host tables (``_EdgeMasks``).
Acyc(host) comes from a recursion over vertex subsets that places one vertex
first at a time.  ``Orientation`` objects are built only when asked for.

One path answers each question.  ``partition_by`` closes the base relation
(flips, double flips, or nothing for ``permutation``), and ``_glue`` joins
base classes along block transpositions for every ``*_permutation``
relation.  One walk, ``_extensions``, lists the linear extensions over a
union of host components, and ``_period`` tries only the divisors that the
block sizes allow, over the whole host or over each component in place.

The path predictor enumerates no orientation: ``permutation_class_count``
counts the relabeling orbits by Burnside's lemma.  The cycle predictor sums
the period gcds of the ``toric_permutation`` classes.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional, Sequence

from .graphs import (CliquePartition, MultiplicityGraph, SimpleGraph, _UnionFind,
                     complement, lift)


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


# -- direction masks -------------------------------------------------------------


class _EdgeMasks:
    """Direction-mask tables of one host.

    An orientation is an int whose bit ``m-1-i`` is ``dirs[i]``, so integer
    order is ``dirs`` order.  ``inc[v]`` holds the bits of v's edges,
    ``low[v]`` those whose lower endpoint is v and ``high[v]`` the rest:
    v is a source iff ``o & inc[v] == low[v]``, a sink iff
    ``o & inc[v] == high[v]`` (an isolated vertex is both), and flipping v
    is ``o ^ inc[v]``.
    """

    __slots__ = ("inc", "low", "high", "_bit")

    def __init__(self, host: SimpleGraph):
        m = len(host.edge_list)
        self.inc = [0] * host.n
        self.low = [0] * host.n
        self._bit = {}
        for i, (u, v) in enumerate(host.edge_list):
            b = m - 1 - i
            self._bit[u, v] = b
            self.inc[u] |= 1 << b
            self.inc[v] |= 1 << b
            self.low[u] |= 1 << b
        self.high = [i ^ lo for i, lo in zip(self.inc, self.low)]

    def permutation(self, perm: Sequence[int]) -> tuple[int, list]:
        """``(keep, moved)`` for a vertex permutation that maps host edges
        onto host edges.  ``keep`` holds the bits it leaves in place;
        ``moved`` groups the other bits by how far they shift and whether
        they invert, as ``(source bits, invert bits, left, right)``."""
        keep, groups = 0, {}
        for (u, v), s in self._bit.items():
            a, b = perm[u], perm[v]
            t = self._bit[(b, a) if a > b else (a, b)]
            if s == t and a < b:
                keep |= 1 << s
            else:
                key = (t - s, a > b)
                groups[key] = groups.get(key, 0) | 1 << s
        moved = [(src, src if inv else 0, max(shift, 0), max(-shift, 0))
                 for (shift, inv), src in groups.items()]
        return keep, moved

    @staticmethod
    def permute(o: int, table: tuple[int, list]) -> int:
        keep, moved = table
        out = o & keep
        for src, inv, left, right in moved:
            out |= ((o ^ inv) & src) << left >> right
        return out


def _to_mask(dirs: Sequence[int]) -> int:
    out = 0
    for d in dirs:
        out = out << 1 | d
    return out


def _to_dirs(mask: int, m: int) -> tuple[int, ...]:
    # the guard bit above bit m-1 keeps leading zeros ('0b1' + m digits)
    return tuple(map(int, bin(mask | 1 << m)[3:]))


def _from_mask(host: SimpleGraph, mask: int) -> Orientation:
    return Orientation(host, _to_dirs(mask, len(host.edge_list)), check=False)


def _acyc_masks(host: SimpleGraph, t: _EdgeMasks) -> list[int]:
    """Direction masks of Acyc(host), ascending.

    An acyclic orientation of the subgraph on vertex set S places some v
    first: v's edges into S - v leave it, and the rest is an acyclic
    orientation of S - v.  The recursion runs over vertex subsets, memoised
    on the subset; an orientation with several sources is reached once per
    source and kept once.
    """
    inc, low, n = t.inc, t.low, host.n
    memo: dict[int, list[int]] = {0: [0]}
    span = {0: 0}  # subset -> bits of the edges that touch it

    def acyc(s: int) -> list[int]:
        if s not in memo:
            found = set()
            for v in range(n):
                if s >> v & 1:
                    sub = s ^ 1 << v
                    rest = acyc(sub)
                    away = low[v] & span[sub]
                    found.update(o | away for o in rest)
                    span[s] = span[sub] | inc[v]
            memo[s] = list(found)
        return memo[s]

    return sorted(acyc((1 << host.n) - 1))


def enumerate_acyc(host: SimpleGraph) -> list[Orientation]:
    """All acyclic orientations, deterministically ordered by direction bits.

    They come from a recursion over vertex subsets that places one vertex
    first at a time, on direction masks (see ``_EdgeMasks``).
    """
    return [_from_mask(host, o) for o in _acyc_masks(host, _EdgeMasks(host))]


def flip(o: Orientation, v: int) -> Orientation:
    """Reverse all edges at a source or sink; a no-op on isolated vertices."""
    t = _EdgeMasks(o.host)
    mask = _to_mask(o.dirs)
    if mask & t.inc[v] not in (t.low[v], t.high[v]):
        raise FlipError(f"vertex {v} is neither a source nor a sink")
    return _from_mask(o.host, mask ^ t.inc[v])


# -- equivalence-class partitions ----------------------------------------------

RELATIONS = (
    "toric",                      # closure under single flips
    "double_flip",                # closure under source/sink double flips
    "permutation",                # orbits of within-block relabelings
    "toric_permutation",          # coarsening of toric and permutation
    "double_flip_permutation",    # coarsening of double_flip and permutation
)


class ClassPartition:
    """Classes of Acyc(host) under one relation, numbered by smallest member.

    ``class_masks`` holds each class as an ascending list of direction
    masks.  ``classes`` (``Orientation`` lists) and ``class_of`` (``dirs``
    tuple to class id) are built on first access.
    """

    def __init__(self, relation: str, host: SimpleGraph,
                 class_masks: list[list[int]]):
        self.relation = relation
        self.host = host
        self.class_masks = class_masks

    @property
    def class_count(self) -> int:
        return len(self.class_masks)

    def representative(self, cid: int) -> Orientation:
        """The class's smallest member."""
        return _from_mask(self.host, self.class_masks[cid][0])

    @cached_property
    def classes(self) -> list[list[Orientation]]:
        return [[_from_mask(self.host, o) for o in members]
                for members in self.class_masks]

    @cached_property
    def class_of(self) -> dict:
        m = len(self.host.edge_list)
        return {_to_dirs(o, m): cid for cid, members in enumerate(self.class_masks)
                for o in members}


def partition_by(relation: str, host: SimpleGraph,
                 cliques: Optional[CliquePartition] = None) -> ClassPartition:
    """Partition Acyc(host) by closure under the relation's generating moves.

    The base relations close under moves on direction masks: flips of a
    source or sink (``toric``), double flips of a source and a non-adjacent
    sink (``double_flip``), or none at all (``permutation``, whose base
    classes are single orientations).  A ``*_permutation`` relation takes
    its base classes and glues them along the transpositions of consecutive
    vertices of a block (``_glue``), which gives the same classes as the
    closure under both kinds of move.

    Classes are numbered by their smallest member under the fixed
    orientation ordering, so numbering is deterministic.
    """
    if relation not in RELATIONS:
        raise ValueError(f"unknown relation {relation!r}")
    glue = relation.endswith("permutation")
    if glue and cliques is None:
        raise ValueError(f"relation {relation!r} needs the block partition")

    t = _EdgeMasks(host)
    inc, low, high = t.inc, t.low, t.high
    n = host.n
    flips = [v for v in range(n) if inc[v]] if relation.startswith("toric") else []
    double = relation.startswith("double_flip")
    adjacent = [sum(1 << w for w in host.neighbors(v)) for v in range(n)]

    def moves(o: int) -> list[int]:
        out = []
        for v in flips:
            at = o & inc[v]
            if at == low[v] or at == high[v]:
                out.append(o ^ inc[v])
        if double:
            sinks = [v for v in range(n) if o & inc[v] == high[v]]
            for u in range(n):
                if o & inc[u] == low[u]:
                    out.extend(o ^ inc[u] ^ inc[v] for v in sinks
                               if v != u and not adjacent[u] >> v & 1)
        return out

    class_of: dict[int, int] = {}
    classes: list[list[int]] = []
    for start in _acyc_masks(host, t):
        if start in class_of:
            continue
        cid = len(classes)
        class_of[start] = cid
        members = [start]
        stack = [start]
        while stack:
            for nxt in moves(stack.pop()):
                if nxt not in class_of:
                    class_of[nxt] = cid
                    members.append(nxt)
                    stack.append(nxt)
        members.sort()
        classes.append(members)
    if glue:
        swaps = []
        for block in cliques.blocks:
            for a, b in zip(block, block[1:]):
                perm = list(range(n))
                perm[a], perm[b] = b, a
                swaps.append(t.permutation(perm))
        classes = _glue(classes, class_of, swaps, t.permute)
    return ClassPartition(relation, host, classes)


def _glue(classes: list[list[int]], class_of: dict[int, int], swaps: list,
          permute) -> list[list[int]]:
    """Unions of base classes linked by block transpositions.

    The vertices of a block are twins of the host, so a block transposition
    is a host automorphism.  It maps sources to sources, sinks to sinks and
    non-adjacent pairs to non-adjacent pairs, so it maps each class of any
    base relation onto a whole class: a toric class (flips), a double_flip
    class (double flips) or a single orientation (``permutation``, whose
    base classes are singletons).  One transposed member per class and
    generator therefore links every pair of classes that the closure under
    base moves and transpositions would merge.  Glued classes come out in
    order of their smallest member, as the closure numbers them.
    """
    uf = _UnionFind(len(classes))
    for cid, members in enumerate(classes):
        for table in swaps:
            uf.union(cid, class_of[permute(members[0], table)])
    glued: dict[int, list[int]] = {}
    for cid, members in enumerate(classes):
        glued.setdefault(uf.find(cid), []).extend(members)
    return [sorted(members) for members in glued.values()]


# -- linear extensions and periods ----------------------------------------------


def _extensions(o: Orientation, verts: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Orders of ``verts``, a union of host components, along which every
    edge of ``o`` points forward."""
    out = o._out
    indeg = [0] * o.host.n
    for v in verts:
        for w in out[v]:
            indeg[w] += 1
    order: list[int] = []
    used = [False] * o.host.n

    def rec():
        if len(order) == len(verts):
            yield tuple(order)
            return
        for v in verts:
            if not used[v] and indeg[v] == 0:
                used[v] = True
                for w in out[v]:
                    indeg[w] -= 1
                order.append(v)
                yield from rec()
                order.pop()
                for w in out[v]:
                    indeg[w] += 1
                used[v] = False

    yield from rec()


def linear_extensions(o: Orientation) -> list[tuple[int, ...]]:
    """All bijections (position -> vertex) that induce this orientation."""
    return list(_extensions(o, range(o.host.n)))


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
    return _period(o, range(o.host.n), cliques.block_of)


def _period(o: Orientation, verts: Sequence[int], block_of: Sequence[int]) -> int:
    """``period_of_orientation`` of ``o`` restricted to ``verts``, a union
    of host components, with blocks cut down to ``verts``.

    A d-periodic block projection of n positions repeats its first d
    entries n/d times, so n/d divides the size of every block.  Only those
    feasible divisors are tried; when n is the only one, no extension is
    walked.
    """
    n = len(verts)
    if n == 0:
        return 1
    sizes = Counter(block_of[v] for v in verts).values()
    feasible = [d for d in _divisors(n) if all(size % (n // d) == 0 for size in sizes)]
    best = n
    if len(feasible) == 1:
        return best
    for ext in _extensions(o, verts):
        proj = [block_of[v] for v in ext]
        for d in feasible:
            if d >= best:
                break
            if proj[d:] + proj[:d] == proj:
                best = d
                break
        if best == feasible[0]:
            break
    return best


@dataclass
class PeriodProfile:
    periods: tuple[int, ...]   # one per host component, components by smallest vertex
    delta: int

    def __iter__(self):
        return iter(self.periods)


def period_profile(o: Orientation, cliques: CliquePartition) -> PeriodProfile:
    """Per-component periods of an orientation plus their gcd.

    Each component is walked in place, in host vertex ids: an edge never
    leaves its component, and only the equality pattern of the block
    projection decides a period.
    """
    block_of = cliques.block_of
    periods = tuple(_period(o, comp, block_of)
                    for comp in o.host.connected_components())
    return PeriodProfile(periods, math.gcd(*periods) or 1)


# -- component predictors ---------------------------------------------------------


def complement_of_lift(x: MultiplicityGraph) -> tuple[SimpleGraph, CliquePartition]:
    lifted, cliques = lift(x)
    return complement(lifted), cliques


def permutation_class_count(host: SimpleGraph, cliques: CliquePartition) -> int:
    """Number of ``permutation`` classes of Acyc(host), counted by Burnside's
    lemma without enumerating an orientation.

    The blocks must be twin classes of the host (independent sets whose
    vertices share one neighbourhood), as in a lift complement; the group
    is then every product of within-block permutations, and Burnside counts
    its orbits as the mean number of orientations a group element fixes.

    An element g with c_B cycles on block B fixes exactly the acyclic
    orientations that direct every edge between two of its cycles the same
    way.  Between two cycles joined by an edge, g maps edges onto edges; if
    both directions occurred, every vertex of both cycles would have in-
    and out-edges between them, and a finite digraph whose every vertex has
    an out-edge has a directed cycle.  The fixed orientations are thus the
    acyclic orientations of the quotient by g's cycles, which is the host
    restricted to the first c_B vertices of each block.  With s the unsigned
    Stirling numbers of the first kind and m_B the block sizes,

        orbits(m) = sum over c of prod_B s(m_B, c_B) * a(c) / prod_B m_B!

    where a(c) counts the acyclic orientations of that restriction.  Its
    source recursion a(S) = sum over nonempty independent I in S of
    (-1)^(|I|+1) a(S - I) says that sum over c of a(c) x^c / c! is
    1 / sum over independent block sets T of prod_(B in T) (e^(-x_B) - 1),
    and sum over m of s(m, c) y^m / m! = (-log(1 - y))^c / c!.  Substituting
    x_B = -log(1 - y_B) collapses the Burnside sum to

        orbits(m) = [y^m] 1 / sum over independent block sets T of (-y)^T,

    the Cartier-Foata count of heaps, whose coefficients satisfy
    N(c) = sum over nonempty independent T within the support of c of
    (-1)^(|T|+1) N(c - 1_T), with N(0) = 1.
    """
    blocks = cliques.blocks
    k = len(blocks)
    joined = [sum(1 << b for b in range(k) if host.has_edge(blocks[a][0], blocks[b][0]))
              for a in range(k)]
    # count vectors as mixed-radix ints: block b's digit has weight stride[b]
    stride, size = [], 1
    for block in blocks:
        stride.append(size)
        size *= len(block) + 1
    steps = []  # (T, 1_T as a mixed-radix int, (-1)^(|T|+1))
    for t in range(1, 1 << k):
        part = [b for b in range(k) if t >> b & 1]
        if not any(joined[b] & t for b in part):
            steps.append((t, sum(stride[b] for b in part), 1 if len(part) % 2 else -1))
    count = [1] + [0] * (size - 1)
    for c in range(1, size):
        support = sum(1 << b for b in range(k) if c // stride[b] % (len(blocks[b]) + 1))
        count[c] = sum(sign * count[c - step] for t, step, sign in steps
                       if t & support == t)
    return count[-1]


def predict_path_components(x: MultiplicityGraph) -> int:
    """Component count of the path-position swap space over x: the number of
    relabeling orbits of acyclic orientations of the lift complement,
    counted by ``permutation_class_count``."""
    return permutation_class_count(*complement_of_lift(x))


def predict_cycle_components(x: MultiplicityGraph) -> int:
    """Component count of the cycle-position swap space over x: for each
    flip-and-relabel class, its per-component period gcd counts the rotated
    copies; the prediction is the sum of those gcds."""
    host, cliques = complement_of_lift(x)
    part = partition_by("toric_permutation", host, cliques)
    return sum(period_profile(part.representative(cid), cliques).delta
               for cid in range(part.class_count))


def coprime_forest_connected(x: MultiplicityGraph) -> bool:
    """True iff the lift complement is a forest whose tree sizes have gcd 1."""
    host, _ = complement_of_lift(x)
    comps = host.connected_components()
    if host.m > host.n - len(comps):
        return False  # a cycle exists
    return math.gcd(*(len(comp) for comp in comps)) == 1
