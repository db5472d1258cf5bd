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
relation.  One walk, ``_extensions``, lists the linear extensions of a
direction mask over a union of host components, and ``_period`` tries only
the divisors that the block sizes allow, over the whole host or over each
component in place.

Neither predictor enumerates Acyc.  ``permutation_class_count`` counts the
path classes by Burnside's lemma.  The cycle predictor lists, per host
component, the one orientation of each toric class whose only source is the
smallest vertex, takes their orbits under block transpositions, and
combines one period histogram per component by gcd.
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

    __slots__ = ("inc", "low", "high", "_edges")

    def __init__(self, host: SimpleGraph):
        self._edges = host.edge_list
        inc = [0] * host.n
        low = [0] * host.n
        bit = 1 << len(host.edge_list)
        for u, v in host.edge_list:
            bit >>= 1
            inc[u] |= bit
            inc[v] |= bit
            low[u] |= bit
        self.inc, self.low = inc, low
        self.high = [i ^ lo for i, lo in zip(inc, low)]

    def permutation(self, perm: Sequence[int]) -> tuple[int, list]:
        """``(keep, moved)`` for a vertex permutation that maps host edges
        onto host edges.  ``keep`` holds the bits it leaves in place;
        ``moved`` groups the other bits by how far they shift and whether
        they invert, as ``(source bits, invert bits, left, right)``."""
        m = len(self._edges)
        bit_of = {e: m - 1 - i for i, e in enumerate(self._edges)}
        keep, groups = 0, {}
        for (u, v), s in bit_of.items():
            a, b = perm[u], perm[v]
            t = bit_of[(b, a) if a > b else (a, b)]
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
        swaps = [table for _, table in _block_swaps(t, cliques)]
        classes = _glue(classes, class_of, swaps, t.permute)
    return ClassPartition(relation, host, classes)


def _block_swaps(t: _EdgeMasks, cliques: CliquePartition) -> list[tuple[int, tuple]]:
    """``(a, table)`` for the transposition of each two consecutive vertices
    a, a + 1 of a block."""
    swaps = []
    for block in cliques.blocks:
        for a, b in zip(block, block[1:]):
            perm = list(range(len(t.inc)))
            perm[a], perm[b] = b, a
            swaps.append((a, t.permutation(perm)))
    return swaps


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


def _extensions(o: int, t: _EdgeMasks, verts: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Orders of ``verts``, a union of host components, along which every
    edge of direction mask ``o`` points forward.  ``live`` holds the edges
    with both ends unplaced; a vertex comes next when its live edges all
    leave it."""
    inc, low = t.inc, t.low
    full = live = 0
    for v in verts:
        full |= 1 << v
        live |= inc[v]
    order: list[int] = []

    def rec(placed: int, live: int):
        if placed == full:
            yield tuple(order)
            return
        for v in verts:
            at = inc[v] & live
            if not placed >> v & 1 and o & at == low[v] & at:
                order.append(v)
                yield from rec(placed | 1 << v, live & ~inc[v])
                order.pop()

    yield from rec(0, live)


def linear_extensions(o: Orientation) -> list[tuple[int, ...]]:
    """All bijections (position -> vertex) that induce this orientation."""
    return list(_extensions(_to_mask(o.dirs), _EdgeMasks(o.host), range(o.host.n)))


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
    verts, block_of = range(o.host.n), cliques.block_of
    return _period(_to_mask(o.dirs), _EdgeMasks(o.host), verts, block_of,
                   _feasible_periods(verts, block_of))


def _feasible_periods(verts: Sequence[int], block_of: Sequence[int]) -> list[int]:
    """The divisors d of n = len(verts) that a period can take: a d-periodic
    block projection of n positions repeats its first d entries n/d times,
    so n/d divides the size of every block cut down to ``verts``."""
    n = len(verts)
    sizes = Counter(block_of[v] for v in verts).values()
    return [d for d in _divisors(n) if all(size % (n // d) == 0 for size in sizes)] or [1]


def _period(o: int, t: _EdgeMasks, verts: Sequence[int], block_of: Sequence[int],
            feasible: list[int]) -> int:
    """Minimum arrangement period of direction mask ``o`` restricted to
    ``verts``, a union of host components, trying only the ``feasible``
    divisors; when the largest is the only one, no extension is walked."""
    best = feasible[-1]
    if len(feasible) == 1:
        return best
    for ext in _extensions(o, t, verts):
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
    mask, t, block_of = _to_mask(o.dirs), _EdgeMasks(o.host), cliques.block_of
    periods = tuple(_period(mask, t, comp, block_of, _feasible_periods(comp, block_of))
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


def _toric_representatives(t: _EdgeMasks, comp: Sequence[int]) -> list[int]:
    """Direction masks, ascending, of the acyclic orientations of a host
    component whose only source is its smallest vertex v0: one per toric
    class (Pretzel 1986).

    With v0 the only source every other vertex has an in-edge, so a sink v
    of the subgraph on S is not v0 and has a neighbour in S - v; removing
    it leaves v0 the only source of S - v.  The recursion runs over the
    vertex subsets that hold v0, memoised, and adds v's edges into S - v as
    in-edges; an orientation with several sinks is kept once.
    """
    inc, high = t.inc, t.high
    v0, others = comp[0], comp[1:]
    memo: dict[int, set[int]] = {1 << v0: {0}}
    span = {1 << v0: inc[v0]}  # subset -> bits of the edges that touch it

    def reps(s: int) -> set[int]:
        if s not in memo:
            found = set()
            for v in others:
                if s >> v & 1:
                    sub = s ^ 1 << v
                    rest = reps(sub)
                    if rest and inc[v] & span[sub]:
                        into = high[v] & span[sub]
                        found.update(o | into for o in rest)
                    span[s] = span[sub] | inc[v]
            memo[s] = found
        return memo[s]

    return sorted(reps(sum(1 << v for v in comp)))


def _orbit_periods(t: _EdgeMasks, comp: Sequence[int], swaps: list,
                   block_of: Sequence[int]) -> Counter:
    """Period histogram of the ``toric_permutation`` classes of one host
    component, as orbits of its toric representatives under ``swaps``:
    ``(table, moves v0)`` for each block transposition inside it."""
    inc, low, permute, others = t.inc, t.low, t.permute, comp[1:]
    feasible = _feasible_periods(comp, block_of)
    periods = Counter()
    seen = set()
    for start in _toric_representatives(t, comp):
        if start in seen:
            continue
        seen.add(start)
        stack = [start]
        while stack:
            o = stack.pop()
            for table, moves_v0 in swaps:
                image = permute(o, table)
                while moves_v0:  # flip the other sources until v0 is the only one
                    moves_v0 = False
                    for v in others:
                        if image & inc[v] == low[v]:
                            image ^= inc[v]
                            moves_v0 = True
                if image not in seen:
                    seen.add(image)
                    stack.append(image)
        periods[_period(start, t, comp, block_of, feasible)] += 1
    return periods


def predict_cycle_components(x: MultiplicityGraph) -> int:
    """Component count of the cycle-position swap space over x: the sum,
    over the ``toric_permutation`` classes of the lift complement, of the
    gcd of a class member's per-component periods (``period_profile``'s
    ``delta``).

    No class is closed over Acyc.  Block vertices are twins: those with a
    neighbour share a host component and those without are fixed, so flips
    and block transpositions act on each component apart, and a class is a
    product of per-component orbits.  In a connected component each toric
    class holds exactly one acyclic orientation whose only source is the
    smallest vertex v0 (Pretzel 1986), and Greene-Zaslavsky (1983) count
    them as |[q] chi(q)|; ``_toric_representatives`` lists them.  A block
    transposition is an automorphism, so one that fixes v0 maps a
    representative onto a representative.  The one that moves v0 is
    followed by flipping every source other than v0 until v0 is the only
    source.  That ends: between two flips of a vertex each of its
    neighbours flips, so a neighbour of v0, which never flips, flips at
    most once, a vertex at distance d at most d times; and a connected
    acyclic orientation with no other source has v0 as its only source.

    The per-component period is constant on each orbit: a block
    transposition keeps the block projection of every extension, and the
    tests check flips on every class of the small families.  So each orbit
    gives one period.  A class is a tuple of orbits, one per component, and
    its delta is the gcd of their periods; the number of classes with each
    delta is therefore the gcd convolution of the per-component period
    histograms, and the prediction is the sum of delta times that number.
    """
    host, cliques = complement_of_lift(x)
    t, block_of = _EdgeMasks(host), cliques.block_of
    swaps = _block_swaps(t, cliques)
    deltas = Counter({0: 1})  # math.gcd(0, p) == p
    for comp in host.connected_components():
        periods = _orbit_periods(t, comp, [(table, a == comp[0])
                                           for a, table in swaps if a in comp],
                                 block_of)
        combined = Counter()
        for g, count in deltas.items():
            for p, orbits in periods.items():
                combined[math.gcd(g, p)] += count * orbits
        deltas = combined
    return sum((g or 1) * count for g, count in deltas.items())


def coprime_forest_connected(x: MultiplicityGraph) -> bool:
    """True iff the lift complement is a forest whose tree sizes have gcd 1."""
    host, _ = complement_of_lift(x)
    comps = host.connected_components()
    if host.m > host.n - len(comps):
        return False  # a cycle exists
    return math.gcd(*(len(comp) for comp in comps)) == 1
