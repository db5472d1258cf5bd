"""Frozen copy of the state-space oracle, kept as the differential baseline.

The classes and functions below are the oracle's code as it stood before
``fs`` became ``fsm`` with unit label multiplicities, copied unchanged.
``tests/test_reference.py`` checks the live ``statespace.build_components``
against this copy.  Do not edit the copied code: its value is that it does
not move when the oracle does.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Optional, Sequence

from fsglab.graphs import (
    IncompatibleSizesError,
    MultiplicityGraph,
    SimpleGraph,
    as_multiplicity,
    contingency_count,
)
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
