"""Friends-and-strangers state spaces over arrangements.

Three variants share one interface, served by two space classes:

* ``fsm``  -- ``FSmSpace``: positions simple, labels carry multiplicities;
  arrangements are label vectors with prescribed label counts.
* ``fs``   -- ``FSmSpace`` with every label multiplicity 1: both graphs
  simple, and arrangements are label bijections.
* ``fsmm`` -- ``FSmmSpace``: both sides carry multiplicities; arrangements
  are count matrices (rows = labels, columns = positions).

Arrangements are plain tuples so they hash cheaply into dense index tables.

Two traversals answer every reachability question, and nothing else here
walks a state space:

* ``reachable`` -- breadth-first search from one arrangement, for queries
  about a single component (exchangeability, component invariants).
* ``build_components`` -- one union-find pass over the whole space, for the
  full component partition.

Every move has an inverse, so the links of a space are undirected.  Each
space class lists all of an arrangement's neighbours (``neighbors``, for
``reachable``) and, separately, only those reached by a *forward* move
(``forward_neighbors``): in fs/fsm a swap across the X-edge (p, q), p < q,
that moves the smaller label from p to q; in fsmm, for an X-edge (u, v) and
a Y-edge (y1, y2), a move of a copy of u from y1 to y2 against a copy of v
from y2 to y1.  The reverse of a forward move is not forward, and no two
moves from one arrangement reach the same neighbour, so every undirected
link is produced exactly once, from one of its two ends.
``build_components`` unions forward neighbours only, so it sees each link
once and its ``edge_count`` is the number of forward moves.

It reads those moves from one of two link sources:

* fs/fsm spaces with at most ``_TABLE_STATES`` = 7! arrangements use the
  ``_StateTable`` of their label counts: an arrangement-to-rank index and,
  per position pair, the rank pairs of every swap, keyed by the two labels.
  The table depends only on the counts, so every space with them shares
  one, relabelled inputs included, and a call builds no tuple and looks up
  no arrangement: it unions the rank pairs of each X-edge and Y-edge.
* Larger spaces, and fsmm, rank their arrangements in a dict of their own
  and hash each forward neighbour into it.

Either way the component ids are an ``array`` in enumeration order, read
through the index, which no call writes.  Larger tables are not kept: a
cached table outlives its report, and FS(K4,5, C9) would hold its whole
index of 362,880 tuples (about 68 MB) for the life of the process.  At the
bound a table holds 0.7 MB, or 1.2 MB with the swaps of all 21 position
pairs.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .graphs import (
    IncompatibleSizesError,
    MultiplicityGraph,
    SimpleGraph,
    as_multiplicity,
    bipartition,
    compositions,
    contingency_count,
    find_k_bridges,
    lift,
    star_center,
    _UnionFind,
)


class BudgetExceededError(RuntimeError):
    def __init__(self, required: int, budget: int, what: str = "states"):
        super().__init__(
            f"state space needs {required} {what}, budget is {budget}"
        )
        self.required = required
        self.budget = budget


class NonBipartiteError(ValueError):
    pass


class InvalidArrangementError(ValueError):
    pass


# -- spaces -------------------------------------------------------------------


class FSmSpace:
    """FSm(X, Y): label vectors over positions V(X), label y used mult[y] times.

    With every multiplicity 1 the vectors are the bijections of FS(X, Y).
    """

    def __init__(self, x: SimpleGraph, y: MultiplicityGraph):
        if x.n != y.total:
            raise IncompatibleSizesError(
                f"|V(X)|={x.n} but total multiplicity of Y is {y.total}"
            )
        self.x = x
        self.y = y
        # bit t of _mask[s] is set iff labels s and t are adjacent in Y
        self._mask = [sum(1 << t for t in y.base.neighbors(s))
                      for s in range(y.base.n)]

    def count(self) -> int:
        c = math.factorial(self.y.total)
        for k in self.y.mult:
            c //= math.factorial(k)
        return c

    def enumerate(self) -> Iterator[tuple[int, ...]]:
        return _label_vectors(self.y.mult)

    def is_valid(self, a: Sequence[int]) -> bool:
        counts = [0] * self.y.base.n
        for lab in a:
            if not isinstance(lab, int) or not 0 <= lab < self.y.base.n:
                return False
            counts[lab] += 1
        return tuple(counts) == self.y.mult

    def neighbors(self, a: tuple[int, ...]) -> list[tuple[int, ...]]:
        mask = self._mask
        out = []
        for p, q in self.x.edge_list:
            s = a[p]
            t = a[q]
            if mask[s] >> t & 1:
                b = list(a)
                b[p] = t
                b[q] = s
                out.append(tuple(b))
        return out

    def forward_neighbors(self, a: tuple[int, ...]) -> list[tuple[int, ...]]:
        """The neighbours reached by swapping a smaller label on an edge's
        lower position with a larger one on its upper position."""
        mask = self._mask
        out = []
        for p, q in self.x.edge_list:
            s = a[p]
            t = a[q]
            if s < t and mask[s] >> t & 1:
                b = list(a)
                b[p] = t
                b[q] = s
                out.append(tuple(b))
        return out


class FSmmSpace:
    """FSmm(X, Y): count matrices, row u = copies of label u on each position.

    A move swaps one copy of label u on position y1 with one copy of a
    different label v on an adjacent position y2, and needs uv in E(X) and
    y1y2 in E(Y).  With all X-multiplicities equal to 1 this is exactly the
    fsm variant.
    """

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
        rows = self.x.mult
        # the rows that fit row i under each column room, with the room left;
        # many prefixes leave the same room
        options: dict = {}

        def fill(i: int, room: tuple[int, ...], acc: list[tuple[int, ...]]):
            if i == len(rows):
                yield tuple(acc)
                return
            opts = options.get((i, room))
            if opts is None:
                opts = options[i, room] = [
                    (row, tuple(r - v for r, v in zip(room, row)))
                    for row in compositions(rows[i], room)
                ]
            for row, left in opts:
                acc.append(row)
                yield from fill(i + 1, left, acc)
                acc.pop()

        return fill(0, self.y.mult, [])

    def neighbors(self, a) -> list[tuple[tuple[int, ...], ...]]:
        out = []
        for u, v in self.x.base.edge_list:
            ru = a[u]
            rv = a[v]
            for y1, y2 in self.y.base.edge_list:
                if ru[y1] > 0 and rv[y2] > 0:
                    out.append(_matrix_swap(a, u, v, y1, y2))
                if ru[y2] > 0 and rv[y1] > 0:
                    out.append(_matrix_swap(a, u, v, y2, y1))
        return out

    def forward_neighbors(self, a) -> list[tuple[tuple[int, ...], ...]]:
        """The neighbours reached by moving a copy of the lower label of an
        X-edge to the upper end of a Y-edge; the reverse move is the other
        branch of ``neighbors``."""
        out = []
        for u, v in self.x.base.edge_list:
            ru = a[u]
            rv = a[v]
            for y1, y2 in self.y.base.edge_list:
                if ru[y1] > 0 and rv[y2] > 0:
                    out.append(_matrix_swap(a, u, v, y1, y2))
        return out


def _matrix_swap(a, u, v, y1, y2):
    """``a`` with one copy of u moved from y1 to y2 and one copy of v back;
    only rows u and v are rebuilt."""
    b = list(a)
    row = list(a[u])
    row[y1] -= 1
    row[y2] += 1
    b[u] = tuple(row)
    row = list(a[v])
    row[y2] -= 1
    row[y1] += 1
    b[v] = tuple(row)
    return tuple(b)


def _label_vectors(mult: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The arrangements of an fs/fsm space with label counts ``mult``."""
    # the same lexicographic order, from C rather than Algorithm L in Python
    if all(k == 1 for k in mult):
        return itertools.permutations(range(len(mult)))
    return _multiset_permutations(mult)


def _multiset_permutations(counts: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All vectors using label i exactly counts[i] times, lexicographically.

    Knuth's Algorithm L (TAOCP 7.2.1.2): start from the sorted vector and
    step to the next permutation in place.
    """
    a = [lab for lab, c in enumerate(counts) for _ in range(c)]
    last = len(a) - 1
    while True:
        yield tuple(a)
        # a[j + 1:] is the longest non-increasing suffix
        j = last - 1
        while j >= 0 and a[j] >= a[j + 1]:
            j -= 1
        if j < 0:
            return
        # swap a[j] with the rightmost larger entry, then make the suffix
        # increasing
        k = last
        while a[j] >= a[k]:
            k -= 1
        a[j], a[k] = a[k], a[j]
        a[j + 1:] = a[:j:-1]


def space_for(x, y, variant: str):
    if variant == "fs":
        return FSmSpace(_as_simple(x), as_multiplicity(_as_simple(y)))
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


# -- components ---------------------------------------------------------------


@dataclass
class ComponentsReport:
    component_count: int
    component_sizes: list[int]
    vertex_count: int
    edge_count: int
    # arrangement -> component id, in enumeration order
    component_id: Mapping = field(repr=False)

    def component_of(self, a) -> int:
        return self.component_id[a]

    def json_chunks(self, include_ids: bool = False) -> Iterator[str]:
        """The report as JSON text with sorted keys, in pieces.
        ``include_ids`` adds ``component_id``, each arrangement keyed by
        ``_arrangement_key``; its members come a few thousand to a piece,
        so a caller that writes the pieces as they come never holds the
        whole text."""
        text = json.dumps({
            "vertices": self.vertex_count,
            "edges": self.edge_count,
            "components": list(self.component_sizes),
        }, sort_keys=True)
        if not include_ids:
            yield text
            return
        # "component_id" sorts before the other keys
        yield '{"component_id": {'
        yield from _id_members(self.component_id)
        yield "}, " + text[1:]

    def to_json(self, include_ids: bool = False) -> str:
        return "".join(self.json_chunks(include_ids))


def _arrangement_key(a) -> str:
    if a and isinstance(a[0], tuple):
        return ";".join(",".join(map(str, row)) for row in a)
    return ",".join(map(str, a))


def _keys_in_order(arrangements) -> bool:
    """Whether the ``_arrangement_key`` strings of ``arrangements`` come in
    sorted order.  Keys of one space have their separators in the same
    places, so while every entry has one digit, key order is arrangement
    order."""
    prev = None
    for a in arrangements:
        entries = itertools.chain.from_iterable(a) \
            if a and isinstance(a[0], tuple) else a
        if max(entries, default=0) > 9 or (prev is not None and a < prev):
            return False
        prev = a
    return True


def _id_members(component_id: Mapping) -> Iterator[str]:
    """The ``"key": id`` members of the ``component_id`` object in key
    order, joined by ", " in pieces of 4,096 members.

    When enumeration order is key order the members are formatted as they
    come; otherwise they are sorted (a quote sorts before any key character,
    so members sort as their keys do)."""
    members = (f'"{_arrangement_key(a)}": {i}' for a, i in component_id.items())
    if not _keys_in_order(component_id):
        members = iter(sorted(members))
    sep = ""
    while piece := list(itertools.islice(members, 4096)):
        yield sep + ", ".join(piece)
        sep = ", "


class _ComponentIds(Mapping):
    """Arrangement -> component id, read as ``ids[index[a]]``.

    ``index`` ranks the arrangements in enumeration order and may be shared
    with other reports, so nothing writes to it; ``ids`` holds the component
    ids in that order."""

    __slots__ = ("index", "ids")

    def __init__(self, index: dict, ids: array):
        self.index = index
        self.ids = ids

    def __getitem__(self, a) -> int:
        return self.ids[self.index[a]]

    def __iter__(self):
        return iter(self.index)

    def __len__(self) -> int:
        return len(self.ids)


# fs/fsm spaces with at most this many arrangements (7!) read their links
# from the _StateTable of their label counts
_TABLE_STATES = 5040


class _StateTable:
    """The arrangements with label counts ``mult`` and their swaps, shared
    read-only by every fs/fsm space with those counts.

    ``index`` maps each arrangement to its enumeration rank.  ``swaps(p, q)``
    maps each label pair (s, t), s < t, to a flat array of rank pairs
    (i, j): arrangement i holds s on position p and t on q, and j is i with
    those two entries swapped.  For an X-edge (p, q), p < q, and a Y-edge
    (s, t) these are the forward moves of ``FSmSpace.forward_neighbors``.
    Nothing here depends on X or Y.
    """

    __slots__ = ("index", "_swaps")

    def __init__(self, mult: tuple[int, ...]):
        self.index = {a: i for i, a in enumerate(_label_vectors(mult))}
        self._swaps: dict = {}

    def swaps(self, p: int, q: int) -> dict:
        by_labels = self._swaps.get((p, q))
        if by_labels is None:
            by_labels = self._swaps[p, q] = {}
            index = self.index
            for a, i in index.items():
                s = a[p]
                t = a[q]
                if s < t:
                    b = list(a)
                    b[p] = t
                    b[q] = s
                    pairs = by_labels.get((s, t))
                    if pairs is None:
                        pairs = by_labels[s, t] = array("i")
                    pairs.append(i)
                    pairs.append(index[tuple(b)])
        return by_labels


# one table per label-count vector, for as many vectors as a run cycles
# through: a repetition of the benchmark's oracle-many or predict workload
# uses 42 or 63
_state_table = functools.lru_cache(maxsize=128)(_StateTable)


def build_components(
    x, y, budget: Optional[int] = None, variant: str = "fs"
) -> ComponentsReport:
    """Exact component partition of the full arrangement space.

    Component ids are dense and assigned in order of each component's first
    arrangement in the canonical enumeration, so reports are deterministic.
    Each undirected link is seen once, from the end whose forward move
    reaches the other.
    """
    space = space_for(x, y, variant)
    total = space.count()
    if budget is not None and total > budget:
        raise BudgetExceededError(total, budget)
    if isinstance(space, FSmSpace) and total <= _TABLE_STATES:
        table = _state_table(space.y.mult)
        index = table.index
    else:
        table = None
        index = {a: i for i, a in enumerate(space.enumerate())}
    # union-find over enumeration ranks, allocated after the index so that it
    # does not add to the index's peak; the smaller root wins, so every root
    # is its component's first arrangement and parent[i] <= i
    parent = array("l", range(total))
    links = 0
    if table is not None:
        # rank pairs from the shared table, per X-edge and Y-edge
        label_edges = space.y.base.edge_list
        for p, q in space.x.edge_list:
            swaps = table.swaps(p, q)
            for st in label_edges:
                pairs = swaps.get(st)
                if pairs is None:
                    continue
                links += len(pairs) >> 1
                it = iter(pairs)
                for i, j in zip(it, it):
                    # _UnionFind.union(i, j) inlined
                    while parent[i] != i:
                        parent[i] = i = parent[parent[i]]
                    while parent[j] != j:
                        parent[j] = j = parent[parent[j]]
                    if i < j:
                        parent[j] = i
                    elif j < i:
                        parent[i] = j
    else:
        # forward neighbours of each arrangement, ranked by this call's index
        forward = space.forward_neighbors
        for i, a in enumerate(index):
            nbrs = forward(a)
            if not nbrs:
                continue
            links += len(nbrs)
            # _UnionFind.union(i, index[b]) inlined, with the root of i kept
            ra = i
            while parent[ra] != ra:
                parent[ra] = ra = parent[parent[ra]]
            for b in nbrs:
                rb = index[b]
                while parent[rb] != rb:
                    parent[rb] = rb = parent[parent[rb]]
                if ra < rb:
                    parent[rb] = ra
                elif rb < ra:
                    parent[ra] = rb
                    ra = rb
    # one pass in enumeration order overwrites each entry with its id
    sizes: list[int] = []
    for i in range(total):
        p = parent[i]
        if p == i:
            cid = len(sizes)
            sizes.append(1)
        else:
            cid = parent[p]
            sizes[cid] += 1
        parent[i] = cid
    return ComponentsReport(
        component_count=len(sizes),
        component_sizes=sizes,
        vertex_count=total,
        edge_count=links,
        component_id=_ComponentIds(index, parent),
    )


def reachable(space, start, budget: Optional[int] = None) -> Iterator:
    """The arrangements reachable from ``start`` by friendly swaps, in
    breadth-first order, ``start`` itself excluded.

    Each new arrangement is yielded before it counts against ``budget``, so
    a caller that stops at the arrangement that would exceed the budget gets
    its answer; resuming past it raises ``BudgetExceededError``.
    """
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for cur in frontier:
            for nb in space.neighbors(cur):
                if nb in seen:
                    continue
                yield nb
                seen.add(nb)
                nxt.append(nb)
                if budget is not None and len(seen) > budget:
                    raise BudgetExceededError(len(seen), budget)
        frontier = nxt


def is_exchangeable(x, y, a, u: int, v: int, budget: Optional[int] = None,
                    variant: str = "fs") -> bool:
    """Whether a pair can be transposed by a chain of friendly swaps.

    For the bijective variant (u, v) are labels and the target is the
    arrangement with those labels exchanged.  For the multiplicity variant
    (u, v) are positions and the target swaps the two entries.
    """
    if u == v:
        raise ValueError("pair must be distinct")
    if variant == "fsmm":
        raise ValueError("exchangeability is defined for fs and fsm variants")
    space = space_for(x, y, variant)
    a = tuple(a)
    if not space.is_valid(a):
        raise InvalidArrangementError(f"invalid arrangement {a!r}")
    if variant == "fs":
        target = tuple(u if t == v else v if t == u else t for t in a)
    else:
        b = list(a)
        b[u], b[v] = b[v], b[u]
        target = tuple(b)
    return target == a or any(s == target for s in reachable(space, a, budget))


# -- audits -------------------------------------------------------------------


def _sign(perm: Sequence[int]) -> int:
    n = len(perm)
    seen = [False] * n
    sign = 1
    for s in range(n):
        if seen[s]:
            continue
        length = 0
        v = s
        while not seen[v]:
            seen[v] = True
            v = perm[v]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def parity_audit(x: SimpleGraph, y: SimpleGraph,
                 report: Optional[ComponentsReport] = None,
                 budget: Optional[int] = None) -> bool:
    """Check the two-coloring parity invariant on every component of FS(X, Y).

    For arrangements sigma, tau in one component, sgn(sigma^-1 tau) must
    equal the parity of |tau(A_X) n A_Y| - |sigma(A_X) n A_Y|.
    """
    bx = bipartition(x)
    by = bipartition(y)
    if bx is None or by is None:
        raise NonBipartiteError("parity audit needs bipartite inputs")
    ax, ay = bx[0], by[0]
    if report is None:
        report = build_components(x, y, budget=budget, variant="fs")

    def a_count(s) -> int:
        return sum(1 for p in ax if s[p] in ay)

    reps: dict[int, tuple] = {}
    rep_inv: dict[int, list[int]] = {}
    rep_cnt: dict[int, int] = {}
    for a, cid in report.component_id.items():
        if cid not in reps:
            inv = [0] * len(a)
            for p, lab in enumerate(a):
                inv[lab] = p
            reps[cid] = a
            rep_inv[cid] = inv
            rep_cnt[cid] = a_count(a)
            continue
        inv = rep_inv[cid]
        rel = [inv[lab] for lab in a]  # rep^-1 . a as a permutation of positions
        sgn = _sign(rel)
        diff = a_count(a) - rep_cnt[cid]
        if (sgn == 1) != (diff % 2 == 0):
            return False
    return True


def quotient_audit(x: SimpleGraph, y: MultiplicityGraph,
                   budget: Optional[int] = None) -> bool:
    """Verify that collapsing lift arrangements by block projection yields
    exactly the multiplicity-variant component partition."""
    lifted, cliques = lift(y)
    lifted_report = build_components(x, lifted, budget=budget, variant="fs")
    # glue components holding equal block projections (label permutations
    # within blocks)
    block_of = cliques.block_of
    uf = _UnionFind(lifted_report.component_count)
    groups: dict[tuple[int, ...], int] = {}
    for a, cid in lifted_report.component_id.items():
        proj = tuple(block_of[lab] for lab in a)
        if proj in groups:
            uf.union(cid, groups[proj])
        else:
            groups[proj] = cid
    projected: dict[int, set] = {}
    for proj, cid in groups.items():
        projected.setdefault(uf.find(cid), set()).add(proj)
    lifted_partition = {frozenset(s) for s in projected.values()}

    direct = build_components(x, y, budget=budget, variant="fsm")
    direct_parts: dict[int, set] = {}
    for a, cid in direct.component_id.items():
        direct_parts.setdefault(cid, set()).add(a)
    direct_partition = {frozenset(s) for s in direct_parts.values()}
    return lifted_partition == direct_partition


# -- bridge component invariant -----------------------------------------------


class KBridgeError(ValueError):
    pass


def kbridge_component_invariant(
    x: SimpleGraph,
    star: MultiplicityGraph,
    bridge: Sequence[int],
    leaf: int,
    start: Sequence[int],
    budget: Optional[int] = None,
) -> bool:
    """Explore the component of ``start`` and check the blank-tracking
    containment invariant at every arrangement.

    The invariant: every copy of ``leaf`` sits either in the endpoint-side
    region A or on one of the first x(tau) non-blank bridge positions,
    where x(tau) counts blanks inside A.
    """
    bridge = tuple(bridge)
    k = star.mult[star_center(star.base)]
    if len(bridge) != k:
        raise KBridgeError(f"bridge length {len(bridge)} != center multiplicity {k}")
    if bridge not in find_k_bridges(x, k) and tuple(reversed(bridge)) not in find_k_bridges(x, k):
        raise KBridgeError(f"{bridge} is not a {k}-bridge of the position graph")
    blank = star_center(star.base)
    side_a = set(next(comp for comp in x.connected_components(bridge[1:-1])
                      if bridge[0] in comp))
    side_a.discard(bridge[0])

    space = FSmSpace(x, star)
    start = tuple(start)
    if not space.is_valid(start):
        raise InvalidArrangementError("start arrangement invalid")

    def invariant_holds(tau) -> bool:
        x_tau = sum(1 for p in side_a if tau[p] == blank)
        nonblank = [a for a in bridge if tau[a] != blank]
        allowed = set(nonblank[:x_tau]) | side_a
        return all(
            p in allowed for p in range(x.n) if tau[p] == leaf
        )

    return invariant_holds(start) and all(
        invariant_holds(s) for s in reachable(space, start, budget)
    )
