"""Core graph types and structural predicates.

Everything downstream (state spaces, orientation classes, predictors) is
built on two immutable types: ``SimpleGraph`` and ``MultiplicityGraph``.
Vertices are always ``0..n-1``; edges are unordered pairs stored once as
``(u, v)`` with ``u < v``.

Vertex-deletion questions are asked of the graph itself: the
``removed`` argument of ``SimpleGraph.connected_components`` and
``articulation_analysis`` names deleted vertices, and the answer is that
of ``subgraph`` on the rest, given in the original vertex ids.  Because
``subgraph`` relabels monotonically, the order of the answer is the same
too.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Collection, Iterable, Iterator, Optional, Sequence


class MarginMismatchError(ValueError):
    """Row and column sums of a contingency table disagree."""


class IncompatibleSizesError(ValueError):
    """Two graphs cannot be paired into the requested state space."""


class SimpleGraph:
    """Undirected, loop-free graph on vertices ``0..n-1``."""

    __slots__ = ("n", "edges", "edge_list", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        canon = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            canon.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges = frozenset(canon)
        self.edge_list: tuple[tuple[int, int], ...] = tuple(sorted(canon))
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edge_list:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = tuple(tuple(sorted(a)) for a in adj)

    # -- basic accessors -------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self.edges

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted((len(a) for a in self._adj), reverse=True))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimpleGraph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, edges={sorted(self.edges)})"

    # -- structure -------------------------------------------------------

    def connected_components(self, removed: Collection[int] = ()) -> list[list[int]]:
        """Components as sorted vertex lists, ordered by smallest member,
        after deleting the vertices in ``removed``."""
        seen = [False] * self.n
        for v in removed:
            seen[v] = True
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            stack = [s]
            seen[s] = True
            comp = []
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in self._adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(sorted(comp))
        return comps

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.connected_components()) == 1

    def subgraph(self, keep: Iterable[int]) -> tuple["SimpleGraph", list[int]]:
        """Induced subgraph on ``keep``; returns (graph, old-vertex list)."""
        old = sorted(set(keep))
        idx = {v: i for i, v in enumerate(old)}
        edges = [
            (idx[u], idx[v]) for u, v in self.edge_list if u in idx and v in idx
        ]
        return SimpleGraph(len(old), edges), old

    def is_cycle_graph(self) -> bool:
        return (
            self.n >= 3
            and self.m == self.n
            and all(self.degree(v) == 2 for v in range(self.n))
            and self.is_connected()
        )

    def is_path_graph(self) -> bool:
        if self.n == 1:
            return self.m == 0
        return (
            self.m == self.n - 1
            and self.is_connected()
            and max(self.degree(v) for v in range(self.n)) <= 2
        )


def complement(g: SimpleGraph) -> SimpleGraph:
    edges = [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if (u, v) not in g.edges
    ]
    return SimpleGraph(g.n, edges)


def bipartition(g: SimpleGraph) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """Canonical 2-coloring, or None if an odd cycle exists.

    The lowest-index vertex of every connected component goes to side A.
    """
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = [s]
        while queue:
            v = queue.pop()
            for w in g.neighbors(v):
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    a = frozenset(v for v in range(g.n) if color[v] == 0)
    b = frozenset(v for v in range(g.n) if color[v] == 1)
    return a, b


def is_valid_bipartition(g: SimpleGraph, a: Iterable[int], b: Iterable[int]) -> bool:
    sa, sb = set(a), set(b)
    if sa & sb or sa | sb != set(range(g.n)):
        return False
    return all((u in sa) != (v in sa) for u, v in g.edge_list)


def articulation_analysis(
    g: SimpleGraph, removed: Collection[int] = ()
) -> tuple[frozenset[int], bool]:
    """Cut vertices plus a biconnectivity verdict, after deleting the
    vertices in ``removed`` (Hopcroft-Tarjan low-link over the fixed
    adjacency).

    A graph is biconnected here iff it is connected, has no cut vertex and
    has at least 3 vertices.
    """
    n = g.n
    alive = [True] * n
    for v in removed:
        alive[v] = False
    disc = [-1] * n
    low = [0] * n
    cut = [False] * n
    timer = 0
    comps = 0
    for root in range(n):
        if disc[root] != -1 or not alive[root]:
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
                if not alive[w]:
                    continue
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
    biconnected = comps == 1 and not cut_set and sum(alive) >= 3
    return cut_set, biconnected


# -- the exceptional 7-vertex graph -----------------------------------------

_THETA0_DEGSEQ = (3, 3, 2, 2, 2, 2, 2)


def theta0() -> SimpleGraph:
    """Hexagon 0..5 plus center 6 joined to the antipodal pair 0, 3."""
    ring = [(i, (i + 1) % 6) for i in range(6)]
    return SimpleGraph(7, ring + [(0, 6), (3, 6)])


def _isomorphic_brute(g: SimpleGraph, h: SimpleGraph) -> bool:
    """Backtracking isomorphism test; intended for tiny graphs only."""
    if g.n != h.n or g.m != h.m or g.degree_sequence() != h.degree_sequence():
        return False
    n = g.n
    mapping = [-1] * n
    used = [False] * n

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or g.degree(v) != h.degree(w):
                continue
            ok = True
            for u in range(v):
                if g.has_edge(v, u) != h.has_edge(w, mapping[u]):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if extend(v + 1):
                    return True
                used[w] = False
        mapping[v] = -1
        return False

    return extend(0)


def is_theta0(g: SimpleGraph) -> bool:
    if g.n != 7 or g.m != 8 or g.degree_sequence() != _THETA0_DEGSEQ:
        return False
    return _isomorphic_brute(g, theta0())


def is_wilsonian(g: SimpleGraph) -> bool:
    """True iff every star puzzle on g is fully solvable.

    Requires: at least 3 vertices, biconnected, not bipartite, not a cycle
    of length >= 4, and not the exceptional 7-vertex graph.
    """
    return wilson_star_components(g) == 1


def wilson_star_components(g: SimpleGraph) -> Optional[int]:
    """Predicted component count of the star swap puzzle on g.

    Returns 1 for Wilsonian graphs, 2 for biconnected bipartite graphs that
    are neither long cycles nor the exceptional graph, and None when
    Wilson's theorem does not decide the count (fewer than three vertices,
    cut vertices, cycles, the exceptional graph).  None does not mean the
    count is large: FS(star, P3) and FS(star, C4) have two components.
    """
    return _wilson_star_components(g, articulation_analysis(g)[1])


def _wilson_star_components(g: SimpleGraph, biconnected: bool) -> Optional[int]:
    """``wilson_star_components(g)`` for a caller that has already run
    ``articulation_analysis(g)``."""
    if not biconnected:  # also when g has fewer than three vertices
        return None
    if g.n >= 4 and g.is_cycle_graph():
        return None
    if is_theta0(g):
        return None
    return 2 if bipartition(g) is not None else 1


# -- multiplicity graphs and lifts -------------------------------------------


@dataclass(frozen=True)
class CliquePartition:
    """Blocks of a lift, one block per base vertex, in base-vertex order."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        flat = [v for b in self.blocks for v in b]
        if sorted(flat) != list(range(len(flat))):
            raise ValueError("blocks must partition 0..total-1")

    @property
    def total(self) -> int:
        return sum(len(b) for b in self.blocks)

    @cached_property
    def block_of(self) -> tuple[int, ...]:
        out = [0] * self.total
        for i, b in enumerate(self.blocks):
            for v in b:
                out[v] = i
        return tuple(out)

    def restricted(self, vertices: Sequence[int]) -> "CliquePartition":
        """Blocks intersected with ``vertices`` and relabelled 0..q-1."""
        idx = {v: i for i, v in enumerate(sorted(vertices))}
        blocks = []
        for b in self.blocks:
            sub = tuple(idx[v] for v in b if v in idx)
            if sub:
                blocks.append(sub)
        return CliquePartition(tuple(blocks))


class MultiplicityGraph:
    """A simple base graph plus a positive multiplicity per vertex."""

    __slots__ = ("base", "mult")

    def __init__(self, base: SimpleGraph, mult: Sequence[int]):
        mult = tuple(mult)
        if len(mult) != base.n:
            raise ValueError("need one multiplicity per vertex")
        if any(c < 1 for c in mult):
            raise ValueError("multiplicities must be positive")
        self.base = base
        self.mult = mult

    @property
    def total(self) -> int:
        return sum(self.mult)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiplicityGraph)
            and self.base == other.base
            and self.mult == other.mult
        )

    def __hash__(self) -> int:
        return hash((self.base, self.mult))

    def __repr__(self) -> str:
        return f"MultiplicityGraph({self.base!r}, mult={list(self.mult)})"


def as_multiplicity(g) -> MultiplicityGraph:
    if isinstance(g, MultiplicityGraph):
        return g
    return MultiplicityGraph(g, [1] * g.n)


def lift(m: MultiplicityGraph) -> tuple[SimpleGraph, CliquePartition]:
    """Blow-up: each base vertex becomes a clique of its multiplicity.

    Block vertex indices are assigned consecutively in base-vertex order,
    so the correspondence is reproducible across runs.
    """
    blocks = []
    start = 0
    for c in m.mult:
        blocks.append(tuple(range(start, start + c)))
        start += c
    edges = []
    for b in blocks:
        edges.extend(itertools.combinations(b, 2))
    for u, v in m.base.edge_list:
        edges.extend((a, b) for a in blocks[u] for b in blocks[v])
    return SimpleGraph(start, edges), CliquePartition(tuple(blocks))


# -- k-bridges ---------------------------------------------------------------


def find_k_bridges(g: SimpleGraph, k: int) -> list[tuple[int, ...]]:
    """All k-tuples whose interior is a chain of degree-2 vertices and whose
    removal separates the endpoints into components of size >= 2 each.

    Tuples are reported once, oriented so the first endpoint is smaller.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if k == 1:
        return []
    if k == 2:
        comps = g.connected_components()
        comp_of = {}
        for i, comp in enumerate(comps):
            for v in comp:
                comp_of[v] = i
        sizes = [len(c) for c in comps]
        out = []
        for a in range(g.n):
            for b in range(a + 1, g.n):
                if (
                    comp_of[a] != comp_of[b]
                    and sizes[comp_of[a]] >= 2
                    and sizes[comp_of[b]] >= 2
                ):
                    out.append((a, b))
        return out

    found = set()
    for chain in _degree2_chains(g, k - 2):
        ends1 = [w for w in g.neighbors(chain[0]) if w not in chain]
        ends2 = [w for w in g.neighbors(chain[-1]) if w not in chain]
        if len(chain) == 1:
            if len(ends1) != 2:
                continue
            a1, ak = ends1
        else:
            if len(ends1) != 1 or len(ends2) != 1:
                continue
            a1, ak = ends1[0], ends2[0]
        if a1 == ak:
            continue
        rcomps = g.connected_components(chain)
        rof = {}
        for i, comp in enumerate(rcomps):
            for v in comp:
                rof[v] = i
        ca, ck = rof[a1], rof[ak]
        if ca == ck:
            continue
        if len(rcomps[ca]) < 2 or len(rcomps[ck]) < 2:
            continue
        tup = (a1, *chain, ak)
        if a1 > ak:
            tup = tuple(reversed(tup))
        found.add(tup)
    return sorted(found)


def find_blocking_chains(g: SimpleGraph, k: int) -> list[tuple[int, ...]]:
    """Chains of k vertices that block label exchange with k blanks.

    For k >= 3 these are exactly the k-bridges.  For k = 2 the interior is
    empty and the obstruction is the chain's own edge: a cut edge whose two
    sides each hold at least 2 vertices (with endpoints counted).  Labels
    cannot reorder across such a chain, so the swap space disconnects.
    """
    if k >= 3:
        return find_k_bridges(g, k)
    if k != 2:
        raise ValueError("blocking chains are defined for k >= 2")
    base = len(g.connected_components())
    out = []
    for a, b in g.edge_list:
        rest = SimpleGraph(g.n, [e for e in g.edge_list if e != (a, b)])
        comps = rest.connected_components()
        if len(comps) == base:
            continue
        side_a = next(c for c in comps if a in c)
        side_b = next(c for c in comps if b in c)
        if len(side_a) >= 2 and len(side_b) >= 2:
            out.append((a, b))
    return out


def _degree2_chains(g: SimpleGraph, length: int) -> Iterator[tuple[int, ...]]:
    """Directed simple paths of ``length`` vertices, each of degree exactly 2.

    Walking along edges makes consecutive chain vertices adjacent, and the
    degree bound then forces each interior vertex's neighborhood to be
    exactly its chain neighbors.  Both orientations of a chain are emitted;
    the caller canonicalizes.
    """
    if length == 1:
        for v in range(g.n):
            if g.degree(v) == 2:
                yield (v,)
        return

    def extend(chain: list[int]):
        if len(chain) == length:
            yield tuple(chain)
            return
        for w in g.neighbors(chain[-1]):
            if w in chain or g.degree(w) != 2:
                continue
            chain.append(w)
            yield from extend(chain)
            chain.pop()

    for v in range(g.n):
        if g.degree(v) == 2:
            yield from extend([v])


# -- contingency tables ------------------------------------------------------


def contingency_count(row_sums: Sequence[int], col_sums: Sequence[int]) -> int:
    """Number of nonnegative integer matrices with the given margins."""
    rows = tuple(row_sums)
    cols = tuple(col_sums)
    if any(r < 0 for r in rows) or any(c < 0 for c in cols):
        raise ValueError("margins must be nonnegative")
    if sum(rows) != sum(cols):
        raise MarginMismatchError(
            f"row total {sum(rows)} != column total {sum(cols)}"
        )
    return _contingency_dp(tuple(sorted(rows)), cols)


@lru_cache(maxsize=None)
def _contingency_dp(rows: tuple[int, ...], cols: tuple[int, ...]) -> int:
    # Count is invariant under permuting remaining row capacities, so rows
    # are kept sorted to share memo entries.
    if not cols:
        return 1 if all(r == 0 for r in rows) else 0
    return sum(
        _contingency_dp(tuple(sorted(r - f for r, f in zip(rows, fill))), cols[1:])
        for fill in compositions(cols[0], rows)
    )


def compositions(total: int, bounds: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Compositions of ``total`` into len(bounds) nonnegative parts with
    part i <= bounds[i], in lexicographic order."""
    k = len(bounds)
    room = [0] * (k + 1)  # room[i]: the most that parts i.. can hold
    for i in range(k - 1, -1, -1):
        room[i] = room[i + 1] + bounds[i]
    acc: list[int] = []

    def rec(i: int, left: int):
        if i == k - 1:
            acc.append(left)
            yield tuple(acc)
            acc.pop()
            return
        # take at least what the later parts cannot hold
        for take in range(max(0, left - room[i + 1]), min(bounds[i], left) + 1):
            acc.append(take)
            yield from rec(i + 1, left - take)
            acc.pop()

    if not 0 <= total <= room[0]:
        return
    if k == 0:
        yield ()
        return
    yield from rec(0, total)


def cyclic_order_count(leaf_mults: Sequence[int]) -> Fraction:
    """Exact rational ``(sum - 1)! / prod(c_i!)`` over the leaf multiplicities.

    Only the predicate ``== 1`` is consumed downstream, so the value is kept
    as an exact fraction rather than forced to an integer.
    """
    mults = list(leaf_mults)
    if not mults or any(c < 1 for c in mults):
        raise ValueError("need a nonempty list of positive multiplicities")
    import math

    num = math.factorial(sum(mults) - 1)
    den = 1
    for c in mults:
        den *= math.factorial(c)
    return Fraction(num, den)


# -- disjoint sets -----------------------------------------------------------


class _UnionFind:
    """Disjoint sets over 0..n-1 with path halving; the smaller root wins."""

    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = array("l", range(n))

    def find(self, v: int) -> int:
        p = self.parent
        while p[v] != v:
            p[v] = v = p[p[v]]
        return v

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if ra < rb:
            self.parent[rb] = ra
        else:
            self.parent[ra] = rb
        return True


# -- constructors ------------------------------------------------------------


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> SimpleGraph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> SimpleGraph:
    """Star on n vertices with center 0."""
    if n < 1:
        raise ValueError("stars need at least one vertex")
    return SimpleGraph(n, [(0, i) for i in range(1, n)])


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, itertools.combinations(range(n), 2))


def edgeless_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, [])


def complete_bipartite_graph(a: int, b: int) -> SimpleGraph:
    return SimpleGraph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star_center(g: SimpleGraph) -> int:
    """Center of a star: the vertex adjacent to all others (vertex 0 on K2)."""
    if g.n == 1:
        return 0
    if g.n == 2:
        if g.m != 1:
            raise ValueError("not a star")
        return 0
    for v in range(g.n):
        if g.degree(v) == g.n - 1:
            if g.m == g.n - 1:
                return v
            break
    raise ValueError("not a star")


# -- JSON exchange format ----------------------------------------------------


def graph_to_json_dict(g) -> dict:
    if isinstance(g, MultiplicityGraph):
        d = graph_to_json_dict(g.base)
        d["mult"] = list(g.mult)
        return d
    return {"n": g.n, "edges": [list(e) for e in g.edge_list]}


def graph_from_json_dict(d: dict):
    """Returns a SimpleGraph, or a MultiplicityGraph when "mult" is present."""
    if not isinstance(d, dict) or "n" not in d or "edges" not in d:
        raise ValueError("graph JSON needs fields 'n' and 'edges'")
    g = SimpleGraph(int(d["n"]), [tuple(e) for e in d["edges"]])
    if "mult" in d and d["mult"] is not None:
        return MultiplicityGraph(g, [int(c) for c in d["mult"]])
    return g
