"""Enumeration of small graph families and multiplicity lists for sweeps.

Graph classes are grown one vertex at a time (vertex augmentation, after
McKay 1998, "Isomorph-free exhaustive generation"): every class on n
vertices is a class on n - 1 vertices plus a vertex joined to some subset
of the old ones.  ``canonical_key`` rejects isomorphs among those
candidates: its key is the smallest edge mask over the labellings that
keep a cheap iterated-degree coloring in order.  Each class is then
represented by its labelling with the smallest edge mask over all
labellings.  One pruned search over vertex placements finds both
minima, level by level, keeping only the placements whose new row is
least.  This is plenty for the vertex counts used here (n <= 6,
occasionally 7).
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from typing import Sequence

from .graphs import MultiplicityGraph, SimpleGraph, compositions, star_graph


@lru_cache(maxsize=None)
def _edge_pairs(n: int) -> tuple[tuple[int, int], ...]:
    return tuple(itertools.combinations(range(n), 2))


def _wl_colors(n: int, adj: list[list[int]]) -> tuple[int, ...]:
    colors = [len(a) for a in adj]
    for _ in range(2):
        keys = [
            (colors[v], tuple(sorted(colors[w] for w in adj[v])))
            for v in range(n)
        ]
        remap = {k: i for i, k in enumerate(sorted(set(keys)))}
        colors = [remap[k] for k in keys]
    return tuple(colors)


def canonical_key(g: SimpleGraph) -> tuple:
    """Isomorphism-invariant key: minimum edge bitmask over all vertex
    permutations that preserve the refined color classes (each class on a
    run of positions, classes in increasing color order)."""
    n = g.n
    return (n, _least_mask(g, _wl_colors(n, [g.neighbors(v) for v in range(n)]))[0])


def _least_mask(g: SimpleGraph, colors: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """The smallest edge mask, bit i standing for ``_edge_pairs(n)[i]``, over
    the labellings that put the vertices of each color on a run of
    positions, colors increasing; and the vertices that one such labelling
    puts at positions n - 1, n - 2, ..., 0.

    Positions are filled n - 1, n - 2, ..., 0.  Placing a vertex at
    position k fixes the bits of the pairs (k, j), j > k, which are the
    next-highest bits of the mask after those already fixed; read with
    j = n - 1 most significant, they form the vertex's row.  So only the
    partial labellings whose new row is the smallest of the level can
    extend to the minimum, and the search keeps just those.  Two of them
    that placed the same vertices and left the same rows have the same
    completions, so a level keeps one of each.  A level's rows are one int,
    vertex u's row in the n bits from u * n up."""
    n = g.n
    field = (1 << n) - 1
    col = [0] * n   # col[w]: the bits u * n of w's neighbours u
    for u, v in g.edge_list:
        col[u] |= 1 << v * n
        col[v] |= 1 << u * n
    members: dict[int, list[tuple[int, int]]] = {}
    for v, c in enumerate(colors):
        members.setdefault(c, []).append((v, v * n))
    slot = sorted(colors)   # the color of each position
    # (rows of the unplaced vertices, their fields) -> the vertices placed
    level = {(0, (1 << n * n) - 1): ()}
    mask = 0
    low_bit = n * (n - 1) // 2   # bit of the pair (k, k + 1)
    for k in range(n - 1, -1, -1):
        cand = members[slot[k]]
        best = min([rows >> s & field for rows, live in level
                    for _, s in cand if live >> s & 1])
        low_bit -= n - 1 - k
        mask |= best << low_bit
        nxt: dict[tuple[int, int], tuple[int, ...]] = {}
        for (rows, live), placed in level.items():
            for w, s in cand:
                if live >> s & 1 and rows >> s & field == best:
                    left = live & ~(field << s)
                    nxt.setdefault(((rows << 1 | col[w]) & left, left), placed + (w,))
        level = nxt
    return mask, next(iter(level.values()))


def _min_mask_labelling(g: SimpleGraph) -> SimpleGraph:
    """The relabelling of ``g`` with the smallest edge mask, bit i standing
    for ``_edge_pairs(n)[i]``."""
    n = g.n
    pos = [0] * n
    for i, v in enumerate(_least_mask(g, [0] * n)[1]):
        pos[v] = n - 1 - i
    return SimpleGraph(n, [(pos[u], pos[v]) for u, v in g.edge_list])


@lru_cache(maxsize=None)
def _graph_classes_cached(n: int, connected: bool) -> tuple[SimpleGraph, ...]:
    if n <= 1:
        return (SimpleGraph(n, []),)
    # every graph on n vertices is a graph on n - 1 vertices plus a vertex;
    # a connected one has a vertex that is no cut vertex, so a connected
    # class plus a vertex with at least one neighbour reaches it
    found: dict[tuple, SimpleGraph] = {}
    for base in _graph_classes_cached(n - 1, connected):
        for nbrs in range(1 if connected else 0, 1 << (n - 1)):
            g = SimpleGraph(n, base.edge_list + tuple(
                (u, n - 1) for u in range(n - 1) if nbrs >> u & 1))
            found.setdefault(canonical_key(g), g)
    return tuple(_min_mask_labelling(found[k]) for k in sorted(found))


def graph_classes(n: int, connected: bool = False) -> list[SimpleGraph]:
    """One representative per isomorphism class, deterministic order."""
    return list(_graph_classes_cached(n, connected))


def mult_lists(n_vertices: int, total_max: int) -> list[tuple[int, ...]]:
    """All positive multiplicity lists of the given length with bounded total."""
    out = []
    for total in range(n_vertices, total_max + 1):
        out.extend(_compositions(total, n_vertices))
    return out


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """Compositions of ``total`` into ``parts`` positive parts, in
    lexicographic order; none when ``total < parts``."""
    spare = total - parts
    return [tuple(c + 1 for c in comp) for comp in compositions(spare, [spare] * parts)]


def multiplicity_graphs(max_base_n: int, total_max: int,
                        connected: bool = False) -> list[MultiplicityGraph]:
    """All multiplicity graphs over isomorphism-class bases with bounded total."""
    out = []
    for n in range(1, max_base_n + 1):
        for base in graph_classes(n, connected=connected):
            for mults in mult_lists(n, total_max):
                out.append(MultiplicityGraph(base, mults))
    return out


def star_mult_configs(n_total: int, centers: Sequence[int],
                      sizes: Sequence[int]) -> list[MultiplicityGraph]:
    """Star multiplicity graphs with given vertex counts and center
    multiplicities, total n_total; leaf lists deduplicated up to reordering."""
    out = []
    for m in sizes:
        if m < 2:
            continue
        for k in centers:
            leaf_total = n_total - k
            if leaf_total < m - 1:
                continue
            seen = set()
            for leaves in _compositions(leaf_total, m - 1):
                key = tuple(sorted(leaves))
                if key in seen:
                    continue
                seen.add(key)
                out.append(MultiplicityGraph(star_graph(m), (k,) + key))
    return out


def random_graph(n: int, p: float, rng: random.Random) -> SimpleGraph:
    edges = [e for e in _edge_pairs(n) if rng.random() < p]
    return SimpleGraph(n, edges)
