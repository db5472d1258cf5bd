"""Enumeration of small graph families and multiplicity lists for sweeps.

Graphs are generated by edge-set enumeration with isomorphism rejection;
a cheap iterated-degree coloring prunes the permutation search, which is
plenty for the vertex counts used here (n <= 6, occasionally 7).
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Sequence

from .graphs import MultiplicityGraph, SimpleGraph, compositions


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


from functools import lru_cache


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


def mult_lists(n_vertices: int, total_max: int,
               total_min: int | None = None) -> list[tuple[int, ...]]:
    """All positive multiplicity lists of the given length with bounded total."""
    if total_min is None:
        total_min = n_vertices
    out = []
    for total in range(max(total_min, n_vertices), total_max + 1):
        out.extend(_compositions(total, n_vertices))
    return out


def _compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """Compositions of ``total`` into ``parts`` positive parts, in
    lexicographic order."""
    if total < parts:
        return []
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
    from .graphs import star_graph

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
