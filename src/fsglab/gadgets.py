"""Sparse bipartite gadget pairs with a guaranteed label-exchange property.

The pair (G, H) shares the vertex set [m] u {u, v}.  H is a star-plus-fans
label graph; G is a long even cycle with three marked intervals, a ladder of
shortcut vertices, and a thin chord system.  The four variants rho=1..4
differ in which bipartition sides the neighborhoods of u and v occupy.

Two construction modes:

* ``derive_params``: the asymptotic parameter formulas.  These are
  infeasible below very large sizes and then error with the first violated
  constraint.
* ``desk_params``: miniature parameters for structural validation.  The
  requested size acts as a scale knob; the builder reports the actual
  vertex count.  The miniatures pass every structural check of the
  validator except the literal edge budget ``p4_edge_budget``, which the
  interval-deletion property rules out (see
  ``test_c11_gadget_edge_budget_as_stated``).

The interval-deletion audit asks, for each sampled pool subset R, whether
G - {u, v} - R is biconnected.  It answers from one small graph per pair
instead of walking all of G each time: in G - {u, v} the pool vertices and
every vertex of degree other than 2 are terminals, each maximal chain of
other vertices between two terminals keeps one inner vertex (two when it
returns to its own start), and a terminal-free cycle gets one terminal.
The verdict is unchanged because subdividing an edge of a 2-connected graph
keeps it 2-connected, suppressing a degree-2 vertex whose two neighbours
are not adjacent keeps it 2-connected, and a chain with a removed end
leaves a vertex of degree <= 1 in both graphs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional

from .graphs import (
    SimpleGraph,
    articulation_analysis,
    is_theta0,
    is_valid_bipartition,
)


class InfeasibleParamsError(ValueError):
    pass


class PlacementConflictError(ValueError):
    pass


@dataclass(frozen=True)
class GadgetParams:
    rho: int
    ell: int          # fan count (x_i / y_i families)
    k: int            # fan width (z's per y) and ladder pitch
    g: int            # short-cycle threshold; all other cycles are >= g
    requested: int    # the size knob the caller asked for
    extra_pad: int    # additional cycle padding driven by the knob
    mode: str         # "desk" | "derived"

    @property
    def ell_prime(self) -> int:
        return self.ell - 1

    @property
    def k_prime(self) -> int:
        return self.k - 2

    @property
    def special_cycle_length(self) -> int:
        return self.k * (self.ell + 1) - 2


def derive_params(rho: int, m: int) -> GadgetParams:
    """Asymptotic parameter formulas with feasibility checks.

    ``m`` is the base vertex-count knob (the rho in {3, 4} variants carry
    three extra vertices).  Errors report the first violated constraint;
    small m always fails.
    """
    if rho not in (1, 2, 3, 4):
        raise ValueError("rho must be 1..4")
    if m % 8:
        raise InfeasibleParamsError(f"m={m} is not divisible by 8")
    base = math.floor(m ** 0.25 / 4.0)
    eps = (-base) % 8
    ell = base + eps
    if ell == 0:
        raise InfeasibleParamsError(
            f"m={m}: derived fan count is zero (m too small)"
        )
    k = 2 * ell
    g = math.floor(m ** 0.75 / 4.0) + 1
    g += (-g) % 4
    extra = 3 * k if rho in (3, 4) else 0
    s = (m + (3 if rho in (3, 4) else 0)) - 7 - ell * (k + 2) - extra
    if s < 0:
        raise InfeasibleParamsError(f"m={m}: filler count would be {s}")
    if m < 10 * ell * g:
        raise InfeasibleParamsError(
            f"m={m}: chord spacing m/(10*ell)={m // (10 * ell)} is below g={g}"
        )
    params = GadgetParams(rho=rho, ell=ell, k=k, g=g, requested=m,
                          extra_pad=0, mode="derived")
    need = _layout(params)["L"]
    have = m - ell
    if need > have:
        raise InfeasibleParamsError(
            f"m={m}: cycle needs {need} positions but only {have} exist"
        )
    return params


# Desk-scale fan count.  Interval-deletion robustness needs two chords per
# interval interior (a survivor whose cycle neighbors are both deleted must
# keep two never-deleted anchors), one per interval end except s1 (anchored
# by q) and one per outer neighbor: 6*ell - 1 chords, so |E| - |V| =
# 7*ell + 5 (+3 for rho in {3, 4}) while the deletion property alone forces
# at least 7*ell + 2 (+3).  The stated edge budget |V| + 5*ell can therefore
# never hold alongside it (derivation in the acceptance test
# test_c11_gadget_edge_budget_as_stated), and we keep the miniatures small
# instead of chasing it.
_DESK_ELL = 4


def desk_params(rho: int, scale: int) -> GadgetParams:
    """Miniature parameters; ``scale`` (16, 24, 32, ...) controls padding."""
    if rho not in (1, 2, 3, 4):
        raise ValueError("rho must be 1..4")
    if scale % 8 or scale < 16:
        raise InfeasibleParamsError(
            f"desk scale {scale} unsupported: need a multiple of 8, at least 16"
        )
    ell = _DESK_ELL
    k = 2 * ell
    g = k * (ell + 1) - 2 + 1
    g += (-g) % 4
    return GadgetParams(rho=rho, ell=ell, k=k, g=g, requested=scale,
                        extra_pad=(scale - 16) // 8 * g, mode="desk")


@dataclass
class GadgetPair:
    g: SimpleGraph
    h: SimpleGraph
    params: GadgetParams
    roles: dict            # role -> vertex id
    role_of: tuple         # vertex id -> role
    a_g: frozenset
    b_g: frozenset
    a_h: frozenset
    b_h: frozenset
    cycle_length: int
    ladder_feet: list      # t-feet vertex ids in ladder order
    q: int
    chords: list           # (source, target) vertex-id pairs
    tilde_feet: list       # t~ feet ids, empty for rho in {1, 2}
    specials: dict         # name ("X","Y","Z","S","R") -> frozenset of ids

    @property
    def m(self) -> int:
        return self.g.n - 2

    @property
    def u(self) -> int:
        return self.roles["u"]

    @property
    def v(self) -> int:
        return self.roles["v"]

    @property
    def filler_count(self) -> int:
        """Generic cycle vertices; satisfies the population identity
        m = 2*ell + ell*k + fillers + 7 (+3k more z's when rho is 3 or 4)."""
        return sum(1 for r in self.role_of if r.startswith("t"))

    def to_json_dict(self) -> dict:
        return {
            "rho": self.params.rho,
            "m": self.m,
            "requested": self.params.requested,
            "cycle_length": self.cycle_length,
            "vertices": [
                {"id": i, "role": self.role_of[i]} for i in range(self.g.n)
            ],
            "g_edges": [list(e) for e in self.g.edge_list],
            "h_edges": [list(e) for e in self.h.edge_list],
            "a_g": sorted(self.a_g),
            "a_h": sorted(self.a_h),
        }


def _even_up(x: int) -> int:
    return x + (x % 2)


def _layout(params: GadgetParams) -> dict:
    """Explicit cycle positions for every structural role.

    Returns a dict with the interval, ladder, chord, fan and zone positions,
    plus the final cycle length L.  All separations that feed the validator
    ((P1) cycle lengths, (P2) distances) are established here.
    """
    rho, ell, k, g = params.rho, params.ell, params.k, params.g
    ellp, kp = params.ell_prime, params.k_prime
    a = kp if rho in (1, 4) else k - 1
    b = (2 * k - 5) - a
    if b < 0:
        raise InfeasibleParamsError(f"ladder tail distance is negative (k={k})")
    pad = _even_up(g)

    out: dict = {"a": a, "b": b}
    out["s1"], out["r1"] = 0, ellp

    feet = []
    c = a
    for i in range(ell):
        feet.append(c)
        c += g
        feet.append(c)
        if i < ell - 1:
            c += kp
    out["feet"] = feet
    q = feet[-1] + b
    out["q"] = q
    if q <= out["r1"] + 1:
        raise InfeasibleParamsError("ladder does not clear the first interval")

    cursor = q + pad
    tilde = {}
    if rho in (3, 4):
        cursor = _even_up(cursor)
        tilde[6] = cursor
        tilde[5] = cursor + g
        cursor = tilde[5] + kp
    cursor = _even_up(cursor)
    out["s3"], out["r3"] = cursor, cursor + ellp

    # chord target zone inside (r3, s2): one slot for each interval end and
    # outer neighbor, two for each interval interior (see build_gadget; the
    # slot of s1, which q already anchors, stays unused).
    # Targets sit >= g apart so every cycle through two chords clears g.
    n_chords = 6 * ell
    slot_gap = _even_up(g + 2)
    zone = out["r3"] + pad
    out["target_slots"] = [zone + j * slot_gap for j in range(n_chords)]
    cursor = out["target_slots"][-1] + slot_gap + pad

    # fan-root zone (the x family)
    x_parity = 0 if rho == 4 else 1
    cursor += (cursor + x_parity) % 2
    out["x_positions"] = [cursor + j * ell for j in range(ell)]
    cursor = out["x_positions"][-1] + ell + pad

    if rho in (3, 4):
        cursor = _even_up(cursor)
        tilde[4] = cursor
        tilde[3] = cursor + g
        cursor = tilde[3] + kp
    cursor = _even_up(cursor)
    out["s2"], out["r2"] = cursor, cursor + ellp

    # label-fan zone (z family, plus w) inside (r2, s1)
    zcount = ell * k + (3 * (k - 1) if rho in (3, 4) else 0) + 1
    cursor = out["r2"] + pad
    out["z_positions"] = [cursor + j * ell for j in range(zcount)]
    cursor = out["z_positions"][-1] + ell + pad + params.extra_pad

    if rho in (3, 4):
        cursor = _even_up(cursor)
        tilde[2] = cursor
        tilde[1] = cursor + g
        cursor = tilde[1] + kp
    out["tilde"] = tilde
    length = _even_up(cursor)
    out["L"] = length
    return out


def build_gadget(params: GadgetParams,
                 overrides: Optional[dict] = None) -> GadgetPair:
    """Construct the pair deterministically from params.

    ``overrides`` may pin individual roles to explicit cycle positions; a
    collision between two roles raises PlacementConflictError.
    """
    rho, ell, k = params.rho, params.ell, params.k
    lay = _layout(params)
    length = lay["L"]

    place: dict[str, int] = {
        "s1": lay["s1"], "r1": lay["r1"],
        "s2": lay["s2"], "r2": lay["r2"],
        "s3": lay["s3"], "r3": lay["r3"],
    }
    for j, p in enumerate(lay["x_positions"]):
        place[f"x{j + 1}"] = p
    zpos = lay["z_positions"]
    idx = 0
    for i in range(ell):
        for j in range(k):
            place[f"z_{i + 1}_{j + 1}"] = zpos[idx]
            idx += 1
    if rho in (3, 4):
        for i in range(3):
            for j in range(1, k):
                place[f"zt_{i + 1}_{j + 1}"] = zpos[idx]
                idx += 1
    place["w"] = zpos[idx]

    if overrides:
        place.update(overrides)
    taken: dict[int, str] = {}
    for role, p in place.items():
        if p in taken:
            raise PlacementConflictError(
                f"roles {taken[p]} and {role} both placed at position {p}"
            )
        taken[p] = role

    # chord system: every vertex that an interval deletion can strand gets
    # anchors among never-deleted cycle vertices.  Interval ends and outer
    # neighbors keep one safe cycle-side, so one chord; interval interiors
    # can lose both cycle neighbors, so two chords.  s1 is the exception:
    # the never-deleted q shortcut already anchors it, so it gets no chord.
    # Its target slot stays reserved but unused, so every other chord keeps
    # its target.
    sources = []
    for i in (1, 2, 3):
        s, r = place[f"s{i}"], place[f"r{i}"]
        group = [(s - 1) % length] + list(range(s, r + 1)) + [(r + 1) % length]
        sources.append(group)
    interior_rounds = [grp[2:-2] for grp in sources]
    slots = lay["target_slots"]
    chords = []
    slot_idx = 0
    for batch in (sources, interior_rounds):
        width = max(len(grp) for grp in batch) if batch else 0
        for j in range(width):
            for grp in batch:
                if j >= len(grp):
                    continue
                src = grp[j]
                slot = slots[slot_idx]
                slot_idx += 1
                if src == place["s1"]:
                    continue
                tgt = slot if (slot % 2) != (src % 2) else slot + 1
                chords.append((src, tgt))

    # vertex ids: cycle positions 0..L-1, then y's, then z~ heads, then u, v
    n_off = ell + (3 if rho in (3, 4) else 0)
    m = length + n_off
    u, v = m, m + 1
    y_ids = [length + j for j in range(ell)]
    zt_ids = [length + ell + j for j in range(3)] if rho in (3, 4) else []

    role_of = [""] * (m + 2)
    for role, p in place.items():
        role_of[p] = role
    for j, yid in enumerate(y_ids):
        role_of[yid] = f"y{j + 1}"
    for j, zid in enumerate(zt_ids):
        role_of[zid] = f"zt_{j + 1}_1"
    role_of[u], role_of[v] = "u", "v"
    fill = 0
    for p in range(length):
        if not role_of[p]:
            fill += 1
            role_of[p] = f"t{fill}"

    roles = {r: i for i, r in enumerate(role_of)}

    # ---- G ----
    g_edges = [(p, (p + 1) % length) for p in range(length)]
    feet = lay["feet"]
    for j, yid in enumerate(y_ids):
        g_edges.append((yid, feet[2 * j]))
        g_edges.append((yid, feet[2 * j + 1]))
    g_edges.append((place["s1"], lay["q"]))
    g_edges.extend(chords)
    for i in (1, 2, 3):
        g_edges.append((u, place[f"s{i}"]))
        g_edges.append((v, place[f"r{i}"]))
    g_edges.append((u, v))
    tilde_feet = []
    if rho in (3, 4):
        tl = lay["tilde"]
        for i in range(3):
            f1, f2 = tl[2 * i + 1], tl[2 * i + 2]
            g_edges.append((zt_ids[i], f1))
            g_edges.append((zt_ids[i], f2))
            tilde_feet.extend([f1, f2])
    graph_g = SimpleGraph(m + 2, g_edges)

    # G bipartition: even cycle positions with v; odd with u; hangers by feet
    b_side = {v} | {p for p in range(length) if p % 2 == 0}
    a_side = {u} | {p for p in range(length) if p % 2 == 1}
    for j, yid in enumerate(y_ids):
        (a_side if feet[2 * j] % 2 == 0 else b_side).add(yid)
    for i, zid in enumerate(zt_ids):
        (a_side if tilde_feet[2 * i] % 2 == 0 else b_side).add(zid)

    # ---- H ----
    xs = [roles[f"x{j + 1}"] for j in range(ell)]
    ys = list(y_ids)
    h_edges = [(u, x) for x in xs] + [(v, y) for y in ys]
    for i in range(ell):
        for j in range(k):
            h_edges.append((ys[i], roles[f"z_{i + 1}_{j + 1}"]))
    a_h = {u, roles["w"]} | set(ys)
    if rho in (3, 4):
        for i in range(3):
            svert = roles[f"s{i + 1}"]
            a_h.add(svert)
            h_edges.append((svert, zt_ids[i]))
            for j in range(1, k):
                h_edges.append((svert, roles[f"zt_{i + 1}_{j + 1}"]))
    # w fans out to its whole side except v: v's neighbor family must stay
    # exactly the y fan for the neighbor-side conditions
    b_h = set(range(m + 2)) - a_h
    for bvert in sorted(b_h - {v}):
        h_edges.append((roles["w"], bvert))
    graph_h = SimpleGraph(m + 2, h_edges)

    specials = {
        "X": frozenset(xs),
        "Y": frozenset(ys),
        "Z": frozenset(
            roles[r] for r in roles
            if r.startswith("z_") or r.startswith("zt_")
        ),
        "S": frozenset(roles[f"s{i}"] for i in (1, 2, 3)),
        "R": frozenset(roles[f"r{i}"] for i in (1, 2, 3)),
    }
    return GadgetPair(
        g=graph_g, h=graph_h, params=params, roles=roles,
        role_of=tuple(role_of),
        a_g=frozenset(a_side), b_g=frozenset(b_side),
        a_h=frozenset(a_h), b_h=frozenset(b_h),
        cycle_length=length,
        ladder_feet=[f for f in feet], q=lay["q"], chords=chords,
        tilde_feet=tilde_feet, specials=specials,
    )


# ---- validation -------------------------------------------------------------


@dataclass
class GadgetReport:
    checks: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks.values())

    def add(self, name: str, passed: bool, **details):
        self.checks[name] = {"passed": bool(passed), **details}

    def to_json_dict(self) -> dict:
        return {"passed": self.passed, "checks": self.checks, "notes": self.notes}


_NEIGHBOR_ROWS = {
    # rho: (side for N_G(u) and N_G(v) in H, sides for N_H(u), N_H(v) in G)
    1: ("b_h", "b_h", "a_g", "a_g"),
    2: ("b_h", "b_h", "a_g", "b_g"),
    3: ("a_h", "b_h", "a_g", "b_g"),
    4: ("a_h", "b_h", "b_g", "a_g"),
}


def validate_gadget(pair: GadgetPair, p3_samples: int = 200,
                    seed: int = 0) -> GadgetReport:
    """Run the full structural audit on a built pair."""
    rep = GadgetReport()
    params = pair.params
    g, h = pair.g, pair.h

    rep.add("bipartite_g", is_valid_bipartition(g, pair.a_g, pair.b_g))
    rep.add("bipartite_h", is_valid_bipartition(h, pair.a_h, pair.b_h))
    rep.add("uv_sides",
            pair.u in pair.a_g and pair.u in pair.a_h
            and pair.v in pair.b_g and pair.v in pair.b_h)

    sides = {"a_g": pair.a_g, "b_g": pair.b_g, "a_h": pair.a_h, "b_h": pair.b_h}
    row = _NEIGHBOR_ROWS[params.rho]
    ok = (
        set(g.neighbors(pair.u)) - {pair.v} <= sides[row[0]]
        and set(g.neighbors(pair.v)) - {pair.u} <= sides[row[1]]
        and set(h.neighbors(pair.u)) <= sides[row[2]]
        and set(h.neighbors(pair.v)) <= sides[row[3]]
    )
    rep.add("neighbor_conditions", ok, rho=params.rho)

    cycles = _short_cycles(pair, params.g)
    rep.add(
        "p1_unique_short_cycle",
        len(cycles) == 1 and cycles[0] == params.special_cycle_length,
        cycle_lengths=sorted(cycles),
        expected=params.special_cycle_length,
    )

    viol = _special_distance_violations(pair)
    rep.add("p2_special_distances", not viol, violations=viol[:10],
            bound=params.ell_prime)

    fails, tried = _interval_deletion_audit(pair, p3_samples, seed)
    rep.add("p3_interval_deletions", fails == 0, failures=fails, samples=tried)

    budget = g.n + 5 * params.ell
    ok4 = g.m <= budget
    rng = random.Random(seed + 1)
    spot = []
    for _ in range(20):
        keep = {x for x in range(g.n) if rng.random() < 0.5}
        kept_edges = sum(1 for a, b in g.edge_list if a in keep and b in keep)
        spot.append(kept_edges <= len(keep) + 5 * params.ell)
    rep.add("p4_edge_budget", ok4 and all(spot),
            edges=g.m, budget=budget, spot_checks=len(spot))

    expected_h = (
        2 * params.ell + params.ell * params.k + len(pair.b_h) - 1
        + (3 * params.k if params.rho in (3, 4) else 0)
    )
    rep.add("h_edge_count", h.m == expected_h, edges=h.m, expected=expected_h)

    if params.mode == "desk":
        rep.notes.append(
            "desk miniature: requested scale %d realized with %d vertices"
            % (params.requested, g.n)
        )
    return rep


def _short_cycles(pair: GadgetPair, bound: int) -> list[int]:
    """Lengths of all cycles shorter than ``bound`` in G restricted to [m].

    Works on the compressed multigraph whose nodes are the cycle vertices
    that a shortcut touches plus the off-cycle hangers; a shortcut is any
    edge of G - {u, v} that is not a cycle edge, and the cycle arcs between
    consecutive shortcut ends become weighted edges.
    """
    length = pair.cycle_length
    uv = (pair.u, pair.v)
    shortcut_edges = [
        (a, b) for a, b in pair.g.edge_list
        if a not in uv and b not in uv
        and not (b < length and (b - a == 1 or b - a == length - 1))
    ]
    interesting = {p for e in shortcut_edges for p in e if p < length}

    nodes = sorted(interesting)
    node_id = {p: i for i, p in enumerate(nodes)}
    off_ids = {}
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(len(nodes))]
    edges = []

    def add_edge(na: int, nb: int, w: int):
        eid = len(edges)
        edges.append(w)
        adj[na].append((eid, nb, w))
        adj[nb].append((eid, na, w))

    for p, nxt in zip(nodes, nodes[1:] + nodes[:1]):
        w = (nxt - p) % length
        if w == 0:
            w = length
        add_edge(node_id[p], node_id[nxt], w)
    for a, b in shortcut_edges:
        for vert in (a, b):
            if vert not in node_id and vert not in off_ids:
                off_ids[vert] = len(adj)
                adj.append([])
        na = node_id.get(a, off_ids.get(a))
        nb = node_id.get(b, off_ids.get(b))
        add_edge(na, nb, 1)

    found: dict[frozenset, int] = {}
    nnode = len(adj)
    visited = [False] * nnode

    def dfs(root: int, node: int, weight: int, used: list[int]):
        for eid, other, w in adj[node]:
            if edges[eid] is None or eid in used:
                continue
            nw = weight + w
            if nw >= bound:
                continue
            if other == root and len(used) >= 1:
                found.setdefault(frozenset(used + [eid]), nw)
                continue
            if other <= root or visited[other]:
                continue
            visited[other] = True
            used.append(eid)
            dfs(root, other, nw, used)
            used.pop()
            visited[other] = False

    import sys
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10000)
    try:
        for root in range(nnode):
            visited[root] = True
            dfs(root, root, 0, [])
            visited[root] = False
    finally:
        sys.setrecursionlimit(old_limit)
    return sorted(found.values())


def _special_distance_violations(pair: GadgetPair) -> list[tuple[int, int, int]]:
    """Pairs of special vertices closer than ell-1 in G restricted to [m]."""
    bound = pair.params.ell_prime
    special = set()
    for group in pair.specials.values():
        special |= group
    uv = {pair.u, pair.v}
    adj = [
        [w for w in pair.g.neighbors(x) if w not in uv]
        for x in range(pair.g.n)
    ]
    out = []
    for s in sorted(special):
        dist = {s: 0}
        frontier = [s]
        d = 0
        while frontier and d < bound - 1:
            d += 1
            nxt = []
            for cur in frontier:
                for w in adj[cur]:
                    if w not in dist:
                        dist[w] = d
                        nxt.append(w)
                        if w in special and w > s:
                            out.append((s, w, d))
            frontier = nxt
    return out


def removable_set(pair: GadgetPair) -> list[int]:
    """The vertex pool whose arbitrary removal must keep G star-solvable."""
    out = [pair.u, pair.v]
    out.extend(pair.roles[f"y{j + 1}"] for j in range(pair.params.ell))
    for i in (1, 2, 3):
        s, r = pair.roles[f"s{i}"], pair.roles[f"r{i}"]
        out.extend(range(s, r + 1))
    for i in range(len(pair.tilde_feet) // 2):
        out.append(pair.roles[f"zt_{i + 1}_1"])
    return out


def _audit_cases(pair: GadgetPair, samples: int, seed: int) -> list[tuple]:
    """The removal sets the audit tries: u and v alone, u and v with the
    whole pool, then u and v with random halves of the pool."""
    pool = [x for x in removable_set(pair) if x not in (pair.u, pair.v)]
    rng = random.Random(seed)
    base = (pair.u, pair.v)
    cases = [base, base + tuple(pool)]
    while len(cases) < samples:
        cases.append(base + tuple(x for x in pool if rng.random() < 0.5))
    return cases[:samples]


def _interval_deletion_audit(pair: GadgetPair, samples: int, seed: int):
    """Sample removal sets and check star-swap regularity of the rest.

    Every sampled set contains u and v: the exchange argument only ever
    removes position sets holding the u/v/y labels, and those always cover
    the vertices u and v themselves.  (Without that, stranding u by deleting
    its whole fixed neighborhood {s1, s2, s3, v} would be possible, and no
    construction could pass.)

    Biconnectivity is read from the small graph of ``_SuppressedGraph``,
    not from all of G.  Its terminals are the pool and every vertex whose
    degree in G - {u, v} is not 2; each maximal chain of other vertices
    between two terminals keeps one inner vertex, or two when it returns to
    its own start, and a terminal-free cycle gets one terminal.  The verdict
    is the same:
    - subdividing an edge of a 2-connected graph keeps it 2-connected;
    - suppressing a degree-2 vertex whose two neighbours are not adjacent
      also keeps it 2-connected;
    - a chain with a removed end leaves a vertex of degree <= 1 in both
      graphs, so neither graph is biconnected.
    The cycle and theta0 tests still count on G: suppression keeps
    |E| - |V| but not |V|.
    """
    fixed = {pair.u, pair.v}
    small = _SuppressedGraph(pair.g, fixed, removable_set(pair))
    cases = _audit_cases(pair, samples, seed)
    fails = 0
    for removed in cases:
        removed = set(removed)
        if not (small.biconnected(removed - fixed)
                and _neither_cycle_nor_theta0(pair.g, removed)):
            fails += 1
    return fails, len(cases)


class _SuppressedGraph:
    """G - ``fixed`` with its degree-2 chains shrunk, answering whether
    G - ``fixed`` - R is biconnected for any R inside ``pool``.

    The terminals are the pool vertices outside ``fixed`` and every vertex
    whose degree in G - ``fixed`` is not 2.  Each maximal chain of other
    vertices between two terminals keeps its first inner vertex, or its
    first two when it returns to its own start (one would close a double
    edge).  A component that is a cycle without a terminal gets one of its
    vertices made a terminal.
    """

    def __init__(self, g: SimpleGraph, fixed, pool):
        fixed = set(fixed)
        pool = [x for x in pool if x not in fixed]
        nbrs = [[w for w in g.neighbors(x) if w not in fixed] for x in range(g.n)]
        terminal = [x not in fixed and len(nbrs[x]) != 2 for x in range(g.n)]
        for x in pool:
            terminal[x] = True
        seen = list(terminal)
        edges = []

        def walk(t: int):
            for w in nbrs[t]:
                if terminal[w]:
                    if t < w:
                        edges.append((t, w))
                    continue
                if seen[w]:
                    continue  # the chain was walked from its other end
                inner, prev, cur = [], t, w
                while not terminal[cur]:
                    seen[cur] = True
                    inner.append(cur)
                    a, b = nbrs[cur]
                    prev, cur = cur, (b if a == prev else a)
                path = [t] + inner[:1 if cur != t else 2] + [cur]
                edges.extend(zip(path, path[1:]))

        for t in range(g.n):
            if terminal[t]:
                walk(t)
        for x in range(g.n):
            if not seen[x] and x not in fixed:
                terminal[x] = seen[x] = True
                walk(x)
        ids = {x: i for i, x in enumerate(x for x in range(g.n) if terminal[x])}
        for e in edges:
            for x in e:
                ids.setdefault(x, len(ids))
        self.h = SimpleGraph(len(ids), [(ids[a], ids[b]) for a, b in edges])
        self._pool_id = {x: ids[x] for x in pool}

    def biconnected(self, removed) -> bool:
        """Whether G - ``fixed`` - ``removed`` is biconnected; ``removed``
        must lie inside the pool."""
        try:
            ids = [self._pool_id[x] for x in removed]
        except KeyError as exc:
            raise ValueError(f"vertex {exc.args[0]} is not in the pool") from None
        return articulation_analysis(self.h, ids)[1]


def _wilson_regular_after_removal(g: SimpleGraph, removed: set) -> bool:
    """Star-swap regularity of G minus ``removed``: connected, no cut
    vertex, >= 3 vertices, not a cycle, not the exceptional 7-vertex graph.
    (The gadget is bipartite, so its star puzzle splits into exactly the
    two parity classes.)"""
    return (articulation_analysis(g, removed)[1]
            and _neither_cycle_nor_theta0(g, removed))


def _neither_cycle_nor_theta0(g: SimpleGraph, removed: set) -> bool:
    """For a biconnected G minus ``removed``: that it is neither a cycle
    nor the exceptional 7-vertex graph."""
    kept = g.n - len(removed)
    # count the surviving edges from the removed side: each edge inside
    # ``removed`` is subtracted twice by the degree sum and seen twice here
    inside = sum(1 for r in removed for w in g.neighbors(r) if w in removed)
    edges = g.m - sum(g.degree(r) for r in removed) + inside // 2
    # a biconnected graph with as many edges as vertices is a cycle
    if edges == kept:
        return False
    if kept == 7 and edges == 8:
        sub, _ = g.subgraph(set(range(g.n)) - removed)
        return not is_theta0(sub)
    return True


# ---- respecting embeddings -----------------------------------------------------


class EmbeddingBudgetError(RuntimeError):
    pass


def find_respecting_embeddings(
    g: SimpleGraph, h: SimpleGraph,
    x: SimpleGraph, y: SimpleGraph,
    a, u0: int, v0: int,
    u: Optional[int] = None, v: Optional[int] = None,
    budget: Optional[int] = None,
):
    """Injective adjacency-preserving maps psi_g: V(g)->V(x), psi_h: V(h)->V(y)
    with a(psi_g(w)) = psi_h(w) for all w, psi_h(u) = u0, psi_h(v) = v0.

    Exhaustive backtracking over psi_h (psi_g follows through the
    arrangement); None means the search space was exhausted.
    """
    if g.n != h.n:
        raise ValueError("gadget graphs must share a vertex set")
    if u is None:
        u = g.n - 2
    if v is None:
        v = g.n - 1
    n = g.n
    a = tuple(a)
    inv = [0] * len(a)
    for p, lab in enumerate(a):
        inv[lab] = p
    psi_h = [-1] * n
    used = [False] * y.n
    nodes = 0

    order = [u, v] + sorted(
        (w for w in range(n) if w not in (u, v)),
        key=lambda w: -(g.degree(w) + h.degree(w)),
    )

    def ok(w: int, img: int) -> bool:
        # adjacency of h must be preserved by psi_h, of g by sigma^-1 . psi_h
        for w2 in range(n):
            i2 = psi_h[w2]
            if i2 == -1 or w2 == w:
                continue
            if h.has_edge(w, w2) and not y.has_edge(img, i2):
                return False
            if g.has_edge(w, w2) and not x.has_edge(inv[img], inv[i2]):
                return False
        return True

    def place(i: int):
        nonlocal nodes
        if i == n:
            return True
        w = order[i]
        candidates = (u0,) if w == u else (v0,) if w == v else range(y.n)
        for img in candidates:
            if used[img]:
                continue
            nodes += 1
            if budget is not None and nodes > budget:
                raise EmbeddingBudgetError(f"embedding search hit {nodes} nodes")
            if not ok(w, img):
                continue
            psi_h[w] = img
            used[img] = True
            if place(i + 1):
                return True
            psi_h[w] = -1
            used[img] = False
        return False

    if not place(0):
        return None
    psi_g = tuple(inv[psi_h[w]] for w in range(n))
    return psi_g, tuple(psi_h)
