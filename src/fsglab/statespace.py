"""Friends-and-strangers state spaces over arrangements.

Three variants share one interface, served by two space classes:

* ``fsm``  -- ``FSmSpace``: positions simple, labels carry multiplicities;
  arrangements are label vectors with prescribed label counts.
* ``fs``   -- ``FSmSpace`` with every label multiplicity 1: both graphs
  simple, and arrangements are label bijections.
* ``fsmm`` -- ``FSmmSpace``: both sides carry multiplicities; arrangements
  are count matrices (rows = labels, columns = positions).

Arrangements are plain tuples.  Each also has an int code, its entries
read as one base-256 number (``code``, and its inverse ``decode``): an
fs/fsm arrangement's labels with position 0 most significant,
``int.from_bytes(bytes(a), "big")``; an fsmm arrangement's cells row by
row, ``width`` bytes a cell, so that a cell above 255 neither raises nor
collides.  A ``_RankIndex`` maps each code to its enumeration rank from
small tables, one keyed by the codes' leading digits and one per room by
the rest, and stores no code of a whole arrangement: an FS(K4,5, C9)
build peaks at about 10 B per state, against 148 B with a dict keyed by
every code and 222 B with tuple keys.  Its iteration is the one enumerator: it
yields the codes in lexicographic order, and a space's ``enumerate``
decodes them.

Two traversals answer every reachability question, and nothing else here
walks a state space:

* ``reachable`` -- breadth-first search from one arrangement, for queries
  about a single component (exchangeability, component invariants).  It
  expands each arrangement with ``fresh_neighbors``, which returns the
  neighbours not yet seen and marks them seen.  The budget still counts one
  new arrangement at a time: when an expansion takes the count past it,
  only the new arrangements up to the first one past it are yielded before
  ``BudgetExceededError``.
* ``build_components`` -- one union-find pass over the whole space, for the
  full component partition.

``is_exchangeable`` answers from the partition where the BFS could not
raise: on an fs/fsm space of at most ``_SLOT_STATES`` = 8! arrangements,
with no budget or one that covers the space, it compares the component ids
of the start and the target in the ``build_components`` report of the
space, kept for the last space answered so.  Every other query runs
``reachable``.  One build of FS(C8, complement of P8), 40,320 arrangements
in 8 components, costs about as much as the few BFS walks it replaces, and
the kept report holds about 18 B per arrangement.

Every move has an inverse, so the links of a space are undirected.  A
*forward* move is, in fs/fsm, a swap across the X-edge (p, q), p < q, that
moves the smaller label from p to q; in fsmm, for an X-edge (u, v) and a
Y-edge (y1, y2), a move of a copy of u from y1 to y2 against a copy of v
from y2 to y1.  The reverse of a forward move is not forward, and no two
moves from one arrangement reach the same neighbour, so every undirected
link is exactly one forward move, from one of its two ends.
``build_components`` makes forward moves only, so it sees each link once
and its ``edge_count`` is the number of forward moves.

``build_components`` computes no arrangement's moves: it unions its
links block by block (``_union_blocks``), from rank pairs that depend only
on the step layout of the space's codes (``_Steps``).  A step is one
fs/fsm position (a byte, its label) or one fsmm row (``ny * width``
bytes); in both, step p holds copies on some columns (its label, or the
Y-vertices with a copy of row p), and the forward move across the X-edge
(p, q) and the Y-edge (s, t) takes a copy from s to t on step p and one
from t to s on step q, adding a constant to the code.  A block is the
arrangements that share their first k steps, a prefix of the rank index;
its ranks are contiguous, ordered as its suffixes are among those that
fill the room (label counts, or column room) the prefix leaves.  A
room's ``_StateTable`` holds, per step pair, the local rank pairs of
every such move keyed by the two columns.  A move is a prefix link
(q < k: one test a block, then rank by rank to the block of the moved
prefix, whose room is the same), a suffix link (k <= p: the room's pairs,
the same in each of its blocks) or a cross link (p < k <= q: pairs a room
makes once per (q, s, t) into the room the moved prefix leaves).  Above
one block, a first pass contracts each room's suffix links to the local
root of each suffix, drops the room's table and writes the parents of
each of the room's blocks straight from those roots, so no block unions
a suffix link; a prefix link then unions only the roots and a cross link
each pair of roots once.  The split is the index's k.  An fs/fsm space
of at most ``_TABLE_STATES`` = 7! arrangements is one block, k = 0,
whose room is the cached table of its label counts: every space with
those counts shares it, relabelled inputs included, and the report keeps
its index.

Moves of single arrangements, for the BFS, are generated Python, one
source per X shape (fsmm: X and Y shape), cached and formatted from
integers only, with no loop over the edges: ``fresh_neighbors(a, seen)``
unpacks the tuple once, tests each move on named entries and builds each
neighbour as a tuple display; ``neighbors(a)`` is
``fresh_neighbors(a, set())``.  A space generates it on its first use,
not when it is built, so a build compiles nothing; compiling costs about
1 ms a shape.

The union-find is ``graphs._union``, which also glues the lift's
components in ``quotient_audit``.  Its parents, and then the component
ids, are an entry a state in enumeration order, read through the index,
which no call writes: up to ``_LIST_STATES`` = 8! arrangements a slice of
one shared list of rank ints, whose reads allocate nothing, and above it
an ``array('i')``, 4 B a state (``array('l')`` past 2**31 states).  A
report keeps its index and ids, about 8 B per state for FS(K4,5, C9), and
reads an arrangement as ``ids[index[code(a)]]``; its iteration decodes
its index.  A cached table outlives its report; at the 7! bound it holds
0.1 MB, or 0.6 MB with the swaps of all 21 position pairs.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from array import array
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass, field
from operator import add
from typing import Iterator, NamedTuple, Optional, Sequence

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
    _union,
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


# -- moves --------------------------------------------------------------------


class _Space:
    """What the two space classes share: enumeration through the rank
    index, and moves generated on first use."""

    def enumerate(self) -> Iterator:
        return map(self.decode, self.index())

    @functools.cached_property
    def fresh_neighbors(self):
        """``fresh_neighbors(a, seen)``: the arrangements one move from
        ``a`` that are not in ``seen``, added to it."""
        return self._moves()

    def neighbors(self, a) -> list:
        """Every arrangement one move from ``a``: no two moves reach the
        same one, so none is dropped as seen."""
        return self.fresh_neighbors(a, set())


def _tuple(names: Sequence[str]) -> str:
    return "(" + "".join(name + ", " for name in names) + ")"


def _compile_move(unpack: Sequence[str], moves: Sequence[tuple[str, str]]):
    """Compile ``bind(m)``, which returns ``fresh_neighbors(a, seen)``.

    ``unpack`` are statements that name the parts of the tuple ``a``.  Each
    move is (test, new arrangement), expressions over those names and
    ``m``.  ``fresh_neighbors`` makes every move whose test holds and
    returns the new arrangements not in ``seen``, adding them to it."""
    src = ["def bind(m):", " def fresh_neighbors(a, seen):"]
    src += ["  " + line for line in unpack] if moves else []
    src.append("  out = []")
    for test, b in moves:
        src += [f"  if {test}:", f"   b = {b}", "   if b not in seen:",
                "    seen.add(b)", "    out.append(b)"]
    src += ["  return out", " return fresh_neighbors"]
    namespace: dict = {}
    exec(compile("\n".join(src), "<moves>", "exec"), namespace)
    return namespace["bind"]


@functools.lru_cache(maxsize=128)
def _fs_moves(n: int, edges: tuple[tuple[int, int], ...]):
    """The moves of every fs/fsm space on n positions with X-edges ``edges``:
    a swap across (p, q) when ``m[s][t]`` is 1 for the labels s = a[p] and
    t = a[q].  A position at the lower end of several X-edges reads its
    label's row once."""
    names = [f"a{i:d}" for i in range(n)]
    lower = [p for p, _ in edges]
    rows = {p: f"m{p:d}" for p in lower if lower.count(p) > 1}
    unpack = [_tuple(names) + " = a"]
    unpack += [f"{row} = m[a{p:d}]" for p, row in rows.items()]
    moves = []
    for p, q in edges:
        b = list(names)
        b[p], b[q] = b[q], b[p]
        moves.append((f"{rows.get(p, f'm[a{p:d}]')}[a{q:d}]", _tuple(b)))
    return _compile_move(unpack, moves)


@functools.lru_cache(maxsize=128)
def _fsmm_moves(nx: int, x_edges: tuple[tuple[int, int], ...], ny: int,
                y_edges: tuple[tuple[int, int], ...]):
    """The moves of every fsmm space with these X and Y base graphs: for an
    X-edge (u, v) and a Y-edge (y1, y2), a copy of u moves from y1 to y2
    against a copy of v back, then the reverse.  Entry ``c{u}_{y}`` of row
    ``r{u}`` counts the copies of u on y."""
    rows = [f"r{u:d}" for u in range(nx)]
    cells = [[f"c{u:d}_{k:d}" for k in range(ny)] for u in range(nx)]
    unpack = [_tuple(rows) + " = a"] + [
        _tuple(cells[u]) + f" = r{u:d}"
        for u in sorted({u for e in x_edges for u in e})]

    def shift(u, src, dst):
        row = list(cells[u])
        row[src] += " - 1"
        row[dst] += " + 1"
        return _tuple(row)

    moves = []
    for u, v in x_edges:
        for y1, y2 in y_edges:
            for src, dst in ((y1, y2), (y2, y1)):
                b = list(rows)
                b[u] = shift(u, src, dst)
                b[v] = shift(v, dst, src)
                moves.append((f"{cells[u][src]} and {cells[v][dst]}", _tuple(b)))
    return _compile_move(unpack, moves)


# -- spaces -------------------------------------------------------------------


class FSmSpace(_Space):
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

    def count(self) -> int:
        c = math.factorial(self.y.total)
        for k in self.y.mult:
            c //= math.factorial(k)
        return c

    def code(self, a: Sequence[int]) -> int:
        """``a`` read as a base-256 number, position 0 most significant.
        Its labels are bytes: a space with 256 labels or more has at least
        256! arrangements, so none is ever indexed."""
        if len(a) != self.x.n:
            raise ValueError(f"arrangement {a!r} has {len(a)} positions")
        return int.from_bytes(bytes(a), "big")

    def decode(self, c: int) -> tuple[int, ...]:
        return tuple(c.to_bytes(self.x.n, "big"))

    def largest_entry(self) -> int:
        return self.y.base.n - 1

    def index(self) -> "_RankIndex":
        return _label_index(self.y.mult)

    def is_valid(self, a: Sequence[int]) -> bool:
        counts = [0] * self.y.base.n
        for lab in a:
            if not isinstance(lab, int) or not 0 <= lab < self.y.base.n:
                return False
            counts[lab] += 1
        return tuple(counts) == self.y.mult

    def steps(self) -> "_Steps":
        """A step of the rank index places one position's label."""
        return _label_steps(self.y.base.n)

    def _moves(self):
        # row s holds a 1 at each label t adjacent to s in Y
        y = self.y.base
        m = [[int((s, t) in y.edges or (t, s) in y.edges) for t in range(y.n)]
             for s in range(y.n)]
        return _fs_moves(self.x.n, self.x.edge_list)(m)


class FSmmSpace(_Space):
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
        # bytes a cell: a cell is at most its column's multiplicity
        self.width = (max(y.mult, default=0).bit_length() + 7) // 8 or 1

    def count(self) -> int:
        return contingency_count(self.x.mult, self.y.mult)

    def code(self, a) -> int:
        """The cells of ``a`` row by row, read as a number in base
        256**width, the first cell most significant."""
        if len(a) != self.x.base.n or any(len(row) != self.y.base.n for row in a):
            raise ValueError(f"arrangement {a!r} is not {self.x.base.n} rows "
                             f"of {self.y.base.n} cells")
        return int.from_bytes(b"".join(map(self._row_bytes, a)), "big")

    def decode(self, c: int) -> tuple[tuple[int, ...], ...]:
        nx, ny, w = self.x.base.n, self.y.base.n, self.width
        cells = c.to_bytes(nx * ny * w, "big")
        if w > 1:
            cells = [int.from_bytes(cells[k:k + w], "big")
                     for k in range(0, len(cells), w)]
        return tuple(tuple(cells[u * ny:(u + 1) * ny]) for u in range(nx))

    def largest_entry(self) -> int:
        """A cell is at most its row's and its column's multiplicity, and
        some arrangement puts min(r, c) in any one cell."""
        return min(max(self.x.mult, default=0), max(self.y.mult, default=0))

    def index(self) -> "_RankIndex":
        """A step fills one row under the column room the earlier rows
        left."""
        rows = self.x.mult

        def choices(i, room):
            return [(int.from_bytes(self._row_bytes(row), "big"),
                     tuple(r - v for r, v in zip(room, row)))
                    for row in compositions(rows[i], room)]

        return _RankIndex(len(rows), self.steps().bits, self.y.mult, choices)

    def _row_bytes(self, row: Sequence[int]) -> bytes:
        w = self.width
        if w == 1:
            return bytes(row)
        return b"".join(int.to_bytes(cell, w, "big") for cell in row)

    def steps(self) -> "_Steps":
        """A step of the rank index fills one row."""
        return _row_steps(self.y.base.n, self.width)

    def _moves(self):
        x, y = self.x.base, self.y.base
        return _fsmm_moves(x.n, x.edge_list, y.n, y.edge_list)(None)


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


# -- rank index ---------------------------------------------------------------


class _RankIndex(Mapping):
    """Code -> enumeration rank of every arrangement of a space, from two
    small tables rather than an entry an arrangement.

    An arrangement is made in ``steps`` steps, each appending ``bits`` bits
    to its code: an fs/fsm step places one position's label, an fsmm step
    fills one row.  A step's options depend only on the room the earlier
    steps left (label counts, or column room), and ``choices(i, room)``
    lists those of step i in lexicographic order as (code part, room
    left).  Enumeration is lexicographic, so the arrangements that share
    their first ``k`` steps, a prefix, are contiguous and ordered as their
    suffixes are among all suffixes that fill the same room.  So

        rank(c) = prefix[c >> shift] + fits[c >> shift][c & mask]

    where ``prefix`` maps each prefix to the rank of its first arrangement,
    and ``fits`` to the suffix table of the room it leaves, which ranks each
    suffix among those filling that room.  Every prefix that leaves a room
    shares its table.  ``k`` is the split with the fewest entries in the
    prefixes and the tables: 9 positions with 9 labels take 3,024 prefixes
    and 15,120 suffixes for 362,880 arrangements.

    A prefix and a suffix can each be valid and not fit together (fs
    (0, 1 | 0, 1)): then the suffix is not in the table of the prefix's
    room, and a lookup raises ``KeyError``, as for any code that is not an
    arrangement's.  ``build_components`` walks the index block by block, a
    prefix and its ``fits`` table at a time.  Iteration yields the codes
    in rank order."""

    __slots__ = ("shift", "mask", "prefix", "fits", "_len")

    def __init__(self, steps: int, bits: int, room: tuple, choices):
        memo: dict = {}

        def options(i, r):
            opts = memo.get((i, r))
            if opts is None:
                opts = memo[i, r] = choices(i, r)
            return opts

        # levels[i]: each room that i steps leave, with the number of
        # prefixes that leave it
        levels = [{room: 1}]
        for i in range(steps):
            level: dict = {}
            for r, count in levels[i].items():
                for _, left in options(i, r):
                    level[left] = level.get(left, 0) + count
            levels.append(level)
        # fill[i][r]: the number of suffixes from step i on that fill room r
        fill = [{}] * steps + [dict.fromkeys(levels[steps], 1)]
        for i in reversed(range(steps)):
            fill[i] = {r: sum(fill[i + 1][left] for _, left in options(i, r))
                       for r in levels[i]}
        k = min(range(steps + 1), key=lambda k: sum(levels[k].values())
                + sum(fill[k].values()))

        def walk(i, stop, r, acc):
            # (code, room left) of every way through steps i..stop-1
            if i == stop:
                yield acc, r
                return
            for part, left in options(i, r):
                yield from walk(i + 1, stop, left, acc << bits | part)

        tables = {r: dict(zip((c for c, _ in walk(k, steps, r, 0)),
                              itertools.count()))
                  for r in levels[k]}
        self.prefix: dict = {}
        self.fits: dict = {}
        rank = 0
        for c, r in walk(0, k, room, 0):
            self.prefix[c] = rank
            self.fits[c] = tables[r]
            rank += fill[k][r]
        self._len = rank
        self.shift = bits * (steps - k)
        self.mask = (1 << self.shift) - 1

    def __getitem__(self, code: int) -> int:
        high = code >> self.shift
        return self.prefix[high] + self.fits[high][code & self.mask]

    def __iter__(self) -> Iterator[int]:
        shift = self.shift
        for c, table in self.fits.items():
            yield from map((c << shift).__add__, table)

    def __len__(self) -> int:
        return self._len


def _label_index(mult: tuple[int, ...]) -> _RankIndex:
    """The index of the fs/fsm arrangements with label counts ``mult``: a
    step places one position's label, from the labels still unplaced."""

    def choices(i, room):
        return [(lab, room[:lab] + (k - 1,) + room[lab + 1:])
                for lab, k in enumerate(room) if k]

    return _RankIndex(sum(mult), 8, tuple(mult), choices)


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


def _id_members(component_id: "_ComponentIds") -> Iterator[str]:
    """The ``"key": id`` members of the ``component_id`` object in key
    order, joined by ", " in pieces of 4,096 members.

    Keys of one space have their separators in the same places, so while
    every entry has one digit key order is enumeration order, and the
    members are formatted as they come; otherwise they are sorted (a quote
    sorts before any key character, so members sort as their keys do)."""
    members = (f'"{_arrangement_key(a)}": {i}' for a, i in component_id.items())
    if component_id.space.largest_entry() > 9:
        members = iter(sorted(members))
    sep = ""
    while piece := list(itertools.islice(members, 4096)):
        yield sep + ", ".join(piece)
        sep = ", "


class _ComponentIds(Mapping):
    """Arrangement -> component id, read as ``ids[index[space.code(a)]]``.

    ``index`` (a ``_RankIndex``) ranks the codes of the arrangements in
    enumeration order and may be shared with other reports, so nothing
    writes to it; ``ids`` (a list on spaces of at most ``_LIST_STATES``,
    otherwise an ``array('i')``, 4 B an arrangement) holds the component
    ids in that order.  Iteration decodes the index."""

    __slots__ = ("space", "index", "ids")

    def __init__(self, space, index: _RankIndex, ids: Sequence[int]):
        self.space = space
        self.index = index
        self.ids = ids

    def __getitem__(self, a) -> int:
        try:
            code = self.space.code(a)
        except (TypeError, ValueError, OverflowError):
            raise KeyError(a) from None
        return self.ids[self.index[code]]

    def __iter__(self):
        return map(self.space.decode, self.index)

    def __len__(self) -> int:
        return len(self.ids)

    def items(self):
        return _IdItems(self)

    def coded(self) -> Iterator[tuple[int, int]]:
        """(code, component id) of every arrangement, in enumeration order."""
        return zip(self.index, self.ids)


class _IdItems(ItemsView):
    """Pairs each enumerated arrangement with the next id, looking up
    nothing."""

    __slots__ = ()

    def __iter__(self):
        return zip(self._mapping, self._mapping.ids)


# fs/fsm spaces with at most this many arrangements (7!) are one block, whose
# room is the shared _StateTable of their label counts
_TABLE_STATES = 5040


class _Steps(NamedTuple):
    """The steps of a space's codes, and what a move does to one.

    A step is ``bits`` bits of a code: one position's label (fs/fsm) or one
    row (fsmm).  ``held[v]`` lists in increasing order the columns on which
    step value v holds a copy: the label v itself, or the Y-vertices whose
    cell in row v is not 0.  A copy that moves from column s to column t
    adds ``weight[t] - weight[s]`` to its step's value."""

    bits: int
    held: Mapping
    weight: Sequence[int]


@functools.lru_cache(maxsize=128)
def _label_steps(labels: int) -> _Steps:
    return _Steps(8, [(s,) for s in range(labels)], range(labels))


class _RowCells(dict):
    """Row code -> the columns of its cells that are not 0, filled in as
    rows are read."""

    __slots__ = ("ny", "width")

    def __init__(self, ny: int, width: int):
        super().__init__()
        self.ny = ny
        self.width = width

    def __missing__(self, row: int) -> tuple[int, ...]:
        w = self.width
        cells = row.to_bytes(self.ny * w, "big")
        held = self[row] = tuple(y for y in range(self.ny)
                                 if any(cells[y * w:(y + 1) * w]))
        return held


@functools.lru_cache(maxsize=128)
def _row_steps(ny: int, width: int) -> _Steps:
    return _Steps(8 * width * ny, _RowCells(ny, width),
                  [256 ** (width * (ny - 1 - y)) for y in range(ny)])


class _StateTable:
    """The arrangements that fill a room, and their moves.

    ``index`` maps the code of each arrangement of ``n`` steps (laid out as
    ``steps``), a whole one or the suffix of a prefix block, to its rank
    among them, and iterates the codes in rank order.  ``swaps(p, q)`` maps
    each column pair (s, t), s < t, to a flat array of rank pairs (i, j):
    step p of arrangement i holds a copy on s and step q one on t, and j is
    i with the first copy moved to t and the second to s.  For an X-edge
    (p, q), p < q, and a Y-edge (s, t) these are forward moves.  Nothing
    here depends on X or Y.
    """

    __slots__ = ("index", "_n", "_steps", "_swaps")

    def __init__(self, index: Mapping, n: int, steps: _Steps):
        self.index = index
        self._n = n
        self._steps = steps
        self._swaps: dict = {}

    def swaps(self, p: int, q: int) -> dict:
        by_columns = self._swaps.get((p, q))
        if by_columns is None:
            by_columns = self._swaps[p, q] = {}
            index = self.index
            bits, held, weight = self._steps
            high = bits * (self._n - 1 - p)
            low = bits * (self._n - 1 - q)
            mask = (1 << bits) - 1
            move = (1 << high) - (1 << low)
            for i, c in enumerate(index):
                for s in held[c >> high & mask]:
                    for t in held[c >> low & mask]:
                        if s < t:
                            pairs = by_columns.get((s, t))
                            if pairs is None:
                                pairs = by_columns[s, t] = array("i")
                            pairs.append(i)
                            pairs.append(index[c + (weight[t] - weight[s]) * move])
        return by_columns


# one table per label-count vector of at most 7! arrangements, for as many
# vectors as a run cycles through: the benchmark's oracle-many workload uses
# 42, and its predict workload 47 to 53 a repetition and 63 over 12.  The
# rooms of larger spaces, and of fsmm spaces, are not cached
@functools.lru_cache(maxsize=128)
def _state_table(mult: tuple[int, ...]) -> _StateTable:
    """The table of every fs/fsm space with label counts ``mult``, shared
    read-only by all of them."""
    return _StateTable(_label_index(mult), sum(mult), _label_steps(len(mult)))


def _local_pairs(table: _StateTable, edges, y_edges) -> array:
    """The local rank pairs of the moves in ``table`` across the step pairs
    ``edges`` and the Y-edges ``y_edges``, flat."""
    local = array("i")
    for p, q in edges:
        swaps = table.swaps(p, q)
        for st in y_edges:
            local.extend(swaps.get(st, ()))
    return local


def _union_blocks(space, parent, index: _RankIndex,
                  table: Optional[_StateTable] = None) -> int:
    """Unions the links of a space in ``parent`` block by block and returns
    their number.

    A block is the arrangements whose first k steps (``space.steps()``) are
    one prefix of ``index``, coded c; they hold the ranks from
    ``index.prefix[c]`` on, in the order of their suffixes in
    ``index.fits[c]``, the suffix table of the room the prefix leaves.  A
    space given its ``table`` is one block, k = 0.  A forward move across
    the X-edge (p, q), p < q, and the Y-edge (s, t), s < t, moves a copy on
    s from step p to t and a copy on t from step q to s.  It is a

    * prefix link (q < k): the room is unchanged, so the block links rank
      by rank to the block of the prefix with the move made, a constant
      away in code;
    * suffix link (k <= p): one of the room's moves in ``_StateTable``, the
      same local rank pairs in each of its blocks;
    * cross link (p < k <= q): each suffix with a copy on t at q links to
      the block of the prefix with its copy on s at p moved to t, at the
      rank there of the suffix with the copy moved to s.  A room makes
      these pairs once per (q, s, t), for all its blocks.

    With k > 0 a first pass unions each room's suffix links in a list of
    its own, keeps only each suffix's local root and drops the room's
    table.  It writes each of the room's blocks as those roots, b + root
    of j at rank b + j, before any other link is unioned.  A prefix link
    then unions only the roots, and a cross link each pair of local roots
    once.
    """
    bits, held, weight = steps = space.steps()
    x = space.x.base if isinstance(space, FSmmSpace) else space.x
    y = space.y.base
    # steps of 0 bits (no columns) make one arrangement
    k = x.n - index.shift // bits if bits and table is None else 0
    suffix_edges = [(p - k, q - k) for p, q in x.edge_list if k <= p]
    if not k:
        # the many small spaces are one block at rank 0 with suffix links only
        local = _local_pairs(table or _StateTable(index.fits[0], x.n, steps),
                             suffix_edges, y.edge_list)
        it = iter(local)
        _union(parent, zip(it, it))
        return len(local) >> 1
    prefix, fits = index.prefix, index.fits
    rooms: dict = {}
    for c, suffixes in fits.items():
        rooms.setdefault(id(suffixes), (suffixes, []))[1].append(c)
    # a block's parents start at its room's local roots, as ints of _ranks
    # where parent is a list, so that the entries allocate none
    ints = _ranks.__getitem__ if isinstance(parent, list) else None
    roots: dict = {}
    links = 0
    for key, (suffixes, prefixes) in rooms.items():
        local = _local_pairs(_StateTable(suffixes, x.n - k, steps),
                             suffix_edges, y.edge_list)
        root = list(range(len(suffixes)))
        it = iter(local)
        _union(root, zip(it, it))
        for j, r in enumerate(root):
            root[j] = root[r]
        root = roots[key] = array("i", root)
        links += (len(local) >> 1) * len(prefixes)
        if not local:
            # every suffix is its own root, as its entries already say
            continue
        # every slice is written before any link is unioned: a write after
        # a union would undo the roots it lowered in that block
        for c in prefixes:
            b = prefix[c]
            block = map(add, root, itertools.repeat(b))
            parent[b:b + len(root)] = (map(ints, block) if ints
                                       else array(parent.typecode, block))
    up: list[list[int]] = [[] for _ in range(y.n)]
    for s, t in y.edge_list:
        up[s].append(t)
    mask = (1 << bits) - 1
    shift = [bits * (k - 1 - p) for p in range(k)]
    prefix_edges = [(shift[p], shift[q]) for p, q in x.edge_list if q < k]
    cross_edges = [(shift[p], bits * (x.n - 1 - q), q) for p, q in x.edge_list
                   if p < k <= q]
    for key, (suffixes, prefixes) in rooms.items():
        root = roots[key]
        size = len(root)
        tops = array("i", [j for j, r in enumerate(root) if j == r])
        # q -> column -> (rank, code) of each suffix with a copy on it at q
        columns: dict = {}
        cross: dict = {}
        for c in prefixes:
            b = prefix[c]
            for hp, hq in prefix_edges:
                for s in held[c >> hp & mask]:
                    for t in held[c >> hq & mask]:
                        if s < t and (s, t) in y.edges:
                            b2 = prefix[c + (weight[t] - weight[s])
                                        * ((1 << hp) - (1 << hq))]
                            _union(parent, zip(map(add, tops, itertools.repeat(b)),
                                               map(add, tops, itertools.repeat(b2))))
                            links += size
            for hp, hq, q in cross_edges:
                for s in held[c >> hp & mask]:
                    for t in up[s]:
                        moved = c + ((weight[t] - weight[s]) << hp)
                        b2 = prefix.get(moved)
                        if b2 is None:
                            # the room has no copy on t for the suffix
                            continue
                        pairs = cross.get((q, s, t))
                        if pairs is None:
                            column = columns.get(q)
                            if column is None:
                                column = columns[q] = {}
                                for j, d in enumerate(suffixes):
                                    for u in held[d >> hq & mask]:
                                        column.setdefault(u, []).append((j, d))
                            there = fits[moved]
                            root2 = roots[id(there)]
                            delta = (weight[s] - weight[t]) << hq
                            ends = dict.fromkeys((root[j], root2[there[d + delta]])
                                                 for j, d in column[t])
                            pairs = cross[q, s, t] = (
                                array("i", [i for i, _ in ends]),
                                array("i", [j for _, j in ends]), len(column[t]))
                        _union(parent, zip(map(add, pairs[0], itertools.repeat(b)),
                                           map(add, pairs[1], itertools.repeat(b2))))
                        links += pairs[2]
    return links


# spaces of at most this many arrangements (8!) keep their union-find
# parents, and then their ids, in a slice of _ranks, the rank ints up to the
# largest such space built so far (at most 1.45 MB): a read allocates no
# int, which halves the time of the many small builds.  Larger spaces keep
# them in an array('i'), 4 B a state
_LIST_STATES = math.factorial(8)
_ranks: list[int] = []


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
    # union-find over enumeration ranks
    if total <= _LIST_STATES:
        _ranks.extend(range(len(_ranks), total))
        parent = _ranks[:total]
    else:
        parent = array("i" if total <= 2 ** 31 else "l", range(total))
    if isinstance(space, FSmSpace) and total <= _TABLE_STATES:
        # one block, the whole space, in the table shared by its label counts
        table = _state_table(space.y.mult)
        index = table.index
    else:
        table = None
        index = space.index()
    links = _union_blocks(space, parent, index, table)
    # one pass in enumeration order overwrites each entry with its id
    sizes: list[int] = []
    for i, p in enumerate(parent):
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
        component_id=_ComponentIds(space, index, parent),
    )


def reachable(space, start, budget: Optional[int] = None) -> Iterator:
    """The arrangements reachable from ``start`` by friendly swaps, in
    breadth-first order, ``start`` itself excluded.

    Each new arrangement is yielded before it counts against ``budget``, so
    a caller that stops at the arrangement that would exceed the budget gets
    its answer; resuming past it raises ``BudgetExceededError``.
    """
    fresh = space.fresh_neighbors
    limit = math.inf if budget is None else budget
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for cur in frontier:
            new = fresh(cur, seen)
            if len(seen) > limit and new:
                # stop at the first new arrangement past the budget
                keep = max(1, budget + 1 - (len(seen) - len(new)))
                yield from new[:keep]
                raise BudgetExceededError(len(seen) - len(new) + keep, budget)
            yield from new
            nxt += new
        frontier = nxt


# is_exchangeable answers from the component partition of fs/fsm spaces of
# at most this many arrangements (8!): at that size one build costs about as
# much as the few BFS walks it replaces
_SLOT_STATES = math.factorial(8)

# (space.x, space.y) -> component ids, for the last space answered that way
_slot: dict = {}


def is_exchangeable(x, y, a, u: int, v: int, budget: Optional[int] = None,
                    variant: str = "fs") -> bool:
    """Whether a pair can be transposed by a chain of friendly swaps.

    For the bijective variant (u, v) are labels and the target is the
    arrangement with those labels exchanged.  For the multiplicity variant
    (u, v) are positions and the target swaps the two entries.

    On a space of at most ``_SLOT_STATES`` arrangements, with ``budget``
    None or at least the space's size, where the BFS could not have raised,
    the answer compares the component ids of ``a`` and the target in the
    ``build_components`` report of the space.  One slot keeps the ids, keyed
    by ``(space.x, space.y)``, until a query on another such space replaces
    them; unit-multiplicity fsm is the fs space, so the two share it.  Every
    other query runs a BFS from ``a`` (``reachable``) that stops at the
    target, so a miss walks the whole component of ``a``.  A pair that is
    not two labels (fs) or two positions (fsm) of the space raises
    ``ValueError``.
    """
    if u == v:
        raise ValueError("pair must be distinct")
    if variant == "fsmm":
        raise ValueError("exchangeability is defined for fs and fsm variants")
    space = space_for(x, y, variant)
    a = tuple(a)
    if not space.is_valid(a):
        raise InvalidArrangementError(f"invalid arrangement {a!r}")
    n = space.y.base.n if variant == "fs" else space.x.n
    for w in (u, v):
        if not isinstance(w, int) or not 0 <= w < n:
            what = "label" if variant == "fs" else "position"
            raise ValueError(f"{what} {w!r} is not in range({n})")
    if variant == "fs":
        target = tuple(u if t == v else v if t == u else t for t in a)
    else:
        b = list(a)
        b[u], b[v] = b[v], b[u]
        target = tuple(b)
    if target == a:
        return True
    total = space.count()
    if total > _SLOT_STATES or budget is not None and budget < total:
        return any(s == target for s in reachable(space, a, budget))
    graphs = (space.x, space.y)
    ids = _slot.get(graphs)
    if ids is None:
        _slot.clear()
        ids = _slot[graphs] = build_components(*graphs, variant="fsm").component_id
    return ids[a] == ids[target]


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
    report = build_components(x, y, budget=budget, variant="fs")

    def a_count(s) -> int:
        return sum(1 for p in ax if s[p] in ay)

    reps: dict[int, bytes] = {}
    rep_inv: dict[int, list[int]] = {}
    rep_cnt: dict[int, int] = {}
    for c, cid in report.component_id.coded():
        a = c.to_bytes(x.n, "big")
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
    # within blocks); a projection is the arrangement's bytes translated
    # lifted label -> block, and so the bytes of an fsm arrangement
    n = x.n
    blocks = bytes(cliques.block_of).ljust(256, b"\0")
    # each arrangement's component glues to the first one with its projection
    groups: dict[bytes, int] = {}
    glue = ((cid, groups.setdefault(c.to_bytes(n, "big").translate(blocks), cid))
            for c, cid in lifted_report.component_id.coded())
    root = list(range(lifted_report.component_count))
    _union(root, glue)
    for j, r in enumerate(root):
        root[j] = root[r]
    projected: dict[int, set] = {}
    for proj, cid in groups.items():
        projected.setdefault(root[cid], set()).add(proj)
    lifted_partition = {frozenset(s) for s in projected.values()}

    direct = build_components(x, y, budget=budget, variant="fsm")
    direct_parts: dict[int, set] = {}
    for c, cid in direct.component_id.coded():
        direct_parts.setdefault(cid, set()).add(c.to_bytes(n, "big"))
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
    where x(tau) counts blanks inside A.  A ``leaf`` that is not a label of
    the star other than its centre raises ``ValueError``.
    """
    bridge = tuple(bridge)
    blank = star_center(star.base)
    if not isinstance(leaf, int) or not 0 <= leaf < star.base.n or leaf == blank:
        raise ValueError(f"{leaf!r} is not a leaf label of the star")
    k = star.mult[blank]
    if len(bridge) != k:
        raise KBridgeError(f"bridge length {len(bridge)} != center multiplicity {k}")
    bridges = find_k_bridges(x, k)
    if bridge not in bridges and bridge[::-1] not in bridges:
        raise KBridgeError(f"{bridge} is not a {k}-bridge of the position graph")
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
