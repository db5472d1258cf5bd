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
two small tables, one keyed by the codes' leading digits and one by the
rest, and stores no code of a whole arrangement: an FS(K4,5, C9) build
peaks at about 12 B per state, against 148 B with a dict keyed by every
code and 222 B with tuple keys.  Its iteration is the one enumerator: it
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
the kept report holds about 20 B per arrangement.

Every move has an inverse, so the links of a space are undirected.  A
*forward* move is, in fs/fsm, a swap across the X-edge (p, q), p < q, that
moves the smaller label from p to q; in fsmm, for an X-edge (u, v) and a
Y-edge (y1, y2), a move of a copy of u from y1 to y2 against a copy of v
from y2 to y1.  The reverse of a forward move is not forward, and no two
moves from one arrangement reach the same neighbour, so every undirected
link is exactly one forward move, from one of its two ends.
``build_components`` makes forward moves only, so it sees each link once
and its ``edge_count`` is the number of forward moves.

Moves are generated Python, one source per function and X shape (fsmm:
X and Y shape), cached and formatted from integers only, with no loop over
the edges:

* ``fresh_neighbors(a, seen)``, on every space, unpacks the tuple once,
  tests each move on named entries and builds each neighbour as a tuple
  display; ``neighbors(a)`` is ``fresh_neighbors(a, set())``;
* ``union_links(index, parent)``, on fsmm spaces only, walks the index's
  codes in rank order, unpacks each with one ``to_bytes``, collects the
  codes of its forward moves (``c`` plus a constant per move), ranks each
  with the index's two tables and unions the ranks.

A space generates a function on its first use, not when it is built:
``build_components`` makes no fs/fsm move, and a benchmark repetition
builds about 2,000 such spaces.  Compiling costs about 1 ms a function.

``build_components`` unions the links of an fs/fsm space block by block
(``_union_blocks``), from rank pairs that no arrangement's own moves
compute.  A block is the arrangements that share their first k entries,
a prefix of the rank index; its ranks are contiguous, ordered as its
suffixes are among those that fill the room (label counts) the prefix
leaves.  A room's ``_StateTable`` holds, per position pair, the local
rank pairs of every swap keyed by the two labels.  An X-edge (p, q) is a
prefix link (q < k, one test a block, then rank by rank to the block of
the swapped prefix), a suffix link (k <= p, the room's swap pairs, the
same in each of its blocks) or a cross link (p < k <= q, pairs a room
makes once per (q, label on q, label on p) and unions against the block
whose prefix takes the label from q).  Larger spaces split at the index's
k and build each room's table once, as the walk over the blocks grouped
by room reaches it, and keep none.  A space of at most ``_TABLE_STATES``
= 7! arrangements is one block, k = 0, whose room is the cached table of
its label counts: every space with those counts shares it, relabelled
inputs included, and the report keeps its index.

The union-find parents, and then the component ids, are an entry a state
in enumeration order, read through the index, which no call writes: up to
``_LIST_STATES`` = 8! arrangements a slice of one shared list of rank
ints, whose reads allocate nothing, and above it an ``array('i')``, 4 B a
state (``array('l')`` past 2**31 states).  A report keeps its index and
ids, about 10 B per state for FS(K4,5, C9), and reads an arrangement as
``ids[index[code(a)]]``; its iteration decodes its index.  A cached table
outlives its report; at the 7! bound it holds 0.23 MB, or 0.73 MB with
the swaps of all 21 position pairs.
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


# -- moves --------------------------------------------------------------------


class _GeneratedMoves:
    """Generates each of the space's ``_MOVES`` on its first use and keeps
    it on the instance, where later lookups find it."""

    _MOVES: tuple[str, ...] = ("fresh_neighbors",)

    def __getattr__(self, name: str):
        if name not in self._MOVES:
            raise AttributeError(name)
        move = self.__dict__[name] = self._moves(name)
        return move

    def neighbors(self, a) -> list:
        """Every arrangement one move from ``a``: no two moves reach the
        same one, so none is dropped as seen."""
        return self.fresh_neighbors(a, set())


def _tuple(names: Sequence[str]) -> str:
    return "(" + "".join(name + ", " for name in names) + ")"


def _unpack_code(names: Sequence[str], width: int) -> list[str]:
    """Statements that name the entries of the arrangement coded ``c``,
    ``width`` bytes an entry."""
    if width == 1:
        return [_tuple(names) + f" = c.to_bytes({len(names):d}, 'big')"]
    return [f"d = c.to_bytes({len(names) * width:d}, 'big')"] + [
        f"{name} = int.from_bytes(d[{k * width:d}:{(k + 1) * width:d}], 'big')"
        for k, name in enumerate(names)]


def _compile_move(name: str, unpack: Sequence[str], moves: Sequence[tuple]):
    """Compile ``bind(m)``, which returns the ``_MOVES`` function ``name``.

    ``unpack`` are statements that name the parts of an arrangement: of the
    tuple ``a``, or for ``union_links`` of the code ``c``.  Each move is
    (test, forward, new arrangement, code delta), expressions over those
    names and ``m``.  ``fresh_neighbors(a, seen)`` makes every move whose
    test holds and returns the new arrangements not in ``seen``, adding
    them to it.

    ``union_links(index, parent)`` walks the codes of ``index`` (a
    ``_RankIndex``) in rank order, collects the codes of the forward moves
    whose test holds, ranks each with the index's two tables, unions the
    ranks of the two ends in ``parent`` and returns the number of moves
    made.  Collecting first runs slower than a union per move but compiles
    in about a third of the time."""
    if name == "union_links":
        # ra is a root; a neighbour already under it costs one read
        loop = list(unpack) + ["nb = []"]
        for test, forward, _, delta in moves:
            if forward:
                loop += [f"if {test}:", f" nb.append(c + {delta})"]
        loop += ["if nb:", " links += len(nb)",
                 " while (p := parent[ra]) != ra:", "  parent[ra] = ra = parent[p]",
                 " for rb in nb:", "  rb = prefix[rb >> shift] + suffix[rb & mask]",
                 "  p = parent[rb]", "  if p != ra:",
                 "   while p != rb:", "    parent[rb] = rb = parent[p]",
                 "    p = parent[rb]",
                 "   if ra < rb:", "    parent[rb] = ra",
                 "   elif rb < ra:", "    parent[ra] = ra = rb"]
        src = ["def bind(m):", " def union_links(index, parent):", "  links = 0",
               "  prefix, suffix = index.prefix, index.suffix",
               "  shift, mask = index.shift, index.mask",
               "  for ra, c in enumerate(index):"]
        src += ["   " + line for line in loop]
        src += ["  return links", " return union_links"]
    else:
        src = ["def bind(m):", " def fresh_neighbors(a, seen):"]
        src += ["  " + line for line in unpack] if moves else []
        src.append("  out = []")
        for test, _, b, _ in moves:
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
        moves.append((f"{rows.get(p, f'm[a{p:d}]')}[a{q:d}]", True, _tuple(b), None))
    return _compile_move("fresh_neighbors", unpack, moves)


@functools.lru_cache(maxsize=128)
def _fsmm_moves(name: str, nx: int, x_edges: tuple[tuple[int, int], ...], ny: int,
                y_edges: tuple[tuple[int, int], ...], width: int):
    """The moves of every fsmm space with these X and Y base graphs: for an
    X-edge (u, v) and a Y-edge (y1, y2), a copy of u moves from y1 to y2
    against a copy of v back (forward), then the reverse.  Entry ``c{u}_{y}``
    of row ``r{u}`` counts the copies of u on y, and is the digit of weight
    256**(width * (nx*ny - 1 - (u*ny + y))) in the arrangement's code."""
    rows = [f"r{u:d}" for u in range(nx)]
    cells = [[f"c{u:d}_{k:d}" for k in range(ny)] for u in range(nx)]
    if name == "union_links":
        unpack = _unpack_code([cell for row in cells for cell in row], width)
    else:
        unpack = [_tuple(rows) + " = a"] + [
            _tuple(cells[u]) + f" = r{u:d}"
            for u in sorted({u for e in x_edges for u in e})]

    def shift(u, src, dst):
        row = list(cells[u])
        row[src] += " - 1"
        row[dst] += " + 1"
        return _tuple(row)

    def weight(u, k):
        return 256 ** (width * (nx * ny - 1 - (u * ny + k)))

    moves = []
    for u, v in x_edges:
        for y1, y2 in y_edges:
            for src, dst in ((y1, y2), (y2, y1)):
                b = list(rows)
                b[u] = shift(u, src, dst)
                b[v] = shift(v, dst, src)
                delta = weight(u, dst) - weight(u, src) \
                    + weight(v, src) - weight(v, dst)
                moves.append((f"{cells[u][src]} and {cells[v][dst]}",
                               src == y1, _tuple(b), f"({delta:d})"))
    return _compile_move(name, unpack, moves)


# -- spaces -------------------------------------------------------------------


class FSmSpace(_GeneratedMoves):
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

    def enumerate(self) -> Iterator[tuple[int, ...]]:
        return map(self.decode, self.index())

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

    def _moves(self, name: str):
        # row s holds a 1 at each label t adjacent to s in Y
        y = self.y.base
        m = [[int((s, t) in y.edges or (t, s) in y.edges) for t in range(y.n)]
             for s in range(y.n)]
        return _fs_moves(self.x.n, self.x.edge_list)(m)


class FSmmSpace(_GeneratedMoves):
    """FSmm(X, Y): count matrices, row u = copies of label u on each position.

    A move swaps one copy of label u on position y1 with one copy of a
    different label v on an adjacent position y2, and needs uv in E(X) and
    y1y2 in E(Y).  With all X-multiplicities equal to 1 this is exactly the
    fsm variant.
    """

    _MOVES = ("fresh_neighbors", "union_links")

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

    def enumerate(self) -> Iterator[tuple[tuple[int, ...], ...]]:
        return map(self.decode, self.index())

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

        return _RankIndex(len(rows), 8 * self.width * self.y.base.n,
                          self.y.mult, choices)

    def _row_bytes(self, row: Sequence[int]) -> bytes:
        w = self.width
        if w == 1:
            return bytes(row)
        return b"".join(int.to_bytes(cell, w, "big") for cell in row)

    def _moves(self, name: str):
        x, y = self.x.base, self.y.base
        return _fsmm_moves(name, x.n, x.edge_list, y.n, y.edge_list,
                           self.width)(None)


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

        rank(c) = prefix[c >> shift] + suffix[c & mask]

    where ``prefix`` maps each prefix to the rank of its first arrangement
    and ``suffix`` each suffix to its rank among those filling its room.
    ``k`` is the split with the fewest entries in the two: 9 positions with
    9 labels take 3,024 prefixes and 15,120 suffixes for 362,880
    arrangements.

    A prefix and a suffix can each be valid and not fit together (fs
    (0, 1 | 0, 1)).  A lookup therefore reads the suffix in ``fits[p]``,
    the suffix table of the room prefix p leaves, one table shared by
    every prefix that leaves that room, and raises ``KeyError`` for any
    code that is not an arrangement's.  The generated fsmm union kernel,
    which ranks only neighbours of arrangements, reads the flat ``suffix``;
    ``build_components`` walks fs/fsm spaces block by block, a prefix and
    its ``fits`` table at a time.
    Iteration yields the codes in rank order."""

    __slots__ = ("shift", "mask", "prefix", "suffix", "fits", "_len")

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
        self.suffix: dict = {}
        for table in tables.values():
            self.suffix.update(table)
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


class _StateTable:
    """The arrangements that fill a room of label counts, and their swaps.

    ``index`` maps the code (``FSmSpace.code``) of each arrangement of
    ``n`` positions, a whole one or the suffix of a prefix block, to its
    rank among them, and iterates the codes in rank order.  ``swaps(p, q)``
    maps each label pair (s, t), s < t, to a flat array of rank pairs
    (i, j): arrangement i holds s on position p and t on q, and j is i with
    those two entries swapped.  For an X-edge (p, q), p < q, and a Y-edge
    (s, t) these are forward moves.  Nothing here depends on X or Y.
    """

    __slots__ = ("index", "_n", "_swaps")

    def __init__(self, index: Mapping, n: int):
        self.index = index
        self._n = n
        self._swaps: dict = {}

    def swaps(self, p: int, q: int) -> dict:
        by_labels = self._swaps.get((p, q))
        if by_labels is None:
            by_labels = self._swaps[p, q] = {}
            index = self.index
            n = self._n
            weight = 256 ** (n - 1 - p) - 256 ** (n - 1 - q)
            for i, c in enumerate(index):
                a = c.to_bytes(n, "big")
                s = a[p]
                t = a[q]
                if s < t:
                    pairs = by_labels.get((s, t))
                    if pairs is None:
                        pairs = by_labels[s, t] = array("i")
                    pairs.append(i)
                    pairs.append(index[c + (t - s) * weight])
        return by_labels


# one table per label-count vector of at most 7! arrangements, for as many
# vectors as a run cycles through: the benchmark's oracle-many workload uses
# 42, and its predict workload 47 to 53 a repetition and 63 over 12.  The
# rooms of larger spaces are not cached
@functools.lru_cache(maxsize=128)
def _state_table(mult: tuple[int, ...]) -> _StateTable:
    """The table of every fs/fsm space with label counts ``mult``, shared
    read-only by all of them."""
    return _StateTable(_label_index(mult), sum(mult))


def _rooms(index: _RankIndex, n: int) -> Iterator[tuple[_StateTable, list]]:
    """Each room of the prefix blocks of ``index``, as the ``_StateTable``
    of its suffixes of ``n`` entries, with the codes of the prefixes that
    leave it.  A room's table is built when its turn comes and kept by
    nothing here."""
    groups: dict = {}
    for c, suffixes in index.fits.items():
        groups.setdefault(id(suffixes), (suffixes, []))[1].append(c)
    for suffixes, prefixes in groups.values():
        yield _StateTable(suffixes, n), prefixes


def _union(parent, pairs) -> None:
    """Unions the two ranks of each pair; the smaller root wins, so every
    root is its component's first arrangement and parent[i] <= i."""
    for i, j in pairs:
        r = parent[i]
        s = parent[j]
        if r == s:
            continue
        # find each root, pointing each step at its grandparent; a root
        # (most ends in small spaces) is read once
        if r != i:
            while r != (g := parent[r]):
                parent[i] = i = g
                r = parent[g]
        if s != j:
            while s != (g := parent[s]):
                parent[j] = j = g
                s = parent[g]
        if r < s:
            parent[s] = r
        elif s < r:
            parent[r] = s


def _union_blocks(space: FSmSpace, parent, k: int, prefix: Mapping,
                  fits: Mapping, rooms) -> int:
    """Unions the links of an fs/fsm space in ``parent`` block by block and
    returns their number.

    A block is the arrangements whose first ``k`` entries are one prefix,
    coded c; they hold the ranks from ``prefix[c]`` on, in the order of
    their suffixes in ``fits[c]``, the suffix table of the room (label
    counts) the prefix leaves.  ``rooms`` yields each room's
    ``_StateTable`` with the prefixes that leave it.  An X-edge (p, q),
    p < q, links arrangements in one of three ways:

    * prefix link (q < k): where the block's prefix holds labels s < t
      adjacent in Y on p and q, each suffix links rank by rank to the block
      of the prefix with the two swapped;
    * suffix link (k <= p): the room's swaps across (p - k, q - k), the
      same local rank pairs in each of its blocks;
    * cross link (p < k <= q): for each label t > s = a[p] adjacent to s,
      each suffix with t on q links to the block whose prefix has t on p,
      at the rank there of the suffix with s on q.  A room makes these
      pairs once per (q, t, s), for all its blocks.
    """
    m = space.x.n - k
    labels = space.y.base
    suffix_edges = [(p - k, q - k) for p, q in space.x.edge_list if k <= p]
    prefix_edges = cross_edges = ()
    # the many small spaces are one block (k = 0) with suffix links only
    if k:
        up: list[list[int]] = [[] for _ in range(labels.n)]
        for s, t in labels.edge_list:
            up[s].append(t)
        weight = [256 ** (k - 1 - p) for p in range(k)]
        prefix_edges = [(p, q, weight[p] - weight[q])
                        for p, q in space.x.edge_list if q < k]
        cross_edges = [(p, weight[p], q - k) for p, q in space.x.edge_list
                       if p < k <= q]
    links = 0
    for table, prefixes in rooms:
        suffixes = table.index
        size = len(suffixes)
        local = array("i")
        for p, q in suffix_edges:
            swaps = table.swaps(p, q)
            for st in labels.edge_list:
                local.extend(swaps.get(st, ()))
        # q -> t -> (rank, code) of each suffix with t on q
        columns: dict = {}
        cross: dict = {}
        for c in prefixes:
            b = prefix[c]
            a = c.to_bytes(k, "big")
            for p, q, w in prefix_edges:
                s, t = a[p], a[q]
                if s < t and (s, t) in labels.edges:
                    b2 = prefix[c + (t - s) * w]
                    _union(parent, zip(range(b, b + size), range(b2, b2 + size)))
                    links += size
            if local:
                # a block at rank 0 needs no offset, and the many small
                # spaces are one such block
                it = map(add, local, itertools.repeat(b)) if b else iter(local)
                _union(parent, zip(it, it))
                links += len(local) >> 1
            for p, w, q in cross_edges:
                s = a[p]
                for t in up[s]:
                    b2 = prefix.get(c + (t - s) * w)
                    if b2 is None:
                        # no t is left for the suffix
                        continue
                    pairs = cross.get((q, t, s))
                    if pairs is None:
                        column = columns.get(q)
                        if column is None:
                            column = columns[q] = {}
                            shift = 8 * (m - 1 - q)
                            for j, d in enumerate(suffixes):
                                column.setdefault(d >> shift & 255, []).append((j, d))
                        delta = (s - t) << 8 * (m - 1 - q)
                        there = fits[c + (t - s) * w]
                        pairs = cross[q, t, s] = (
                            array("i", [j for j, _ in column[t]]),
                            array("i", [there[d + delta] for _, d in column[t]]))
                    _union(parent, zip(map(add, pairs[0], itertools.repeat(b)),
                                       map(add, pairs[1], itertools.repeat(b2))))
                    links += len(pairs[0])
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
    if not isinstance(space, FSmSpace):
        index = space.index()
        links = space.union_links(index, parent)
    elif total <= _TABLE_STATES:
        # k = 0: one block, the whole space, in the shared table
        table = _state_table(space.y.mult)
        index = table.index
        links = _union_blocks(space, parent, 0, {0: 0}, {0: index},
                              [(table, [0])])
    else:
        index = space.index()
        k = space.x.n - index.shift // 8
        links = _union_blocks(space, parent, k, index.prefix, index.fits,
                              _rooms(index, space.x.n - k))
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
    uf = _UnionFind(lifted_report.component_count)
    groups: dict[bytes, int] = {}
    for c, cid in lifted_report.component_id.coded():
        proj = c.to_bytes(n, "big").translate(blocks)
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
