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
peaks at about 15 B per state, against 148 B with a dict keyed by every
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

Each space has two move functions, generated Python, one source per
function and X shape (fsmm: X and Y shape), cached and formatted from
integers only, with no loop over the edges:

* ``fresh_neighbors(a, seen)`` unpacks the tuple once, tests each move on
  named entries and builds each neighbour as a tuple display;
  ``neighbors(a)`` is ``fresh_neighbors(a, set())``;
* ``union_links(index, parent)`` walks the index's codes in rank order,
  unpacks each with one ``to_bytes``, tests each forward move on named
  entries, computes the neighbour's code arithmetically (fs/fsm
  ``c + (a_q - a_p) * (256**(n-1-p) - 256**(n-1-q))``, fsmm ``c`` plus a
  constant per move), ranks it with the index's two tables and unions
  the two ranks.  The fsmm kernel first collects a state's neighbour codes
  and unions them in one loop: it runs slower but compiles in a third of
  the time, and most fsmm spaces are small.

A space generates a function on its first use, not when it is built: the
table path below never makes a move, and a benchmark repetition builds
about 2,000 such spaces.  Compiling costs about 1 ms a function.

``build_components`` reads the moves from one of two link sources:

* fs/fsm spaces with at most ``_TABLE_STATES`` = 7! arrangements use the
  ``_StateTable`` of their label counts: a rank index and, per position
  pair, the rank pairs of every swap, keyed by the two labels.  The table
  depends only on the counts, so every space with them shares one,
  relabelled inputs included, and a call makes no move and looks up no
  arrangement: it unions the rank pairs of each X-edge and Y-edge.
* Larger spaces, and fsmm, build a rank index of their own and call
  ``union_links``.

Either way the union-find parents, and then the component ids, are 8 B an
entry in enumeration order, read through the index, which no call writes:
an ``array('l')``, or up to ``_LIST_STATES`` = 8! arrangements a slice of
one shared list of rank ints, whose reads allocate nothing.  A report keeps its index and ids, about 14 B per
state for FS(K4,5, C9), and reads an arrangement as
``ids[index[code(a)]]``; its iteration decodes its index.  Larger
tables are not kept: a cached table outlives its report.  At the bound a
table holds 0.23 MB, or 0.73 MB with the swaps of all 21 position pairs.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from array import array
from collections.abc import ItemsView, Mapping
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


# -- moves --------------------------------------------------------------------

_MOVES = ("fresh_neighbors", "union_links")


class _GeneratedMoves:
    """Generates each of the space's ``_MOVES`` on its first use and keeps
    it on the instance, where later lookups find it."""

    def __getattr__(self, name: str):
        if name not in _MOVES:
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


def _compile_move(name: str, unpack: Sequence[str], moves: Sequence[tuple],
                  inline: bool = True):
    """Compile ``bind(m)``, which returns the ``_MOVES`` function ``name``.

    ``unpack`` are statements that name the parts of an arrangement: of the
    tuple ``a``, or for ``union_links`` of the code ``c``.  Each move is
    (test, forward, new arrangement, code delta), expressions over those
    names and ``m``.  ``fresh_neighbors(a, seen)`` makes every move whose
    test holds and returns the new arrangements not in ``seen``, adding
    them to it.

    ``union_links(index, parent)`` walks the codes of ``index`` (a
    ``_RankIndex``) in rank order, makes the forward moves whose test
    holds, ranks each neighbour with the index's two tables, unions the
    ranks of the two ends in ``parent`` and returns the number of moves
    made.
    With ``inline`` each move unions in place; otherwise the moves collect
    the neighbours' codes and one loop unions them, which runs slower but
    compiles in about a third of the time."""
    if name == "union_links":
        # ra is a root; a neighbour already under it costs one read
        union = ["p = parent[rb]", "if p != ra:",
                 " while p != rb:", "  parent[rb] = rb = parent[p]", "  p = parent[rb]",
                 " if ra < rb:", "  parent[rb] = ra",
                 " elif rb < ra:", "  parent[ra] = ra = rb"]
        root = ["while (p := parent[ra]) != ra:", " parent[ra] = ra = parent[p]"]
        body = [(test, delta) for test, forward, _, delta in moves if forward]
        rank = "rb = prefix[rb >> shift] + suffix[rb & mask]"
        loop = list(unpack)
        if inline:
            loop += root
            for test, delta in body:
                loop += [f"if {test}:", f" rb = c + {delta}", " " + rank, " links += 1"]
                loop += [" " + line for line in union]
        else:
            loop.append("nb = []")
            for test, delta in body:
                loop += [f"if {test}:", f" nb.append(c + {delta})"]
            loop += ["if nb:", " links += len(nb)"] + [" " + line for line in root]
            loop += [" for rb in nb:", "  " + rank]
            loop += ["  " + line for line in union]
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
def _fs_moves(name: str, n: int, edges: tuple[tuple[int, int], ...]):
    """The moves of every fs/fsm space on n positions with X-edges ``edges``:
    a swap across (p, q) when ``m[s][t]`` is 1 for the labels s = a[p] and
    t = a[q].  A position at the lower end of several X-edges reads its
    label's row once.  The swap adds (t - s) * (256**(n-1-p) - 256**(n-1-q))
    to the arrangement's code."""
    names = [f"a{i:d}" for i in range(n)]
    lower = [p for p, _ in edges]
    rows = {p: f"m{p:d}" for p in lower if lower.count(p) > 1}
    unpack = _unpack_code(names, 1) if name == "union_links" else \
        [_tuple(names) + " = a"]
    unpack += [f"{row} = m[a{p:d}]" for p, row in rows.items()]
    moves = []
    for p, q in edges:
        b = list(names)
        b[p], b[q] = b[q], b[p]
        weight = 256 ** (n - 1 - p) - 256 ** (n - 1 - q)
        moves.append((f"{rows.get(p, f'm[a{p:d}]')}[a{q:d}]", True, _tuple(b),
                      f"(a{q:d} - a{p:d}) * {weight:d}"))
    return _compile_move(name, unpack, moves)


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
    # most fsmm spaces are small (a probe space has about 23 arrangements),
    # so compiling costs more than the unions
    return _compile_move(name, unpack, moves, inline=False)


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
        # row s holds a 1 at each label t adjacent to s in Y; for the forward
        # moves only at t > s
        y = self.y.base
        both = name != "union_links"
        m = [[int((s, t) in y.edges or both and (t, s) in y.edges)
              for t in range(y.n)] for s in range(y.n)]
        return _fs_moves(name, self.x.n, self.x.edge_list)(m)


class FSmmSpace(_GeneratedMoves):
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
    code that is not an arrangement's.  The generated union kernels, which
    rank only neighbours of arrangements, read the flat ``suffix``.
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
    writes to it; ``ids``, 8 B an arrangement (an ``array('l')``, or a list
    on spaces of at most ``_LIST_STATES``), holds the component ids in
    that order.  Iteration decodes the index."""

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


# fs/fsm spaces with at most this many arrangements (7!) read their links
# from the _StateTable of their label counts
_TABLE_STATES = 5040


class _StateTable:
    """The arrangements with label counts ``mult`` and their swaps, shared
    read-only by every fs/fsm space with those counts.

    ``index`` maps the code (``FSmSpace.code``) of each arrangement to its
    enumeration rank.  ``swaps(p, q)`` maps each label pair (s, t), s < t,
    to a flat array of rank pairs (i, j): arrangement i holds s on position
    p and t on q, and j is i with those two entries swapped.  For an X-edge
    (p, q), p < q, and a Y-edge (s, t) these are the forward moves of
    ``FSmSpace.union_links``.  Nothing here depends on X or Y.
    """

    __slots__ = ("index", "_n", "_swaps")

    def __init__(self, mult: tuple[int, ...]):
        self.index = _label_index(mult)
        self._n = sum(mult)
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


# one table per label-count vector, for as many vectors as a run cycles
# through: a repetition of the benchmark's oracle-many or predict workload
# uses 42 or 63
_state_table = functools.lru_cache(maxsize=128)(_StateTable)


# spaces of at most this many arrangements (8!) keep their union-find
# parents, and then their ids, in a slice of _ranks, the rank ints up to the
# largest such space built so far (at most 1.45 MB): 8 B a state, as in an
# array('l'), but a read allocates no int, which halves the time of the
# many small builds
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
    if isinstance(space, FSmSpace) and total <= _TABLE_STATES:
        table = _state_table(space.y.mult)
        index = table.index
    else:
        table = None
        index = space.index()
    # union-find over enumeration ranks; the smaller root wins, so every
    # root is its component's first arrangement and parent[i] <= i
    if total <= _LIST_STATES:
        _ranks.extend(range(len(_ranks), total))
        parent = _ranks[:total]
    else:
        parent = array("l", range(total))
    if table is not None:
        # rank pairs from the shared table, per X-edge and Y-edge
        links = 0
        label_edges = space.y.base.edge_list
        for p, q in space.x.edge_list:
            swaps = table.swaps(p, q)
            for st in label_edges:
                # each label pair sits on (p, q) in some arrangement
                pairs = swaps[st]
                links += len(pairs) >> 1
                it = iter(pairs)
                for i, j in zip(it, it):
                    # _UnionFind.union(i, j) inlined
                    while (r := parent[i]) != i:
                        parent[i] = i = parent[r]
                    while (r := parent[j]) != j:
                        parent[j] = j = parent[r]
                    if i < j:
                        parent[j] = i
                    elif j < i:
                        parent[i] = j
    else:
        links = space.union_links(index, parent)
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
