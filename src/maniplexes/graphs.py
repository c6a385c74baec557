"""Properly edge-coloured graphs on dense integer flag sets.

A graph of rank ``n`` on ``F`` flags is ``n`` perfect matchings: for each
colour ``c`` in ``range(n)`` an array ``m[c]`` with ``m[c][v]`` the unique
``c``-neighbour of ``v``.  Proper colouring means the matchings are
fixed-point-free involutions and no two colours agree at any flag.

This module knows nothing about maniplexes; it provides the graph container,
the breadth-first numbering, :func:`orbit`, behind the generators' graphs
built by rule from a base state (the mix numbers its flag pairs in the same
order with a loop of its own) and :func:`component_rows`, component
partitions grown by the one union-find :func:`join` along a map's pairs
or, along a map that pairs whole blocks, by :func:`pair_join`, both given
the map itself and both ending in one renumbering, :func:`_renumber`, the
one split test, :func:`first_split`, behind the
intersection criteria, strong flag connectivity and the disconnection
witness, and the one anchor search, :func:`extensions`, behind
colour-preserving isomorphisms and coverings.  No code in the package calls
:func:`components` or :func:`partition_meet`: the tests use them as
references and the benchmark's trace as spans.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Any, Callable, Hashable, Iterable, Iterator, Optional, Sequence

from .errors import (
    FixedPoint,
    ManiplexError,
    MultiEdge,
    NotInvolution,
    OutOfRange,
    SizeMismatch,
)

#: Hard ceiling on the number of colours; keeps colour masks in one machine word.
MAX_RANK = 64

# How many sizes numbers() keeps.
_NUMBERS_SIZES = 16


@lru_cache(maxsize=_NUMBERS_SIZES)
def numbers(size: int) -> tuple[int, ...]:
    """``tuple(range(size))``, one tuple per size, kept for the 16 sizes
    most recently asked for (a benchmark run uses at most 8).

    CPython shares only the ints up to 256, so every flag number the package
    keeps, in matchings, singleton partitions and the flag-to-chain map, is
    read from here: equal numbers are then one object and not one 28-byte
    int per entry."""
    return tuple(range(size))


def index_in_range(
    value: object, stop: int, error: type[ManiplexError], what: str, start: int = 0
) -> int:
    """``value`` as an ``int`` in ``start..stop-1``, else ``error`` naming
    ``what``."""
    try:
        i = operator.index(value)
    except TypeError:
        raise error(f"{what} {value!r} is not an integer") from None
    if not start <= i < stop:
        raise error(f"{what} {i} not in range {start}..{stop - 1}")
    return i


@dataclass(frozen=True)
class ColouredGraph:
    """An immutable properly ``rank``-edge-coloured graph.

    ``matchings[c][v]`` is the ``c``-neighbour of flag ``v``.  Instances are
    only built through :func:`build_graph`, which validates the colouring.
    """

    rank: int
    size: int
    matchings: tuple[tuple[int, ...], ...]

    def neighbour(self, colour: int, flag: int) -> int:
        """The flag reached from ``flag`` along the ``colour`` edge."""
        colour = index_in_range(colour, self.rank, OutOfRange, "colour")
        return self.matchings[colour][self.check_flag(flag)]

    def check_flag(self, flag: int) -> int:
        """``flag`` as an ``int``; :class:`OutOfRange` unless it is an
        integer in ``0..size-1``."""
        return index_in_range(flag, self.size, OutOfRange, "flag")

    def flags(self) -> range:
        return range(self.size)

    def colours(self) -> range:
        return range(self.rank)


def build_graph(rank: int, matchings: Sequence[Sequence[int]]) -> ColouredGraph:
    """Validate and freeze a properly coloured graph.

    Raises, in canonical scan order (colour, then flag):
    :class:`OutOfRange` for bad rank/size/entries, :class:`SizeMismatch` for
    ragged rows, :class:`FixedPoint` / :class:`NotInvolution` for defective
    matchings and :class:`MultiEdge` when two colours agree at a flag.
    """
    rank = index_in_range(rank, MAX_RANK + 1, OutOfRange, "rank", start=1)
    if len(matchings) != rank:
        raise SizeMismatch(
            f"expected {rank} matchings, got {len(matchings)}"
        )
    size = len(matchings[0])
    if size <= 0:
        raise OutOfRange("graph needs at least one flag")
    frozen: list[tuple[int, ...]] = []
    ident = numbers(size)
    for c, row in enumerate(matchings):
        if len(row) != size:
            raise SizeMismatch(
                f"colour {c} has {len(row)} entries, expected {size}"
            )
        # Decide a fixed-point-free involution in C and keep the row as its
        # gather of the shared numbers.  A non-integer entry raises
        # TypeError, one of at least size IndexError; a negative entry w at
        # v reads row[w + size], which breaks the involution at v or at
        # w + size.  Only a failing row is converted and scanned, for the
        # first witness.
        try:
            at = gather(row)
            if at(row) == ident and all(map(operator.ne, row, ident)):
                frozen.append(at(ident))
                continue
        except (TypeError, IndexError):
            pass
        try:
            row = tuple(map(operator.index, row))
        except TypeError:
            raise OutOfRange(f"colour {c} has a non-integer entry") from None
        for v in range(size):
            w = row[v]
            if not 0 <= w < size:
                err = OutOfRange(
                    f"colour {c} maps flag {v} to {w}, outside 0..{size - 1}"
                )
                err.colour = c  # carried as FixedPoint does, for read_mpx
                raise err
            if w == v:
                raise FixedPoint(c, v)
            if row[w] != v:
                raise NotInvolution(c, v)
        frozen.append(gather(row)(ident))
    for c, d in combinations(range(rank), 2):
        if any(map(operator.eq, frozen[c], frozen[d])):
            v = next(v for v in range(size) if frozen[c][v] == frozen[d][v])
            raise MultiEdge(c, d, v)
    return ColouredGraph(rank=rank, size=size, matchings=tuple(frozen))


def orbit(
    start: Hashable, step: Callable[[int, Any], Hashable], k: int
) -> tuple[list[Any], list[list[int]]]:
    """The states reached from ``start`` by ``step(c, state)``, numbered in
    breadth-first discovery order with ``c`` ascending over ``range(k)``.

    Returns ``order`` and ``rows``, with ``rows[c][i]`` the number of
    ``step(c, order[i])``; each step is computed once.  Every state but the
    first is numbered after the state it was reached from, which
    :class:`~maniplexes.maniplex.Maniplex` reads as a proof of connectivity.
    """
    index = {start: 0}
    order = [start]
    rows: list[list[int]] = [[] for _ in range(k)]
    for state in order:
        for c, row in enumerate(rows):
            nxt = step(c, state)
            i = index.get(nxt)
            if i is None:
                i = index[nxt] = len(order)
                order.append(nxt)
            row.append(i)
    return order, rows


def component_rows(rows: Sequence[Sequence[int]], flag: int) -> list[list[int]]:
    """``rows`` restricted to the component of ``flag``, found by
    :func:`orbit`, with its flags renumbered in ascending order."""
    block = sorted(orbit(flag, lambda c, v: rows[c][v], len(rows))[0])
    local = {v: k for k, v in enumerate(block)}
    return [[local[row[v]] for v in block] for row in rows]


class Partition:
    """A partition of ``range(size)`` with canonical block ids.

    Block ids are assigned by first appearance, so two partitions are equal
    iff their id arrays are equal; no normalisation pass is ever needed.
    Any hashable labels are relabelled that way.  ``reps``, the smallest
    flag of each block in block order, is set at construction: found after
    a relabelling, or passed as ``_reps`` by a builder whose ids are already
    canonical, which skips the relabelling.
    """

    __slots__ = ("size", "ids", "reps", "_blocks")

    def __init__(
        self, ids: Iterable[Hashable], *, _reps: Optional[Sequence[int]] = None
    ):
        if _reps is None:
            relabel: dict[Hashable, int] = {}
            ids = [relabel.setdefault(x, len(relabel)) for x in ids]
            # Ids appear in ascending order, so each search starts at the last.
            _reps, v = [], 0
            for b in range(len(relabel)):
                v = ids.index(b, v)
                _reps.append(v)
        self.ids = tuple(ids)
        self.size = len(self.ids)
        self.reps = _reps
        self._blocks: Optional[tuple[tuple[int, ...], ...]] = None

    def block_count(self) -> int:
        return len(self.reps)

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks as ascending tuples, ordered by their smallest element."""
        if self._blocks is None:
            acc: list[list[int]] = [[] for _ in range(self.block_count())]
            for v, b in enumerate(self.ids):
                acc[b].append(v)
            self._blocks = tuple(tuple(b) for b in acc)
        return self._blocks

    def block_of(self, flag: int) -> tuple[int, ...]:
        return self.blocks()[self.ids[flag]]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self.ids == other.ids

    def __hash__(self) -> int:
        return hash(self.ids)

    def __repr__(self) -> str:
        return f"Partition({self.block_count()} blocks on {self.size} flags)"


def discrete(size: int) -> Partition:
    """The partition of ``range(size)`` into singletons, whose ids and
    representatives are both :func:`numbers`."""
    ids = numbers(size)
    return Partition(ids, _reps=ids)


def gather(indices: Sequence[int]) -> Callable[[Sequence[Any]], tuple]:
    """``operator.itemgetter(*indices)``, returning a tuple for any number
    of indices: a bare itemgetter returns one item alone and takes no
    empty index list."""
    if len(indices) > 1:
        return operator.itemgetter(*indices)
    if indices:
        i = indices[0]
        return lambda seq: (seq[i],)
    return lambda seq: ()


def join(part: Partition, row: Sequence[int]) -> Partition:
    """``part`` with the blocks of ``v`` and ``row[v]`` merged for every
    ``v``; ``part`` itself when nothing merges.

    ``row`` may be any map on the flags.  Its pairs are read from one end
    each: ``v`` is a source when ``row[v] < v`` or ``row[row[v]] != v``, so
    each edge of an involution, or each move of a map with ``row[v] <= v``,
    is read once, and every pair at least once.

    The union runs on block ids and keeps the smaller id as the root, so
    every parent sits below its child, as :func:`_renumber` needs.
    """
    ids = part.ids
    src = [v for v, w in zip(numbers(len(row)), row) if w < v or row[w] != v]
    at = gather(src)
    lo, hi = at(ids), gather(at(row))(ids)
    parent = list(range(part.block_count()))
    for a, b in set(zip(lo, hi)):
        while a != parent[a]:
            parent[a] = a = parent[parent[a]]
        while b != parent[b]:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    return _renumber(part, parent)


def pair_join(part: Partition, row: Sequence[int]) -> Partition:
    """``part`` with each block merged with the block that ``row`` sends its
    smallest flag into; ``part`` itself when every block goes to itself.

    ``row`` must map every block onto one block and be an involution on
    blocks, as a colour does on the components over colours it commutes
    with (or on singletons).  Then each merged block is a pair, read at the
    representatives alone, with no union-find: each block's target is its
    parent for :func:`_renumber`, which merges the larger of a pair.
    """
    return _renumber(part, gather(gather(part.reps)(row))(part.ids))


def _renumber(part: Partition, parent: Sequence[int]) -> Partition:
    """``part`` with block ``x`` merged into block ``parent[x]`` when
    ``parent[x] < x``, a root otherwise; ``part`` itself when all are roots.

    A parent below its block is renumbered first, so ``new[parent[x]]``
    already names its root.  Roots are numbered in block order, which keeps
    the ids canonical, and each keeps its block's smallest flag.
    """
    new: list[int] = []
    reps: list[int] = []
    old = part.reps
    for x, up in enumerate(parent):
        if up < x:
            new.append(new[up])
        else:
            new.append(len(reps))
            reps.append(old[x])
    if len(reps) == len(new):
        return part
    return Partition(gather(part.ids)(new), _reps=reps)


def components(graph: ColouredGraph, colours: Iterable[int]) -> Partition:
    """Connected components of the subgraph using only ``colours`` edges."""
    cols = sorted(
        {index_in_range(c, graph.rank, OutOfRange, "colour") for c in colours}
    )
    part = discrete(graph.size)
    for c in cols:
        part = join(part, graph.matchings[c])
    return part


def partition_meet(p: Partition, q: Partition) -> Partition:
    """Common refinement: blocks are the non-empty intersections of blocks."""
    if p.size != q.size:
        raise SizeMismatch(
            f"partitions on {p.size} and {q.size} flags cannot meet"
        )
    return Partition(zip(p.ids, q.ids))


def first_split(
    fine: Partition, *key_columns: Sequence[Hashable]
) -> Optional[tuple[int, int]]:
    """``None`` when ``fine``, which must refine the classes of the key
    ``(col[v] for col in key_columns)``, equals them: when the keys at
    ``fine.reps`` are distinct.  Else the first flag pair a key class joins
    and ``fine`` separates, ``(reps[i], reps[j])`` with ``i`` the first
    repeated key and ``j`` that key's next block.  With no columns every
    flag has the key ``()``."""
    reps = fine.reps
    if len(reps) < 2:
        return None
    if not key_columns:
        return reps[0], reps[1]
    at = operator.itemgetter(*reps)
    if len(set(zip(*map(at, key_columns)))) == len(reps):
        return None
    keys = list(zip(*map(at, key_columns)))
    count = Counter(keys)
    i = next(k for k, key in enumerate(keys) if count[key] > 1)
    return reps[i], reps[keys.index(keys[i], i + 1)]


def are_isomorphic(
    g: ColouredGraph, h: ColouredGraph
) -> Optional[tuple[int, ...]]:
    """A colour-preserving isomorphism ``g -> h`` as a flag map, or None.

    Both graphs must be connected, as every maniplex graph is; this is not
    re-checked.  Flag 0 of a connected ``g`` fixes the map, so the anchors
    of :func:`extensions` are tried in turn.  A returned map is total,
    colour-preserving and bijective: an isomorphism even without connectivity.
    """
    if g.rank != h.rank or g.size != h.size:
        return None
    for phi in extensions(g, h, operator.eq):
        if len(set(phi)) == g.size:
            return phi
    return None


def extensions(
    g: ColouredGraph, h: ColouredGraph, fits: Callable[[int, int], bool]
) -> Iterator[tuple[int, ...]]:
    """Every total colour-preserving map ``g -> h``, by ascending image of
    flag 0, over the anchors whose Petrie cycle length ``fits``.

    The Petrie word is ``0 1 ... n-1``.  A colour-preserving map commutes
    with it, so it maps the word's cycle through flag 0 of ``g``, of length
    ``L``, onto the cycle through the anchor, of length ``l``: an isomorphism
    needs ``l == L``, a covering ``l`` dividing ``L``.  An anchor is
    skipped unless ``fits(L, l)``.  Anchor 0 is tried before any cycle is
    walked; the target's cycles are walked once each, on demand.
    """
    phi = _propagate(g, h, 0)
    if phi is not None:
        yield phi
    length = len(_petrie_cycle(g, 0))
    lengths = [0] * h.size
    for anchor in range(1, h.size):
        if not lengths[anchor]:
            cycle = _petrie_cycle(h, anchor)
            for v in cycle:
                lengths[v] = len(cycle)
        if fits(length, lengths[anchor]):
            phi = _propagate(g, h, anchor)
            if phi is not None:
                yield phi


def _petrie_cycle(g: ColouredGraph, v: int) -> list[int]:
    """The cycle through ``v`` of the colour word ``0 1 ... n-1``."""
    cycle: list[int] = []
    w = v
    while True:
        cycle.append(w)
        for row in g.matchings:
            w = row[w]
        if w == v:
            return cycle


def _propagate(
    g: ColouredGraph, h: ColouredGraph, anchor: int
) -> Optional[tuple[int, ...]]:
    """The colour-preserving map extending ``0 -> anchor``, or None on any
    conflict or when a flag of ``g`` is out of reach of flag 0."""
    phi = [-1] * g.size
    phi[0] = anchor
    stack = [0]
    pop, push = stack.pop, stack.append
    rows = tuple(zip(g.matchings, h.matchings))
    while stack:
        v = pop()
        t = phi[v]
        for gm, hm in rows:
            w = gm[v]
            img = hm[t]
            x = phi[w]
            if x == -1:
                phi[w] = img
                push(w)
            elif x != img:
                return None
    if -1 in phi:
        return None
    return tuple(phi)
