"""Properly edge-coloured graphs on dense integer flag sets.

A graph of rank ``n`` on ``F`` flags is ``n`` perfect matchings: for each
colour ``c`` in ``range(n)`` an array ``m[c]`` with ``m[c][v]`` the unique
``c``-neighbour of ``v``.  Proper colouring means the matchings are
fixed-point-free involutions and no two colours agree at any flag.

This module knows nothing about maniplexes; it provides the graph container,
component partitions grown by the one union-find :func:`join`, partition
meets, and the one anchor search, :func:`extensions`, behind
colour-preserving isomorphisms and coverings.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence

from .errors import (
    FixedPoint,
    InconsistentVerdicts,
    ManiplexError,
    MultiEdge,
    NotInvolution,
    OutOfRange,
    SizeMismatch,
)

#: Hard ceiling on the number of colours; keeps colour masks in one machine word.
MAX_RANK = 64


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
    for c, row in enumerate(matchings):
        if len(row) != size:
            raise SizeMismatch(
                f"colour {c} has {len(row)} entries, expected {size}"
            )
        try:
            row = tuple(map(operator.index, row))
        except TypeError:
            raise OutOfRange(f"colour {c} has a non-integer entry") from None
        for v in range(size):
            w = row[v]
            if not 0 <= w < size:
                raise OutOfRange(
                    f"colour {c} maps flag {v} to {w}, outside 0..{size - 1}"
                )
            if w == v:
                raise FixedPoint(c, v)
            if row[w] != v:
                raise NotInvolution(c, v)
        frozen.append(row)
    for c, d in combinations(range(rank), 2):
        if any(map(operator.eq, frozen[c], frozen[d])):
            v = next(v for v in range(size) if frozen[c][v] == frozen[d][v])
            raise MultiEdge(c, d, v)
    return ColouredGraph(rank=rank, size=size, matchings=tuple(frozen))


class Partition:
    """A partition of ``range(size)`` with canonical block ids.

    Block ids are assigned by first appearance, so two partitions are equal
    iff their id arrays are equal; no normalisation pass is ever needed.
    Any hashable labels are relabelled that way.  A builder whose ids are
    already canonical passes their block count as ``_count`` and skips the
    relabelling.
    """

    __slots__ = ("size", "ids", "_count", "_blocks")

    def __init__(self, ids: Iterable[Hashable], *, _count: Optional[int] = None):
        if _count is None:
            relabel: dict[Hashable, int] = {}
            ids = [relabel.setdefault(x, len(relabel)) for x in ids]
            _count = len(relabel)
        self.ids = tuple(ids)
        self.size = len(self.ids)
        self._count = _count
        self._blocks: Optional[tuple[tuple[int, ...], ...]] = None

    def block_count(self) -> int:
        return self._count

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

    def same_block(self, a: int, b: int) -> bool:
        return self.ids[a] == self.ids[b]

    def is_discrete(self) -> bool:
        return self.block_count() == self.size

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self.ids == other.ids

    def __hash__(self) -> int:
        return hash(self.ids)

    def __repr__(self) -> str:
        return f"Partition({self.block_count()} blocks on {self.size} flags)"


def join(part: Partition, row: Sequence[int]) -> Partition:
    """``part`` with the blocks of ``v`` and ``row[v]`` merged for every
    ``v`` in ``range(part.size)``; ``part`` itself when nothing merges.

    The union runs on block ids and keeps the smaller id as the root.  Blocks
    are ordered by smallest flag, so numbering the roots in block order keeps
    the ids canonical.
    """
    ids = part.ids
    parent = list(range(part.block_count()))
    for a, b in set(zip(ids, map(ids.__getitem__, row))):
        while a != parent[a]:
            parent[a] = a = parent[parent[a]]
        while b != parent[b]:
            parent[b] = b = parent[parent[b]]
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    # Every parent sits below its child, so new[up] already names the root.
    new: list[int] = []
    count = 0
    for x, up in enumerate(parent):
        if up == x:
            new.append(count)
            count += 1
        else:
            new.append(new[up])
    if count == len(parent):
        return part
    return Partition(tuple(map(new.__getitem__, ids)), _count=count)


def components(graph: ColouredGraph, colours: Iterable[int]) -> Partition:
    """Connected components of the subgraph using only ``colours`` edges."""
    cols = sorted(
        {index_in_range(c, graph.rank, OutOfRange, "colour") for c in colours}
    )
    part = Partition(range(graph.size), _count=graph.size)
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


def split_pair(coarse: Partition, fine: Partition) -> tuple[int, int]:
    """First flag pair (canonical block order) joined by ``coarse`` but
    separated by ``fine``."""
    for block in coarse.blocks():
        tid = fine.ids[block[0]]
        for f in block[1:]:
            if fine.ids[f] != tid:
                return block[0], f
    raise InconsistentVerdicts("partitions compared unequal but nothing splits")


def meet_all(parts: Iterable[Partition]) -> Partition:
    """Meet of a non-empty iterable of partitions."""
    it = iter(parts)
    try:
        acc = next(it)
    except StopIteration:
        raise OutOfRange("meet_all needs at least one partition") from None
    for p in it:
        acc = partition_meet(acc, p)
    return acc


def is_connected(graph: ColouredGraph) -> bool:
    return components(graph, graph.colours()).block_count() == 1


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
    while stack:
        v = stack.pop()
        for c in range(g.rank):
            w = g.matchings[c][v]
            img = h.matchings[c][phi[v]]
            if phi[w] == -1:
                phi[w] = img
                stack.append(w)
            elif phi[w] != img:
                return None
    if -1 in phi:
        return None
    return tuple(phi)
