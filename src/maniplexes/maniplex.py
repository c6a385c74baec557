"""Maniplexes: connected properly coloured graphs whose distant colours commute.

A maniplex of rank ``n`` is a connected :class:`~maniplexes.graphs.ColouredGraph`
in which every pair of colours ``i, j`` with ``|i - j| > 1`` commutes pointwise
(equivalently, their 2-factors are 4-cycles).  This module provides the
validated wrapper, faces (components with one colour removed), the
low/high factorisation of middle-rank faces, and rewriting of coloured paths
into colour-window-ordered segments.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice
from operator import lt
from typing import Iterable, Optional, Sequence

from .errors import (
    BadTwoFactor,
    Disconnected,
    InconsistentVerdicts,
    OutOfRange,
    PathUsesPivotColour,
    RankOutOfRange,
)
from .graphs import (
    ColouredGraph,
    Partition,
    build_graph,
    component_rows,
    discrete,
    first_split,
    gather,
    index_in_range,
    join,
    pair_join,
)


@dataclass(frozen=True)
class Face:
    """A rank-``i`` face: one component of the graph with colour ``i`` removed.

    ``index`` is the face's position in the canonical component order
    (ascending smallest flag); ``rep`` is that smallest flag.
    """

    rank: int
    index: int
    rep: int
    flags: frozenset[int]

    def __repr__(self) -> str:
        return f"Face(rank={self.rank}, index={self.index}, size={len(self.flags)})"


@dataclass(frozen=True)
class FaceFactors:
    """Low/high factorisation data of a middle-rank face.

    ``below`` is the component through the face's representative using only
    colours under the face rank, ``above`` the one using only colours over it.
    The coordinate map ``below x above -> face`` is always a covering of
    constant degree ``covering_degree``; the face is their cartesian product
    exactly when ``is_product``, which is when that degree is 1.
    """

    face: Face
    below: tuple[int, ...]
    above: tuple[int, ...]
    covering_degree: int
    is_product: bool


@dataclass(frozen=True)
class ColouredPath:
    """A walk recorded as its start flag and the colour of each step."""

    start: int
    colours: tuple[int, ...]
    end: int


class Maniplex:
    """A validated maniplex over a properly coloured graph.

    Raises :class:`Disconnected` or :class:`BadTwoFactor` (first offending
    colour pair and flag in scan order) when the axioms fail.  A graph in
    which every flag but 0 has a neighbour numbered below it, as in every
    breadth-first numbering (the mix's and :func:`~maniplexes.graphs.orbit`'s),
    is connected, so its validation builds no partition; any other graph's
    connectivity is decided by its components over all colours.  Component
    partitions are cached per colour subset, and nothing is kept per colour.
    Which neighbouring colours commute is read on the first partition built
    after validation, and the split results of the intersection criteria are
    cached per unordered mask pair, as is the incidence table of the induced
    poset once it is built.
    """

    def __init__(self, graph: ColouredGraph):
        self.graph = graph
        self.rank = graph.rank
        self.size = graph.size
        self._parts = {0: discrete(self.size)}
        self._faces: dict[int, tuple[Face, ...]] = {}
        self._splits: dict[tuple[int, int], Optional[tuple[int, int]]] = {}
        # The face counts and incidence table of the induced poset, built by
        # posets.induced_poset on its first call.
        self._poset: Optional[tuple] = None
        # Bit c of _links is set when colours c and c + 1 do not commute.
        # Validation counts every neighbour pair as not commuting.
        self._links: Optional[int] = -1
        self._validate()
        self._links = None

    def _validate(self) -> None:
        g = self.graph
        rows = g.matchings
        # If every flag v > 0 has a neighbour below v, induction on v joins
        # each flag to flag 0, so the graph is connected; every breadth-first
        # numbering passes.  A component without flag 0 fails at its lowest
        # flag, so only a graph that fails reads its components.
        lowest = map(min, *rows) if g.rank > 1 else rows[0]
        if not all(map(lt, islice(lowest, 1, None), g.flags()[1:])):
            full = self._components((1 << g.rank) - 1)
            split = first_split(full)
            if split is not None:
                raise Disconnected(*split)
        # gathers[j](mi)[v] is mi[mj[v]]: colours i and j commute exactly
        # when the two compositions agree.  Only a failing pair is scanned,
        # for its first flag.
        gathers = [gather(row) for row in rows]
        for i in range(g.rank):
            for j in range(i + 2, g.rank):
                mi, mj = rows[i], rows[j]
                if gathers[j](mi) != gathers[i](mj):
                    for v in g.flags():
                        if mi[mj[v]] != mj[mi[v]]:
                            raise BadTwoFactor(i, j, v)

    # -- components and faces -------------------------------------------------

    def components_of(self, colours: Iterable[int]) -> Partition:
        """Cached component partition of the subgraph on ``colours``."""
        mask = 0
        for c in colours:
            mask |= 1 << index_in_range(c, self.rank, OutOfRange, "colour")
        return self._components(mask)

    def _components(self, mask: int) -> Partition:
        """Cached components over the colours in ``mask``.

        A colour of ``mask`` that commutes with the rest of ``mask`` maps
        each component over the rest onto one component: the lowest such
        colour pairs the blocks over ``mask`` without it
        (:func:`~maniplexes.graphs.pair_join`).  Distant colours commute, so
        a colour commutes with the rest when each neighbour it has in
        ``mask`` commutes with it.  Any other mask joins those over ``mask``
        without its top colour along that colour.  Validation counts no
        neighbours as commuting, so when it needs the components over all
        colours it reaches such a colour only at mask 1, from singletons,
        and does not rely on the axiom it checks.
        """
        part = self._parts.get(mask)
        if part is None:
            links = self._links
            if links is None:
                links = self._links = self._noncommuting_neighbours()
            lone = mask & ~((links & mask >> 1) | (links & mask) << 1)
            c = (lone & -lone if lone else mask).bit_length() - 1
            prefix = self._components(mask ^ (1 << c))
            part = (pair_join if lone else join)(prefix, self.graph.matchings[c])
            self._parts[mask] = part
        return part

    def _noncommuting_neighbours(self) -> int:
        """The mask of the colours ``c`` for which ``c`` and ``c + 1`` do
        not commute, each decided by one whole-row gather comparison."""
        rows = self.graph.matchings
        links = 0
        for c in range(self.rank - 1):
            if gather(rows[c + 1])(rows[c]) != gather(rows[c])(rows[c + 1]):
                links |= 1 << c
        return links

    def _face_rank(self, i: int) -> int:
        return index_in_range(i, self.rank, RankOutOfRange, "face rank")

    def face_partition(self, i: int) -> Partition:
        """The rank-``i`` faces as the components over every colour but
        ``i``: ``ids[v]`` is the index of the face through flag ``v``."""
        i = self._face_rank(i)
        return self._components((1 << self.rank) - 1 - (1 << i))

    def flag_face_ids(self) -> list[tuple[int, ...]]:
        """Per flag, the ids of its faces of ranks ``0..rank-1``."""
        return list(zip(*(self.face_partition(i).ids for i in range(self.rank))))

    def faces(self, i: int) -> tuple[Face, ...]:
        """All rank-``i`` faces in canonical order (by smallest flag)."""
        i = self._face_rank(i)
        cached = self._faces.get(i)
        if cached is None:
            cached = tuple(
                Face(rank=i, index=k, rep=block[0], flags=frozenset(block))
                for k, block in enumerate(self.face_partition(i).blocks())
            )
            self._faces[i] = cached
        return cached

    def face_of(self, i: int, flag: int) -> Face:
        """The rank-``i`` face containing ``flag``."""
        i, flag = self._face_rank(i), self.graph.check_flag(flag)
        return self.faces(i)[self.face_partition(i).ids[flag]]

    def neighbour(self, colour: int, flag: int) -> int:
        return self.graph.neighbour(colour, flag)

    # -- face factorisation ---------------------------------------------------

    def _own_face(self, face: Face) -> None:
        """:class:`OutOfRange` unless ``face`` is a face of this maniplex."""
        faces = self.faces(index_in_range(face.rank, self.rank, OutOfRange, "rank"))
        if faces[index_in_range(face.index, len(faces), OutOfRange, "index")] != face:
            raise OutOfRange(f"{face!r} is not a face of this maniplex")

    def face_factors(self, face: Face) -> FaceFactors:
        """Split a middle-rank face into its low-colour and high-colour parts.

        Only defined for ``1 <= face.rank <= rank - 2``; the extreme ranks
        have an empty colour side and raise :class:`RankOutOfRange`.  A face
        of another maniplex raises :class:`OutOfRange`.

        Colours below and above the face rank ``i`` differ by at least 2 and
        commute pointwise, so ``(u(rep), w(rep)) -> u(w(rep))``, for words
        ``u`` in the low colours and ``w`` in the high ones, is well defined
        on ``below x above``.  It is onto the face, as a word in the other
        colours reorders into low ones then high ones.  So ``is_product``,
        each low block of the face meeting ``above`` once and each high block
        meeting ``below`` once, holds exactly at degree 1, a bijection.
        """
        self._own_face(face)
        i = face.rank
        if not 1 <= i <= self.rank - 2:
            raise RankOutOfRange(
                f"face rank {i} has no two-sided factorisation in rank {self.rank}"
            )
        below = self.components_of(range(i)).block_of(face.rep)
        above = self.components_of(range(i + 1, self.rank)).block_of(face.rep)
        degree, rem = divmod(len(below) * len(above), len(face.flags))
        if rem:
            raise InconsistentVerdicts("the low/high map must have constant degree")
        return FaceFactors(face, below, above, degree, degree == 1)

    def face_as_maniplex(self, face: Face) -> "Maniplex":
        """A bottom or top face re-indexed as a maniplex of rank ``n - 1``.

        Rank-0 faces keep colours ``1..n-1`` shifted down by one; rank-``n-1``
        faces keep colours ``0..n-2``.  Middle ranks have a colour gap and are
        rejected, and a face of another maniplex raises :class:`OutOfRange`.
        """
        self._own_face(face)
        n = self.rank
        if n < 2:
            raise RankOutOfRange("no proper face is a maniplex below rank 2")
        if face.rank == 0:
            colours = range(1, n)
        elif face.rank == n - 1:
            colours = range(n - 1)
        else:
            raise RankOutOfRange(
                f"face rank {face.rank} keeps a colour gap; only ranks 0 and "
                f"{n - 1} re-index to maniplexes"
            )
        rows = [self.graph.matchings[c] for c in colours]
        return Maniplex(build_graph(n - 1, component_rows(rows, face.rep)))


def validate(graph: ColouredGraph) -> Maniplex:
    """Check the maniplex axioms and wrap the graph."""
    return Maniplex(graph)


def walk(m: Maniplex, start: int, colours: Iterable[int]) -> int:
    """The flag reached from ``start`` applying matchings in order."""
    v = m.graph.check_flag(start)
    for c in colours:
        v = m.graph.neighbour(c, v)
    return v


def make_path(m: Maniplex, start: int, colours: Iterable[int]) -> ColouredPath:
    cols = tuple(colours)
    return ColouredPath(start=start, colours=cols, end=walk(m, start, cols))


def normalize_path(
    m: Maniplex, path: ColouredPath, pivots: Sequence[int]
) -> list[ColouredPath]:
    """Rewrite ``path`` into segments filling the windows between ``pivots``.

    ``pivots`` is a strictly increasing colour list ``i_1 < ... < i_k`` that
    the path avoids.  The word is rewritten by cancelling equal adjacent
    steps and swapping adjacent steps whose colours differ by more than one
    (sound because such colours commute pointwise), until the sequence of
    window indices is non-decreasing.  The result is ``k + 1`` paths, the
    ``j``-th using only colours strictly between ``i_j`` and ``i_{j+1}``
    (with sentinels ``i_0 = -1`` and ``i_{k+1} = rank``), whose concatenation
    joins ``path.start`` to ``path.end``.  Rewriting never lengthens the word.
    """
    piv = [index_in_range(c, m.rank, OutOfRange, "pivot") for c in pivots]
    if piv != sorted(set(piv)):
        raise OutOfRange("pivots must be strictly increasing")
    for c in path.colours:
        if c in piv:
            raise PathUsesPivotColour(f"path step uses pivot colour {c}")
    if walk(m, path.start, path.colours) != path.end:
        raise OutOfRange(f"path end {path.end} is not where its colours lead")

    cols = list(path.colours)
    # Each pass applies the first applicable rule; (length, inversions)
    # drops lexicographically, so this terminates.
    k = 0
    while k < len(cols) - 1:
        a, b = cols[k], cols[k + 1]
        if a == b:
            del cols[k : k + 2]
            k = max(k - 1, 0)
        elif a > b + 1:
            cols[k], cols[k + 1] = b, a
            k = max(k - 1, 0)
        else:
            k += 1

    segments: list[ColouredPath] = []
    at = path.start
    pos = 0
    for window in range(len(piv) + 1):
        seg: list[int] = []
        while pos < len(cols) and bisect_left(piv, cols[pos]) == window:
            seg.append(cols[pos])
            pos += 1
        nxt = walk(m, at, seg)
        segments.append(ColouredPath(start=at, colours=tuple(seg), end=nxt))
        at = nxt
    if pos != len(cols) or at != path.end:
        raise InconsistentVerdicts("rewriting left a colour or moved the endpoint")
    return segments
