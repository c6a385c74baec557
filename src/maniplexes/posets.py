"""Posets induced by maniplexes.

The elements of rank ``i`` are the rank-``i`` faces (components with colour
``i`` removed), ordered by rank together with nonempty flag-set intersection,
plus a bottom and a top face.  Elements are addressed as ``(rank, index)``
pairs; rank ``-1`` and rank ``n`` with index 0 denote the bottom and top.

This module also hosts the shared :class:`CheckResult` verdict type, the
poset-side polytope checks (uniform chain length, the diamond condition,
strong flag connectivity, faithfulness of the flag-to-chain map) and the
flag graph of a polytope, read from the chains' one-face steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .errors import InconsistentVerdicts, ManiplexError, NoFlagSets, NotAChain
from .errors import NotAPolytope, NotComparable, OutOfRange, RankOutOfRange
from .graphs import build_graph, discrete, first_split
from .graphs import index_in_range, join
from .maniplex import Face, Maniplex

Ref = tuple[int, int]
Table = tuple[tuple[tuple[tuple[int, ...], ...], ...], ...]


@dataclass(frozen=True)
class CheckResult:
    """A verdict with a deterministic first witness when it fails."""

    holds: bool
    witness: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class MaximalChain:
    """One face per rank from ``-1`` to ``n``, as ``(rank, index)`` refs."""

    faces: tuple[Ref, ...]

    @classmethod
    def through(cls, ids: Sequence[int]) -> "MaximalChain":
        """The chain through face ``ids[r]`` at each proper rank ``r``."""
        return cls(((-1, 0),) + tuple(enumerate(ids)) + ((len(ids), 0),))

    @property
    def proper(self) -> tuple[Ref, ...]:
        return self.faces[1:-1]


@dataclass(frozen=True)
class PosetReport:
    """The poset-side polytopality breakdown."""

    is_ranked_bounded: bool
    uniform_chain_length: CheckResult
    diamond: CheckResult
    strong_flag_connected: CheckResult
    faithful: Optional[CheckResult]
    chain_count: int
    is_polytope: bool


class InducedPoset:
    """A ranked bounded poset held as its incidences.

    ``counts()[r]`` is the number of rank-``r`` elements.  The order lives in
    one incidence table: for proper ranks ``r < s``, ``up[r][s][k]`` lists,
    in ascending order, the rank-``s`` indices above ``(r, k)`` (entries
    with ``s <= r`` are empty).  Improper elements bound everything.  Flag
    sets are derived on request from ``source``: the maniplex the poset was
    induced from or, for a section, the ``(poset, a, b, kept)`` it was cut
    from, ``kept[r]`` listing that poset's indices of the rank-``r``
    elements.  A poset with no source has no flag sets.
    """

    def __init__(self, n: int, counts: Iterable[int], up: Table, source=None):
        self.n = n
        self._counts = tuple(counts)
        self.up = up
        self.source = source
        self._chains: Optional[tuple[tuple[int, ...], ...]] = None
        self._report: Optional[PosetReport] = None

    # -- basic structure ------------------------------------------------------

    def counts(self) -> tuple[int, ...]:
        return self._counts

    def refs(self, include_improper: bool = False) -> Iterator[Ref]:
        if include_improper:
            yield (-1, 0)
        for r, count in enumerate(self._counts):
            for k in range(count):
                yield (r, k)
        if include_improper:
            yield (self.n, 0)

    def _check_ref(self, ref: Ref) -> Ref:
        """``ref`` with integer parts, or :class:`OutOfRange`."""
        try:
            r, k = ref
        except (TypeError, ValueError):
            raise OutOfRange(f"face {ref!r} is not a (rank, index) pair") from None
        r = index_in_range(r, self.n + 1, OutOfRange, "rank", start=-1)
        faces = 1 if r in (-1, self.n) else self._counts[r]
        return r, index_in_range(k, faces, OutOfRange, f"rank {r} face")

    def flags_of(self, ref: Ref) -> frozenset[int]:
        r, k = self._check_ref(ref)
        improper = r == -1 or r == self.n
        src = self.source
        if src is None:
            raise NoFlagSets("a poset built without a maniplex has no flag sets")
        if isinstance(src, Maniplex):
            if improper:
                return frozenset(range(src.size))
            return frozenset(src.face_partition(r).blocks()[k])
        parent, a, b, kept = src
        if improper:
            return parent.flags_of(a) & parent.flags_of(b)
        return parent.flags_of((a[0] + 1 + r, kept[r][k]))

    @property
    def universe(self) -> frozenset[int]:
        """The flag set of both improper elements."""
        return self.flags_of((-1, 0))

    def leq(self, a: Ref, b: Ref) -> bool:
        """Order relation: equal, or lower rank and incident."""
        a, b = self._check_ref(a), self._check_ref(b)
        return a == b or b[1] in _above(self, a, b[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InducedPoset):
            return NotImplemented
        return (self.n, self._counts, self.up) == (other.n, other._counts, other.up)

    def __hash__(self) -> int:
        return hash((self.n, self._counts, self.up))

    # -- chains ---------------------------------------------------------------

    def _chain_tuples(self) -> tuple[tuple[int, ...], ...]:
        """All maximal chains as per-rank face indices, in lex order."""
        if self._chains is None:
            n = self.n
            chains = [(k,) for k in range(self._counts[0])] if n > 0 else [()]
            for r in range(n - 1):
                ups = self.up[r][r + 1]
                chains = [ch + (k,) for ch in chains for k in ups[ch[-1]]]
            self._chains = tuple(chains)
        return self._chains

    def _chain_steps(self) -> Iterator[list[int]]:
        """Per rank ``r`` in turn, the one-face steps: each chain's index goes
        to that of the first chain equal to it except at rank ``r``."""
        for r in range(self.n):
            first: dict[tuple[int, ...], int] = {}
            keys = (ch[:r] + ch[r + 1 :] for ch in self._chain_tuples())
            yield [first.setdefault(k, t) for t, k in enumerate(keys)]

    def maximal_chains(self) -> tuple[MaximalChain, ...]:
        return tuple(map(MaximalChain.through, self._chain_tuples()))

    def report(self) -> PosetReport:
        if self._report is None:
            self._report = _build_report(self)
        return self._report


def _above(p: InducedPoset, ref: Ref, s: int) -> Sequence[int]:
    """Indices of the rank-``s`` elements strictly above ``ref``."""
    r, k = ref
    if r >= s:
        return ()
    if s == p.n:
        return range(1)
    if r == -1:
        return range(p.counts()[s])
    return p.up[r][s][k]


def induced_poset(m: Maniplex) -> InducedPoset:
    """The face poset of a maniplex, with one level per colour.

    A face's index is its block id in the colour-``i``-removed partition
    (both order faces by smallest flag), and two faces meet exactly when
    some flag carries both ids, so one pass over the flags per rank pair
    yields the incidence table.  The counts and the table are built once
    per maniplex and kept with its other caches; each call wraps them in a
    new poset whose source is ``m``.  The maniplex keeps no poset, so no
    reference cycle delays freeing it.
    """
    if m._poset is None:
        m._poset = _incidences(m)
    return InducedPoset(m.rank, *m._poset, m)


def _incidences(m: Maniplex) -> tuple[tuple[int, ...], Table]:
    """The face counts of ``m`` per rank and its incidence table."""
    n = m.rank
    parts = [m.face_partition(i) for i in range(n)]
    up = []
    for r in range(n):
        row: list[tuple[tuple[int, ...], ...]] = [()] * n
        for s in range(r + 1, n):
            acc: list[list[int]] = [[] for _ in range(parts[r].block_count())]
            for k, l in sorted(set(zip(parts[r].ids, parts[s].ids))):
                acc[k].append(l)
            row[s] = tuple(map(tuple, acc))
        up.append(tuple(row))
    return tuple(part.block_count() for part in parts), tuple(up)


def maximal_chains(p: InducedPoset) -> tuple[MaximalChain, ...]:
    return p.maximal_chains()


def chain_intersection(
    p: "InducedPoset | Maniplex", faces: Iterable[object]
) -> frozenset[int]:
    """Common flags of a chain (pairwise comparable faces).

    The first argument may be an :class:`InducedPoset` or a
    :class:`~maniplexes.maniplex.Maniplex` (whose induced poset is built on
    its first use and kept).  Faces may be ``(rank, index)`` pairs or
    :class:`~maniplexes.maniplex.Face` objects of the maniplex the poset
    was induced from; any other ``Face`` raises :class:`OutOfRange`.
    Improper refs are allowed and contribute the full flag universe.  Two
    distinct proper faces of equal rank, or an incomparable pair, raise
    :class:`NotAChain`.  The result is never empty for a valid chain.
    """
    if isinstance(p, Maniplex):
        p = induced_poset(p)
    refs: set[Ref] = set()
    for f in faces:
        if isinstance(f, Face):
            if not isinstance(p.source, Maniplex):
                raise OutOfRange(f"{f!r} is not a face of this poset's maniplex")
            p.source._own_face(f)
            f = (f.rank, f.index)
        refs.add(p._check_ref(f))
    proper = [ref for ref in sorted(refs) if 0 <= ref[0] < p.n]
    for i, a in enumerate(proper):
        for b in proper[i + 1 :]:
            if a[0] == b[0]:
                raise NotAChain(f"faces {a} and {b} share rank {a[0]}")
            if b[1] not in p.up[a[0]][b[0]][a[1]]:
                raise NotAChain(f"faces {a} and {b} are incomparable")
    inter = p.universe
    for ref in proper:
        inter = inter & p.flags_of(ref)
    if not inter:
        raise InconsistentVerdicts("a chain of faces must share a flag")
    return inter


def all_chains(p: InducedPoset) -> Iterator[tuple[Ref, ...]]:
    """Every nonempty chain of proper faces, in lexicographic DFS order."""
    chosen: list[Ref] = []

    def rec(next_rank: int) -> Iterator[tuple[Ref, ...]]:
        for r in range(next_rank, p.n):
            for k in range(p.counts()[r]):
                if all(k in p.up[q][r][j] for q, j in chosen):
                    chosen.append((r, k))
                    yield tuple(chosen)
                    yield from rec(r + 1)
                    chosen.pop()

    yield from rec(0)


def section(p: InducedPoset, a: Ref, b: Ref) -> InducedPoset:
    """The interval ``{h : a <= h <= b}`` re-ranked with ``a, b`` improper.

    Incidences are the ambient ones, re-indexed in ascending order, so a
    section keeps the ambient order; its flag sets are derived through ``p``.
    """
    a, b = p._check_ref(a), p._check_ref(b)
    if a == b or not p.leq(a, b):
        raise NotComparable(f"{a} is not strictly below {b}")
    ranks = range(a[0] + 1, b[0])
    kept = [
        [k for k in _above(p, a, r) if b[1] in _above(p, (r, k), b[0])]
        for r in ranks
    ]
    new = [{k: i for i, k in enumerate(ks)} for ks in kept]
    up = tuple(
        tuple(
            tuple(tuple(ids[l] for l in p.up[r][s][k] if l in ids) for k in ks)
            if s > r
            else ()
            for s, ids in zip(ranks, new)
        )
        for r, ks in zip(ranks, kept)
    )
    return InducedPoset(b[0] - a[0] - 1, map(len, kept), up, (p, a, b, kept))


# -- faithfulness -------------------------------------------------------------


def chain_of_flag(m: Maniplex, flag: int) -> MaximalChain:
    """The faces through one flag, one per rank, with the improper ends."""
    flag = m.graph.check_flag(flag)
    return MaximalChain.through(
        [m.face_partition(i).ids[flag] for i in range(m.rank)]
    )


def is_faithful(m: Maniplex) -> CheckResult:
    """Whether distinct flags always lie on distinct maximal chains.

    The singletons must equal the classes of the face-id tuples, which
    :func:`~maniplexes.graphs.first_split` decides.  A failure witness is
    ``(chain, (flag_a, flag_b))``: the smallest flag sharing every face with
    a later flag, and the smallest such later flag.
    """
    ids = (m.face_partition(i).ids for i in range(m.rank))
    split = first_split(discrete(m.size), *ids)
    if split is None:
        return CheckResult(True)
    return CheckResult(False, (chain_of_flag(m, split[0]), split))


# -- polytope conditions ------------------------------------------------------


def uniform_chain_length(p: InducedPoset) -> CheckResult:
    """Whether every maximal chain of the order has one face per rank.

    Equivalent local form: every strict pair with a rank gap admits an
    intermediate element one rank above the lower face.  The witness is the
    first such pair ``(a, b)`` in ref order.
    """
    return _sections(p)[0]


def diamond(p: InducedPoset) -> CheckResult:
    """Whether each rank gap of two is filled by exactly two middle faces.

    For every ``i`` in ``0..n-1`` and incident faces ``E`` of rank ``i - 1``
    and ``F`` of rank ``i + 1`` there must be exactly two rank-``i`` faces
    between them.  The witness is the first ``(E, F, count)`` violation.
    """
    return _sections(p)[1]


def strong_flag_connectivity(p: InducedPoset) -> CheckResult:
    """Whether any two maximal chains are joined by single-face steps
    through chains containing their common faces.

    A chain through two faces varies freely below, between and above them,
    so the condition holds exactly when, for every rank interval ``a..b``
    with ``a < b``, the chains that agree outside ``a..b`` are connected by
    steps changing one face inside it.  For each ``a`` one partition of the
    chains grows with ``b`` by joining the chains equal except at rank
    ``b``; its blocks refine the classes of chains agreeing outside
    ``a..b``, so :func:`~maniplexes.graphs.first_split` decides the
    interval from the faces outside it, read at the block representatives
    alone.  The witness is the first failing chain pair in lex order: the
    least first split pair of a failing interval.
    """
    chains = p._chain_tuples()
    cols = tuple(zip(*chains))
    # steps[b] sends each chain to the first chain equal to it except at
    # rank b; a chain's step never comes after it, so join reads only the
    # chains the step moves.
    steps = list(p._chain_steps())
    pairs: list[tuple[int, int]] = []
    for a in range(p.n - 1):
        comps = join(discrete(len(chains)), steps[a])
        for b in range(a + 1, p.n):
            comps = join(comps, steps[b])
            split = first_split(comps, *cols[:a], *cols[b + 1 :])
            if split is not None:
                pairs.append(split)
    if not pairs:
        return CheckResult(True)
    t1, t2 = min(pairs)
    return CheckResult(
        False, (MaximalChain.through(chains[t1]), MaximalChain.through(chains[t2]))
    )


def _sections(p: InducedPoset) -> tuple[CheckResult, CheckResult, bool]:
    """Uniform chain length, the diamond condition and whether every section
    is connected, from one walk over each section's lowest rank.

    The walk visits every ``f < g`` with a rank gap of two or more
    (improper elements included), ``f`` in ref order and then ``g`` by rank
    and index, and forms ``vs``, the elements of the lowest rank strictly
    between them.  The first empty ``vs`` is the uniform chain length
    witness ``(f, g)``, and the first of size other than two at a gap of
    two is the diamond witness ``(f, g, len(vs))``.

    On a poset with both (a prepolytope), strong flag connectivity holds
    exactly when the elements strictly between every ``f < g`` with a gap
    of three or more are connected under consecutive-rank incidence
    (McMullen & Schulte, *Abstract Regular Polytopes*, 2A).  There every
    element between ``f`` and ``g`` lies above one of ``vs``, and two of
    those below some ``h`` are connected below ``h`` when the smaller
    section ``h/f`` is.  So every section is connected exactly when, in
    every section, ``vs`` is connected through the elements one rank up.
    The sections with a gap of three or more are collected while neither
    check has failed, and walked over those two ranks only once both have
    held to the end.  The third answer is True only on a prepolytope whose
    sections are all connected.
    """
    n = p.n
    # below[s][r][l]: the rank-r indices below (s, l), the transposed table
    below = [
        [[[] for _ in range(p.counts()[s])] for _ in range(s)] for s in range(n)
    ]
    for r in range(n):
        for s in range(r + 1, n):
            for k, ls in enumerate(p.up[r][s]):
                for l in ls:
                    below[s][r][l].append(k)
    uniform = dia = CheckResult(True)
    sections = []  # (lo, vs, next_up, s, g) of each gap of three or more
    for f in p.refs(include_improper=True):
        lo = f[0] + 1
        if lo >= n or not (uniform.holds or dia.holds):
            break  # no later f has a gap of two (refs come by rank), or both failed
        low, next_up = set(_above(p, f, lo)), set(_above(p, f, lo + 1))
        for s in range(lo + 1, n + 1):
            for g in _above(p, f, s):
                vs = low if s == n else low.intersection(below[s][lo][g])
                if not vs and uniform.holds:
                    uniform = CheckResult(False, (f, (s, g)))
                if s == lo + 1:
                    if len(vs) != 2 and dia.holds:
                        dia = CheckResult(False, (f, (s, g), len(vs)))
                elif uniform.holds and dia.holds:
                    sections.append((lo, vs, next_up, s, g))
    if not (uniform.holds and dia.holds):
        return uniform, dia, False
    for lo, vs, next_up, s, g in sections:
        ups, downs = p.up[lo][lo + 1], below[lo + 1][lo]
        es = next_up.intersection(below[s][lo + 1][g]) if s < n else next_up
        v = min(vs)
        seen, stack = {v}, [v]
        while stack:
            for e in ups[stack.pop()]:
                if e in es:
                    for w in downs[e]:
                        if w in vs and w not in seen:
                            seen.add(w)
                            stack.append(w)
        if len(seen) != len(vs):
            return uniform, dia, False
    return uniform, dia, True


def _chain_count(p: InducedPoset) -> int:
    """``len(p._chain_tuples())``, counted rank by rank over ``up``."""
    if p.n == 0:
        return 1
    ways = [1] * p.counts()[0]
    for r in range(p.n - 1):
        nxt = [0] * p.counts()[r + 1]
        for k, ups in enumerate(p.up[r][r + 1]):
            for l in ups:
                nxt[l] += ways[k]
        ways = nxt
    return sum(ways)


def _build_report(p: InducedPoset) -> PosetReport:
    """The poset checks.  A prepolytope whose sections are connected is
    strongly flag-connected; any other poset pays for its chains, which
    name the witness of a failure."""
    uniform, dia, connected = _sections(p)
    sfc = CheckResult(True) if connected else strong_flag_connectivity(p)
    faithful = is_faithful(p.source) if isinstance(p.source, Maniplex) else None
    return PosetReport(
        is_ranked_bounded=True,
        uniform_chain_length=uniform,
        diamond=dia,
        strong_flag_connected=sfc,
        faithful=faithful,
        chain_count=_chain_count(p),
        is_polytope=uniform.holds and dia.holds and sfc.holds,
    )


def is_polytope(p: InducedPoset) -> PosetReport:
    """Ranked + uniform chains + diamond + strong flag connectivity."""
    return p.report()


def flag_graph(p: InducedPoset) -> Maniplex:
    """The maniplex on the maximal chains of a polytope, in lex order.

    Colour ``r`` pairs the two chains that differ exactly at rank ``r``: the
    diamond condition makes each class of chains equal except there a pair,
    whose later chain steps to its first, and the first goes to the last
    chain that steps to it.  Raises :class:`RankOutOfRange` on a poset of
    rank 0, whose one chain has no colour, and :class:`NotAPolytope` on any
    other poset that is not a polytope.
    """
    if p.n == 0:
        raise RankOutOfRange("a poset of rank 0 has no flag graph")
    rep = p.report()
    if not rep.is_polytope:
        names = ("uniform chain length", "diamond", "strong flag connectivity")
        checks = (rep.uniform_chain_length, rep.diamond, rep.strong_flag_connected)
        failed = [name for name, res in zip(names, checks) if not res.holds]
        raise NotAPolytope("the poset fails: " + ", ".join(failed))
    rows = []
    for first in p._chain_steps():
        row = list(first)
        for t, s in enumerate(first):
            row[s] = t
        rows.append(row)
    try:
        return Maniplex(build_graph(p.n, rows))
    except ManiplexError as err:
        raise NotAPolytope(f"the chain graph is not a maniplex: {err}") from err
