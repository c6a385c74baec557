"""Posets induced by maniplexes.

The elements of rank ``i`` are the rank-``i`` faces (components with colour
``i`` removed), ordered by rank together with nonempty flag-set intersection,
plus a bottom and a top face.  Elements are addressed as ``(rank, index)``
pairs; rank ``-1`` and rank ``n`` with index 0 denote the bottom and top.

This module also hosts the shared :class:`CheckResult` verdict type and the
poset-side polytope checks: uniform chain length, the diamond condition,
strong flag connectivity, and faithfulness of the flag-to-chain map.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .errors import InconsistentVerdicts, NoFlagSets, NotAChain, NotComparable
from .errors import OutOfRange
from .graphs import Partition, index_in_range, join, split_pair
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
    yields the incidence table.
    """
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
    return InducedPoset(n, [part.block_count() for part in parts], tuple(up), m)


def maximal_chains(p: InducedPoset) -> tuple[MaximalChain, ...]:
    return p.maximal_chains()


def chain_intersection(
    p: "InducedPoset | Maniplex", faces: Iterable[object]
) -> frozenset[int]:
    """Common flags of a chain (pairwise comparable faces).

    The first argument may be an :class:`InducedPoset` or a
    :class:`~maniplexes.maniplex.Maniplex` (whose induced poset is built on
    the fly).  Faces may be ``(rank, index)`` pairs or
    :class:`~maniplexes.maniplex.Face` objects.  Improper refs are allowed
    and contribute the full flag universe.  Two distinct proper faces of
    equal rank, or an incomparable pair, raise :class:`NotAChain`.  The
    result is never empty for a valid chain.
    """
    if isinstance(p, Maniplex):
        p = induced_poset(p)
    refs = sorted(
        {p._check_ref((f.rank, f.index) if isinstance(f, Face) else f) for f in faces}
    )
    proper = [ref for ref in refs if 0 <= ref[0] < p.n]
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

    Checked by counting the distinct face-id tuples of the flags.  A failure
    witness is ``(chain, (flag_a, flag_b))``: the smallest flag sharing every
    face with a later flag, and the smallest such later flag.
    """
    tuples = m.flag_face_ids()
    count = Counter(tuples)
    if len(count) == m.size:
        return CheckResult(True)
    a = next(v for v, t in enumerate(tuples) if count[t] > 1)
    b = tuples.index(tuples[a], a + 1)
    return CheckResult(False, (chain_of_flag(m, a), (a, b)))


# -- polytope conditions ------------------------------------------------------


def uniform_chain_length(p: InducedPoset) -> CheckResult:
    """Whether every maximal chain of the order has one face per rank.

    Equivalent local form: every strict pair with a rank gap admits an
    intermediate element one rank above the lower face.  The witness is the
    first such pair ``(a, b)`` in ref order.
    """
    for a in p.refs(include_improper=True):
        r = a[0] + 1
        for s in range(r + 1, p.n + 1):
            reached = {
                l for mid in _above(p, a, r) for l in _above(p, (r, mid), s)
            }
            for l in _above(p, a, s):
                if l not in reached:
                    return CheckResult(False, (a, (s, l)))
    return CheckResult(True)


def diamond(p: InducedPoset) -> CheckResult:
    """Whether each rank gap of two is filled by exactly two middle faces.

    For every ``i`` in ``0..n-1`` and incident faces ``E`` of rank ``i - 1``
    and ``F`` of rank ``i + 1`` there must be exactly two rank-``i`` faces
    between them.  The witness is the first ``(E, F, count)`` violation.
    """
    for i in range(p.n):
        for k in range(p.counts()[i - 1] if i > 0 else 1):
            e = (i - 1, k)
            between = Counter(
                l for g in _above(p, e, i) for l in _above(p, (i, g), i + 1)
            )
            for l in _above(p, e, i + 1):
                if between[l] != 2:
                    return CheckResult(False, (e, (i + 1, l), between[l]))
    return CheckResult(True)


def strong_flag_connectivity(p: InducedPoset) -> CheckResult:
    """Whether any two maximal chains are joined by single-face steps
    through chains containing their common faces.

    A chain through two faces varies freely below, between and above them,
    so the condition holds exactly when, for every rank interval ``a..b``
    with ``a < b``, the chains that agree outside ``a..b`` are connected by
    steps changing one face inside it.  For each ``a`` one partition of the
    chains grows with ``b`` by joining the chains equal except at rank
    ``b``; its blocks refine the classes of chains agreeing outside
    ``a..b``, so equal block counts decide the interval.  The witness is
    the first failing chain pair in lex order: the least first split pair
    of a failing interval.
    """
    chains = p._chain_tuples()
    # rep[b][t]: the first chain equal to chain t except at rank b
    rep = []
    for b in range(p.n):
        first: dict[tuple[int, ...], int] = {}
        keys = (ch[:b] + ch[b + 1 :] for ch in chains)
        rep.append([first.setdefault(k, t) for t, k in enumerate(keys)])
    pairs: list[tuple[int, int]] = []
    discrete = Partition(range(len(chains)), _count=len(chains))
    for a in range(p.n - 1):
        comps = join(discrete, rep[a])
        for b in range(a + 1, p.n):
            comps = join(comps, rep[b])
            classes = Partition([ch[:a] + ch[b + 1 :] for ch in chains])
            if classes.block_count() != comps.block_count():
                pairs.append(split_pair(classes, comps))
    if not pairs:
        return CheckResult(True)
    t1, t2 = min(pairs)
    chain_list = p.maximal_chains()
    return CheckResult(False, (chain_list[t1], chain_list[t2]))


def _build_report(p: InducedPoset) -> PosetReport:
    uniform = uniform_chain_length(p)
    dia = diamond(p)
    sfc = strong_flag_connectivity(p)
    faithful = is_faithful(p.source) if isinstance(p.source, Maniplex) else None
    return PosetReport(
        is_ranked_bounded=True,
        uniform_chain_length=uniform,
        diamond=dia,
        strong_flag_connected=sfc,
        faithful=faithful,
        chain_count=len(p._chain_tuples()),
        is_polytope=uniform.holds and dia.holds and sfc.holds,
    )


def is_polytope(p: InducedPoset) -> PosetReport:
    """Ranked + uniform chains + diamond + strong flag connectivity."""
    return p.report()


def poset_isomorphic(
    p: InducedPoset, q: InducedPoset
) -> Optional[dict[Ref, Ref]]:
    """An order isomorphism matching ranks, or ``None``.

    Backtracking over proper elements rank by rank, pruned by up/down degree
    profiles; improper elements are mapped to each other implicitly.
    """
    if p.n != q.n or p.counts() != q.counts():
        return None

    def profiles(s: InducedPoset) -> dict[Ref, tuple[int, int]]:
        down = {ref: 0 for ref in s.refs()}
        for r in range(1, s.n):
            for ups in s.up[r - 1][r]:
                for k in ups:
                    down[(r, k)] += 1
        return {
            (r, k): (d, len(s.up[r][r + 1][k]) if r < s.n - 1 else 0)
            for (r, k), d in down.items()
        }

    p_refs = list(p.refs())
    q_prof = profiles(q)
    p_prof = profiles(p)
    if sorted(p_prof.values()) != sorted(q_prof.values()):
        return None

    mapping: dict[Ref, Ref] = {}
    used: set[Ref] = set()

    def rec(pos: int) -> bool:
        if pos == len(p_refs):
            return True
        a = p_refs[pos]
        for k in range(q.counts()[a[0]]):
            b = (a[0], k)
            if b in used or q_prof[b] != p_prof[a]:
                continue
            # Refs are mapped in rank order, so only a2 < a can hold.
            if all(
                (a[1] in _above(p, a2, a[0])) == (b[1] in _above(q, b2, b[0]))
                for a2, b2 in mapping.items()
            ):
                mapping[a] = b
                used.add(b)
                if rec(pos + 1):
                    return True
                del mapping[a]
                used.remove(b)
        return False

    if rec(0):
        out = dict(mapping)
        out[(-1, 0)] = (-1, 0)
        out[(p.n, 0)] = (q.n, 0)
        return out
    return None
