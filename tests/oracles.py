"""Reference implementations the suite checks the library against.

None of these is part of the package.  ``components`` is the package's
former union-find over all of a colour set's matchings, kept verbatim as the
reference for every partition built by ``graphs.join``.
``check_cip_via_chains``, ``faithful_by_chain_count`` and
``faithful_by_enumeration`` are independent oracles for the intersection
property and faithfulness, and ``is_faithful``
is the meet-based faithfulness check the library used to run, kept to pin
its verdict and witness.  ``FlagSets`` holds a poset as the paper states
it, one flag set per element: ``FlagSets.of_maniplex`` finds the faces with
``components`` alone and ``FlagSets.section`` keeps the elements between two
faces by ``leq``.  ``leq``, ``diamond`` and ``uniform_chain_length`` restate
the poset order as the paper defines it, rank plus nonempty flag-set
intersection, and the two checks as plain loops over that relation, with
the library's scan order and witnesses; they are slow and only meant for
comparison.  They read only ``n``, ``counts()`` and ``flags_of``, so they
run on a ``FlagSets`` or on an :class:`InducedPoset` alike.
``strong_flag_connectivity`` is the definition's own scan: one union-find
per subset of ranks, then every chain pair judged in the group of the ranks
where the two agree.  ``strong_flag_connectivity_by_spans`` is the
library's former check, kept verbatim to pin its verdict and witness: a
union-find per span of positions in the chains padded with their improper
ends, one keyed pass per interior position.  ``split_pair`` is the
library's former split test, kept verbatim: it walks the blocks of the
coarse partition for the first flag the fine one separates from its
block's smallest flag.  ``split`` is the library's former intersection
test, which counted the meet's blocks over every flag instead of at the
target's smallest flags and named a failing pair with ``split_pair`` on
the flag-level meet.  ``check_cip``,
``check_wpip`` and ``check_spip`` are the three partition criteria as separate
meet-and-compare loops: CIP meets all ``|S|`` single-colour-removed
partitions of each subset, and SPIP above rank 6 translates the interval
witness.  ``are_isomorphic`` and ``find_covering`` are the library's former
searches, kept verbatim: every flag of the target is tried as the image of
flag 0, in ascending order, with no pruning, and ``are_isomorphic`` checks
that both graphs are connected (one component over every colour) and raises
``ManiplexError`` otherwise.  ``build_graph`` and ``is_covering`` are
the library's former validation and covering test, kept verbatim: they
decide every row and every colour by a scan over the flags.
``mix_with_projections`` is the library's
former mix, kept verbatim: its own breadth-first numbering of flag pairs,
then a second pass over every pair to fill the rows.  ``ChainValidated`` is
a maniplex checked by the library's former validation, kept verbatim: it
always builds the components over all colours to decide connectivity, where
the library first reads a certificate from the flag numbering.
``is_product`` is the library's former product test of a middle face, less
its constant-degree check: covering degree 1 and, flag by flag, each low
component meeting the face's high block once and each high component
meeting its low block once, by set intersection.

Two helpers left the package because only the suite used them: ``meet_all``
folds ``partition_meet`` over a non-empty iterable of partitions, and
``poset_isomorphic`` is the package's former order isomorphism of induced
posets, kept verbatim: a backtracking search over proper elements in
breadth-first order along consecutive-rank incidences.

``rectified_cubic_3torus`` is the package's former 3-torus construction,
kept verbatim: it walks the honeycomb's flags themselves, evaluating the
geometry and reducing each flag modulo the lattice at every step, where the
package walks flag types and translations.
"""

from __future__ import annotations

import operator
from functools import reduce
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

from maniplexes import (
    CheckResult,
    CipWitness,
    ColouredGraph,
    CoveringMap,
    Face,
    InducedPoset,
    Maniplex,
    MaximalChain,
    Partition,
    SpipWitness,
    WindowWitness,
    WpipResult,
    all_chains,
    chain_intersection,
    chain_of_flag,
    induced_poset,
    partition_meet,
)
from maniplexes.errors import (
    BadParam,
    BadTwoFactor,
    Disconnected,
    FixedPoint,
    InconsistentVerdicts,
    ManiplexError,
    MultiEdge,
    NotInvolution,
    OutOfRange,
    RankMismatch,
    SizeMismatch,
)
from maniplexes.generators import DEFAULT_3TORUS_BASIS, _hnf_lower, _integer
from maniplexes.graphs import MAX_RANK, gather, index_in_range, orbit


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
                err = OutOfRange(
                    f"colour {c} maps flag {v} to {w}, outside 0..{size - 1}"
                )
                err.colour = c  # carried as FixedPoint does, for read_mpx
                raise err
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


class ChainValidated(Maniplex):
    """A :class:`Maniplex` validated by the library's former ``_validate``,
    kept verbatim: connectivity always decided by the components over all
    colours, built along the chain of prefix masks."""

    def _validate(self) -> None:
        g = self.graph
        full = self._components((1 << g.rank) - 1)
        if full.block_count() > 1:
            other = next(v for v in g.flags() if full.ids[v] != full.ids[0])
            raise Disconnected(0, other)
        # gathers[j](mi)[v] is mi[mj[v]]: colours i and j commute exactly
        # when the two compositions agree.  Only a failing pair is scanned,
        # for its first flag.
        rows = g.matchings
        gathers = [gather(row) for row in rows]
        for i in range(g.rank):
            for j in range(i + 2, g.rank):
                mi, mj = rows[i], rows[j]
                if gathers[j](mi) != gathers[i](mj):
                    for v in g.flags():
                        if mi[mj[v]] != mj[mi[v]]:
                            raise BadTwoFactor(i, j, v)


def components(graph: ColouredGraph, colours: Iterable[int]) -> Partition:
    """Connected components of the subgraph using only ``colours`` edges."""
    cols = sorted(
        {index_in_range(c, graph.rank, OutOfRange, "colour") for c in colours}
    )
    parent = list(range(graph.size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in cols:
        row = graph.matchings[c]
        for v in range(graph.size):
            a, b = find(v), find(row[v])
            if a != b:
                if a < b:
                    parent[b] = a
                else:
                    parent[a] = b
    return Partition([find(v) for v in range(graph.size)])


def check_cip_via_chains(
    m: Maniplex, p: Optional[InducedPoset] = None
) -> CheckResult:
    """Second, independent intersection oracle via chains of faces.

    For every chain, the faces' common flag set must form a single component
    of the subgraph using the colours outside the chain's ranks.  Exhaustive
    over all chains, so only suitable for small posets.
    """
    if p is None:
        p = induced_poset(m)
    for refs in all_chains(p):
        ranks = frozenset(r for r, _ in refs)
        inter = p.flags_of(refs[0])
        for ref in refs[1:]:
            inter = inter & p.flags_of(ref)
        part = m.components_of(c for c in range(m.rank) if c not in ranks)
        ids = {part.ids[f] for f in inter}
        if len(ids) != 1:
            flags = sorted(inter)
            first = part.ids[flags[0]]
            other = next(f for f in flags if part.ids[f] != first)
            return CheckResult(False, (refs, (flags[0], other)))
    return CheckResult(True)


def faithful_by_chain_count(m: Maniplex, p: InducedPoset) -> CheckResult:
    """Faithfulness via ``#maximal chains == #flags`` (the map is onto)."""
    chains = len(p.maximal_chains())
    if chains == m.size:
        return CheckResult(True)
    return CheckResult(False, (chains, m.size))


def faithful_by_enumeration(m: Maniplex, p: InducedPoset) -> CheckResult:
    """Faithfulness via every maximal chain meeting in exactly one flag."""
    for chain in p.maximal_chains():
        inter = chain_intersection(p, chain.proper)
        if len(inter) > 1:
            flags = sorted(inter)
            return CheckResult(False, (chain, (flags[0], flags[1])))
    return CheckResult(True)


def meet_all(parts: Iterable[Partition]) -> Partition:
    """Meet of a non-empty iterable of partitions."""
    return reduce(partition_meet, parts)


def is_faithful(m: Maniplex) -> CheckResult:
    """Whether distinct flags always lie on distinct maximal chains.

    Checked as discreteness of the meet of the single-colour-removed
    component partitions.  A failure witness is ``(chain, (flag_a, flag_b))``:
    two flags sharing every face.
    """
    parts = [
        m.components_of(c for c in range(m.rank) if c != i)
        for i in range(m.rank)
    ]
    met = meet_all(parts)
    if met.block_count() == m.size:
        return CheckResult(True)
    block = next(b for b in met.blocks() if len(b) > 1)
    return CheckResult(False, (chain_of_flag(m, block[0]), (block[0], block[1])))


def is_product(m: Maniplex, face: Face) -> bool:
    """Whether a middle face is the product of its low and high blocks."""
    i = face.rank
    low = m.components_of(range(i))
    high = m.components_of(range(i + 1, m.rank))
    below = low.block_of(face.rep)
    above = high.block_of(face.rep)
    degree = len(below) * len(above) // len(face.flags)
    # Coordinates are unique iff each high-component meets `below`
    # once and each low-component meets `above` once, within the face.
    below_set, above_set = set(below), set(above)
    return degree == 1 and all(
        len(above_set & set(low.block_of(v))) == 1
        and len(below_set & set(high.block_of(v))) == 1
        for v in face.flags
    )


# -- the order by flag-set intersection ----------------------------------------


class FlagSets:
    """A ranked poset as flag sets: ``levels[r][k]`` is the flag set of
    element ``(r, k)``, and ranks ``-1`` and ``n`` hold the whole
    ``universe``."""

    def __init__(self, n: int, levels, universe: frozenset[int]):
        self.n, self.levels, self.universe = n, levels, universe

    @classmethod
    def of_maniplex(cls, m: Maniplex) -> "FlagSets":
        """Rank ``r`` faces as the components with colour ``r`` left out,
        ordered by smallest flag."""
        levels = []
        for r in range(m.rank):
            part = components(m.graph, [c for c in range(m.rank) if c != r])
            blocks: dict[int, set[int]] = {}
            for v, block in enumerate(part.ids):
                blocks.setdefault(block, set()).add(v)
            levels.append([frozenset(b) for b in blocks.values()])
        return cls(m.rank, levels, frozenset(range(m.size)))

    def section(self, a, b) -> "FlagSets":
        """The elements strictly between ``a < b``, rank by rank in ref
        order, under the flags ``a`` and ``b`` share."""
        levels = [
            [
                self.flags_of(g)
                for g in _level(self, r)
                if leq(self, a, g) and leq(self, g, b)
            ]
            for r in range(a[0] + 1, b[0])
        ]
        universe = self.flags_of(a) & self.flags_of(b)
        return FlagSets(b[0] - a[0] - 1, levels, universe)

    def counts(self) -> tuple[int, ...]:
        return tuple(map(len, self.levels))

    def flags_of(self, ref) -> frozenset[int]:
        r, k = ref
        return self.universe if r in (-1, self.n) else self.levels[r][k]


def leq(p: InducedPoset, a, b) -> bool:
    """Equal, or lower rank with intersecting flag sets."""
    if a == b:
        return True
    if a[0] >= b[0]:
        return False
    return bool(p.flags_of(a) & p.flags_of(b))


def _level(p: InducedPoset, r: int) -> list:
    if r == -1 or r == p.n:
        return [(r, 0)]
    return [(r, k) for k in range(p.counts()[r])]


def uniform_chain_length(p: InducedPoset) -> CheckResult:
    """Every strict pair ``a < b`` with a rank gap has an element one rank
    above ``a`` between them; witness: the first failing pair."""
    refs = [ref for r in range(-1, p.n + 1) for ref in _level(p, r)]
    for a in refs:
        for b in refs:
            if b[0] - a[0] < 2 or not leq(p, a, b):
                continue
            if not any(
                leq(p, a, g) and leq(p, g, b) for g in _level(p, a[0] + 1)
            ):
                return CheckResult(False, (a, b))
    return CheckResult(True)


def diamond(p: InducedPoset) -> CheckResult:
    """Exactly two rank-``i`` elements between incident ``E`` of rank
    ``i - 1`` and ``F`` of rank ``i + 1``; witness: the first
    ``(E, F, count)`` violation."""
    for i in range(p.n):
        for e in _level(p, i - 1):
            for f in _level(p, i + 1):
                if not leq(p, e, f):
                    continue
                count = sum(
                    1 for g in _level(p, i) if leq(p, e, g) and leq(p, g, f)
                )
                if count != 2:
                    return CheckResult(False, (e, f, count))
    return CheckResult(True)


# -- strong flag connectivity by rank masks and chain pairs ---------------------


def strong_flag_connectivity(p: InducedPoset) -> CheckResult:
    """Whether any two maximal chains are joined by single-face steps
    through chains containing their common faces.

    For each subset of ranks, chains are grouped by their projection to
    those ranks and the groups' one-face-step components are computed once;
    a pair of chains is then judged in the group of the ranks where they
    agree.  The witness is the first failing chain pair in lex order.
    """
    chains = p._chain_tuples()
    c = len(chains)
    n = p.n
    if c <= 1 or n <= 0:
        return CheckResult(True)

    # roots[mask][t]: component label of chain t among the chains that share
    # its projection to the ranks in `mask`, under moves changing one face.
    roots: list[dict[int, int]] = []
    any_split = False
    for mask in range(1 << n):
        shared = [r for r in range(n) if mask >> r & 1]
        free = [r for r in range(n) if not mask >> r & 1]
        parent = list(range(c))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        groups: dict[tuple[int, ...], list[int]] = {}
        for t, ch in enumerate(chains):
            groups.setdefault(tuple(ch[r] for r in shared), []).append(t)
        for members in groups.values():
            for r in free:
                buckets: dict[tuple[int, ...], int] = {}
                for t in members:
                    ch = chains[t]
                    key = ch[:r] + ch[r + 1 :]
                    first = buckets.setdefault(key, t)
                    if first != t:
                        ra, rb = find(first), find(t)
                        if ra != rb:
                            parent[rb] = ra
        root_of = {t: find(t) for t in range(c)}
        for members in groups.values():
            if len({root_of[t] for t in members}) > 1:
                any_split = True
        roots.append(root_of)

    if not any_split:
        return CheckResult(True)

    for t1 in range(c):
        ch1 = chains[t1]
        for t2 in range(t1 + 1, c):
            ch2 = chains[t2]
            mask = 0
            for r in range(n):
                if ch1[r] == ch2[r]:
                    mask |= 1 << r
            root_of = roots[mask]
            if root_of[t1] != root_of[t2]:
                wrap = lambda ct: MaximalChain(
                    ((-1, 0),)
                    + tuple((r, k) for r, k in enumerate(ct))
                    + ((n, 0),)
                )
                return CheckResult(False, (wrap(ch1), wrap(ch2)))
    return CheckResult(True)


# -- strong flag connectivity by rank spans of padded chains ---------------------


def strong_flag_connectivity_by_spans(p: InducedPoset) -> CheckResult:
    """Whether any two maximal chains are joined by single-face steps
    through chains containing their common faces.

    Between two faces a chain may vary freely, so the chains through a set
    of faces form the product of the segment graphs between consecutive
    shared ranks, and the condition holds exactly when every segment graph
    is connected.  For each span ``lo < hi`` of positions in the chains
    with their improper ends (gaps below three are always connected),
    chains whose ``lo..hi`` segments differ in at most one face are joined,
    and each group of chains through one face at ``lo`` and one at ``hi``
    must be a single component.  The witness is the first failing chain
    pair in lex order: the first chain heading a split group, and the first
    chain outside its component among the groups it heads.
    """
    n = p.n
    chains = [(0,) + ch + (0,) for ch in p._chain_tuples()]
    pairs: list[tuple[int, int]] = []
    for lo in range(n + 2):
        for hi in range(lo + 3, n + 2):
            parent = list(range(len(chains)))

            def find(x: int) -> int:
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for i in range(lo + 1, hi):
                first: dict[tuple[int, ...], int] = {}
                for t, ch in enumerate(chains):
                    key = ch[lo:i] + ch[i + 1 : hi + 1]
                    parent[find(t)] = find(first.setdefault(key, t))
            groups: dict[tuple[int, int], list[int]] = {}
            for t, ch in enumerate(chains):
                groups.setdefault((ch[lo], ch[hi]), []).append(t)
            for head, *rest in groups.values():
                root = find(head)
                other = next((t for t in rest if find(t) != root), None)
                if other is not None:
                    pairs.append((head, other))
    if not pairs:
        return CheckResult(True)
    t1, t2 = min(pairs)
    chain_list = p.maximal_chains()
    return CheckResult(False, (chain_list[t1], chain_list[t2]))


def split_pair(coarse: Partition, fine: Partition) -> tuple[int, int]:
    """First flag pair (canonical block order) joined by ``coarse`` but
    separated by ``fine``."""
    for block in coarse.blocks():
        tid = fine.ids[block[0]]
        for f in block[1:]:
            if fine.ids[f] != tid:
                return block[0], f
    raise InconsistentVerdicts("partitions compared unequal but nothing splits")


def split(
    pa: Partition, pb: Partition, target: Partition
) -> Optional[tuple[int, int]]:
    """The library's former intersection test, at the flag level: ``None``
    when the distinct pairs of ``pa`` and ``pb`` ids over every flag are as
    many as ``target``'s blocks, else the first pair that ``split_pair``
    finds between their meet and ``target``.  ``target`` refines both."""
    if len(set(zip(pa.ids, pb.ids))) == target.block_count():
        return None
    return split_pair(partition_meet(pa, pb), target)


def check_cip(m: Maniplex) -> CheckResult:
    """Intersection property over every nonempty colour subset.

    For each subset ``S`` (ascending size, then lexicographic), the meet of
    the single-colour-removed partitions over ``S`` must equal the partition
    with all of ``S`` removed.  The witness is the first failing subset with
    the first flag pair its meet joins wrongly.
    """
    n = m.rank
    for size in range(1, n + 1):
        for sub in combinations(range(n), size):
            target = m.components_of(c for c in range(n) if c not in sub)
            met = meet_all(
                m.components_of(c for c in range(n) if c != i) for i in sub
            )
            if met != target:
                a, b = split_pair(met, target)
                return CheckResult(False, CipWitness(sub, a, b))
    return CheckResult(True)


def check_wpip(m: Maniplex) -> WpipResult:
    """Interval property: for every ``low < high``, the meet of the
    components over colours above ``low`` and below ``high`` must equal the
    components strictly between.  Collects every failing pair."""
    n = m.rank
    failures: list[tuple[int, int]] = []
    first: Optional[WindowWitness] = None
    for low in range(n):
        for high in range(low + 1, n):
            above = m.components_of(range(low + 1, n))
            below = m.components_of(range(high))
            between = m.components_of(range(low + 1, high))
            met = partition_meet(above, below)
            if met != between:
                a, b = split_pair(met, between)
                failures.append((low, high))
                if first is None:
                    first = WindowWitness(low, high, a, b)
    return WpipResult(not failures, first, tuple(failures))


def check_spip(m: Maniplex) -> CheckResult:
    """Symmetric property: for any colour subsets ``A, B``, the meet of
    their component partitions must equal the components of ``A & B``.

    Exhaustive over all subset pairs for rank at most 6 (pairs where one
    subset contains the other hold trivially and are skipped; the empty
    subset is included).  Above rank 6 the verdict is delegated to the
    interval property, whose witnesses are valid subset pairs here.
    """
    n = m.rank
    if n > 6:
        w = check_wpip(m)
        if w.holds:
            return CheckResult(True)
        ww = w.witness
        return CheckResult(
            False,
            SpipWitness(
                tuple(range(ww.low + 1, n)),
                tuple(range(ww.high)),
                ww.flag_a,
                ww.flag_b,
            ),
        )

    def bits(mask: int) -> tuple[int, ...]:
        return tuple(c for c in range(n) if mask >> c & 1)

    for am in range(1 << n):
        for bm in range(am + 1, 1 << n):
            inter = am & bm
            if inter == am or inter == bm:
                continue
            met = partition_meet(
                m.components_of(bits(am)), m.components_of(bits(bm))
            )
            target = m.components_of(bits(inter))
            if met != target:
                a, b = split_pair(met, target)
                return CheckResult(False, SpipWitness(bits(am), bits(bm), a, b))
    return CheckResult(True)


def are_isomorphic(
    g: ColouredGraph, h: ColouredGraph
) -> Optional[tuple[int, ...]]:
    """A colour-preserving isomorphism ``g -> h`` as a flag map, or None.

    Both graphs must be connected (an isomorphism is determined by the image
    of one flag, so we try every anchor in ``h`` for flag 0 of ``g``).
    """
    if g.rank != h.rank:
        return None
    if g.size != h.size:
        return None
    if any(components(x, x.colours()).block_count() != 1 for x in (g, h)):
        raise ManiplexError("isomorphism search requires connected graphs")
    for anchor in range(h.size):
        phi = _propagate(g, h, anchor)
        if phi is not None and len(set(phi)) == g.size:
            return phi
    return None


def is_covering(m: Maniplex, n: Maniplex, phi: tuple[int, ...]) -> bool:
    """Whether ``phi`` is a colour-preserving surjection from M onto N."""
    if m.rank != n.rank or len(phi) != m.size:
        return False
    if any(not 0 <= t < n.size for t in phi):
        return False
    for c in range(m.rank):
        mm, nn = m.graph.matchings[c], n.graph.matchings[c]
        if any(phi[mm[v]] != nn[phi[v]] for v in range(m.size)):
            return False
    return len(set(phi)) == n.size


def find_covering(m: Maniplex, n: Maniplex) -> Optional[CoveringMap]:
    """The first covering of N by M in anchor order, or ``None``.

    Tries each flag of N as the image of flag 0 of M and propagates along
    colours; connectivity makes the extension unique, and a consistent
    image is automatically all of N.
    """
    if m.rank != n.rank:
        return None
    for anchor in range(n.size):
        phi = _propagate(m.graph, n.graph, anchor)
        if phi is not None:
            if not is_covering(m, n, phi):
                raise InconsistentVerdicts("a consistent extension must cover")
            return CoveringMap(phi)
    return None


def _propagate(
    g: ColouredGraph, h: ColouredGraph, anchor: int
) -> Optional[tuple[int, ...]]:
    """The colour-preserving map extending ``0 -> anchor`` over a connected
    ``g``, or None on any conflict."""
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
    return tuple(phi)


def mix_with_projections(
    m: Maniplex, n: Maniplex, base_m: int = 0, base_n: int = 0
) -> tuple[Maniplex, tuple[int, ...], tuple[int, ...]]:
    """The mix through ``(base_m, base_n)`` plus both projection maps.

    Flags of the mix are numbered in breadth-first discovery order from the
    base pair, exploring colours in ascending order, so the result is
    deterministic.  Raises :class:`RankMismatch` for unequal ranks and
    :class:`OutOfRange` for a base flag that is not a flag of its factor.
    """
    if m.rank != n.rank:
        raise RankMismatch(f"cannot mix ranks {m.rank} and {n.rank}")
    start = (
        index_in_range(base_m, m.size, OutOfRange, "base flag of the first factor"),
        index_in_range(base_n, n.size, OutOfRange, "base flag of the second factor"),
    )
    index: dict[tuple[int, int], int] = {start: 0}
    order = [start]
    for a, b in order:
        for c in range(m.rank):
            pair = (m.graph.matchings[c][a], n.graph.matchings[c][b])
            if pair not in index:
                index[pair] = len(index)
                order.append(pair)
    rows = [
        [
            index[(m.graph.matchings[c][a], n.graph.matchings[c][b])]
            for a, b in order
        ]
        for c in range(m.rank)
    ]
    mixed = Maniplex(build_graph(m.rank, rows))
    proj_m = tuple(a for a, _ in order)
    proj_n = tuple(b for _, b in order)
    return mixed, proj_m, proj_n


# -- order isomorphism of posets -------------------------------------------------

Ref = tuple[int, int]


def poset_isomorphic(
    p: InducedPoset, q: InducedPoset
) -> Optional[dict[Ref, Ref]]:
    """An order isomorphism matching ranks, or ``None``.

    Backtracking, on an explicit stack, over proper elements in breadth-first
    order along consecutive-rank incidences.  An element's candidates are the
    neighbours of its parent's image (any element, for a component's first)
    with its rank and comparable-rank profile, comparable to exactly the
    images of the mapped elements comparable to it.  Improper elements are
    mapped to each other implicitly.
    """
    if p.n != q.n or p.counts() != q.counts():
        return None

    def comparable(s: InducedPoset) -> dict[Ref, set[Ref]]:
        near: dict[Ref, set[Ref]] = {ref: set() for ref in s.refs()}
        for r, k in s.refs():
            for t in range(r + 1, s.n):
                for l in s.up[r][t][k]:
                    near[(r, k)].add((t, l))
                    near[(t, l)].add((r, k))
        return near

    p_near, q_near = comparable(p), comparable(q)
    # an element's rank and the ranks of the elements comparable to it
    p_prof = {a: (a[0], sorted(r for r, _ in x)) for a, x in p_near.items()}
    q_prof = {b: (b[0], sorted(r for r, _ in x)) for b, x in q_near.items()}
    if sorted(p_prof.values()) != sorted(q_prof.values()):
        return None

    parent: dict[Ref, Optional[Ref]] = {}
    for root in p.refs():
        if root not in parent:
            parent[root] = None
            queue = [root]
            for a in queue:
                for b in sorted(p_near[a]):
                    if abs(b[0] - a[0]) == 1 and b not in parent:
                        parent[b] = a
                        queue.append(b)
    order = list(parent)
    mapping: dict[Ref, Ref] = {}
    used: set[Ref] = set()

    def candidates(depth: int) -> Iterator[Ref]:
        # first advanced while exactly ``order[:depth]`` is mapped
        a = order[depth]
        images = {mapping[x] for x in p_near[a] if x in mapping}
        pool = q.refs() if parent[a] is None else sorted(q_near[mapping[parent[a]]])
        for b in pool:
            if b not in used and q_prof[b] == p_prof[a] and q_near[b] & used == images:
                yield b

    stack = [candidates(0)]
    while stack and len(mapping) < len(order):
        a = order[len(stack) - 1]
        if a in mapping:
            used.remove(mapping.pop(a))
        b = next(stack[-1], None)
        if b is None:
            stack.pop()
        else:
            mapping[a] = b
            used.add(b)
            stack.append(candidates(len(stack)))
    if len(mapping) < len(order):
        return None
    return {**mapping, (-1, 0): (-1, 0), (p.n, 0): (q.n, 0)}


def rectified_cubic_3torus(
    basis: Optional[Sequence[Sequence[int]]] = None,
) -> Maniplex:
    """The rectified cubic honeycomb quotiented by a rank-3 lattice.

    The honeycomb's vertices are the edge midpoints of the unit cubic grid;
    its cells are octahedra (one per grid vertex) and cuboctahedra (one per
    cube), with triangles and squares between them.  ``basis`` gives three
    integer translations spanning the quotient lattice (the default is a
    determinant-4 lattice); the result has ``144 * |det basis|`` flags.

    Coordinates are doubled so everything is integral: a flag stores the
    vertex, the edge's endpoint sum, the face's vertex sum, and the cell
    centre.  Raises :class:`DegenerateBasis` for a singular basis.
    """
    if basis is None:
        basis = DEFAULT_3TORUS_BASIS
    rows_in = [[_integer("a basis entry", x) for x in row] for row in basis]
    if len(rows_in) != 3 or any(len(r) != 3 for r in rows_in):
        raise BadParam("the basis must be three integer 3-vectors")
    h = _hnf_lower([[2 * x for x in row] for row in rows_in])

    def canon(p: tuple[int, int, int]) -> tuple[int, int, int]:
        v = list(p)
        for k in (2, 1, 0):
            t = v[k] // h[k][k]
            if t:
                v[0] -= t * h[k][0]
                v[1] -= t * h[k][1]
                v[2] -= t * h[k][2]
        return tuple(v)

    V = tuple[int, int, int]

    def add(a: V, b: V, k: int = 1) -> V:
        return (a[0] + k * b[0], a[1] + k * b[1], a[2] + k * b[2])

    def is_tri(fs: V) -> bool:
        return fs[0] % 2 == 1  # triangle sums are all odd, square sums all even

    def canon_flag(fl: tuple[V, V, V, V]) -> tuple[V, V, V, V]:
        p, e, fs, cc = fl
        g = add(canon(p), p, -1)
        if g == (0, 0, 0):
            return fl
        k = 3 if is_tri(fs) else 4
        return (add(p, g), add(e, g, 2), add(fs, g, k), add(cc, g))

    def phi(c: int, fl: tuple[V, V, V, V]) -> tuple[V, V, V, V]:
        p, e, fs, cc = fl
        if c == 0:
            return (add(e, p, -1), e, fs, cc)
        if c == 1:
            if is_tri(fs):
                e2 = add(add(fs, e, -1), p)
            else:
                e2 = add(
                    add((2 * p[0], 2 * p[1], 2 * p[2]),
                        (fs[0] // 2, fs[1] // 2, fs[2] // 2)),
                    e,
                    -1,
                )
            return (p, e2, fs, cc)
        if c == 2:
            if cc[0] % 2:  # cuboctahedron: centres have all-odd coordinates
                d = add(e, cc, -2)
                axis = next(k for k in range(3) if abs(d[k]) == 2)
                s = d[axis] // 2
                if is_tri(fs):
                    fs2 = tuple(
                        4 * cc[k] + (4 * s if k == axis else 0)
                        for k in range(3)
                    )
                else:
                    sigma = list(d)
                    sigma[axis] = s
                    fs2 = tuple(3 * cc[k] + 2 * sigma[k] for k in range(3))
            else:  # octahedron: both faces at an edge are triangles
                fs2 = tuple(2 * (e[k] + cc[k]) - fs[k] for k in range(3))
            return (p, e, fs2, cc)
        if is_tri(fs):
            if cc[0] % 2:
                cc2 = tuple((fs[k] - cc[k]) // 2 for k in range(3))
            else:
                cc2 = tuple(fs[k] - 2 * cc[k] for k in range(3))
        else:
            cc2 = tuple(fs[k] // 2 - cc[k] for k in range(3))
        return (p, e, fs, cc2)

    seed = canon_flag(((1, 0, 0), (1, 1, 0), (4, 4, 0), (1, 1, 1)))
    order, rows = orbit(seed, lambda c, fl: canon_flag(phi(c, fl)), 4)
    expected = 18 * h[0][0] * h[1][1] * h[2][2]  # 144 * |det basis|
    if len(order) != expected:
        raise InconsistentVerdicts(f"expected {expected} flags, got {len(order)}")
    return Maniplex(build_graph(4, rows))
