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
ends, one keyed pass per interior position.  ``check_cip``, ``check_wpip``
and ``check_spip`` are the three partition criteria as separate
meet-and-compare loops: CIP meets all ``|S|`` single-colour-removed
partitions of each subset, and SPIP above rank 6 translates the interval
witness.  ``are_isomorphic`` and ``find_covering`` are the library's former
searches, kept verbatim: every flag of the target is tried as the image of
flag 0, in ascending order, with no pruning, and ``are_isomorphic`` checks
that both graphs are connected.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Optional

from maniplexes import (
    CheckResult,
    CipWitness,
    ColouredGraph,
    CoveringMap,
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
    is_connected,
    is_covering,
    meet_all,
    partition_meet,
)
from maniplexes.errors import DisconnectedInput, InconsistentVerdicts, OutOfRange
from maniplexes.graphs import index_in_range, split_pair


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
    if met.is_discrete():
        return CheckResult(True)
    block = next(b for b in met.blocks() if len(b) > 1)
    return CheckResult(False, (chain_of_flag(m, block[0]), (block[0], block[1])))


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
    if not is_connected(g) or not is_connected(h):
        raise DisconnectedInput("isomorphism search requires connected graphs")
    for anchor in range(h.size):
        phi = _propagate(g, h, anchor)
        if phi is not None and len(set(phi)) == g.size:
            return phi
    return None


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
