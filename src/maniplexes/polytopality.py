"""Equivalent polytopality criteria for maniplexes.

A maniplex is polytopal when its induced poset is a polytope (ranked with
uniform chain length, diamond condition, strong flag connectivity) and the
maniplex is then isomorphic to the flag graph of that poset.  This is
equivalent to three partition-intersection properties, each the identity
``<A> ^ <B> = <A & B>`` on component partitions over its own family of
colour-set pairs ``(A, B)``, and cross-compared:

* the full property over every nonempty colour subset (``check_cip``),
* the window property over colour intervals (``check_wpip``),
* the symmetric property over arbitrary colour-subset pairs (``check_spip``).

Each is a family of ``(tag, a, b)`` colour-mask pairs, and one lazy scan,
``_failures``, yields the tag and witness flags of each failing pair.
``flag_graph`` is imported from :mod:`.posets`, beside the chains it reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, islice
from typing import Iterable, Iterator, Optional

from .errors import InconsistentVerdicts
from .graphs import first_split, numbers
from .maniplex import Maniplex
from .posets import (
    CheckResult,
    MaximalChain,
    PosetReport,
    flag_graph,
    induced_poset,
    is_polytope,
)


@dataclass(frozen=True)
class CipWitness:
    """A colour subset whose joint components are too coarse, shown by two
    flags sharing every single-colour-removed component but not the joint
    one."""

    colours: tuple[int, ...]
    flag_a: int
    flag_b: int


@dataclass(frozen=True)
class WindowWitness:
    """A colour window ``(low, high)`` violating the interval property."""

    low: int
    high: int
    flag_a: int
    flag_b: int


@dataclass(frozen=True)
class SpipWitness:
    """A pair of colour subsets violating the symmetric property."""

    colours_a: tuple[int, ...]
    colours_b: tuple[int, ...]
    flag_a: int
    flag_b: int


@dataclass(frozen=True)
class WpipResult:
    """Window-property verdict with every failing ``(low, high)`` pair."""

    holds: bool
    witness: Optional[WindowWitness]
    failures: tuple[tuple[int, int], ...]

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class PolytopalityReport:
    """All criteria, their agreement, and the flag-graph witness."""

    cip: CheckResult
    wpip: WpipResult
    spip: CheckResult
    poset: PosetReport
    verdicts_consistent: bool
    polytopal: bool
    flag_graph_isomorphism: Optional[tuple[int, ...]]


def _failures(m: Maniplex, family: Iterable[tuple], start: int = 0) -> Iterator[tuple]:
    """``(tag, split)``, lazily from index ``start`` on, for each ``(tag, a,
    b)`` of ``family`` whose components over masks ``a`` and ``b`` meet
    coarser than those over ``a & b``, which refine both: ``split`` is their
    :func:`~maniplexes.graphs.first_split` keyed by the ids over each side.

    Each unordered pair is split once per maniplex: its verdict and witness
    do not depend on the order of the two key columns, so the families of
    all three criteria share the maniplex's memo of split results."""
    parts, splits = m._components, m._splits
    for tag, a, b in islice(family, start, None):
        pair = (a, b) if a < b else (b, a)
        try:
            split = splits[pair]
        except KeyError:
            pa, pb = parts(a), parts(b)
            split = splits[pair] = first_split(parts(a & b), pa.ids, pb.ids)
        if split is not None:
            yield tag, split


def _subsets(n: int) -> Iterator[tuple]:
    """CIP's family: subsets ``S`` of two or more colours by size, then
    lexicographic, with the masks of all but ``S[:-1]`` and all but ``S[-1]``."""
    full, bits = (1 << n) - 1, [1 << c for c in range(n)]
    for size in range(2, n + 1):
        for sub, masks in zip(combinations(range(n), size), combinations(bits, size)):
            yield sub, full - sum(masks[:-1]), full - masks[-1]


@lru_cache(maxsize=None)
def _windows(n: int) -> tuple[tuple, ...]:
    """WPIP's family: ``((low, high), above, below)`` for ``low < high``,
    the masks of the colours above ``low`` and below ``high``."""
    pairs = combinations(range(n), 2)
    return tuple(((lo, hi), (1 << n) - (2 << lo), (1 << hi) - 1) for lo, hi in pairs)


@lru_cache(maxsize=None)
def _spip_families(n: int) -> tuple[tuple[tuple, ...], tuple[tuple, ...]]:
    """SPIP's deciding family, each pair tagged with the index where the
    witness scan starts, and its witness family, tagged by colour tuples.

    Up to rank 6 the latter is every incomparable mask pair ``a < b`` and
    the former its co-pairs, each tagged with the first pair it stands
    for, in that order; above rank 6 both are the windows."""
    if n > 6:
        masks = [(a, b) for _, a, b in _windows(n)]
        first = {pair: i for i, pair in enumerate(masks)}
    else:
        full, every = (1 << n) - 1, range(1 << n)
        masks = [(a, b) for a in every for b in every[a + 1 :] if a & b not in (a, b)]
        first = {}
        for i, (a, b) in enumerate(masks):
            co = a | (full ^ b)
            first.setdefault((min(co, b), max(co, b)), i)
    deciding = tuple((i, a, b) for (a, b), i in first.items())
    bits = {x: tuple(c for c in range(n) if x >> c & 1) for ab in masks for x in ab}
    return deciding, tuple(((bits[a], bits[b]), a, b) for a, b in masks)


def check_cip(m: Maniplex) -> CheckResult:
    """Intersection property over every nonempty colour subset.

    For each subset ``S`` (ascending size, then lexicographic), the meet of
    the single-colour-removed partitions over ``S`` must equal the partition
    with all of ``S`` removed.  The witness is the first failing subset with
    the first flag pair its meet joins wrongly.

    Singletons hold trivially.  Every smaller subset has held when ``S`` is
    reached, so the meet over ``S`` is the partition with ``S`` minus its
    last colour removed, met with the one with that colour removed.
    """
    failure = next(_failures(m, _subsets(m.rank)), None)
    if failure is None:
        return CheckResult(True)
    sub, split = failure
    return CheckResult(False, CipWitness(sub, *split))


def check_wpip(m: Maniplex) -> WpipResult:
    """Interval property: for every ``low < high``, the meet of the
    components over colours above ``low`` and below ``high`` must equal the
    components strictly between.  Collects every failing pair."""
    failures = list(_failures(m, _windows(m.rank)))
    first = WindowWitness(*failures[0][0], *failures[0][1]) if failures else None
    return WpipResult(not failures, first, tuple(tag for tag, _ in failures))


def check_spip(m: Maniplex) -> CheckResult:
    """Symmetric property: for any colour subsets ``A, B``, the meet of
    their component partitions must equal the components of ``A & B``.

    Exhaustive over all subset pairs for rank at most 6 (pairs where one
    subset contains the other hold trivially and are skipped; the empty
    subset is included).  Above rank 6 only the interval pairs are checked,
    which decide the same verdict.

    Up to rank 6 the verdict is decided on the co-pairs, those with
    ``A | B`` every colour.  If ``(A, B)`` fails, so does its co-pair
    ``(A | ~B, B)``: it meets in the same ``A & B``, and its ``A`` side
    only joins more flags.  The co-pairs are tried in the order of the
    first pair each stands for.  When one fails, every pair before that
    first one holds, so the scan for the witness starts there and splits
    at most one pair more than a scan of every pair.  The failing co-pair
    is itself a pair from there on, so that scan finds a failure.
    """
    deciding, pairs = _spip_families(m.rank)
    failure = next(_failures(m, deciding), None)
    if failure is None:
        return CheckResult(True)
    failure = next(_failures(m, pairs, failure[0]), None)
    if failure is None:
        raise InconsistentVerdicts("a co-pair fails but no pair from its first does")
    (colours_a, colours_b), split = failure
    return CheckResult(False, SpipWitness(colours_a, colours_b, *split))


def beta(m: Maniplex) -> tuple[MaximalChain, ...]:
    """The flag-to-chain map: position ``v`` holds the chain through ``v``,
    read from one pass over the face ids of every rank."""
    return tuple(map(MaximalChain.through, m.flag_face_ids()))


def _certify_beta(m: Maniplex, rep: PosetReport) -> tuple[int, ...]:
    """``beta`` as a flag map onto ``flag_graph`` of the induced poset: flag
    ``v`` goes to the lex rank of its face-id tuple, its chain's index there.

    Faithfulness makes ``beta`` one-to-one and as many chains as flags make
    it onto.  An ``r``-edge stays inside every face of rank other than
    ``r``, so its flags go to chains differing only at rank ``r``: a
    bijective ``beta`` preserves colours.  Flag 0 lies in face 0 at every
    rank, so it goes to chain 0, the image ``are_isomorphic`` tries first.
    """
    if not (rep.faithful and rep.chain_count == m.size):
        raise InconsistentVerdicts("a polytopal maniplex must match its flag graph")
    tuples = m.flag_face_ids()
    index = dict(zip(sorted(tuples), numbers(len(tuples))))
    return tuple(index[t] for t in tuples)


def is_polytopal(m: Maniplex) -> PolytopalityReport:
    """Run all criteria, insist they agree, and certify the positive case.

    A disagreement between the subset, interval, symmetric, and poset
    criteria raises :class:`InconsistentVerdicts` (they are equivalent, so
    this signals an implementation bug).  The poset criterion needs the
    poset to be a polytope and the maniplex to be faithful: the poset of two
    squares modulo their joint half-turn is a polytope, but not faithfully
    so.  When polytopal, the report includes the certified isomorphism
    ``beta`` onto the flag graph of the maniplex's own poset.
    """
    cip = check_cip(m)
    wpip = check_wpip(m)
    spip = check_spip(m)
    p = induced_poset(m)
    rep = is_polytope(p)
    verdicts = {
        "subset": cip.holds,
        "interval": wpip.holds,
        "symmetric": spip.holds,
        "poset": rep.is_polytope and rep.faithful.holds,
    }
    if len(set(verdicts.values())) != 1:
        raise InconsistentVerdicts(f"criteria disagree: {verdicts}")
    return PolytopalityReport(
        cip=cip,
        wpip=wpip,
        spip=spip,
        poset=rep,
        verdicts_consistent=True,
        polytopal=cip.holds,
        flag_graph_isomorphism=_certify_beta(m, rep) if cip.holds else None,
    )
