"""Mix (parallel product) of maniplexes and covering maps between them.

The mix of two maniplexes of equal rank is the component of a chosen base
flag pair in the direct product of their coloured graphs: colour ``c`` moves
both coordinates at once.  Either factor is recovered from the mix by a
covering (a colour-preserving surjection).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import InconsistentVerdicts, OutOfRange, RankMismatch
from .graphs import build_graph, extensions, gather, index_in_range
from .maniplex import Maniplex


@dataclass(frozen=True)
class CoveringMap:
    """A colour-preserving surjection ``map[flag of M] = flag of N``."""

    map: tuple[int, ...]


def mix_with_projections(
    m: Maniplex, n: Maniplex, base_m: int = 0, base_n: int = 0
) -> tuple[Maniplex, tuple[int, ...], tuple[int, ...]]:
    """The mix through ``(base_m, base_n)`` plus both projection maps.

    Flags of the mix are numbered in breadth-first discovery order from the
    base pair, exploring colours in ascending order, so the result is
    deterministic and its validation certifies connectivity from the
    numbering alone (see :class:`~maniplexes.maniplex.Maniplex`).  Raises
    :class:`RankMismatch` for unequal ranks and :class:`OutOfRange` for a
    base flag that is not a flag of its factor.
    """
    if m.rank != n.rank:
        raise RankMismatch(f"cannot mix ranks {m.rank} and {n.rank}")
    a = index_in_range(base_m, m.size, OutOfRange, "base flag of the first factor")
    b = index_in_range(base_n, n.size, OutOfRange, "base flag of the second factor")
    # Each pair (a, b) is keyed by its code a * size + b; a colour sends it
    # to sm[a] + nn[b], where sm is the colour's row of m scaled by size.
    # The projections grow as pairs are numbered, so they are the queue.
    size = n.size
    cols = [
        ([x * size for x in mm], nn, [])
        for mm, nn in zip(m.graph.matchings, n.graph.matchings)
    ]
    index = {a * size + b: 0}
    proj_m, proj_n = [a], [b]
    for a, b in zip(proj_m, proj_n):
        for sm, nn, row in cols:
            code = sm[a] + nn[b]
            i = index.get(code)
            if i is None:
                i = index[code] = len(proj_m)
                x, y = divmod(code, size)
                proj_m.append(x)
                proj_n.append(y)
            row.append(i)
    mixed = Maniplex(build_graph(m.rank, [row for _, _, row in cols]))
    return mixed, tuple(proj_m), tuple(proj_n)


def mix(m: Maniplex, n: Maniplex, base_m: int = 0, base_n: int = 0) -> Maniplex:
    """The parallel product of two maniplexes through a base flag pair."""
    return mix_with_projections(m, n, base_m, base_n)[0]


def is_covering(m: Maniplex, n: Maniplex, phi: tuple[int, ...]) -> bool:
    """Whether ``phi`` is a colour-preserving surjection from M onto N."""
    if m.rank != n.rank or len(phi) != m.size:
        return False
    try:
        if min(phi) < 0 or max(phi) >= n.size:
            return False
        at_phi = gather(phi)
        for mm, nn in zip(m.graph.matchings, n.graph.matchings):
            if gather(mm)(phi) != at_phi(nn):
                return False
    except TypeError:  # an entry that is not a flag index
        return False
    return len(set(phi)) == n.size


def find_covering(m: Maniplex, n: Maniplex) -> Optional[CoveringMap]:
    """The first covering of N by M in anchor order, or ``None``.

    Tries flags of N as the image of flag 0 of M (see
    :func:`~maniplexes.graphs.extensions`) and propagates along colours;
    connectivity makes the extension unique, and a consistent image is
    automatically all of N.  Each colour maps the fibre of a flag one-to-one
    onto the fibre of its neighbour, so fibres have one size and N's size
    must divide M's.
    """
    if m.rank != n.rank or m.size % n.size:
        return None
    for phi in extensions(m.graph, n.graph, _divides):
        if not is_covering(m, n, phi):
            raise InconsistentVerdicts("a consistent extension must cover")
        return CoveringMap(phi)
    return None


def _divides(length: int, image_length: int) -> bool:
    return length % image_length == 0
