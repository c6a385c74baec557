"""Generator families: polygons, hypercubes, the bit-flip maniplexes, the
square tilings of the torus and the Klein bottle, a rectified cubic honeycomb
on a 3-torus, and seeded random maniplexes.

All generators are deterministic: flags are indexed in a fixed enumeration
order, and the random family is driven entirely by its seed.  None builds
more than ``2**16`` flags, the size of ``bitflip(16)``: a larger request is
refused with :class:`BadParam` before anything is built.
"""

from __future__ import annotations

import operator
import random
from functools import lru_cache
from itertools import permutations
from typing import Optional, Sequence

from .errors import (
    BadParam,
    BudgetExhausted,
    DegenerateBasis,
    InconsistentVerdicts,
    ManiplexError,
)
from .graphs import build_graph, component_rows, orbit
from .maniplex import Maniplex

# Fundamental translations used by the rectified cubic 3-torus by default.
DEFAULT_3TORUS_BASIS = ((0, 2, 0), (1, 0, 0), (1, 0, 2))

_DIRS = ((1, 0), (0, 1), (-1, 0), (0, -1))

# The most flags a generator builds.
_MAX_FLAGS = 1 << 16


def _integer(name: str, value: object) -> int:
    """``value`` as an ``int``; :class:`BadParam` unless it is an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise BadParam(f"{name} must be an integer, got {value!r}") from None


def _flag_count(what: str, flags: int) -> int:
    """``flags``; :class:`BadParam` when it is over :data:`_MAX_FLAGS`."""
    if flags > _MAX_FLAGS:
        raise BadParam(f"{what} has {flags} flags, over the cap of {_MAX_FLAGS}")
    return flags


def polygon(p: int) -> Maniplex:
    """The rank-2 maniplex of a ``p``-gon (``p >= 2``), with ``2p`` flags."""
    p = _integer("polygon size", p)
    if p < 2:
        raise BadParam(f"a polygon needs at least 2 sides, got {p}")
    f = _flag_count(f"a {p}-gon", 2 * p)
    m0 = [v ^ 1 for v in range(f)]
    m1 = [(v - 1) % f if v % 2 == 0 else (v + 1) % f for v in range(f)]
    return Maniplex(build_graph(2, [m0, m1]))


def hypercube(d: int) -> Maniplex:
    """The ``d``-cube (``1 <= d <= 5``) with ``2^d * d!`` flags.

    A flag is a vertex (bit vector) plus an ordering of the axes; colour 0
    flips the first axis bit, colour ``c`` swaps axes ``c - 1`` and ``c``.
    """
    d = _integer("dimension", d)
    if not 1 <= d <= 5:
        raise BadParam(f"dimension must be between 1 and 5, got {d}")
    perms = sorted(permutations(range(d)))
    flags = [(x, pi) for x in range(1 << d) for pi in perms]
    idx = {fl: k for k, fl in enumerate(flags)}
    rows = [[0] * len(flags) for _ in range(d)]
    for k, (x, pi) in enumerate(flags):
        rows[0][k] = idx[(x ^ (1 << pi[0]), pi)]
        for c in range(1, d):
            q = list(pi)
            q[c - 1], q[c] = q[c], q[c - 1]
            rows[c][k] = idx[(x, tuple(q))]
    return Maniplex(build_graph(d, rows))


def bitflip(n: int) -> Maniplex:
    """The rank-``n`` {2,...,2} maniplex (``1 <= n <= 16``) on the ``2^n``
    bit vectors: colour ``c`` flips bit ``c``."""
    n = _integer("rank", n)
    if not 1 <= n <= 16:
        raise BadParam(f"bit-flip rank must be between 1 and 16, got {n}")
    rows = [[v ^ (1 << c) for v in range(1 << n)] for c in range(n)]
    return Maniplex(build_graph(n, rows))


def torus_44(b: int, c: int) -> Maniplex:
    """The square tiling quotiented by the lattice spanned by ``(b, c)``
    and its quarter turn, with ``8 * (b^2 + c^2)`` flags.

    Flags of the tiling are ``(vertex, edge direction, side)`` triples with
    the side a quarter turn of the direction; colour 0 crosses the edge,
    colour 1 pivots at the vertex, colour 2 reflects in the edge.
    """
    b, c = _integer("b", b), _integer("c", c)
    if (b, c) == (0, 0):
        raise BadParam("the quotient translation must be nonzero")
    n = b * b + c * c
    _flag_count(f"torus_44({b}, {c})", 8 * n)

    def rnd(a: int) -> int:
        # round half up, stable under negative numerators
        return (2 * a + n) // (2 * n)

    def canon(z: tuple[int, int]) -> tuple[int, int]:
        x, y = z
        m1 = rnd(x * b + y * c)
        m2 = rnd(y * b - x * c)
        return (x - (b * m1 - c * m2), y - (b * m2 + c * m1))

    order, nbrs = orbit(
        canon((0, 0)), lambda d, z: canon((z[0] + _DIRS[d][0], z[1] + _DIRS[d][1])), 4
    )
    if len(order) != n:
        raise InconsistentVerdicts("vertex count must match the lattice index")
    # Flag (vertex i, direction du, side s) is number (4 * i + du) * 2 + s.
    flags = [(i, du, s) for i in range(n) for du in range(4) for s in range(2)]
    rows = [
        [(4 * nbrs[du][i] + (du + 2) % 4) * 2 + 1 - s for i, du, s in flags],
        [(4 * i + (du + 1 + 2 * s) % 4) * 2 + 1 - s for i, du, s in flags],
        [(4 * i + du) * 2 + 1 - s for i, du, s in flags],
    ]
    return Maniplex(build_graph(3, rows))


def klein_44() -> Maniplex:
    """The 8-flag square tiling of the Klein bottle.

    Quotient of the square tiling by a unit horizontal translation and a
    vertical glide reflection.  Flags are numbered ``du * 2 + s`` by edge
    direction and side, as in ``torus_44(1, 0)``, whose colours 1 and 2 it
    keeps.  Colour 0 flips the side along a horizontal edge, as on the torus,
    but keeps it along a vertical one (odd ``du``): that step is the glide,
    whose mirror undoes the flip.  It shares its induced poset with
    ``torus_44(1, 0)`` but is not flag-isomorphic to it.
    """
    flags = [(du, s) for du in range(4) for s in range(2)]
    row0 = [((du + 2) % 4) * 2 + (s if du % 2 else 1 - s) for du, s in flags]
    return Maniplex(build_graph(3, [row0, *torus_44(1, 0).graph.matchings[1:]]))


def _hnf_lower(mat: Sequence[Sequence[int]]) -> list[list[int]]:
    """Lower-triangular row basis with positive diagonal for the row lattice.

    Raises :class:`DegenerateBasis` when the rows are linearly dependent.
    """
    m = [list(row) for row in mat]
    for col in (2, 1, 0):
        while True:
            nz = [r for r in range(col + 1) if m[r][col] != 0]
            if not nz:
                raise DegenerateBasis("the basis does not span three dimensions")
            if len(nz) == 1:
                break
            nz.sort(key=lambda r: abs(m[r][col]))
            r0 = nz[0]
            for r in nz[1:]:
                q = m[r][col] // m[r0][col]
                if q:
                    m[r] = [a - q * b for a, b in zip(m[r], m[r0])]
        r = nz[0]
        if r != col:
            m[r], m[col] = m[col], m[r]
        if m[col][col] < 0:
            m[col] = [-a for a in m[col]]
    return m


_V = tuple[int, int, int]
_Flag = tuple[_V, _V, _V, _V]


def _add(a: _V, b: _V, k: int = 1) -> _V:
    return (a[0] + k * b[0], a[1] + k * b[1], a[2] + k * b[2])


def _is_tri(fs: _V) -> bool:
    return fs[0] % 2 == 1  # triangle sums are all odd, square sums all even


def _rect3_phi(c: int, fl: _Flag) -> _Flag:
    """The colour-``c`` neighbour of a flag of the rectified cubic honeycomb."""
    p, e, fs, cc = fl
    if c == 0:
        return (_add(e, p, -1), e, fs, cc)
    if c == 1:
        if _is_tri(fs):
            return (p, _add(_add(fs, e, -1), p), fs, cc)
        return (p, tuple(2 * p[k] + fs[k] // 2 - e[k] for k in range(3)), fs, cc)
    if c == 2:
        if not cc[0] % 2:  # octahedron: both faces at an edge are triangles
            return (p, e, tuple(2 * (e[k] + cc[k]) - fs[k] for k in range(3)), cc)
        d = _add(e, cc, -2)  # cuboctahedron: centres have all-odd coordinates
        axis = next(k for k in range(3) if abs(d[k]) == 2)
        s = d[axis] // 2
        if _is_tri(fs):
            fs2 = tuple(4 * cc[k] + (4 * s if k == axis else 0) for k in range(3))
        else:
            fs2 = tuple(3 * cc[k] + 2 * (s if k == axis else d[k]) for k in range(3))
        return (p, e, fs2, cc)
    if not _is_tri(fs):
        return (p, e, fs, tuple(fs[k] // 2 - cc[k] for k in range(3)))
    if cc[0] % 2:
        return (p, e, fs, tuple((fs[k] - cc[k]) // 2 for k in range(3)))
    return (p, e, fs, tuple(fs[k] - 2 * cc[k] for k in range(3)))


@lru_cache(maxsize=None)
def _rect3_types() -> tuple[tuple[_Flag, ...], tuple]:
    """The honeycomb's 144 flag types, numbered breadth-first from the base
    flag, and the table whose entry ``[t][c]`` is ``(u, d)``: the colour-``c``
    neighbour of type ``t`` is type ``u`` moved by ``d`` units (``None``: no
    move).  A flag's type is the flag moved by ``-(p // 2)`` units, which puts
    its vertex ``p`` in the unit box; a unit is 2 in doubled coordinates.
    """
    moves: list[Optional[_V]] = []

    def step(c: int, fl: _Flag) -> _Flag:
        p, e, fs, cc = _rect3_phi(c, fl)
        d = (p[0] // 2, p[1] // 2, p[2] // 2)
        moves.append(d if any(d) else None)  # orbit's (4t + c)-th step
        k = -6 if _is_tri(fs) else -8
        return (_add(p, d, -2), _add(e, d, -4), _add(fs, d, k), _add(cc, d, -2))

    types, rows = orbit(((1, 0, 0), (1, 1, 0), (4, 4, 0), (1, 1, 1)), step, 4)
    return tuple(types), tuple(
        tuple(zip(us, moves[4 * t : 4 * t + 4])) for t, us in enumerate(zip(*rows))
    )


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
    centre.  Lattice vectors are unit translations, so a flag of the quotient
    is a type of ``_rect3_types`` (built once per process) and a unit
    translation reduced modulo the lattice; these states are numbered
    breadth-first from the base flag.  Raises :class:`DegenerateBasis` for a
    singular basis and :class:`BadParam` for a malformed one.
    """
    if basis is None:
        basis = DEFAULT_3TORUS_BASIS
    try:
        rows_in = [[_integer("a basis entry", x) for x in row] for row in basis]
    except TypeError:  # the basis or one of its rows is not iterable
        rows_in = []
    if len(rows_in) != 3 or any(len(r) != 3 for r in rows_in):
        raise BadParam("the basis must be three integer 3-vectors")
    h = _hnf_lower(rows_in)
    # 144 * |det basis| flags
    expected = _flag_count("the quotient", 144 * h[0][0] * h[1][1] * h[2][2])

    def canon(v: list[int]) -> _V:
        for k in (2, 1, 0):
            t = v[k] // h[k][k]
            v = [a - t * b for a, b in zip(v, h[k])]
        return tuple(v)

    table = _rect3_types()[1]
    moved: dict[tuple[_V, _V], _V] = {}  # (translation, move) -> translation

    def step(c: int, state: tuple[int, _V]) -> tuple[int, _V]:
        t, at = state
        u, d = table[t][c]
        if d is None:
            return u, at
        to = moved.get((at, d))
        if to is None:
            to = moved[at, d] = canon([at[0] + d[0], at[1] + d[1], at[2] + d[2]])
        return u, to

    order, rows = orbit((0, (0, 0, 0)), step, 4)
    if len(order) != expected:
        raise InconsistentVerdicts(f"expected {expected} flags, got {len(order)}")
    return Maniplex(build_graph(4, rows))


# -- random maniplexes --------------------------------------------------------


def _rand_involution(rng: random.Random, size: int) -> list[int]:
    """A uniformly random fixed-point-free involution."""
    order = list(range(size))
    rng.shuffle(order)
    row = [0] * size
    for k in range(0, size, 2):
        a, b = order[k], order[k + 1]
        row[a], row[b] = b, a
    return row


def _rand_matching(
    rng: random.Random, size: int, avoid: list[set[int]]
) -> Optional[list[int]]:
    """A random fixed-point-free involution with ``row[v]`` never in
    ``avoid[v]``, or ``None`` when the greedy pairing gets stuck."""
    row = [-1] * size
    order = list(range(size))
    rng.shuffle(order)
    for v in order:
        if row[v] != -1:
            continue
        cands = [
            u for u in order if row[u] == -1 and u != v and u not in avoid[v]
        ]
        if not cands:
            return None
        u = rng.choice(cands)
        row[v], row[u] = u, v
    return row


def _lift(
    rng: random.Random,
    size: int,
    base: list[int],
    avoid: Optional[list[set[int]]],
) -> Optional[list[int]]:
    """An involution commuting with ``base`` pointwise, built by matching
    the edges of ``base`` in pairs and orienting each pair.

    Never maps a flag to itself or its ``base`` partner; ``avoid`` adds
    per-flag forbidden images.  Returns ``None`` when pairing gets stuck.
    """
    edges = [(v, base[v]) for v in range(size) if v < base[v]]
    if len(edges) % 2:
        return None

    def orientations(x: int, y: int) -> list[tuple[int, int, int, int]]:
        a, b = edges[x]
        c, d = edges[y]
        outs = []
        for p, q in ((c, d), (d, c)):
            if avoid is None or (p not in avoid[a] and q not in avoid[b]):
                outs.append((a, p, b, q))
        return outs

    row = [-1] * size
    order = list(range(len(edges)))
    rng.shuffle(order)
    done = [False] * len(edges)
    for x in order:
        if done[x]:
            continue
        cands = [
            y for y in order if not done[y] and y != x and orientations(x, y)
        ]
        if not cands:
            return None
        y = rng.choice(cands)
        a, p, b, q = rng.choice(orientations(x, y))
        row[a], row[p] = p, a
        row[b], row[q] = q, b
        done[x] = done[y] = True
    return row


def _try_random(
    rng: random.Random, rank: int, budget: int
) -> Optional[Maniplex]:
    if rank == 3:
        f = 4 * rng.randrange(1, budget // 4 + 1)
        r0 = _rand_involution(rng, f)
        r2 = _lift(rng, f, r0, None)
        if r2 is None:
            return None
        r1 = _rand_matching(rng, f, [{r0[v], r2[v]} for v in range(f)])
        if r1 is None:
            return None
        rows = [r0, r1, r2]
    else:
        f = 4 * rng.randrange(2, budget // 4 + 1)
        r1 = _rand_involution(rng, f)
        r3 = _lift(rng, f, r1, None)
        if r3 is None:
            return None
        r0 = _lift(rng, f, r3, [{r1[v]} for v in range(f)])
        if r0 is None:
            return None
        r2 = _lift(rng, f, r0, [{r1[v], r3[v]} for v in range(f)])
        if r2 is None:
            return None
        rows = [r0, r1, r2, r3]
    rows = component_rows(rows, 0)
    try:
        return Maniplex(build_graph(rank, rows))
    except ManiplexError:
        return None


def random_maniplex(rank: int, seed: int, budget: int = 64) -> Maniplex:
    """A seeded random maniplex with at most ``budget`` flags.

    Rank 1 has a single shape; rank 2 is a random polygon.  For ranks 3 and
    4 the matchings are sampled so the distant-colour commutations hold by
    construction (each later colour pairs up the edges of an earlier one),
    then the component of flag 0 is kept.  Raises :class:`BudgetExhausted`
    when no sample validates within the retry allowance, and
    :class:`BadParam` for an unsupported rank or an out-of-range budget.
    """
    rank, seed = _integer("rank", rank), _integer("seed", seed)
    budget = _integer("budget", budget)
    if not 1 <= rank <= 4:
        raise BadParam(f"random generation supports ranks 1..4, got {rank}")
    if budget > 512:
        raise BadParam(f"budget {budget} exceeds the cap of 512 flags")
    minimum = {1: 2, 2: 4, 3: 4, 4: 8}[rank]
    if budget < minimum:
        raise BadParam(f"rank {rank} needs a budget of at least {minimum}")
    rng = random.Random(seed)
    if rank == 1:
        return Maniplex(build_graph(1, [[1, 0]]))
    if rank == 2:
        return polygon(rng.randrange(2, budget // 2 + 1))
    for _ in range(400):
        m = _try_random(rng, rank, budget)
        if m is not None:
            return m
    raise BudgetExhausted(
        f"no valid rank-{rank} sample within {budget} flags after 400 tries"
    )
