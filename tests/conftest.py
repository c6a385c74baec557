"""Shared fixtures: the named maniplex corpus and the seeded random corpus.

``geometric_fixtures`` holds every generator-produced maniplex the suite
reasons about; ``all_fixtures`` adds ``oddball8``, a hand-frozen 8-flag
4-maniplex whose middle face is a degree-2 covering of its below/above
product (the witness that the product factorization is not always a
bijection).  ``corpus`` is 1000 seeded random maniplexes with their four
polytopality verdicts precomputed, shared by the equivalence suites.
``squares_mod_half_turn`` builds an input whose poset is a polytope although
the maniplex is not polytopal; it is in neither fixture set, so their pinned
counts stay as they are.
"""

from __future__ import annotations

import inspect
import operator
import os
import random
import signal
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import pytest

from maniplexes import (
    InducedPoset,
    Maniplex,
    PosetReport,
    build_graph,
    check_cip,
    check_spip,
    check_wpip,
    hypercube,
    induced_poset,
    klein_44,
    polygon,
    random_maniplex,
    rectified_cubic_3torus,
    torus_44,
)
from maniplexes.graphs import gather, numbers

# The CLI tests run the package in child processes, which must import it from
# this source tree too; pyproject's `pythonpath` reaches only this process.
SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH")))
)

ODDBALL8_ROWS = (
    (4, 5, 6, 7, 0, 1, 2, 3),
    (6, 3, 4, 1, 2, 7, 0, 5),
    (1, 0, 3, 2, 5, 4, 7, 6),
    (7, 2, 1, 4, 3, 6, 5, 0),
)

ALT_3TORUS_BASIS = ((1, 1, 0), (1, -1, 0), (0, 0, 2))

POLYTOPAL_NAMES = frozenset(
    [f"polygon({p})" for p in range(2, 7)]
    + [f"hypercube({d})" for d in range(1, 5)]
    + ["torus44(2,0)", "torus44(2,1)", "torus44(2,2)"]
)


def relabelled(m: Maniplex, seed: int) -> Maniplex:
    """A copy under a seeded flag permutation that moves flag 0."""
    rng = random.Random(seed)
    perm = list(range(m.size))
    while perm[0] == 0:
        rng.shuffle(perm)
    rows = [[0] * m.size for _ in range(m.rank)]
    for row, out in zip(m.graph.matchings, rows):
        for v, w in enumerate(row):
            out[perm[v]] = perm[w]
    return Maniplex(build_graph(m.rank, rows))


def dual(m: Maniplex) -> Maniplex:
    """The colour-reversed maniplex: colour ``c`` becomes ``rank - 1 - c``.
    Its faces of rank ``i`` are those of ``m`` of rank ``rank - 1 - i``, so
    its induced poset is the dual of ``m``'s."""
    return Maniplex(build_graph(m.rank, m.graph.matchings[::-1]))


def ditope(m: Maniplex, at_top: bool) -> Maniplex:
    """Two copies of ``m``'s flags, ``v`` and ``v + size``, joined by a new
    colour that swaps them: colour ``rank`` when ``at_top``, else colour 0,
    with the old colours moved up by one.  The new colour commutes with
    every colour, its faces at that end are the two copies, and the ditope
    is polytopal exactly when ``m`` is."""
    size = m.size
    rows = [list(row) + [w + size for w in row] for row in m.graph.matchings]
    swap = [v + size for v in range(size)] + list(range(size))
    rows = rows + [swap] if at_top else [swap] + rows
    return Maniplex(build_graph(m.rank + 1, rows))


def shares_numbers(values, size: int) -> bool:
    """Whether each of ``values`` is the object ``numbers(size)`` holds at
    that number, not an equal int of its own."""
    return all(map(operator.is_, values, gather(values)(numbers(size))))


@contextmanager
def deadline(seconds):
    """Raise ``TimeoutError`` in the body after ``seconds``, so that a search
    that cannot answer fails instead of hanging the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def lines_run(func, call) -> set[str]:
    """The stripped source lines of ``func`` that ran while ``call()`` ran."""
    code = func.__code__
    source, first = inspect.getsourcelines(func)
    seen: set[int] = set()

    def in_func(frame, event, arg):
        if event == "line":
            seen.add(frame.f_lineno)
        return in_func

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: in_func if frame.f_code is code else None)
    try:
        call()
    finally:
        sys.settrace(previous)
    return {source[n - first].strip() for n in seen}


def oddball8() -> Maniplex:
    return Maniplex(build_graph(4, ODDBALL8_ROWS))


def torus11_times_bits(k: int) -> Maniplex:
    """Rank ``3 + k``: colours 0..2 act on torus44(1,1), colours 3.. each
    flip one bit of a ``k``-bit cube factor, so the torus defect breaks the
    interval property at the window (0, 2)."""
    t = torus_44(1, 1)
    cube = 1 << k
    flags = range(t.size * cube)  # flag cube * a + b: torus flag a, cube flag b
    rows = [
        [t.neighbour(c, v // cube) * cube + v % cube for v in flags] for c in range(3)
    ]
    rows += [[v ^ (1 << bit) for v in flags] for bit in range(k)]
    return Maniplex(build_graph(3 + k, rows))


def squares_mod_half_turn() -> Maniplex:
    """Rank 4, 32 flags: pairs ``(a, b)`` of flags of ``polygon(4)`` with
    ``(a, b)`` and ``(h[a], h[b])`` identified, ``h`` the square's half-turn
    ``r1 r0 r1 r0``.  Colours 0 and 1 act on ``a``, 2 and 3 on ``b``; flags
    are numbered by sorted class representative, the smaller pair of each
    class.  Its poset is the polytope {2, 2, 2}, with 16 maximal chains, but
    it is not faithful, so it is not polytopal: the words in colours 0 and 1
    and those in colours 2 and 3 share the half-turn, so the intersection
    condition fails."""
    r0, r1 = polygon(4).graph.matchings
    h = [r1[r0[r1[r0[v]]]] for v in range(8)]
    classes = sorted({min((a, b), (h[a], h[b])) for a in range(8) for b in range(8)})
    index = {}
    for k, (a, b) in enumerate(classes):
        index[a, b] = index[h[a], h[b]] = k
    rows = [[index[r[a], b] for a, b in classes] for r in (r0, r1)]
    rows += [[index[a, r[b]] for a, b in classes] for r in (r0, r1)]
    return Maniplex(build_graph(4, rows))


def build_geometric_fixtures() -> dict[str, Maniplex]:
    out: dict[str, Maniplex] = {}
    for p in range(2, 7):
        out[f"polygon({p})"] = polygon(p)
    for d in range(1, 5):
        out[f"hypercube({d})"] = hypercube(d)
    for b, c in [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]:
        out[f"torus44({b},{c})"] = torus_44(b, c)
    out["klein44"] = klein_44()
    out["rect3torus"] = rectified_cubic_3torus()
    out["rect3torus_alt"] = rectified_cubic_3torus(ALT_3TORUS_BASIS)
    return out


@pytest.fixture(scope="session")
def geometric_fixtures() -> dict[str, Maniplex]:
    return build_geometric_fixtures()


@pytest.fixture(scope="session")
def all_fixtures(geometric_fixtures) -> dict[str, Maniplex]:
    out = dict(geometric_fixtures)
    out["oddball8"] = oddball8()
    return out


@pytest.fixture(scope="session")
def all_posets(all_fixtures) -> dict[str, InducedPoset]:
    return {name: induced_poset(m) for name, m in all_fixtures.items()}


@pytest.fixture(scope="session")
def all_reports(all_posets) -> dict[str, PosetReport]:
    return {name: p.report() for name, p in all_posets.items()}


@dataclass(frozen=True)
class CorpusSample:
    seed: int
    maniplex: Maniplex
    cip: bool
    wpip: bool
    spip: bool
    poset_report: PosetReport


CORPUS_SIZE = 1000
CORPUS_BUDGET = 64


@pytest.fixture(scope="session")
def corpus() -> tuple[CorpusSample, ...]:
    from maniplexes.errors import BudgetExhausted

    samples = []
    seed = 0
    while len(samples) < CORPUS_SIZE:
        rank = 1 + seed % 4
        try:
            m = random_maniplex(rank, seed=seed, budget=CORPUS_BUDGET)
        except BudgetExhausted:
            seed += 1
            continue
        samples.append(
            CorpusSample(
                seed=seed,
                maniplex=m,
                cip=bool(check_cip(m)),
                wpip=bool(check_wpip(m).holds),
                spip=bool(check_spip(m)),
                poset_report=induced_poset(m).report(),
            )
        )
        seed += 1
    return tuple(samples)
