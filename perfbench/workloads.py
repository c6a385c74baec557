"""Workload inputs and checked operations for the polytopality benchmark.

Every input is generated from the workload seed with ``maniplexes.generators``
(or, for the bit-flip family, from ``build_graph`` rows) and handed to the
library as ``.mpx`` text only.  An operation is a pair of callables: ``call``
runs the library and is the only part that is timed; ``check`` validates the
result outside the timed region and returns the bytes that go into the
workload digest, or raises :class:`CheckFailed`.

The library is reached through module attributes looked up at call time
(``mp.read_mpx`` and so on), so that the wrappers installed by
``tracing.py`` see every call made here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

import maniplexes as mp

WORKLOADS = ("tori", "high_rank", "mix_cover")

# The alternative 3-torus basis from the test suite: diamond holds, yet the
# quotient is not polytopal, so `is_polytopal` takes the SFC witness path.
ALT_3TORUS_BASIS = ((1, 1, 0), (1, -1, 0), (0, 0, 2))

# sha256 over every op's checked output for one pass at seed 0, recorded from
# the unmodified library.  A later change that alters a witness, an output
# byte or a cover/iso map fails the benchmark at the reference seed.
REFERENCE_SEED = 0
REFERENCE_DIGESTS = {
    "tori": "079f3434da106e7091f1ea41478d485558cc6893e484a19c45a0e735020fa359",
    "high_rank": "79ddb4cc944e1d7c863962f2e8e4d621b11648465037627134125963ea991197",
    "mix_cover": "b06b7282cb1ab411207484fa75ec79dfffb729465b8004c35ac7aa0bb2f66d4f",
}


class CheckFailed(Exception):
    """An operation returned a wrong verdict, map or output."""


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], bytes]


@dataclass
class Inputs:
    """What one set-up produces: named ``.mpx`` texts and per-op data."""

    texts: dict[str, str] = field(default_factory=dict)
    expected: dict[str, bool] = field(default_factory=dict)
    mix_bases: dict[str, tuple[int, int]] = field(default_factory=dict)
    cli_text: str = ""


# -- input generation ---------------------------------------------------------


def flag_permutation(seed: int, name: str, size: int) -> list[int]:
    """The relabelling of input ``name``: ``perm[old] = new``, drawn from
    ``(seed, name)``; seed 0 keeps the generator's own labels.

    Flag 0 keeps its label at every seed.  Cover and isomorphism searches
    anchor flag 0 at target flags 0, 1, ... in turn, so on an input that is
    not flag-transitive a moved flag 0 would change how many anchors a search
    tries, and with it the cost of the op, from seed to seed."""
    perm = list(range(size))
    if seed != 0:
        rest = perm[1:]
        random.Random(f"{seed}/{name}").shuffle(rest)
        perm[1:] = rest
    return perm


def relabel(graph: Any, seed: int, name: str) -> list[list[int]]:
    """Rows of ``graph`` with flags renamed by :func:`flag_permutation`."""
    perm = flag_permutation(seed, name, graph.size)
    rows = []
    for row in graph.matchings:
        out = [0] * graph.size
        for v, w in enumerate(row):
            out[perm[v]] = perm[w]
        rows.append(out)
    return rows


def bitflip_rows(n: int) -> list[list[int]]:
    """The rank-``n`` {2,...,2} maniplex: colour ``c`` flips bit ``c``."""
    return [[v ^ (1 << c) for v in range(1 << n)] for c in range(n)]


def _text(rank: int, rows: list[list[int]]) -> str:
    return mp.write_mpx(mp.build_graph(rank, rows))


def _relabelled_text(m: Any, seed: int, name: str) -> str:
    return _text(m.rank, relabel(m.graph, seed, name))


def _tori(seed: int, tiny: bool) -> Inputs:
    inp = Inputs()
    # The smallest torus stays above the 3-torus ops in cost, so the median
    # op is torus_44(8, 0).  The sizes are kept small enough that a run holds
    # a dozen passes or more, for a steady median.
    for b in (2, 3) if tiny else (8, 10, 12):
        name = f"torus_44({b},0)"
        inp.texts[name] = _relabelled_text(mp.torus_44(b, 0), seed, name)
        inp.expected[name] = True
    for name, basis in (
        ("rect3torus", None),
        ("rect3torus_alt", ALT_3TORUS_BASIS),
    )[: 1 if tiny else 2]:
        m = mp.rectified_cubic_3torus(basis)
        inp.texts[name] = _relabelled_text(m, seed, name)
        inp.expected[name] = False
    b = 2 if tiny else 8
    inp.cli_text = _relabelled_text(mp.torus_44(b, 0), seed, f"torus_44({b},0)")
    return inp


def _high_rank(seed: int, tiny: bool) -> Inputs:
    inp = Inputs()
    # Five ops, so the median op is one input's cluster; bit-flip rank 9 and
    # hypercube(5) take 2 s each and would leave too few passes in a run.
    for n in (3, 4) if tiny else (5, 6, 7, 8):
        name = f"bitflip({n})"
        graph = mp.build_graph(n, bitflip_rows(n))
        inp.texts[name] = _text(n, relabel(graph, seed, name))
        inp.expected[name] = True
    d = 3 if tiny else 4
    name = f"hypercube({d})"
    inp.texts[name] = _relabelled_text(mp.hypercube(d), seed, name)
    inp.expected[name] = True
    # A small input keeps each CLI check short, so a run holds many of them.
    inp.cli_text = inp.texts["bitflip(3)" if tiny else "bitflip(5)"]
    return inp


# Mix factors, the cover search with no result and the non-isomorphic pair.
_MIX_PARTS = {
    "tiny": {
        "A": (2, 0), "B": (3, 0), "C": (1, 0), "D": (2, 0),
        "none_src": (4, 0), "none_dst": (3, 0),
        "iso_g": (5, 0), "iso_h": (4, 3),
        "iso_pos": (2, 1),
    },
    "full": {
        "A": (4, 0), "B": (3, 0), "C": (2, 0), "D": (3, 0),
        "none_src": (12, 0), "none_dst": (5, 0),
        "iso_g": (11, 2), "iso_h": (10, 5),
        "iso_pos": (11, 2),
    },
}

# (mix name, first factor, second factor); the pairs are mixed, then each
# mix is covered onto both of its factors.
_MIXES = (("AB", "A", "B"), ("CD", "C", "D"), ("R", "rect3torus", "rect3torus_alt"))


def _mix_cover(seed: int, tiny: bool) -> Inputs:
    inp = Inputs()
    parts = _MIX_PARTS["tiny" if tiny else "full"]
    for name, (b, c) in parts.items():
        inp.texts[name] = _relabelled_text(mp.torus_44(b, c), seed, name)
    # Relabelled with the next seed's permutation, so the isomorphism is not
    # the identity even at seed 0.
    inp.texts["iso_pos_relabelled"] = _relabelled_text(
        mp.torus_44(*parts["iso_pos"]), seed + 1, "iso_pos_relabelled"
    )
    for name, basis in (
        ("rect3torus", None),
        ("rect3torus_alt", ALT_3TORUS_BASIS),
    ):
        m = mp.rectified_cubic_3torus(basis)
        inp.texts[name] = _relabelled_text(m, seed, name)
    rng = random.Random(f"{seed}/bases")
    for mix_name, a, b in _MIXES:
        if mix_name == "R":
            # The 3-torus quotients are not flag-transitive, so the mix size
            # depends on the base pair; keep the seed-0 pair (flags 0, 0),
            # which the seeded relabelling leaves in place.
            inp.mix_bases[mix_name] = (0, 0)
        else:
            # These tori are reflexible, hence flag-transitive: every base
            # pair gives the same mix.
            inp.mix_bases[mix_name] = (
                0 if seed == 0 else rng.randrange(_size(inp.texts[a])),
                0 if seed == 0 else rng.randrange(_size(inp.texts[b])),
            )
    inp.cli_text = inp.texts["A"]
    return inp


def _size(text: str) -> int:
    return int(text.split("\n", 1)[0].split()[2])


_SETUP = {
    "tori": _tori,
    "high_rank": _high_rank,
    "mix_cover": _mix_cover,
}


def setup(workload: str, seed: int, tiny: bool = False) -> Inputs:
    """Generate the workload's inputs as ``.mpx`` text."""
    return _SETUP[workload](seed, tiny)


# -- operations ---------------------------------------------------------------


def check_text(text: str) -> tuple[bool, bool, str]:
    """One polytopality op: parse, validate, decide, serialize."""
    m = mp.Maniplex(mp.read_mpx(text))
    report = mp.is_polytopal(m)
    return report.polytopal, report.verdicts_consistent, mp.write_json(m, report)


def _check_verdict(expected: bool) -> Callable[[Any], bytes]:
    def check(result: tuple[bool, bool, str]) -> bytes:
        polytopal, consistent, out = result
        if not consistent:
            raise CheckFailed("criteria disagree")
        if polytopal != expected:
            raise CheckFailed(f"verdict {polytopal}, expected {expected}")
        return out.encode()

    return check


def _rows(m: Any) -> list[list[int]]:
    return [list(row) for row in m.graph.matchings]


def _is_covering(src: list[list[int]], dst: list[list[int]], phi: Any) -> bool:
    """Colour-preserving surjection from ``src`` onto ``dst``; checked here,
    independently of the library, because the library's own check is an
    ``assert``."""
    size = len(dst[0])
    if len(phi) != len(src[0]) or len(src) != len(dst):
        return False
    if any(not 0 <= t < size for t in phi):
        return False
    for srow, drow in zip(src, dst):
        if any(phi[srow[v]] != drow[phi[v]] for v in range(len(phi))):
            return False
    return len(set(phi)) == size


def _expect_none(result: Any) -> bytes:
    if result is not None:
        raise CheckFailed(f"expected no map, got {type(result).__name__}")
    return b"none"


def _expect_map(src: list[list[int]], dst: list[list[int]]) -> Callable[[Any], bytes]:
    def check(phi: Any) -> bytes:
        if phi is None:
            raise CheckFailed("expected a map, got none")
        phi = getattr(phi, "map", phi)
        if not _is_covering(src, dst, phi):
            raise CheckFailed("map is not a colour-preserving surjection")
        return repr(tuple(phi)).encode()

    return check


def ops_for_pass(workload: str, inp: Inputs) -> list[Op]:
    """The ops of one pass.  For ``mix_cover`` this parses the inputs first
    (untimed), so no pass reuses another pass's component caches."""
    if workload != "mix_cover":
        return [
            Op(name, lambda t=text: check_text(t), _check_verdict(inp.expected[name]))
            for name, text in inp.texts.items()
        ]
    ms = {name: mp.Maniplex(mp.read_mpx(text)) for name, text in inp.texts.items()}
    rows = {name: _rows(m) for name, m in ms.items()}
    mixes: dict[str, Any] = {}
    ops: list[Op] = []
    for mix_name, a, b in _MIXES:
        ba, bb = inp.mix_bases[mix_name]

        def do_mix(a=a, b=b, ba=ba, bb=bb, mix_name=mix_name) -> Any:
            mixes[mix_name] = mp.mix(ms[a], ms[b], ba, bb)
            return mixes[mix_name]

        def check_mix(m: Any, a=a, b=b) -> bytes:
            if m.rank != ms[a].rank or m.size % ms[a].size or m.size % ms[b].size:
                raise CheckFailed("mix size is not a multiple of both factors")
            return repr(m.graph.matchings).encode()

        ops.append(Op(f"mix {mix_name}", do_mix, check_mix))
        for factor in (a, b):

            def do_cover(mix_name=mix_name, factor=factor) -> Any:
                return mp.find_covering(mixes[mix_name], ms[factor])

            def check_cover(cov: Any, mix_name=mix_name, factor=factor) -> bytes:
                return _expect_map(_rows(mixes[mix_name]), rows[factor])(cov)

            ops.append(Op(f"cover {mix_name}->{factor}", do_cover, check_cover))
    ops.append(
        Op(
            "cover none",
            lambda: mp.find_covering(ms["none_src"], ms["none_dst"]),
            _expect_none,
        )
    )
    ops.append(
        Op(
            "iso none",
            lambda: mp.are_isomorphic(ms["iso_g"].graph, ms["iso_h"].graph),
            _expect_none,
        )
    )
    ops.append(
        Op(
            "iso relabelled",
            lambda: mp.are_isomorphic(
                ms["iso_pos"].graph, ms["iso_pos_relabelled"].graph
            ),
            _expect_map(rows["iso_pos"], rows["iso_pos_relabelled"]),
        )
    )
    return ops
