"""Command-line interface.

Subcommands: ``check`` (polytopality report), ``gen`` (generator families),
``poset`` (induced poset summaries and DOT), ``mix`` (parallel product),
``iso`` (flag-graph isomorphism), and ``cover`` (covering map search).

Exit codes: 0 success / polytopal, 1 negative verdict, 2 invalid data or
a check refused over its work cap, 64 usage errors, 66 unreadable input.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .errors import ManiplexError, ParseError
from .generators import (
    DEFAULT_3TORUS_BASIS,
    hypercube,
    klein_44,
    polygon,
    random_maniplex,
    rectified_cubic_3torus,
    torus_44,
)
from .maniplex import Maniplex
from .mix import find_covering, mix
from .mpxio import (
    poset_dot,
    read_mpx,
    write_dot,
    write_json,
    write_mpx,
)
from .graphs import are_isomorphic
from .posets import PosetReport, induced_poset, is_polytope
from .polytopality import is_polytopal

USAGE_ERROR = 64
IO_ERROR = 66
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 64."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _load(path: str) -> Maniplex:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        raise ParseError(line, f"byte 0x{data[err.start]:02x} is not UTF-8") from None
    return Maniplex(read_mpx(text))


def _emit(text: str, output: str) -> None:
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _fmt_set(colours) -> str:
    return "{" + ",".join(map(str, colours)) + "}"


def _fmt_checks(report: PosetReport) -> str:
    return (
        f"uniform={report.uniform_chain_length.holds} "
        f"diamond={report.diamond.holds} "
        f"strongly-flag-connected={report.strong_flag_connected.holds} "
        f"faithful={report.faithful.holds}"
    )


def _cmd_check(args) -> int:
    m = _load(args.file)
    report = is_polytopal(m)
    if args.json:
        sys.stdout.write(write_json(m, report))
    else:
        counts = " ".join(
            str(m.face_partition(i).block_count()) for i in range(m.rank)
        )
        print(f"rank {m.rank}, {m.size} flags, faces per rank: {counts}")
        cip = report.cip
        if cip.holds:
            print("CIP: holds")
        else:
            w = cip.witness
            print(
                f"CIP: fails at S={_fmt_set(w.colours)} "
                f"(flags {w.flag_a} and {w.flag_b} joined in the meet but "
                f"not by the colours outside S)"
            )
        wp = report.wpip
        if wp.holds:
            print("WPIP: holds")
        else:
            w = wp.witness
            print(
                f"WPIP: fails at (i,j)={w.low, w.high} "
                f"(flags {w.flag_a} and {w.flag_b} have no path strictly "
                f"between); failing pairs: "
                + ", ".join(map(str, wp.failures))
            )
        spip = report.spip
        if spip.holds:
            print("SPIP: holds")
        else:
            w = spip.witness
            print(
                f"SPIP: fails at A={_fmt_set(w.colours_a)}, "
                f"B={_fmt_set(w.colours_b)} (flags {w.flag_a} and {w.flag_b})"
            )
        po = report.poset
        print(f"poset: {po.chain_count} maximal chains; {_fmt_checks(po)}")
        print(f"polytopal: {'yes' if report.polytopal else 'no'}")
    return 0 if report.polytopal else 1


def _rect3torus(args) -> Maniplex:
    try:
        basis = tuple(
            tuple(int(x) for x in vec.split(","))
            for vec in (args.v1, args.v2, args.v3)
        )
        if any(len(v) != 3 for v in basis):
            raise ValueError
    except ValueError:
        raise ManiplexError(
            "each basis vector needs three comma-separated integers"
        ) from None
    return rectified_cubic_3torus(basis)


def _cmd_gen(args) -> int:
    _emit(write_mpx(args.build(args).graph), args.output)
    return 0


def _cmd_poset(args) -> int:
    m = _load(args.file)
    p = induced_poset(m)
    if args.dot:
        sys.stdout.write(poset_dot(p))
        return 0
    report = is_polytope(p)
    counts = " ".join(str(c) for c in p.counts())
    print(f"rank {p.n}, faces per rank: {counts}")
    print(f"maximal chains: {report.chain_count}")
    print(_fmt_checks(report))
    print(f"polytope: {'yes' if report.is_polytope else 'no'}")
    return 0


def _cmd_graph_dot(args) -> int:
    m = _load(args.file)
    sys.stdout.write(write_dot(m.graph))
    return 0


def _cmd_mix(args) -> int:
    a = _load(args.file_a)
    b = _load(args.file_b)
    m = mix(a, b, args.base_a, args.base_b)
    _emit(write_mpx(m.graph), args.output)
    return 0


def _cmd_iso(args) -> int:
    a = _load(args.file_a)
    b = _load(args.file_b)
    phi = are_isomorphic(a.graph, b.graph)
    if phi is None:
        print("not isomorphic")
        return 1
    print(" ".join(map(str, phi)))
    return 0


def _cmd_cover(args) -> int:
    a = _load(args.file_a)
    b = _load(args.file_b)
    cov = find_covering(a, b)
    if cov is None:
        print("no covering")
        return 1
    print(" ".join(map(str, cov.map)))
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="maniplex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide polytopality of an .mpx file")
    p_check.add_argument("file")
    p_check.add_argument("--json", action="store_true", help="JSON report")
    p_check.set_defaults(func=_cmd_check)

    p_gen = sub.add_parser("gen", help="generate a maniplex family member")
    families = p_gen.add_subparsers(dest="family", required=True)
    basis = [",".join(map(str, v)) for v in DEFAULT_3TORUS_BASIS]
    for family, build, flags in (
        ("polygon", lambda a: polygon(a.p), [("--p", 3, "polygon sides")]),
        ("cube", lambda a: hypercube(a.d), [("--d", 3, "cube dimension")]),
        (
            "torus44",
            lambda a: torus_44(a.b, a.c),
            [("--b", 1, "translation x"), ("--c", 0, "translation y")],
        ),
        ("klein44", lambda a: klein_44(), []),
        (
            "rect3torus",
            _rect3torus,
            [
                (f"--v{k}", v, f"basis vector {k} (comma-separated)")
                for k, v in enumerate(basis, 1)
            ],
        ),
        (
            "random",
            lambda a: random_maniplex(a.rank, a.seed, a.budget),
            [
                ("--rank", 3, "rank (1..4)"),
                ("--seed", 0, "random seed"),
                ("--budget", 64, "flag budget (max 512)"),
            ],
        ),
    ):
        p_family = families.add_parser(family)
        for flag, default, text in flags:
            p_family.add_argument(flag, type=type(default), default=default, help=text)
        p_family.add_argument("-o", "--output", default="-", help="output file or -")
        p_family.set_defaults(build=build)
    p_gen.set_defaults(func=_cmd_gen)

    p_poset = sub.add_parser("poset", help="summarize the induced poset")
    p_poset.add_argument("file")
    p_poset.add_argument(
        "--dot", action="store_true", help="emit the Hasse diagram as DOT"
    )
    p_poset.set_defaults(func=_cmd_poset)

    p_dot = sub.add_parser("dot", help="emit the coloured graph as DOT")
    p_dot.add_argument("file")
    p_dot.set_defaults(func=_cmd_graph_dot)

    p_mix = sub.add_parser("mix", help="mix two maniplexes")
    p_mix.add_argument("file_a")
    p_mix.add_argument("file_b")
    p_mix.add_argument("--base-a", type=int, default=0)
    p_mix.add_argument("--base-b", type=int, default=0)
    p_mix.add_argument("-o", "--output", default="-", help="output file or -")
    p_mix.set_defaults(func=_cmd_mix)

    p_iso = sub.add_parser("iso", help="test flag-graph isomorphism")
    p_iso.add_argument("file_a")
    p_iso.add_argument("file_b")
    p_iso.set_defaults(func=_cmd_iso)

    p_cover = sub.add_parser("cover", help="find a covering of B by A")
    p_cover.add_argument("file_a")
    p_cover.add_argument("file_b")
    p_cover.set_defaults(func=_cmd_cover)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ManiplexError as err:
        print(f"error: {err}", file=sys.stderr)
        return DATA_ERROR
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return IO_ERROR


def entry() -> None:
    sys.exit(main())
