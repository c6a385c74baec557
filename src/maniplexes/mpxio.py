"""Serialization: the .mpx text format, DOT graphs, and JSON reports.

An .mpx file is a header line ``mpx <rank> <flags>`` followed by one line
per colour listing each flag's neighbour, whitespace-separated.  ``#``
starts a comment anywhere on a line; blank lines are ignored.  Reading a
written graph returns an equal graph, and writing a canonical file back is
bit-exact.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Optional

from .errors import ManiplexError, ParseError
from .graphs import MAX_RANK, ColouredGraph, build_graph
from .maniplex import Maniplex
from .posets import InducedPoset, PosetReport
from .polytopality import PolytopalityReport


def read_mpx(text: str) -> ColouredGraph:
    """Parse an .mpx document into a validated coloured graph.

    All structural problems raise :class:`ParseError` carrying the offending
    line number; matching-level violations keep the underlying error as the
    cause.
    """
    header: Optional[tuple[int, int, int]] = None
    rows: list[list[int]] = []
    row_lines: list[int] = []
    last_line = 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 3 or parts[0] != "mpx":
                raise ParseError(lineno, "expected header 'mpx <rank> <flags>'")
            try:
                rank, size = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(lineno, "rank and flag count must be integers")
            if not 1 <= rank <= MAX_RANK:
                raise ParseError(lineno, f"rank {rank} not in range 1..{MAX_RANK}")
            if size < 1:
                raise ParseError(lineno, f"flag count {size} is not positive")
            header = (rank, size, lineno)
            continue
        if len(rows) == header[0]:
            raise ParseError(
                lineno, f"more than the declared {header[0]} matching rows"
            )
        try:
            row = [int(x) for x in parts]
        except ValueError:
            raise ParseError(lineno, "matching rows must be integers")
        if len(row) != header[1]:
            raise ParseError(
                lineno, f"expected {header[1]} entries, got {len(row)}"
            )
        rows.append(row)
        row_lines.append(lineno)
    if header is None:
        raise ParseError(last_line, "missing 'mpx <rank> <flags>' header")
    if len(rows) != header[0]:
        raise ParseError(
            last_line, f"expected {header[0]} matching rows, got {len(rows)}"
        )
    try:
        return build_graph(header[0], rows)
    except ManiplexError as err:
        colour = getattr(err, "colour", getattr(err, "colour_b", None))
        if isinstance(colour, int) and 0 <= colour < len(row_lines):
            line = row_lines[colour]
        else:
            line = header[2]
        raise ParseError(line, str(err)) from err


def write_mpx(graph: ColouredGraph) -> str:
    """The canonical .mpx document for a graph (no comments, one space)."""
    lines = [f"mpx {graph.rank} {graph.size}"]
    for row in graph.matchings:
        lines.append(" ".join(map(str, row)))
    return "\n".join(lines) + "\n"


def write_dot(graph: ColouredGraph) -> str:
    """An undirected DOT graph with a ``color=<i>`` attribute per edge."""
    lines = ["graph maniplex {", "  node [shape=point];"]
    for c, row in enumerate(graph.matchings):
        for v in range(graph.size):
            if v < row[v]:
                lines.append(f"  {v} -- {row[v]} [color={c}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def poset_dot(p: InducedPoset) -> str:
    """The Hasse diagram of a poset as a DOT digraph, bottom rank first."""

    def node(r: int, k: int) -> str:
        return f'"f{r}_{k}"'

    lines = ["digraph poset {", "  rankdir=BT;"]
    lines.append(f'  {node(-1, 0)} [label="bottom"];')
    counts = p.counts()
    for r, count in enumerate(counts):
        for k in range(count):
            lines.append(f'  {node(r, k)} [label="{r}:{k}"];')
    lines.append(f'  {node(p.n, 0)} [label="top"];')
    for k in range(counts[0] if p.n > 0 else 0):
        lines.append(f"  {node(-1, 0)} -> {node(0, k)};")
    for r in range(p.n - 1):
        for k, ups in enumerate(p.up[r][r + 1]):
            for k2 in ups:
                lines.append(f"  {node(r, k)} -> {node(r + 1, k2)};")
    for k in range(counts[-1] if p.n > 0 else 0):
        lines.append(f"  {node(p.n - 1, k)} -> {node(p.n, 0)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _plain(value: Any) -> Any:
    """Witness values as JSON-compatible structures, deterministically."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _plain(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def report_to_dict(m: Maniplex, report: PolytopalityReport) -> dict[str, Any]:
    """The JSON-ready form of a polytopality report (schema
    ``maniplex-report/1``)."""
    beta = report.flag_graph_isomorphism
    return {
        "schema": "maniplex-report/1",
        "rank": m.rank,
        "flags": m.size,
        "face_counts": [m.face_partition(i).block_count() for i in range(m.rank)],
        "cip": _plain(report.cip),
        "wpip": _plain(report.wpip),
        "spip": _plain(report.spip),
        "poset": _plain(report.poset),
        "verdicts_consistent": report.verdicts_consistent,
        "polytopal": report.polytopal,
        "flag_graph_isomorphism": None if beta is None else list(beta),
    }


def write_json(m: Maniplex, report: PolytopalityReport) -> str:
    """Serialize a report with sorted keys for stable byte output."""
    return json.dumps(report_to_dict(m, report), sort_keys=True, indent=2) + "\n"
