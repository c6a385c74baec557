"""The .mpx text format, DOT exports, and the JSON report."""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import pytest

from maniplexes import (
    Maniplex,
    are_isomorphic,
    induced_poset,
    is_polytopal,
    polygon,
    poset_dot,
    read_mpx,
    rectified_cubic_3torus,
    report_to_dict,
    torus_44,
    write_dot,
    write_json,
    write_mpx,
)
from maniplexes import cli
from maniplexes.errors import ParseError
from conftest import ALT_3TORUS_BASIS

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


# -- read_mpx ----------------------------------------------------------------------


def test_read_segment():
    g = read_mpx("mpx 1 2\n1 0\n")
    assert g.rank == 1 and g.size == 2 and g.neighbour(0, 0) == 1


def test_read_allows_comments_and_blank_lines():
    g = read_mpx("# a segment\nmpx 1 2\n\n# row for colour 0\n1 0\n")
    assert g.size == 2


def test_read_fixture_file_is_the_expected_torus():
    text = (FIXTURES / "torus44_1_1.mpx").read_text()
    m = Maniplex(read_mpx(text))
    assert m.rank == 3 and m.size == 16
    assert are_isomorphic(m.graph, torus_44(1, 1).graph) is not None


@pytest.mark.parametrize(
    "text,line,fragment",
    [
        ("hello", 1, "header"),
        ("mpx 1\n1 0", 1, "header"),
        ("mpx 0 2\n", 1, "rank"),
        ("mpx 1 2\n1 0 0", 2, "entries"),
        ("mpx 1 2\n0 1", 2, "fixes"),
        ("mpx 1 2\n1 x", 2, ""),
        ("mpx 2 4\n1 0 3 2", 2, "rows"),
        ("mpx 2 -1\n1 0\n", 1, "flag count -1 is not positive"),
        ("mpx 1 0\n", 1, "flag count 0 is not positive"),
        ("mpx 99 2\n", 1, "rank 99 not in range 1..64"),
        ("mpx 65 2\n1 0\n", 1, "rank 65 not in range 1..64"),
        ("mpx -1 2\n", 1, "rank -1 not in range 1..64"),
        ("mpx 2 2\n1 0\n-1 0\n", 3, "colour 1 maps flag 0 to -1, outside 0..1"),
        ("mpx 2 2\n1 0\n5 0\n", 3, "colour 1 maps flag 0 to 5, outside 0..1"),
        ("mpx x 2", 1, "integers"),
        ("mpx 1 2\n1 0\n1 0\n", 3, "more than the declared"),
        ("# only", 1, "missing"),
        ("mpx 2 4\n1 0 3 2\n1 0 3 2\n", 3, "agree"),
    ],
)
def test_read_rejects_malformed_input(text, line, fragment):
    with pytest.raises(ParseError) as exc:
        read_mpx(text)
    assert exc.value.line == line
    assert fragment in exc.value.reason


@pytest.mark.parametrize(
    "text,line,char",
    [
        ("mpx 1 2\n1 0_0\n", 2, "'_'"),
        ("mpx 1 2\n+1 0\n", 2, "'+'"),
        ("mpx 1 2\n\u0661 0\n", 2, "'\u0661'"),  # an Arabic-Indic one
        ("mpx 1 0_2\n1 0\n", 1, "'_'"),
        ("mpx 1 2\n1\u00a00\n", 2, "'\\xa0'"),  # a no-break space
        ("mpx 2 2\n1 0\n-1 +0\n", 3, "'+'"),
    ],
)
def test_read_refuses_integers_that_write_never_writes(text, line, char):
    # int() accepts each of these; write_mpx writes none of them.
    with pytest.raises(ParseError) as exc:
        read_mpx(text)
    assert exc.value.line == line
    assert exc.value.reason == f"{char} may not appear outside a comment"


def test_read_allows_any_character_in_a_comment():
    g = read_mpx("mpx 1 2 # \u0661 +1 1_0 \u00e9\n1 0#_+\n")
    assert g.matchings == ((1, 0),)


def test_write_then_read_round_trips_every_fixture(all_fixtures):
    for name, m in all_fixtures.items():
        text = write_mpx(m.graph)
        back = read_mpx(text)
        assert back.matchings == m.graph.matchings, name
        assert write_mpx(back) == text, name


# -- DOT ---------------------------------------------------------------------------


def test_write_dot_triangle():
    dot = write_dot(polygon(3).graph)
    lines = dot.splitlines()
    assert lines[0].startswith("graph")
    edges = [l for l in lines if "--" in l]
    assert len(edges) == 6
    colours = {l.split("color=")[1].rstrip("];") for l in edges}
    assert colours == {"0", "1"}


def test_poset_dot_smallest_torus():
    dot = poset_dot(induced_poset(torus_44(1, 0)))
    # 4 proper faces plus the two improper ones
    nodes = [l for l in dot.splitlines() if "label" in l]
    assert len(nodes) == 6
    assert dot.splitlines()[0].startswith("digraph")


# -- JSON --------------------------------------------------------------------------


def test_report_dict_schema():
    m = torus_44(1, 1)
    d = report_to_dict(m, is_polytopal(m))
    assert d["schema"] == "maniplex-report/1"
    assert d["rank"] == 3 and d["flags"] == 16
    assert d["face_counts"] == [2, 4, 2]
    assert d["polytopal"] is False
    assert d["verdicts_consistent"] is True
    assert d["flag_graph_isomorphism"] is None
    assert not d["cip"]["holds"]
    assert d["cip"]["witness"]["colours"] == [0, 2]


def test_json_matches_golden_files():
    for name, m in [
        ("torus44_1_1", torus_44(1, 1)),
        ("torus44_2_0", torus_44(2, 0)),
        ("rect3torus_alt", rectified_cubic_3torus(ALT_3TORUS_BASIS)),
    ]:
        got = write_json(m, is_polytopal(m))
        want = (GOLDEN / f"{name}.json").read_text()
        assert got == want, name
        json.loads(got)  # stays well-formed


def test_json_is_stable_across_runs():
    m = torus_44(2, 0)
    assert write_json(m, is_polytopal(m)) == write_json(m, is_polytopal(m))


def test_the_verdict_path_builds_no_face(all_fixtures, monkeypatch, capsys):
    # face counts are partition block counts, so no Face (and no flag set)
    # is built by the poset, the report or the CLI's check.
    for name, fixture in all_fixtures.items():
        m = Maniplex(fixture.graph)
        induced_poset(m)
        assert m._faces == {}, name
        report = json.loads(write_json(m, is_polytopal(m)))
        assert m._faces == {}, name
        counts = [len(fixture.faces(i)) for i in range(m.rank)]
        assert report["face_counts"] == counts, name
        monkeypatch.setattr(cli, "_load", lambda path: m)
        capsys.readouterr()
        cli._cmd_check(argparse.Namespace(file=name, json=False))
        assert m._faces == {}, name
        first = capsys.readouterr().out.splitlines()[0]
        assert first.endswith("faces per rank: " + " ".join(map(str, counts)))
        cli._cmd_check(argparse.Namespace(file=name, json=True))
        assert m._faces == {}, name
        assert json.loads(capsys.readouterr().out) == report, name
