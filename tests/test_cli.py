"""End-to-end CLI checks through subprocess: subcommands and exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
T11 = FIXTURES / "torus44_1_1.mpx"


def run(*args, flags=(), **kw):
    return subprocess.run(
        [sys.executable, *flags, "-m", "maniplexes", *map(str, args)],
        capture_output=True,
        text=True,
        **kw,
    )


def gen(tmp_path, name, *args):
    out = tmp_path / f"{name}.mpx"
    r = run("gen", *args, "-o", out)
    assert r.returncode == 0, r.stderr
    return out


# -- check -------------------------------------------------------------------------


def test_check_polytopal_exits_zero(tmp_path):
    f = gen(tmp_path, "t20", "torus44", "--b", 2, "--c", 0)
    r = run("check", f)
    assert r.returncode == 0
    assert "polytopal: yes" in r.stdout


def test_check_nonpolytopal_exits_one():
    r = run("check", T11)
    assert r.returncode == 1
    assert "polytopal: no" in r.stdout
    assert "CIP: fails at S={0,2}" in r.stdout
    assert "16 flags" in r.stdout


def test_check_invalid_data_exits_two(tmp_path):
    bad = tmp_path / "disc.mpx"
    bad.write_text("mpx 2 8\n1 0 3 2 5 4 7 6\n3 2 1 0 7 6 5 4\n")
    r = run("check", bad)
    assert r.returncode == 2
    assert "different components" in r.stderr


def test_check_parse_error_exits_two(tmp_path):
    bad = tmp_path / "bad.mpx"
    bad.write_text("mpx 1 2\n0 1\n")
    r = run("check", bad)
    assert r.returncode == 2


@pytest.mark.parametrize(
    "text",
    ["mpx 1 2\n1 0_0\n", "mpx 1 2\n+1 0\n", "mpx 1 2\n\u0661 0\n", "mpx 1 0_2\n1 0\n"],
)
def test_check_an_integer_write_never_writes_exits_two(tmp_path, text):
    bad = tmp_path / "bad.mpx"
    bad.write_text(text, encoding="utf-8")
    r = run("check", bad)
    assert r.returncode == 2
    assert "may not appear outside a comment" in r.stderr


@pytest.mark.parametrize("ch", ["\u2028", "\x0c", "\r"])
def test_check_a_line_break_write_never_writes_exits_two(tmp_path, ch):
    bad = tmp_path / "bad.mpx"
    bad.write_bytes(f"mpx 1 2\n1{ch}0\n".encode())
    r = run("check", bad)
    assert r.returncode == 2
    assert r.stderr == f"error: line 2: {ch!r} may not appear outside a comment\n"


@pytest.mark.parametrize(
    "text, reason",
    [
        ("mpx 2 -1\n1 0\n", "flag count -1 is not positive"),
        ("mpx 99 2\n", "rank 99 not in range 1..64"),
    ],
)
def test_check_bad_header_counts_exit_two_at_the_header(tmp_path, text, reason):
    bad = tmp_path / "bad.mpx"
    bad.write_text("# a comment first\n" + text)
    r = run("check", bad)
    assert r.returncode == 2
    assert r.stderr == f"error: line 2: {reason}\n"


def test_check_non_utf8_file_exits_two_naming_the_line(tmp_path):
    bad = tmp_path / "bom16.mpx"
    bad.write_bytes(b"mpx 1 2\n\xff\xfe1 0\n")
    r = run("check", bad)
    assert r.returncode == 2
    assert r.stderr == "error: line 2: byte 0xff is not UTF-8\n"


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimised"])
def test_check_json_matches_golden(flags):
    # the report must not depend on assert statements, which -O strips
    r = run("check", "--json", T11, flags=flags)
    assert r.returncode == 1
    assert r.stdout == (GOLDEN / "torus44_1_1.json").read_text()
    assert json.loads(r.stdout)["polytopal"] is False


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimised"])
def test_check_json_matches_sfc_failure_golden(tmp_path, flags):
    # the one golden whose poset fails strong flag connectivity
    basis = ("--v1", "1,1,0", "--v2", "1,-1,0", "--v3", "0,0,2")
    f = gen(tmp_path, "rect3torus_alt", "rect3torus", *basis)
    r = run("check", "--json", f, flags=flags)
    assert r.returncode == 1
    assert r.stdout == (GOLDEN / "rect3torus_alt.json").read_text()
    assert json.loads(r.stdout)["poset"]["strong_flag_connected"]["holds"] is False


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimised"])
@pytest.mark.parametrize(
    "name, code", [("segment", 0), ("torus11_times_bits4", 1)]
)
def test_check_json_of_gather_edge_cases_matches_golden(tmp_path, name, code, flags):
    # the rank-1 segment joins one pair per colour; torus11_times_bits(4)
    # fails at a window of rank 7, above SPIP's exhaustive ranks
    from conftest import torus11_times_bits
    from maniplexes import write_mpx

    f = tmp_path / f"{name}.mpx"
    if name == "segment":
        f.write_text("mpx 1 2\n1 0\n")
    else:
        f.write_text(write_mpx(torus11_times_bits(4).graph))
    r = run("check", "--json", f, flags=flags)
    assert r.returncode == code
    assert r.stdout == (GOLDEN / f"{name}.json").read_text()


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimised"])
def test_check_json_of_a_polytope_poset_without_faithfulness_matches_golden(
    tmp_path, flags
):
    # its poset is a polytope but it is not faithful: every leg says not
    # polytopal, where the poset leg once disagreed and the check exited 2
    from conftest import squares_mod_half_turn
    from maniplexes import write_mpx

    f = tmp_path / "squares_mod_half_turn.mpx"
    f.write_text(write_mpx(squares_mod_half_turn().graph))
    r = run("check", "--json", f, flags=flags)
    assert r.returncode == 1, r.stderr
    assert r.stdout == (GOLDEN / "squares_mod_half_turn.json").read_text()
    poset = json.loads(r.stdout)["poset"]
    assert poset["is_polytope"] is True and poset["faithful"]["holds"] is False


@pytest.mark.parametrize("rank", [14, 16])
def test_check_over_the_cip_cap_exits_two_after_validation(tmp_path, rank):
    # 2^28 and 2^32 flag ids: refused with WorkLimit once the file is parsed
    # and validated, where CIP would once have filled the memory
    from conftest import deadline
    from maniplexes import bitflip, write_mpx

    f = tmp_path / f"bitflip{rank}.mpx"
    f.write_text(write_mpx(bitflip(rank).graph))
    with deadline(20):
        r = run("check", "--json", f)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == (
        f"error: CIP needs {1 << rank} colour masks of {1 << rank} flags, "
        f"{1 << 2 * rank} flag ids, over the cap of 16777216\n"
    )


def test_check_at_the_cip_cap_answers(tmp_path):
    from maniplexes import bitflip, write_mpx

    f = tmp_path / "bitflip12.mpx"
    f.write_text(write_mpx(bitflip(12).graph))
    r = run("check", "--json", f)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["polytopal"] is True


def test_missing_file_exits_66():
    r = run("check", "/no/such/file.mpx")
    assert r.returncode == 66


def test_usage_errors_exit_64():
    assert run("frobnicate").returncode == 64
    assert run("check").returncode == 64
    assert run("iso", T11).returncode == 64  # iso needs two files


# -- gen ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "args,size",
    [
        (("polygon", "--p", "5"), 10),
        (("cube", "--d", "3"), 48),
        (("torus44", "--b", "2", "--c", "1"), 40),
        (("klein44",), 8),
        (("random", "--rank", "3", "--seed", "42"), 12),
    ],
)
def test_gen_families_emit_valid_mpx(args, size):
    r = run("gen", *args, "-o", "-")
    assert r.returncode == 0, r.stderr
    header = r.stdout.splitlines()[0].split()
    assert header[0] == "mpx" and int(header[2]) == size


def test_gen_rect3torus_with_basis():
    r = run(
        "gen", "rect3torus", "--v1", "1,1,0", "--v2", "1,-1,0", "--v3", "0,0,2",
        "-o", "-",
    )
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "mpx 4 576"


def test_gen_rect3torus_non_integer_basis_exits_two():
    r = run("gen", "rect3torus", "--v1", "a,b,c", "-o", "-")
    assert r.returncode == 2
    assert r.stderr == (
        "error: each basis vector needs three comma-separated integers\n"
    )
    assert r.stdout == ""


def test_gen_bad_parameter_exits_two():
    r = run("gen", "polygon", "--p", "1")
    assert r.returncode == 2


@pytest.mark.parametrize(
    "args",
    [
        ("polygon", "--p", "32769"),
        ("torus44", "--b", "100000"),
        ("torus44", "--b", "350", "--c", "50"),
        ("rect3torus", "--v1", "6945,0,0", "--v2", "0,1,0", "--v3", "0,0,1"),
    ],
)
def test_gen_over_the_flag_cap_exits_two_at_once(args):
    r = run("gen", *args, "-o", "-", timeout=30)
    assert r.returncode == 2
    assert "over the cap of 65536" in r.stderr and r.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ("polygon", "--p", "3", "--d", "9", "--b", "4", "--seed", "7"),
        ("klein44", "--p", "3"),
        ("cube", "--v1", "1,1,0"),
        ("rect3torus", "--rank", "3"),
    ],
)
def test_gen_refuses_a_flag_of_another_family(args):
    r = run("gen", *args, "-o", "-")
    assert r.returncode == 64
    assert "unrecognized arguments" in r.stderr
    assert r.stdout == ""


# -- poset / dot --------------------------------------------------------------------


def test_poset_summary():
    r = run("poset", T11)
    assert r.returncode == 0
    assert "maximal chains" in r.stdout


def test_check_and_poset_print_the_same_poset_checks():
    checks = "uniform=True diamond=False strongly-flag-connected=True faithful=True"
    check, poset = run("check", T11), run("poset", T11)
    assert f"poset: 16 maximal chains; {checks}\n" in check.stdout
    assert f"maximal chains: 16\n{checks}\npolytope: no\n" in poset.stdout


def test_poset_dot():
    r = run("poset", "--dot", T11)
    assert r.returncode == 0
    assert r.stdout.startswith("digraph")


def test_dot_output():
    r = run("dot", T11)
    assert r.returncode == 0
    assert r.stdout.startswith("graph")
    assert sum(1 for l in r.stdout.splitlines() if "--" in l) == 24


# -- mix / iso / cover ---------------------------------------------------------------


def test_mix_then_iso_recovers_the_cover(tmp_path):
    t20 = gen(tmp_path, "t20", "torus44", "--b", 2, "--c", 0)
    t10 = gen(tmp_path, "t10", "torus44", "--b", 1, "--c", 0)
    mixed = tmp_path / "mixed.mpx"
    r = run("mix", t20, t10, "-o", mixed)
    assert r.returncode == 0, r.stderr
    assert run("iso", mixed, t20).returncode == 0


def test_iso_differing_exits_one(tmp_path):
    t10 = gen(tmp_path, "t10", "torus44", "--b", 1, "--c", 0)
    assert run("iso", T11, t10).returncode == 1


def test_cover_found_exits_zero(tmp_path):
    t20 = gen(tmp_path, "t20", "torus44", "--b", 2, "--c", 0)
    t10 = gen(tmp_path, "t10", "torus44", "--b", 1, "--c", 0)
    r = run("cover", t20, t10)
    assert r.returncode == 0
    entries = [int(x) for x in r.stdout.split()]
    assert len(entries) == 32 and all(0 <= e < 8 for e in entries)


def test_cover_absent_exits_one(tmp_path):
    t10 = gen(tmp_path, "t10", "torus44", "--b", 1, "--c", 0)
    assert run("cover", t10, T11).returncode == 1


# -- no threads option --------------------------------------------------------------


def test_threads_option_and_variable_are_gone():
    # `--threads` is an unknown option; MANIPLEX_THREADS is not read at all.
    # Each child inherits the rest of the environment, PYTHONPATH included.
    unset = {k: v for k, v in os.environ.items() if k != "MANIPLEX_THREADS"}
    assert run("--threads", "4", "check", T11, env=unset).returncode == 64
    base = run("check", "--json", T11, env=unset)
    assert base.stdout, base.stderr
    env_run = run("check", "--json", T11, env={**unset, "MANIPLEX_THREADS": "abc"})
    assert env_run.returncode == base.returncode, env_run.stderr
    assert env_run.stdout == base.stdout, env_run.stderr


# -- dependencies -------------------------------------------------------------------


def test_the_cli_imports_only_the_standard_library():
    # Compared with the modules loaded at start-up, which a site hook may extend.
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import maniplexes.cli\n"
        "code = maniplexes.cli.main(['check', sys.argv[1]])\n"
        "added = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(code, *sorted(added - set(sys.stdlib_module_names) - {'maniplexes'}))\n"
    )
    r = subprocess.run(
        [sys.executable, "-c", probe, str(T11)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "1"  # not polytopal, nothing foreign
