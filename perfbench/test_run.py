"""Smoke test of the benchmark: every workload at a tiny size, with tracing
on and off, through the same command line the benchmark is run with.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _tiny(workload: str, trace: int) -> tuple[dict, dict]:
    proc = _run(
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", "0",
        "--seconds", "0",
        "--trace", str(trace),
        "--tiny",
    )
    assert proc.returncode == 0, proc.stderr
    *_, meta_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(meta_line)["meta"], json.loads(result_line)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_tiny_workload_traced_and_untraced(workload):
    meta_plain, plain = _tiny(workload, 0)
    meta_traced, traced = _tiny(workload, 1)
    assert meta_plain["digest"] == meta_traced["digest"]
    for result in (plain, traced):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
    for section, result in (("end_to_end", plain), ("per_layer", traced)):
        expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == expected


def test_refuses_python_optimize():
    proc = _run("-O", str(HERE / "run.py"), "--workload", "tori", "--tiny")
    assert proc.returncode != 0 and proc.stdout == ""


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__")
        )
    command = BENCHMARK["command"]
    proc = subprocess.run(
        [*command, "--workload", "tori", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == ""
