"""One benchmark pass per workload at the reference seed, checked against the
digest recorded in ``perfbench/workloads.py``.

The digest covers every op's checked output: verdicts, witnesses, report
bytes and the mix, covering and isomorphism maps.  This runs the benchmark's
own pass function in process, with its per-op deadline, so a change to any
of those outputs fails here and not only in a benchmark run.
"""

from __future__ import annotations

import importlib.util
import signal
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return _load("run"), _load("workloads")


@pytest.mark.parametrize("workload", ["tori", "high_rank", "mix_cover"])
def test_reference_seed_pass_matches_the_recorded_digest(bench, workload):
    run, wl = bench
    inp = wl.setup(workload, wl.REFERENCE_SEED)
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        p = run.run_pass(wl, workload, inp, "reference")
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert p.failed == 0
    assert p.digest == wl.REFERENCE_DIGESTS[workload]
