"""Polytopality benchmark: a single-process closed loop over generated inputs.

Usage, from the repository root:

    python3 perfbench/run.py --workload tori --seed 0 --seconds 35 --trace 0

One caller runs one operation after another, with no threads.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports per-layer metrics (see
``tracing.py``).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it carries run metadata.  Workloads are described in
``workloads.py`` and ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Per-op deadline: an op on an unbounded exponential path counts as failed
# instead of stalling the run.  The slowest op takes about 1 s untraced.
OP_DEADLINE_S = 30
CLI_DEADLINE_S = 60
# Fewest passes (or traced pass pairs) and side measurements in one window.
MIN_RUNS = 3
# Share of the window given to side measurements: one CLI check plus one
# timed set-up (end-to-end runs), or one `-X importtime` run (traced runs).
# They are interleaved with the passes so that all of them sample the same
# stretch of a machine whose speed drifts.
SIDE_SHARE = 0.4

END_TO_END_UNITS = {
    "ops_per_s": "op/s",
    "op_latency_p50_ms": "ms",
    "cli_check_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class OpDeadline(Exception):
    """An op ran past :data:`OP_DEADLINE_S`."""


def _on_alarm(signum: int, frame: Any) -> None:
    raise OpDeadline(f"op exceeded {OP_DEADLINE_S} s")


# -- subprocesses -------------------------------------------------------------


def _cli_env() -> dict[str, str]:
    # The package is not installed; keep the caller's environment otherwise.
    return {**os.environ, "PYTHONPATH": str(SRC)}


def _timed_subprocess(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = perf_counter()
    proc = subprocess.run(
        argv,
        cwd=ROOT,
        env=_cli_env(),
        capture_output=True,
        text=True,
        timeout=CLI_DEADLINE_S,
    )
    return perf_counter() - start, proc


def python_floor_s(repeats: int = 3) -> float:
    """Median wall time of ``python -c pass``: the interpreter start floor."""
    return statistics.median(
        _timed_subprocess([sys.executable, "-c", "pass"])[0] for _ in range(repeats)
    )


def import_times_us() -> tuple[int, int]:
    """``(maniplexes + maniplexes.cli, maniplexes.generators)`` cumulative
    import time in microseconds, from ``python -X importtime``."""
    _, proc = _timed_subprocess(
        [sys.executable, "-X", "importtime", "-c", "import maniplexes.cli"]
    )
    if proc.returncode != 0:
        raise RuntimeError(f"import failed: {proc.stderr.strip()}")
    cumulative: dict[str, int] = {}
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:") :].split("|")
        try:
            cumulative[parts[2].strip()] = int(parts[1])
        except ValueError:  # the header line
            continue
    return (
        cumulative["maniplexes"] + cumulative["maniplexes.cli"],
        cumulative["maniplexes.generators"],
    )


# -- metadata -----------------------------------------------------------------


def _commit() -> Optional[str]:
    """The checked-out commit, when the tree is a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """sha256 over the library sources, naming the measured code even where
    the tree is not a git work tree."""
    h = hashlib.sha256()
    for path in sorted((SRC / "maniplexes").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


# -- passes -------------------------------------------------------------------


class Pass:
    """Timing and checked outputs of one pass over a workload's ops."""

    def __init__(self) -> None:
        self.elapsed = 0.0
        self.latencies: list[float] = []
        self.digests: list[bytes] = []
        self.failed = 0

    @property
    def digest(self) -> str:
        return hashlib.sha256(b"".join(self.digests)).hexdigest()


def run_pass(wl: Any, workload: str, inp: Any, tag: str) -> Pass:
    ops = wl.ops_for_pass(workload, inp)
    gc.collect()
    results = []
    start = perf_counter()
    for op in ops:
        signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
        t0 = perf_counter()
        try:
            value, err = op.call(), None
        except Exception as exc:  # every op failure is counted, not fatal
            value, err = None, exc
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        results.append((op, value, err, perf_counter() - t0))
    out = Pass()
    out.elapsed = perf_counter() - start
    for op, value, err, latency in results:
        out.latencies.append(latency)
        if err is None:
            try:
                body = op.check(value)
            except wl.CheckFailed as exc:
                err = exc
        if err is not None:
            out.failed += 1
            body = b"FAILED"
            print(
                f"[{tag}] op {op.name} failed: "
                + "".join(traceback.format_exception_only(type(err), err)).strip(),
                file=sys.stderr,
            )
        out.digests.append(
            hashlib.sha256(op.name.encode() + b"\0" + body).digest()
        )
    return out


def trimmed_mean(xs: list[float]) -> float:
    """Mean of ``xs`` without its lowest and highest tenth.

    A shared host switches between a fast and a slow state every few seconds.
    A median over one run lands in whichever state held more of its samples,
    so it jumps from run to run; a mean weights both states by their share of
    the run and varies far less.  Trimming keeps one stalled sample from
    moving it."""
    xs = sorted(xs)
    k = len(xs) // 10
    return statistics.fmean(xs[k : len(xs) - k])


def time_shared(
    seconds: float,
    main: Callable[[], Any],
    side: Callable[[], Any],
    side_share: float,
    min_runs: int,
) -> tuple[list[Any], list[Any]]:
    """Interleave ``main`` and ``side`` so that ``side`` takes about
    ``side_share`` of the time, until ``seconds`` have passed and each has
    run ``min_runs`` times.  Returns the results of each."""
    mains: list[Any] = []
    sides: list[Any] = []
    side_spent = 0.0
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        behind = side_spent < side_share * elapsed
        if elapsed >= seconds:
            if len(mains) >= min_runs and len(sides) >= min_runs:
                return mains, sides
            behind = len(sides) < min_runs and (behind or len(mains) >= min_runs)
        if behind:
            t0 = perf_counter()
            sides.append(side())
            side_spent += perf_counter() - t0
        else:
            mains.append(main())


class Run:
    """One benchmark run: set-up, warm-up, then the measured window."""

    def __init__(self, wl: Any, workload: str, seed: int, seconds: float, tiny: bool):
        self.wl = wl
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tiny = tiny
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.reference: Optional[Pass] = None
        self.workdir = ROOT / ".bench_work" / str(os.getpid())

    def timed_setup(self) -> float:
        """Seconds to generate the workload's inputs once more."""
        gc.collect()
        start = perf_counter()
        self.wl.setup(self.workload, self.seed, self.tiny)
        return perf_counter() - start

    def checked_pass(self, inp: Any, tag: str) -> Pass:
        """A pass whose ops are checked against the warm-up pass and, at the
        reference seed, against the recorded digest."""
        p = run_pass(self.wl, self.workload, inp, tag)
        self.attempted += len(p.digests)
        failed = p.failed
        if self.reference is None:
            self.reference = p
            recorded = self.wl.REFERENCE_DIGESTS[self.workload]
            if self.seed == self.wl.REFERENCE_SEED and not self.tiny and p.digest != recorded:
                self.notes.append(f"digest {p.digest} differs from the recorded {recorded}")
                failed = len(p.digests)
        else:
            mismatched = sum(a != b for a, b in zip(p.digests, self.reference.digests))
            if mismatched:
                self.notes.append(f"{mismatched} op outputs changed between passes")
            failed = max(failed, mismatched)
        self.failed += failed
        return p

    def cli_run(self, path: Path, expected: str, polytopal: bool) -> float:
        self.attempted += 1
        try:
            elapsed, proc = _timed_subprocess(
                [sys.executable, "-m", "maniplexes", "check", "--json", str(path)]
            )
        except subprocess.TimeoutExpired:
            self.failed += 1
            self.notes.append(f"CLI exceeded {CLI_DEADLINE_S} s")
            return float(CLI_DEADLINE_S)
        if proc.stdout != expected or proc.returncode != (0 if polytopal else 1):
            self.failed += 1
            self.notes.append(
                f"CLI exit {proc.returncode}, output differs: {proc.stderr.strip()[-200:]}"
            )
        return elapsed

    def execute(self, trace: bool) -> tuple[dict[str, float], dict[str, Any]]:
        floor = python_floor_s()
        inp = self.wl.setup(self.workload, self.seed, self.tiny)
        self.workdir.mkdir(parents=True, exist_ok=True)
        try:
            cli_file = self.workdir / "cli.mpx"
            cli_file.write_text(inp.cli_text)
            polytopal, _, expected_cli = self.wl.check_text(inp.cli_text)
            self.checked_pass(inp, "warm-up")
            self.cli_run(cli_file, expected_cli, polytopal)
            if trace:
                metrics, meta = self._traced(inp)
            else:
                metrics, meta = self._end_to_end(inp, cli_file, expected_cli, polytopal)
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
            try:
                self.workdir.parent.rmdir()
            except OSError:
                pass
        meta.update(
            {
                "workload": self.workload,
                "seed": self.seed,
                "seconds": self.seconds,
                "trace": int(trace),
                "tiny": self.tiny,
                "commit": _commit(),
                "source_sha256": _source_digest(),
                "python": platform.python_version(),
                "nproc": len(os.sched_getaffinity(0)),
                "python_floor_s": floor,
                "digest": self.reference.digest,
                "ops_per_pass": len(self.reference.digests),
                "failed_ratio": self.failed / self.attempted,
                "notes": self.notes,
            }
        )
        return metrics, meta

    def _end_to_end(
        self, inp: Any, cli_file: Path, expected_cli: str, polytopal: bool
    ) -> tuple[dict[str, float], dict[str, Any]]:
        passes, sides = time_shared(
            self.seconds,
            lambda: self.checked_pass(inp, "pass"),
            lambda: (self.cli_run(cli_file, expected_cli, polytopal), self.timed_setup()),
            SIDE_SHARE,
            MIN_RUNS,
        )
        # Each op's wall time is averaged over the passes; the p50 is the
        # median of those averages over the workload's ops.
        per_op = [trimmed_mean(xs) for xs in zip(*(p.latencies for p in passes))]
        latencies = sorted(x for p in passes for x in p.latencies)
        metrics = {
            "ops_per_s": sum(len(p.latencies) for p in passes)
            / sum(p.elapsed for p in passes),
            "op_latency_p50_ms": statistics.median(per_op) * 1e3,
            "cli_check_s": trimmed_mean([side[0] for side in sides]),
            "setup_s": trimmed_mean([side[1] for side in sides]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        meta: dict[str, Any] = {
            "passes": len(passes),
            "latency_samples": len(latencies),
            "side_runs": len(sides),
        }
        # The 99th percentile only where at least ten samples lie beyond it.
        idx = int(0.99 * len(latencies))
        if len(latencies) - idx - 1 >= 10:
            meta["op_latency_p99_ms"] = latencies[idx] * 1e3
        return metrics, meta

    def _traced(self, inp: Any) -> tuple[dict[str, float], dict[str, Any]]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.wl.setup(self.workload, self.seed, self.tiny)
        finally:
            tracer.uninstall()
        generators_s = tracer.self_times().get("generators", 0.0)

        def pass_pair() -> tuple[float, float, dict[str, float], dict[str, float]]:
            plain = self.checked_pass(inp, "untraced").elapsed
            tracer.reset()
            tracer.install()
            try:
                traced = self.checked_pass(inp, "traced").elapsed
            finally:
                tracer.uninstall()
            return plain, traced, tracer.self_times(), tracer.layer_counts()

        pairs, imports = time_shared(
            self.seconds, pass_pair, import_times_us, SIDE_SHARE, MIN_RUNS
        )
        plain = [p[0] for p in pairs]
        traced = [p[1] for p in pairs]
        self_times = [p[2] for p in pairs]
        counts = [p[3] for p in pairs]
        if any(c != counts[0] for c in counts):
            self.failed += 1
            self.notes.append("layer counts differ between traced passes")

        metrics: dict[str, float] = {}
        for layer in tracing.SELF_TIME_LAYERS:
            metrics[f"{layer}.self_s"] = statistics.median(
                s.get(layer, 0.0) for s in self_times
            )
        metrics["generators.self_s"] = generators_s
        metrics.update(counts[0])
        metrics["cli.import_us"] = statistics.median(i[0] for i in imports)
        metrics["cli.import_generators_us"] = statistics.median(i[1] for i in imports)
        metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
        return metrics, {"traced_passes": len(traced), "import_runs": len(imports)}


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="tiny inputs, for the smoke test"
    )
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        # The library's assert self-checks vanish under -O; the numbers would
        # measure a program that skips them.
        print("refusing to run under python -O", file=sys.stderr)
        return 2
    if not (SRC / "maniplexes" / "__init__.py").is_file():
        print(f"no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(wl.WORKLOADS)}")
    signal.signal(signal.SIGALRM, _on_alarm)
    run = Run(wl, args.workload, args.seed, args.seconds, args.tiny)
    metrics, meta = run.execute(bool(args.trace))
    print(json.dumps({"meta": meta}, sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
