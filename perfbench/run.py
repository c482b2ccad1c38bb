#!/usr/bin/env python3
"""Benchmark of the biphoton library and CLI.

    python3 perfbench/run.py --workload reference --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. Each workload runs in fresh Python
processes started here: SETUPS - 1 that only set up (import, config,
seeded inputs, warm-up) and one that sets up and then runs the timed
phase. `setup_s` is the median set-up time over all of them, measured here
from process start to its READY line. All outputs go to a temporary
directory under perfbench/ that this script removes at the end.

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` and `metrics` (the end-to-end metrics with --trace 0, the
per-layer metrics of layers.METRICS with --trace 1). Each run also writes
its result to perfbench/results/<workload>-<seed>-trace<t>.json, and a
traced run its spans to perfbench/results/spans-<workload>-<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
SETUPS = 7
# BLAS/OpenMP threads, pinned here for every worker; the program sets none.
THREADS = "1"
DEADLINE_S = 170.0
TAIL_BEYOND = 10


class BenchError(Exception):
    pass


def _thread_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    return env


class _Worker:
    """A worker process whose stdout is read line by line up to a deadline."""

    def __init__(self, argv, deadline: float):
        self.deadline = deadline
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=_thread_env())
        self._buf = b""

    def line(self) -> str:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            left = self.deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise BenchError("worker timed out")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise BenchError(f"worker exited with code {self.proc.wait()}")
            self._buf += chunk
        line, self._buf = self._buf.split(b"\n", 1)
        return line.decode()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def _run_worker(args, out: Path, setup_only: bool, deadline: float):
    """(setup seconds, RESULT dict or None) of one worker process."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", str(out)]
    if setup_only:
        argv.append("--setup-only")
    if args.trace:
        argv += ["--spans", str(RESULTS / f"spans-{args.workload}-{args.seed}.jsonl")]
    start = time.perf_counter()
    worker = _Worker(argv, deadline)
    try:
        if worker.line() != "READY":
            raise BenchError("worker did not report READY")
        setup = time.perf_counter() - start
        result = None
        if not setup_only:
            line = worker.line()
            if not line.startswith("RESULT "):
                raise BenchError(f"unexpected worker output {line[:80]!r}")
            result = json.loads(line[len("RESULT "):])
        if worker.proc.wait(timeout=max(1.0, deadline - time.monotonic())) != 0:
            raise BenchError(f"worker exited with code {worker.proc.returncode}")
        return setup, result
    finally:
        worker.close()


def tail(seconds: list[float]) -> float:
    """The highest percentile with at least TAIL_BEYOND operations beyond it."""
    ordered = sorted(seconds)
    return ordered[max(0, len(ordered) - TAIL_BEYOND - 1)]


def end_to_end(result: dict, setups: list[float]) -> dict:
    seconds = result["seconds"]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": result["completed_per_round"] / result["round_p50_s"],
                      "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(seconds) * 1e3, "unit": "ms"},
        "op_tail_ms": {"value": tail(seconds) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("reference", "oracle", "maps"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not math.isfinite(args.seconds) or args.seconds <= 0:
        ap.error("--seconds must be a positive number")

    if not (HERE.parent / "src" / "biphoton" / "__init__.py").is_file():
        print("benchmark failed: no src/biphoton in this checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    RESULTS.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=".out-", dir=HERE))
    try:
        setups, result = [], None
        for i in range(SETUPS):
            last = i == SETUPS - 1
            setup, res = _run_worker(args, tmp / str(i), not last, deadline)
            setups.append(setup)
            result = res if last else result
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for message in result["failures"] + result["check_failures"]:
        print(message, file=sys.stderr)
    metrics = result["per_layer"] if args.trace else end_to_end(result, setups)
    line = {
        "correct": result["n_check_failures"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    record = dict(line, rounds=result["rounds"], operations=len(result["seconds"]),
                  setups_s=setups, round_op_p50_ms=result["op_p50_ms"])
    path = RESULTS / f"{args.workload}-{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
