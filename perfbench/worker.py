"""One workload in one fresh process; started by run.py, not by hand.

Set-up: import biphoton from the checkout's `src`, load the reference
config and crystal, draw the seeded round and warm every operation kind up
once at a small size. Then it prints `READY` (run.py times set-up up to this
line). With --setup-only it stops there; otherwise it runs whole rounds,
timing each operation and checking its output between operations, until
the operations have taken --seconds and at least MIN_OPS have run. It ends
with one line `RESULT <json>`.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))  # the checkout's biphoton

import checks  # noqa: E402
import layers  # noqa: E402
import ops  # noqa: E402
import spans  # noqa: E402

MIN_OPS = 40


def _cleanup(out: Path) -> int:
    """Remove what the operation wrote; the bytes it wrote."""
    written = 0
    for path in out.iterdir():
        written += path.stat().st_size
        path.unlink()
    return written


class _Checker:
    """A process forked before warm-up that runs the output checks.

    Checks parse whole output files; in their own process, the memory and
    time they take stay out of this process's peak resident set and out of
    the next operation's time. Forking before warm-up lets warm-up take the
    copy-on-write faults that the fork leaves behind. Operation outputs
    reach the checker pickled through a pipe; it holds the same seeded
    workload, so it knows what each output must be.
    """

    def __init__(self, workload: ops.Workload):
        self.conn, child = multiprocessing.Pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        self.pid = os.fork()
        if self.pid == 0:
            self.conn.close()
            code = 0
            try:
                self._serve(child, workload)
            except BaseException:
                traceback.print_exc()
                code = 1
            finally:
                os._exit(code)
        child.close()

    @staticmethod
    def _serve(conn, workload: ops.Workload) -> None:
        while (message := conn.recv()) is not None:
            phase, index, result = message
            op = (workload.warm_up if phase == "warm" else workload.ops)[index]
            try:
                reply = (op.check(result), None)
            except checks.CheckError as exc:
                reply = (0, str(exc))
            except Exception:  # a crash of the check itself fails the check
                reply = (0, traceback.format_exc(limit=3))
            conn.send(reply)

    def check(self, phase: str, index: int, result) -> tuple[int, str | None]:
        """(CSV rows written, error message or None)."""
        self.conn.send((phase, index, result))
        return self.conn.recv()

    def close(self) -> None:
        try:
            self.conn.send(None)
        except OSError:
            pass
        self.conn.close()
        os.waitpid(self.pid, 0)


def _run_unchecked(op: ops.Op):
    try:
        return op.call(), None
    except Exception:  # the program's fault, counted, never fatal
        return None, traceback.format_exc(limit=3)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    workload = ops.build(args.workload, args.seed, args.out)
    checker = _Checker(workload)
    try:
        return _measure(args, workload, checker)
    finally:
        checker.close()


def _measure(args, workload: ops.Workload, checker: _Checker) -> int:
    # glibc raises its mmap threshold to the size of each mapped block that
    # is freed, up to 32 MiB. Freeing a 31 MiB array first leaves it near
    # that maximum, as in any long run, whatever operation the seed puts
    # first, so the peak RSS depends less on the order of the round.
    np.empty(31 << 17)  # freed at once
    for i, op in enumerate(workload.warm_up):
        result, error = _run_unchecked(op)
        error = error or checker.check("warm", i, result)[1]
        _cleanup(args.out)
        if error:
            print(f"warm-up {op.kind}: {error}", file=sys.stderr)
            return 1
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    records = []
    check_failures, failures = [], []
    busy = 0.0
    rounds = 0
    clock = time.perf_counter
    while busy < args.seconds or len(records) < MIN_OPS:
        for i, op in enumerate(workload.ops):
            if tracer:
                tracer.begin_op()
            start = clock()
            result, error = _run_unchecked(op)
            elapsed = clock() - start
            busy += elapsed
            rows = 0
            if error is None:
                rows, problem = checker.check("op", i, result)
                if problem:
                    check_failures.append(f"{op.kind}: {problem}")
            else:
                failures.append(f"{op.kind}: {error}")
            written = _cleanup(args.out)
            records.append(ops.Record(op.kind, elapsed, rows, written if op.cli else 0,
                                      error is not None, op.cli))
        rounds += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_layer = None
    if tracer:
        tracer.uninstall()
        if args.spans:
            tracer.write(args.spans)
        values = layers.per_layer(tracer.spans, records, rounds, busy)
        per_layer = {name: {"value": values[name], "unit": unit}
                     for name, unit, _ in layers.METRICS}

    # each operation of the round: its median time across the rounds
    by_op = {}
    for i, r in enumerate(records):
        by_op.setdefault(f"{i % len(workload.ops):02d} {r.kind}", []).append(r.seconds)
    op_p50 = {k: statistics.median(v) for k, v in sorted(by_op.items())}
    result = {
        "rounds": rounds,
        "busy_s": busy,
        "round_p50_s": sum(op_p50.values()),
        "completed_per_round": (len(records) - len(failures)) / rounds,
        "op_p50_ms": {k: v * 1e3 for k, v in op_p50.items()},
        "seconds": [r.seconds for r in records if not r.failed],
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures[:5],
        "check_failures": check_failures[:5],
        "n_check_failures": len(check_failures),
        "peak_rss_mb": peak_rss_mb,
        "per_layer": per_layer,
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
