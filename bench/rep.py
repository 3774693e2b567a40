"""One repetition of a workload in a fresh interpreter.

Started by run.py, once per repetition, so that neither the formulas'
caches nor the state a forked pool inherits carry over from one
repetition to the next.  Calls ``qlozenge.cli.main(argv)`` in-process
with stdout captured, checks the outputs after the timed interval, and
prints one JSON object describing the repetition.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


_CALIBRATION_INT = 3 ** 20000


def calibrate() -> float:
    """Seconds taken by a fixed mix of dict updates and big-integer products.

    Timed before, between and after the workload's calls, it samples how
    fast the machine runs at that moment, so that a slow spell on a shared
    host can be told apart from a slower program.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(40000):
        table[i & 511] = table.get(i & 511, 0) + i
    for _ in range(6):
        _CALIBRATION_INT * (_CALIBRATION_INT + 1)
    return time.perf_counter() - start


def _call(cli, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad argv this way
        code = exc.code
    except Exception as exc:  # any other escape is a failed call, not a crash
        code = "raised %s: %s" % (type(exc).__name__, exc)
    return {"exit": code, "stdout": out.getvalue(), "seconds": time.perf_counter() - start}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, default=workloads.SUITE_JOBS)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    from qlozenge import cli

    items = workloads.items_for(args.workload, args.seed, args.jobs)
    tracer = None
    if args.trace_out:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    first = time.clock_gettime(time.CLOCK_MONOTONIC)
    calibration = calibrate()
    results = []
    cpu = 0.0
    for k, item in enumerate(items):
        if tracer is not None:
            tracer.item = k
        if k:
            calibration += calibrate()
        cpu0 = _cpu_s()
        results.append(_call(cli, item["argv"]))
        cpu += _cpu_s() - cpu0
    calibration = (calibration + calibrate()) / (len(items) + 1)
    wall = sum(r["seconds"] for r in results)
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    stdout_bytes = sum(len(r["stdout"].encode("utf-8")) for r in results)
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics(stdout_bytes)
        tracer.dump(args.trace_out)

    reasons = checks.check_outputs(args.workload, args.seed, items, results)
    report = {
        "first_call": first,
        "wall_s": wall,
        "cpu_s": cpu,
        "calibration_s": calibration,
        "peak_rss_mb": peak_kb / 1024.0,
        "calls": [
            {
                "argv": item["argv"],
                "exit": r["exit"] if isinstance(r["exit"], int) else str(r["exit"]),
                "seconds": r["seconds"],
                "sha256": checks.digest(r["stdout"]),
                "failure": reason,
            }
            for item, r, reason in zip(items, results, reasons)
        ],
        "layers": layers,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
