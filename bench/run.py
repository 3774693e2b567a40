"""qlozenge benchmark: frontier sweeps, closed formulas and a verify suite.

Run from the repository root:

    python3 bench/run.py --workload frontier --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

Each repetition runs in a fresh interpreter (rep.py) that imports qlozenge
from ``src/`` and drives ``qlozenge.cli.main(argv)`` in-process.  With
``--trace 0`` repetitions run until ``--seconds`` is used up and the
end-to-end metrics are medians over them.  With ``--trace 1`` a few
untraced repetitions are followed by one traced repetition (the suite at
``--jobs 1``, since spans in pool workers are out of reach), which gives
the per-layer metrics.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every output passed its check, 1 when one failed and 2 when the
benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MIN_REPS = 3
# Seconds one run of rep.calibrate() takes on the reference machine (2-core
# x86-64 VM, Python 3.11).  *_ref_s metrics are times rescaled to it.
CALIBRATION_REFERENCE_S = 0.010
TRACE_REFERENCE_REPS = 3
# Leave room under the 180 s a run may take, whatever --seconds asks for.
HARD_LIMIT_S = 150.0
PERCENTILES = (50, 75, 90, 95, 99, 99.9)
MODULES = ("cli", "verify", "formulas", "enumeration", "weights", "lattice", "qalgebra")


class BenchError(RuntimeError):
    """The benchmark itself could not run (missing sources, a crashed rep)."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_rep(workload: str, seed: int, jobs: int, trace_out=None, timeout: float = HARD_LIMIT_S) -> dict:
    """One repetition in a fresh interpreter; adds setup_s and rep_s."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed), "--jobs", str(jobs)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    spawned = _now()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as err:
        raise BenchError("%s repetition ran past %.0f s" % (workload, timeout)) from err
    ended = _now()
    if proc.returncode != 0:
        raise BenchError("%s repetition failed:\n%s" % (workload, proc.stderr.strip()))
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["setup_s"] = rep["first_call"] - spawned
    rep["rep_s"] = ended - spawned
    speed = CALIBRATION_REFERENCE_S / rep["calibration_s"]
    rep["wall_ref_s"] = rep["wall_s"] * speed
    rep["cpu_ref_s"] = rep["cpu_s"] * speed
    return rep


def tail(samples) -> str:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    text = "median %.4f" % statistics.median(samples)
    usable = [p for p in PERCENTILES if n * (100 - p) / 100 >= 10]
    if usable:
        p = usable[-1]
        ranked = sorted(samples)
        text += ", p%g %.4f" % (p, ranked[min(n - 1, int(round(p / 100 * (n - 1))))])
    else:
        text += ", no percentile has 10 samples beyond it"
    return text + " (n=%d)" % n


def sloc() -> dict[str, int]:
    """Non-blank, non-comment lines of each file under src/qlozenge/."""
    counts = {}
    for path in sorted((SRC / "qlozenge").glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        counts[path.stem] = sum(1 for s in (l.strip() for l in lines) if s and not s.startswith("#"))
    out = {"%s.sloc" % m: counts.get(m, 0) for m in MODULES}
    out["src.sloc"] = sum(counts.values())
    return out


def _failures(reps) -> tuple[int, int, list[str]]:
    calls = [c for rep in reps for c in rep["calls"]]
    reasons = sorted({"%s: %s" % (" ".join(c["argv"]), c["failure"]) for c in calls if c["failure"]})
    return len(calls), sum(1 for c in calls if c["failure"]), reasons


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, list]:
    """Untraced repetitions until the time is used; medians of each metric."""
    jobs = workloads.SUITE_JOBS
    reps: list[dict] = []
    began = _now()
    while True:
        left = HARD_LIMIT_S - (_now() - began)
        reps.append(run_rep(workload, seed, jobs, timeout=left))
        elapsed = _now() - began
        typical = statistics.median(r["rep_s"] for r in reps)
        if len(reps) >= MIN_REPS and elapsed + typical > seconds:
            break
        if elapsed + typical > HARD_LIMIT_S:
            break
    units = {"wall_ref_s": "s", "cpu_ref_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
    metrics = {name: statistics.median(r[name] for r in reps) for name in units}
    print("%s seed %d: %d repetitions in %.1f s" % (workload, seed, len(reps), _now() - began))
    for name in ("wall_s", "cpu_s", "wall_ref_s", "cpu_ref_s", "setup_s", "calibration_s"):
        print("  %-13s %s s" % (name, tail([r[name] for r in reps])))
    print("  %-13s median %.1f MB, largest %.1f MB" % (
        "peak_rss_mb", metrics["peak_rss_mb"], max(r["peak_rss_mb"] for r in reps)))
    print("  %-13s %s" % ("wall_s each", " ".join("%.3f" % r["wall_s"] for r in reps)))
    call_s = [c["seconds"] for r in reps for c in r["calls"]]
    print("  %-13s %s s" % ("call_s", tail(call_s)))
    attempted, failed, reasons = _failures(reps)
    print("  %-13s %.4f (%d of %d calls)" % ("failed_frac", failed / attempted, failed, attempted))
    for reason in reasons:
        print("  FAILED %s" % reason)
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, reps


def _roles(workload: str, layers: dict, wall: float) -> list[str]:
    """Violations of what each workload is for, judged on the traced run."""
    out = []
    sweep, resolve = layers["enumeration.sweep_s"], layers["qalgebra.resolve_s"]
    many = layers["lattice.build_calls"] >= 1000 and layers["verify.checks"] >= 1000
    if workload == "frontier" and not (sweep > 0.5 * wall and resolve == 0):
        out.append("frontier: sweep %.2f s of %.2f s, resolve %.2f s" % (sweep, wall, resolve))
    if workload == "closed" and not (resolve > 0.5 * wall and sweep == 0):
        out.append("closed: resolve %.2f s of %.2f s, sweep %.2f s" % (resolve, wall, sweep))
    if workload == "suite" and not (resolve < 0.25 * wall and many):
        out.append("suite: resolve %.2f s of %.2f s, %d builds, %d checks" % (
            resolve, wall, layers["lattice.build_calls"], layers["verify.checks"]))
    if workload != "suite" and many:
        out.append("%s reaches thousands of builds and checks" % workload)
    return out


def trace(workload: str, seed: int, seconds: float) -> tuple[dict, list]:
    """Per-layer metrics from one traced repetition, against untraced ones."""
    jobs = workloads.SUITE_JOBS
    trace_jobs = 1 if workload == "suite" else jobs
    reference = [run_rep(workload, seed, trace_jobs) for _ in range(TRACE_REFERENCE_REPS)]
    reps = list(reference)
    speedup = 0.0
    if workload == "suite":
        pooled = [run_rep(workload, seed, jobs) for _ in range(TRACE_REFERENCE_REPS)]
        reps += pooled
        speedup = statistics.median(r["wall_ref_s"] for r in reference) / statistics.median(
            r["wall_ref_s"] for r in pooled)
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / ("trace-%s-seed%d.json" % (workload, seed))
    traced = run_rep(workload, seed, trace_jobs, trace_out=spans_file)
    reps.append(traced)
    layers = dict(traced["layers"])
    layers["verify.pool_speedup"] = speedup
    layers["trace.overhead"] = traced["wall_ref_s"] / statistics.median(r["wall_ref_s"] for r in reference)
    layers.update(sloc())
    # Traced, untraced and pooled runs must print the same bytes.
    digests = {tuple(c["sha256"] for c in r["calls"]) for r in reps}
    if len(digests) != 1:
        traced["calls"][0]["failure"] = "traced stdout differs from untraced stdout"
    for violation in _roles(workload, layers, traced["wall_s"]):
        print("  ROLE %s" % violation, file=sys.stderr)
    print("%s seed %d traced: wall %.3f s, spans in %s" % (
        workload, seed, traced["wall_s"], spans_file.relative_to(ROOT)))
    for name, value in layers.items():
        print("  %-32s %s" % (name, value))
    units = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").is_file() else {}
    unit_of = {m["name"]: m["unit"] for m in units.get("per_layer", [])}
    return {k: {"value": v, "unit": unit_of.get(k, "")} for k, v in layers.items()}, reps


def _stop(signum, frame):
    # Raising here lets subprocess.run kill and reap the running repetition.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qlozenge" / "cli.py").is_file():
        print("error: no qlozenge sources under %s" % SRC, file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    print("python %s, nproc %d" % (platform.python_version(), os.cpu_count() or 0))
    if not args.trace:
        print("sloc: " + ", ".join("%s %d" % kv for kv in sloc().items()))
    metrics: dict = {}
    all_reps: list = []
    try:
        for name in names:
            found, reps = (trace if args.trace else measure)(name, args.seed, args.seconds)
            prefix = "" if len(names) == 1 else name + "."
            metrics.update({prefix + k: v for k, v in found.items()})
            all_reps += reps
    except BenchError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    attempted, failed, _ = _failures(all_reps)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _stop)
    sys.exit(main())
