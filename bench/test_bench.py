"""Tests of the benchmark itself:  python3 -m pytest bench -q"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _rep(workload, seed, *extra):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed), *extra],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["frontier", "closed"])
def test_inputs_come_from_the_seed(workload):
    assert workloads.items_for(workload, 5) == workloads.items_for(workload, 5)
    assert workloads.items_for(workload, 5) != workloads.items_for(workload, 6)


def test_every_builder_family_and_a_count_in_frontier():
    items = workloads.frontier_items(checks.DEFAULT_SEED)
    families = {item["family"] for item in items}
    assert families == {"hexagon", "q_region", "magnet_bar", "k_region", "semihexagon"}
    assert any(item["argv"][0] == "count" for item in items)
    assert any(item["argv"][0] == "genfun" for item in items)


def test_catalog_entries_lie_in_their_band():
    from qlozenge import lattice

    catalog = json.loads(workloads.CATALOG.read_text())
    for (family, _, _, _, target), entries in zip(workloads.FRONTIER_SLOTS, catalog):
        assert entries, family
        for entry in entries[:2]:
            region = workloads._region(lattice, family, entry["params"])
            weight = "wt2" if entry["weight"] == "wt0" else entry["weight"]
            work = workloads.shadow_sweep(region.triangles, weight)
            assert abs(work - target) <= workloads.BAND * target


def test_macmahon_box_product_matches_the_q_route_at_one():
    from qlozenge.formulas import macmahon_q

    for box in [(1, 1, 1), (2, 3, 4), (3, 3, 3), (4, 2, 5)]:
        assert sum(macmahon_q(*box).poly.terms.values()) == checks.macmahon_count(*box)


SMALL_ITEMS = [
    ("frontier", {"argv": ["genfun", "hexagon", "--params", "2,3,2", "--weight", "wt1"],
                  "family": "hexagon", "weight": "wt1", "params": [2, 3, 2]}),
    ("frontier", {"argv": ["genfun", "semihexagon", "--a", "2", "--b", "2", "--dents", "1,3"],
                  "family": "semihexagon", "weight": "wt2", "params": [2, 2, [1, 3]]}),
    ("frontier", {"argv": ["count", "q_region", "--params", "1,0,1,1,1,1,0,0"],
                  "family": "q_region", "weight": "count", "params": [1, 0, 1, 1, 1, 1, 0, 0]}),
    ("closed", {"argv": ["formula", "qmain", "--params", "1,1,1,1,1,1,1,1"],
                "family": "qmain", "params": [1] * 8}),
    ("closed", {"argv": ["formula", "macmahon", "--params", "2,3,2"],
                "family": "macmahon", "params": [2, 3, 2]}),
]


@pytest.mark.parametrize("workload,item", SMALL_ITEMS)
def test_correct_outputs_pass_and_wrong_ones_fail(workload, item):
    from qlozenge import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(item["argv"]) == 0
    seed = checks.DEFAULT_SEED + 1
    assert checks.check_outputs(workload, seed, [item], [{"exit": 0, "stdout": out.getvalue()}]) == [None]
    text = out.getvalue().strip()
    wrong = str(int(text) + 1) if text.isdigit() else text + " + q^9999"
    for result in ({"exit": 0, "stdout": wrong + "\n"}, {"exit": 2, "stdout": ""}):
        assert checks.check_outputs(workload, seed, [item], [result])[0] is not None


def test_suite_check_wants_one_pass_line_per_task():
    from qlozenge.verify import suite_tasks

    item = workloads.suite_items()[0]
    lines = ["Pass x []"] * len(suite_tasks("all", workloads.SUITE_MAX_SUM))

    def reason(text):
        return checks._check_suite(item, text)

    assert reason("\n".join(lines)) is None
    assert reason("\n".join(lines[1:])) is not None
    assert reason("\n".join(["Fail x []"] + lines[1:])) is not None


def test_golden_digests_are_checked_at_the_default_seed():
    golden = json.loads(checks.GOLDEN.read_text())
    assert set(golden) == set(workloads.WORKLOADS)
    assert len(golden["frontier"]) == len(workloads.FRONTIER_SLOTS)
    assert len(golden["closed"]) == len(workloads.CLOSED_SLOTS)


def test_closed_is_cold_wide_and_resolve_bound():
    rep = _rep("closed", checks.DEFAULT_SEED, "--trace-out", str(ROOT / ".bench_out" / "test-closed.json"))
    layers = rep["layers"]
    assert all(call["failure"] is None for call in rep["calls"])
    assert layers["formulas.cache_hit_ratio"] == 0
    assert layers["formulas.calls"] >= len(workloads.CLOSED_SLOTS)
    assert layers["qalgebra.result_bits_max"] > 256
    assert layers["enumeration.sweep_calls"] == 0


def test_tracer_restores_every_binding():
    import qlozenge.enumeration as enumeration
    import qlozenge.qalgebra as qalgebra
    import qlozenge.verify as verify

    before = (verify.gen_function, enumeration.gen_function, qalgebra.resolve, qalgebra.QPoly.__add__)
    tracer = Tracer()
    tracer.install()
    try:
        assert verify.gen_function is not before[0]
        assert qalgebra.QPoly.__add__ is not before[3]
    finally:
        tracer.uninstall()
    assert (verify.gen_function, enumeration.gen_function, qalgebra.resolve, qalgebra.QPoly.__add__) == before


def test_counts_repeat_and_spans_nest():
    from qlozenge import cli

    argv = ["genfun", "hexagon", "--params", "2,2,2", "--weight", "wt2"]
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(argv)
        finally:
            tracer.uninstall()
        layers = tracer.layer_metrics(0)
        counts.append({k: v for k, v in layers.items() if not k.endswith("_s")})
        ids = {span[0] for span in tracer.spans}
        assert all(span[4] is None or span[4] in ids for span in tracer.spans)
    assert counts[0] == counts[1]
    assert counts[0]["enumeration.sweep_calls"] == 1
    assert counts[0]["qalgebra.qpoly_new"] > 0


def test_run_refuses_without_sources(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", ROOT / "no-such-dir")
    assert run.main(["--workload", "closed", "--seed", "1", "--seconds", "1"]) == 2
    assert "correct" not in capsys.readouterr().out
