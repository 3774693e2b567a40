import hashlib
import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from qlozenge import cli, verify
from qlozenge.cli import build_parser, main, render_svg
from qlozenge.enumeration import gen_function, iter_tilings
from qlozenge.formulas import FAMILIES, semihex_dents_M2
from qlozenge.lattice import (
    BadDents,
    RegionParams,
    build_hexagon,
    build_q_region,
    build_semihexagon_dented,
)
from qlozenge.qalgebra import QPoly, parse_poly
from qlozenge.verify import suite_tasks
from qlozenge.weights import WeightAssignment as W


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "argv, sha256",
    [
        (
            ["--suite", "all", "--max-sum", "5", "--jobs", "1"],
            "9836ca21f8b0fcccfaeeebcaccd046c6ccf529545a8ce39ce8f190905c5e4780",
        ),
        (
            ["--suite", "all", "--max-sum", "5", "--jobs", "2"],
            "9836ca21f8b0fcccfaeeebcaccd046c6ccf529545a8ce39ce8f190905c5e4780",
        ),
        (
            ["--suite", "recurrences", "--max-sum", "6", "--json"],
            "e32a5be9e3f595b24b7ef72678e7041f182ded82a62af5847696627a1dc05ff0",
        ),
    ],
    ids=["all-jobs1", "all-jobs2", "recurrences-json"],
)
def test_verify_suite_output_frozen(capsys, argv, sha256):
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_formula_macmahon_example(capsys):
    code, out, _ = run(capsys, "formula", "macmahon", "--a", "1", "--b", "1", "--c", "1")
    assert code == 0
    assert out == "1 + q\n"


def test_count_hexagon_example(capsys):
    code, out, _ = run(capsys, "count", "hexagon", "--a", "2", "--b", "2", "--c", "2")
    assert code == 0
    assert out == "20\n"


def test_count_json_object(capsys):
    code, out, _ = run(
        capsys, "count", "hexagon", "--a", "2", "--b", "2", "--c", "2", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 20
    assert payload["builder"] == "hexagon"
    assert len(payload["digest"]) == 64


def test_formula_semihex_frozen(capsys):
    code, out, _ = run(
        capsys, "formula", "semihex", "--a", "2", "--b", "1", "--dents", "1,3"
    )
    assert code == 0
    assert out == "q + q^2\n"


def test_formula_main_matches_count(capsys):
    code, out, _ = run(capsys, "formula", "main", "--params", "1,1,1,1,1,1,1,1")
    assert code == 0
    code2, out2, _ = run(
        capsys, "count", "q_region", "--params", "1,1,1,1,1,1,1,1"
    )
    assert code2 == 0
    assert out == out2


@pytest.fixture
def default_int_text_limit():
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


@pytest.mark.usefixtures("default_int_text_limit")
def test_a_count_past_the_int_to_text_limit_is_a_clear_usage_error(capsys):
    # main at 100,100,100,100 has 5 224 digits, past Python's default limit
    # of 4 300, so no str() of it exists to count them; 90^4 has 4 232.
    params = "100,100,100,100,0,0,0,0"
    for extra in ([], ["--json"]):
        code, out, err = run(capsys, "formula", "main", "--params", params, *extra)
        assert (code, out) == (2, "")
        assert "has 5224 decimal digits, more than the 4300" in err
        assert "does not change that process-wide limit" in err
    assert sys.get_int_max_str_digits() == 4300
    code, out, _ = run(capsys, "formula", "main", "--params", "90,90,90,90,0,0,0,0")
    assert code == 0 and len(out) == 4232 + 1 and out[:-1].isdigit()


@pytest.mark.usefixtures("default_int_text_limit")
@pytest.mark.parametrize(
    "value, digits",
    [(10**4300, 4301), (-(10**4301 - 1), 4301), (10**4301, 4302), (7 * 10**9999, 10000)],
    ids=["ten-to-4300", "minus-4301-nines", "ten-to-4301", "seven-times-ten-to-9999"],
)
def test_digits_past_the_limit_are_counted_exactly(value, digits):
    for shown, what in ((value, "the count"), (QPoly({0: 1, 5: value}), "a coefficient")):
        with pytest.raises(ValueError, match="^%s has %d decimal digits," % (what, digits)):
            cli._text(shown)
    assert cli._text(10**4300 - 1) == "9" * 4300


def test_genfun_round_trips_and_matches_formula(capsys):
    code, out, _ = run(
        capsys, "genfun", "magnet_bar", "--params", "1,1,1,1,1,1", "--weight", "wt3"
    )
    assert code == 0
    code2, out2, _ = run(
        capsys, "formula", "magnet_m3", "--params", "1,1,1,1,1,1"
    )
    assert code2 == 0
    assert out == out2
    poly = gen_function(build_q_region(RegionParams(1, 1, 1, 1, 1, 1, 0, 0)), W.WT3)
    assert parse_poly(out.strip()) == poly


def test_genfun_json(capsys):
    code, out, _ = run(
        capsys, "genfun", "hexagon", "--a", "2", "--b", "2", "--c", "2", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["weight"] == "wt2"
    assert parse_poly(payload["poly"]) == gen_function(build_hexagon(2, 2, 2), W.WT2)


def test_tilings_lines(capsys):
    code, out, _ = run(capsys, "tilings", "hexagon", "--a", "1", "--b", "1", "--c", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    for line in lines:
        entries = json.loads(line)
        assert len(entries) == 3
        assert sorted(e[2] for e in entries) == ["L", "R", "V"]
        assert entries == sorted(entries)
        for first, second, _letter in entries:
            assert first[2] == "U" and second[2] == "D"


def test_a_reader_that_stops_early_gets_exit_141_and_no_traceback():
    # The 980 tilings fill the pipe many times over, so the writes after
    # the reader is gone fail, as under `| head -1`.
    src = os.path.dirname(os.path.dirname(verify.__file__))
    argv = ["tilings", "hexagon", "--a", "3", "--b", "3", "--c", "3"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "qlozenge.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=src),
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 141 and err == b""
    assert json.loads(first) and first.endswith(b"\n")


def test_the_cli_imports_no_dataclass_machinery():
    # Every command starts a fresh interpreter; dataclasses would bring in
    # inspect, ast and dis with it.  Diffed, so modules a site hook loads
    # beforehand do not count.
    src = os.path.dirname(os.path.dirname(verify.__file__))
    probe = "import sys; s = set(sys.modules); import qlozenge.cli; print(*set(sys.modules) - s)"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    loaded = set(done.stdout.split())
    assert done.returncode == 0 and "qlozenge.verify" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast", "dis"}


def test_verify_suite_kuo(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "kuo")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) >= 20
    assert all(line.startswith("Pass kuo ") for line in lines)


def test_verify_json_lines(capsys):
    code, out, _ = run(
        capsys, "verify", "--suite", "prop31", "--max-sum", "2", "--json"
    )
    assert code == 0
    for line in out.splitlines():
        payload = json.loads(line)
        assert payload["status"] == "Pass"
        assert payload["check"] == "prop31"
        assert parse_poly(payload["lhs"]) == parse_poly(payload["rhs"])


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "nonesuch"])
    assert info.value.code == 2


def test_kuo_default_marks(capsys):
    code, out, _ = run(capsys, "kuo", "magnet_bar", "--params", "1,1,1,1,1,1")
    assert code == 0
    assert out.startswith("Pass kuo ")


def test_kuo_explicit_marks_uniform(capsys):
    code, out, _ = run(
        capsys,
        "kuo",
        "hexagon",
        "--a", "1", "--b", "1", "--c", "1",
        "--marks", "0,0,U;0,0,D;1,0,U;1,-1,D",
        "--weight", "wt0",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "Pass"
    assert payload["lhs"] == "2" and payload["rhs"] == "2"


def test_kuo_bad_marks_usage(capsys):
    code, _, err = run(
        capsys,
        "kuo",
        "hexagon",
        "--a", "1", "--b", "1", "--c", "1",
        "--marks", "0,0,U;0,0,U;0,0,D;1,-1,D",
    )
    assert code == 2
    assert err


def test_kuo_without_params_needs_marks(capsys):
    code, _, err = run(capsys, "kuo", "semihexagon", "--a", "1", "--b", "1", "--dents", "1")
    assert code == 2
    assert "marks" in err


def test_budget_exit_codes(capsys):
    code, _, err = run(
        capsys, "count", "hexagon", "--a", "9", "--b", "9", "--c", "9",
        "--max-states", "4",
    )
    assert code == 3 and "budget" in err
    code, _, err = run(capsys, "tilings", "hexagon", "--a", "5", "--b", "5", "--c", "5")
    assert code == 3


def test_usage_errors(capsys):
    assert run(capsys, "count", "hexagon", "--a", "2", "--b", "2")[0] == 2
    assert run(capsys, "formula", "main")[0] == 2
    assert run(capsys, "formula", "qmain", "--params", "1,1,1")[0] == 2
    assert run(capsys, "count", "q_region", "--params", "1,1,x,1,1,1,1,1")[0] == 2


def test_a_usage_error_leaves_the_shared_parser_as_built(capsys):
    argv = ["genfun", "hexagon", "--a", "1", "--b", "2", "--c", "1"]
    build_parser.cache_clear()
    fresh = run(capsys, *argv)
    for bad in (["genfun", "hexagon", "--a", "x"], ["verify", "--suite", "nonesuch"]):
        with pytest.raises(SystemExit) as info:
            main(bad)
        assert info.value.code == 2
        capsys.readouterr()
    assert run(capsys, *argv) == fresh
    assert build_parser.cache_info().misses == 1


def test_each_subcommand_parses_a_minimal_argv_to_its_defaults():
    sides = {"a": None, "b": None, "c": None, "params": None, "dents": None}
    region = {"builder": "hexagon", **sides}
    states = {"max_states": 4194304}
    expected = {
        ("formula", "macmahon"): {"name": "macmahon", **sides, "json": False},
        ("count", "hexagon"): {**region, **states, "json": False},
        ("genfun", "hexagon"): {**region, "weight": "wt2", **states, "json": False},
        ("tilings", "hexagon"): {**region, "max_triangles": 120, "json": False},
        ("verify", "--suite", "qmain"): {"suite": "qmain", "max_sum": 4, "jobs": 1, "json": False},
        ("kuo", "hexagon"): {**region, "marks": None, "weight": "wt2", **states, "json": False},
        ("render", "hexagon"): {**region, "tiling_index": None, "max_triangles": 120, "svg": None},
    }
    for argv, defaults in expected.items():
        parsed = vars(build_parser().parse_args(argv))
        assert parsed.pop("func").__name__ == "cmd_" + argv[0]
        assert parsed == {"command": argv[0], **defaults}


def test_render_empty_region(capsys):
    code, out, _ = run(capsys, "render", "q_region", "--params", "0,0,0,0,0,0,0,0")
    assert code == 0
    assert out.startswith("<svg ")
    assert out.endswith("</svg>\n")


def test_render_tilings_distinct_and_stable(capsys):
    first = run(capsys, "render", "hexagon", "--a", "1", "--b", "1", "--c", "1",
                "--tiling-index", "0")
    again = run(capsys, "render", "hexagon", "--a", "1", "--b", "1", "--c", "1",
                "--tiling-index", "0")
    second = run(capsys, "render", "hexagon", "--a", "1", "--b", "1", "--c", "1",
                 "--tiling-index", "1")
    assert first[0] == again[0] == second[0] == 0
    assert first[1] == again[1]
    assert first[1] != second[1]
    for shade in ("#c8c8c8", "#8f8f8f", "#efefef"):
        assert shade in first[1]


def test_render_a_tiling_deeper_than_the_recursion_limit(capsys):
    # 1 200 lozenges deep: the backtracker keeps its own stack, so a budget
    # raised past about 2 100 triangles does not meet Python's recursion
    # limit.  A hexagon has no notch, so each polygon is one lozenge.
    code, out, err = run(
        capsys, "render", "hexagon", "--a", "20", "--b", "20", "--c", "20",
        "--tiling-index", "0", "--max-triangles", "3000",
    )
    assert code == 0 and err == ""
    assert out.count("<polygon") == 1200


def test_render_out_of_range_index(capsys):
    code, _, err = run(
        capsys, "render", "hexagon", "--a", "1", "--b", "1", "--c", "1",
        "--tiling-index", "5",
    )
    assert code == 2 and "out of range" in err


def test_render_writes_file(tmp_path, capsys):
    target = tmp_path / "picture.svg"
    code, out, _ = run(
        capsys, "render", "q_region", "--params", "1,1,1,1,1,1,1,1",
        "--svg", str(target),
    )
    assert code == 0
    assert out == ""
    text = target.read_text()
    assert text.startswith("<svg ")
    # the notch is recorded in the parameters, so it gets shaded
    assert "#b0b0b0" in text


def test_render_to_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.svg"
    code, out, err = run(
        capsys, "render", "hexagon", "--a", "1", "--b", "1", "--c", "1",
        "--svg", str(target),
    )
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write %s: " % target)
    assert "Traceback" not in err and not target.exists()


def test_render_svg_function_direct():
    region = build_hexagon(1, 1, 1)
    tilings = list(iter_tilings(region))
    bare = render_svg(region)
    tiled = render_svg(region, tilings[0])
    assert bare != tiled
    assert render_svg(region) == bare
    assert bare.count("<polygon") == len(region.triangles)


@pytest.mark.parametrize("dents", ["1,2", "2,3"])
def test_missing_frame_is_a_usage_error_whatever_the_dents(capsys, dents):
    # The semihexagon records no southeast side, so wt1 must fail before
    # the sweep, not only when the sweep reaches a right lozenge.
    code, out, err = run(
        capsys, "genfun", "semihexagon", "--a", "2", "--b", "1", "--dents", dents,
        "--weight", "wt1",
    )
    assert code == 2 and out == ""
    assert "southeast side" in err


def test_budget_message_names_row_and_state_count(capsys):
    code, out, err = run(capsys, "count", "hexagon", "--params", "2,2,2", "--max-states", "3")
    assert code == 3 and out == ""
    assert "needs 5 states at row 1, budget is 3" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "hexagon", "--params", "2,2,2", "--max-states", "-1"],
        ["genfun", "hexagon", "--params", "2,2,2", "--max-states", "-1"],
        ["kuo", "hexagon", "--params", "2,2,2", "--max-states", "-1"],
        ["verify", "--suite", "qmain", "--max-sum", "-3"],
        ["verify", "--suite", "qmain", "--max-sum", "2", "--jobs", "0"],
        ["tilings", "hexagon", "--a", "1", "--b", "1", "--c", "1", "--max-triangles", "-1"],
        ["render", "hexagon", "--a", "1", "--b", "1", "--c", "1", "--max-triangles", "-1"],
        ["render", "hexagon", "--a", "1", "--b", "1", "--c", "1", "--tiling-index", "-1"],
    ],
    ids=[
        "negative-max-states",
        "genfun-negative-max-states",
        "kuo-negative-max-states",
        "negative-max-sum",
        "zero-jobs",
        "tilings-negative-max-triangles",
        "render-negative-max-triangles",
        "render-negative-tiling-index",
    ],
)
def test_out_of_range_counts_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "must be at least" in capsys.readouterr().err


def test_jobs_is_capped_at_the_core_count(capsys, monkeypatch):
    # The recorder stands in for the pool, so no worker is ever started.
    calls = []

    def record(suite, max_sum, jobs, render):
        calls.append(jobs)
        return []

    monkeypatch.setattr("qlozenge.cli.run_suite", record)
    monkeypatch.delattr("qlozenge.cli.os.sched_getaffinity", raising=False)
    monkeypatch.setattr("qlozenge.cli.os.cpu_count", lambda: 4)
    assert main(["verify", "--suite", "qmain", "--jobs", "1000000"]) == 0
    assert main(["verify", "--suite", "qmain", "--jobs", "3"]) == 0
    monkeypatch.setattr("qlozenge.cli.os.cpu_count", lambda: None)
    assert main(["verify", "--suite", "qmain", "--jobs", "1000000"]) == 0
    assert calls == [4, 3, 1]
    # Under `taskset -c 0` on two cores the affinity mask, not the core
    # count, bounds the workers.
    monkeypatch.setattr("qlozenge.cli.os.cpu_count", lambda: 2)
    monkeypatch.setattr("qlozenge.cli.os.sched_getaffinity", lambda pid: {0}, raising=False)
    assert main(["verify", "--suite", "qmain", "--jobs", "2"]) == 0
    assert calls == [4, 3, 1, 1]


def test_a_failing_check_exits_1_at_every_jobs_value(capsys, monkeypatch):
    # g_exponent off by one at one tuple fails its magnet and q recurrences.
    # Only forked pool workers see the patch; two usable CPUs are claimed
    # so that --jobs 2 really starts a pool.
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("pool workers would not inherit the patched g_exponent")
    p = RegionParams(0, 1, 1, 1, 0, 0, 0, 0)
    real = verify.g_exponent
    monkeypatch.setattr(verify, "g_exponent", lambda n: real(n) + (1 if n == p else 0))
    monkeypatch.setattr("qlozenge.cli.os.sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for fmt in ([], ["--json"]):
        outs = set()
        for jobs in ("1", "2"):
            argv = ["verify", "--suite", "recurrences", "--max-sum", "3", "--jobs", jobs]
            code, out, _ = run(capsys, *argv, *fmt)
            assert code == 1
            outs.add(out)
        (out,) = outs
        assert len(out.splitlines()) == len(suite_tasks("recurrences", 3))
        fails = [line for line in out.splitlines() if "Fail" in line]
        assert len(fails) == 2


def test_tilings_json_flag_changes_nothing(capsys):
    argv = ["tilings", "hexagon", "--a", "1", "--b", "2", "--c", "1"]
    plain = run(capsys, *argv)
    assert plain[0] == 0 and plain[1]
    assert run(capsys, *argv, "--json") == plain


@pytest.mark.parametrize(
    "argv",
    [
        ["formula", "semihex", "--a", "0", "--b", "-1"],
        ["count", "semihexagon", "--a", "0", "--b", "-2"],
    ],
    ids=["formula", "builder"],
)
def test_negative_semihexagon_side_is_rejected(capsys, argv):
    # With a = 0 no dent is needed, so only the side check can refuse b < 0.
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "nonnegative" in err
    a, b = int(argv[3]), int(argv[5])
    with pytest.raises(BadDents):
        semihex_dents_M2(a, b, [])
    with pytest.raises(BadDents):
        build_semihexagon_dented(a, b, [])


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["count", "hexagon", "--params", "1,1,1", "--a", "5"], "--a"),
        (
            ["count", "semihexagon", "--a", "1", "--b", "1", "--dents", "1", "--params", "7,7"],
            "--params",
        ),
        (["count", "hexagon", "--a", "1", "--b", "1", "--c", "1", "--dents", "9"], "--dents"),
        (
            ["formula", "macmahon", "--a", "1", "--b", "1", "--c", "1", "--params", "2,2,2"],
            "--a",
        ),
    ],
    ids=["params-and-side", "semihexagon-params", "hexagon-dents", "formula-params-and-sides"],
)
def test_region_flag_the_family_does_not_take_is_a_usage_error(capsys, argv, flag):
    # Each of these used to print the value of a region built from some of
    # the flags and exit 0, silently dropping the rest.
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert flag in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["count", "hexagon", "--a", "-1", "--b", "2", "--c", "2"], "--a"),
        (["formula", "macmahon", "--a", "-1", "--b", "2", "--c", "2"], "--a"),
        (["count", "hexagon", "--a", "2", "--b", "-1", "--c", "2"], "--b"),
        (["formula", "hex_m2", "--params", "1,-2,1"], "b in --params a,b,c"),
    ],
    ids=["count-a", "formula-a", "count-b", "formula-params"],
)
def test_negative_hexagon_side_names_the_flag_typed(capsys, argv, named):
    # The hexagon's sides project to differently named RegionParams fields;
    # the message used to name those (`parameter z` for --a).
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert named + " must be a nonnegative integer" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["kuo", "hexagon", "--a", "1", "--b", "1", "--c", "1"],
        ["kuo", "hexagon", "--a", "3", "--b", "1", "--c", "1"],
        ["kuo", "k_region", "--params", "2,1,0,1,1"],
        ["kuo", "magnet_bar", "--params", "0,1,1,0,1,1"],
        ["kuo", "q_region", "--params", "0,0,0,0,0,0,0,0"],
    ],
    ids=["hexagon-111", "hexagon-311", "k_region", "magnet_bar", "q_region-empty"],
)
def test_degenerate_default_kuo_marks_say_so(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "canonical marks degenerate" in err and "--marks" in err


# Each region bare, then every tiling of it.  Together they draw all three
# lozenge fills, notches of 0, 2 and 4 triangles, and a region without
# parameters (the dented semihexagon), so one digest pins render_svg's bytes.
_DRAWN_REGIONS = [
    ("hexagon", (2, 2, 2)),
    ("magnet_bar", (1, 1, 1, 1, 1, 1)),
    ("k_region", (2, 1, 0, 1, 1)),
    ("semihexagon", (3, 2, (1, 3, 4))),
]


def test_render_svg_of_every_tiling_is_pinned():
    digest = hashlib.sha256()
    documents = 0
    for name, params in _DRAWN_REGIONS:
        region = FAMILIES[name].build(*params)
        for tiling in [None, *iter_tilings(region)]:
            digest.update(render_svg(region, tiling).encode("ascii"))
            documents += 1
    assert documents == 4 + 20 + 30 + 4 + 3
    assert digest.hexdigest() == (
        "bcd818f0a8dc5d7bd27359d2a51195c56369f41d2b1e6efb4b9589b730e21987"
    )
