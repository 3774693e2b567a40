import itertools
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings, strategies as st

from qlozenge import enumeration, lattice, verify
from qlozenge.enumeration import BadMarks, BudgetExceeded, _form, _outer_walks, kuo_remove
from qlozenge.lattice import (
    RegionParams,
    build_hexagon,
    build_magnet_bar,
    build_q_region,
    down,
    magnet_bar_params,
    q_region_triangle_count,
    up,
)
from qlozenge.qalgebra import QPoly, parse_poly
from qlozenge.verify import (
    FAIL,
    PASS,
    PRECONDITION,
    Report,
    _verdict,
    check_formula_vs_enumeration,
    check_kuo,
    check_magnet_recurrence,
    check_magnet_reduction,
    check_prop31,
    check_psi_recurrence,
    check_q_int_addition,
    check_q_recurrence,
    four_point_marks,
    report_json,
    report_line,
    run_suite,
    suite_names,
    suite_tasks,
)
from qlozenge.weights import WeightAssignment as W

UNIT_MARKS = [up(0, 0), down(0, 0), up(1, 0), down(1, -1)]


def test_verdict_pass_iff_equal():
    good = _verdict("demo", (0,), QPoly(3), QPoly(3))
    assert good.status == PASS and good.witness is None
    bad = _verdict("demo", (0,), parse_poly("1 + 2*q"), parse_poly("1 + q"))
    assert bad.status == FAIL
    assert bad.witness == QPoly({1: 1})


def test_kuo_unit_hexagon_counts():
    report = check_kuo(build_hexagon(1, 1, 1), UNIT_MARKS, W.WT0)
    assert report.status == PASS
    # two tilings times one on the left, one plus one on the right
    assert report.lhs == QPoly(2)
    assert report.rhs == QPoly(2)


def test_kuo_unit_hexagon_all_weights():
    region = build_hexagon(1, 1, 1)
    for w in W:
        assert check_kuo(region, UNIT_MARKS, w).status == PASS


def test_kuo_magnet_bar_placement():
    region = build_magnet_bar(1, 1, 1, 1, 1, 1)
    marks = four_point_marks(RegionParams(1, 1, 1, 1, 1, 1, 0, 0))
    for w in (W.WT2, W.WT3):
        assert check_kuo(region, marks, w).status == PASS


def test_kuo_propagates_bad_marks():
    region = build_hexagon(1, 1, 1)
    with pytest.raises(BadMarks):
        check_kuo(region, [up(0, 0), up(0, 0), down(0, 0), down(1, -1)], W.WT2)


_SMALL_Q = [
    RegionParams(*ps)
    for ps in itertools.product(range(5), repeat=8)
    if sum(ps) <= 4 and q_region_triangle_count(RegionParams(*ps)) >= 4
]


@st.composite
def _outer_walk_marks(draw):
    """A small q_region and four distinct triangles of one component's
    outer walk at positions i < j < k < l, with i, k of one parity and j, l
    of the other.  Consecutive walk entries alternate orientation, so the
    marks do too."""
    region = build_q_region(draw(st.sampled_from(_SMALL_Q)))
    walk = draw(st.sampled_from(_outer_walks(region)))
    n = len(walk)
    assume(n >= 4)
    i = draw(st.integers(0, n - 4))
    j = i + 1 + 2 * draw(st.integers(0, (n - 4 - i) // 2))
    k = j + 1 + 2 * draw(st.integers(0, (n - 3 - j) // 2))
    l = k + 1 + 2 * draw(st.integers(0, (n - 2 - k) // 2))
    marks = [walk[i], walk[j], walk[k], walk[l]]
    assume(len(set(marks)) == 4)
    return region, marks


@settings(max_examples=100, deadline=None)
@given(drawn=_outer_walk_marks())
def test_kuo_holds_on_random_outer_walk_marks(drawn):
    region, marks = drawn
    for w in (W.WT1, W.WT2, W.WT0):
        assert check_kuo(region, marks, w).status == PASS


def test_four_point_marks_frozen():
    marks = four_point_marks(RegionParams(2, 2, 2, 2, 0, 0, 0, 0))
    assert marks == [up(2, 3), down(3, 1), up(3, 1), down(3, -2)]


def test_magnet_recurrence_examples():
    assert check_magnet_recurrence(1, 1, 1, 1, 1, 1).status == PASS
    # z = 0 works because the z-1 factor contributes an empty term
    assert check_magnet_recurrence(1, 1, 2, 1, 0, 1).status == PASS


def test_magnet_recurrence_precondition():
    report = check_magnet_recurrence(1, 1, 1, 0, 1, 1)
    assert report.status == PRECONDITION
    assert report.lhs is None and report.rhs is None and report.witness is None
    assert check_magnet_recurrence(1, 1, 1, 1, 1, 0).status == PRECONDITION


def test_magnet_recurrence_sweep():
    for ps in itertools.product(range(2), repeat=6):
        if ps[3] >= 1 and ps[5] >= 1:
            assert check_magnet_recurrence(*ps).status == PASS


def test_q_recurrence_examples():
    assert check_q_recurrence(RegionParams(1, 1, 1, 1, 1, 1, 1, 1)).status == PASS
    assert check_q_recurrence(RegionParams(2, 1, 1, 1, 0, 0, 0, 0)).status == PASS
    assert check_q_recurrence(RegionParams(1, 0, 1, 1, 1, 1, 1, 1)).status == PRECONDITION


def test_psi_recurrence_examples():
    assert check_psi_recurrence(RegionParams(1, 1, 1, 1, 1, 1, 1, 1)).status == PASS
    assert check_psi_recurrence(RegionParams(2, 2, 1, 1, 1, 0, 1, 0)).status == PASS
    assert check_psi_recurrence(RegionParams(1, 1, 0, 1, 1, 1, 1, 1)).status == PRECONDITION


@settings(max_examples=25, deadline=None)
@given(st.tuples(*[st.integers(min_value=0, max_value=2)] * 8))
def test_q_and_psi_recurrences_hold(ps):
    p = RegionParams(*ps)
    if p.y >= 1 and p.t >= 1:
        assert check_q_recurrence(p).status == PASS
        if p.z >= 1:
            assert check_psi_recurrence(p).status == PASS


def test_a_tuples_recurrences_share_its_kuo_products(monkeypatch):
    calls = []
    real = verify.theorem_qmain

    def spy(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(verify, "theorem_qmain", spy)
    bar = (1, 1, 1, 1, 1, 1)
    p = magnet_bar_params(*bar)
    with lattice.shared_work():
        reports = [check_magnet_recurrence(*bar), check_q_recurrence(p), check_psi_recurrence(p)]
    assert [r.status for r in reports] == [PASS] * 3
    # the whole region and its five Kuo moves, once for all three checks
    assert len(calls) <= 6


def test_a_wrong_g_exponent_fails_the_wt2_recurrences_only(monkeypatch):
    # Off by one at a single tuple: an error linear in the parameters would
    # cancel across Kuo's three products.
    bar = (1, 1, 1, 1, 1, 1)
    p = magnet_bar_params(*bar)
    real = verify.g_exponent
    monkeypatch.setattr(verify, "g_exponent", lambda n: real(n) + (1 if n == p else 0))
    assert check_magnet_recurrence(*bar).status == FAIL
    assert check_q_recurrence(p).status == FAIL
    assert check_psi_recurrence(p).status == PASS


def test_q_int_addition():
    trivial = check_q_int_addition(0, 5)
    assert trivial.status == PASS
    assert trivial.lhs == parse_poly("1 + q + q^2 + q^3 + q^4")
    for a, z in itertools.product(range(7), repeat=2):
        assert check_q_int_addition(a, z).status == PASS
    assert check_q_int_addition(-1, 2).status == PRECONDITION


def test_prop31_examples():
    zero = check_prop31(RegionParams(0, 0, 0, 0, 0, 0, 0, 0))
    assert zero.status == PASS
    assert zero.lhs == QPoly(1) and zero.rhs == QPoly(1)
    assert check_prop31(RegionParams(1, 1, 1, 1, 0, 0, 0, 0)).status == PASS
    assert check_prop31(RegionParams(1, 1, 1, 1, 1, 1, 1, 1)).status == PASS


def test_prop31_budget():
    with pytest.raises(BudgetExceeded):
        check_prop31(RegionParams(5, 0, 5, 5, 0, 0, 0, 0))


def test_formula_vs_enumeration_examples():
    hexagon = check_formula_vs_enumeration("hexagon", (2, 2, 2), W.WT0)
    assert hexagon.status == PASS
    assert sum(hexagon.lhs.terms.values()) == 20
    assert check_formula_vs_enumeration("magnet_bar", (1, 1, 1, 1, 1, 1), W.WT3).status == PASS
    zeros = check_formula_vs_enumeration("q_region", (0,) * 8, W.WT2)
    assert zeros.status == PASS and zeros.lhs == QPoly(1)
    assert check_formula_vs_enumeration("q_region", RegionParams(1, 1, 1, 1, 0, 0, 0, 0), W.WT1).status == PASS
    assert check_formula_vs_enumeration("semihexagon", (2, 1, (1, 3)), W.WT2).status == PASS


def test_formula_vs_enumeration_rejects_unknown():
    with pytest.raises(ValueError):
        check_formula_vs_enumeration("octagon", (1, 1, 1), W.WT2)
    with pytest.raises(ValueError):
        check_formula_vs_enumeration("semihexagon", (2, 1, (1, 3)), W.WT1)


def test_magnet_reductions_all_pass():
    steps = ["uvws", "uv", "ws", "us", "vw"]
    reports = [check_magnet_reduction(1, 1, 1, 1, 1, 1, step) for step in steps]
    assert [r.status for r in reports] == [PASS] * 5
    assert [r.params[-1] for r in reports] == steps


def test_magnet_reduction_z_zero():
    # the vw step needs z >= 1; the other four still reduce
    assert check_magnet_reduction(1, 1, 2, 1, 0, 1, "vw").status == PRECONDITION
    for step in ("uvws", "uv", "ws", "us"):
        assert check_magnet_reduction(1, 1, 2, 1, 0, 1, step).status == PASS


def test_magnet_reduction_preconditions():
    assert check_magnet_reduction(0, 1, 0, 1, 1, 1, "uv").status == PRECONDITION
    with pytest.raises(ValueError):
        check_magnet_reduction(1, 1, 1, 1, 1, 1, "uw")


def test_reduction_core_is_translated_bar():
    """Stripping forced lozenges from the mark-deleted bar leaves a translate
    of the named smaller bar, once that bar's own forced strip is peeled the
    same way (degenerate targets such as y = 0 freeze part of themselves)."""
    region = build_magnet_bar(1, 1, 1, 1, 1, 1)
    marks = four_point_marks(RegionParams(1, 1, 1, 1, 1, 1, 0, 0))
    parts = kuo_remove(region, marks)
    targets = [(1, 0, 1, 0), (1, 0, 1, 1), (1, 1, 1, 0), (1, 0, 2, 0), (1, 1, 0, 1)]
    for part, tup in zip(parts, targets):
        # equal shapes: the two strips leave translates of each other
        assert _form(part).shape == _form(build_magnet_bar(1, 1, *tup)).shape
    # the two steps whose targets keep y = 1 land on the bar verbatim: the
    # bar strips nothing, and the part's core sits where the bar does
    for part, tup in ((parts[2], (1, 1, 1, 0)), (parts[4], (1, 1, 0, 1))):
        bar = _form(build_magnet_bar(1, 1, *tup))
        assert bar.forced == []
        assert (_form(part).shape, _form(part).corner) == (bar.shape, bar.corner)


def test_report_json_round_trip():
    report = check_magnet_recurrence(1, 1, 1, 1, 1, 1)
    payload = json.loads(report_json(report))
    assert payload["check"] == "magnet_recurrence"
    assert payload["status"] == "Pass"
    assert payload["params"] == [1, 1, 1, 1, 1, 1]
    assert payload["lhs"] == str(report.lhs)
    assert payload["witness"] is None
    skipped = json.loads(report_json(check_magnet_recurrence(1, 1, 1, 0, 1, 1)))
    assert skipped["status"] == "Precondition"
    assert skipped["lhs"] is None and skipped["rhs"] is None


def test_report_json_weight_and_marks_are_plain():
    region = build_hexagon(1, 1, 1)
    payload = json.loads(report_json(check_kuo(region, UNIT_MARKS, W.WT2)))
    digest, marks, weight = payload["params"]
    assert weight == "wt2"
    assert marks == [[0, 0, "U"], [0, 0, "D"], [1, 0, "U"], [1, -1, "D"]]
    assert len(digest) == 12


def test_suite_names_and_unknown():
    names = suite_names()
    for expected in ("qmain", "formulas", "kuo", "recurrences", "prop31", "all"):
        assert expected in names
    with pytest.raises(ValueError):
        suite_tasks("nonesuch")


def test_kuo_suite_all_pass():
    reports = run_suite("kuo")
    assert len(reports) >= 20
    assert all(r.status == PASS for r in reports)


def test_recurrence_suite_small():
    reports = run_suite("recurrences", max_sum=2)
    assert reports
    assert all(r.status == PASS for r in reports)


def test_suite_parallel_matches_sequential():
    sequential = [report_json(r) for r in run_suite("prop31", max_sum=2)]
    parallel = [report_json(r) for r in run_suite("prop31", max_sum=2, jobs=2)]
    assert sequential == parallel
    assert all(json.loads(line)["status"] == "Pass" for line in sequential)


def test_all_suites_cross_the_pool_unchanged():
    # kuo tasks carry Regions, Triangle marks and enum weights into the workers
    sequential = [report_json(r) for r in run_suite("all", 1)]
    parallel = [report_json(r) for r in run_suite("all", 1, jobs=2)]
    assert sequential == parallel
    assert len(sequential) == len(suite_tasks("all", 1))


@pytest.mark.parametrize("render", [report_line, report_json])
@pytest.mark.parametrize("jobs", [1, 2])
def test_rendered_results_are_the_reports_rendered(render, jobs):
    expected = [(r.status == PASS, render(r)) for r in run_suite("all", 1, jobs)]
    assert run_suite("all", 1, jobs, render=render) == expected


@pytest.mark.parametrize("name", suite_names())
def test_grouping_changes_no_report(name):
    reference = [report_json(t[1](*t[2:])) for t in suite_tasks(name, 2)]
    for jobs in (1, 2):
        assert [report_json(r) for r in run_suite(name, 2, jobs)] == reference


def test_each_magnet_bar_is_split_once(monkeypatch):
    tasks = suite_tasks("recurrences", 4)
    bars = {t[0] for t in tasks if t[1] is check_magnet_reduction}
    reference = [report_json(t[1](*t[2:])) for t in tasks]
    split = []
    real_kuo_remove = verify.kuo_remove

    def spy(region, marks):
        split.append(region.params)
        return real_kuo_remove(region, marks)

    monkeypatch.setattr(verify, "kuo_remove", spy)
    assert [report_json(r) for r in run_suite("recurrences", 4, 1)] == reference
    steps = sum(t[1] is check_magnet_reduction for t in tasks)
    assert steps > len(bars) > 1
    assert sorted(split, key=tuple) == sorted(bars, key=tuple)


def test_a_suite_builds_and_sweeps_each_region_once_per_weight(monkeypatch):
    builds, groups, swept, asked, computing = [], [], [], [], []
    real_build, real_plan, real_sweep, real_shared, real_group = (
        lattice._q_region,
        enumeration._planned,
        enumeration._sweep,
        enumeration.shared,
        verify._run_group,
    )

    def build(p):
        builds.append(p)
        return real_build(p)

    def run_group(*args, **kwargs):
        groups.append([])  # the shapes this group plans
        return real_group(*args, **kwargs)

    def plan(shape):
        groups[-1].append(shape)
        return real_plan(shape)

    def shared(key, compute, lasting=False):
        if not lasting:
            return real_shared(key, compute)
        asked.append(key)

        def run():
            computing.append(key)
            try:
                return compute()
            finally:
                computing.pop()

        return real_shared(key, run, lasting)

    def sweep(tables, max_states):
        swept.append(computing[-1])  # the key whose answer the sweep gives
        return real_sweep(tables, max_states)

    monkeypatch.setattr(lattice, "_q_region", build)
    monkeypatch.setattr(verify, "_run_group", run_group)
    monkeypatch.setattr(enumeration, "_planned", plan)
    monkeypatch.setattr(enumeration, "shared", shared)
    monkeypatch.setattr(enumeration, "_sweep", sweep)
    reports = run_suite("formulas", 2)
    assert builds and len(builds) == len(set(builds))
    # One sweep per distinct key (shape, weight, frame origin, budget) over
    # the whole suite, and none only for a count.
    assert swept and len(swept) == len(set(swept))
    weighted = [key for key in asked if key[1] is not None]
    assert set(swept) == set(weighted)
    assert len(swept) < len(weighted)  # translates and repeats share sweeps
    # One plan per shape in a group, and none where no sweep is needed.
    plans = [shape for shapes in groups for shape in shapes]
    assert plans and all(len(shapes) == len(set(shapes)) for shapes in groups)
    assert set(plans) == {key[0] for key in swept}
    assert len(plans) <= len(swept)
    # The memo goes with run_suite: a second run sweeps every key again.
    assert verify._held == {} and lattice._memo.get() is None
    first = list(swept)
    swept.clear()
    assert run_suite("formulas", 2) == reports
    assert swept == first
    # So does a pooled run, whose parent drops its list and memo once the
    # workers start (without the spies, which a pool cannot pickle).
    monkeypatch.undo()
    assert run_suite("formulas", 2, jobs=2) == reports
    assert verify._held == {} and lattice._memo.get() is None


def test_a_suite_encodes_no_region_it_builds(monkeypatch):
    # Builders and kuo_remove hand their regions the codes they built, so
    # encode runs at most once per distinct region in a group: here never.
    groups, real_group = [], verify._run_group

    def run_group(*args, **kwargs):
        groups.append([])  # the triangles this group encodes
        return real_group(*args, **kwargs)

    monkeypatch.setattr(verify, "_run_group", run_group)
    for module in (lattice, enumeration):  # the latter in case it calls encode itself
        monkeypatch.setattr(module, "encode", lambda t: groups[-1].append(t), raising=False)
    for name in ("formulas", "kuo"):
        run_suite(name, 2)
    assert len(groups) > 50
    assert all(len(encoded) == len(set(encoded)) for encoded in groups)
    assert not any(groups)


def test_a_suite_checks_each_region_params_once(monkeypatch):
    # Every group, the family callables and the Kuo moves included, finds
    # the tuple's RegionParams made when the task list was.
    calls = []
    real = RegionParams.__new__
    monkeypatch.setattr(RegionParams, "__new__", lambda cls, *p: calls.append(p) or real(cls, *p))
    reports = run_suite("all", 4)
    assert len(calls) == len(set(calls))
    assert set(calls) >= {tuple(r.params) for r in reports if r.check_name == "q_recurrence"}


def test_a_wrong_prefactor_or_a_core_not_a_translate_fails_a_reduction(monkeypatch):
    steps = list(verify._KUO_MOVES)
    assert all(check_magnet_reduction(1, 1, 1, 1, 1, 1, s).status == PASS for s in steps)
    real_exponent, real_kuo = verify._reduction_exponent, verify.kuo_remove
    monkeypatch.setattr(verify, "_reduction_exponent", lambda p, step: real_exponent(p, step) + 1)
    assert all(check_magnet_reduction(1, 1, 1, 1, 1, 1, s).status == FAIL for s in steps)
    monkeypatch.setattr(verify, "_reduction_exponent", real_exponent)
    # Each step handed the part of the next: a region that strips to no
    # translate of the smaller bar.
    monkeypatch.setattr(verify, "kuo_remove", lambda r, m: real_kuo(r, m)[1:] + real_kuo(r, m)[:1])
    assert all(check_magnet_reduction(1, 1, 1, 1, 1, 1, s).status == FAIL for s in steps)


def test_no_memo_outlives_run_suite(monkeypatch):
    for jobs in (1, 2):
        first = [report_json(r) for r in run_suite("prop31", 1, jobs)]
        assert lattice._memo.get() is None
        assert verify._held == {}
        assert [report_json(r) for r in run_suite("prop31", 1, jobs)] == first
    with pytest.raises(ZeroDivisionError):
        with lattice.shared_work():
            build_q_region(RegionParams(1, 1, 1, 1, 0, 0, 0, 0))
            1 / 0
    assert lattice._memo.get() is None
    # A check that raises partway through leaves no task list behind either.
    real, checked = verify.check_prop31, []

    def check_until_third(p):
        checked.append(p)
        if len(checked) == 3:
            raise ZeroDivisionError(p)
        return real(p)

    monkeypatch.setattr(verify, "check_prop31", check_until_third)
    with pytest.raises(ZeroDivisionError):
        run_suite("prop31", 1)
    assert len(checked) == 3 < len(suite_tasks("prop31", 1))
    assert lattice._memo.get() is None
    assert verify._held == {}


@pytest.mark.parametrize("render", [None, report_line, report_json])
def test_a_worker_with_an_empty_holder_builds_the_task_list_once(monkeypatch, render):
    # What a spawn or forkserver worker sees: nothing inherited, so the
    # first group it runs builds the list, and every later one reads it.
    monkeypatch.setattr(verify, "_held", {})
    built = []
    monkeypatch.setattr(verify, "suite_tasks", lambda *args: built.append(args) or suite_tasks(*args))
    ran = [verify._run_group(0, "all", 1, render)]
    groups = verify._held["all", 1][1]
    ran += [verify._run_group(n, "all", 1, render) for n in range(1, len(groups))]
    assert built == [("all", 1)]
    placed = dict(zip(itertools.chain(*groups), itertools.chain(*ran)))
    results = [placed[i] for i in range(len(placed))]
    expected = run_suite("all", 1, 1, render)
    if render is None:
        results, expected = [report_json(r) for r in results], [report_json(r) for r in expected]
    assert results == expected


def test_the_suites_of_one_task_list_share_each_parameter_tuple():
    # qmain, formulas, recurrences and prop31 draw one list of 8-tuples.
    with lattice.shared_work():
        tasks = suite_tasks("all", 2)
    drawn = [t[3] for t in tasks if t[1] is check_formula_vs_enumeration and t[2] == "q_region"]
    assert len(drawn) == 4 * len(set(drawn))  # qmain's wt2, formulas' wt0-wt2
    assert len({id(ps) for ps in drawn}) == len(set(drawn))


def test_a_pooled_parent_holds_no_task_list_while_results_arrive(monkeypatch):
    held, real = [], verify._place

    def place(results, groups, done):
        held.append(set(verify._held))
        real(results, groups, done)

    monkeypatch.setattr(verify, "_place", place)
    pooled = [report_json(r) for r in run_suite("all", 1, jobs=2)]
    assert [report_json(r) for r in run_suite("all", 1, jobs=1)] == pooled
    assert held == [set(), {("all", 1)}]


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_a_pool_under_any_start_method_gives_the_same_lines(method):
    # Such a worker inherits no task list from the parent and builds its own.
    src = os.path.dirname(os.path.dirname(verify.__file__))
    script = (
        "import multiprocessing\n"
        "from qlozenge.verify import report_line, run_suite\n"
        "multiprocessing.set_start_method(%r)\n"
        "for _, line in run_suite('all', 1, jobs=2, render=report_line):\n"
        "    print(line)\n" % method
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [line for _, line in run_suite("all", 1, render=report_line)]


def test_a_repeated_task_is_checked_once(monkeypatch):
    # Every qmain task is also a formulas task in the same group.
    tasks = suite_tasks("all", 2)
    assert len(set(tasks)) == len(tasks) - len(suite_tasks("qmain", 2))
    real, calls = verify.check_formula_vs_enumeration, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verify, "check_formula_vs_enumeration", counted)
    reports = run_suite("all", 2)
    assert len(calls) == len(set(calls)) == sum(t[1] is counted for t in set(suite_tasks("all", 2)))
    assert len(reports) == len(tasks)


@pytest.mark.parametrize("slots", range(7))
def test_bounded_tuples_are_the_product_filtered(slots):
    for total in range(6):
        product = itertools.product(range(total + 1), repeat=slots)
        assert verify._bounded_tuples(slots, total) == [t for t in product if sum(t) <= total]


def _reference_plain(value):
    # Report params flattened to plain JSON values by recursion: the
    # reference the renderers' encoder hook is held to.
    if isinstance(value, W):
        return value.value
    if isinstance(value, (tuple, list, RegionParams)):
        return [_reference_plain(v) for v in value]
    return value


def test_rendered_bytes_match_the_reference_flattening(monkeypatch):
    reports = [task[1](*task[2:]) for task in suite_tasks("all", 2)]
    reports.append(check_magnet_recurrence(1, 1, 1, 0, 1, 1))
    p = RegionParams(0, 1, 1, 1, 0, 0, 0, 0)
    real = verify.g_exponent
    monkeypatch.setattr(verify, "g_exponent", lambda n: real(n) + (1 if n == p else 0))
    reports.append(check_q_recurrence(p))
    # The checks flatten RegionParams themselves; a caller's Report may not.
    reports.append(Report("q_recurrence", (p, W.WT2), PRECONDITION))
    assert {r.status for r in reports} == {PASS, FAIL, PRECONDITION}
    assert {RegionParams, W, tuple, str, int} <= {type(v) for r in reports for v in r.params}
    assert any(isinstance(r.params[1], tuple) and r.params[0] == "semihexagon" for r in reports)
    for r in reports:
        plain = _reference_plain(r.params)
        assert report_line(r) == "%s %s %s" % (r.status, r.check_name, json.dumps(plain))
        payload = {
            "check": r.check_name,
            "params": plain,
            "status": r.status,
            "lhs": None if r.lhs is None else str(r.lhs),
            "rhs": None if r.rhs is None else str(r.rhs),
            "witness": None if r.witness is None else str(r.witness),
        }
        assert report_json(r) == json.dumps(payload, sort_keys=True)


def test_suite_task_counts_frozen():
    counts = {name: len(suite_tasks(name, 5)) for name in suite_names()}
    assert counts == {
        "qmain": 1287,
        "formulas": 5268,
        "kuo": 22,
        "recurrences": 468,
        "prop31": 1287,
        "all": 8332,
    }


def test_a_task_list_builds_each_family_tuple_once(monkeypatch):
    # qmain, formulas, recurrences and prop31 all sweep the notched
    # eight-tuples, and the hexagon, K and bar tuples project onto them
    # (formulas and recurrences both sweep the bars).  Built in one
    # shared_work block, as run_suite builds it, a task list checks the
    # RegionParams of each task key once and no other.
    calls = []
    real = RegionParams.__new__
    monkeypatch.setattr(RegionParams, "__new__", lambda cls, *p: calls.append(p) or real(cls, *p))
    with lattice.shared_work():
        tasks = suite_tasks("all", 3)
    keys = {task[0] for task in tasks if isinstance(task[0], RegionParams)}
    assert len(keys) > math.comb(3 + 8, 8)  # every notched tuple, and the kuo suite's
    assert len(calls) == len(keys) and set(calls) == keys


def test_qmain_suite_small():
    reports = run_suite("qmain", max_sum=2)
    assert len(reports) == 45
    assert all(r.status == PASS for r in reports)
