"""Machine checks for the identities the rest of the package computes.

Every check evaluates both sides of one identity in exact polynomial
arithmetic and wraps the outcome in an immutable Report.  Pass means the
two polynomials agree coefficient by coefficient; nothing is sampled.
Parameter tuples outside a check's precondition come back with status
"Precondition" rather than Fail, so sweeps record skipped corners
without burying them.

Each check's precondition is one private predicate, which the check
calls and the suites filter on, so a suite never emits a Precondition line.

run_suite builds a deterministic task list per suite name.  A task is
(key, check, *args): the region the task reads, then a check call, its
arguments already typed and hashable (RegionParams, Region, a tuple of
Triangle marks, WeightAssignment).  The key is a semihexagon's
(a, b, dents), None for q_int_addition, and the RegionParams for every
other task.  Tasks with equal keys form one group, a None task a group of
its own, and each group runs inside one lattice.shared_work block: the
region is built, split by kuo_remove, counted and swept under each weight
once, and its Kuo products multiplied once, however many checks ask; a
repeated task (each qmain task is a formulas task too) is checked once.
Only the engine's sweeps, the RegionParams and the suites' parameter
tuples outlive a group: the task list and every group of one run_suite
call share one lasting memo, so in a suite run a shape is swept once per
weight and frame origin, and a tuple's RegionParams is checked once.  One
table, _KUO_MOVES, gives Kuo's five removals as moves of the sides, for
the recurrences and reductions alike.  Groups run here or, with jobs > 1,
one per pool item, which gets only the group's number; each group's
results (Reports, or with the CLI's renderer (passed, line) pairs) fill
their tasks' slots as they arrive, so the output is the same at any jobs.
run_suite drops the list and memo when it returns, or once the pool's
workers start: a forked worker keeps its copy for the pool's life, and a
spawn or forkserver one, or one the pool starts later, builds its own.
"""

from __future__ import annotations

import json
from functools import partial
from itertools import combinations
from math import comb
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .enumeration import (
    DEFAULT_TRIANGLE_BUDGET,
    count_tilings,
    gen_function,
    gen_function_oracle,
    kuo_remove,
    region_digest,
)
from .formulas import FAMILIES, theorem_qmain
from .lattice import (
    Region,
    RegionParams,
    Triangle,
    build_q_region,
    down,
    hexagon_params,
    k_region_params,
    magnet_bar_params,
    q_region_triangle_count,
    region_params,
    shared,
    shared_work,
    up,
)
from .qalgebra import QPoly, q_int
from .weights import WeightAssignment, f_exponent, g_exponent

PASS = "Pass"
FAIL = "Fail"
PRECONDITION = "Precondition"


class Report(NamedTuple):
    """Outcome of one identity check.

    For Pass and Fail, status is Pass exactly when lhs == rhs; a failing
    report carries the difference lhs - rhs as its witness.  Precondition
    reports leave all three polynomial fields as None.
    """

    check_name: str
    params: tuple
    status: str
    lhs: Optional[QPoly] = None
    rhs: Optional[QPoly] = None
    witness: Optional[QPoly] = None


def _verdict(name: str, params: tuple, lhs: QPoly, rhs: QPoly) -> Report:
    if lhs == rhs:
        # One object for both sides, which a pool then pickles once.
        return Report(name, params, PASS, lhs, lhs)
    return Report(name, params, FAIL, lhs, rhs, lhs - rhs)


def _precondition(name: str, params: tuple) -> Report:
    return Report(name, params, PRECONDITION)


def _json_value(value: WeightAssignment) -> str:
    """json's hook for Report params, which hold no other non-JSON type."""
    return value.value


# json.dumps's separators, through the C encoder.
_encode_params = json.JSONEncoder(default=_json_value).encode
_encode_report = json.JSONEncoder(sort_keys=True, default=_json_value).encode


# A module-level Report -> str function (report_line or report_json), so a
# pool pickles it by reference.
Render = Optional[Callable[[Report], str]]


def report_json(report: Report) -> str:
    """One-line JSON rendering, polynomials in their canonical text form."""
    payload = {
        "check": report.check_name,
        "params": report.params,
        "status": report.status,
        "lhs": None if report.lhs is None else str(report.lhs),
        "rhs": None if report.rhs is None else str(report.rhs),
        "witness": None if report.witness is None else str(report.witness),
    }
    return _encode_report(payload)


def report_line(report: Report) -> str:
    """Single plain-text line: status, check name, parameter tuple."""
    return "%s %s %s" % (
        report.status,
        report.check_name,
        _encode_params(report.params),
    )


# ---------------------------------------------------------------------------
# individual checks


def check_q_int_addition(a: int, z: int) -> Report:
    """[a] + q^a*[z] = [a+z], the scalar backbone of the telescoping step."""
    if a < 0 or z < 0:
        return _precondition("q_int_addition", (a, z))
    lhs = q_int(a) + q_int(z).shift(a)
    return _verdict("q_int_addition", (a, z), lhs, q_int(a + z))


def check_kuo(
    region: Region,
    marks: Sequence[Triangle],
    w: WeightAssignment,
    max_states: Optional[int] = None,
) -> Report:
    """Four-point product identity over the five mark-deleted subregions.

    For the per-lozenge assignments the six generating functions are
    compared as polynomials.  The volume assignment differs from wt2 by
    one region-wide shift which cancels across the identity, so wt0 is
    checked through plain tiling counts instead (the derived subregions
    carry no parameter tag of their own).
    """
    parts = kuo_remove(region, list(marks))
    mark_key = tuple((t.row, t.pos, t.orient) for t in marks)
    params = (region_digest(region)[:12], mark_key, w)

    def value(r: Region) -> QPoly:
        if w is WeightAssignment.WT0:
            return QPoly(count_tilings(r, max_states))
        return gen_function(r, w, max_states)

    whole, removed, uv, ws, us, vw = map(value, [region, *parts])
    return _verdict("kuo", params, whole * removed, uv * ws + us * vw)


def four_point_marks(p: RegionParams) -> list[Triangle]:
    """Mark placement used by the removal identities on a parameter-tagged
    region: an up/down pair at each end of the top row plus one up triangle
    where the northeast side meets the east corner column."""
    width = p.x + p.y + p.a + p.b + p.c
    height = p.z + p.a + p.b + p.c + p.t + p.m
    return [
        up(p.z + p.m, width - 1),
        down(height - 1, p.x + p.y - p.t - 1),
        up(height - 1, p.x + p.y - p.t - 1),
        down(height - 1, -(p.t + p.m)),
    ]


# Kuo's five mark removals, in kuo_remove's order, each as the moves of the
# region's sides that give the smaller region the removal leaves.
_KUO_MOVES = {
    "uvws": {"y": -1, "t": -1},
    "uv": {"y": -1},
    "ws": {"t": -1},
    "us": {"y": -1, "z": 1, "t": -1},
    "vw": {"z": -1},
}


def _moved(p: RegionParams, **steps: int) -> Optional[RegionParams]:
    """p with each named side moved by its step, or None once one is negative."""
    moved = [v + steps.get(name, 0) for name, v in zip(RegionParams._fields, p)]
    return None if min(moved) < 0 else region_params(*moved)


def _kuo_products(p: RegionParams) -> list[tuple[QPoly, int]]:
    """Kuo's products whole*uvws, uv*ws, us*vw of theorem_qmain at p and its five
    moves (0 where a side goes negative), each with its factors' g_exponent sum."""

    def compute() -> list[tuple[QPoly, int]]:
        whole, uvws, uv, ws, us, vw = [
            (QPoly(0), 0) if n is None else (theorem_qmain(n).poly, g_exponent(n))
            for n in (_moved(p, **steps) for steps in ({}, *_KUO_MOVES.values()))
        ]
        return [(f * h, gf + gh) for (f, gf), (h, gh) in ((whole, uvws), (uv, ws), (us, vw))]

    return shared(("kuo_products", p), compute)


def _recurrence_applies(p: RegionParams) -> bool:
    return p.y >= 1 and p.t >= 1


def _psi_applies(p: RegionParams) -> bool:
    return _recurrence_applies(p) and p.z >= 1


def _wt2_recurrence(name: str, params: tuple, p: RegionParams) -> Report:
    """Kuo's three-term product recurrence for the region's wt2 value, each
    factor taken from the closed formula times q^g_exponent."""
    if not _recurrence_applies(p):
        return _precondition(name, params)
    (whole_uvws, g1), (uv_ws, g2), (us_vw, g3) = _kuo_products(p)
    rhs = uv_ws.shift(g2) + us_vw.shift(g3 + p.z + p.t + p.m + p.a + p.b + p.c)
    return _verdict(name, params, whole_uvws.shift(g1), rhs)


def check_magnet_recurrence(m: int, a: int, x: int, y: int, z: int, t: int) -> Report:
    """The wt2 recurrence on the bar region (b = c = 0)."""
    return _wt2_recurrence(
        "magnet_recurrence", (m, a, x, y, z, t), magnet_bar_params(m, a, x, y, z, t)
    )


def check_q_recurrence(p: RegionParams) -> Report:
    """The wt2 recurrence on the full notched region."""
    return _wt2_recurrence("q_recurrence", tuple(p), p)


def check_psi_recurrence(p: RegionParams) -> Report:
    """Two-fraction telescoping identity for the closed-form ratio.

    Cross-multiplied so both sides are polynomials, the second product
    picks up q^A with A = m+a+b+c+x+y+t-1.  The scalar identity
    [A] + q^A*[z] = [A+z] is re-checked on its own; Pass needs both.
    """
    params = tuple(p)
    if not _psi_applies(p):
        return _precondition("psi_recurrence", params)
    big_a = p.m + p.a + p.b + p.c + p.x + p.y + p.t - 1
    (whole_uvws, _), (uv_ws, _), (us_vw, _) = _kuo_products(p)
    lhs = uv_ws + us_vw.shift(big_a)
    report = _verdict("psi_recurrence", params, lhs, whole_uvws)
    scalar = check_q_int_addition(big_a, p.z)
    if report.status is PASS and scalar.status is not PASS:
        return Report("psi_recurrence", params, FAIL, lhs, whole_uvws, scalar.witness)
    return report


def check_prop31(p: RegionParams) -> Report:
    """Both distance weights against the volume sum, by full enumeration.

    The wt1 comparison runs first and is reported if it fails; otherwise
    the report carries the wt2 comparison.
    """
    region = build_q_region(p)
    vol = gen_function_oracle(region, WeightAssignment.WT0)
    for w, offset in ((WeightAssignment.WT1, f_exponent), (WeightAssignment.WT2, g_exponent)):
        swept = gen_function(region, w)
        report = _verdict("prop31", tuple(p), swept, vol.shift(offset(p)))
        if report.status is not PASS:
            break
    return report


def check_formula_vs_enumeration(
    builder_id: str, params: "RegionParams | Sequence", w: WeightAssignment
) -> Report:
    """Closed formula against the frontier sweep for one builder/weight pair."""
    ps = tuple(params)
    family = FAMILIES.get(builder_id)
    if family is None:
        raise ValueError("unknown builder %r" % (builder_id,))
    if w.value not in family.formulas:
        raise ValueError("no closed formula for %r under %s" % (builder_id, w.value))
    formula = family.formulas[w.value](*ps).poly
    swept = gen_function(family.build(*ps), w)
    return _verdict("formula_vs_enumeration", (builder_id, ps, w), swept, formula)


def _reduction_exponent(p: RegionParams, step: str) -> int:
    """The exponent of the smaller bar's predicted prefactor."""
    hh = p.z + p.t + p.m + p.a
    near, far = comb(p.z + p.m + 1, 2), (p.x + p.y + p.m - 2) * hh
    vw = (p.x + p.y + p.m - 1) * hh
    return {"uvws": near + far, "uv": near, "ws": far, "us": near, "vw": vw}[step]


def _reduction_applies(p: RegionParams, step: str) -> bool:
    return (
        _recurrence_applies(p)
        and p.x + p.y + p.m >= 2
        and p.t + p.a >= 2
        and all(getattr(p, side) + move >= 0 for side, move in _KUO_MOVES[step].items())
    )


def check_magnet_reduction(
    m: int, a: int, x: int, y: int, z: int, t: int, step: str
) -> Report:
    """One of the five mark-deletion identities on a magnet bar.

    Deleting the marked triangles and then stripping forced lozenges
    leaves a translate of a smaller bar, so the comparison is between
    wt2 generating functions: the mark-deleted bar's (the engine strips
    its forced lozenges and adds their exponents), against the smaller
    bar built from scratch shifted by the predicted prefactor.  Inside
    shared_work the bar is built and split once for all five steps.
    """
    if step not in _KUO_MOVES:
        raise ValueError("unknown reduction step %r" % (step,))
    params = (m, a, x, y, z, t, step)
    p = magnet_bar_params(m, a, x, y, z, t)
    if not _reduction_applies(p, step):
        return _precondition("magnet_reduction", params)
    parts = shared(("kuo", p), lambda: kuo_remove(build_q_region(p), four_point_marks(p)))
    lhs = gen_function(dict(zip(_KUO_MOVES, parts))[step], WeightAssignment.WT2)
    smaller = build_q_region(_moved(p, **_KUO_MOVES[step]))
    rhs = gen_function(smaller, WeightAssignment.WT2)
    return _verdict("magnet_reduction", params, lhs, rhs.shift(_reduction_exponent(p, step)))


# ---------------------------------------------------------------------------
# suites


def _bounded_tuples(slots: int, total: int) -> list[tuple[int, ...]]:
    """All tuples of `slots` nonnegative ints summing to <= total, in
    lexicographic order; one list, in the lasting memo, for a whole suite."""

    def compute() -> list:
        tuples: list[tuple[int, ...]] = [()]
        for _ in range(slots):
            tuples = [t + (h,) for t in tuples for h in range(total - sum(t) + 1)]
        return tuples

    return shared(("tuples", slots, total), compute, lasting=True)


def _formula_tasks(
    builder_id: str, project: Callable, slots: int, max_sum: int, weights: Sequence[WeightAssignment]
) -> list[tuple]:
    """Formula checks of one family over its bounded argument tuples, each
    keyed by the RegionParams its arguments project to."""
    check, tuples = check_formula_vs_enumeration, _bounded_tuples(slots, max_sum)
    return [(p, check, builder_id, ps, w) for ps in tuples for p in [project(*ps)] for w in weights]


def _suite_qmain(max_sum: int) -> list[tuple]:
    return _formula_tasks("q_region", region_params, 8, max_sum, (WeightAssignment.WT2,))


def _suite_formulas(max_sum: int) -> list[tuple]:
    W = WeightAssignment
    tasks = _formula_tasks("hexagon", hexagon_params, 3, max_sum, (W.WT0, W.WT1, W.WT2))
    cap = min(max_sum, 6)
    for a in range(cap + 1):
        for b in range(cap - a + 1):
            for dents in combinations(range(1, a + b + 1), a):
                args = (a, b, dents)
                tasks.append((args, check_formula_vs_enumeration, "semihexagon", args, W.WT2))
    tasks += _formula_tasks("k_region", k_region_params, 5, max_sum, (W.WT2,))
    tasks += _formula_tasks("magnet_bar", magnet_bar_params, 6, max_sum, (W.WT2, W.WT3))
    tasks += _formula_tasks("q_region", region_params, 8, max_sum, (W.WT0, W.WT1, W.WT2))
    return tasks


def _suite_kuo(max_sum: int) -> list[tuple]:
    """Fixed placement library; max_sum is ignored because nothing sweeps."""
    W = WeightAssignment
    unit = hexagon_params(1, 1, 1)
    unit_region = build_q_region(unit)
    unit_marks = (up(0, 0), down(0, 0), up(1, 0), down(1, -1))
    tasks = [(unit, check_kuo, unit_region, unit_marks, w) for w in W]
    bar = magnet_bar_params
    for p, weights in (
        (hexagon_params(2, 2, 2), (W.WT0, W.WT2)),
        (hexagon_params(1, 2, 2), (W.WT2,)),
        (hexagon_params(2, 3, 2), (W.WT1,)),
        (hexagon_params(3, 2, 2), (W.WT3,)),
        (hexagon_params(2, 2, 3), (W.WT2,)),
        (bar(1, 1, 1, 1, 1, 1), (W.WT2, W.WT3)),
        (bar(1, 2, 2, 1, 1, 1), (W.WT2, W.WT3)),
        (bar(2, 1, 1, 1, 1, 2), (W.WT2,)),
        (bar(0, 1, 2, 1, 1, 1), (W.WT2,)),
        (bar(1, 0, 1, 2, 1, 1), (W.WT3,)),
        (bar(1, 1, 2, 1, 0, 1), (W.WT2,)),
        (RegionParams(1, 1, 1, 1, 1, 1, 1, 1), (W.WT1, W.WT2)),
        (RegionParams(2, 1, 1, 2, 1, 1, 1, 1), (W.WT1, W.WT2)),
    ):
        region, marks = build_q_region(p), tuple(four_point_marks(p))
        tasks += [(p, check_kuo, region, marks, w) for w in weights]
    return tasks


def _suite_recurrences(max_sum: int) -> list[tuple]:
    bars = [(ps, magnet_bar_params(*ps)) for ps in _bounded_tuples(6, max_sum)]
    tasks = [(p, check_magnet_recurrence, *ps) for ps, p in bars if _recurrence_applies(p)]
    for ps in _bounded_tuples(8, max_sum):
        p = region_params(*ps)
        if _recurrence_applies(p):
            tasks.append((p, check_q_recurrence, p))
        if _psi_applies(p):
            tasks.append((p, check_psi_recurrence, p))
    tasks += [
        (p, check_magnet_reduction, *ps, step)
        for ps, p in bars
        for step in _KUO_MOVES
        if _reduction_applies(p, step)
    ]
    tasks += [
        (None, check_q_int_addition, a, z)
        for a in range(max_sum + 1)
        for z in range(max_sum + 1)
    ]
    return tasks


def _suite_prop31(max_sum: int) -> list[tuple]:
    return [
        (p, check_prop31, p)
        for p in (region_params(*ps) for ps in _bounded_tuples(8, max_sum))
        if q_region_triangle_count(p) <= DEFAULT_TRIANGLE_BUDGET
    ]


_SUITES = {
    "qmain": _suite_qmain,
    "formulas": _suite_formulas,
    "kuo": _suite_kuo,
    "recurrences": _suite_recurrences,
    "prop31": _suite_prop31,
}


def suite_names() -> list[str]:
    return [*_SUITES, "all"]


def suite_tasks(name: str, max_sum: int = 4) -> list[tuple]:
    if name != "all" and name not in _SUITES:
        raise ValueError(
            "unknown suite %r; choose from %s" % (name, ", ".join(suite_names()))
        )
    names = _SUITES if name == "all" else [name]
    return [t for key in names for t in _SUITES[key](max_sum)]


# The tasks and groups of each suite run_suite is running, by (name, max_sum),
# and the engine's lasting memo for its groups.
_held: dict = {}


def _suite_groups(name: str, max_sum: int) -> tuple[list[tuple], list[Sequence[int]], dict]:
    """The suite's tasks, each group's task indices (int arrays), and the
    memo every group hands the engine's sweeps."""
    held = _held.get((name, max_sum))
    if held is None:
        from array import array  # here, off the import path of the other commands

        with shared_work(lasting := {}):  # where every group finds each tuple's RegionParams
            tasks, groups = suite_tasks(name, max_sum), {}
        for i, task in enumerate(tasks):
            groups.setdefault(i if task[0] is None else task[0], array("l")).append(i)
        held = _held[name, max_sum] = (tasks, list(groups.values()), lasting)
    return held


def _run_group(number: int, name: str, max_sum: int, render: Render = None) -> list:
    tasks, groups, swept = _suite_groups(name, max_sum)
    batch = [tasks[i] for i in groups[number]]
    with shared_work(swept):
        done = {task: task[1](*task[2:]) for task in dict.fromkeys(batch)}
    out = {t: (r.status == PASS, render(r)) for t, r in done.items()} if render else done
    return [out[task] for task in batch]


def _place(results: list, groups: list, done: Iterable) -> None:
    """Put each group's results, as they arrive, in their tasks' slots."""
    for indices, out in zip(groups, done):
        for i, result in zip(indices, out):
            results[i] = result


def run_suite(name: str, max_sum: int = 4, jobs: int = 1, render: Render = None) -> list:
    """Run one suite a group at a time (see the module docstring), each
    distinct task of a group once.  The pool gets group numbers, and this
    process drops its task list once the workers start.  Back come, in task
    order at any jobs, Reports, or with render the pairs (status is Pass,
    render(report)), made in the workers."""
    try:
        tasks, groups, _ = _suite_groups(name, max_sum)
        results = [None] * len(tasks)
        run = partial(_run_group, name=name, max_sum=max_sum, render=render)
        if jobs > 1:
            # Imported here, as only a pooled run needs it: the import holds
            # about 1.1 MB of RSS that every other run would carry.
            from multiprocessing import Pool

            with Pool(jobs) as pool:
                del tasks, _held[name, max_sum]  # each worker has its own or builds it
                chunk = -(-len(groups) // (4 * jobs)) or 1  # as pool.map picks
                _place(results, groups, pool.imap(run, range(len(groups)), chunk))
        else:
            _place(results, groups, map(run, range(len(groups))))
        return results
    finally:
        _held.pop((name, max_sum), None)
