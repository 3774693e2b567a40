"""Machine checks for the identities the rest of the package computes.

Every check evaluates both sides of one identity in exact polynomial
arithmetic and wraps the outcome in an immutable Report.  Pass means the
two polynomials agree coefficient by coefficient; nothing is sampled.
Parameter tuples outside a check's precondition come back with status
"Precondition" rather than Fail, so sweeps record skipped corners
without burying them.

run_suite builds a deterministic task list per suite name.  With jobs > 1
the tasks fan out over a process pool and return in list order, so the
emitted reports are identical however many workers ran them.
"""

from __future__ import annotations

import json
from dataclasses import astuple, dataclass, replace
from itertools import combinations
from math import comb
from multiprocessing import Pool
from typing import Iterator, Optional, Sequence

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
    build_magnet_bar,
    build_q_region,
    down,
    hexagon_params,
    magnet_bar_params,
    remove_forced,
    up,
)
from .qalgebra import QPoly, q_int
from .weights import (
    WeightAssignment,
    f_exponent,
    g_exponent,
    weight_from_name,
)

PASS = "Pass"
FAIL = "Fail"
PRECONDITION = "Precondition"


@dataclass(frozen=True)
class Report:
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
        return Report(name, params, PASS, lhs, rhs)
    diff = lhs.terms
    for e, c in rhs.terms.items():
        diff[e] = diff.get(e, 0) - c
    return Report(name, params, FAIL, lhs, rhs, QPoly(diff))


def _precondition(name: str, params: tuple) -> Report:
    return Report(name, params, PRECONDITION)


def _plain(value):
    if isinstance(value, WeightAssignment):
        return value.value
    if isinstance(value, RegionParams):
        value = astuple(value)
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    return value


def report_json(report: Report) -> str:
    """One-line JSON rendering, polynomials in their canonical text form."""
    payload = {
        "check": report.check_name,
        "params": _plain(report.params),
        "status": report.status,
        "lhs": None if report.lhs is None else str(report.lhs),
        "rhs": None if report.rhs is None else str(report.rhs),
        "witness": None if report.witness is None else str(report.witness),
    }
    return json.dumps(payload, sort_keys=True)


def report_line(report: Report) -> str:
    """Single plain-text line: status, check name, parameter tuple."""
    return "%s %s %s" % (
        report.status,
        report.check_name,
        json.dumps(_plain(report.params)),
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
    if w is WeightAssignment.WT0:
        whole = QPoly(count_tilings(region, max_states))
        removed, uv, ws, us, vw = (QPoly(count_tilings(r, max_states)) for r in parts)
    else:
        whole = gen_function(region, w, max_states).poly
        removed, uv, ws, us, vw = (gen_function(r, w, max_states).poly for r in parts)
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


def _moved(p: RegionParams, **steps: int) -> Optional[RegionParams]:
    """p with each named side moved by its step, or None once one is negative."""
    moved = {name: getattr(p, name) + step for name, step in steps.items()}
    return None if min(moved.values(), default=0) < 0 else replace(p, **moved)


def _weighted_or_zero(p: RegionParams, **steps: int) -> QPoly:
    n = _moved(p, **steps)
    return QPoly(0) if n is None else theorem_qmain(n).poly.shift(g_exponent(n))


def _wt2_recurrence(name: str, params: tuple, p: RegionParams) -> Report:
    """Three-term product recurrence for the region's wt2 value, with each
    factor taken from the closed formula (prefactor included).

    A side parameter driven to -1 contributes an empty factor, so that
    term drops out; this is how z = 0 tuples stay inside the sweep.
    """
    if p.y < 1 or p.t < 1:
        return _precondition(name, params)
    lhs = _weighted_or_zero(p) * _weighted_or_zero(p, y=-1, t=-1)
    rhs = _weighted_or_zero(p, y=-1) * _weighted_or_zero(p, t=-1) + (
        _weighted_or_zero(p, y=-1, z=1, t=-1) * _weighted_or_zero(p, z=-1)
    ).shift(p.z + p.t + p.m + p.a + p.b + p.c)
    return _verdict(name, params, lhs, rhs)


def check_magnet_recurrence(m: int, a: int, x: int, y: int, z: int, t: int) -> Report:
    """The wt2 recurrence on the bar region (b = c = 0)."""
    return _wt2_recurrence(
        "magnet_recurrence", (m, a, x, y, z, t), magnet_bar_params(m, a, x, y, z, t)
    )


def check_q_recurrence(p: RegionParams) -> Report:
    """The wt2 recurrence on the full notched region."""
    return _wt2_recurrence("q_recurrence", astuple(p), p)


def check_psi_recurrence(p: RegionParams) -> Report:
    """Two-fraction telescoping identity for the closed-form ratio.

    Cross-multiplied so both sides are polynomials, the second product
    picks up q^A with A = m+a+b+c+x+y+t-1.  The scalar identity
    [A] + q^A*[z] = [A+z] is re-checked on its own; Pass needs both.
    """
    params = astuple(p)
    if p.y < 1 or p.t < 1 or p.z < 1:
        return _precondition("psi_recurrence", params)
    big_a = p.m + p.a + p.b + p.c + p.x + p.y + p.t - 1

    def phi(**steps: int) -> QPoly:
        return theorem_qmain(_moved(p, **steps)).poly

    lhs = phi(y=-1) * phi(t=-1) + (phi(z=-1) * phi(y=-1, z=1, t=-1)).shift(big_a)
    rhs = phi() * phi(y=-1, t=-1)
    report = _verdict("psi_recurrence", params, lhs, rhs)
    scalar = check_q_int_addition(big_a, p.z)
    if report.status is PASS and scalar.status is not PASS:
        return Report("psi_recurrence", params, FAIL, lhs, rhs, scalar.witness)
    return report


def check_prop31(
    p: RegionParams, max_triangles: int = DEFAULT_TRIANGLE_BUDGET
) -> Report:
    """Both distance weights against the volume sum, by full enumeration.

    The wt1 comparison runs first and is reported if it fails; otherwise
    the report carries the wt2 comparison.
    """
    region = build_q_region(p)
    vol = gen_function_oracle(region, WeightAssignment.WT0, max_triangles).poly
    params = astuple(p)
    first = _verdict(
        "prop31",
        params,
        gen_function(region, WeightAssignment.WT1).poly,
        vol.shift(f_exponent(p)),
    )
    if first.status is not PASS:
        return first
    return _verdict(
        "prop31",
        params,
        gen_function(region, WeightAssignment.WT2).poly,
        vol.shift(g_exponent(p)),
    )


def check_formula_vs_enumeration(
    builder_id: str,
    params: "RegionParams | Sequence",
    w: WeightAssignment,
    max_states: Optional[int] = None,
) -> Report:
    """Closed formula against the frontier sweep for one builder/weight pair."""
    ps = astuple(params) if isinstance(params, RegionParams) else tuple(params)
    family = FAMILIES.get(builder_id)
    if family is None:
        raise ValueError("unknown builder %r" % (builder_id,))
    if w.value not in family.formulas:
        raise ValueError("no closed formula for %r under %s" % (builder_id, w.value))
    formula = family.formulas[w.value](*ps).poly
    swept = gen_function(family.build(*ps), w, max_states).poly
    return _verdict("formula_vs_enumeration", (builder_id, ps, w), swept, formula)


_REDUCTION_STEPS = ("uvws", "uv", "ws", "us", "vw")


def _reduction_targets(m, a, x, y, z, t):
    hh = z + t + m + a
    return {
        "uvws": ((x, y - 1, z, t - 1), comb(z + m + 1, 2) + (x + y + m - 2) * hh),
        "uv": ((x, y - 1, z, t), comb(z + m + 1, 2)),
        "ws": ((x, y, z, t - 1), (x + y + m - 2) * hh),
        "us": ((x, y - 1, z + 1, t - 1), comb(z + m + 1, 2)),
        "vw": ((x, y, z - 1, t), (x + y + m - 1) * hh),
    }


def check_magnet_reduction(
    m: int, a: int, x: int, y: int, z: int, t: int, step: str
) -> Report:
    """One of the five mark-deletion identities on a magnet bar.

    Deleting the marked triangles and then stripping forced lozenges
    leaves a translate of a smaller bar, so the comparison is between
    wt2 generating functions: the stripped core shifted by the exponent
    remove_forced accumulated, against the smaller bar built from
    scratch shifted by the predicted prefactor.
    """
    targets = _reduction_targets(m, a, x, y, z, t)
    if step not in targets:
        raise ValueError("unknown reduction step %r" % (step,))
    params = (m, a, x, y, z, t, step)
    (bx, by, bz, bt), exponent = targets[step]
    if y < 1 or t < 1 or x + y + m < 2 or t + a < 2 or min(bx, by, bz, bt) < 0:
        return _precondition("magnet_reduction", params)
    region = build_magnet_bar(m, a, x, y, z, t)
    marks = four_point_marks(magnet_bar_params(m, a, x, y, z, t))
    part = dict(zip(_REDUCTION_STEPS, kuo_remove(region, marks)))[step]
    core, stripped = remove_forced(part, WeightAssignment.WT2)
    lhs = gen_function(core, WeightAssignment.WT2).poly.shift(stripped)
    rhs = gen_function(
        build_magnet_bar(m, a, bx, by, bz, bt), WeightAssignment.WT2
    ).poly.shift(exponent)
    return _verdict("magnet_reduction", params, lhs, rhs)


# ---------------------------------------------------------------------------
# suites


def _bounded_tuples(slots: int, total: int) -> Iterator[tuple[int, ...]]:
    """Nonnegative integer tuples of the given length with sum <= total,
    in lexicographic order."""
    if slots == 0:
        yield ()
        return
    for head in range(total + 1):
        for rest in _bounded_tuples(slots - 1, total - head):
            yield (head,) + rest


def _run_task(task: tuple) -> Report:
    kind = task[0]
    if kind == "formula":
        _, builder_id, ps, wname = task
        return check_formula_vs_enumeration(builder_id, ps, weight_from_name(wname))
    if kind == "kuo":
        _, builder_id, ps, mark_rows, wname = task
        region = FAMILIES[builder_id].build(*ps)
        marks = [Triangle(r, p, o) for r, p, o in mark_rows]
        return check_kuo(region, marks, weight_from_name(wname))
    if kind == "magnet_recurrence":
        return check_magnet_recurrence(*task[1])
    if kind == "q_recurrence":
        return check_q_recurrence(RegionParams(*task[1]))
    if kind == "psi_recurrence":
        return check_psi_recurrence(RegionParams(*task[1]))
    if kind == "prop31":
        return check_prop31(RegionParams(*task[1]))
    if kind == "reduction":
        m, a, x, y, z, t = task[1]
        return check_magnet_reduction(m, a, x, y, z, t, task[2])
    if kind == "scalar":
        return check_q_int_addition(*task[1])
    raise ValueError("unknown task kind %r" % (kind,))


def _suite_qmain(max_sum: int) -> list[tuple]:
    return [
        ("formula", "q_region", ps, "wt2") for ps in _bounded_tuples(8, max_sum)
    ]


def _suite_formulas(max_sum: int) -> list[tuple]:
    tasks: list[tuple] = []
    for trip in _bounded_tuples(3, max_sum):
        for wname in ("wt0", "wt1", "wt2"):
            tasks.append(("formula", "hexagon", trip, wname))
    cap = min(max_sum, 6)
    for a in range(cap + 1):
        for b in range(cap - a + 1):
            for dents in combinations(range(1, a + b + 1), a):
                tasks.append(("formula", "semihexagon", (a, b, dents), "wt2"))
    for ps in _bounded_tuples(5, max_sum):
        tasks.append(("formula", "k_region", ps, "wt2"))
    for ps in _bounded_tuples(6, max_sum):
        tasks.append(("formula", "magnet_bar", ps, "wt2"))
        tasks.append(("formula", "magnet_bar", ps, "wt3"))
    for ps in _bounded_tuples(8, max_sum):
        for wname in ("wt0", "wt1", "wt2"):
            tasks.append(("formula", "q_region", ps, wname))
    return tasks


def _mark_rows(marks: list[Triangle]) -> tuple:
    return tuple((t.row, t.pos, t.orient) for t in marks)


def _suite_kuo(max_sum: int) -> list[tuple]:
    """Fixed placement library; max_sum is ignored because nothing sweeps."""
    tasks: list[tuple] = []
    unit_marks = ((0, 0, "U"), (0, 0, "D"), (1, 0, "U"), (1, -1, "D"))
    for wname in ("wt0", "wt1", "wt2", "wt3"):
        tasks.append(("kuo", "hexagon", (1, 1, 1), unit_marks, wname))
    for (a, b, c), wname in (
        ((2, 2, 2), "wt0"),
        ((2, 2, 2), "wt2"),
        ((1, 2, 2), "wt2"),
        ((2, 3, 2), "wt1"),
        ((3, 2, 2), "wt3"),
        ((2, 2, 3), "wt2"),
    ):
        marks = four_point_marks(hexagon_params(a, b, c))
        tasks.append(("kuo", "hexagon", (a, b, c), _mark_rows(marks), wname))
    for (m, a, x, y, z, t), wname in (
        ((1, 1, 1, 1, 1, 1), "wt2"),
        ((1, 1, 1, 1, 1, 1), "wt3"),
        ((1, 2, 2, 1, 1, 1), "wt2"),
        ((1, 2, 2, 1, 1, 1), "wt3"),
        ((2, 1, 1, 1, 1, 2), "wt2"),
        ((0, 1, 2, 1, 1, 1), "wt2"),
        ((1, 0, 1, 2, 1, 1), "wt3"),
        ((1, 1, 2, 1, 0, 1), "wt2"),
    ):
        marks = four_point_marks(magnet_bar_params(m, a, x, y, z, t))
        tasks.append(("kuo", "magnet_bar", (m, a, x, y, z, t), _mark_rows(marks), wname))
    for ps, wname in (
        ((1, 1, 1, 1, 1, 1, 1, 1), "wt1"),
        ((1, 1, 1, 1, 1, 1, 1, 1), "wt2"),
        ((2, 1, 1, 2, 1, 1, 1, 1), "wt1"),
        ((2, 1, 1, 2, 1, 1, 1, 1), "wt2"),
    ):
        marks = four_point_marks(RegionParams(*ps))
        tasks.append(("kuo", "q_region", ps, _mark_rows(marks), wname))
    return tasks


def _suite_recurrences(max_sum: int) -> list[tuple]:
    tasks: list[tuple] = []
    for ps in _bounded_tuples(6, max_sum):
        if ps[3] >= 1 and ps[5] >= 1:
            tasks.append(("magnet_recurrence", ps))
    for ps in _bounded_tuples(8, max_sum):
        x, y, z, t = ps[:4]
        if y >= 1 and t >= 1:
            tasks.append(("q_recurrence", ps))
            if z >= 1:
                tasks.append(("psi_recurrence", ps))
    for ps in _bounded_tuples(6, max_sum):
        m, a, x, y, z, t = ps
        if y < 1 or t < 1 or x + y + m < 2 or t + a < 2:
            continue
        targets = _reduction_targets(m, a, x, y, z, t)
        for step in _REDUCTION_STEPS:
            if min(targets[step][0]) >= 0:
                tasks.append(("reduction", ps, step))
    for a_val in range(max_sum + 1):
        for z_val in range(max_sum + 1):
            tasks.append(("scalar", (a_val, z_val)))
    return tasks


def _suite_prop31(max_sum: int) -> list[tuple]:
    tasks: list[tuple] = []
    for ps in _bounded_tuples(8, max_sum):
        region = build_q_region(RegionParams(*ps))
        if len(region.triangles) <= DEFAULT_TRIANGLE_BUDGET:
            tasks.append(("prop31", ps))
    return tasks


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
    if name == "all":
        return [t for key in _SUITES for t in _SUITES[key](max_sum)]
    if name not in _SUITES:
        raise ValueError(
            "unknown suite %r; choose from %s" % (name, ", ".join(suite_names()))
        )
    return _SUITES[name](max_sum)


def run_suite(name: str, max_sum: int = 4, jobs: int = 1) -> list[Report]:
    """Run one suite; reports come back in task order regardless of jobs."""
    tasks = suite_tasks(name, max_sum)
    if jobs > 1:
        with Pool(jobs) as pool:
            return pool.map(_run_task, tasks)
    return [_run_task(t) for t in tasks]
