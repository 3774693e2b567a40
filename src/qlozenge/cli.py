"""Command line surface: evaluate formulas, count and enumerate tilings,
run identity suites, probe four-point removals, and render SVG pictures.

Output is deterministic byte for byte: collections are sorted before
emission and coordinates use a fixed decimal precision.  Exit codes:
0 success (and all Pass for verify/kuo), 1 a check failed, 2 usage error,
3 a budget was exceeded or memory ran out, 141 (128 + SIGPIPE) the reader
closed stdout early, as in `qlozenge tilings ... | head -1`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cache
from itertools import chain, islice
from typing import Optional, Sequence

from .enumeration import (
    DEFAULT_TRIANGLE_BUDGET,
    BadMarks,
    BudgetExceeded,
    count_tilings,
    gen_function,
    iter_tilings,
    region_digest,
    tiling_json,
)
from .formulas import FAMILIES, FORMULA_NAMES
from .lattice import (
    DOWN,
    LEFT,
    RIGHT,
    UP,
    VERTICAL,
    Lozenge,
    Region,
    Triangle,
    q_region_notch,
)
from .qalgebra import QPoly
from .verify import (
    PASS,
    check_kuo,
    four_point_marks,
    report_json,
    report_line,
    run_suite,
    suite_names,
)
from .weights import WeightAssignment

DEFAULT_MAX_STATES = 1 << 22
_WEIGHT_NAMES = [w.value for w in WeightAssignment]

# ---------------------------------------------------------------------------
# parameter plumbing


def _at_least(low: int):
    """argparse type: an integer no smaller than `low` (else exit 2)."""

    def bounded(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid int value: %r" % (text,))
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, value))
        return value

    return bounded


def _int_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(piece) for piece in text.split(",")]
    except ValueError:
        raise ValueError("expected comma-separated integers, got %r" % (text,))


def _family_params(name: str, args) -> tuple:
    """A family's parameters, from --params or from the flags named after
    them (--a, --b, --c, and --dents, which may be left out for no dents).
    A family with dents takes its flags only.  A region flag the family
    does not take, --params next to a side flag, or a negative side is an
    error, and a negative side is named as it was typed."""
    names = FAMILIES[name].params
    listed = ",".join(names)
    sides = [n for n in names if n != "dents"]
    by_flags = set(sides) <= {"a", "b", "c"}
    takes = (set(sides) if by_flags else set()) | {"dents" if "dents" in names else "params"}
    given = [f for f in ("a", "b", "c", "dents", "params") if getattr(args, f) is not None]
    for flag in given:
        if flag not in takes:
            raise ValueError("%s takes no --%s" % (name, flag))
    if args.params is not None:
        if len(given) > 1:
            raise ValueError("--params cannot be combined with --%s" % given[0])
        values = tuple(_int_list(args.params))
        if len(values) != len(names):
            raise ValueError(
                "expected %d values in --params %s, got %d" % (len(names), listed, len(values))
            )
    elif not by_flags:
        raise ValueError("%s needs --params %s" % (name, listed))
    elif any(getattr(args, n) is None for n in sides):
        flags = ["--" + n for n in sides]
        alternative = "" if "dents" in names else " (or --params %s)" % listed
        raise ValueError(
            "%s needs %s and %s%s" % (name, ", ".join(flags[:-1]), flags[-1], alternative)
        )
    else:
        values = tuple(getattr(args, n) for n in sides)
    for n, v in zip(sides, values):
        if v < 0:
            where = "--" + n if args.params is None else "%s in --params %s" % (n, listed)
            raise ValueError("%s must be a nonnegative integer, got %d" % (where, v))
    if "dents" in names:
        values += (tuple(_int_list(args.dents or "")),)
    return values


def _build_region(name: str, args) -> Region:
    return FAMILIES[name].build(*_family_params(name, args))


def _parse_marks(text: str) -> list[Triangle]:
    marks = []
    for piece in text.split(";"):
        bits = piece.split(",")
        if len(bits) != 3 or bits[2] not in (UP, DOWN):
            raise ValueError(
                "marks look like row,pos,U or row,pos,D joined by semicolons"
            )
        try:
            marks.append(Triangle(int(bits[0]), int(bits[1]), bits[2]))
        except ValueError:
            raise ValueError("bad mark %r" % (piece,))
    return marks


# ---------------------------------------------------------------------------
# SVG rendering

_ROOT3_HALF = math.sqrt(3.0) / 2.0
_BARE_STYLE = 'fill="#ffffff" stroke="#bbbbbb" stroke-width="0.03"'
_NOTCH_STYLE = 'fill="#b0b0b0" stroke="none"'
_LOZENGE_STYLE = {
    o: 'fill="%s" stroke="#444444" stroke-width="0.04"' % fill
    for o, fill in ((RIGHT, "#c8c8c8"), (LEFT, "#8f8f8f"), (VERTICAL, "#efefef"))
}


def _fmt(value: float) -> str:
    return "%.3f" % (value + 0.0)


def _xy(corner: tuple[int, int], sep: str) -> str:
    """A lattice point in drawing coordinates, x and y joined by sep: i runs
    along the base, j up at 60 degrees, and y grows downwards."""
    i, j = corner
    return _fmt(i + j / 2.0) + sep + _fmt(-j * _ROOT3_HALF)


def _triangle_corners(t: Triangle) -> list[tuple[int, int]]:
    r, p = t.row, t.pos
    if t.orient == UP:
        return [(p, r), (p + 1, r), (p, r + 1)]
    return [(p + 1, r), (p, r + 1), (p + 1, r + 1)]


def _lozenge_corners(loz: Lozenge) -> list[tuple[int, int]]:
    r, p = loz.first.row, loz.first.pos
    if loz.orientation == RIGHT:
        return [(p, r), (p + 1, r), (p + 1, r + 1), (p, r + 1)]
    if loz.orientation == LEFT:
        return [(p, r), (p + 1, r), (p, r + 1), (p - 1, r + 1)]
    return [(p + 1, r - 1), (p + 1, r), (p, r + 1), (p, r)]


def _boundary_segments(triangles):
    count: dict = {}
    for t in sorted(triangles):
        corners = _triangle_corners(t)
        for k in range(3):
            edge = tuple(sorted((corners[k], corners[(k + 1) % 3])))
            count[edge] = count.get(edge, 0) + 1
    return sorted(edge for edge, n in count.items() if n == 1)


def render_svg(region: Region, tiling: "Optional[frozenset[Lozenge]]" = None) -> str:
    """Static picture of a region, or of one of its tilings.

    With a tiling the three lozenge orientations get three fill shades;
    without one the unit triangles are drawn bare.  The region outline is
    stroked on top, and the notch is shaded and outlined whenever the
    region's recorded parameters describe one.
    """
    hole = set() if region.params is None else q_region_notch(region.params)
    if tiling is None:
        shapes = [(_triangle_corners(t), _BARE_STYLE) for t in sorted(region.triangles)]
    else:
        shapes = [(_lozenge_corners(z), _LOZENGE_STYLE[z.orientation]) for z in sorted(tiling)]
    shapes.extend((_triangle_corners(t), _NOTCH_STYLE) for t in sorted(hole))
    # A tiling's lozenges have the corners of the region's triangles, so the
    # shapes span the region and its notch either way.
    corners = [c for shape, _ in shapes for c in shape]
    xs = [i + j / 2.0 for i, j in corners] or [0.0, 1.0]
    ys = [-j * _ROOT3_HALF for _, j in corners] or [-1.0, 0.0]
    pad = 0.5
    min_x, min_y = min(xs) - pad, min(ys) - pad
    width, height = max(xs) + pad - min_x, max(ys) + pad - min_y
    box = " ".join(map(_fmt, (min_x, min_y, width, height)))
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="%s" width="%d" height="%d">'
        % (box, round(40 * width), round(40 * height))
    ]
    for shape, style in shapes:
        lines.append('<polygon points="%s" %s/>' % (" ".join(_xy(c, ",") for c in shape), style))
    for triangles in (region.triangles, hole):
        segments = _boundary_segments(triangles)
        if segments:
            path = " ".join("M %s L %s" % (_xy(a, " "), _xy(b, " ")) for a, b in segments)
            lines.append('<path d="%s" fill="none" stroke="#000000" stroke-width="0.08"/>' % path)
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _text(value: int | QPoly) -> str:
    """str(value), or a ValueError when an int in it is longer than the
    interpreter's int-to-text limit, which qlozenge leaves as it is."""
    try:
        return str(value)
    except ValueError:
        widest = abs(value) if isinstance(value, int) else max(map(abs, value.terms.values()))
        digits = (widest.bit_length() - 1) * 30102 // 100000 + 1  # no more: 0.30102 < log10(2)
        while widest >= 10**digits:
            digits += 1
        raise ValueError(
            "%s has %d decimal digits, more than the %d that Python converts to text "
            "(sys.get_int_max_str_digits()); qlozenge does not change that process-wide limit"
            % ("the count" if isinstance(value, int) else "a coefficient", digits,
               sys.get_int_max_str_digits())
        ) from None


def cmd_formula(args) -> int:
    family, weight = FORMULA_NAMES[args.name]
    ps = _family_params(family, args)
    value = FAMILIES[family].formulas[weight](*ps)
    if isinstance(value, int):
        text = _text(value)
        payload = {"count": value, "formula": args.name, "params": ps}
    else:
        text = _text(value.poly)
        payload = {
            "formula": args.name,
            "params": ps,
            "poly": text,
            "prefactor_exponent": value.prefactor_exponent,
        }
    print(json.dumps(payload, sort_keys=True) if args.json else text)
    return 0


def _print_region_value(args, region: Region, value, **fields) -> int:
    """value, or with --json one record of the builder, the region's digest
    and the given fields."""
    if args.json:
        record = {"builder": args.builder, "digest": region_digest(region), **fields}
        print(json.dumps(record, sort_keys=True))
    else:
        print(value)
    return 0


def cmd_count(args) -> int:
    region = _build_region(args.builder, args)
    value = count_tilings(region, args.max_states)
    return _print_region_value(args, region, value, count=value)


def cmd_genfun(args) -> int:
    region = _build_region(args.builder, args)
    text = str(gen_function(region, WeightAssignment(args.weight), args.max_states))
    return _print_region_value(args, region, text, poly=text, weight=args.weight)


def cmd_tilings(args) -> int:
    region = _build_region(args.builder, args)
    for tiling in iter_tilings(region, args.max_triangles):
        print(tiling_json(tiling))
    return 0


def cmd_verify(args) -> int:
    # More workers than the CPUs this process may run on only adds
    # processes and memory; the affinity mask is narrower under taskset.
    usable = getattr(os, "sched_getaffinity", None)
    cpus = len(usable(0)) if usable else os.cpu_count() or 1
    render = report_json if args.json else report_line
    results = run_suite(args.suite, args.max_sum, min(args.jobs, cpus), render=render)
    # A piece at a time, so no copy of a line or of the whole text is made.
    sys.stdout.writelines(chain.from_iterable((line, "\n") for _, line in results))
    return 0 if all(passed for passed, _ in results) else 1


def cmd_kuo(args) -> int:
    region = _build_region(args.builder, args)
    if args.marks is not None:
        marks = _parse_marks(args.marks)
    elif region.params is not None:
        marks = four_point_marks(region.params)
    else:
        raise ValueError("this builder records no parameters; pass --marks")
    try:
        report = check_kuo(region, marks, WeightAssignment(args.weight), args.max_states)
    except BadMarks as err:
        if args.marks is not None:
            raise
        raise BadMarks(
            "the canonical marks degenerate on this region (%s); pass --marks" % err
        ) from err
    print(report_json(report) if args.json else report_line(report))
    return 0 if report.status == PASS else 1


def cmd_render(args) -> int:
    region = _build_region(args.builder, args)
    tiling = None
    if args.tiling_index is not None:
        tilings = iter_tilings(region, args.max_triangles)
        tiling = next(islice(tilings, args.tiling_index, None), None)
        if tiling is None:
            raise ValueError("tiling index %d out of range" % args.tiling_index)
    document = render_svg(region, tiling)
    if args.svg is not None:
        try:
            with open(args.svg, "w", encoding="ascii") as handle:
                handle.write(document)
        except OSError as err:
            raise ValueError("cannot write %s: %s" % (args.svg, err.strerror or err)) from None
    else:
        sys.stdout.write(document)
    return 0


# ---------------------------------------------------------------------------
# parser


# Built once per process: a build costs about 25 times what parsing one argv
# does, and parsing leaves the parser as it was.
@cache
def build_parser() -> argparse.ArgumentParser:
    # Each flag several subcommands take is declared once, on a parent parser.
    builder = argparse.ArgumentParser(add_help=False)
    builder.add_argument("builder", choices=FAMILIES)
    region = argparse.ArgumentParser(add_help=False)
    region.add_argument("--a", type=int, help="first side parameter")
    region.add_argument("--b", type=int, help="second side parameter")
    region.add_argument("--c", type=int, help="third side parameter")
    region.add_argument(
        "--params", help="comma-separated parameters; arity depends on the builder/formula"
    )
    region.add_argument("--dents", help="comma-separated dent positions (semihexagon only)")
    weight = argparse.ArgumentParser(add_help=False)
    weight.add_argument("--weight", choices=_WEIGHT_NAMES, default="wt2")
    states = argparse.ArgumentParser(add_help=False)
    states.add_argument("--max-states", type=_at_least(0), default=DEFAULT_MAX_STATES)
    triangles = argparse.ArgumentParser(add_help=False)
    triangles.add_argument("--max-triangles", type=_at_least(0), default=DEFAULT_TRIANGLE_BUDGET)
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument("--json", action="store_true")

    parser = argparse.ArgumentParser(
        prog="qlozenge",
        description="exact lozenge-tiling counts, weights and identity checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    engine = [builder, region, weight, states, as_json]
    listing = [builder, region, triangles]
    commands = {}
    for name, summary, parents, handler in (
        ("formula", "print one closed-form value", [region, as_json], cmd_formula),
        ("count", "count tilings of a region", [builder, region, states, as_json], cmd_count),
        ("genfun", "weighted generating function", engine, cmd_genfun),
        ("tilings", "list every tiling, one JSON line each", listing, cmd_tilings),
        ("verify", "run an identity suite", [as_json], cmd_verify),
        ("kuo", "four-point removal identity on one region", engine, cmd_kuo),
        ("render", "draw a region or tiling as SVG", listing, cmd_render),
    ):
        commands[name] = sub.add_parser(name, help=summary, parents=parents)
        commands[name].set_defaults(func=handler)

    commands["formula"].add_argument("name", choices=FORMULA_NAMES)
    commands["tilings"].add_argument(
        "--json", action="store_true", help="changes nothing: tilings always prints JSON lines"
    )
    verify = commands["verify"]
    verify.add_argument("--suite", required=True, choices=suite_names())
    verify.add_argument("--max-sum", type=_at_least(0), default=4)
    verify.add_argument("--jobs", type=_at_least(1), default=1)
    commands["kuo"].add_argument(
        "--marks",
        help="four marks as row,pos,U/D joined by semicolons; defaults to the "
        "canonical corner placement for parameter-tagged regions, which "
        "degenerates on some small ones (exit 2: pass --marks there)",
    )
    render = commands["render"]
    render.add_argument(
        "--tiling-index",
        type=_at_least(0),
        help="render the n-th tiling in enumeration order instead of the bare region",
    )
    render.add_argument("--svg", help="write to this file instead of stdout")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:  # what is still buffered goes nowhere, so exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except BudgetExceeded as err:
        print("budget exceeded: %s" % err, file=sys.stderr)
        return 3
    except MemoryError:  # a fallback: the budgets are meant to stop a run first
        print("out of memory: the %s command could not finish" % args.command, file=sys.stderr)
        return 3
    except ValueError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
