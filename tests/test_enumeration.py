import hashlib
import importlib.util
import itertools
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import qlozenge
from qlozenge.enumeration import (
    BadMarks,
    BudgetExceeded,
    _exponent_tables,
    _form,
    _marks_in_order,
    _planned,
    _shape,
    _sweep,
    count_tilings,
    gen_function,
    gen_function_oracle,
    iter_tilings,
    kuo_remove,
    region_digest,
    _outer_walks,
)
from qlozenge.formulas import hex_M2
from qlozenge import lattice
from qlozenge.lattice import (
    LEFT,
    RIGHT,
    VERTICAL,
    Frames,
    Region,
    RegionParams,
    build_hexagon,
    build_k_region,
    build_magnet_bar,
    build_q_region,
    build_semihexagon_dented,
    down,
    encode,
    hexagon_params,
    magnet_bar_params,
    region_json,
    shared_work,
    up,
)
from qlozenge.qalgebra import QPoly, parse_poly
from qlozenge.verify import four_point_marks
from qlozenge.weights import MissingFrame, WeightAssignment as W, down_weight


def _rotate_to_min(walk):
    k = walk.index(min(walk))
    return walk[k:] + walk[:k]


def test_unit_hexagon_count():
    assert count_tilings(build_hexagon(1, 1, 1)) == 2
    assert len(list(iter_tilings(build_hexagon(1, 1, 1)))) == 2


def test_frozen_hexagon_counts():
    assert count_tilings(build_hexagon(2, 2, 2)) == 20
    assert count_tilings(build_hexagon(3, 3, 3)) == 980


def test_degenerate_hexagon_is_forced():
    assert count_tilings(build_hexagon(0, 2, 3)) == 1
    assert count_tilings(build_hexagon(2, 0, 3)) == 1


def test_empty_region_has_exactly_the_empty_tiling():
    empty = build_hexagon(0, 0, 0)
    assert count_tilings(empty) == 1
    assert list(iter_tilings(empty)) == [frozenset()]


def test_balanced_but_untileable_region():
    # One up and one down triangle too far apart to pair.
    stranded = Region(frozenset({up(0, 0), down(5, 5)}), None, None)
    assert count_tilings(stranded) == 0
    assert len(list(iter_tilings(stranded))) == 0


def test_iter_tilings_deterministic_and_exhaustive():
    region = build_hexagon(2, 1, 2)
    first = list(iter_tilings(region))
    second = list(iter_tilings(region))
    assert first == second
    assert len(first) == count_tilings(region) == 6
    assert len(set(first)) == len(first)
    for tiling in first:
        covered = [t for loz in tiling for t in (loz.first, loz.second)]
        assert len(covered) == len(region)
        assert set(covered) == set(region.triangles)


def test_engine_matches_oracle_on_hexagons():
    for a, b, c in itertools.product(range(3), repeat=3):
        region = build_hexagon(a, b, c)
        for w in (W.WT0, W.WT1, W.WT2, W.WT3):
            assert gen_function(region, w) == gen_function_oracle(region, w)


def test_engine_matches_oracle_on_notched_regions():
    small = [p for p in itertools.product(range(2), repeat=8) if sum(p) <= 3]
    for raw in small:
        params = RegionParams(*raw)
        region = build_q_region(params)
        weights = [W.WT0, W.WT1, W.WT2]
        if params.b == 0 and params.c == 0:
            weights.append(W.WT3)
        for w in weights:
            assert gen_function(region, w) == gen_function_oracle(region, w)


def test_engine_matches_oracle_on_the_all_ones_notched_region():
    region = build_q_region(RegionParams(1, 1, 1, 1, 1, 1, 1, 1))
    for w in (W.WT1, W.WT2):
        assert gen_function(region, w) == gen_function_oracle(region, w)


_HEX = build_hexagon(2, 3, 2)
_UPS = sorted(t for t in _HEX.triangles if t.orient == "U")
_DOWNS = sorted(t for t in _HEX.triangles if t.orient == "D")


@st.composite
def _balanced_subregions(draw):
    """The 2,3,2 hexagon less k up and k down triangles, in its own frames
    or in frames whose lines are each moved up to two steps, so that some
    lozenges may get negative exponents."""
    k = draw(st.integers(0, 4))
    ups = draw(st.lists(st.sampled_from(_UPS), min_size=k, max_size=k, unique=True))
    downs = draw(st.lists(st.sampled_from(_DOWNS), min_size=k, max_size=k, unique=True))
    moves = draw(st.lists(st.integers(-2, 2), min_size=3, max_size=3))
    frames = Frames(*(line + move for line, move in zip(_HEX.frames, moves)))
    return Region(_HEX.triangles - frozenset(ups + downs), None, frames)


def _answer(route, region, w):
    """The route's polynomial as text, or the text of the ValueError it raises."""
    try:
        return str(route(region, w))
    except ValueError as error:
        return "%s: %s" % (type(error).__name__, error)


@settings(max_examples=100, deadline=None)
@given(region=_balanced_subregions(), w=st.sampled_from([W.WT1, W.WT2, W.WT3]))
def test_engine_matches_oracle_on_random_balanced_subregions(region, w):
    assert _answer(gen_function, region, w) == _answer(gen_function_oracle, region, w)


def test_engine_matches_oracle_across_slot_gaps():
    # The sweep steps over the slots of absent triangles: a whole empty row
    # between two unit hexagons, and two holes in the middle row of a hexagon.
    unit, hexagon = build_hexagon(1, 1, 1), build_hexagon(3, 3, 3)
    stacked = unit.triangles | {t._replace(row=t.row + 3) for t in unit.triangles}
    holed = hexagon.triangles - {up(2, 1), down(2, -2)}
    for triangles in (stacked, holed):
        region = Region(frozenset(triangles), None, hexagon.frames)
        for w in (W.WT1, W.WT2):
            engine = gen_function(region, w)
            assert engine == gen_function_oracle(region, w)
            assert engine != QPoly(0)


def test_semihexagon_gen_frozen():
    region = build_semihexagon_dented(2, 1, [1, 3])
    assert gen_function(region, W.WT2) == parse_poly("q + q^2")
    assert gen_function_oracle(region, W.WT2) == parse_poly("q + q^2")


def test_oracle_triangle_budget():
    big = build_hexagon(5, 5, 5)
    assert len(big) == 150
    with pytest.raises(BudgetExceeded):
        gen_function_oracle(big, W.WT1)
    with pytest.raises(BudgetExceeded):
        list(iter_tilings(big))


def test_frontier_state_budget():
    with pytest.raises(BudgetExceeded, match="needs 2 states at row 0, budget is 1"):
        count_tilings(build_hexagon(2, 2, 2), max_states=1)
    with pytest.raises(BudgetExceeded, match="needs 5 states at row 1, budget is 3"):
        gen_function(build_hexagon(2, 2, 2), W.WT2, max_states=3)
    # the sweep peaks at 6 states, so 5 trips and 6 passes
    with pytest.raises(BudgetExceeded):
        count_tilings(build_hexagon(2, 2, 2), max_states=5)
    assert count_tilings(build_hexagon(2, 2, 2), max_states=6) == 20


def test_the_budget_counts_states_in_the_chosen_frame():
    # Swept as built, this bar needs 420 states; its right lozenges crossing
    # the rows, it needs 35.
    region = build_magnet_bar(2, 3, 4, 2, 0, 2)
    assert _planned(_form(region).shape).orientation == RIGHT
    assert count_tilings(region, max_states=70) == 1234800
    with pytest.raises(BudgetExceeded, match="needs 35 states at row 3, budget is 34"):
        count_tilings(region, max_states=34)


def _translated(region, drow, dpos, frames=None):
    """The region moved by drow rows and dpos positions, its frames moved
    along unless others are given."""
    if frames is None and region.frames is not None:
        f = region.frames
        frames = Frames(
            None if f.base_row is None else f.base_row + drow,
            None if f.se_i is None else f.se_i + dpos,
            None if f.sw_level is None else f.sw_level + drow + dpos,
        )
    moved = frozenset(t._replace(row=t.row + drow, pos=t.pos + dpos) for t in region.triangles)
    return Region(moved, None, frames)


def test_shared_work_builds_counts_and_sweeps_each_region_once(monkeypatch):
    swept, planned = [], []

    def sweep(tables, max_states):
        swept.append(tables)
        return _sweep(tables, max_states)

    def plan(shape):
        planned.append(shape)
        return _planned(shape)

    def tables(region, w):
        return _exponent_tables(_form(region), down_weight(w, region))

    monkeypatch.setattr("qlozenge.enumeration._sweep", sweep)
    monkeypatch.setattr("qlozenge.enumeration._planned", plan)
    p = RegionParams(1, 1, 1, 1, 1, 0, 0, 0)
    assert build_q_region(p) is not build_q_region(p)
    with shared_work():
        region = build_q_region(p)
        assert build_q_region(p) is region
        shape = _form(region).shape
        wt2 = gen_function(region, W.WT2)
        assert gen_function(build_q_region(p), W.WT2) is wt2
        assert swept == [tables(region, W.WT2)]  # one pass, no count sweep
        count = count_tilings(region)
        assert count == sum(wt2.terms.values())  # the count it found
        gen_function(region, W.WT0)  # the wt2 sweep, shifted
        assert len(swept) == 1
        wt1 = gen_function(region, W.WT1)
        assert swept[1:] == [tables(region, W.WT1)]
        assert planned == [shape]  # one plan for every weight and the count
        # A translate with its frames moved along has the same shape and the
        # same exponents on it: the same sweeps answer it, with no plan.
        moved = _translated(region, 3, -2)
        assert (gen_function(moved, W.WT2), gen_function(moved, W.WT1)) == (wt2, wt1)
        assert count_tilings(moved) == count
        assert len(swept) == 2
        # The same triangles measured from another base row: the same shape
        # and plan, other exponents, so one more sweep.
        lifted = Region(region.triangles, None, Frames(base_row=-1))
        assert gen_function(lifted, W.WT2) == gen_function_oracle(lifted, W.WT2) != wt2
        assert len(swept) == 3 and planned == [shape]
    with shared_work():
        assert count_tilings(region) == count
        gen_function(region, W.WT2)  # a count gives no polynomial
        assert len(swept) == 5
        assert planned == [shape, shape]
    # Blocks handed one lasting memo share its sweeps, each planning nothing
    # it need not sweep.
    lasting: dict = {}
    with shared_work(lasting):
        gen_function(region, W.WT1)
    with shared_work(lasting):
        assert gen_function(moved, W.WT1) == wt1 and count_tilings(region) == count
    assert len(swept) == 6 and len(planned) == 3
    assert build_q_region(p) is not region


def _origins(region):
    """The frame's lines as seen from the corner of the region's shape."""
    (row0, pos0), f = _form(region).corner, region.frames
    return f.base_row - row0, f.se_i - pos0, f.sw_level - row0 - pos0


# Regions whose mark-deleted parts carry forced lozenges.
_STRIPPED = [
    magnet_bar_params(1, 1, 1, 1, 1, 1),
    magnet_bar_params(1, 2, 1, 1, 1, 1),
    magnet_bar_params(0, 1, 2, 1, 0, 1),
    RegionParams(1, 1, 0, 1, 1, 1, 1, 1),
    RegionParams(0, 1, 1, 0, 1, 0, 1, 2),
]


@settings(max_examples=25, deadline=None)
@given(p=st.sampled_from(_STRIPPED), drow=st.integers(-9, 9), dpos=st.integers(-9, 9))
def test_engine_matches_oracle_on_translates_and_forced_lozenges(p, drow, dpos):
    """A region and its mark-deleted parts, which carry forced lozenges, as
    built and moved with their frames, all swept in one block, so that
    equal keys meet.  The first part of the 1,1,1,1,1,1 bar strips to the
    shape of the smaller bar it reduces to, seen from another frame origin:
    a key without the origin answers one of the two wrongly."""
    bar = magnet_bar_params(1, 1, 1, 1, 1, 1)
    smaller = build_q_region(magnet_bar_params(1, 1, 1, 0, 1, 0))
    (uvws, *_) = kuo_remove(build_q_region(bar), four_point_marks(bar))
    assert _form(uvws).shape == _form(smaller).shape
    assert _origins(uvws) != _origins(smaller)
    region = build_q_region(p)
    parts = kuo_remove(region, four_point_marks(p))
    assert any(_form(part).forced for part in parts)
    regions = [uvws, smaller, region, *parts]
    regions += [_translated(r, drow, dpos) for r in regions]
    with shared_work():
        for region in regions:
            assert count_tilings(region) == len(list(iter_tilings(region)))
            for w in (W.WT1, W.WT2, W.WT3):
                try:
                    expected = gen_function_oracle(region, w)
                except MissingFrame:
                    with pytest.raises(MissingFrame):
                        gen_function(region, w)
                    continue
                assert gen_function(region, w) == expected


# The bar moved 3 rows up and 2 positions left under a frame that did not
# follow it.  Here and below, each message names the region's lozenge of
# least exponent, ties going to the lower row, then the lower pos.
_MISFRAMED = {
    W.WT1: "right lozenge at down triangle (3, 0) has negative exponent -1",
    W.WT2: "right lozenge at down triangle (3, -2) has negative exponent -1",
    W.WT3: "vertical lozenge at down triangle (3, -3) has negative exponent -2",
}
# A region with an isolated forced lozenge of negative exponent strips to
# the bar's shape, from the bar's frame origin, so its key is the bar's;
# the contracts must still see the lozenge.
_NEGATIVE_EXTRAS = {
    W.WT1: ({up(0, 4), down(0, 4)}, "right lozenge at down triangle (0, 4)", -1),
    W.WT2: ({up(-2, 0), down(-2, 0)}, "right lozenge at down triangle (-2, 0)", -1),
    W.WT3: ({up(-1, -3), down(-2, -3)}, "vertical lozenge at down triangle (-2, -3)", -3),
}


@pytest.mark.parametrize("w", list(_NEGATIVE_EXTRAS), ids=lambda w: w.name)
def test_a_memo_hit_keeps_every_contract(w):
    extra, where, exponent = _NEGATIVE_EXTRAS[w]
    message = "%s has negative exponent %d" % (where, exponent)
    bar = build_magnet_bar(1, 1, 1, 1, 1, 1)
    assert bar.frames == Frames(base_row=0, se_i=3, sw_level=0)
    with shared_work():
        swept = gen_function(bar, w)
        assert gen_function(_translated(bar, 2, -5), w) == swept
        frameless = {W.WT1: Frames(0, None, 0), W.WT2: Frames(None, 3, 0), W.WT3: Frames(0, 3)}[w]
        need = {W.WT1: "southeast side", W.WT2: "base row", W.WT3: "southwest corner"}[w]
        with pytest.raises(MissingFrame, match="^wt%s needs the %s" % (w.value[-1], need)):
            gen_function(_translated(bar, 2, -5, frameless), w)
        with pytest.raises(MissingFrame, match="^region carries no frame data$"):
            gen_function(Region(_translated(bar, 1, 1).triangles), w)
        with pytest.raises(ValueError) as info:
            gen_function(_translated(bar, 3, -2, Frames(5, -1, 4)), w)
        assert type(info.value) is ValueError and str(info.value) == _MISFRAMED[w]
        loaded = Region(bar.triangles | extra, None, bar.frames)
        assert _form(loaded).shape == _form(bar).shape
        assert _form(loaded).corner == _form(bar).corner
        with pytest.raises(ValueError) as info:
            gen_function(loaded, w)
        assert type(info.value) is ValueError and str(info.value) == message
        assert count_tilings(loaded) == count_tilings(bar)
        # A left lozenge past the southeast side: the wt1 bound trips, yet
        # no lozenge's exponent is negative, so the region is answered.
        loose = Region(bar.triangles | {up(0, 5), down(0, 4)}, None, bar.frames)
        assert gen_function(loose, w) == gen_function_oracle(loose, w)


@pytest.mark.parametrize("w", list(_MISFRAMED), ids=lambda w: w.name)
def test_the_oracle_names_the_least_lozenge_before_reading_its_budget(w):
    bar = build_magnet_bar(1, 1, 1, 1, 1, 1)
    misframed = _translated(bar, 3, -2, Frames(5, -1, 4))
    for budget in (len(bar), len(bar) - 1, 0):
        with pytest.raises(ValueError) as info:
            gen_function_oracle(misframed, w, max_triangles=budget)
        assert type(info.value) is ValueError and str(info.value) == _MISFRAMED[w]
    extra, where, exponent = _NEGATIVE_EXTRAS[w]
    loaded = Region(bar.triangles | extra, None, bar.frames)
    with pytest.raises(ValueError) as info:
        gen_function_oracle(loaded, w, max_triangles=0)
    assert str(info.value) == "%s has negative exponent %d" % (where, exponent)
    with pytest.raises(BudgetExceeded, match="^%d triangles exceed" % len(bar)):
        gen_function_oracle(bar, w, max_triangles=len(bar) - 1)
    assert gen_function_oracle(bar, w) == gen_function(bar, w)


def _frontier_draws():
    """The regions of the bench's frontier workload at seeds 1 to 5."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    items = [item for seed in range(1, 6) for item in workloads.frontier_items(seed)]
    return [workloads._region(lattice, item["family"], item["params"]) for item in items]


def _encoded_survivors(region, form):
    """The shape and corner the strip gave when it encoded the Triangles
    left once its forced lozenges are taken off."""
    ups = {RIGHT: (0, 0), LEFT: (0, 1), VERTICAL: (1, 0)}
    gone = set()
    for o, row, pos in form.forced:
        drow, dpos = ups[o]
        gone |= {down(row, pos), up(row + drow, pos + dpos)}
    codes, _, stride, corner = encode(region.triangles - gone)
    return _shape(stride, codes), corner


def test_the_strip_recodes_every_shape_as_encode_would():
    regions = _frontier_draws()
    assert len(regions) == 35
    grid = [ps for ps in itertools.product(range(3), repeat=8) if sum(ps) <= 4]
    regions += [build_q_region(RegionParams(*ps)) for ps in grid]
    for p in _STRIPPED:
        regions += kuo_remove(build_q_region(p), four_point_marks(p))
    stripped = 0
    for region in regions:
        form = _form(region)
        if form.shape is not None:
            assert (form.shape, form.corner) == _encoded_survivors(region, form)
            stripped += bool(form.forced)
    assert stripped > 100


def test_budgeted_calls_in_shared_work_never_read_unbudgeted_sweeps():
    region = build_hexagon(2, 2, 2)
    with shared_work():
        assert count_tilings(region) == 20
        gen_function(region, W.WT2)
        # the sweep peaks at 6 states (see test_frontier_state_budget)
        with pytest.raises(BudgetExceeded):
            count_tilings(region, max_states=5)
        with pytest.raises(BudgetExceeded):
            gen_function(region, W.WT2, max_states=5)
        with pytest.raises(BudgetExceeded):
            gen_function(region, W.WT1, max_states=5)
        assert count_tilings(region, max_states=6) == 20


def test_shared_work_still_checks_each_weights_frame():
    region = build_semihexagon_dented(2, 1, [1, 3])
    with shared_work():
        gen_function(region, W.WT2)
        with pytest.raises(MissingFrame):
            gen_function(region, W.WT1)
        with pytest.raises(MissingFrame):
            gen_function(region, W.WT1)


def test_missing_frame_fails_before_the_sweep():
    # dents 1,2 leave no right lozenge in reach of the sweep, dents 2,3 do;
    # both regions lack the southeast side wt1 measures from.
    for dents in ([1, 2], [2, 3]):
        with pytest.raises(MissingFrame):
            gen_function(build_semihexagon_dented(2, 1, dents), W.WT1)
    bare = Region(frozenset())
    with pytest.raises(MissingFrame):
        gen_function(bare, W.WT2)
    assert count_tilings(bare) == 1


@pytest.mark.parametrize("route", [gen_function, gen_function_oracle])
@pytest.mark.parametrize("w", list(W), ids=lambda w: w.name)
def test_both_routes_fail_an_untileable_frameless_region(route, w):
    # No tiling ever reaches the weight, so only a check made before
    # enumerating can see that the frame and the parameter tag are missing.
    region = Region(frozenset({up(0, 0), down(5, 5)}))
    assert count_tilings(region) == 0
    with pytest.raises(MissingFrame):
        route(region, w)


def test_negative_exponent_is_refused():
    hexagon = build_hexagon(2, 2, 2)
    shifted = Region(hexagon.triangles, None, Frames(base_row=3, se_i=-1, sw_level=5))
    for w in (W.WT1, W.WT2, W.WT3):
        with pytest.raises(ValueError, match="negative exponent"):
            gen_function(shifted, w)


def test_wide_slot_hexagon():
    # Its widest coefficient has 35 bits: a fixed 32-bit slot would carry
    # into the next exponent.
    expected = hex_M2(6, 6, 6).poly
    assert max(expected.terms.values()).bit_length() == 35
    assert gen_function(build_hexagon(6, 6, 6), W.WT2) == expected


# str SHA-256 (first 32 hex digits) of mid-size sweeps: a change to how
# the sweep packs or decodes its polynomials must leave each one as it is.
PINNED_SWEEPS = [
    (build_hexagon, (6, 6, 6), W.WT1, "1366202fd75f52a3655b7a08ab198e50"),
    (build_hexagon, (6, 6, 6), W.WT2, "1366202fd75f52a3655b7a08ab198e50"),
    (build_hexagon, (7, 7, 7), W.WT1, "4c76c78df4f436aaaab68d94adbc1cbd"),
    (build_hexagon, (7, 7, 7), W.WT2, "4c76c78df4f436aaaab68d94adbc1cbd"),
    (build_magnet_bar, (1, 1, 2, 4, 4, 4), W.WT3, "121c5a6f8d75e7345464173589733099"),
    (build_k_region, (1, 1, 5, 4, 4), W.WT2, "542d2d96d49b0b4a18e48c83b2f63a3c"),
    (
        build_semihexagon_dented,
        (8, 5, [1, 2, 4, 6, 8, 11, 12, 13]),
        W.WT2,
        "b870f8fe657fd1de7efee23d5f2450ef",
    ),
    (
        lambda *p: build_q_region(RegionParams(*p)),
        (3, 2, 3, 1, 2, 1, 0, 2),
        W.WT1,
        "a94d37a6f888a61af285aaedd964dde7",
    ),
]


@pytest.mark.parametrize("build, args, w, digest", PINNED_SWEEPS)
def test_sweep_outputs_are_pinned(build, args, w, digest):
    poly = gen_function(build(*args), w)
    assert hashlib.sha256(str(poly).encode("ascii")).hexdigest()[:32] == digest


def _moved(t, turns, reflect):
    """t turned by turns sixths of a turn, (i, j) -> (-j, i + j) each, then
    reflected by (i, j) -> (j, i) if asked, found from its corners."""
    r, p = t.row, t.pos
    if t.orient == "U":
        corners = [(p, r), (p + 1, r), (p, r + 1)]
    else:
        corners = [(p + 1, r), (p, r + 1), (p + 1, r + 1)]
    for _ in range(turns):
        corners = [(-j, i + j) for i, j in corners]
    if reflect:
        corners = [(j, i) for i, j in corners]
    (i, j), (_, j2), _ = sorted(corners, key=lambda c: (c[1], c[0]))
    return up(j, i) if j2 == j else down(j, i - 1)


@pytest.mark.parametrize("build, args, w, digest", PINNED_SWEEPS)
def test_no_lattice_image_changes_the_count(build, args, w, digest):
    triangles = build(*args).triangles
    counts = [
        count_tilings(Region(frozenset(_moved(t, turns, reflect) for t in triangles)))
        for turns in range(6)
        for reflect in (False, True)
    ]
    assert counts == [count_tilings(build(*args))] * 12


# A shamrock notch of core m and lobes a, b, c in the hexagon whose sides
# alternate a + b + c and m: the smaller lobe picks the orientation.  The
# three regions are turns of one another by thirds, and each peaks at the
# 9 states of the first in its chosen frame.
@pytest.mark.parametrize(
    "notch, orientation", [((1, 1, 2, 2), VERTICAL), ((1, 2, 1, 2), RIGHT), ((1, 2, 2, 1), LEFT)]
)
def test_each_orientation_is_swept_exactly(notch, orientation):
    region = build_q_region(RegionParams(0, 0, 0, 0, *notch))
    assert _planned(_form(region).shape).orientation == orientation
    for w in (W.WT1, W.WT2):
        assert gen_function(region, w) == gen_function_oracle(region, w)
    assert count_tilings(region, max_states=9) == 54
    with pytest.raises(BudgetExceeded, match="needs 9 states"):
        count_tilings(region, max_states=8)


def test_slots_widen_across_byte_boundaries():
    # The widest coefficient has 24 bits, past the 2**22 that three-byte
    # slots keep, so the slots widen byte by byte from one byte to four.
    region = build_hexagon(5, 5, 5)
    expected = hex_M2(5, 5, 5).poly
    assert max(expected.terms.values()).bit_length() == 24
    assert gen_function(region, W.WT2) == expected
    assert _sweep(_exponent_tables(_form(region), down_weight(W.WT2, region)), None)[1] == 4


def test_slot_width_covers_the_largest_coefficient():
    cases = [
        (build_hexagon(4, 3, 2), W.WT1, None),
        (build_q_region(RegionParams(1, 2, 1, 1, 1, 1, 1, 1)), W.WT2, None),
        (build_magnet_bar(1, 1, 2, 1, 1, 2), W.WT3, None),
        (build_k_region(2, 1, 1, 2, 1), W.WT2, None),
        (build_semihexagon_dented(3, 3, [1, 3, 5]), W.WT2, None),
        # A 7-bit coefficient passes 2**6, so the slots widen to two bytes.
        (build_hexagon(3, 3, 3), W.WT1, 2),
        # The widest coefficient sets the width, not the 56-bit count.
        (build_hexagon(7, 7, 7), W.WT2, 7),
    ]
    for region, w, width in cases:
        tables = _exponent_tables(_form(region), down_weight(w, region))
        packed, size = _sweep(tables, None)
        slots = range(0, packed.bit_length(), 8 * size)
        coefficients = [packed >> k & (1 << 8 * size) - 1 for k in slots]
        count = count_tilings(region)
        assert sum(coefficients) == count
        assert max(coefficients) < 1 << (8 * size - 2)  # the bound the sweep keeps between steps
        assert width in (None, size)
        # Over all-zero exponents the one slot is the count itself.
        assert _sweep(_exponent_tables(_form(region), None), None)[0] == count


def test_gen_function_digest_is_the_region_hash():
    region = build_hexagon(1, 1, 1)
    expected = hashlib.sha256(region_json(region).encode("ascii")).hexdigest()
    assert region_digest(region) == expected


def test_outer_walk_unit_hexagon():
    (walk,) = _outer_walks(build_hexagon(1, 1, 1))
    assert _rotate_to_min(walk) == [
        down(0, -1),
        up(1, -1),
        down(1, -1),
        up(1, 0),
        down(0, 0),
        up(0, 0),
    ]


def test_outer_walk_skips_interior_triangles():
    (walk,) = _outer_walks(build_hexagon(2, 2, 2))
    assert up(1, 0) not in walk


def test_outer_walk_skips_an_interior_hole():
    # The hole's face winds counterclockwise, like every bounded face, so
    # its rim is not on the outer walk.
    hole = {up(2, 0), up(3, -1), up(3, 0), down(2, -1), down(2, 0), down(3, -1)}
    triangles = build_hexagon(3, 3, 3).triangles - hole
    (walk,) = _outer_walks(Region(triangles))
    assert len(walk) == 30
    codes, moves = encode(build_hexagon(3, 3, 3).triangles)[:2]
    rim = {codes.get(k + step) for k, t in codes.items() if t in hole for step, _ in moves[k & 1]}
    rim &= triangles
    assert rim and not rim & set(walk)


def test_outer_walk_includes_point_contact_triangles():
    # In the bar region the triangle under the top side touches the
    # boundary only at one lattice point, yet it sits on the outer face.
    region = build_magnet_bar(1, 1, 1, 1, 1, 1)
    (walk,) = _outer_walks(region)
    assert up(3, 0) in walk


_TWIN_COMPONENTS = """
import sys
from qlozenge.cli import main
from qlozenge.enumeration import BadMarks, kuo_remove
from qlozenge.lattice import Region, build_hexagon, down, up
hexagon = build_hexagon(1, 1, 1).triangles
twin = Region(hexagon | {t._replace(pos=t.pos + 10) for t in hexagon})
try:
    print([len(part) for part in kuo_remove(twin, [up(0, 0), down(0, 0), up(1, 0), down(1, -1)])])
except BadMarks as err:
    print("BadMarks:", err)
sys.exit(main(["kuo", "magnet_bar", "--params", "2,1,0,0,1,0"]))
"""


def test_outer_walk_ties_do_not_depend_on_the_hash_seed():
    # Both regions fall into two components whose outer-face orbits have
    # equal area (two unit hexagons; a magnet bar its notch cuts in two).
    # If set order breaks that tie, the marks pass under some hash seeds only.
    src = os.path.dirname(os.path.dirname(qlozenge.__file__))
    runs = set()
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", _TWIN_COMPONENTS], env=env, capture_output=True, text=True
        )
        runs.add((done.returncode, done.stdout, done.stderr))
    assert len(runs) == 1
    ((code, out, _),) = runs
    # the bar's marks all lie on its upper component's walk
    assert code == 0 and out.splitlines()[-1].startswith("Pass kuo ")


def test_kuo_takes_marks_on_any_one_component():
    hexagon = build_hexagon(1, 1, 1).triangles
    twin = Region(hexagon | {t._replace(pos=t.pos + 10) for t in hexagon})
    on_second = [up(0, 10), down(0, 10), up(1, 10), down(1, 9)]
    assert [len(part) for part in kuo_remove(twin, on_second)] == [8, 10, 10, 10, 10]
    split = [up(0, 0), down(0, 0), up(1, 10), down(1, 9)]
    with pytest.raises(BadMarks, match="one component"):
        kuo_remove(twin, split)


def test_kuo_parts_carry_the_encoding_encode_gives(monkeypatch):
    # The parts take their codes from the parent's: no encode, even where a
    # removal moves a part's lowest row or leftmost position.
    cases = [(build_q_region(p), four_point_marks(p)) for p in _STRIPPED + _TRANSLATED]
    cases.append((build_hexagon(1, 1, 1), [up(0, 0), down(0, 0), up(1, 0), down(1, -1)]))
    real = lattice.encode
    monkeypatch.setattr(lattice, "encode", lambda triangles: pytest.fail("encode was called"))
    split = [(region, kuo_remove(region, marks)) for region, marks in cases]
    encodings = [(region.encoding, [part.encoding for part in parts]) for region, parts in split]
    monkeypatch.undo()
    moved = 0
    for (region, parts), (whole, coded) in zip(split, encodings):
        assert len(parts) == 5
        for part, encoding in zip(parts, coded):
            assert encoding == real(part.triangles)
            moved += encoding[2:] != whole[2:]
    assert moved  # some part's stride or corner differs from its parent's


def test_kuo_unit_hexagon():
    region = build_hexagon(1, 1, 1)
    marks = [up(0, 0), down(0, 0), up(1, 0), down(1, -1)]
    parts = kuo_remove(region, marks)
    assert [len(r) for r in parts] == [2, 4, 4, 4, 4]
    counts = [count_tilings(r) for r in parts]
    assert counts == [1, 1, 1, 1, 1]
    full, removed, uv, ws, us, vw = (
        count_tilings(region),
        counts[0],
        counts[1],
        counts[2],
        counts[3],
        counts[4],
    )
    assert full * removed == uv * ws + us * vw


def test_kuo_rejects_bad_marks():
    region = build_hexagon(2, 2, 2)
    good = [up(2, 1), down(3, -1), up(3, -1), down(3, -2)]
    with pytest.raises(BadMarks):
        kuo_remove(region, good[:3] + [good[0]])
    with pytest.raises(BadMarks):
        kuo_remove(region, [up(9, 9), down(3, -1), up(3, -1), down(3, -2)])
    with pytest.raises(BadMarks):
        kuo_remove(region, [up(0, 0), up(1, 0), up(1, -1), down(0, 0)])
    # interior triangle
    with pytest.raises(BadMarks):
        kuo_remove(region, [up(1, 0), down(3, -1), up(3, -1), down(3, -2)])
    # both up marks then both down marks along the walk: not cyclic
    with pytest.raises(BadMarks):
        kuo_remove(region, [up(0, 0), down(3, -2), up(0, 1), down(0, 1)])


def _marks_in_order_reference(walk, u, v, w, s):
    # Every choice of one visit per mark, tested for the cyclic order
    # u, v, w, s or u, s, w, v by the marks' distances ahead of u.
    n = len(walk)
    spots = {t: [k for k, owner in enumerate(walk) if owner == t] for t in (u, v, w, s)}
    for pu, pv, pw, ps in itertools.product(*(spots[t] for t in (u, v, w, s))):
        dv, dw, ds = ((p - pu) % n for p in (pv, pw, ps))
        if 0 < dv < dw < ds or 0 < ds < dw < dv:
            return True
    return False


@given(st.lists(st.integers(min_value=0, max_value=5), max_size=14))
@settings(max_examples=400, deadline=None)
def test_marks_in_order_matches_every_choice_of_visits(walk):
    # Symbols 0-3 are the marks u, v, w, s; 4 and 5 are other triangles.
    assert _marks_in_order(walk, 0, 1, 2, 3) == _marks_in_order_reference(walk, 0, 1, 2, 3)


def test_kuo_accepts_either_walk_direction():
    region = build_hexagon(2, 2, 2)
    marks = [up(2, 1), down(3, -1), up(3, -1), down(3, -2)]
    swapped = [marks[0], marks[3], marks[2], marks[1]]
    assert len(kuo_remove(region, marks)) == 5
    assert len(kuo_remove(region, swapped)) == 5


def test_kuo_weighted_identity_on_a_hexagon():
    region = build_hexagon(2, 2, 2)
    marks = [up(2, 1), down(3, -1), up(3, -1), down(3, -2)]
    parts = kuo_remove(region, marks)
    for w in (W.WT1, W.WT2, W.WT3):
        g = gen_function_oracle(region, w)
        removed, uv, ws, us, vw = (gen_function_oracle(r, w) for r in parts)
        assert g * removed == uv * ws + us * vw


def test_kuo_weighted_identity_on_a_bar_region():
    # The up mark under the top side is a point-contact triangle, so this
    # exercises the dual outer face rather than the edge boundary.
    region = build_magnet_bar(1, 1, 1, 1, 1, 1)
    marks = [up(2, 2), down(3, 0), up(3, 0), down(3, -2)]
    parts = kuo_remove(region, marks)
    for w in (W.WT2, W.WT3):
        g = gen_function_oracle(region, w)
        removed, uv, ws, us, vw = (gen_function_oracle(r, w) for r in parts)
        assert g * removed == uv * ws + us * vw


@given(
    m=st.integers(0, 1),
    a=st.integers(0, 1),
    x=st.integers(0, 1),
    y=st.integers(0, 1),
    z=st.integers(0, 1),
    t=st.integers(0, 1),
)
@settings(max_examples=40, deadline=None)
def test_frontier_count_matches_oracle_on_bars(m, a, x, y, z, t):
    region = build_magnet_bar(m, a, x, y, z, t)
    assert count_tilings(region) == len(list(iter_tilings(region)))


_TRANSLATED = [
    hexagon_params(2, 2, 2),
    hexagon_params(1, 2, 3),
    magnet_bar_params(1, 1, 1, 1, 1, 1),
    magnet_bar_params(1, 0, 1, 2, 1, 1),
    RegionParams(1, 1, 1, 1, 1, 1, 1, 1),
]


@settings(max_examples=15, deadline=None)
@given(drow=st.integers(-30, 30), dpos=st.integers(-30, 30))
@pytest.mark.parametrize("p", _TRANSLATED, ids=str)
def test_a_translate_has_the_same_polynomials(p, drow, dpos):
    # Moving a region and its frame alike moves no lozenge's exponent, so
    # every route must give back the untranslated values, whatever the
    # signs of the coordinates it then runs on.
    region = build_q_region(p)

    def moved(triangles):
        return [t._replace(row=t.row + drow, pos=t.pos + dpos) for t in triangles]

    f = region.frames
    frames = Frames(
        f.base_row + drow,
        f.se_i + dpos,
        None if f.sw_level is None else f.sw_level + drow + dpos,
    )
    translate = Region(frozenset(moved(region.triangles)), None, frames)
    assert count_tilings(translate) == count_tilings(region)
    for w in (W.WT1, W.WT2, W.WT3):
        if f.sw_level is None and w is W.WT3:
            continue
        expected = gen_function(region, w)
        assert gen_function(translate, w) == expected
        assert gen_function_oracle(translate, w) == expected
    parts = kuo_remove(translate, moved(four_point_marks(p)))
    assert [r.triangles for r in parts] == [
        frozenset(moved(r.triangles)) for r in kuo_remove(region, four_point_marks(p))
    ]


def test_region_digest_changes_with_the_region():
    d1 = region_digest(build_hexagon(1, 1, 1))
    d2 = region_digest(build_hexagon(1, 2, 1))
    assert d1 != d2
