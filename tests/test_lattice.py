import ast
import hashlib
import inspect
import itertools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from qlozenge import lattice, weights
from qlozenge.enumeration import (
    _form,
    count_tilings,
    gen_function,
    gen_function_oracle,
    iter_tilings,
)
from qlozenge.lattice import (
    LEFT,
    RIGHT,
    VERTICAL,
    BadDents,
    Region,
    RegionParams,
    Triangle,
    Unbalanced,
    build_hexagon,
    build_k_region,
    build_magnet_bar,
    build_q_region,
    build_semihexagon_dented,
    build_shamrock,
    coded_region,
    down,
    encode,
    hexagon_params,
    q_region_triangle_count,
    recoded,
    region_json,
    shared_work,
    up,
)
from qlozenge.formulas import theorem_qmain
from qlozenge.qalgebra import QPoly
from qlozenge.verify import check_q_recurrence
from qlozenge.weights import WeightAssignment as W, down_weight


def _hexagon_walk_area(n1, n2, n3, n4, n5, n6):
    # Twice the signed area in skew coordinates equals the number of unit
    # triangles; an arithmetic route independent of the builder.
    verts = [(0, 0), (n5, 0), (n5, n4), (n5 - n3, n4 + n3), (-n6, n4 + n3), (-n6, n6)]
    total = 0
    for (i1, j1), (i2, j2) in zip(verts, verts[1:] + verts[:1]):
        total += i1 * j2 - i2 * j1
    return total


def is_balanced(region):
    """As many up triangles as down ones."""
    return 2 * sum(t.orient == "U" for t in region.triangles) == len(region)


def _translate(triangles, drow, dpos):
    return frozenset(Triangle(t.row + drow, t.pos + dpos, t.orient) for t in triangles)


def test_unit_hexagon_exact_triangles():
    region = build_hexagon(1, 1, 1)
    assert region.triangles == frozenset(
        [up(0, 0), down(0, -1), down(0, 0), up(1, -1), up(1, 0), down(1, -1)]
    )


def test_hexagon_sizes_and_balance():
    for a in range(4):
        for b in range(4):
            for c in range(4):
                region = build_hexagon(a, b, c)
                assert len(region.triangles) == 2 * (a * b + b * c + c * a)
                assert is_balanced(region)


def test_hexagon_degenerate_side_is_forced():
    for b, c in [(1, 2), (2, 3), (3, 1)]:
        region = build_hexagon(0, b, c)
        assert len(region.triangles) == 2 * b * c
        assert len(list(iter_tilings(region))) == 1


def test_hexagon_222_count():
    region = build_hexagon(2, 2, 2)
    assert len(region.triangles) == 24
    assert len(list(iter_tilings(region))) == 20


def test_shamrock_shapes():
    assert build_shamrock(0, 0, 0, 0, (3, 1)) == set()
    assert len(build_shamrock(5, 0, 0, 0, (0, 0))) == 25
    clover = build_shamrock(4, 2, 2, 3, (0, 0))
    assert len(clover) == 16 + 4 + 4 + 9


def test_q_region_collapses_to_hexagon():
    for x, y, z, t in [(1, 2, 2, 1), (0, 1, 1, 2), (2, 0, 1, 1)]:
        q = build_q_region(RegionParams(x=x, y=y, z=z, t=t, m=0, a=0, b=0, c=0))
        assert q.triangles == build_hexagon(z, x + y, t).triangles


def test_q_region_collapses_to_magnet_and_notched_hexagon():
    p = RegionParams(x=1, y=2, z=1, t=1, m=2, a=1, b=0, c=0)
    assert build_q_region(p).triangles == build_magnet_bar(2, 1, 1, 2, 1, 1).triangles
    p0 = RegionParams(x=2, y=1, z=1, t=2, m=0, a=2, b=0, c=0)
    assert build_q_region(p0).triangles == build_k_region(2, 2, 1, 1, 2).triangles


def test_q_region_small_cube_sweep_is_balanced():
    for mask in range(256):
        vals = [(mask >> k) & 1 for k in range(8)]
        p = RegionParams(*vals)
        assert is_balanced(build_q_region(p))


def test_q_region_pendant_count():
    q = build_q_region(RegionParams(x=1, y=1, z=1, t=1, m=1, a=0, b=0, c=0))
    assert len(list(iter_tilings(q))) == 4


def test_magnet_bar_shapes():
    assert build_magnet_bar(0, 0, 1, 2, 2, 1).triangles == build_hexagon(2, 3, 1).triangles
    fig = build_magnet_bar(2, 2, 4, 3, 3, 2)
    assert is_balanced(fig)
    assert len(fig.triangles) == _hexagon_walk_area(5, 9, 4, 5, 9, 4) - (4 + 4)
    tiny = build_magnet_bar(2, 1, 0, 0, 0, 0)
    assert len(list(iter_tilings(tiny))) == 1


def test_k_region_shapes():
    assert build_k_region(0, 1, 1, 2, 1).triangles == build_hexagon(2, 2, 1).triangles
    assert build_k_region(3, 0, 0, 0, 0).triangles == frozenset()
    k = build_k_region(1, 1, 1, 1, 1)
    assert is_balanced(k)
    assert len(k.triangles) == 18
    # 8 = the closed product formula value at q=1, computed by hand from
    # plain hyperfactorials; the enumeration route must agree.
    assert len(list(iter_tilings(k))) == 8


def test_semihexagon_basics():
    sh = build_semihexagon_dented(1, 1, [1])
    assert len(sh.triangles) == 2
    assert is_balanced(sh)
    assert len(list(iter_tilings(sh))) == 1
    sh = build_semihexagon_dented(2, 1, [1, 3])
    assert len(sh.triangles) == 6
    assert len(list(iter_tilings(sh))) == 2


def test_semihexagon_figure_sized():
    sh = build_semihexagon_dented(7, 5, [1, 2, 6, 7, 10, 11, 12])
    assert len(sh.triangles) == 112
    assert is_balanced(sh)


def test_semihexagon_bad_dents():
    with pytest.raises(BadDents):
        build_semihexagon_dented(2, 1, [1, 1])
    with pytest.raises(BadDents):
        build_semihexagon_dented(2, 1, [1, 4])
    with pytest.raises(BadDents):
        build_semihexagon_dented(2, 1, [1])


@given(
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
)
@settings(max_examples=40, deadline=None)
def test_magnet_builder_always_balanced(m, a, x, y, z, t):
    region = build_magnet_bar(m, a, x, y, z, t)
    assert is_balanced(region)


def test_remove_forced_drains_degenerate_hexagon():
    # Every lozenge of the one tiling is forced, so no triangle is left.
    region = build_hexagon(0, 2, 3)
    form = _form(region)
    assert form.shape[1] == b""
    (the_tiling,) = iter_tilings(region)
    lozenges = [(loz.orientation, *loz.second[:2]) for loz in the_tiling]
    assert sorted(form.forced) == sorted(lozenges)
    exponent = down_weight(W.WT2, region)
    assert sum(exponent(*loz) for loz in form.forced) == sum(exponent(*loz) for loz in lozenges)


def test_remove_forced_fixpoint():
    # Every triangle has two partners, so nothing is stripped: the shape
    # keeps all six codes.
    region = build_hexagon(1, 1, 1)
    form = _form(region)
    assert form.forced == []
    assert len(form.shape[1]) == 8 * len(region.triangles)


def test_remove_forced_untileable():
    region = Region(frozenset([up(0, 0)]), None, build_hexagon(1, 1, 1).frames)
    assert _form(region).shape is None
    assert count_tilings(region) == 0
    assert gen_function(region, W.WT2) == QPoly(0)
    assert gen_function_oracle(region, W.WT2) == QPoly(0)


def _package_imports(module):
    """The names of the package modules the module imports, relative
    imports and imports of qlozenge alike."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("qlozenge")):
            inner = (node.module or "").removeprefix("qlozenge").lstrip(".")
            names.update([inner] if inner else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            package = [a.name for a in node.names if a.name.startswith("qlozenge")]
            names.update(name.removeprefix("qlozenge.") for name in package)
    return names


def test_lattice_imports_no_other_package_module():
    # The weights and the region surgery read the geometry; it reads neither.
    assert _package_imports(lattice) == set()


def test_weights_imports_only_lattice_and_qalgebra():
    # The negative-exponent rule lives here, below both enumeration routes.
    assert _package_imports(weights) <= {"lattice", "qalgebra"}


def test_split_factors_bar_with_pendant():
    for m, a, x, y, t in [(1, 1, 1, 1, 1), (2, 1, 1, 2, 1), (1, 2, 2, 1, 1)]:
        whole = build_magnet_bar(m, a, x, y, 0, t)
        part = _translate(build_hexagon(m, y, a).triangles, 0, x + a)
        assert part <= whole.triangles
        S = Region(part, None, whole.frames)
        rest = Region(whole.triangles - part, None, whole.frames)
        product = gen_function_oracle(S, W.WT2) * gen_function_oracle(rest, W.WT2)
        assert product == gen_function_oracle(whole, W.WT2)


def test_region_json_canonical():
    assert region_json(build_hexagon(1, 1, 1)) == (
        '{"params":{"a":0,"b":0,"c":0,"m":0,"t":1,"x":1,"y":0,"z":1},'
        '"triangles":[[0,-1,"D"],[0,0,"D"],[0,0,"U"],[1,-1,"D"],[1,-1,"U"],[1,0,"U"]]}'
    )
    bare = Region(frozenset([up(0, 0)]))
    assert region_json(bare) == '{"params":null,"triangles":[[0,0,"U"]]}'


def test_region_params_rejects_negative():
    with pytest.raises(ValueError):
        RegionParams(x=-1, y=0, z=0, t=0, m=0, a=0, b=0, c=0)


def test_region_params_iterate_in_field_order():
    p = RegionParams(x=1, y=2, z=3, t=4, m=5, a=6, b=7, c=8)
    assert tuple(p) == (1, 2, 3, 4, 5, 6, 7, 8)


def test_region_params_keep_their_contract_as_a_named_tuple():
    p = RegionParams(1, 2, 3, 4, m=5, a=6, b=7, c=8)
    assert p == RegionParams(x=1, y=2, z=3, t=4, m=5, a=6, b=7, c=8)
    assert hash(p) == hash(tuple(p)) and RegionParams(True, *p[1:]) == p
    assert p._replace(c=0) == (1, 2, 3, 4, 5, 6, 7, 0)
    for made in (
        lambda: RegionParams(1, 2, 3, -4, 5, 6, 7, 8),
        lambda: RegionParams(x=1, y=2, z=3, t=4.0, m=5, a=6, b=7, c=8),
        lambda: p._replace(t=-1),
    ):
        with pytest.raises(ValueError, match="parameter t must be a nonnegative integer"):
            made()


def test_records_survive_a_pickle_round_trip():
    # A spawn or forkserver pool pickles task arguments and Reports.
    p = RegionParams(1, 1, 1, 1, 0, 1, 0, 0)
    region, report = build_q_region(p), check_q_recurrence(p)
    assert report.status == "Pass"
    for record in (p, region, theorem_qmain(p), report):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and type(copy) is type(record)
    copy = pickle.loads(pickle.dumps(region))
    assert copy.encoding == region.encoding == encode(region.triangles)
    assert "encoding" not in repr(region) and hash(region) == hash(tuple(region))
    assert Region(*region) == region and len(copy) == len(region.triangles)
    assert region._replace(frames=None) == (region.triangles, p, None)


def test_region_params_are_checked_alike_in_and_out_of_shared_work():
    # Inside a block too, a float side is refused and a bool one kept.
    with shared_work():
        for bad in ((1.0, 1, 1), (1, 1, 1.0)):
            with pytest.raises(ValueError, match="must be a nonnegative integer"):
                hexagon_params(*bad)
        assert type(hexagon_params(True, 1, 1).z) is bool


def _small_params(top):
    for ps in itertools.product(range(top + 1), repeat=8):
        if sum(ps) <= top:
            yield RegionParams(*ps)


def test_q_region_triangle_count_is_the_built_size():
    for p in _small_params(6):
        assert q_region_triangle_count(p) == len(build_q_region(p))


def _q_regions():
    for p in _small_params(6):
        yield p, build_q_region(p)


def _semihexagons():
    for a, b in itertools.product(range(6), repeat=2):
        for dents in itertools.combinations(range(1, a + b + 1), a):
            yield (a, b, dents), build_semihexagon_dented(a, b, dents)


def _shamrocks():
    for m, a, b, c in itertools.product(range(4), repeat=4):
        for anchor in ((0, 0), (3, -1)):
            yield (m, a, b, c, anchor), Region(frozenset(build_shamrock(m, a, b, c, anchor)))


# One SHA-256 per builder over region_json of every region on its grid.
# Every builder reads its rows from _hexagon_codes, so a slip in either
# row range changes all three.
_BUILDER_GRID = {
    "q_region": (
        _q_regions,
        "25d0734ea1ea32be3b8351fd45278e984742296a4f63f5d913f7e138636d428d",
    ),
    "semihexagon": (
        _semihexagons,
        "1c138259135ef678e3b243dd0b5a1a568fdc8c15d87abadfa00bd51ecde9c537",
    ),
    "shamrock": (
        _shamrocks,
        "5ac222f77494360c30087a171c57f97176067e3094816b0de6acde21ce75f586",
    ),
}


@pytest.mark.parametrize("builder", list(_BUILDER_GRID))
def test_builders_on_the_recorded_grid(builder):
    regions, expected = _BUILDER_GRID[builder]
    digest = hashlib.sha256()
    for args, region in regions():
        digest.update(("%r %s\n" % (args, region_json(region))).encode())
    assert digest.hexdigest() == expected


def _zero_sided_regions():
    """Every builder family on a grid reaching zero sides: no notch, empty
    lobes, t = m = 0, x = c = 0, and the empty region."""
    for p in _small_params(4):
        yield build_q_region(p)
    for sides in itertools.product(range(3), repeat=3):
        yield build_hexagon(*sides)
    for sides in itertools.product(range(2), repeat=5):
        yield build_k_region(*sides)
    for sides in itertools.product(range(2), repeat=6):
        yield build_magnet_bar(*sides)
    for _, region in _semihexagons():
        yield region


def test_builders_hand_each_region_the_encoding_encode_gives(monkeypatch):
    # A builder's region carries its codes from the build: reading them
    # calls no encode, and they are encode's to the last code.
    real = lattice.encode
    monkeypatch.setattr(lattice, "encode", lambda triangles: pytest.fail("encode was called"))
    regions = list(_zero_sided_regions())
    encodings = [region.encoding for region in regions]
    monkeypatch.undo()
    assert len(regions) > 1500 and any(not region.triangles for region in regions)
    for region, encoding in zip(regions, encodings):
        assert encoding == real(region.triangles)


def test_a_hand_built_region_is_encoded_once_on_first_use(monkeypatch):
    region = Region(build_hexagon(2, 1, 2).triangles)
    calls = []
    monkeypatch.setattr(lattice, "encode", lambda tris: calls.append(tris) or encode(tris))
    assert region.encoding is region.encoding == encode(region.triangles)
    assert calls == [region.triangles]
    # The encoding is no field: equality, hashing and repr ignore it.
    assert region == Region(region.triangles) and hash(region) == hash(Region(region.triangles))
    assert "encoding" not in repr(region)


def _corners(t):
    """The corners of t by the formulas of the lattice module docstring."""
    r, p = t.row, t.pos
    if t.orient == "U":
        return {(p, r), (p + 1, r), (p, r + 1)}
    return {(p + 1, r), (p, r + 1), (p + 1, r + 1)}


def _shared_edge_orientation(t, n):
    """The orientation of the lozenge t and n form, from their shared edge:
    horizontal for vertical lozenges, along e2 for left ones, else right."""
    (i1, j1), (i2, j2) = _corners(t) & _corners(n)
    return VERTICAL if j1 == j2 else LEFT if i1 == i2 else RIGHT


_PATCH = st.lists(
    st.builds(Triangle, st.integers(-5, 5), st.integers(-5, 5), st.sampled_from("UD")),
    min_size=1,
    max_size=25,
)


@settings(max_examples=150, deadline=None)
@given(patch=_PATCH, low=st.tuples(st.integers(0, 3), st.integers(0, 3)), high=st.integers(0, 3))
def test_codes_in_any_holding_layout_recode_to_encode_s(patch, low, high):
    # Lay the patch out with room to spare on every side, then re-code it:
    # the lowest row, the leftmost position and the span may all move.
    triangles = frozenset(patch)
    rows, positions = [t.row for t in patch], [t.pos for t in patch]
    corners = {down(min(rows) - low[0], min(positions) - low[1])}
    corners.add(up(max(rows), max(positions) + high))
    codes, _, stride, corner = encode(triangles | corners)
    kept = [c for c, t in codes.items() if t in triangles]
    region = coded_region(kept, (stride, corner))
    assert region.triangles == triangles and region.encoding == encode(triangles)
    assert recoded(kept, (stride, corner)) == (list(region.encoding.codes), region.encoding[2:])


@settings(max_examples=150, deadline=None)
@given(near=_PATCH, far=_PATCH, drow=st.integers(-40, 40), dpos=st.sampled_from([-37, 23, 41]))
def test_codes_agree_with_the_corner_geometry(near, far, drow, dpos):
    # Two patches at negative and positive coordinates, the second far off:
    # the engine, the oracle and the surgery all read these codes and
    # offsets, so they are checked here against the corners alone.
    triangles = frozenset(near) | _translate(far, drow, dpos)
    codes, moves, *layout = encode(triangles)
    # the code of the module docstring, and its decoding
    row0 = min(t.row for t in triangles)
    pos0 = min(t.pos for t in triangles) - 1
    stride = max(t.pos for t in triangles) - pos0 + 2
    assert layout == [stride, (row0, pos0)]
    assert codes == {
        2 * ((t.row - row0) * stride + t.pos - pos0) + (t.orient == "U"): t for t in triangles
    }
    for c, t in codes.items():
        row, pos = divmod(c >> 1, stride)
        assert Triangle(row0 + row, pos0 + pos, "U" if c & 1 else "D") == t
    assert [codes[c] for c in sorted(codes)] == sorted(triangles)
    for c, t in codes.items():
        by_code = {codes[c + offset]: o for offset, o in moves[c & 1] if c + offset in codes}
        by_corners = {
            n: _shared_edge_orientation(t, n)
            for n in triangles
            if len(_corners(t) & _corners(n)) == 2
        }
        assert by_code == by_corners
