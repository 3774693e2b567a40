"""Triangular-lattice geometry: unit triangles, lozenges, region builders.

Lattice points are written (i, j) in skew coordinates: the point sits at
i*e1 + j*e2 with e1 = (1, 0) and e2 = (1/2, sqrt(3)/2).  A unit triangle
is addressed by (row, pos, orient):

    up(r, p)   has corners (p, r), (p+1, r), (p, r+1)
    down(r, p) has corners (p+1, r), (p, r+1), (p+1, r+1)

Rows count upward from the region's base line at row 0, positions grow
rightward.  Two adjacent triangles form a lozenge in one of three
orientations:

    right    up(r, p) + down(r, p)
    left     up(r, p) + down(r, p-1)
    vertical up(r+1, p) + down(r, p)

A region's geometry is its Encoding, made once: each triangle under the
code 2*((row - row0)*R + pos - pos0) + (1 if up else 0), with row0 the
lowest row, pos0 one left of the leftmost position and R the position
span plus 2, so pos +- 1 never wraps and code order is Triangle order
("D" < "U").  One move table, _DOWN_MOVES, gives a down triangle's three
partners as (drow, dpos, orientation), counterclockwise, so a partner's
code is 2*(drow*R + dpos) + 1 after a down triangle's (+1 right, +3 left,
+2R+1 vertical) and as far before an up triangle's.

The builders emit codes from one primitive, the hexagon with given sides
(the notch's lobes and core, and the dented trapezoid, have zero sides),
each row one range of up codes and one of down codes.  Set arithmetic
cuts the notch, and coded_region re-codes what is left as encode would
(recoded) and makes the Triangles in one pass; a hand-built Region gets
encode's Encoding on first use.  Builders put the base side on row 0 and
its southwest corner at (0, 0), and Frames carries the lines the weights
measure from.  This module imports no other of the package; the region
surgery and the forced-lozenge strip live in enumeration.

Every record here is a NamedTuple (Region and RegionParams subclass one),
compared and hashed as the tuple of its fields.  RegionParams checks its
sides as it is made.  A Region's Encoding is cached beside its fields, in
its encoding attribute, and is no part of its equality, hash or repr.

Inside a shared_work block, build_q_region, region_params and the
frontier engine hand back what they already computed for an equal
request (see shared); the block's memo goes when it ends, and what is
marked lasting goes into the second memo the block was handed.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from contextvars import ContextVar
from functools import cache, cached_property, partial
from itertools import chain
from typing import Callable, Hashable, Iterable, Iterator, NamedTuple, Optional, TypeVar

UP = "U"
DOWN = "D"

LEFT = "left"
RIGHT = "right"
VERTICAL = "vertical"


class BadDents(ValueError):
    """Dent positions are duplicated, out of range, or miscounted, or a
    half-hexagon side is negative."""


class Unbalanced(ValueError):
    """A builder produced (or would produce) a geometrically broken region."""


class Triangle(NamedTuple):
    row: int
    pos: int
    orient: str


# A Triangle from a (row, pos, orient) tuple, without a Python-level call.
_triangle = partial(tuple.__new__, Triangle)


def up(row: int, pos: int) -> Triangle:
    return Triangle(row, pos, UP)


def down(row: int, pos: int) -> Triangle:
    return Triangle(row, pos, DOWN)


class Lozenge(NamedTuple):
    first: Triangle
    second: Triangle
    orientation: str


# The outer-face walk relies on the counterclockwise order.
_DOWN_MOVES = ((0, 0, RIGHT), (0, 1, LEFT), (1, 0, VERTICAL))


# Per last code bit (0 down, 1 up): (code offset, lozenge orientation) moves.
Moves = tuple[tuple[tuple[int, str], ...], ...]


class Encoding(NamedTuple):
    codes: dict[int, Triangle]  # each triangle under its code
    moves: Moves
    stride: int  # R, the codes' positions to a row
    corner: tuple[int, int]  # (row0, pos0): code 0 is down(row0, pos0)


# A code layout: (stride, (row0, pos0)), as in encode.
Layout = tuple[int, tuple[int, int]]


@cache
def code_moves(stride: int) -> Moves:
    """Per last code bit, the code offsets of a triangle's partners."""
    down = tuple((2 * (dr * stride + dp) + 1, o) for dr, dp, o in _DOWN_MOVES)
    return down, tuple((-offset, o) for offset, o in down)


def encode(triangles: frozenset[Triangle]) -> Encoding:
    """Each triangle under its code, the partners' moves, and the layout."""
    rows, positions, orients = zip(*(triangles or [up(0, 0)]))
    row0, pos0 = min(rows), min(positions) - 1
    stride = max(positions) - pos0 + 2
    codes = {
        2 * ((r - row0) * stride + p - pos0) + (o == UP): t
        for r, p, o, t in zip(rows, positions, orients, triangles)
    }
    return Encoding(codes, code_moves(stride), stride, (row0, pos0))


def recoded(codes: list[int], layout: Layout) -> tuple[list[int], Layout]:
    """encode's codes (in the order given) and layout for the triangles under
    `codes` in `layout`, by arithmetic alone."""
    if not codes:
        return codes, (3, (0, -1))  # encode's layout of no triangles
    stride, (row0, pos0) = layout
    row = (min(codes) >> 1) // stride
    cols = {(c >> 1) % stride for c in codes}
    lo, wide = min(cols) - 1, max(cols) - min(cols) + 3
    # row r, pos p become row r - row, pos p - lo
    codes = [c - 2 * ((c >> 1) // stride * (stride - wide) + row * wide + lo) for c in codes]
    return codes, (wide, (row0 + row, pos0 + lo))


class Frames(NamedTuple):
    """Reference lines for the distance-based weight assignments.

    base_row: row index of the base line (weight on right lozenges by height).
    se_i: i-coordinate of the southeast side (weight on right lozenges by
        distance from that side).
    sw_level: level of the southwest corner for the vertical-lozenge weight;
        only regions whose west boundary is a clean staircase carry one.
    A None entry means the corresponding weight is undefined for the region.
    """

    base_row: Optional[int] = None
    se_i: Optional[int] = None
    sw_level: Optional[int] = None


class _Sides(NamedTuple):
    x: int
    y: int
    z: int
    t: int
    m: int
    a: int
    b: int
    c: int


class RegionParams(_Sides):
    """The notched hexagon's sides, each checked to be a nonnegative int."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> RegionParams:
        self = _Sides.__new__(cls, *args, **kwargs)
        for name, v in zip(cls._fields, self):
            if not isinstance(v, int) or v < 0:
                raise ValueError("parameter %s must be a nonnegative integer" % name)
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too


class _RegionFields(NamedTuple):
    triangles: frozenset[Triangle]
    params: Optional[RegionParams] = None
    frames: Optional[Frames] = None


class Region(_RegionFields):
    def __len__(self) -> int:
        return len(self.triangles)

    _make = classmethod(lambda cls, fields: cls(*fields))  # the tuple's compares len()

    @cached_property
    def encoding(self) -> Encoding:
        """encode(self.triangles), once; a region made from codes comes with it."""
        return encode(self.triangles)


def coded_region(codes: list[int], layout: Layout, params=None, frames=None) -> Region:
    """The Region of the triangles under `codes` in `layout`, made from the
    codes in one pass, carrying the Encoding that encode would give it."""
    codes, (stride, (row0, pos0)) = recoded(codes, layout)
    triangles = [
        _triangle((row0 + c // 2 // stride, pos0 + c // 2 % stride, "DU"[c & 1])) for c in codes
    ]
    region = Region(frozenset(triangles), params, frames)
    encoding = Encoding(dict(zip(codes, triangles)), code_moves(stride), stride, (row0, pos0))
    region.encoding = encoding  # what the cached property keeps
    return region


def region_json(region: Region) -> str:
    """Canonical JSON text for a region; byte-identical across runs."""
    tri = sorted([t.row, t.pos, t.orient] for t in region.triangles)
    params = None if region.params is None else region.params._asdict()
    return json.dumps({"triangles": tri, "params": params}, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# work shared within a block

_T = TypeVar("_T")
_memo: ContextVar[Optional[tuple[dict, dict]]] = ContextVar("qlozenge_shared_work", default=None)
_MISSING = object()


@contextmanager
def shared_work(lasting: Optional[dict] = None) -> Iterator[None]:
    """Within the block (in this thread), shared answers an equal key from
    the block's memo, which is dropped when the block ends, or a lasting
    key from `lasting`: a dict the caller may hand to later blocks, by
    default a fresh one that goes with the block."""
    token = _memo.set(({}, {} if lasting is None else lasting))
    try:
        yield
    finally:
        _memo.reset(token)


def shared(key: Hashable, compute: Callable[[], _T], lasting: bool = False) -> _T:
    """compute(), or inside shared_work the value it gave for an equal key
    earlier in the block (or, lasting, in an earlier block handed the same
    lasting dict).  The key must hold every input of compute, and a call
    that raised leaves nothing behind."""
    memos = _memo.get()
    if memos is None:
        return compute()
    memo = memos[lasting]
    value = memo.get(key, _MISSING)
    if value is _MISSING:
        value = memo[key] = compute()
    return value


# ---------------------------------------------------------------------------
# builders


def _hexagon_codes(
    n1: int, n2: int, n3: int, n4: int, n5: int, n6: int, layout: Layout, origin=(0, 0)
) -> set[int]:
    """The codes in `layout` of the hexagon with clockwise sides n1..n6
    (northwest, ..., southwest), south side n5 from `origin` = (i0, j0) to
    (i0 + n5, j0).  Row j0 + r holds the triangles whose corners (i0 + di,
    j0 + dj) keep -n6 <= di <= n5 and 0 <= di + dj <= n5 + n4: one range
    of up codes and one of down codes."""
    if n2 + n3 != n5 + n6 or n1 + n6 != n3 + n4:
        raise Unbalanced("hexagon sides do not close up: %r" % ((n1, n2, n3, n4, n5, n6),))
    stride, (row0, pos0) = layout
    rows = []
    for r in range(n6 + n1):
        at = 2 * ((origin[1] + r - row0) * stride + origin[0] - pos0)  # down(j0 + r, i0)'s code
        rows.append(range(at + 2 * max(-r, -n6) + 1, at + 2 * min(n5, n5 + n4 - r) + 1, 2))
        rows.append(range(at + 2 * max(-r - 1, -n6), at + 2 * min(n5, n5 + n4 - r - 1), 2))
    return set(chain.from_iterable(rows))


def _shamrock(m: int, a: int, b: int, c: int, anchor: tuple[int, int], layout: Layout) -> set[int]:
    i0, j0 = anchor
    top = j0 + a + m  # the b- and c-lobes' base; each leaf is the hexagon n, k, n, k, n, k
    leaves = ((a, 0, (i0, j0)), (0, m, (i0, j0 + a)), (b, 0, (i0, top)), (c, 0, (i0 - m - c, top)))
    return set().union(*(_hexagon_codes(n, k, n, k, n, k, layout, at) for n, k, at in leaves))


def build_shamrock(m: int, a: int, b: int, c: int, anchor: tuple[int, int]) -> frozenset[Triangle]:
    """Triangles of the four-leaf hole: a central down-pointing core of size
    m with up-pointing lobes of sizes a (below), b (upper right) and c
    (upper left), each leaf a hexagon with three zero sides.  `anchor` is
    the lower-left corner of the a-lobe."""
    layout = (m + a + b + c + 2, (anchor[1], anchor[0] - m - c - 1))
    return coded_region(list(_shamrock(m, a, b, c, anchor, layout)), layout).triangles


def _q_parts(p: RegionParams) -> tuple[set[int], set[int], Layout]:
    """The codes, in its layout, of the hexagon with clockwise sides z+a+b+c,
    x+y+m, t+a+b+c, z+m, x+y+a+b+c, t+m, and of the notch build_q_region
    cuts from it: the a-lobe's lower-left corner x+c right of the hexagon's."""
    n5, n6 = p.x + p.y + p.a + p.b + p.c, p.t + p.m
    layout = (n5 + n6 + 2, (0, -n6 - 1))
    sides = (p.z + p.a + p.b + p.c, p.x + p.y + p.m, p.t + p.a + p.b + p.c, p.z + p.m, n5, n6)
    notch = _shamrock(p.m, p.a, p.b, p.c, (p.x + p.c, 0), layout)
    return _hexagon_codes(*sides, layout), notch, layout


def q_region_notch(p: RegionParams) -> frozenset[Triangle]:
    """The notch build_q_region cuts from its hexagon."""
    _, notch, layout = _q_parts(p)
    return coded_region(list(notch), layout).triangles


def build_q_region(p: RegionParams) -> Region:
    """Hexagon with a shamrock-shaped notch on its base (see _q_parts).
    Inside shared_work equal parameters get the same Region object back."""
    return shared(p, lambda: _q_region(p))


def _q_region(p: RegionParams) -> Region:
    hexagon, notch, layout = _q_parts(p)
    if not notch <= hexagon:
        raise Unbalanced("notch sticks out of the hexagon for %r" % (p,))
    codes = list(hexagon - notch)
    if 2 * sum(c & 1 for c in codes) != len(codes):
        raise Unbalanced("region is not balanced for %r" % (p,))
    width = p.x + p.y + p.a + p.b + p.c
    sw_level = 0 if p.b == 0 and p.c == 0 else None
    return coded_region(codes, layout, p, Frames(base_row=0, se_i=width, sw_level=sw_level))


def q_region_triangle_count(p: RegionParams) -> int:
    """len(build_q_region(p)) without building it: the hexagon's
    L^2 - n2^2 - n4^2 - n6^2 triangles, L = n4 + n5 + n6, less the notch's
    m^2 + a^2 + b^2 + c^2."""
    n2, n4, n6 = p.x + p.y + p.m, p.z + p.m, p.t + p.m
    side = n4 + p.x + p.y + p.a + p.b + p.c + n6
    return side**2 - n2**2 - n4**2 - n6**2 - (p.m**2 + p.a**2 + p.b**2 + p.c**2)


# The notched hexagon's degenerations, each as a projection of its own
# arguments to RegionParams; builders and closed formulas both go through it.


def region_params(*values: int) -> RegionParams:
    """RegionParams(*values), checked once per tuple of ints inside shared_work."""
    if {*map(type, values)} != {int}:  # 1.0 == 1 and True == 1, yet only ints pass
        return RegionParams(*values)
    return shared(("params", values), lambda: RegionParams(*values), lasting=True)


def hexagon_params(a: int, b: int, c: int) -> RegionParams:
    """The hexagon with sides a, b, c, a, b, c: no notch, x = b, z = a, t = c."""
    return region_params(b, 0, a, c, 0, 0, 0, 0)


def k_region_params(a: int, x: int, y: int, z: int, t: int) -> RegionParams:
    """A single up-pointing notch of size a: m = b = c = 0."""
    return region_params(x, y, z, t, 0, a, 0, 0)


def magnet_bar_params(m: int, a: int, x: int, y: int, z: int, t: int) -> RegionParams:
    """A bar-with-pendant notch: b = c = 0."""
    return region_params(x, y, z, t, m, a, 0, 0)


def build_hexagon(a: int, b: int, c: int) -> Region:
    """Hexagon with clockwise sides a, b, c, a, b, c from the northwest."""
    return build_q_region(hexagon_params(a, b, c))


def build_k_region(a: int, x: int, y: int, z: int, t: int) -> Region:
    """Hexagon with a single up-pointing triangular notch of size a on the base."""
    return build_q_region(k_region_params(a, x, y, z, t))


def build_magnet_bar(m: int, a: int, x: int, y: int, z: int, t: int) -> Region:
    """The b = c = 0 notch specialization: a bar-with-pendant hole."""
    return build_q_region(magnet_bar_params(m, a, x, y, z, t))


def validate_dents(a: int, b: int, dents: Iterable[int]) -> list[int]:
    """The dent list of the half-hexagon with sides a, b, a, or BadDents
    unless both sides are nonnegative and the dents are a distinct
    positions in 1..a+b."""
    dents = list(dents)
    if a < 0 or b < 0:
        raise BadDents("semihexagon sides must be nonnegative, got a=%d, b=%d" % (a, b))
    if len(set(dents)) != len(dents):
        raise BadDents("duplicate dent positions in %r" % (dents,))
    if len(dents) != a:
        raise BadDents("need exactly %d dents, got %d" % (a, len(dents)))
    if any(not 1 <= s <= a + b for s in dents):
        raise BadDents("dent positions must lie in 1..%d: %r" % (a + b, dents))
    return dents


def build_semihexagon_dented(a: int, b: int, dents: Iterable[int]) -> Region:
    """Top half of the hexagon with sides a, b, a: a trapezoid of height a
    with base a+b, minus the up-pointing base triangles at the 1-indexed
    positions in `dents` (exactly a of them, so the result is balanced):
    up(0, s - 1) has code 2s + 1 in the trapezoid's layout."""
    dents = validate_dents(a, b, dents)
    layout = (a + b + 2, (0, -1))
    codes = _hexagon_codes(a, b, a, 0, a + b, 0, layout) - {2 * s + 1 for s in dents}
    return coded_region(list(codes), layout, None, Frames(base_row=0, se_i=None, sw_level=None))
