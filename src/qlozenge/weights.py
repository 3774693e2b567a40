"""The four q-weight assignments on lozenges.

Three of them are local: wt1 and wt2 weight right lozenges by a lattice
distance (to the southeast side, resp. above the base), wt3 weights
vertical lozenges by the distance to the southwest corner level.  All
other orientations carry weight 1 (exponent 0).  The offset conventions
below are pinned by the unit-hexagon calibration tests and by matching
the closed product formulas; do not adjust one without the other.

down_weight resolves an assignment on a region once: it fails if the
region's frame lacks the line the assignment measures from, whatever
lozenges the region holds, and returns each lozenge's exponent from its
orientation and its down triangle.  No lozenge may have a negative
exponent: refuse_negative is the one rule both enumeration routes apply
to a region's lozenges, and it names the lozenge of least exponent.

wt0 weights a tiling by the number of unit cubes in the pile the tiling
depicts.  That exponent is a property of the whole pile, not of any one
lozenge (the same right lozenge can cap columns of different heights in
different tilings), so wt0 only exists at tiling level: a pile's volume is
its tiling's wt2 exponent less the empty pile's, g(p).  Both enumeration
routes take that one rule from here: enumeration_weight before they
enumerate, less_offset after.
"""

from __future__ import annotations

from enum import Enum
from math import comb
from typing import Callable, Iterable

from .lattice import RIGHT, VERTICAL, Region, RegionParams
from .qalgebra import NonExactDivision, QPoly


class MissingFrame(ValueError):
    """The region does not carry the reference side this weight needs."""


class WeightUndefined(ValueError):
    """wt0 has no per-lozenge exponent; see enumeration_weight."""


class NegativeVolume(ValueError):
    """A cube count came out negative: a convention broke somewhere."""


class WeightAssignment(Enum):
    WT0 = "wt0"
    WT1 = "wt1"
    WT2 = "wt2"
    WT3 = "wt3"


def down_weight(w: WeightAssignment, region: Region) -> Callable[[str, int, int], int]:
    """The q-exponent assignment w gives the lozenge of orientation o on the
    region's down triangle (row, pos), as exponent(o, row, pos); 0 for the
    orientations w ignores.  Raises MissingFrame when the region lacks the
    line w measures from, and WeightUndefined for wt0."""
    if w is WeightAssignment.WT0:
        raise WeightUndefined("wt0 is defined per tiling, not per lozenge")
    frames = region.frames
    if frames is None:
        raise MissingFrame("region carries no frame data")
    # A right lozenge's up triangle shares its down triangle's row and pos.
    if w is WeightAssignment.WT1:
        origin, need = frames.se_i, "wt1 needs the southeast side position"
        exponent = lambda o, row, pos: origin - pos if o == RIGHT else 0
    elif w is WeightAssignment.WT2:
        origin, need = frames.base_row, "wt2 needs the base row"
        exponent = lambda o, row, pos: row - origin + 1 if o == RIGHT else 0
    else:
        origin, need = frames.sw_level, "wt3 needs the southwest corner level"
        exponent = lambda o, row, pos: pos + row + 2 - origin if o == VERTICAL else 0
    if origin is None:
        raise MissingFrame(need)
    return exponent


def refuse_negative(
    exponent: Callable[[str, int, int], int], lozenges: Iterable[tuple[str, int, int]]
) -> None:
    """Raise ValueError if some lozenge, given as (orientation, down row,
    down pos), has a negative exponent: it names the one of least exponent,
    ties going to the lower row, then the lower pos."""
    least = min(((exponent(o, r, p), r, p, o) for o, r, p in lozenges), default=(0,))
    if least[0] < 0:
        e, row, pos, o = least
        where = (o, (row, pos), e)
        raise ValueError("%s lozenge at down triangle %r has negative exponent %d" % where)


def f_exponent(p: RegionParams) -> int:
    """wt1-exponent of the empty-pile tiling, as a closed form in the
    region parameters (independent of t)."""
    return (
        p.m * comb(p.y + p.b + 1, 2)
        + p.z * comb(p.y + 1, 2)
        + p.m * (p.z + p.b) * (p.y + p.a + p.b)
        + (p.z + p.b) * comb(p.m + 1, 2)
        + p.x * (p.z + p.b + p.c) * (p.y + p.m + p.a + p.b + p.c)
        + (p.z + p.b + p.c) * comb(p.x + 1, 2)
        + p.a * (p.x + p.c) * (p.y + p.a + p.b)
        + p.a * comb(p.x + p.c + 1, 2)
    )


def g_exponent(p: RegionParams) -> int:
    """wt2-exponent of the empty-pile tiling (independent of t)."""
    return (
        (p.y + p.b) * comb(p.m + 1, 2)
        + p.m * p.y * p.z
        + p.y * comb(p.z + 1, 2)
        + p.m * (p.z + p.b) * (p.m + p.a)
        + p.m * comb(p.z + p.b + 1, 2)
        + p.x * (p.m + p.a) * (p.z + p.b + p.c)
        + p.x * comb(p.z + p.b + p.c + 1, 2)
        + (p.x + p.c) * comb(p.a + 1, 2)
    )


def enumeration_weight(w: WeightAssignment, region: Region) -> tuple[WeightAssignment, int]:
    """The weight to enumerate for w, and the exponent less_offset takes off
    the result: (w, 0), or for wt0 (wt2, g of the region's parameters).
    Raises MissingFrame when wt0 meets a region that records no parameters,
    whatever tilings it has."""
    if w is not WeightAssignment.WT0:
        return w, 0
    if region.params is None:
        raise MissingFrame("wt0 needs a parameter-tagged region")
    return WeightAssignment.WT2, g_exponent(region.params)


def less_offset(poly: QPoly, offset: int) -> QPoly:
    """poly shifted down by offset, poly itself when offset is 0.  Raises
    NegativeVolume when that would leave a negative exponent."""
    try:
        return poly.shift(-offset)
    except NonExactDivision:
        vol = min(poly.terms) - offset
        raise NegativeVolume("volume %d < 0; weight conventions are broken" % vol) from None
