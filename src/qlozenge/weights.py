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
orientation and its down triangle; lozenge_weight reads it off a Lozenge.

wt0 weights a tiling by the number of unit cubes in the pile the tiling
depicts.  That exponent is a property of the whole pile, not of any one
lozenge (the same right lozenge can cap columns of different heights in
different tilings), so wt0 only exists at tiling level: see
tiling_volume.
"""

from __future__ import annotations

from enum import Enum
from math import comb
from typing import Callable

from .lattice import RIGHT, VERTICAL, Lozenge, Region, RegionParams


class MissingFrame(ValueError):
    """The region does not carry the reference side this weight needs."""


class WeightUndefined(ValueError):
    """wt0 has no per-lozenge exponent; use tiling_volume instead."""


class NegativeVolume(ValueError):
    """A cube count came out negative: a convention broke somewhere."""


class WeightAssignment(Enum):
    WT0 = "wt0"
    WT1 = "wt1"
    WT2 = "wt2"
    WT3 = "wt3"


Tiling = frozenset


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


def lozenge_weight(w: WeightAssignment, region: Region) -> Callable[[Lozenge], int]:
    """down_weight(w, region) of a Lozenge, whose second triangle is down."""
    exponent = down_weight(w, region)
    return lambda loz: exponent(loz.orientation, loz.second.row, loz.second.pos)


def tiling_exponent(w: WeightAssignment, region: Region, tiling: Tiling) -> int:
    """Total q-exponent of a tiling: the sum over its lozenges."""
    return sum(map(lozenge_weight(w, region), tiling))


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


def wt0_params(region: Region) -> RegionParams:
    """The parameters a wt0 pile is measured against, or MissingFrame when
    the region records none, whatever tilings it has."""
    if region.params is None:
        raise MissingFrame("wt0 needs a parameter-tagged region")
    return region.params


def tiling_volume(region: Region, tiling: Tiling) -> int:
    """Number of unit cubes in the pile this tiling depicts.

    Uses the wt2 route: the wt2-exponent of a tiling exceeds that of the
    empty pile by exactly the pile's volume.  The wt1/f route must agree;
    the tests hold both routes to that.
    """
    empty = g_exponent(wt0_params(region))
    vol = tiling_exponent(WeightAssignment.WT2, region, tiling) - empty
    if vol < 0:
        raise NegativeVolume("volume %d < 0; weight conventions are broken" % vol)
    return vol
