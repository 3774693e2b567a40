"""Tiling enumeration: a naive exhaustive oracle and a frontier engine,
plus the region surgery of the removal identities (kuo_remove).

The two routes share one contract (the generating function of a region
under a weight assignment, a plain QPoly) and deliberately share no
enumeration code; tests pit them against each other.  Both, and the
surgery, find neighbours on region.encoding's integer codes (made once
per region; kuo_remove's parts take theirs from the parent's), from the
one move table that a test checks against the triangles' corners.  One
backtracker serves iter_tilings and the oracle: it numbers the triangles
in sorted order, lists each one's lozenges with later ones once as (pair
bitmask, label), and backtracks on one int: its lowest set bit is the
triangle to cover, and ^ takes a pair off.  It walks an explicit stack of
(uncovered mask, options left), so its depth, one frame per lozenge, has
no recursion limit.  A label is computed once per lozenge: a Lozenge for
iter_tilings, the lozenge's down_weight exponent for the oracle, which
sums a tiling's labels.  The engine sweeps the region one triangle at a
time carrying a boundary mask.  Both routes resolve the weight once per
region before they enumerate anything, and take wt0 from the weights
module's one rule: enumerate wt2, then less_offset.

The engine sweeps a region's normal form, made once per region: the
lozenges every tiling must contain stripped on the region's codes (each
kept as its orientation, down row and down pos; the strip does not
depend on the weight, and an untileable region gives 0 with no sweep),
and what is left re-coded as encode would, by arithmetic (recoded).  Its
stride and sorted codes are the region's shape.  A region's polynomial
is q to its forced lozenges' exponents times its shape's, and each
weight's exponent is affine in row and pos with slopes the weight fixes,
so the weight and the exponents it gives the lozenges at the shape's
corner (its frame origin, seen from the shape) fix every exponent on the
shape.  The sweep is keyed by (shape, weight, those exponents,
max_states); an equal key means equal exponent tables, and the region's
answer is that sweep decoded once, shifted by the forced lozenges'
exponents.  This is the package's one forced-lozenge strip.
The frame check and the negative-exponent check still run on the region
as asked, for every weight: down_weight first, then the bounds the
normal form keeps, each weight's exponent at the region's extreme
triangles (wt1 falls as a right lozenge's pos grows, wt2 grows with its
row, wt3 with a vertical one's row + pos).  No lozenge's exponent is
below them; only if one is negative does every lozenge of the region go
to weights.refuse_negative, the rule the oracle applies too.

Once per shape the engine picks the orientation whose lozenges cross
its sweep's rows.  Every tiling uses exactly k of the n candidate
lozenges of one orientation across a lattice line, k = |ups - downs| on
one side, so at most C(n, k) states meet there.  The plan takes the
least sum of C(n, k) over an orientation's lines, all three sums from
one pass over the codes; a tie keeps the region as built (vertical),
and left or right turn it a sixth of a turn, swapping up and down
triangles.

In that frame, with span positions to a row, up(r, p) sits in slot
2*(r*span + p) and down(r, p) in the next; a lozenge is a move of its
earlier triangle, bit d - 1 for a partner d slots ahead.  The exponent
tables list each triangle's slot, row (for budget errors) and (bit,
exponent) moves, rows and exponents taken in the region's own frame by
weights.down_weight from the plan's (orientation, down row, down pos) of
each lozenge, counted from the shape's corner, so no Lozenge is built.
A state is an int bitmask whose bit k says the triangle k slots ahead
is already covered; between visited triangles it shifts right by the
slot gap.  Every frame is a lattice image of the region, so an up
triangle has at most one move (next slot) and a down triangle two (next
slot, 2*span - 1 ahead): their other neighbours come earlier.  A state's
value is its polynomial Kronecker-packed into one int, the coefficient of
q^e in bytes e*B to (e+1)*B - 1, so a lozenge is a left shift and a merge
one addition.  No mask has more than three predecessors in a step
(pass-through, next-slot move, vertical move), so if every coefficient is
below 2**(8B - 2) before a step, every one is below 2**(8B) after it and
the packed sums are exact.  Slots start one byte wide.  A merge tests the
top two bits of each slot up to the largest exponent times half the
triangles (no state holds more lozenges); once one is set, the step ends
by re-spacing every state one byte wider.  Over all-zero tables the one slot is the count; a
weighted sweep is decoded by byte slices once, its coefficients summed.

Inside lattice.shared_work (verify runs each group of checks on one
region in such a block), the engine keeps each region's normal form,
each shape's plan and each (region, weight, max_states) answer for the
block, and each sweep in the block's lasting memo: each polynomial's
coefficients under its key, and each count, swept for or found by a
weighted sweep, under (shape, None, None, max_states).  So wt0 reuses
the wt2 sweep, a translate or a region that strips to the same shape
from the same frame origin sweeps nothing, and a budgeted call never
reads a result computed under another budget.  verify hands every group
of one run_suite call the same lasting memo, so each key is swept once a
suite run (once per pool worker).  Outside shared_work nothing is kept, and gen_function and
count_tilings take the same strip-then-sweep path.
"""

from __future__ import annotations

import json
import struct
from collections import Counter
from math import comb
from typing import Any, Callable, Collection, Iterator, NamedTuple, Optional

from .lattice import (
    LEFT,
    RIGHT,
    VERTICAL,
    Lozenge,
    Region,
    Triangle,
    code_moves,
    coded_region,
    recoded,
    region_json,
    shared,
)
from .qalgebra import QPoly
from .weights import WeightAssignment, down_weight, enumeration_weight
from .weights import less_offset, refuse_negative

DEFAULT_TRIANGLE_BUDGET = 120


class BudgetExceeded(RuntimeError):
    """The region is too large for the requested enumeration route."""


class BadMarks(ValueError):
    """Marked triangles violate the four-point boundary precondition."""


def region_digest(region: Region) -> str:
    # Imported here, as only a digest needs it: genfun and count print
    # none without --json.
    import hashlib

    return hashlib.sha256(region_json(region).encode("ascii")).hexdigest()


_ORIENT_LETTER = {RIGHT: "R", LEFT: "L", VERTICAL: "V"}


def tiling_json(tiling: "frozenset[Lozenge]") -> str:
    """Canonical JSON text for one tiling: each lozenge as its two triangles
    plus an orientation letter, the whole list sorted."""
    entries = sorted(
        [list(loz.first), list(loz.second), _ORIENT_LETTER[loz.orientation]]
        for loz in tiling
    )
    return json.dumps(entries, separators=(",", ":"))


def _lozenges(region: Region) -> Iterator[tuple[str, int, int]]:
    """(orientation, down row, down pos) of every lozenge the region holds."""
    codes, moves = region.encoding[:2]
    downs = [(c, t) for c, t in codes.items() if not c & 1]
    return ((o, t.row, t.pos) for c, t in downs for offset, o in moves[0] if c + offset in codes)


# ---------------------------------------------------------------------------
# oracle route: plain backtracking


def _options(region: Region, label: Callable[..., Any]) -> list[list[tuple[int, Any]]]:
    """Per triangle, in sorted order, each lozenge it makes with a later one
    as (pair bitmask, label(up, down, orientation))."""
    codes, moves = region.encoding[:2]
    index = {c: k for k, c in enumerate(sorted(codes))}
    options: list[list[tuple[int, Any]]] = []
    for c, k in index.items():
        options.append([])
        for offset, o in moves[c & 1]:
            n = c + offset
            if index.get(n, -1) > k:
                up, down = (codes[c], codes[n]) if c & 1 else (codes[n], codes[c])
                options[k].append((1 << k | 1 << index[n], label(up, down, o)))
    return options


def _tilings(options: list[list[tuple[int, Any]]], max_triangles: int) -> Iterator[list]:
    """Every tiling exactly once, deterministically, as the list of its
    lozenges' labels (one list, refilled per tiling): branches on the
    smallest uncovered triangle, trying its options in their order."""
    if len(options) > max_triangles:
        raise BudgetExceeded(
            "%d triangles exceed the enumeration budget of %d" % (len(options), max_triangles)
        )

    def walk(uncovered: int) -> Iterator[list]:
        # A frame for the region and one per lozenge placed, each the mask
        # still to cover and the options of its lowest triangle not yet
        # tried; acc holds the label of each placed lozenge.
        acc: list = []
        if not uncovered:
            yield acc
            return
        stack = [(uncovered, iter(options[0]))]
        while stack:
            uncovered, left = stack[-1]
            for pair, value in left:
                if uncovered & pair == pair:
                    break
            else:
                stack.pop()
                if acc:
                    acc.pop()
                continue
            acc.append(value)
            uncovered ^= pair
            if uncovered:
                stack.append((uncovered, iter(options[(uncovered & -uncovered).bit_length() - 1])))
            else:
                yield acc
                acc.pop()

    return walk((1 << len(options)) - 1)


def iter_tilings(
    region: Region, max_triangles: int = DEFAULT_TRIANGLE_BUDGET
) -> Iterator[frozenset[Lozenge]]:
    """Yield every tiling exactly once, deterministically, as a frozenset of
    Lozenges; BudgetExceeded beyond max_triangles, before the first draw."""
    return map(frozenset, _tilings(_options(region, Lozenge), max_triangles))


def gen_function_oracle(
    region: Region,
    w: WeightAssignment,
    max_triangles: int = DEFAULT_TRIANGLE_BUDGET,
) -> QPoly:
    """Generating function by brute force, one tiling at a time.  Every
    lozenge is weighed once, before the budget is read and any tiling is
    drawn, so a region it cannot weigh fails whether it has tilings or not."""
    weight, offset = enumeration_weight(w, region)
    exponent = down_weight(weight, region)
    options = _options(region, lambda up, down, o: exponent(o, down.row, down.pos))
    if min((e for lozenges in options for _, e in lozenges), default=0) < 0:
        refuse_negative(exponent, _lozenges(region))  # it names the least
    return less_offset(QPoly(Counter(map(sum, _tilings(options, max_triangles)))), offset)


# ---------------------------------------------------------------------------
# engine route: frontier dynamic programming


class _Form(NamedTuple):
    """A region as the engine sweeps it: what is left once its forced
    lozenges are stripped, encoded afresh, and where that sits."""

    shape: Optional[tuple[int, bytes]]  # stride and sorted packed codes left; None if untileable
    corner: tuple[int, int]  # the region's row and pos of the shape's row 0, pos 0
    forced: list[tuple[str, int, int]]  # (orientation, down row, down pos) of each forced lozenge
    lowest: list[tuple[str, int, int]]  # no lozenge's exponent is below these ones


def _form(region: Region) -> _Form:
    return shared(("form", region), lambda: _normal_form(region))


def _normal_form(region: Region) -> _Form:
    """Strip the lozenges every tiling must contain, whatever the weight.

    A worklist starts with every triangle that has fewer than two partners,
    smallest code first.  One with exactly one partner left goes with that
    partner, and the pair's remaining neighbours go back on the list; one
    with none stops the strip, as the region is untileable.
    """
    codes, moves, stride, corner = region.encoding
    to = {o: offset for offset, o in moves[0]}  # to a down triangle's partners, from an up's
    right, left, vertical = to[RIGHT], to[LEFT], to[VERTICAL]
    todo = [  # triangles of fewer than two partners
        c
        for c in codes
        if c & 1
        if (c - right in codes) + (c - left in codes) + (c - vertical in codes) < 2
    ]
    todo += [
        c
        for c in codes
        if not c & 1
        if (c + right in codes) + (c + left in codes) + (c + vertical in codes) < 2
    ]
    # Bounds on every lozenge's exponent, each weight's at the region's
    # extreme triangles: a right lozenge's falls as its pos grows (wt1) and
    # grows with its row (wt2), a vertical one's grows with row + pos (wt3).
    row0, pos0 = corner
    lowest = [
        (RIGHT, row0, pos0 + stride - 2),
        (VERTICAL, row0, min([r + p for r, p, _ in codes.values()], default=0) - row0),
    ]
    todo.sort(reverse=True)  # popped smallest first
    remaining = set(codes)
    forced: list[tuple[str, int, int]] = []
    while todo:
        c = todo.pop()
        if c not in remaining:
            continue
        options = [(c + offset, o) for offset, o in moves[c & 1] if c + offset in remaining]
        if not options:
            return _Form(None, corner, forced, lowest)
        if len(options) == 1:
            ((n, o),) = options
            down = codes[n if c & 1 else c]
            forced.append((o, down.row, down.pos))
            remaining -= {c, n}
            todo += [s + off for s in (c, n) for off, _ in moves[s & 1] if s + off in remaining]
    if forced:  # what is left, as encode would code it
        codes, (stride, corner) = recoded(list(remaining), (stride, corner))
    return _Form(_shape(stride, codes), corner, forced, lowest)


def _shape(stride: int, codes: Collection[int]) -> tuple[int, bytes]:
    """The codes as a memo key: the stride and the sorted codes packed
    eight bytes each, several times smaller than a set of them."""
    return stride, struct.pack("%dq" % len(codes), *sorted(codes))


class _Plan(NamedTuple):
    orientation: str  # the orientation whose lozenges cross the sweep's rows
    # (slot, row, [(bit, orientation, down row, down pos) of each lozenge it
    # takes]), in slot order; rows and positions counted from the shape's corner
    steps: list[tuple[int, int, list[tuple[int, str, int, int]]]]


# A triangle's slot in the frame whose rows each orientation crosses, from
# its own row r, pos p, d = 1 for down and the frame's positions to a row:
# 2*(row*span + pos) + last, last 1 for the triangle a slot pair holds
# second.  Left turns the region a sixth of a turn clockwise, to row -p and
# pos r + p + d, right counterclockwise, to row r + p + d and pos -r; both
# swap up and down triangles.
_FRAMES = {
    VERTICAL: lambda r, p, d, span: 2 * (r * span + p) + d,
    LEFT: lambda r, p, d, span: 2 * (r + p + d - p * span) + 1 - d,
    RIGHT: lambda r, p, d, span: 2 * ((r + p + d) * span - r) + 1 - d,
}


def _planned(shape: tuple[int, bytes]) -> _Plan:
    """The orientation of least line cost, and the shape's slots in its
    frame, each with the lozenges its triangle shares with later ones."""
    stride, packed = shape
    codes = struct.unpack("%dq" % (len(packed) // 8), packed)
    at = {c: divmod(c >> 1, stride) for c in codes}  # code -> (row, pos) in the shape
    moves = code_moves(stride)
    # band between two lines that vertical, left, right lozenges cross (of
    # constant row, pos, row + pos) -> ups - downs in the band
    rows, cols, diagonals = {}, {}, {}
    # per orientation, band -> candidate lozenges across the band's top line
    across: dict[str, dict[int, int]] = {o: {} for o in _FRAMES}
    lozenges = []  # (up code, down code, orientation, down row, down pos)
    for c, (r, p) in at.items():
        if c & 1:
            rows[r] = rows.get(r, 0) + 1
            cols[p] = cols.get(p, 0) + 1
            diagonals[r + p] = diagonals.get(r + p, 0) + 1
            continue
        rows[r] = rows.get(r, 0) - 1
        cols[p] = cols.get(p, 0) - 1
        diagonals[r + p + 1] = diagonals.get(r + p + 1, 0) - 1
        for (offset, o), line in zip(moves[0], (r + p, p, r)):
            if c + offset in at:
                lozenges.append((c + offset, c, o, r, p))
                across[o][line] = across[o].get(line, 0) + 1
    cost = {}
    for o, bands in ((VERTICAL, rows), (LEFT, cols), (RIGHT, diagonals)):
        cost[o] = below = 0
        for band in sorted(bands):
            below += bands[band]
            cost[o] += comb(across[o].get(band, 0), abs(below))
    orientation = min(cost, key=cost.__getitem__)  # a tie keeps the built frame
    positions = {VERTICAL: cols, LEFT: diagonals, RIGHT: rows}[orientation]  # p, r + p + d, -r
    span = max(positions, default=0) - min(positions, default=0) + 1
    frame = _FRAMES[orientation]
    slot = {c: frame(r, p, 1 - (c & 1), span) for c, (r, p) in at.items()}
    taken: dict[int, list[tuple[int, str, int, int]]] = {c: [] for c in at}
    for up, down, o, r, p in lozenges:
        a, b = slot[up], slot[down]
        taken[up if a < b else down].append((1 << (abs(a - b) - 1), o, r, p))
    return _Plan(orientation, sorted((slot[c], r, taken[c]) for c, (r, _) in at.items()))


# (slot, row, [(bit, exponent) of each lozenge the triangle takes]), in slot order
ExponentTables = list[tuple[int, int, list[tuple[int, int]]]]


def _exponent_tables(
    form: _Form, exponent: Optional[Callable[[str, int, int], int]]
) -> ExponentTables:
    """The sweep's steps on the form's shape, each triangle with the bit and
    exponent of every lozenge it takes with a later one, rows and exponents
    in the region's own frame; exponent None gives the all-zero exponents
    of plain counting."""
    row0, pos0 = form.corner
    weigh = exponent or (lambda o, r, p: 0)
    return [
        (slot, row + row0, [(bit, weigh(o, r + row0, p + pos0)) for bit, o, r, p in moves])
        for slot, row, moves in shared(("plan", form.shape), lambda: _planned(form.shape)).steps
    ]


def _sweep(tables: ExponentTables, max_states: Optional[int]) -> tuple[int, int]:
    """(sum of 2**(8 * size * exponent) over all tilings, size): size is the
    slot width in bytes, whose top two bits no coefficient reaches."""
    # No state holds over len(tables) / 2 lozenges, none above the largest exponent.
    slots = 1 + len(tables) // 2 * max([e for _, _, taken in tables for _, e in taken], default=0)
    size, high = 1, int.from_bytes(b"\xc0" * slots, "little")  # each slot's top two bits
    states = {0: 1}  # mask -> packed polynomial
    at = tables[0][0] if tables else 0  # the slot of bit 0
    for slot, row, taken in tables:
        if slot > at:
            states = {mask >> (slot - at): v for mask, v in states.items()}
        at = slot + 1
        moves = [(bit, 8 * size * e) for bit, e in taken]
        # bit 0 is this triangle: covered, it passes through; else it takes
        # a partner.  The new masks count from the next slot.
        nxt = {mask >> 1: v for mask, v in states.items() if mask & 1}
        full = 0  # whether a merged coefficient has reached 2**(8*size - 2)
        for mask, v in states.items():
            if not mask & 1:
                ahead = mask >> 1
                for bit, shift in moves:
                    if not ahead & bit:
                        # a fresh key takes v itself: v << 0 copies a big int
                        key = ahead | bit
                        if key in nxt:
                            merged = nxt[key] = nxt[key] + (v << shift if shift else v)
                            full = full or merged & high
                        else:
                            nxt[key] = v << shift if shift else v
        states = nxt
        if max_states is not None and len(states) > max_states:
            raise BudgetExceeded(
                "frontier needs %d states at row %d, budget is %d" % (len(states), row, max_states)
            )
        if full:  # keep every coefficient below 2**(8*size - 2)
            states = {mask: _respaced(v, size) for mask, v in states.items()}
            size += 1
            high = int.from_bytes((bytes(size - 1) + b"\xc0") * slots, "little")
    return states.get(0, 0), size


def _respaced(packed: int, size: int) -> int:
    """packed with each size-byte slot moved into a slot one byte wider."""
    if not packed >> (8 * size):  # one slot (or none) is already in place
        return packed
    slots = -(-packed.bit_length() // (8 * size))
    old, new = packed.to_bytes(slots * size, "little"), bytearray(slots * (size + 1))
    for k in range(size):
        new[k :: size + 1] = old[k::size]
    return int.from_bytes(new, "little")


def _frontier(region: Region, w: WeightAssignment, max_states: Optional[int]) -> QPoly:
    return shared((region, w, max_states), lambda: _shifted(region, w, max_states))


def _shifted(region: Region, w: WeightAssignment, max_states: Optional[int]) -> QPoly:
    """The region's polynomial under w: one sweep of its shape, shared with
    every region of that shape and the same exponents on it, decoded with
    every exponent raised by its forced lozenges' (see the module
    docstring)."""
    exponent = down_weight(w, region)
    form = _form(region)
    if any(exponent(*bound) < 0 for bound in form.lowest):
        refuse_negative(exponent, _lozenges(region))
    if form.shape is None:
        return QPoly(0)
    row0, pos0 = form.corner
    corner = tuple(exponent(o, row0, pos0) for o in (LEFT, RIGHT, VERTICAL))
    coefficients = shared(
        (form.shape, w, corner, max_states),
        lambda: _swept(form, exponent, max_states),
        lasting=True,
    )
    forced = sum(exponent(*lozenge) for lozenge in form.forced)
    return QPoly(coefficients, forced)


def _swept(
    form: _Form, exponent: Callable[[str, int, int], int], max_states: Optional[int]
) -> tuple[int, ...]:
    """The coefficients of the form's shape's polynomial, by exponent from 0;
    their sum is the shape's count, kept for count_tilings."""
    packed, size = _sweep(_exponent_tables(form, exponent), max_states)
    data = packed.to_bytes(-(-packed.bit_length() // (8 * size)) * size, "little")
    starts = range(0, len(data), size)
    coefficients = tuple(int.from_bytes(data[k : k + size], "little") for k in starts)
    shared((form.shape, None, None, max_states), lambda: sum(coefficients), lasting=True)
    return coefficients


def count_tilings(region: Region, max_states: Optional[int] = None) -> int:
    """Number of tilings (0 if untileable, 1 for the empty region)."""
    form = _form(region)
    if form.shape is None:
        return 0
    return shared(
        (form.shape, None, None, max_states),
        lambda: _sweep(_exponent_tables(form, None), max_states)[0],
        lasting=True,
    )


def gen_function(
    region: Region,
    w: WeightAssignment,
    max_states: Optional[int] = None,
) -> QPoly:
    """Generating function via the frontier sweep; exact, never sampled.

    wt0 is the wt2 sweep less the empty-pile exponent, the weights module's
    one rule for it (see enumeration_weight).
    """
    weight, offset = enumeration_weight(w, region)
    return less_offset(_frontier(region, weight, max_states), offset)


# ---------------------------------------------------------------------------
# region surgery: four-point boundary removal

def _outer_walks(region: Region) -> list[list[Triangle]]:
    """Triangles along the outer face of each connected component of the
    adjacency graph that has an edge, in walk order.

    Faces of the adjacency graph are orbits of the next-half-edge map of
    its planar embedding.  A bounded face winds counterclockwise, so its
    signed area is positive; a component's outer face winds the other way,
    area <= 0 (0 for a tree-like strip, whose only orbit it is).  Tracing
    faces rather than boundary edges matters: a triangle whose three
    neighbors all exist still sits on the outer face when it touches the
    region's boundary in a single point, and holes pinched to the boundary
    merge into the outer face the same way.  The four-point recurrences
    mark exactly such triangles.
    """
    codes, moves = region.encoding[:2]
    ring = {  # neighbours in counterclockwise order
        c: [c + offset for offset, _ in moves[c & 1] if c + offset in codes] for c in codes
    }
    walks = []
    seen = set()
    for start in sorted((c, n) for c, nbs in ring.items() for n in nbs):
        if start in seen:
            continue
        orbit = []
        edge = start
        while edge not in seen:
            seen.add(edge)
            orbit.append(edge[0])
            c, n = edge
            around = ring[n]
            edge = (n, around[around.index(c) - 1])
        # centroids scaled by 3, in the skew coordinates: up +1, down +2
        at = [(3 * codes[c].pos + 2 - (c & 1), 3 * codes[c].row + 2 - (c & 1)) for c in orbit]
        if sum(a[0] * b[1] - b[0] * a[1] for a, b in zip(at, at[1:] + at[:1])) <= 0:
            walks.append([codes[c] for c in orbit])
    return walks


def _marks_in_order(
    walk: list[Triangle], u: Triangle, v: Triangle, w: Triangle, s: Triangle
) -> bool:
    """Whether some visits of u, v, w, s along the walk come in that cyclic
    order, read in either direction: after some visit of u, one lap of the
    walk meets v, w, s or s, w, v in turn."""
    laps = [walk[k + 1 :] + walk[:k] for k, t in enumerate(walk) if t == u]
    return any(
        all(m in it for m in order)
        for lap in laps
        for order in ((v, w, s), (s, w, v))
        for it in [iter(lap)]
    )


def kuo_remove(region: Region, marked: list[Triangle]) -> list[Region]:
    """Validate four boundary marks and return the five derived regions.

    Order of the result: [R - {u,v,w,s}, R - {u,v}, R - {w,s}, R - {u,s},
    R - {v,w}].  The marks must alternate orientation (u, w one way and
    v, s the other) and appear in cyclic order on the outer boundary walk,
    read in either direction.  A region of several components has one
    outer walk each, and all four marks must lie on the same one: every
    other component multiplies both sides of the identity alike.
    """
    if len(marked) != 4 or len(set(marked)) != 4:
        raise BadMarks("need four distinct marked triangles")
    u, v, w, s = marked
    if any(t not in region.triangles for t in marked):
        raise BadMarks("marked triangles must lie in the region")
    if u.orient != w.orient or v.orient != s.orient or u.orient == v.orient:
        raise BadMarks("marks must alternate orientation as u, v, w, s")
    walks = _outer_walks(region)
    if any(all(t not in walk for walk in walks) for t in marked):
        raise BadMarks("every mark must lie on the outer boundary")
    if not any(_marks_in_order(walk, u, v, w, s) for walk in walks):
        raise BadMarks("marks are not in cyclic order on one component's outer boundary")
    codes, _, stride, corner = region.encoding
    at = {t: c for c, t in codes.items() if t in marked}
    removals = [{at[t] for t in gone} for gone in ((u, v, w, s), (u, v), (w, s), (u, s), (v, w))]
    return [
        coded_region([c for c in codes if c not in gone], (stride, corner), None, region.frames)
        for gone in removals
    ]

