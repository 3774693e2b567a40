"""Seeded inputs for the three workloads, as argv lists for ``qlozenge``.

The program sees only the argv lists.  Draws are accepted by a band on a
property of the input, never on a measured time:

* ``frontier`` picks regions whose *sweep work* lies in a narrow band
  around a per-slot target.  Sweep work is the number of state transitions
  of a row-by-row frontier scan of the region (``shadow_sweep`` runs it on
  exponent ranges, not on polynomials), plus the polynomial terms those
  transitions carry, weighted by their relative cost.  Parameter sums alone
  do not pin the cost: at equal sums two ``q_region`` calls differed by a
  factor of 60.  Finding in-band regions takes minutes, so the candidates
  are kept in ``frontier_catalog.json`` and a seed picks among them.
* ``closed`` draws parameters with a fixed sum and keeps a draw when its
  *expansion work*, the coefficient products needed to expand the
  hyperfactorial ratio, lies in a narrow band around a per-slot target.
* ``suite`` takes no seed: the program builds its own task list.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

SUITE_MAX_SUM = 5
SUITE_JOBS = 2

# Cost of one polynomial term relative to one state transition, fitted on
# hexagon, q_region, magnet_bar, k_region and semihexagon sweeps (it only
# weighs the two counts against each other; it is not a time).
TERM_WEIGHT = 0.055
BAND = 0.06


def shadow_sweep(triangles, weight: str, limit: float = float("inf")) -> float:
    """Sweep work of a region: transitions plus weighted polynomial terms.

    Mirrors the shape of a bottom-to-top frontier scan: a state is the set
    of positions in the next row already claimed by vertical lozenges, and
    within a row a pending carry says whether the previous triangle waits
    for a partner.  Instead of a polynomial each state carries the range of
    exponents it can hold, which is all the cost depends on.  ``weight``
    is ``count`` for a plain count (every state stays a constant).  The
    scan stops early, returning what it counted so far, once that exceeds
    ``limit``.
    """
    rows: dict[int, tuple[set, set]] = {}
    for t in triangles:
        rows.setdefault(t.row, (set(), set()))[0 if t.orient == "U" else 1].add(t.pos)
    right_exp = {"wt1": lambda r, p: -p, "wt2": lambda r, p: r}.get(weight)
    vertical_exp = (lambda r, p: p + r) if weight == "wt3" else None

    def put(bucket, key, lo, hi):
        old = bucket.get(key)
        bucket[key] = (lo, hi) if old is None else (min(old[0], lo), max(old[1], hi))

    empty: tuple[set, set] = (set(), set())
    states = {frozenset(): (0, 0)}
    transitions = terms = 0
    for r in range(min(rows), max(rows) + 1):
        ups, downs = rows.get(r, empty)
        if not ups and not downs:
            continue
        ups_above = rows.get(r + 1, empty)[0]
        span = range(min(ups | downs), max(ups | downs) + 1)
        new_states: dict = {}
        for mask, exps in states.items():
            inner = {(0, frozenset()): exps}
            for p in span:
                if p in ups:
                    nxt: dict = {}
                    for (carry, out), (lo, hi) in inner.items():
                        transitions += 1
                        terms += hi - lo + 1
                        if carry == 1:
                            if p not in mask:
                                put(nxt, (0, out), lo, hi)
                        elif p in mask:
                            put(nxt, (0, out), lo, hi)
                        elif p in downs:
                            e = right_exp(r, p) if right_exp else 0
                            put(nxt, (2, out), lo + e, hi + e)
                    inner = nxt
                if p in downs:
                    nxt = {}
                    for (carry, out), (lo, hi) in inner.items():
                        transitions += 1
                        terms += hi - lo + 1
                        if carry == 2:
                            put(nxt, (0, out), lo, hi)
                            continue
                        if p + 1 in ups:
                            put(nxt, (1, out), lo, hi)
                        if p in ups_above:
                            e = vertical_exp(r + 1, p) if vertical_exp else 0
                            put(nxt, (0, out | {p}), lo + e, hi + e)
                    inner = nxt
            for (carry, out), exps in inner.items():
                if carry == 0:
                    put(new_states, out, *exps)
        states = new_states
        if transitions + TERM_WEIGHT * terms > limit:
            break
    return transitions + TERM_WEIGHT * terms


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


# ---------------------------------------------------------------------------
# frontier


def _region(lattice, family: str, ps):
    if family == "hexagon":
        return lattice.build_hexagon(*ps)
    if family == "q_region":
        return lattice.build_q_region(lattice.RegionParams(*ps))
    if family == "magnet_bar":
        return lattice.build_magnet_bar(*ps)
    if family == "k_region":
        return lattice.build_k_region(*ps)
    a, b, dents = ps
    return lattice.build_semihexagon_dented(a, b, dents)


def _region_argv(family: str, ps) -> list[str]:
    if family == "semihexagon":
        a, b, dents = ps
        return ["--a", str(a), "--b", str(b), "--dents", _csv(dents)]
    return ["--params", _csv(ps)]


def _grid(lo: int, hi: int, n: int):
    return lambda rng: itertools.product(range(lo, hi + 1), repeat=n)


def _sampled(lo: int, hi: int, n: int, size: int):
    return lambda rng: (tuple(rng.randint(lo, hi) for _ in range(n)) for _ in range(size))


def _semihexagons(rng: random.Random):
    for _ in range(4000):
        a, b = rng.randint(5, 9), rng.randint(3, 9)
        yield (a, b, tuple(sorted(rng.sample(range(1, a + b + 1), a))))


# One slot per call: (family, weights the family supports here, candidate
# parameters, triangle-count window, target sweep work).  Every builder
# family appears; the count sits beside the genfun calls so that degree-0
# sweeps are measured too.  The window only skips candidates that cannot
# reach the band; the targets put each call near a third of a second on a
# 2-core machine.
FRONTIER_SLOTS = (
    ("hexagon", ("wt1", "wt2"), _grid(3, 8, 3), (120, 200), 110_000),
    ("hexagon", ("wt0",), _grid(3, 8, 3), (120, 200), 90_000),
    ("q_region", ("wt1", "wt2"), _sampled(0, 3, 8, 3000), (130, 220), 80_000),
    ("magnet_bar", ("wt3",), _grid(0, 4, 6), (120, 180), 80_000),
    ("k_region", ("wt2",), _grid(0, 6, 5), (110, 190), 80_000),
    ("semihexagon", ("wt2",), _semihexagons, (110, 210), 80_000),
    ("q_region", ("count",), _sampled(0, 3, 8, 3000), (130, 280), 90_000),
)
CATALOG = Path(__file__).with_name("frontier_catalog.json")
CATALOG_SIZE = 48


def slot_catalog(slot) -> list[dict]:
    """Every candidate of a slot whose sweep work lies in the band.

    Deterministic: sampled candidate spaces use a fixed generator seed.
    Slow (minutes for all slots), so the result is committed as
    ``frontier_catalog.json`` and the seeded draws pick from it.
    """
    from qlozenge import lattice

    family, weights, candidates, (fewest, most), target = slot
    accepted = []
    for ps in candidates(random.Random(0)):
        try:
            region = _region(lattice, family, ps)
        except ValueError:
            continue
        if not fewest <= len(region.triangles) <= most:
            continue
        for weight in weights:
            sweep_weight = "wt2" if weight == "wt0" else weight
            work = shadow_sweep(region.triangles, sweep_weight, (1 + BAND) * target)
            if abs(work - target) <= BAND * target:
                accepted.append({"params": list(ps), "weight": weight, "work": round(work)})
    if len(accepted) > CATALOG_SIZE:
        accepted = sorted(random.Random(1).sample(accepted, CATALOG_SIZE), key=str)
    return accepted


def frontier_items(seed: int) -> list[dict]:
    """One ``genfun``/``count`` call per slot, drawn from the slot's catalog."""
    rng = random.Random(seed)
    catalog = json.loads(CATALOG.read_text())
    items = []
    for (family, *_), entries in zip(FRONTIER_SLOTS, catalog):
        entry = rng.choice(entries)
        ps, weight = entry["params"], entry["weight"]
        if weight == "count":
            argv = ["count", family, *_region_argv(family, ps)]
        else:
            argv = ["genfun", family, *_region_argv(family, ps), "--weight", weight]
        items.append({"argv": argv, "family": family, "weight": weight, "params": ps})
    return items


# ---------------------------------------------------------------------------
# closed


def hyperfactorial_arguments(name: str, ps) -> tuple[list[int], list[int]]:
    """Arguments n of the q-hyperfactorials H(n) over and under each formula's
    fraction bar, as printed in the paper's product formulas."""
    if name == "macmahon":
        a, b, c = ps
        return [a, b, c, a + b + c], [a + b, b + c, c + a]
    if name == "qmain":
        x, y, z, t, m, a, b, c = ps
        k = m + a + b + c
        num = [k + x + y + z + t, k + x + t, k + x + y, k + y + z, x, y, z, t, m, m, m,
               a, a, b, c, k, m + b + c + z + t, m + a + c + x, m + a + b + y, c + x + t, b + y + z]
        den = [k + x + y + t, k + x + y + z, k + z + t, k + x, k + y, x + t, y + z, m + a, m + a,
               m + b, m + c, m + b + y + z, m + c + x + t, a + c + x, a + b + y, b + c + z + t]
        return num, den
    if name in ("magnet_m2", "magnet_m3"):
        m, a, x, y, z, t = ps
        k = m + a
        num = [k + x + y + z + t, k + x + t, k + x + y, k + y + z, x, y, z, t, m, a, a,
               m + z + t, k + x, k + y]
        den = [k + x + y + t, k + x + y + z, k + z + t, k + x, k + y, a + x, a + y, z + t, k,
               m + y + z, m + x + t]
        return num, den
    a, x, y, z, t = ps
    return ([a, x, y, z, t, a + x + t, a + x + y, a + y + z, a + x + y + z + t],
            [x + t, a + x, a + y, y + z, a + x + y + t, a + x + y + z, a + t + z])


def _exponents(name: str, ps) -> dict[int, int]:
    """e_j with the formula equal to prod_j [j]^(e_j), as H(n) = prod_j [j]^(n-j)."""
    num, den = hyperfactorial_arguments(name, ps)
    exps: dict[int, int] = {}
    for sign, args in ((1, num), (-1, den)):
        for n in args:
            for j in range(1, n):
                exps[j] = exps.get(j, 0) + sign * (n - j)
    return {j: e for j, e in exps.items() if e}


def expansion_work(name: str, ps) -> int:
    """Coefficient products needed to expand a hyperfactorial ratio.

    Expanding prod_j [j]^(e_j) the plain way raises each [j] to |e_j| by
    squaring, multiplies the powers into a numerator and a denominator, and
    divides; a product of polynomials of degrees d1 and d2 costs
    (d1+1)(d2+1) coefficient products, since products of q-integers have
    no zero coefficients.
    """
    work = 0
    degree = {1: 0, -1: 0}
    for j, e in sorted(_exponents(name, ps).items()):
        power, base, k = 0, j - 1, abs(e)
        while k:
            if k & 1:
                work += (power + 1) * (base + 1)
                power += base
            work += (base + 1) ** 2
            base, k = 2 * base, k >> 1
        side = 1 if e > 0 else -1
        work += (degree[side] + 1) * (power + 1)
        degree[side] += power
    return work + (degree[1] - degree[-1] + 1) * (degree[-1] + 1)


def min_widest_bits(name: str, ps) -> int:
    """A lower bound on the bit length of the formula's widest coefficient.

    At q = 1 the polynomial is the tiling count, spread over degree + 1
    coefficients, so some coefficient is at least count // (degree + 1).
    """
    exps = _exponents(name, ps)
    value = 1
    for j, e in exps.items():
        value *= j ** e if e > 0 else 1
    for j, e in exps.items():
        if e < 0:
            value, rem = divmod(value, j ** -e)
            if rem:
                raise ArithmeticError("hyperfactorial ratio is not an integer")
    degree = sum(e * (j - 1) for j, e in exps.items())
    return (value // (degree + 1)).bit_length()


def _fixed_sum(rng: random.Random, n: int, lo: int, hi: int, total: int) -> tuple[int, ...]:
    """A uniform draw of n entries in [lo, hi] summing to total."""
    while True:
        entries = tuple(rng.randint(lo, hi) for _ in range(n))
        if sum(entries) == total:
            return entries


# (formula name, entries, entry range, parameter sum, target expansion
# work, least widest-coefficient bits).  A draw is kept when its expansion
# work lies in the band around the target.  The second qmain slot is the
# wide one: its coefficients are provably wider than 256 bits, where a
# guessed packing width would go wrong.
CLOSED_SLOTS = (
    ("macmahon", 3, (8, 12), 30, 1_920_000, 0),
    ("qmain", 8, (3, 6), 36, 2_030_000, 0),
    ("qmain", 8, (4, 7), 42, 5_310_000, 257),
    ("magnet_m2", 6, (4, 7), 33, 1_550_000, 0),
    ("magnet_m3", 6, (4, 7), 33, 1_550_000, 0),
    ("k_region", 5, (5, 8), 33, 1_620_000, 0),
)


def closed_items(seed: int) -> list[dict]:
    """One ``formula`` call per slot, each within the expansion-work band."""
    rng = random.Random(seed)
    items = []
    for name, n, (lo, hi), total, target, bits in CLOSED_SLOTS:
        while True:
            ps = _fixed_sum(rng, n, lo, hi, total)
            if abs(expansion_work(name, ps) - target) <= BAND * target:
                if not bits or min_widest_bits(name, ps) >= bits:
                    break
        items.append({"argv": ["formula", name, "--params", _csv(ps)], "family": name, "params": list(ps)})
    return items


# ---------------------------------------------------------------------------
# suite


def suite_items(jobs: int = SUITE_JOBS) -> list[dict]:
    argv = ["verify", "--suite", "all", "--max-sum", str(SUITE_MAX_SUM), "--jobs", str(jobs)]
    return [{"argv": argv, "family": "all", "params": [SUITE_MAX_SUM]}]


def items_for(workload: str, seed: int, jobs: int = SUITE_JOBS) -> list[dict]:
    if workload == "frontier":
        return frontier_items(seed)
    if workload == "closed":
        return closed_items(seed)
    if workload == "suite":
        return suite_items(jobs)
    raise ValueError("unknown workload %r" % (workload,))


WORKLOADS = ("frontier", "closed", "suite")
