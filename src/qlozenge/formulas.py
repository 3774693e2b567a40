"""Closed product evaluators for the tiling counts and volume sums.

Each evaluator writes its value as an exponent map over q-integers and
expands it once at the end with resolve, so a transcription slip
surfaces as a NonExactDivision instead of a silently wrong polynomial.
Results carry the full polynomial together with the q-power the
displayed form splits out in front of the hyperfactorial ratio.

Every notched-region formula is one product: theorem_qmain of the
family's RegionParams (see the projections in lattice) times a q-power.
MacMahon's box formula is the case with no notch and no q-power.

FAMILIES is the one table of region families: for each, its parameter
names, its builder and its closed formula per weight.  FORMULA_NAMES maps
each command-line formula name to a family and weight in it.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import accumulate, combinations
from math import comb, factorial
from typing import Callable, Mapping, NamedTuple

from .lattice import (
    Region,
    RegionParams,
    build_hexagon,
    build_k_region,
    build_magnet_bar,
    build_q_region,
    build_semihexagon_dented,
    hexagon_params,
    k_region_params,
    magnet_bar_params,
    region_params,
    validate_dents,
)
from .qalgebra import QPoly, resolve
from .weights import f_exponent, g_exponent


class FormulaResult(NamedTuple):
    """A closed-form value.

    poly is the complete polynomial, prefactor included; the recorded
    prefactor_exponent only says how much of it the displayed form pulls
    out in front.
    """

    poly: QPoly
    prefactor_exponent: int


def _count_factor_lists(p: RegionParams) -> tuple[list[int], list[int]]:
    """Hyperfactorial arguments shared by the count and its q-analogue."""
    x, y, z, t, m, a, b, c = p
    big = m + a + b + c
    num = [
        big + x + y + z + t,
        big + x + t,
        big + x + y,
        big + y + z,
        x,
        y,
        z,
        t,
        m,
        m,
        m,
        a,
        a,
        b,
        c,
        m + a + b + c,
        m + b + c + z + t,
        m + a + c + x,
        m + a + b + y,
        c + x + t,
        b + y + z,
    ]
    den = [
        big + x + y + t,
        big + x + y + z,
        big + z + t,
        big + x,
        big + y,
        x + t,
        y + z,
        m + a,
        m + a,
        m + b,
        m + c,
        m + b + y + z,
        m + c + x + t,
        a + c + x,
        a + b + y,
        b + c + z + t,
    ]
    return num, den


# Cache bounds.  theorem_qmain holds every RegionParams that the recurrence
# suite at --max-sum 8 asks for (7 821, about 1 KB each); the others need
# far fewer keys at the sizes the suites and the CLI reach.
_PARAMS_CACHE = 8192
_SMALL_CACHE = 1024


@lru_cache(maxsize=_SMALL_CACHE)
def _hyperfactorial_int(n: int) -> int:
    out = 1
    for k in range(1, n):
        out *= factorial(k)
    return out


@lru_cache(maxsize=_PARAMS_CACHE)
def theorem_main(p: RegionParams) -> int:
    """Number of tilings of the notched region, by the hyperfactorial product.

    Evaluated in plain integer arithmetic, independently of the q
    machinery, so it can cross-check theorem_qmain at q=1.
    """
    num, den = _count_factor_lists(p)
    top = 1
    for n in num:
        top *= _hyperfactorial_int(n)
    bottom = 1
    for n in den:
        bottom *= _hyperfactorial_int(n)
    value, rem = divmod(top, bottom)
    if rem:
        raise ArithmeticError("hyperfactorial ratio is not an integer for %r" % (p,))
    return value


@lru_cache(maxsize=_PARAMS_CACHE)
def theorem_qmain(p: RegionParams) -> FormulaResult:
    """Volume generating function over the notched region's tilings."""
    return FormulaResult(resolve(_hyperfactorial_exponents(*_count_factor_lists(p))), 0)


def _hyperfactorial_exponents(num: list[int], den: list[int]) -> dict[int, int]:
    """The nonzero e_j with prod_j [j]^(e_j) = prod H(num) / prod H(den).  As
    H(n) = [0]! ... [n-1]! = prod_{j<n} [j]^(n-j), e_j = sum_{n>j} c_n (n - j),
    c_n being the count of n in num less that in den: c's second suffix sum."""
    c = Counter(num)
    c.subtract(den)
    tops = range(max(c, default=1), 1, -1)
    return {n - 1: e for n, e in zip(tops, accumulate(accumulate(c[n] for n in tops))) if e}


def _qmain_times(p: RegionParams, exponent: Callable[[RegionParams], int]) -> FormulaResult:
    """theorem_qmain(p) times q^exponent(p), that power being the prefactor."""
    pre = exponent(p)
    return FormulaResult(theorem_qmain(p).poly.shift(pre), pre)


def macmahon_q(a: int, b: int, c: int) -> FormulaResult:
    """Volume generating function of plane partitions in an a x b x c box:
    theorem_qmain with no notch."""
    return theorem_qmain(hexagon_params(a, b, c))


def hex_M1(a: int, b: int, c: int) -> FormulaResult:
    """First hexagon q-count: q^(ab(b+1)/2) times the box polynomial."""
    return _qmain_times(hexagon_params(a, b, c), f_exponent)


def hex_M2(a: int, b: int, c: int) -> FormulaResult:
    """Second hexagon q-count: q^(ba(a+1)/2) times the box polynomial."""
    return _qmain_times(hexagon_params(a, b, c), g_exponent)


def k_region_M2(a: int, x: int, y: int, z: int, t: int) -> FormulaResult:
    """Second q-count of the one-lobe cornered region."""
    return _qmain_times(k_region_params(a, x, y, z, t), g_exponent)


def _bar_wt3_exponent(p: RegionParams) -> int:
    """wt3-exponent of the empty-pile tiling when b = c = 0 (wt3 needs that)."""
    return (
        p.m * comb(p.a + 1, 2)
        + p.t * comb(p.z + p.a + 1, 2)
        + p.a * (p.z + p.m) * (p.x + p.a)
        + p.a * comb(p.z + p.m + 1, 2)
    )


def magnet_M2(m: int, a: int, x: int, y: int, z: int, t: int) -> FormulaResult:
    """Second q-count of the bar region (lobe plus core on the boundary)."""
    return _qmain_times(magnet_bar_params(m, a, x, y, z, t), g_exponent)


def magnet_M3(m: int, a: int, x: int, y: int, z: int, t: int) -> FormulaResult:
    """Third q-count of the bar region; same ratio as magnet_M2."""
    return _qmain_times(magnet_bar_params(m, a, x, y, z, t), _bar_wt3_exponent)


def semihex_dents_M2(a: int, b: int, dents) -> FormulaResult:
    """Generating function of the dented half-hexagon's tilings.

    Equals the column-strict fillings enumerated by the dent positions:
    q^(sum s_i - i) times the double product of shifted q-integer ratios.
    """
    return _semihex_cached(a, b, tuple(dents))


@lru_cache(maxsize=_SMALL_CACHE)
def _semihex_cached(a: int, b: int, dents: tuple[int, ...]) -> FormulaResult:
    s = sorted(validate_dents(a, b, dents))
    shown = sum(si - i for i, si in enumerate(s, start=1))
    # (q^s_j - q^s_i) / (q^j - q^i) = q^(s_i - i) [s_j - s_i] / [j - i]
    pairs = list(combinations(range(len(s)), 2))
    exponents = Counter(s[j] - s[i] for i, j in pairs)
    exponents.subtract(j - i for i, j in pairs)
    prefactor = shown + sum(s[i] - (i + 1) for i, _ in pairs)
    return FormulaResult(resolve(exponents, prefactor), shown)


# ---------------------------------------------------------------------------
# region families


class Family(NamedTuple):
    """One degeneration of the notched hexagon.

    params names the builder's arguments in order.  build takes them and
    returns the region; formulas maps a weight name ("wt0" to "wt3", or
    "count" for the plain tiling count) to the closed formula over the same
    arguments.
    """

    params: tuple[str, ...]
    build: Callable[..., Region]
    formulas: Mapping[str, Callable]


FAMILIES: dict[str, Family] = {
    "hexagon": Family(
        ("a", "b", "c"), build_hexagon, {"wt0": macmahon_q, "wt1": hex_M1, "wt2": hex_M2}
    ),
    "semihexagon": Family(
        ("a", "b", "dents"), build_semihexagon_dented, {"wt2": semihex_dents_M2}
    ),
    "k_region": Family(("a", "x", "y", "z", "t"), build_k_region, {"wt2": k_region_M2}),
    "magnet_bar": Family(
        ("m", "a", "x", "y", "z", "t"),
        build_magnet_bar,
        {"wt2": magnet_M2, "wt3": magnet_M3},
    ),
    "q_region": Family(
        RegionParams._fields,
        lambda *ps: build_q_region(region_params(*ps)),
        {
            "count": lambda *ps: theorem_main(region_params(*ps)),
            "wt0": lambda *ps: theorem_qmain(region_params(*ps)),
            "wt1": lambda *ps: _qmain_times(region_params(*ps), f_exponent),
            "wt2": lambda *ps: _qmain_times(region_params(*ps), g_exponent),
        },
    ),
}

# CLI formula name -> (family, weight) in FAMILIES.
FORMULA_NAMES: dict[str, tuple[str, str]] = {
    "macmahon": ("hexagon", "wt0"),
    "main": ("q_region", "count"),
    "qmain": ("q_region", "wt0"),
    "hex_m1": ("hexagon", "wt1"),
    "hex_m2": ("hexagon", "wt2"),
    "semihex": ("semihexagon", "wt2"),
    "k_region": ("k_region", "wt2"),
    "magnet_m2": ("magnet_bar", "wt2"),
    "magnet_m3": ("magnet_bar", "wt3"),
}
