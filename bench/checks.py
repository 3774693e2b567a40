"""Output checks, run after the timed calls.

Every frontier output is compared with the closed formula for its family
and weight, every closed output with the plain tiling count at q = 1, and
the suite's report lines with its task list.  At the default seed each
call's stdout must also match the SHA-256 digest recorded at the commit
that defined the benchmark, which pins the CLI bytes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from workloads import SUITE_MAX_SUM

DEFAULT_SEED = 1
GOLDEN = Path(__file__).with_name("golden.json")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def macmahon_count(a: int, b: int, c: int) -> int:
    """MacMahon's box product prod_{i<=a, j<=b} (i+j+c-1)/(i+j-1)."""
    top = bottom = 1
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            top *= i + j + c - 1
            bottom *= i + j - 1
    value, rem = divmod(top, bottom)
    if rem:
        raise ArithmeticError("box product is not an integer")
    return value


def _region_params(family: str, ps):
    """The notched-region parameters each builder family specialises."""
    from qlozenge.lattice import RegionParams

    if family == "hexagon":
        a, b, c = ps
        return RegionParams(b, 0, a, c, 0, 0, 0, 0)
    if family in ("magnet_bar", "magnet_m2", "magnet_m3"):
        m, a, x, y, z, t = ps
        return RegionParams(x, y, z, t, m, a, 0, 0)
    if family == "k_region":
        a, x, y, z, t = ps
        return RegionParams(x, y, z, t, 0, a, 0, 0)
    return RegionParams(*ps)


def _frontier_expected(item):
    """The second route's polynomial (genfun) or integer (count)."""
    from qlozenge import formulas
    from qlozenge.weights import f_exponent, g_exponent

    family, weight, ps = item["family"], item["weight"], item["params"]
    if weight == "count":
        return formulas.theorem_main(_region_params(family, ps))
    if family == "hexagon":
        route = {"wt0": formulas.macmahon_q, "wt1": formulas.hex_M1, "wt2": formulas.hex_M2}
        return route[weight](*ps).poly
    if family == "q_region":
        p = _region_params(family, ps)
        shift = {"wt0": 0, "wt1": f_exponent(p), "wt2": g_exponent(p)}[weight]
        return formulas.theorem_qmain(p).poly.shift(shift)
    if family == "magnet_bar":
        return {"wt2": formulas.magnet_M2, "wt3": formulas.magnet_M3}[weight](*ps).poly
    if family == "k_region":
        return formulas.k_region_M2(*ps).poly
    a, b, dents = ps
    return formulas.semihex_dents_M2(a, b, dents).poly


def _check_frontier(item, out: str):
    from qlozenge.qalgebra import parse_poly

    expected = _frontier_expected(item)
    got = int(out) if item["weight"] == "count" else parse_poly(out)
    if got != expected:
        return "%s %s differs from the closed formula" % (item["argv"][0], item["family"])
    return None


def _check_closed(item, out: str):
    from qlozenge.formulas import theorem_main
    from qlozenge.qalgebra import parse_poly

    coefficients = parse_poly(out).terms.values()
    if any(c < 0 for c in coefficients):
        return "negative coefficient"
    family, ps = item["family"], item["params"]
    if family == "macmahon":
        expected = macmahon_count(*ps)
    else:
        expected = theorem_main(_region_params(family, ps))
    if sum(coefficients) != expected:
        return "value at q=1 is %d, tiling count is %d" % (sum(coefficients), expected)
    return None


def _check_suite(item, out: str):
    from qlozenge.verify import suite_tasks

    lines = out.splitlines()
    expected = len(suite_tasks("all", SUITE_MAX_SUM))
    if len(lines) != expected:
        return "%d report lines for %d tasks" % (len(lines), expected)
    failing = [line for line in lines if not line.startswith("Pass ")]
    if failing:
        return "%d reports are not Pass, first: %s" % (len(failing), failing[0])
    return None


CHECKERS = {"frontier": _check_frontier, "closed": _check_closed, "suite": _check_suite}


def golden_digests(workload: str, seed: int):
    """Recorded stdout digests for this workload and seed, or None."""
    if workload != "suite" and seed != DEFAULT_SEED:
        return None
    if not GOLDEN.is_file():
        return None
    return json.loads(GOLDEN.read_text()).get(workload)


def check_outputs(workload: str, seed: int, items, results) -> list:
    """A failure reason (or None) per call; results hold exit code and stdout."""
    golden = golden_digests(workload, seed)
    reasons = []
    for k, (item, result) in enumerate(zip(items, results)):
        if result["exit"] != 0:
            reasons.append("exit code %r" % (result["exit"],))
            continue
        try:
            reason = CHECKERS[workload](item, result["stdout"].strip())
        except Exception as err:  # a malformed output must count, not abort the run
            reason = "check raised %s: %s" % (type(err).__name__, err)
        if reason is None and golden is not None and golden[k] != digest(result["stdout"]):
            reason = "stdout differs from the digest recorded at the default seed"
        reasons.append(reason)
    return reasons
