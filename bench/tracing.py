"""Spans and counts around calls into qlozenge's modules, installed from outside.

The tracer rebinds, in every qlozenge module, each public function that
callers look up there, so a ``from``-imported copy (``verify.gen_function``)
is wrapped as well as the original (``enumeration.gen_function``).  Module
globals are looked up at each call, so internal calls such as ``resolve``
reaching ``poly_exact_div`` are seen too.  ``QPoly`` methods are wrapped on
the class.  ``iter_tilings`` returns a generator, so its span covers the
time spent producing each tiling, not the call that creates it.

A span records its name, start, end, parent span and the index of the
workload call it belongs to.  Hot leaf functions (``QPoly`` arithmetic,
lattice helpers, per-lozenge weights, oracle steps) run millions of times,
so their spans are folded into per-name totals instead of being kept one by
one; their time still counts as child time of the span that called them.
Layer self time is a span's duration minus that of its direct children,
summed over the layer.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from collections import defaultdict

LAYERS = ("cli", "verify", "formulas", "enumeration", "weights", "lattice", "qalgebra")

QPOLY_METHODS = (
    "__init__", "__add__", "__radd__", "__sub__", "__neg__", "__mul__", "__rmul__",
    "__pow__", "shift", "degree", "__eq__", "__str__",
)
HOT = {
    "lattice.up", "lattice.down", "lattice.make_lozenge", "lattice.partner_candidates",
    "weights.lozenge_exponent", "weights.tiling_exponent", "qalgebra.q_int",
    "qalgebra.push_q_int", "qalgebra.push_hyperfactorial", "qalgebra.push_prefactor",
    "qalgebra.push_q_factorial", "enumeration.iter_tilings",
} | {"qalgebra.QPoly." + m for m in QPOLY_METHODS}

# Named groups whose outermost spans give the per-layer *_s metrics.
GROUPS = {
    "qalgebra.resolve": "resolve",
    "qalgebra.poly_exact_div": "exact_div",
    "enumeration.gen_function": "sweep",
    "enumeration.count_tilings": "sweep",
    "enumeration.iter_tilings": "oracle",
    "enumeration.kuo_remove": "kuo_remove",
    "lattice.remove_forced": "build",
}


def _group(name: str):
    if name in GROUPS:
        return GROUPS[name]
    if name.startswith("lattice.build_") and name != "lattice.build_shamrock":
        return "build"
    if name.startswith("verify.check_"):
        return "check"
    return None


def _bits(poly) -> int:
    return max((abs(c).bit_length() for c in poly.terms.values()), default=0)


class Tracer:
    """Collects spans and counts while installed; ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[list] = []
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.depth: dict[str, int] = defaultdict(int)
        self.outer_s: dict[str, float] = defaultdict(float)
        self.values: dict[str, int] = defaultdict(int)
        self.item = 0
        self._next_id = 0
        self._patches: list[tuple] = []
        self._caches: list = []

    # -- span bookkeeping -------------------------------------------------

    def _begin(self, keys) -> list:
        for key in keys:
            self.depth[key] += 1
        parent = self.stack[-1][2] if self.stack else None
        frame = [time.perf_counter(), 0.0, parent, parent]
        self.stack.append(frame)
        return frame

    def _end(self, frame, name, keys, record) -> list:
        """Close a span; returns the keys it was the outermost span of."""
        end = time.perf_counter()
        self.stack.pop()
        dur = end - frame[0]
        total = self.totals[name]
        total[0] += 1
        total[1] += dur
        total[2] += dur - frame[1]
        if self.stack:
            self.stack[-1][1] += dur
        closed = []
        for key in keys:
            self.depth[key] -= 1
            if not self.depth[key]:
                self.outer_s[key] += dur
                closed.append(key)
        if record:
            self.spans.append((frame[2], name, frame[0], end, frame[3], self.item))
        return closed

    def _record_id(self, frame) -> None:
        frame[2] = self._next_id
        self._next_id += 1

    def _wrap(self, fn, name: str):
        layer = name.split(".")[0]
        group = _group(name)
        keys = (layer, group) if group else (layer,)
        record = name not in HOT
        post = self._post_hook(name)

        if name == "enumeration.iter_tilings":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = self._begin(keys)
                try:
                    gen = fn(*args, **kwargs)
                finally:
                    self._end(frame, name, keys, record)
                return self._timed_iter(gen, name, keys)

            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._begin(keys)
            if record:
                self._record_id(frame)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._end(frame, name, keys, record)
                raise
            closed = self._end(frame, name, keys, record)
            if post is not None:
                post(result, closed)
            return result

        return wrapper

    def _timed_iter(self, gen, name, keys):
        while True:
            frame = self._begin(keys)
            try:
                tiling = next(gen)
            except StopIteration:
                self._end(frame, name, keys, False)
                return
            self._end(frame, name, keys, False)
            self.values["oracle_tilings"] += 1
            yield tiling

    def _post_hook(self, name: str):
        if name == "qalgebra.resolve":
            def widest(poly, closed):
                self.values["result_bits_max"] = max(self.values["result_bits_max"], _bits(poly))
            return widest
        if _group(name) == "check":
            def verdicts(result, closed):
                if "check" in closed:
                    reports = result if isinstance(result, list) else [result]
                    self.values["checks"] += len(reports)
                    self.values["passes"] += sum(r.status == "Pass" for r in reports)
            return verdicts
        return None

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module("qlozenge." + layer) for layer in LAYERS}
        self._caches = [
            obj for obj in vars(modules["formulas"]).values() if hasattr(obj, "cache_info")
        ]
        wrappers: dict[int, object] = {}
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not callable(obj) or isinstance(obj, type):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith("qlozenge."):
                    continue
                if not isinstance(obj, types.FunctionType) and not hasattr(obj, "cache_info"):
                    continue
                name = "%s.%s" % (home.split(".")[1], attr)
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, name)
                self._patches.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])
        qpoly = modules["qalgebra"].QPoly
        for method in QPOLY_METHODS:
            original = qpoly.__dict__.get(method)
            if original is not None:
                self._patches.append((qpoly, method, original))
                setattr(qpoly, method, self._wrap(original, "qalgebra.QPoly." + method))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def cache_counts(self) -> tuple[int, int]:
        """(hits, misses) summed over the formulas module's caches."""
        infos = [cache.cache_info() for cache in self._caches]
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    # -- results -------------------------------------------------------------

    def _calls(self, *names: str) -> int:
        return sum(self.totals[n][0] for n in names if n in self.totals)

    def _self_s(self, layer: str) -> float:
        return sum(t[2] for n, t in self.totals.items() if n.split(".")[0] == layer)

    def layer_metrics(self, stdout_bytes: int) -> dict[str, float]:
        """Per-layer metrics of everything traced so far."""
        q = "qalgebra.QPoly."
        hits, misses = self.cache_counts()
        checks = self.values["checks"]
        formula_names = [n for n in self.totals if n.startswith("formulas.")]
        build_names = [n for n in self.totals if _group(n) == "build"]
        return {
            "qalgebra.self_s": self._self_s("qalgebra"),
            "qalgebra.qpoly_new": self._calls(q + "__init__"),
            "qalgebra.add_calls": self._calls(q + "__add__", q + "__radd__"),
            "qalgebra.shift_calls": self._calls(q + "shift"),
            "qalgebra.mul_calls": self._calls(q + "__mul__", q + "__rmul__"),
            "qalgebra.resolve_s": self.outer_s["resolve"],
            "qalgebra.exact_div_s": self.outer_s["exact_div"],
            "qalgebra.result_bits_max": self.values["result_bits_max"],
            "enumeration.self_s": self._self_s("enumeration"),
            "enumeration.sweep_s": self.outer_s["sweep"],
            "enumeration.sweep_calls": self._calls(
                "enumeration.gen_function", "enumeration.count_tilings"
            ),
            "enumeration.oracle_s": self.outer_s["oracle"],
            "enumeration.oracle_tilings": self.values["oracle_tilings"],
            "enumeration.kuo_remove_s": self.outer_s["kuo_remove"],
            "weights.self_s": self._self_s("weights"),
            "weights.lozenge_exponent_calls": self._calls("weights.lozenge_exponent"),
            "lattice.self_s": self._self_s("lattice"),
            "lattice.make_lozenge_calls": self._calls("lattice.make_lozenge"),
            "lattice.build_s": self.outer_s["build"],
            "lattice.build_calls": self._calls(*build_names),
            "formulas.self_s": self._self_s("formulas"),
            "formulas.calls": self._calls(*formula_names),
            "formulas.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "verify.self_s": self._self_s("verify"),
            "verify.checks": checks,
            "verify.pass_ratio": self.values["passes"] / checks if checks else 0.0,
            "cli.self_s": self._self_s("cli"),
            "cli.stdout_bytes": stdout_bytes,
        }

    def dump(self, path) -> None:
        """Write the kept spans and the folded per-name totals as JSON."""
        payload = {
            "fields": ["id", "name", "start", "end", "parent", "call"],
            "spans": self.spans,
            "totals": {n: {"calls": t[0], "s": t[1], "self_s": t[2]} for n, t in sorted(self.totals.items())},
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
