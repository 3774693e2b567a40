"""Rebuild ``frontier_catalog.json`` from the slot definitions in workloads.py.

Run from the repository root:  python3 bench/make_catalog.py
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402

catalog = []
for slot in workloads.FRONTIER_SLOTS:
    start = time.perf_counter()
    catalog.append(workloads.slot_catalog(slot))
    family, weights, _, _, target = slot
    print("%-12s %-8s target %7d: %3d entries, %.0f s" % (
        family, ",".join(weights), target, len(catalog[-1]), time.perf_counter() - start), flush=True)
workloads.CATALOG.write_text(json.dumps(catalog, indent=1) + "\n")
