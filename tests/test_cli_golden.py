"""CLI golden corpus: every recorded argv must reproduce its exit code and
the SHA-256 of its stdout byte for byte.

`cli_golden.json` holds one record per argv: every formula name, every
builder under count, genfun (wt0 to wt3), tilings, render and kuo, every
suite at --max-sum 2 (plain and --json), and the usage-error cases.  Only
stdout is pinned; stderr messages may be reworded.
"""

import hashlib
import json
from pathlib import Path

from qlozenge.cli import main

CORPUS = json.loads(Path(__file__).with_name("cli_golden.json").read_text())


def test_cli_golden_corpus(capsys):
    mismatches = []
    for case in CORPUS:
        try:
            code = main(case["argv"])
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr().out
        got = (code, hashlib.sha256(out.encode("utf-8")).hexdigest())
        if got != (case["exit"], case["stdout_sha256"]):
            mismatches.append((case["argv"], got[0], case["exit"]))
    assert len(CORPUS) >= 200
    assert not mismatches, mismatches
