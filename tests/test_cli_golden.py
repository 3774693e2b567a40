"""CLI golden corpus: every recorded argv must reproduce its exit code and
the SHA-256 of its stdout byte for byte.

`cli_golden.json` holds one record per argv: every formula name, every
builder under count, genfun (wt0 to wt3), tilings, render and kuo, every
suite at --max-sum 2 (plain and --json), and the usage-error cases.  Only
stdout is pinned; stderr messages may be reworded.
"""

import hashlib

import pytest

from golden_replay import BENCH_WIDTH, CORPUS, bench_width_argv
from qlozenge.cli import main


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


# BENCH_WIDTH, with the corpus, lives in golden_replay, which replays both
# without pytest.
@pytest.mark.parametrize("call", BENCH_WIDTH)
def test_formula_output_at_bench_width(capsys, call):
    assert main(bench_width_argv(call)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == BENCH_WIDTH[call]
