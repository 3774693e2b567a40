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

import pytest

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


# The six `formula` calls of the closed-formula benchmark draw at seed 1,
# pinned at bench width: their coefficients reach 270 bits (qmain
# 6,4,6,7,4,5,5,5), far past the corpus's small parameters.
BENCH_WIDTH = {
    "macmahon 8,11,11": "b94e74c5efef9d646e6b52c3a36e39543ddc9bd2d7efc2834b11d0d4e7bd8c4d",
    "qmain 6,4,5,5,3,6,3,4": "a39d04fa4fde559d06d3a892755d6d71377a6a6792cf196433abe95748aa5da2",
    "qmain 6,4,6,7,4,5,5,5": "3480a3715f2f042d55f5b97973a6949ac92e8c35ad3ecc0933a9db6a199978b7",
    "magnet_m2 5,5,5,6,6,6": "1a30881767b2cbc44bb2fa2eb23015d9bd4fccb53094b6f85eb614ce14766cbf",
    "magnet_m3 5,7,4,6,4,7": "4e69322f958c670c66312d9854dfbd98019459cef7df825912db1e120be48615",
    "k_region 7,7,6,7,6": "2e8321eccd42b36fe32e3858cad4e5d7f3704b8343390961fb4b35f68ab41558",
}


@pytest.mark.parametrize("call", BENCH_WIDTH)
def test_formula_output_at_bench_width(capsys, call):
    name, params = call.split()
    assert main(["formula", name, "--params", params]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == BENCH_WIDTH[call]
