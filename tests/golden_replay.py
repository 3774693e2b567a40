"""Replay the CLI golden corpus and the bench-width formula pins, stdlib only.

Each argv in `cli_golden.json` must give its recorded exit code and the
SHA-256 of its recorded stdout; each `formula` call in BENCH_WIDTH must
print the pinned stdout.  test_cli_golden.py runs the same pins under
pytest; this module (not collected, as its name has no test_ prefix) runs
them with no third-party package, so any interpreter the package supports
can check its bytes:

    PYTHONPATH=src python tests/golden_replay.py

It prints one line per mismatch and a summary, and exits 1 on a mismatch.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

CORPUS = json.loads(Path(__file__).with_name("cli_golden.json").read_text())

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


def bench_width_argv(call: str) -> list[str]:
    name, params = call.split()
    return ["formula", name, "--params", params]


def replay(argv: list[str]) -> tuple[int, str]:
    """(exit code, stdout SHA-256) of one CLI call, its stderr dropped."""
    from qlozenge.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def main() -> int:
    cases = [(c["argv"], c["exit"], c["stdout_sha256"]) for c in CORPUS]
    cases += [(bench_width_argv(call), 0, sha) for call, sha in BENCH_WIDTH.items()]
    bad = 0
    for argv, code, sha in cases:
        got = replay(argv)
        if got != (code, sha):
            bad += 1
            what = "exit %s, want %s" % (got[0], code) if got[0] != code else "stdout differs"
            print("MISMATCH %s: %s" % (" ".join(argv), what))
    print("Python %s: %d of %d calls match" % (sys.version.split()[0], len(cases) - bad, len(cases)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
