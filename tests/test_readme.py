import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import qlozenge
from qlozenge.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_every_call_form_in_the_readme_names_package_code():
    # A `name(` in README documents a callable; each must still exist in
    # some qlozenge module, so a renamed or deleted helper fails here.
    named = set(re.findall(r"`([A-Za-z_]\w*)\(", README))
    modules = [
        importlib.import_module("qlozenge." + info.name)
        for info in pkgutil.iter_modules(qlozenge.__path__)
    ]
    assert named
    assert sorted(n for n in named if not any(hasattr(m, n) for m in modules)) == []


def _shown_examples():
    """(argv, stdout) of each `$ qlozenge ...` example in README's code
    blocks whose output is shown in full: not elided by `...`, not empty."""
    examples = []
    for block in re.findall(r"^```\n(.*?)^```$", README, re.S | re.M):
        for command, output in re.findall(r"^\$ qlozenge (.*)\n((?:(?!\$ ).*\n)*)", block, re.M):
            if output and "..." not in output:
                examples.append((shlex.split(command), output))
    return examples


_EXAMPLES = _shown_examples()


@pytest.mark.parametrize("argv, stdout", _EXAMPLES, ids=[" ".join(a[:2]) for a, _ in _EXAMPLES])
def test_readme_cli_example_prints_what_it_shows(capsys, argv, stdout):
    assert main(argv) == 0
    assert capsys.readouterr().out == stdout


def test_readme_shows_cli_examples_in_full():
    assert len(_EXAMPLES) >= 4
