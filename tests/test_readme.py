import importlib
import pkgutil
import re
from pathlib import Path

import qlozenge


def test_every_call_form_in_the_readme_names_package_code():
    # A `name(` in README documents a callable; each must still exist in
    # some qlozenge module, so a renamed or deleted helper fails here.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"`([A-Za-z_]\w*)\(", readme))
    modules = [
        importlib.import_module("qlozenge." + info.name)
        for info in pkgutil.iter_modules(qlozenge.__path__)
    ]
    assert named
    assert sorted(n for n in named if not any(hasattr(m, n) for m in modules)) == []
