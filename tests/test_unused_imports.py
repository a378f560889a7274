"""Every name a module in ``src/`` or ``tests/`` imports is used in it.

A static scan of each file's syntax tree: an imported name counts as used when
the module loads it anywhere (a bare name, or the root of an attribute chain).
Names listed in the module's ``__all__`` are re-exports, and ``__future__``
imports are directives; both are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never loads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_scan_flags_unused_names_only():
    src = ("from __future__ import annotations\n"
           "import os.path\nimport numpy as np\nfrom a import b, c as d, e\n"
           "__all__ = ['e']\nprint(np.pi, d)\n")
    assert unused_imports(src) == ["os", "b"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
