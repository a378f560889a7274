"""Every module-level name the package defines is read somewhere else.

A static scan of ``src/maskprune/*.py``: each module-level function, class and
constant (dunders exempt) must be loaded, as a bare name or an attribute, by
package code outside its own definition and outside ``__init__.py``, whose
re-exports read nothing.  A mention by name in ``perfbench/*.py`` also counts,
because the benchmark's tracer looks ops up by string.  Tests do not count: a
name only the tests read is a test helper shipped in the package.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "maskprune").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))


def _defined(tree: ast.Module) -> list[tuple[str, ast.stmt]]:
    """(name, defining statement) for each module-level def, class and constant."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                out += [(n.id, node) for n in ast.walk(t)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    return [(name, node) for name, node in out
            if not (name.startswith("__") and name.endswith("__"))]


def _loads(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each Name or Attribute the module loads."""
    out = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.append((n.id, n.lineno))
        elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            out.append((n.attr, n.lineno))
    return out


def unread_names(package: dict[str, str], bench_text: str) -> list[str]:
    """``module.name`` for each definition in ``package`` (file name -> source)
    that no other package code loads and ``bench_text`` does not mention."""
    trees = {f: ast.parse(src) for f, src in package.items()}
    loads = {f: _loads(t) for f, t in trees.items() if f != "__init__.py"}
    unread = []
    for fname, tree in trees.items():
        for name, node in _defined(tree):
            own = range(node.lineno, node.end_lineno + 1)
            read = any(n == name and not (f == fname and line in own)
                       for f, found in loads.items() for n, line in found)
            if not (read or re.search(rf"\b{re.escape(name)}\b", bench_text)):
                unread.append(f"{fname[:-3]}.{name}")
    return unread


def test_scan_flags_names_only_their_definition_reads():
    package = {
        "a.py": "X = 1\nY = 2\ndef f():\n    return f()\nclass C:\n    pass\n"
                "def g():\n    return Y + b.h()\n",
        "b.py": "def h():\n    pass\ndef k():\n    pass\n",
        "__init__.py": "from .a import X, g\n__all__ = ['X', 'g']\nX\ng\n",
    }
    assert unread_names(package, "run(C)") == ["a.X", "a.f", "a.g", "b.k"]


def test_every_package_name_is_read():
    package = {p.name: p.read_text() for p in PACKAGE}
    bench = "\n".join(p.read_text() for p in BENCH)
    assert unread_names(package, bench) == []
