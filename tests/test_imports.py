"""No module in src/ or tests/ imports a name it does not use, and the
command line does not load what only a library call needs."""

import ast
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list:
    """Names bound by import statements that the module never reads; names
    listed in __all__ count as read, and __future__ imports are skipped."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scan_finds_an_unused_import():
    src = ("from __future__ import annotations\nimport os, sys\n"
           "from a import b as c, d\n__all__ = ['d']\nsys.exit(0)\n")
    assert unused_imports(src) == [(2, "os"), (3, "c")]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_cli_leaves_scipy_integrate_unloaded():
    # scipy.integrate adds about 25 MB to the peak memory of every run; only
    # pv_integral_1d uses it, and it imports it when called
    code = (f"import sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n"
            "import abtroika.cli\nprint('scipy.integrate' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
