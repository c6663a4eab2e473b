"""No module in src/ or tests/ imports a name it does not use, the command
line does not load what only a library call needs, no stage loads
scipy.special, scipy.ndimage or numpy.ma, no stage code uses a name kept
only for the benchmark's tracer, and the package takes every
Gauss-Legendre rule from one module."""

import ast
import pathlib
import subprocess
import sys

import numpy as np
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


def references(source: str, name: str) -> list:
    """Line numbers where the module reads or imports the given name."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if (isinstance(node, ast.Name) and node.id == name)
                   or (isinstance(node, ast.Attribute) and node.attr == name)
                   or (isinstance(node, ast.ImportFrom)
                       and any(a.name == name for a in node.names))})


# the numpy.polynomial.legendre module and every helper in it
LEGENDRE_NAMES = ("legendre", *np.polynomial.legendre.__all__)


def test_scan_finds_a_reference():
    src = ("import numpy as np\nfrom numpy.polynomial.legendre import leggauss\n"
           "x = np.polynomial.legendre.leggauss(8)\n")
    assert references(src, "leggauss") == [2, 3]
    assert references("from numpy.polynomial.legendre import legvander\n",
                      "legvander") == [1]
    assert {"leggauss", "legvander"} <= set(LEGENDRE_NAMES)


SRC = sorted((ROOT / "src" / "abtroika").glob("*.py"))


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_only_quadrature_builds_gauss_legendre_rules(path):
    # every fixed-node rule comes from quadrature.gauss_legendre, and every
    # matrix built on its nodes from the same module, so the rule's cache
    # and its affine map live in one place; tests keep their own
    if path.name != "quadrature.py":
        source = path.read_text(encoding="utf-8")
        assert [name for name in LEGENDRE_NAMES if references(source, name)] == []


@pytest.mark.parametrize("module", ["scipy.integrate", "scipy.interpolate", "scipy.ndimage"])
def test_cli_leaves_scipy_module_unloaded(module):
    # loading the command line does not import what only one library call
    # needs: scipy.integrate (pv_integral_1d) adds about 25 MB to the peak
    # memory of every run, scipy.interpolate 24 MB and 0.29 s; nor
    # multiprocessing, which only the decoherence stage's pool (--jobs > 1)
    # uses
    code = (f"import sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n"
            f"import abtroika.cli\n"
            f"print({module!r} in sys.modules, 'multiprocessing' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"


SPECIAL = ("scipy.special", "scipy.ndimage")


def shim_nodes(tree) -> set:
    """ids of the nodes inside the module-level __getattr__ functions."""
    return {id(node) for f in tree.body
            if isinstance(f, ast.FunctionDef) and f.name == "__getattr__"
            for node in ast.walk(f)}


def special_imports(source: str) -> list:
    """Lines that import scipy.special or scipy.ndimage (or a name from
    them) outside a module-level __getattr__."""
    tree = ast.parse(source)
    shims = shim_nodes(tree)
    lines = []
    for node in ast.walk(tree):
        if id(node) in shims:
            continue
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(n == m or n.startswith(m + ".") for n in names for m in SPECIAL):
            lines.append(node.lineno)
    return lines


def test_scan_finds_a_special_import():
    src = ("import numpy as np\nfrom scipy.special import jv\n"
           "from scipy import ndimage\n\n\ndef f():\n    import scipy.ndimage\n\n\n"
           "def __getattr__(name):\n    import scipy.special\n"
           "    return getattr(scipy.special, name)\n")
    assert special_imports(src) == [2, 3, 7]


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_stage_code_imports_scipy_special(path):
    # the loop potential is an arithmetic-geometric mean and the Bessel
    # recurrence is normalised by Neumann's sum: only a module __getattr__
    # kept for the benchmark's tracer may load these
    assert special_imports(path.read_text(encoding="utf-8")) == []


# names that only the benchmark's tracer looks up, each served by a module
# __getattr__ until the benchmark stops wrapping them
TRACER_ONLY = ("ellipk", "jv", "SolenoidPotentialTable")


def tracer_only_references(source: str) -> list:
    """(name, line) of every reference to a TRACER_ONLY name outside a
    module-level __getattr__."""
    tree = ast.parse(source)
    shims = shim_nodes(tree)
    shim_lines = {node.lineno for node in ast.walk(tree)
                  if id(node) in shims and hasattr(node, "lineno")}
    return [(name, line) for name in TRACER_ONLY
            for line in references(source, name) if line not in shim_lines]


def test_scan_finds_a_tracer_only_reference():
    src = ("from scipy.special import jv\n\n\ndef __getattr__(name):\n"
           "    import scipy.special\n    return scipy.special.ellipk\n\n\n"
           "x = fields.SolenoidPotentialTable\n")
    assert tracer_only_references(src) == [("jv", 1), ("SolenoidPotentialTable", 9)]


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_tracer_only_names_stay_in_their_shims(path):
    # no stage code may use a name that exists for the tracer alone, so the
    # fields and decoherence shims can be deleted together
    assert tracer_only_references(path.read_text(encoding="utf-8")) == []


# modules no stage may load: scipy.special costs about 0.25 s of start-up and
# 20 MB of peak memory; numpy.ma, which np.unique imports, about 15 ms
UNLOADED = SPECIAL + ("numpy.ma",)


def test_stages_leave_scipy_special_unloaded(tmp_path):
    # every stage on a small config, in one fresh process; none of UNLOADED
    # may be loaded after any of them
    cfg = tmp_path / "run.cfg"
    cfg.write_text("beta = 0.3\nn_loops = 25\nrho_max_over_r = 3\nlam = 2.0\n"
                   "sweep_beta = 0.3\nsweep_lambda = 2.0\nkmax_sigma_physical = 8\n"
                   "mode_grid_n = 4\n")
    code = (f"import sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n"
            "from abtroika import cli\n"
            "for stage in ('phases', 'decoherence', 'modes', 'divergence'):\n"
            f"    code = cli.run(stage, {str(cfg)!r}, {str(tmp_path / 'out')!r})\n"
            f"    print('loaded', stage, code, *(m in sys.modules for m in {UNLOADED!r}))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = [line for line in proc.stdout.splitlines() if line.startswith("loaded ")]
    assert loaded == [f"loaded {stage} 0 False False False"
                      for stage in ("phases", "decoherence", "modes", "divergence")]
