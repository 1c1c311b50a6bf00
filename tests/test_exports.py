"""Every name a ``strata`` module exports in ``__all__`` resolves, so a
deleted function cannot leave a stale export behind; every module-level
import is used or exported, so a deleted caller cannot leave a stale import;
every method and module-level function and class is referenced somewhere,
so a deleted caller cannot leave a dead definition; Gauss-Legendre nodes,
stencil derivatives and the NAK chart's angle each come from one place, so
a second copy of the interval map, of the operator loop or of the chart
cannot creep back; and importing the
CLI, then building a radial Fourier spline, evaluating a lattice sum and
a seed norm, a float64 Whittaker value and its ODE residual, loads neither
``scipy.interpolate``, ``scipy.integrate``, ``scipy.optimize``,
``scipy.sparse`` nor ``mpmath``, so a module-level import of a module that
only one function needs cannot creep back into every process's start-up;
``mpmath`` is imported at one site only; nor does a whole ``strata all``
run load ``scipy.integrate``."""

import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import strata

MODULES = sorted(m.name for m in pkgutil.iter_modules(strata.__path__))
SOURCES = sorted(pathlib.Path(strata.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(f"strata.{name}")
    exported = getattr(module, "__all__", ())  # the CLI module has none
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text())
    imported, exported = [], set()
    for node in tree.body:
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom)
                and node.module != "__future__"):
            imported += [(a.asname or a.name).split(".")[0]
                         for a in node.names]
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__"
                      for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert [n for n in imported if n not in used | exported] == []


def _definitions(tree):
    """``(name, kind)`` of the methods and module-level functions and
    classes, dunders excepted; ``kind`` is ``"module"``, ``"property"`` or
    ``"method"``."""
    found = [(n.name, "module") for n in tree.body
             if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef))]
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        found += [(n.name, "property" if any(
                      getattr(d, "id", None) == "property"
                      for d in n.decorator_list) else "method")
                  for n in cls.body
                  if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return [(n, kind) for n, kind in found
            if not (n.startswith("__") and n.endswith("__"))]


def _uses(tree, in_tests):
    """``(names, method_uses)`` of a file: every name, import and attribute
    it spells; and the attributes that use a plain method, meaning those
    called as ``obj.name(...)`` and, outside ``tests/``, every attribute
    load (a bound method passed on).  An attribute a test only reads, such
    as numpy's ``table.base``, is no use of a method of that name."""
    names, method_uses = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            if not in_tests and isinstance(node.ctx, ast.Load):
                method_uses.add(node.attr)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            method_uses.add(node.func.attr)
    return names, method_uses


def _dead(modules, users):
    """``label:name`` of each definition in ``modules`` (label -> tree)
    that no file of ``users`` (``(tree, in_tests)`` pairs) uses: a plain
    method by ``_uses``' method uses, a property or a module-level
    definition by any spelling of its name."""
    names, method_uses = set(), set()
    for tree, in_tests in users:
        n, m = _uses(tree, in_tests)
        names |= n
        method_uses |= m
    return [f"{label}:{name}" for label, tree in modules.items()
            for name, kind in _definitions(tree)
            if name not in (method_uses if kind == "method" else names)]


def test_no_dead_definitions():
    """Every method and module-level function and class of ``strata`` is
    referenced from the package, its tests or its benchmark (a listing in
    ``__all__`` is not a reference), so a deleted caller cannot leave its
    callee behind, nor a public twin of a function that replaced it."""
    root = pathlib.Path(strata.__file__).parents[2]
    users = [(ast.parse(path.read_text()), folder == "tests")
             for folder in ("src", "tests", "perfbench")
             for path in (root / folder).rglob("*.py")]
    modules = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    assert _dead(modules, users) == []


_DEFINES = """
class Point:
    def base(self): ...
    def moved(self): ...
    def scaled(self): ...
    @property
    def norm(self): ...
"""
_TEST_READS = """
p = Point()
table = np.fft.fft(np.ones(4))
assert table.base is None   # numpy's attribute, not Point.base
assert p.norm > 0           # a property is used by access
step = p.scaled             # a method a test only reads is not used
"""


def test_dead_definition_guard_tells_methods_from_attributes():
    """A test that reads an attribute spelled like a method does not keep
    the method alive; a call anywhere, a load in the package or an access
    of a property does."""
    modules = {"point.py": ast.parse(_DEFINES)}
    tests = (ast.parse(_TEST_READS), True)
    assert _dead(modules, [tests]) == [
        "point.py:base", "point.py:moved", "point.py:scaled"]
    package = (ast.parse("p.moved()\nstep = p.scaled\nq.base()"), False)
    assert _dead(modules, [tests, package]) == []


def _call_sites(*names):
    """The source file of each call of a function or method in ``names``."""
    return [path.name for path in SOURCES
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None))
            in names]


def test_gauss_legendre_nodes_come_from_special():
    """``leggauss`` is called in ``special.py`` only: every other module
    takes its nodes from ``special._gl_nodes``."""
    assert set(_call_sites("leggauss")) <= {"special.py"}


def test_stencils_are_called_in_operators_only():
    """``partial_derivative`` is called in ``operators.py`` only: every
    other module applies its differential operators through
    ``operators._apply_groups``."""
    assert set(_call_sites("partial_derivative")) <= {"operators.py"}


def test_iwasawa_angle_is_taken_once_in_saff():
    """``atan2``/``arctan2`` is called at exactly one site, in ``saff.py``
    (``iwasawa_from_element``): every other module takes the NAK chart
    from ``saff``'s chart pair, not from a copy of its formulas."""
    assert _call_sites("atan2", "arctan2") == ["saff.py"]


_LAZY_IMPORTS = """
import sys

import numpy as np

import strata.cli
from strata.series import beta_bump, beta_norm_sq
from strata.special import RadialProfile, whittaker_ode_residual, whittaker_w
from strata.sv import PlaneFunction, radial_fourier, sv_rel_values

gauss = RadialProfile(lambda r: np.exp(-np.asarray(r) ** 2), 2.0)
radial_fourier(gauss, 1.0, 9)
plane = PlaneFunction(lambda z: np.exp(-np.abs(z) ** 2), 2.0)
sv_rel_values(plane, [0.1], [1.1], [0.2], [0.3], 1)
print(beta_norm_sq(beta_bump(0.7, 1.7), 2, 0.7, 1.7) > 0.0)
x = np.linspace(0.5, 8.0, 5)
print(np.allclose(whittaker_w(2.0, 1.5, x), x ** 2 * np.exp(-x / 2),
                  rtol=1e-12, atol=0.0))
print(max(whittaker_ode_residual(*p) for p in [
    (1.0, 0.8j, 2.0), (0.5, 1.3j, 0.7), (1.0, 0.25, 9.0), (-1.5, 1.1j, 4.0)])
      < 1e-6)
print(sorted(m for m in ("scipy.interpolate", "scipy.integrate",
                         "scipy.optimize", "scipy.sparse", "mpmath")
             if m in sys.modules))
"""

_RUN_ALL = """
import os
import sys

from strata.cli import main

print(main(["all", "--samples", "20000", "--out", os.devnull]))
print(sorted(m for m in ("scipy.integrate", "scipy.optimize",
                         "scipy.sparse", "scipy.spatial")
             if m in sys.modules))
"""


def _fresh_stdout(script):
    """The stdout lines of ``script`` run in a fresh interpreter."""
    src = pathlib.Path(strata.__file__).parents[1]
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    return proc.stdout.split("\n")


def test_start_up_leaves_first_use_modules_unloaded():
    """In a fresh interpreter, importing the CLI, one ``radial_fourier``,
    one ``sv_rel_values``, one ``beta_norm_sq``, one real-order
    ``whittaker_w`` call inside its float64 domain and criterion 8's four
    ODE residuals load none of the modules that only fallbacks or single
    functions use (``mpmath`` among them)."""
    assert _fresh_stdout(_LAZY_IMPORTS)[:4] == ["True", "True", "True", "[]"]


def _import_sites(module):
    """``file:function`` of each import of ``module`` (or of one of its
    submodules) in the package, ``file:<module>`` at module level."""
    sites = []
    for path in SOURCES:
        tree = ast.parse(path.read_text())
        owner = {}
        # breadth-first: an inner function overwrites its outer one
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner[node] = fn.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == module for n in names):
                sites.append(f"{path.name}:{owner.get(node, '<module>')}")
    return sites


def test_mpmath_is_imported_in_one_place():
    """``mpmath`` is imported at exactly one site in the package, in
    ``special._whit``, the Whittaker fallback: the package's other
    high-precision routes are the tests' oracles (``tests/oracles.py``)."""
    assert _import_sites("mpmath") == ["special.py:_whit"]


def test_run_all_loads_no_scipy_integrate():
    """A whole ``strata all`` run in a fresh interpreter loads neither
    ``scipy.integrate`` nor the subpackages that its import pulls in
    (``scipy.optimize``, ``scipy.sparse``, ``scipy.spatial``)."""
    assert _fresh_stdout(_RUN_ALL)[:2] == ["0", "[]"]
