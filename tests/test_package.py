"""Smoke tests of the package's public names and the checked-in scripts,
so that a deleted or renamed function they use fails here."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import shapecorr
from shapecorr.config import CAM_POS_REGIMES

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "shapecorr"


def test_every_public_name_resolves():
    assert [n for n in shapecorr.__all__ if not hasattr(shapecorr, n)] == []


def test_overlap_histogram_script_runs():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "overlap_histogram.py"),
         "--pairs", "1", "--resolution", "16"],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("regime=") == len(CAM_POS_REGIMES)


def test_declared_numpy_floor_has_the_calls_the_code_makes():
    """Decimation calls ``np.vecdot`` and the AUC ``np.trapezoid``, both
    new in numpy 2.0; a lower floor installs a numpy they fail on."""
    text = (ROOT / "pyproject.toml").read_text()
    (major,) = re.findall(r'"numpy>=(\d+)[."]', text)
    assert int(major) >= 2


def test_every_public_definition_has_a_caller():
    """Every public module-level function and class of the package is
    named somewhere in the package (``__init__`` aside), the scripts or
    perfbench. The sources are parsed, not imported, so no bytecode is
    written beside them."""
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += [*(ROOT / "scripts").glob("*.py"),
                *(ROOT / "perfbench").glob("*.py")]
    defined, named = set(), set()
    for path in sources:
        tree = ast.parse(path.read_text(), str(path))
        if path.parent == PACKAGE:
            defined.update(
                node.name for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.rpartition(".")[2])
    assert sorted(defined - named) == []


def imported_names(tree):
    """(bound name, origin) for each name ``tree`` imports; origin is
    (module, name) for a name taken from a sibling module by a relative
    import, else None."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], None
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name,
                       (node.module, alias.name) if node.level else None)


def test_every_import_is_used():
    """Every name a module of the package (``__init__`` aside), the
    scripts or the tests imports is used in that module. A name that
    another package module imports from it counts as used there."""
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += [*(ROOT / "scripts").glob("*.py"),
                *(ROOT / "tests").glob("*.py")]
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sources}
    reexported = {origin for path, tree in trees.items()
                  if path.parent == PACKAGE
                  for _, origin in imported_names(tree) if origin}
    unused = []
    for path, tree in trees.items():
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(ROOT)}: {bound}"
                   for bound, _ in imported_names(tree)
                   if bound not in used
                   and (path.stem, bound) not in reexported]
    assert unused == []


def optional_parameters(func):
    """(name, position) of each parameter of ``func`` that has a default;
    position is None for a keyword-only one."""
    args = func.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    yield from ((a.arg, k) for k, a in enumerate(positional) if k >= first)
    yield from ((a.arg, None) for a, d in zip(args.kwonlyargs,
                                              args.kw_defaults) if d)


def test_every_optional_parameter_is_passed():
    """Every optional parameter of a public module-level function of the
    package is passed by some call in the package, the scripts, perfbench
    or the tests: by position, by keyword, or through ``*``/``**``. One
    that no call passes is a knob nothing sets. Calls are matched by the
    callee's name, as ``f(...)`` or ``obj.f(...)``."""
    optional = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text(), str(path)).body:
            if (isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("_")):
                optional[node.name] = (path.stem,
                                       dict(optional_parameters(node)))
    passed = {name: set() for name in optional}
    for d in ("src/shapecorr", "scripts", "perfbench", "tests"):
        for path in (ROOT / d).glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(
                    f, "attr", None)
                if name not in optional:
                    continue
                params = optional[name][1]
                if (any(isinstance(a, ast.Starred) for a in node.args)
                        or any(k.arg is None for k in node.keywords)):
                    passed[name].update(params)
                    continue
                keywords = {k.arg for k in node.keywords}
                passed[name].update(
                    p for p, k in params.items()
                    if p in keywords or k is not None and k < len(node.args))
    unset = sorted(f"{module}.{name}: {p}"
                   for name, (module, params) in optional.items()
                   for p in params if p not in passed[name])
    assert unset == []
