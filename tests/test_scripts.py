"""Every script under ``scripts/`` imports against today's ``src/`` and
perfbench names, and runs nothing until it is called; the overlap
histogram also runs end to end, the manifest generator rebuilds the
shipped split manifest byte for byte, and the paper record's four BVH
cases give their pinned digests."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from shapecorr.pairs import write_split_manifest

from conftest import require_golden_build

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


@pytest.fixture
def load(monkeypatch):
    """Import a script by file name; the import path and the bytecode flag
    it may change are restored afterwards, and no bytecode is written."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)

    def load(name):
        spec = importlib.util.spec_from_file_location(
            f"scripts_{Path(name).stem}", SCRIPTS / name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    return load


@pytest.mark.parametrize("name", sorted(p.name for p in SCRIPTS.glob("*.py")))
def test_imports_without_running(name, load, capsys):
    load(name)
    assert capsys.readouterr() == ("", "")


def test_record_pins_every_case(load):
    record = load("paper_record.py")
    assert len(record.CASES) == 13
    assert list(record.PINNED) == list(record.CASES)


def test_overlap_histogram_runs(load, capsys):
    load("overlap_histogram.py").main(["--pairs", "2", "--resolution", "16"])
    out = capsys.readouterr().out
    for regime in ("low", "medium", "high"):
        block = out.split(f"regime={regime} ")[1].split("regime=")[0]
        assert "accepted" in block and block.count("  [") == 10


def test_default_manifest_rebuilds_shipped_file(load, tmp_path):
    """The shipped manifest is what the generator writes, so its derived
    type-compatibility rule picks the same pairs."""
    out = tmp_path / "default_split.manifest"
    write_split_manifest(load("make_default_manifest.py").build(), out)
    shipped = ROOT / "src" / "shapecorr" / "data" / "default_split.manifest"
    assert out.read_bytes() == shipped.read_bytes()


@pytest.mark.parametrize("name", ["TriangleBVH build", "cast_scan 0",
                                  "cast_scan 1", "nearest_points"])
def test_record_bvh_case_matches_pin(name, load):
    """The record's BVH and scan cases, run in this process: a renamed
    tree array or a moved hit shows here, not only in a full record run."""
    require_golden_build()
    record = load("paper_record.py")
    make, *args = record.CASES[name]
    run, digest = make(*args)
    assert digest(run()) == record.PINNED[name]


def test_shapes_import_leaves_pytest_and_scipy_sparse_unloaded():
    """The record imports ``shapes`` into every case's process, so pytest
    (about 8.6 MB when the scripts imported ``conftest``) or a
    ``scipy.sparse`` import there (about 23 MB) would raise every case's
    peak RSS."""
    code = ("import sys; sys.dont_write_bytecode = True; "
            f"sys.path[:0] = {[str(ROOT / d) for d in ('src', 'tests')]!r}; "
            "import shapes; "
            "print('pytest' in sys.modules, 'scipy.sparse' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_code_lines_counts_by_the_one_rule(load, capsys):
    """Docstrings, comments, blank lines and ``__init__`` are not code;
    every other module of the three directories gets one line, and each
    directory's total is the sum of its modules."""
    script = load("code_lines.py")
    source = ('"""Module doc."""\n\n# a comment\nimport os\n\n\n'
              'def f(x):\n    """Doc,\n    two lines."""\n'
              '    return (x +  # trailing\n            1)\n\n\n'
              'S = """not a\ndocstring"""\n')
    assert script.code_lines(source) == 6
    assert script.main() == 0
    rows = [line.split(None, 1) for line in
            capsys.readouterr().out.splitlines()]
    counts = {name: int(n) for n, name in rows}
    for d in script.DIRS:
        modules = sorted(p for p in (ROOT / d).glob("*.py")
                         if p.name != "__init__.py")
        assert modules
        assert counts[f"{d}/ total"] == sum(
            counts[str(p.relative_to(ROOT))] for p in modules)
    assert "src/shapecorr/__init__.py" not in counts
    assert counts["total"] == sum(counts[f"{d}/ total"]
                                  for d in script.DIRS)
