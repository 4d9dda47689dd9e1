"""What perfbench's driver, ``perfbench/child.py``, calls in shapecorr and
parses from its output still holds: every shapecorr attribute it names
resolves, and a tiny generation and evaluation run through its own
``run_generate`` and ``run_evaluate`` are timed, failed and skipped as the
program logged them. Without this, renaming ``load_instance`` or rewording
a progress line breaks perfbench only when the benchmark runs.

The benchmark's files are loaded from source with bytecode writing off,
as ``test_perfbench_names`` loads them."""

import ast
import functools
import importlib
import importlib.util
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from shapecorr import GenerationConfig, build_network, run_generation
from shapecorr.corrio import save_correspondence
from shapecorr.geometry import snap_correspondence_to_vertices
from shapecorr.meshes import DenseCorrespondence, identity_correspondence
from shapecorr.meshio import save_mesh
from shapecorr.pairs import parse_split_manifest
from shapecorr.pipeline import load_instance

from shapes import icosphere

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CHILD = PERFBENCH / "child.py"


@pytest.fixture
def child(monkeypatch):
    """``perfbench/child.py`` as a module, with the benchmark modules it
    imports by bare name; they leave ``sys.modules`` afterwards."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in set(sys.modules) - before:
        del sys.modules[name]


def program_modules(tree):
    """Each name ``child.py`` binds to ``importlib.import_module("shapecorr
    ...")``, with the module it names."""
    bound = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
                and ast.unparse(node.value.func) == "importlib.import_module"
                and isinstance(node.value.args[0], ast.Constant)
                and node.value.args[0].value.startswith("shapecorr")):
            (target,) = node.targets
            bound[target.id] = node.value.args[0].value
    return bound


def attribute_chains(tree, names):
    """Every dotted chain ``name.a.b`` in ``tree`` that starts at one of
    ``names``, as (name, ["a", "b"])."""
    chains = set()
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.insert(0, node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id in names:
            chains.add((node.id, tuple(attrs)))
    return sorted(chains)


def test_every_program_attribute_resolves():
    tree = ast.parse(CHILD.read_text(), str(CHILD))
    bound = program_modules(tree)
    assert set(bound) == {"sc", "pipeline", "metrics", "cli", "pairs",
                          "config"}
    chains = attribute_chains(tree, bound)
    assert ("pipeline", ("load_instance",)) in chains
    missing = []
    for name, attrs in chains:
        try:
            functools.reduce(getattr, attrs,
                             importlib.import_module(bound[name]))
        except AttributeError:
            missing.append(".".join((name, *attrs)))
    assert missing == []


def write_fixture(root):
    """Shapes a and b joined by an edge, and c with none: the pair (a, c)
    has no network path, so its instance fails."""
    base = icosphere(1)
    ic = identity_correspondence(base)
    lines = ["dataset faust type=synthetic"]
    for sid in "abc":
        save_mesh(base, root / f"{sid}.ply")
        lines.append(f"shape {sid} dataset=faust mesh={sid}.ply"
                     + (" template=true" if sid == "a" else ""))
    for a, b in (("a", "b"), ("b", "a")):
        save_correspondence(DenseCorrespondence(a, b, ic.faces, ic.weights),
                            root / f"{a}{b}.corr")
    lines.append("edge a b forward=ab.corr backward=ba.corr")
    (root / "network.manifest").write_text("\n".join(lines) + "\n")
    (root / "split.manifest").write_text(
        "".join(f"shape {sid} dataset=faust category=faust:c type=human\n"
                for sid in "abc") + "pair train a b\npair train a c\n")


CONFIG = (("datasets", "faust"), ("setting", "full_full"),
          ("split", "train"), ("remesh", "false"))


def test_generation_log_is_parsed_as_logged(child, tmp_path):
    """One pass of ``run_generate``: the instance that is written is timed
    from its ``done`` line, the one that fails is listed from its ``FAIL``
    line, and the pass finds no problem."""
    write_fixture(tmp_path)
    work = tmp_path / "work"
    work.mkdir()
    w = SimpleNamespace(config=CONFIG, pass_size=2)
    result = child.run_generate(w, 3, 0.0, tmp_path, work, None, 1)
    (one_pass,) = result["passes"]
    assert sorted(result["names"]) == ["train_000000", "train_000001"]
    (done,) = one_pass["times"]
    (failed,) = set(result["names"]) - {done}
    (fail,) = one_pass["fails"]
    assert fail.startswith(f"FAIL {failed}: ")
    assert one_pass["problems"] == {}
    assert len(result["setup_times"]) == child.SETUPS_PER_PASS


def test_evaluate_lines_are_parsed_as_printed(child, tmp_path):
    """One pass of ``run_evaluate``, whose set-up reads every instance with
    ``pipeline.load_instance``: a scored instance is timed from its
    ``eval`` line, and one whose prediction has the wrong length is
    listed from its ``SKIP`` line."""
    write_fixture(tmp_path)
    inst = tmp_path / "instances"
    net = build_network(tmp_path / "network.manifest")
    split = parse_split_manifest(tmp_path / "split.manifest")
    (scored,), _ = run_generation(GenerationConfig.from_mapping(dict(CONFIG)),
                                  net, split, inst, limit=1)
    skipped = "copy"
    shutil.copytree(inst / scored, inst / skipped)
    (inst / "instances.manifest").write_text(f"{scored}\n{skipped}\n")
    preds = tmp_path / "predictions"
    preds.mkdir()
    shape_y, gt, _, _ = load_instance(inst / scored)
    pred = snap_correspondence_to_vertices(gt, shape_y)
    (preds / f"{scored}.txt").write_text(
        "".join(f"{int(v)}\n" for v in pred))
    (preds / f"{skipped}.txt").write_text("0\n")
    work = tmp_path / "work"
    work.mkdir()
    result = child.run_evaluate(None, 3, 0.0, tmp_path, work, None, 1)
    (one_pass,) = result["passes"]
    assert list(one_pass["times"]) == [scored]
    assert one_pass["skipped"] == [skipped]
    assert set(one_pass["digests"]) == {scored}
    assert np.isfinite(result["setup_times"]).all()
