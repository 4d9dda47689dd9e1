"""Every shapecorr name that perfbench's per-layer metrics trace still
resolves, as its tracer looks it up: a module function by the module's
public attribute, a method in its class ``__dict__``. A refactor that
renames or removes one would silently zero the metrics built on it.

``RETIRED`` lists the traced names the package has deleted, which must
be exactly the ones that do not resolve: the per-point
``TriangleBVH.nearest_point`` that the batch ``nearest_points`` replaced,
and ``TriangleBVH.first_hits``, whose rays the scanner's binned caster
now casts. The metrics built on them read 0; dropping the names changes
the benchmark itself, and empties this set."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"
RETIRED = {"spatial.TriangleBVH.nearest_point",
           "spatial.TriangleBVH.first_hits"}


def load_layers(monkeypatch):
    # no bytecode may land in the benchmark's directory
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  LAYERS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are made
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def traced_names(layers):
    names = (set(layers.METHODS) | set(layers.COUNTED) | set(layers.BEFORE)
             | set(layers.AFTER))
    for metric in layers.METRICS:
        names.update(metric.sources)
    return sorted(names)


def resolves(name):
    module, _, attr = name.partition(".")
    mod = importlib.import_module(f"shapecorr.{module}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name, None)
        return cls is not None and inspect.isfunction(
            cls.__dict__.get(meth))
    fn = getattr(mod, attr, None)
    return (not attr.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == mod.__name__)


def test_every_traced_name_resolves(monkeypatch):
    names = traced_names(load_layers(monkeypatch))
    assert len(names) >= 20
    assert ([n for n in names if not resolves(n)]
            == sorted(RETIRED.intersection(names)))


@pytest.mark.parametrize("name,ok", [
    ("scanning.extract_partial", True),
    ("scanning.RaycastCache.load", True),
    ("scanning._scan", False),  # private: the tracer skips it
    ("pipeline.compose", False),  # imported from network
    ("spatial.TriangleBVH.nearest_point", False),
    ("spatial.TriangleBVH.first_hits", False),
])
def test_resolves_as_the_tracer_does(name, ok):
    assert resolves(name) is ok
