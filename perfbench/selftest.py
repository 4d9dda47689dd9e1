"""Self-test of the benchmark's tracer on tiny inputs.

    python3 perfbench/selftest.py

Runs each workload kind for a moment on tiny fixtures with the tracer
installed and checks that every name a per-layer metric reads fired, that
no shapecorr module still holds an unwrapped original after install, that
uninstall restores every binding, that no per-layer metric is absent, and
that BENCHMARK.json lists the metrics and workloads as defined here.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import child  # noqa: E402
import fixtures  # noqa: E402
import gate  # noqa: E402
import layers  # noqa: E402
from tracer import PACKAGE, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "p2p_train": lambda s: fixtures.p2p_train_fixture(
        s, {"level": 2, "faust": 4, "scape": 4}),
    "f2f_remesh_heavy": lambda s: fixtures.f2f_heavy_fixture(
        s, {"level": 2, "shapes": 4}),
    "evaluate_mixed": lambda s: fixtures.eval_fixture(
        s, dict(fixtures.EVAL_MIXED, level=2, per_setting=1)),
}
TINY_CONFIG = {"p2p_train": (("count_range", "140-150"),
                             ("resolution", "24x24")),
               "f2f_remesh_heavy": (("count_range", "40-45"),)}


def check(ok, message):
    if not ok:
        print(f"selftest FAILED: {message}")
        sys.exit(1)


def module_bindings():
    return [(n, a, v) for n, m in sorted(sys.modules.items())
            if n == PACKAGE or n.startswith(PACKAGE + ".")
            for a, v in vars(m).items()]


def main():
    child.import_program(HERE.parent / "src")
    before = {(n, a): v for n, a, v in module_bindings()}
    tracer = Tracer()
    tracer.install()
    check(not tracer.absent, f"absent targets {tracer.absent}")
    originals = {id(v) for (n, a), v in before.items()
                 if f"{n.split('.')[-1]}.{a}" in tracer.wrapped}
    stale = [f"{n}.{a}" for n, a, v in module_bindings()
             if id(v) in originals]
    check(not stale, f"bindings left unwrapped: {stale}")

    fixtures.WORK_DIR.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=fixtures.WORK_DIR))
    try:
        for name, w in WORKLOADS.items():
            tiny = replace(w, fixture=TINY[name], pass_size=2,
                           config=w.config + TINY_CONFIG.get(name, ()))
            run = child.run_generate if w.kind == "generate" \
                else child.run_evaluate
            target = work / name
            target.mkdir()
            result = run(tiny, 3, 0.0, tiny.fixture(3), target, tracer, 1)
            failed, notes = gate.check(result, None)
            check(result["passes"][0]["times"] and not failed,
                  f"{name}: {notes}")
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    after = {(n, a): v for n, a, v in module_bindings()}
    check(all(after[k] is v for k, v in before.items()),
          "uninstall left a wrapped binding behind")
    sources = {s for m in layers.METRICS for s in m.sources}
    sources |= set(layers.METHODS) | set(layers.COUNTED)
    silent = sorted(s for s in sources
                    if not any(tracer.calls(p, s) for p in ("setup", "loop")))
    check(not silent, f"named spans that never fired: {silent}")
    check(None not in tracer.spans, "a span was left open")
    values = layers.compute(tracer, 1, 1, {})
    absent = [n for n, (_, _, a) in values.items() if a]
    check(not absent, f"absent metrics: {absent}")
    spec = HERE.parent / "BENCHMARK.json"
    if spec.exists():
        bench = json.loads(spec.read_text())
        check(bench["per_layer"] == [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in layers.METRICS], "BENCHMARK.json per_layer != layers.py")
        check(bench["workloads"] == [{"name": w.name, "why": w.why}
                                     for w in WORKLOADS.values()],
              "BENCHMARK.json workloads differ from workloads.py")
    print(f"selftest ok: {len(tracer.wrapped)} names wrapped, "
          f"{len(sources)} named spans fired, {len(tracer.spans)} spans")


if __name__ == "__main__":
    main()
