"""One measured workload run, in a fresh process started by ``run.py``.

The run is a series of passes, closed loop, until the time budget is
spent. A pass is what a user does once: set up (build the network and
enumerate pairs, or read the evaluation inputs), then generate or evaluate
the workload's instance set into a fresh output directory. Every pass does
the same work, cold caches included, and must write the same bytes. A pass
sets up ``SETUPS_PER_PASS`` times, each from scratch, and goes on with the
last set-up: a set-up is short, and one sample per pass is too few for a
steady median.

Instance times come from timestamps on the program's own progress output:
the ``log`` callback of ``run_generation``, or the lines ``shapecorr
evaluate`` prints. No wrapper is active unless ``--trace 1``, which wraps
the program first and writes the per-layer metrics with the result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import gate
import layers
from tracer import Tracer
from workloads import WORKLOADS, generation_config

SETUPS_PER_PASS = 4


def instance_times(passes):
    """Every instance time of every pass, in order."""
    return [t for p in passes for t in p["times"].values()]


@contextlib.contextmanager
def _phase(tracer, phase):
    """Attribute spans to ``phase`` for the duration, then to the loop."""
    if tracer:
        tracer.phase = phase
    try:
        yield
    finally:
        if tracer:
            tracer.phase = "loop"


def import_program(src):
    sys.path.insert(0, str(src))
    import shapecorr
    where = Path(shapecorr.__file__).resolve()
    if Path(src).resolve() not in where.parents:
        raise SystemExit(f"shapecorr imported from {where}, not from {src}")
    return shapecorr


def _set_up(tracer, set_up, setup_times):
    """Run ``set_up`` ``SETUPS_PER_PASS`` times, timing each, and return the
    last result. The previous result is dropped before each timing, so every
    set-up starts from the same state."""
    made = None
    with _phase(tracer, "setup"):
        for _ in range(SETUPS_PER_PASS):
            made = None
            t0 = time.perf_counter()
            made = set_up()
            setup_times.append(time.perf_counter() - t0)
    return made


def _passes(seconds, max_passes, one_pass):
    passes = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start < seconds
                         and len(passes) < max_passes):
        passes.append(one_pass(len(passes)))
    return passes


def run_generate(w, seed, seconds, fixture, work, tracer, max_passes):
    sc = importlib.import_module("shapecorr")
    pairs = importlib.import_module("shapecorr.pairs")
    config = importlib.import_module("shapecorr.config")
    pipeline = importlib.import_module("shapecorr.pipeline")
    mapping = generation_config(w, seed)
    setup_times, names = [], []

    def set_up():
        net = sc.build_network(fixture / "network.manifest")
        split = pairs.parse_split_manifest(fixture / "split.manifest")
        cfg = config.GenerationConfig.from_mapping(mapping)
        return net, split, cfg, sc.enumerate_pairs(split, cfg)

    def one_pass(index):
        if tracer:
            tracer.unit = index
        net, split, cfg, specs = _set_up(tracer, set_up, setup_times)
        names[:] = [pipeline.instance_dirname(s) for s in specs[:w.pass_size]]
        times, fails = {}, []
        stamp = [time.perf_counter()]

        def log(msg):
            now = time.perf_counter()
            if msg.startswith("done "):
                times[msg.split()[1]] = now - stamp[0]
            elif msg.startswith("FAIL "):
                fails.append(msg)
            stamp[0] = now

        out = work / f"pass{index}"
        sc.run_generation(cfg, net, split, out, limit=w.pass_size, log=log)
        problems = {n: gate.check_instance(out / n, cfg.setting)
                    for n in names if n in times}
        listed = (out / "instances.manifest").read_text().split()
        if sorted(listed) != sorted(times):
            problems["instances.manifest"] = ["lists other instances than "
                                              "those generated"]
        result = {"times": times, "fails": fails,
                  "problems": {n: p for n, p in problems.items() if p},
                  "digests": {n: gate.tree_digest(out / n) for n in times},
                  "tree": gate.tree_digest(out)}
        shutil.rmtree(out, ignore_errors=True)
        return result

    passes = _passes(seconds, max_passes, one_pass)
    cfg = config.GenerationConfig.from_mapping(mapping)
    return {"setup_times": setup_times, "names": names, "passes": passes,
            "rays_per_scan": 0 if cfg.setting == "full_full"
            else cfg.resolution[0] * cfg.resolution[1]}


class _StampedLines(io.TextIOBase):
    """stdout stand-in that keeps each printed line with its arrival time."""

    def __init__(self):
        self.lines = []

    def writable(self):
        return True

    def write(self, text):
        now = time.perf_counter()
        self.lines += [(now, ln) for ln in text.splitlines() if ln.strip()]
        return len(text)


_EVAL_LINE = re.compile(r"\] (eval|SKIP) (\S+?):")


def run_evaluate(w, seed, seconds, fixture, work, tracer, max_passes):
    pipeline = importlib.import_module("shapecorr.pipeline")
    metrics = importlib.import_module("shapecorr.metrics")
    cli = importlib.import_module("shapecorr.cli")
    inst, preds = fixture / "instances", fixture / "predictions"
    names = (inst / "instances.manifest").read_text().split()
    setup_times = []

    def set_up():
        return [(pipeline.load_instance(inst / name),
                 metrics.load_prediction(preds / f"{name}.txt"))
                for name in names]

    def one_pass(index):
        if tracer:
            tracer.unit = index
        _set_up(tracer, set_up, setup_times)
        out = work / f"pass{index}"
        lines = _StampedLines()
        prev = time.perf_counter()
        with contextlib.redirect_stdout(lines):
            rc = cli.main(["evaluate", "--instances", str(inst),
                           "--predictions", str(preds), "--output", str(out)])
        times, skipped = {}, []
        for t, line in lines.lines:
            m = _EVAL_LINE.search(line)
            if m is None:
                continue
            if m.group(1) == "eval":
                times[m.group(2)] = t - prev
            else:
                skipped.append(m.group(2))
            prev = t
        problems = {n: ["skipped"] for n in skipped}
        if rc != 0:
            problems["summary.txt"] = [f"exit code {rc}"]
        digests = {d.name: gate.tree_digest(d) for d in out.iterdir()
                   if d.is_dir()} if out.exists() else {}
        result = {"times": times, "fails": [], "problems": problems,
                  "skipped": skipped, "digests": digests,
                  "tree": gate.tree_digest(out) if out.exists() else None}
        shutil.rmtree(out, ignore_errors=True)
        return result

    passes = _passes(seconds, max_passes, one_pass)
    return {"setup_times": setup_times, "names": names, "passes": passes,
            "skipped": sum(len(p["skipped"]) for p in passes)}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fixture", type=Path, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--max-passes", type=int, default=10 ** 9,
                    help="stop after this many passes (for pinning)")
    args = ap.parse_args(argv)

    import_program(args.src)
    import numpy
    import scipy
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    w = WORKLOADS[args.workload]
    run = run_generate if w.kind == "generate" else run_evaluate
    result = run(w, args.seed, args.seconds, args.fixture, args.work, tracer,
                 args.max_passes)
    if tracer:
        tracer.uninstall()
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = {"numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    result["nproc"] = len(os.sched_getaffinity(0))
    if tracer:
        units = sum(len(p["times"]) for p in result["passes"])
        times = instance_times(result["passes"])
        extra = {"instance_s": statistics.median(times) if times else 0.0,
                 "rays_per_scan": result.get("rays_per_scan", 0),
                 "skipped": result.get("skipped", 0)}
        result["layers"] = layers.compute(
            tracer, units, len(result["setup_times"]), extra)
        result["top_self_s"] = {n: s / max(units, 1) for n, s in
                                list(tracer.self_times("loop").items())[:8]}
        trace = tracer.dump()
        trace.update(workload=w.name, seed=args.seed,
                     versions=result["versions"], nproc=result["nproc"])
        (args.work / "trace.json").write_text(json.dumps(trace))
    (args.work / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
