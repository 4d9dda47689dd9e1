"""shapecorr benchmark: one workload run, end-to-end or traced.

    python3 perfbench/run.py --workload p2p_train --seed 1 --seconds 30 --trace 0

Writes the seeded fixture (cached, untimed), measures the workload in a
fresh child process with BLAS pools capped at one thread, checks the
outputs, prints a readable table and, as the last line of stdout, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``). The program is imported from ``src/`` of the checkout this
script sits in; without it the run fails with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 175  # a run must end within 180 s

sys.path.insert(0, str(HERE))
import fixtures  # noqa: E402
import gate  # noqa: E402
from layers import METRICS  # noqa: E402
from child import instance_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def run_child(workload, seed, seconds, trace, fixture, work, deadline,
              max_passes=None):
    """Run child.py; returns its result dict or raises RuntimeError."""
    env = dict(os.environ, PYTHONPATH=str(SRC),
               **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--fixture", str(fixture),
           "--work", str(work), "--src", str(SRC)]
    if max_passes is not None:
        cmd += ["--max-passes", str(max_passes)]
    try:
        # child output goes to stderr; stdout carries only the result
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              timeout=max(deadline, 1.0))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"child exceeded {deadline:.0f} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with code {proc.returncode}")
    return json.loads((work / "result.json").read_text())


def _fmt(value):
    return f"{value:.6g}"


def main(argv=None):
    t_begin = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "shapecorr" / "__init__.py").is_file():
        print(f"error: no program at {SRC / 'shapecorr'}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    fixture = w.fixture(args.seed)
    runs = fixtures.WORK_DIR / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-s{args.seed}-", dir=runs))
    try:
        deadline = DEADLINE_S - (time.monotonic() - t_begin)
        try:
            result = run_child(w.name, args.seed, args.seconds, args.trace,
                               fixture, work, deadline)
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        golden = gate.load_golden(result["versions"])
        pinned = None
        if golden is not None:
            pinned = golden["workloads"].get(w.name, {}).get(str(args.seed))
        failed, notes = gate.check(result, pinned)
        if args.trace:
            traces = fixtures.WORK_DIR / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            shutil.copy(work / "trace.json",
                        traces / f"{w.name}-s{args.seed}.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes, names = result["passes"], result["names"]
    attempted = len(passes) * len(names)
    print(f"workload {w.name}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"nproc {result['nproc']}  numpy {result['versions']['numpy']}  "
          f"scipy {result['versions']['scipy']}")
    print(f"{len(passes)} passes of {len(names)} instances, {attempted} "
          f"attempted, {failed} failed, failed_frac "
          f"{failed / max(attempted, 1):.6g}")
    k = len(result["setup_times"]) // max(len(passes), 1)
    for i, p in enumerate(passes):
        setups = result["setup_times"][i * k:(i + 1) * k]
        print(f"pass {i} set-ups " + " ".join(f"{t:.4f}" for t in setups)
              + " s, instance seconds: " + " ".join(f"{p['times'].get(n, float('nan')):.3f}"
                                     for n in names))
    all_times = instance_times(passes)
    if not all_times:
        print("error: no instance completed", file=sys.stderr)
        for note in notes:
            print(f"gate: {note}", file=sys.stderr)
        return 1
    for note in notes:
        print(f"gate: {note}")
    if args.trace:
        metrics = {}
        for m in METRICS:
            value, unit, absent = result["layers"][m.name]
            metrics[m.name] = {"value": value, "unit": unit}
            shown = "absent" if absent else f"{_fmt(value)} {unit}"
            label = "computed; " if m.computed else ""
            print(f"  {m.name:32s} {shown:18s} ({label}moves {m.moves})")
        print("largest self times per instance:")
        for name, sec in result["top_self_s"].items():
            print(f"  {name:40s} {_fmt(sec)} s")
    else:
        metrics = {
            "instance_s": {"value": statistics.median(all_times),
                           "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(result["setup_times"]),
                        "unit": "s"},
        }
        for name, m in metrics.items():
            print(f"  {name:16s} {_fmt(m['value'])} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
