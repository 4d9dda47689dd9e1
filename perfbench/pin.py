"""Record the pinned output digests in ``golden.json``.

    python3 perfbench/pin.py

For every workload and every seed in ``SEEDS``, runs one pass of the
measurement child and stores the digest of its whole output tree and of
each instance's output. The digests hold for the numpy/scipy build recorded with them; re-run this
after a change that is meant to alter the output, or on another build.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import fixtures  # noqa: E402
import gate  # noqa: E402
from run import run_child  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# The seeds ``golden.json`` covers; it is rewritten whole for all of them.
SEEDS = range(50)
JOBS = 2


def pin_one(name, seed):
    w = WORKLOADS[name]
    fixture = w.fixture(seed)
    runs = fixtures.WORK_DIR / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"pin-{name}-s{seed}-", dir=runs))
    try:
        res = run_child(name, seed, 0, 0, fixture, work, 600, max_passes=1)
        failed, notes = gate.check(res, None)
        if failed:
            raise RuntimeError(f"{name} seed {seed} fails its gate: {notes}")
        p = res["passes"][0]
        return name, seed, {"tree": p["tree"], "digests": p["digests"]}, \
            res["versions"]
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    tasks = [(n, s) for s in SEEDS for n in WORKLOADS]
    golden = {"versions": None, "workloads": {n: {} for n in WORKLOADS}}
    with ThreadPoolExecutor(JOBS) as pool:
        for name, seed, value, versions in pool.map(lambda t: pin_one(*t),
                                                    tasks):
            if golden["versions"] not in (None, versions):
                raise RuntimeError("children ran on different builds")
            golden["versions"] = versions
            golden["workloads"][name][str(seed)] = value
            print(f"pinned {name} seed {seed}", flush=True)
    gate.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True)
                           + "\n")


if __name__ == "__main__":
    main()
