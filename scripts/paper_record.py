"""Paper-resolution record: thirteen cases, each run once in its own process.

Per case it prints the wall seconds of the case's call, the process's peak
RSS, the largest self times and the counters (Dijkstra sources, scan hit
and kept faces, projected points) of perfbench's tracer, and the sha256 of
the output. On a bumpy icosphere (seed 7): ``decimate`` 10242 -> 2500 and
40962 -> 10000; at 10242 vertices, normalized, the ``TriangleBVH`` build,
two 256x256 ``cast_scan`` scans and ``nearest_points`` of a seed-8
sphere's vertices; ``geodesic_error`` of a mixed prediction (20% random,
5% -1, as in evaluate_mixed) and a near-miss one (80% of the matched mixed
entries walked three random edges). On perfbench's fixtures at seed 3,
written to a temporary directory: P2P and P2F on the p2p_train chain at
10242 vertices, F2F on the f2f_heavy chain at 40962 (one instance each,
9000-10000 vertices, 256x256 scans, no remesh-cache reads), P2P over the
first six instances of the p2p_train chain (three shapes, each remeshed
several times), and ``shapecorr evaluate`` of the level-5 evaluation set,
one instance per setting.

On the numpy/scipy build of ``shapes.GOLDEN_BUILD`` each digest must
equal PINNED; a mismatch or a failed case makes the script exit 1 and name
the case. The last line of stdout is the record as one JSON object.

Usage: python3 scripts/paper_record.py
"""

import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import scipy

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / d)
                for d in ("src", "tests", "perfbench")]
sys.dont_write_bytecode = True  # leave perfbench/ as checked in
import fixtures  # noqa: E402
import gate  # noqa: E402
import shapecorr as sc  # noqa: E402
from shapes import GOLDEN_BUILD, bumpy_sphere  # noqa: E402
from shapecorr import cli, metrics, pairs, spatial  # noqa: E402
from shapecorr import geometry as geo  # noqa: E402
from shapecorr.scanning import CameraPose, cast_scan  # noqa: E402
from run import THREAD_VARS  # noqa: E402
from tracer import Tracer  # noqa: E402

SEED = 3  # of the chains, the evaluation set and generation
COUNTERS = ("geometry.dijkstra_sources", "scanning.hit_faces",
            "scanning.kept_faces", "geometry.project_points")
FIXTURES = {
    "p2p": lambda: fixtures.p2p_train_fixture(
        SEED, dict(fixtures.P2P_TRAIN, level=5)),
    "f2f": lambda: fixtures.f2f_heavy_fixture(
        SEED, dict(fixtures.F2F_HEAVY, level=6)),
    "eval": lambda: fixtures.eval_fixture(
        SEED, dict(fixtures.EVAL_MIXED, level=5, per_setting=1)),
}


def sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def bvh(query, camera=None):
    mesh = geo.normalize_to_unit_box(bumpy_sphere(5, seed=7))
    if query == "cast_scan":  # builds no tree
        return lambda: cast_scan(mesh, camera, (256, 256)), sha
    if query == "build":
        return (lambda: spatial.TriangleBVH(mesh), lambda t: sha(
            t.node_min, t.node_max, t.node_child, t.node_faces))
    tree = mesh.bvh  # built here, in the set-up
    points = geo.normalize_to_unit_box(bumpy_sphere(5, seed=8)).vertices
    return lambda: tree.nearest_points(points), lambda out: sha(*out)


def decimation(level, target):
    mesh = bumpy_sphere(level, seed=7)
    return (lambda: sc.decimate(mesh, target),
            lambda out: sha(out[0].vertices, out[0].faces, out[1]))


def walk(mesh, start, steps, rng):
    """Each of ``start`` moved ``steps`` random edges."""
    e = mesh.edges()
    arcs = np.concatenate([e, e[:, ::-1]])
    arcs = arcs[np.lexsort((arcs[:, 1], arcs[:, 0]))]
    first = np.searchsorted(arcs[:, 0], np.arange(mesh.n_vertices + 1))
    out = np.array(start, dtype=np.int64)
    for _ in range(steps):
        out = arcs[first[out] + rng.integers(0, first[out + 1] - first[out]),
                   1]
    return out


def geodesic(near_miss):
    mesh = bumpy_sphere(5, seed=7)
    n, rng = mesh.n_vertices, np.random.default_rng(7)
    pred, u = np.arange(n), rng.random(n)
    wrong = u < 0.2
    pred[wrong] = rng.integers(0, n, size=int(wrong.sum()))
    pred[(u >= 0.2) & (u < 0.25)] = -1
    if near_miss:
        moved = (pred >= 0) & (rng.random(n) < 0.8)
        pred[moved] = walk(mesh, pred[moved], 3, rng)
    gt, area = sc.identity_correspondence(mesh), geo.surface_area(mesh)
    return (lambda: metrics.geodesic_error(pred, gt, mesh, area, "full_full"),
            sha)


def generation(chain, setting, split, limit=1):
    root, out = FIXTURES[chain](), fixtures.WORK_DIR / "out"
    net = sc.build_network(root / "network.manifest")
    manifest = pairs.parse_split_manifest(root / "split.manifest")
    cfg = sc.GenerationConfig.from_mapping({
        "setting": setting, "split": split, "global_seed": str(SEED),
        "count_range": "9000-10000", "resolution": "256x256",
        "use_precompute_remeshing": "false"})
    return (lambda: sc.run_generation(cfg, net, manifest, out, limit=limit),
            lambda outcome: gate.tree_digest(out) if outcome[0]
            else "none written")


def evaluation():
    root, out = FIXTURES["eval"](), fixtures.WORK_DIR / "out"
    argv = ["evaluate", "--instances", str(root / "instances"),
            "--predictions", str(root / "predictions"), "--output", str(out)]
    return (lambda: cli.main(argv),
            lambda rc: gate.tree_digest(out) if rc == 0 else f"exit {rc}")


CASES = {
    "decimate 10242 -> 2500": (decimation, 5, 2500),
    "decimate 40962 -> 10000": (decimation, 6, 10000),
    "TriangleBVH build": (bvh, "build"),
    "cast_scan 0": (bvh, "cast_scan", CameraPose(0.3, 0.2)),
    "cast_scan 1": (bvh, "cast_scan", CameraPose(2.0, -0.4)),
    "nearest_points": (bvh, "nearest"),
    "geodesic_error mixed": (geodesic, False),
    "geodesic_error near-miss": (geodesic, True),
    "P2P": (generation, "p2p", "partial_partial", "train"),
    "P2F": (generation, "p2p", "partial_full", "train"),
    "F2F": (generation, "f2f", "full_full", "val"),
    "P2P x6": (generation, "p2p", "partial_partial", "train", 6),
    "evaluate": (evaluation,),
}
PINNED = {
    "decimate 10242 -> 2500":
        "73d942aa114a7674192199511642d6d1271434d989212f5ad018fa12936d7cea",
    "decimate 40962 -> 10000":
        "9e66220b908b3573a96041289c11924146af583265954311860757a74fdc493b",
    "TriangleBVH build":
        "e9c8aa24f7b07a2ba6f60e4f7f478831905771db6299cda095e81f92bf3980fa",
    "cast_scan 0":
        "8f5f3e959c274298340a1a04594bf5becf920e06be967cfb31c9e319dea073c0",
    "cast_scan 1":
        "7a541c6c5eabc5829baceb5f53a857ddd80a704fcd92505a09ec234b1cfd1e8e",
    "nearest_points":
        "f5b709fb60a4d53aecdb90a41436a227a12c5417217ba41034ff6a1403f4743f",
    "geodesic_error mixed":
        "5bdd554e1986efe34aebe922e7e8ccd517bdb6ca0440d3e0f4b36e34c8cce378",
    "geodesic_error near-miss":
        "fcc1346980f3645d7f07a1004fa993ad5ba057e750190608994c0c90b4c8755f",
    "P2P":
        "988c61cb0e15c30a11ab3806778f0f268e6f8242ee0526ae316ee11c04e704d2",
    "P2F":
        "a0815299d19d8974184dc75c9b31358881129ef5cecc392c95b4ff3236f16f64",
    "F2F":
        "52022863d894d6837a0c695ac451675514ec55aef875dc2835a744cf0d52ec6a",
    "P2P x6":
        "a426d4effdf62a3ed5b2c895e39557adf2119f4793dae79aee386e0bb6c2ba66",
    "evaluate":
        "e5a646649062cfacb9b794e4a9c39a853daadc260ae6207f0dd46999e350ed19",
}


def child(name, work):
    """The record of case ``name``, with the fixtures under ``work``."""
    fixtures.WORK_DIR = work
    tracer = Tracer()
    tracer.install()
    make, *args = CASES[name]
    run, digest = make(*args)
    tracer.phase = "loop"
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):  # evaluate's progress
        out = run()
    wall = time.perf_counter() - t0
    tracer.uninstall()
    top = list(tracer.self_times("loop").items())[:5]
    return {
        "wall_s": round(wall, 4),
        "peak_rss_mb": round(resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "top_self_s": {n: round(s, 4) for n, s in top},
        "counts": {k: int(tracer.counts.get(("loop", k), 0))
                   for k in COUNTERS},
        "sha256": digest(out)}


def main():
    os.environ.update({v: "1" for v in THREAD_VARS})
    ctx = multiprocessing.get_context("spawn")
    compared = (np.__version__, scipy.__version__) == GOLDEN_BUILD
    fixtures.WORK_DIR = work = Path(tempfile.mkdtemp(prefix="paper-record-"))
    record = {}
    try:
        for make in FIXTURES.values():
            make()
        for name in CASES:
            try:  # a pool of one process per case
                with ProcessPoolExecutor(1, mp_context=ctx) as pool:
                    rec = pool.submit(child, name, work).result()
            except Exception:
                traceback.print_exc()
                rec = None
            shutil.rmtree(work / "out", ignore_errors=True)
            record[name] = rec
            print(f"{name}: failed" if rec is None else
                  f"{name}: {rec['wall_s']:.3f} s, peak RSS "
                  f"{rec['peak_rss_mb']:.0f} MB, sha256 {rec['sha256']}\n"
                  f"  self seconds {rec['top_self_s']}\n  {rec['counts']}",
                  flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wrong = [n for n, rec in record.items() if rec is None
             or (compared and rec["sha256"] != PINNED[n])]
    if wrong:
        print("digest mismatch or failure: " + ", ".join(wrong),
              file=sys.stderr)
    print(json.dumps({"host": {
        "machine": platform.machine(), "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__}, "digests_compared": compared,
        "failed": wrong, "cases": record}))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
