"""Wall time, Dijkstra searches, peak RSS and error digest of
``geodesic_error`` at paper scale.

Scores two seeded prediction sets on a bumpy icosphere of 10242 vertices
(seed 7), whose ground truth maps every vertex to itself:

- mixed: the ground truth with 20% of its entries set to random vertices
  and 5% to -1, as in the evaluate_mixed benchmark workload;
- near-miss: the mixed prediction with 80% of its matched entries then
  walked three random edges, the way a trained matcher errs.

Prints, per case, the wall seconds of the ``geodesic_error`` call, the
sources its Dijkstra searches ran from (the first searches and the
unlimited re-runs, the latter 0 where no search has a limit), the
process's peak RSS and the sha256 of the errors. The cases run mixed
first; the peak RSS is the process's peak so far. Exits 1 if a digest
differs from the one pinned below, so two trees that both pass score
alike.

Usage: python3 scripts/eval_probe.py
"""

import hashlib
import resource
import sys
import time
from pathlib import Path

import numpy as np

from shapecorr import geometry as geo
from shapecorr.meshes import identity_correspondence
from shapecorr.metrics import geodesic_error

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import bumpy_sphere  # noqa: E402

PINNED = {
    "mixed": "5bdd554e1986efe34aebe922e7e8ccd517bdb6ca0440d3e0f4b36e34c8cce378",
    "near-miss":
        "fcc1346980f3645d7f07a1004fa993ad5ba057e750190608994c0c90b4c8755f",
}


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


def predictions(mesh, rng):
    n = mesh.n_vertices
    mixed = np.arange(n)
    u = rng.random(n)
    wrong = u < 0.2
    mixed[wrong] = rng.integers(0, n, size=int(wrong.sum()))
    mixed[(u >= 0.2) & (u < 0.25)] = -1
    near = mixed.copy()
    moved = (mixed >= 0) & (rng.random(n) < 0.8)
    near[moved] = walk(mesh, mixed[moved], 3, rng)
    return {"mixed": mixed, "near-miss": near}


def main():
    mesh = bumpy_sphere(5, seed=7)
    gt = identity_correspondence(mesh)
    area = geo.surface_area(mesh)
    search = geo.geodesic_distance_fields
    runs = {}

    def counted(mesh, sources, *args, **kwargs):
        # an unlimited search after a limited one is a re-run
        limited = np.isfinite(args[0] if args else kwargs.get("limit", np.inf))
        runs["limited"] |= limited
        runs["rerun" if runs["limited"] and not limited else "first"] += \
            len(sources)
        return search(mesh, sources, *args, **kwargs)

    geo.geodesic_distance_fields = counted
    failed = False
    for name, pred in predictions(mesh, np.random.default_rng(7)).items():
        runs.update(first=0, rerun=0, limited=False)
        fresh = mesh.with_vertices(mesh.vertices)  # no cached edge graph
        t0 = time.perf_counter()
        errors = geodesic_error(pred, gt, fresh, area, "full_full")
        wall = time.perf_counter() - t0
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        digest = hashlib.sha256(errors.tobytes()).hexdigest()
        ok = digest == PINNED[name]
        failed |= not ok
        print(f"{name}: {wall:.2f} s, {runs['first']} sources + "
              f"{runs['rerun']} re-run, peak RSS {rss:.0f} MB, "
              f"sha256 {digest}{'' if ok else ' MISMATCH'}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
