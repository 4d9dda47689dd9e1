"""Wall time, peak RSS and output digests of ``TriangleBVH`` at paper scale.

On a bumpy icosphere (level 5, seed 7: 10242 vertices, 20480 faces,
normalized to the unit box as the scanner expects) it times one
``TriangleBVH`` build, two 256x256 ``first_hits`` scans from fixed cameras
and one ``nearest_points`` call on 10242 points (the vertices of a second
bumpy sphere, seed 8). Each case runs REPEATS times; it prints the fastest
wall seconds, the process's peak RSS so far and the sha256 over the query's
outputs (faces and t per scan, faces and barycentrics per projection).

The digests are pinned in EXPECTED: the script exits 1 when any query
answers differently, so a change to the tree or its walks must keep them.

Usage: python3 scripts/bvh_probe.py
"""

import hashlib
import resource
import sys
import time
from pathlib import Path

import numpy as np

from shapecorr.geometry import normalize_to_unit_box
from shapecorr.scanning import CameraPose, camera_rays
from shapecorr.spatial import TriangleBVH

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import bumpy_sphere  # noqa: E402

LEVEL = 5
RESOLUTION = (256, 256)
CAMERAS = (CameraPose(0.3, 0.2), CameraPose(2.0, -0.4))
REPEATS = 3  # one run of a scan varies by 2x on a shared 2-vCPU guest
EXPECTED = {
    "scan 0": "c5b4271e816028b54113d861828a0b61"
              "c0920fe1c35cb64d4a1c39cf03f6bbd7",
    "scan 1": "2cc8643209159c4977ef6e73ce16d3e3"
              "51f97e6a078c8efc88052a03bf48c760",
    "nearest_points": "f5b709fb60a4d53aecdb90a41436a227"
                      "a12c5417217ba41034ff6a1403f4743f",
}


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def timed(fn):
    """Fastest wall seconds of REPEATS calls of fn, and its last result."""
    best = np.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return best, out


def report(name, wall, sha=None):
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    line = f"{name}: {wall:.3f} s, peak RSS {rss:.0f} MB"
    print(line + (f", sha256 {sha}" if sha else ""), flush=True)


def main():
    mesh = normalize_to_unit_box(bumpy_sphere(LEVEL, seed=7))
    points = normalize_to_unit_box(bumpy_sphere(LEVEL, seed=8)).vertices

    wall, bvh = timed(lambda: TriangleBVH(mesh))
    report(f"build ({mesh.n_faces} faces)", wall)

    shas = {}
    for i, camera in enumerate(CAMERAS):
        origins, dirs = camera_rays(camera, RESOLUTION)
        wall, out = timed(lambda: bvh.first_hits(origins, dirs))
        shas[f"scan {i}"] = digest(*out)
        report(f"scan {i} ({len(origins)} rays)", wall, shas[f"scan {i}"])

    wall, out = timed(lambda: bvh.nearest_points(points))
    shas["nearest_points"] = digest(*out)
    report(f"nearest_points ({len(points)} points)", wall,
           shas["nearest_points"])

    wrong = [name for name, sha in EXPECTED.items() if shas[name] != sha]
    if wrong:
        print(f"digest mismatch: {', '.join(wrong)}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
