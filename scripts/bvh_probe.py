"""Wall time, peak RSS and output digests of ``TriangleBVH`` at paper scale.

On a bumpy icosphere (level 5, seed 7: 10242 vertices, 20480 faces,
normalized to the unit box as the scanner expects) it times one
``TriangleBVH`` build, two 256x256 ``first_hits`` scans from fixed cameras
and one ``nearest_points`` call on 10242 points (the vertices of a second
bumpy sphere, seed 8). It prints, per case, the wall seconds, the
process's peak RSS so far and the sha256 over the query's outputs (faces
and t per scan, faces and barycentrics per projection). Two trees that
print the same digests answer alike.

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


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def report(name, wall, sha=None):
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    line = f"{name}: {wall:.3f} s, peak RSS {rss:.0f} MB"
    print(line + (f", sha256 {sha}" if sha else ""), flush=True)


def main():
    mesh = normalize_to_unit_box(bumpy_sphere(LEVEL, seed=7))
    points = normalize_to_unit_box(bumpy_sphere(LEVEL, seed=8)).vertices

    t0 = time.perf_counter()
    bvh = TriangleBVH(mesh)
    report(f"build ({mesh.n_faces} faces)", time.perf_counter() - t0)

    for i, camera in enumerate(CAMERAS):
        origins, dirs = camera_rays(camera, RESOLUTION)
        t0 = time.perf_counter()
        faces, t = bvh.first_hits(origins, dirs)
        report(f"scan {i} ({len(origins)} rays)", time.perf_counter() - t0,
               digest(faces, t))

    t0 = time.perf_counter()
    faces, bary = bvh.nearest_points(points)
    report(f"nearest_points ({len(points)} points)",
           time.perf_counter() - t0, digest(faces, bary))


if __name__ == "__main__":
    main()
