"""Test shapes shared by the tests and the scripts, and the numpy/scipy
build the pinned digests were measured on.

This module imports only numpy and shapecorr, so a script that imports it
(``scripts/paper_record.py`` measures peak RSS per case) loads neither
pytest nor ``scipy.sparse``.
"""

import numpy as np

from shapecorr.meshes import Mesh

# the numpy/scipy build the pinned digests were measured on; floating-point
# results may differ on another
GOLDEN_BUILD = ("2.4.6", "1.17.1")


def icosahedron():
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    v = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=np.float64)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    f = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=np.int64)
    return v, f


def icosphere(subdivisions=2, radius=1.0):
    """Subdivided icosahedron projected to a sphere. 2 subdivisions -> 320
    faces, 3 -> 1280 faces, 4 -> 5120 faces."""
    v, f = icosahedron()
    for _ in range(subdivisions):
        cache = {}
        verts = list(v)

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = (verts[i] + verts[j]) / 2.0
                m /= np.linalg.norm(m)
                cache[key] = len(verts)
                verts.append(m)
            return cache[key]

        new_f = []
        for a, b, c in f:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_f += [[a, ab, ca], [b, bc, ab], [c, ca, bc], [ab, bc, ca]]
        v = np.array(verts)
        f = np.array(new_f, dtype=np.int64)
    return Mesh(v * radius, f, id=f"icosphere{subdivisions}")


def bumpy_sphere(subdivisions=2, bump=0.25, seed=7, id=None):
    """Icosphere with a smooth deterministic radial perturbation; a generic
    'organic' closed test surface."""
    base = icosphere(subdivisions)
    v = base.vertices
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(4, 3))
    r = 1.0
    for k, row in enumerate(coeffs, start=1):
        r = r + bump / k * np.sin(k * v @ row)
    return Mesh(v * r[:, None], base.faces, id=id or f"bumpy{seed}")
