import hashlib
import struct
from pathlib import Path

import numpy as np
import pytest
import scipy

from shapecorr.meshes import Mesh
from shapecorr.scanning import camera_rays
from shapecorr.spatial import exhaustive_first_hits


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


def grid_plane(n=10, size=1.0):
    """Regular triangulated square grid in the xy-plane, (n+1)^2 vertices."""
    xs = np.linspace(0.0, size, n + 1)
    vv = np.array([[x, y, 0.0] for y in xs for x in xs])
    faces = []
    for j in range(n):
        for i in range(n):
            k = j * (n + 1) + i
            faces.append([k, k + 1, k + n + 2])
            faces.append([k, k + n + 2, k + n + 1])
    return Mesh(vv, np.array(faces, dtype=np.int64), id=f"grid{n}")


def exhaustive_scan(mesh, camera, resolution):
    """The distinct faces ``exhaustive_first_hits`` gives for the rays of
    ``camera_rays``, sorted, about 2**16 (ray, face) pairs at a time: the
    oracle of ``scanning.cast_scan``."""
    origins, dirs = camera_rays(camera, resolution)
    step = max(1, (1 << 16) // mesh.n_faces)
    faces = np.concatenate([
        exhaustive_first_hits(mesh, origins[s:s + step], dirs[s:s + step])[0]
        for s in range(0, len(origins), step)])
    return np.unique(faces[faces >= 0])


def floyd_warshall_distances(mesh):
    """All-pairs shortest paths on the vertex-edge graph, hand-rolled; the
    independent oracle for Dijkstra-based geodesics."""
    n = mesh.n_vertices
    d = np.full((n, n), np.inf)
    np.fill_diagonal(d, 0.0)
    for i, j in mesh.edges():
        w = np.linalg.norm(mesh.vertices[i] - mesh.vertices[j])
        d[i, j] = min(d[i, j], w)
        d[j, i] = min(d[j, i], w)
    for k in range(n):
        np.minimum(d, d[:, k, None] + d[None, k, :], out=d)
    return d


def random_rigid(rng):
    """Haar-ish random proper rotation + translation."""
    A = rng.normal(size=(3, 3))
    Q, _ = np.linalg.qr(A)
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    from shapecorr.meshes import RigidTransform
    return RigidTransform(Q, rng.normal(size=3))


# the numpy/scipy build the pinned digests were measured on; floating-point
# results may differ on another
GOLDEN_BUILD = ("2.4.6", "1.17.1")


def require_golden_build():
    """Skip the calling test unless numpy/scipy match GOLDEN_BUILD."""
    build = (np.__version__, scipy.__version__)
    if build != GOLDEN_BUILD:
        pytest.skip("digest pinned on numpy %s / scipy %s; this is numpy "
                    "%s / scipy %s" % (GOLDEN_BUILD + build))


def digest_tree(root):
    """sha256 over every file under ``root``: relative path, then bytes."""
    h = hashlib.sha256()
    for p in sorted(Path(root).rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


# record counts past any test file's bytes: one a full read could not
# allocate and two whose byte counts overflow a read
COUNTS_PAST_THE_FILE = [2 ** 40, 2 ** 62, 2 ** 64 - 1]


def set_corr_count(path, count):
    """Overwrite the record count in the header of the binary ``.corr``
    at ``path``, as a corrupt file may hold it."""
    data = bytearray(Path(path).read_bytes())
    at = 7 + struct.unpack_from("<H", data, 5)[0]  # past magic, version, id
    at += 2 + struct.unpack_from("<H", data, at)[0]  # past the target id
    struct.pack_into("<Q", data, at, count)
    Path(path).write_bytes(bytes(data))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
