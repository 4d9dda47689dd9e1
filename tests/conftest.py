import hashlib
import heapq
import struct
from pathlib import Path

import numpy as np
import pytest
import scipy

from shapecorr import geometry as geo
from shapecorr import spatial
from shapecorr.decimate import _DecimationState
from shapecorr.meshes import UNMATCHED, DenseCorrespondence, Mesh


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


# the brute-force references the fast paths must equal bit for bit; the
# exhaustive ones score this many (query, face) pairs per step, so their
# memory does not grow with the number of queries
_PAIRS_PER_STEP = 1 << 16


def _steps(n, n_faces):
    """Slices of n queries, one per step of an exhaustive reference."""
    step = max(1, _PAIRS_PER_STEP // n_faces)
    return [slice(s, s + step) for s in range(0, n, step)]


def exhaustive_first_hits(mesh, origins, directions):
    """First-hit (face, t) of each ray over every face: the reference of
    the binned scanner ``scanning._hit_faces`` on the rays of
    ``scanning.camera_rays``. Face -1 and t +inf on a miss; ties go to the
    lowest face index."""
    origins = np.asarray(origins, dtype=np.float64)
    directions = np.asarray(directions, dtype=np.float64)
    a, b, c = mesh.face_corners()
    faces = np.empty(len(origins), dtype=np.int64)
    t = np.empty(len(origins))
    for s in _steps(len(origins), mesh.n_faces):
        ts = spatial.ray_triangle_intersections(
            origins[s, None], directions[s, None], a, b, c)
        faces[s] = np.argmin(ts, axis=1)  # the lowest face on ties
        t[s] = ts.min(axis=1)
    faces[np.isinf(t)] = -1
    return faces, t


def exhaustive_nearest_points(mesh, points):
    """Nearest surface point to each of ``points`` (n, 3) as (faces,
    barycentric weights): the reference of ``TriangleBVH.nearest_points``
    and ``geometry.project_points_to_surface``. Each (point, face) pair is
    keyed by squared distance as the BVH walk keys it, ties go to the
    lowest face, and the weights are recomputed on the winning face."""
    points = np.asarray(points, dtype=np.float64)
    a, b, c = mesh.face_corners()
    faces = np.empty(len(points), dtype=np.int64)
    for s in _steps(len(points), mesh.n_faces):
        k = len(points[s])
        p = np.repeat(points[s], mesh.n_faces, axis=0)  # query-major pairs
        near, _ = geo.closest_points_on_triangles(
            p, np.tile(a, (k, 1)), np.tile(b, (k, 1)), np.tile(c, (k, 1)))
        d2 = ((near - p) ** 2).sum(axis=1)
        faces[s] = np.argmin(d2.reshape(k, -1), axis=1)
    _, bary = geo.closest_points_on_triangles(points, a[faces], b[faces],
                                              c[faces])
    return faces, bary


def full_matrix_geodesic_error(pred, gt, mesh, area, setting):
    """One unlimited undirected Dijkstra over every matched gt vertex,
    reading one entry per row: the reference ``metrics.geodesic_error``
    must equal bit for bit. It calls scipy itself, so it shares no search
    code with ``geodesic_error``."""
    # imported here: the scripts import this module, and scipy.sparse would
    # add about 20 MB to every process they measure
    from scipy.sparse import csgraph
    pred = np.asarray(pred, dtype=np.int64)
    gtv = geo.snap_correspondence_to_vertices(gt, mesh)
    gm, pm = gtv != UNMATCHED, pred != UNMATCHED
    errors = np.full(len(gt), np.nan)
    errors[(gm != pm) if setting == "partial_partial" else gm & ~pm] = np.inf
    both = gm & pm
    if both.any():
        sources = np.unique(gtv[both])
        dist = csgraph.dijkstra(geo.edge_graph(mesh), directed=False,
                                indices=sources)
        row = np.searchsorted(sources, gtv[both])
        errors[both] = dist[row, pred[both]] / np.sqrt(area)
    return errors


def reference_flips_normal(st, i, j, pos):
    for vid in (i, j):
        for fi in st.vertex_faces[vid]:
            f = st.faces[fi]
            if i in f and j in f:
                continue
            pts = [pos if vv == vid else st.v[vv] for vv in f]
            n_new = np.cross(pts[1] - pts[0], pts[2] - pts[0])
            old = [st.v[vv] for vv in f]
            n_old = np.cross(old[1] - old[0], old[2] - old[0])
            if n_new @ n_old <= 0:
                return True
    return False


def reference_link_condition(st, i, j):
    shared_faces = st.vertex_faces[i] & st.vertex_faces[j]
    shared_verts = st.neighbors(i) & st.neighbors(j)
    third = set()
    for fi in shared_faces:
        third.update(v for v in st.faces[fi] if v not in (i, j))
    return shared_verts == third and len(shared_faces) in (1, 2)


def edges_in_face_order(mesh):
    """Every edge once as (lo, hi), in order of first appearance in the
    face list."""
    out = []
    for f in mesh.faces.tolist():
        for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            if (min(a, b), max(a, b)) not in out:
                out.append((min(a, b), max(a, b)))
    return out


def sequential_decimate(mesh, target):
    """The plain sequential collapse loop that ``decimate``'s windows
    reproduce, with its signature and return value: one collapse per pop.
    Pop in (cost, seq) order, skip a stale or invalid entry, else collapse
    and price the edges around the kept vertex with consecutive seq."""
    st = _DecimationState(mesh)
    heap = st.edge_entries(np.array(edges_in_face_order(mesh)), 0)
    heapq.heapify(heap)
    seq = len(heap)
    while st.n_alive > target and heap:
        _, _, i, j, vi, vj, *pos = heapq.heappop(heap)
        if vi != st.version[i] or vj != st.version[j]:
            continue
        if j not in st.neighbors(i) or not reference_link_condition(st, i, j):
            continue
        if reference_flips_normal(st, i, j, np.array(pos)):
            continue
        st.collapse(i, j, pos)
        ks = sorted(st.neighbors(i))
        pairs = np.array([(min(i, k), max(i, k)) for k in ks], dtype=np.int64)
        for entry in st.edge_entries(pairs.reshape(-1, 2), seq):
            heapq.heappush(heap, entry)
        seq += len(pairs)
    keep = np.flatnonzero(st.alive_v)
    remap = np.full(mesh.n_vertices, -1, dtype=np.int64)
    remap[keep] = np.arange(len(keep))
    faces = [[remap[v] for v in f] for _, f in sorted(st.faces.items())]
    return Mesh(st.v[keep], np.array(faces, dtype=np.int64), id=mesh.id), keep


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


def random_correspondence(mesh, rng, unmatched_frac=0.0):
    """Random faces and Dirichlet weights onto ``mesh``, a share
    ``unmatched_frac`` of rows unmatched."""
    n = mesh.n_vertices
    faces = rng.integers(0, mesh.n_faces, size=n).astype(np.int64)
    w = rng.dirichlet(np.ones(3), size=n)
    if unmatched_frac:
        drop = rng.random(n) < unmatched_frac
        faces[drop] = UNMATCHED
        w[drop] = 0.0
    return DenseCorrespondence("src", mesh.id, faces, w)


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
def bvh_builds(monkeypatch):
    """The ids of the meshes whose ``TriangleBVH`` the test builds, in
    build order."""
    builds = []

    class CountingBVH(spatial.TriangleBVH):
        def __init__(self, mesh):
            builds.append(mesh.id)
            super().__init__(mesh)
    monkeypatch.setattr(spatial, "TriangleBVH", CountingBVH)
    return builds


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
