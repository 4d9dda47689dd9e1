import hashlib
import heapq
import struct
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy.sparse import csgraph

from shapecorr import geometry as geo
from shapecorr import spatial
from shapecorr.decimate import _DecimationState
from shapecorr.meshes import UNMATCHED, DenseCorrespondence, Mesh

from shapes import GOLDEN_BUILD


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


def oracle_snap(corr, mesh):
    """Each row's dominant-weight corner, ties to the lowest vertex index,
    UNMATCHED where the row is: the reference of
    ``geometry.snap_correspondence_to_vertices``, one row at a time."""
    out = np.full(len(corr), UNMATCHED, dtype=np.int64)
    for i in range(len(corr)):
        if corr.faces[i] == UNMATCHED:
            continue
        tri = mesh.faces[corr.faces[i]]
        w = corr.weights[i]
        out[i] = min(int(tri[k]) for k in range(3) if w[k] == w.max())
    return out


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
