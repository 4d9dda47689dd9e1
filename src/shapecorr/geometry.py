"""Geometric primitives on triangle meshes: areas, components, closest-point
projection, rigid alignment, transforms and graph geodesics."""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.sparse import csgraph

from .meshes import (DenseCorrespondence, Mesh, RigidTransform,
                     SimilarityTransform, SurfacePoint, UNMATCHED)


def face_areas(mesh, face_indices=None):
    a, b, c = mesh.face_corners(face_indices)
    return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


def surface_area(mesh):
    """Total surface area (sum of triangle areas)."""
    return float(face_areas(mesh).sum())


def connected_components(mesh, face_subset=None):
    """Partition faces into edge-adjacent components.

    Returns a list of (face index array, area) sorted by area descending;
    equal areas are ordered by smallest contained face index. Edge adjacency
    means a shared (unordered) vertex pair, so non-manifold fans count as
    connected.
    """
    if face_subset is None:
        fidx = np.arange(mesh.n_faces)
    else:
        fidx = np.asarray(sorted(face_subset), dtype=np.int64)
        if len(fidx) and (fidx[0] < 0 or fidx[-1] >= mesh.n_faces):
            raise ValueError("face_subset out of range")
    if len(fidx) == 0:
        return []
    f = mesh.faces[fidx]
    edges = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]])
    edges = np.sort(edges, axis=1)
    owner = np.tile(np.arange(len(fidx)), 3)  # edge blocks are per-corner
    _, inverse = np.unique(edges, axis=0, return_inverse=True)
    # faces sharing an edge id become graph neighbours: chain each run of
    # equal ids through its consecutive members
    order = np.argsort(inverse, kind="stable")
    inv_sorted = inverse[order]
    own_sorted = owner[order]
    same = inv_sorted[1:] == inv_sorted[:-1]
    rows, cols = own_sorted[:-1][same], own_sorted[1:][same]
    n = len(fidx)
    adj = sparse.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    n_comp, labels = csgraph.connected_components(adj, directed=False)
    areas = face_areas(mesh, fidx)
    comps = []
    for ci in range(n_comp):
        member = labels == ci
        comps.append((fidx[member], float(areas[member].sum())))
    comps.sort(key=lambda fa: (-fa[1], fa[0][0]))
    return comps


def closest_points_on_triangles(p, a, b, c):
    """Closest point to ``p`` on each triangle (a[i], b[i], c[i]).

    Vectorized over triangles; returns (points (m,3), barycentric (m,3)).
    """
    p = np.asarray(p, dtype=np.float64)
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    c = np.atleast_2d(np.asarray(c, dtype=np.float64))
    ab, ac, ap = b - a, c - a, p - a
    d1 = (ab * ap).sum(1)
    d2 = (ac * ap).sum(1)
    bp = p - b
    d3 = (ab * bp).sum(1)
    d4 = (ac * bp).sum(1)
    cp = p - c
    d5 = (ab * cp).sum(1)
    d6 = (ac * cp).sum(1)
    va = d3 * d6 - d5 * d4
    vb = d5 * d2 - d1 * d6
    vc = d1 * d4 - d3 * d2

    bary = np.empty_like(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        # interior (lowest priority, overwritten below where a border wins)
        denom = va + vb + vc
        v = vb / denom
        w = vc / denom
        bary[:, 0] = 1.0 - v - w
        bary[:, 1] = v
        bary[:, 2] = w

        bc_div = (d4 - d3) + (d5 - d6)
        wbc = np.where(bc_div != 0, (d4 - d3) / bc_div, 0.0)
        m = (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)
        bary[m] = np.stack([np.zeros_like(wbc), 1.0 - wbc, wbc], axis=1)[m]

        wac = np.where(d2 != d6, d2 / (d2 - d6), 0.0)
        m = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
        bary[m] = np.stack([1.0 - wac, np.zeros_like(wac), wac], axis=1)[m]

        vab = np.where(d1 != d3, d1 / (d1 - d3), 0.0)
        m = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
        bary[m] = np.stack([1.0 - vab, vab, np.zeros_like(vab)], axis=1)[m]

    m = (d6 >= 0) & (d5 <= d6)
    bary[m] = [0.0, 0.0, 1.0]
    m = (d3 >= 0) & (d4 <= d3)
    bary[m] = [0.0, 1.0, 0.0]
    m = (d1 <= 0) & (d2 <= 0)
    bary[m] = [1.0, 0.0, 0.0]

    np.clip(bary, 0.0, 1.0, out=bary)
    bary /= bary.sum(axis=1, keepdims=True)
    points = bary[:, :1] * a + bary[:, 1:2] * b + bary[:, 2:3] * c
    return points, bary


def closest_point_on_triangle(p, a, b, c):
    """Closest point to p on a single triangle, with barycentric weights."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    if np.linalg.norm(np.cross(b - a, c - a)) < 1e-15:
        raise ValueError("degenerate triangle")
    pts, bary = closest_points_on_triangles(p, a[None], b[None], c[None])
    return pts[0], bary[0]


def project_to_surface(p, mesh):
    """Globally nearest surface point to p, as a SurfacePoint.

    Accelerated by the mesh's BVH; ties broken by lowest face index. Equals
    the exhaustive per-face minimum.
    """
    face, _, bary = mesh.bvh.nearest_point(np.asarray(p, dtype=np.float64))
    return SurfacePoint(face, bary)


def project_points_to_surface(points, mesh):
    """Vectorized projection of many points; returns (faces (n,), bary (n,3))."""
    points = np.asarray(points, dtype=np.float64)
    faces = np.empty(len(points), dtype=np.int64)
    bary = np.empty((len(points), 3))
    bvh = mesh.bvh
    for i, p in enumerate(points):
        f, _, w = bvh.nearest_point(p)
        faces[i] = f
        bary[i] = w
    return faces, bary


def evaluate_surface_point(mesh, sp):
    """3D position of a SurfacePoint: barycentric blend of its face corners."""
    if not 0 <= sp.face < mesh.n_faces:
        raise IndexError(f"face {sp.face} out of range for mesh {mesh.id}")
    tri = mesh.vertices[mesh.faces[sp.face]]
    return sp.weights @ tri


def evaluate_correspondence(corr, target_mesh):
    """3D target positions for all matched entries; unmatched rows are NaN."""
    out = np.full((len(corr), 3), np.nan)
    m = corr.matched
    if m.any():
        tri = target_mesh.vertices[target_mesh.faces[corr.faces[m]]]
        out[m] = np.einsum("ij,ijk->ik", corr.weights[m], tri)
    return out


def procrustes_align(src_points, dst_points):
    """Rigid transform (rotation + translation, no scale) minimizing
    sum ||R src + t - dst||^2, via centered cross-covariance SVD with
    reflection correction."""
    src = np.asarray(src_points, dtype=np.float64)
    dst = np.asarray(dst_points, dtype=np.float64)
    if src.shape != dst.shape or src.ndim != 2 or src.shape[1] != 3:
        raise ValueError("point sets must be equal-shape (n, 3)")
    if len(src) < 3:
        raise ValueError("need at least 3 point pairs")
    sc = src.mean(axis=0)
    dc = dst.mean(axis=0)
    H = (src - sc).T @ (dst - dc)
    U, S, Vt = np.linalg.svd(H)
    # collinear/degenerate configurations leave the rotation underdetermined
    if S[1] <= 1e-12 * max(S[0], 1e-300):
        raise ValueError("degenerate (collinear) point configuration")
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    D = np.diag([1.0, 1.0, d])
    R = Vt.T @ D @ U.T
    t = dc - R @ sc
    return RigidTransform(R, t)


def rotate_z(mesh, angle):
    """Rotate all vertices about the global z-axis through the origin."""
    c, s = np.cos(angle), np.sin(angle)
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return mesh.with_vertices(mesh.vertices @ R.T)


def normalize_to_unit_box(mesh):
    """Center at the origin and scale uniformly so the largest axis-aligned
    extent is 1. Returns (mesh, restore) where restore maps back to the
    original pose."""
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    extent = float((hi - lo).max())
    if extent <= 0:
        raise ValueError("zero-extent mesh cannot be normalized")
    center = (lo + hi) / 2.0
    normalized = mesh.with_vertices((mesh.vertices - center) / extent)
    return normalized, SimilarityTransform(extent, center)


def normalize_area(mesh):
    """Uniformly scale so the total surface area is 1."""
    area = surface_area(mesh)
    if area <= 0:
        raise ValueError("zero-area mesh cannot be normalized")
    return mesh.with_vertices(mesh.vertices / np.sqrt(area))


def edge_graph(mesh):
    """Sparse symmetric vertex adjacency with Euclidean edge lengths."""
    e = mesh.edges()
    w = np.linalg.norm(mesh.vertices[e[:, 0]] - mesh.vertices[e[:, 1]], axis=1)
    n = mesh.n_vertices
    g = sparse.coo_matrix((w, (e[:, 0], e[:, 1])), shape=(n, n))
    return (g + g.T).tocsr()


def geodesic_distances(mesh, source):
    """Shortest-path distances from ``source`` on the vertex-edge graph with
    Euclidean weights (Dijkstra). Unreachable vertices get +inf."""
    return geodesic_distance_fields(mesh, [source])[0]


def geodesic_distance_fields(mesh, sources):
    """Distance fields from several source vertices at once, shape (s, n)."""
    sources = np.asarray(sources, dtype=np.int64)
    if len(sources) and (sources.min() < 0 or sources.max() >= mesh.n_vertices):
        raise IndexError("source vertex out of range")
    g = edge_graph(mesh)
    return csgraph.dijkstra(g, directed=False, indices=sources)


def snap_correspondence_to_vertices(corr, target_mesh):
    """Vectorized dominant-weight snap; unmatched entries become UNMATCHED."""
    out = np.full(len(corr), UNMATCHED, dtype=np.int64)
    m = corr.matched
    if not m.any():
        return out
    faces = target_mesh.faces[corr.faces[m]]
    w = corr.weights[m]
    # argmax alone would hide ties; resolve equal weights by lowest vertex idx
    maxw = w.max(axis=1, keepdims=True)
    tied = w == maxw
    cand = np.where(tied, faces, np.iinfo(np.int64).max)
    out[m] = cand.min(axis=1)
    return out
