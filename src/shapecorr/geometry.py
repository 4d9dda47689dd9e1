"""Geometric primitives on triangle meshes: areas, components, closest-point
projection, rigid alignment, transforms and graph geodesics.

Everything but the graph geodesics runs on numpy alone. ``edge_graph`` and
``geodesic_distance_fields`` import ``scipy.sparse`` on first use, so a
process that only generates instances never loads it (33 MB of RSS)."""

from __future__ import annotations

import numpy as np

from .meshes import RigidTransform, UNMATCHED, edge_incidence


def face_areas(mesh, face_indices=None):
    a, b, c = mesh.face_corners(face_indices)
    return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


def surface_area(mesh):
    """Total surface area (sum of triangle areas)."""
    return float(face_areas(mesh).sum())


def connected_components(mesh, face_subset=None):
    """Partition faces, or the integer array ``face_subset`` of them, into
    edge-adjacent components.

    Returns a list of (face index array, area) sorted by area descending;
    equal areas are ordered by smallest contained face index. Each array is
    in ascending face index, without repeats. Edge adjacency means a shared
    (unordered) vertex pair, so non-manifold fans count as connected.

    Faces are labelled by root hooking on a forest in which every face
    points at itself or at a lower face. Each face is linked to the lowest
    face of each edge it has. A round hooks the larger root of every linked
    pair whose roots differ onto the smallest such partner, then jumps
    pointers (``parent = parent[parent]``) until every face points at its
    root; links inside one tree are dropped. A hook moves a whole tree, so
    the number of rounds follows how trees merge, not the component's
    diameter: a 40000-face strip with shuffled face ids takes about 10
    rounds, where passing the lowest label along links would take one
    round per hop (20000). Each component's root is its lowest face.
    """
    if face_subset is None:
        fidx = np.arange(mesh.n_faces)
    else:
        fidx = np.sort(np.asarray(face_subset, dtype=np.int64))
        if len(fidx) and (fidx[0] < 0 or fidx[-1] >= mesh.n_faces):
            raise ValueError("face_subset out of range")
        # drop repeats (np.unique hashes: ~17x slower on 10k ids, numpy 2.4)
        fidx = fidx[np.diff(fidx, prepend=-1) != 0]
    if len(fidx) == 0:
        return []
    n = len(fidx)
    _, inverse, edges, _ = edge_incidence(mesh.faces[fidx], mesh.n_vertices)
    face = np.arange(3 * n) % n  # directed row r belongs to face r % n
    first = np.full(len(edges), n)
    np.minimum.at(first, inverse, face)
    lo = first[inverse]
    linked = lo != face
    lo, hi = lo[linked], face[linked]
    parent = np.arange(n)
    while len(lo):
        np.minimum.at(parent, np.maximum(lo, hi), np.minimum(lo, hi))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
        lo, hi = parent[lo], parent[hi]
        linked = lo != hi
        lo, hi = lo[linked], hi[linked]
    order = np.argsort(parent, kind="stable")
    cuts = np.flatnonzero(np.diff(parent[order])) + 1
    areas = face_areas(mesh, fidx)
    comps = [(fidx[member], float(areas[member].sum()))
             for member in np.split(order, cuts)]
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


def project_points_to_surface(points, mesh):
    """Globally nearest surface point to each of ``points`` (n, 3).

    One batched query on the mesh's BVH; returns (faces (n,), bary (n, 3)),
    equal row by row to the exhaustive per-face minimum with ties broken by
    lowest face index.
    """
    return mesh.bvh.nearest_points(points)


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
    extent is 1."""
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    extent = float((hi - lo).max())
    if extent <= 0:
        raise ValueError("zero-extent mesh cannot be normalized")
    center = (lo + hi) / 2.0
    return mesh.with_vertices((mesh.vertices - center) / extent)


def normalize_area(mesh):
    """Uniformly scale so the total surface area is 1."""
    area = surface_area(mesh)
    if area <= 0:
        raise ValueError("zero-area mesh cannot be normalized")
    return mesh.with_vertices(mesh.vertices / np.sqrt(area))


def edge_graph(mesh):
    """Sparse symmetric vertex adjacency with Euclidean edge lengths.

    Both directions of every edge are stored explicitly, so a zero-length
    edge (coincident vertices) stays an edge: ``csgraph`` keeps explicit
    zeros, while a sparse sum ``g + g.T`` would drop them.
    """
    from scipy import sparse

    e = mesh.edges()
    w = np.linalg.norm(mesh.vertices[e[:, 0]] - mesh.vertices[e[:, 1]], axis=1)
    n = mesh.n_vertices
    both = (np.concatenate([e[:, 0], e[:, 1]]),
            np.concatenate([e[:, 1], e[:, 0]]))
    return sparse.csr_matrix((np.concatenate([w, w]), both), shape=(n, n))


def geodesic_distance_fields(mesh, sources, limit=np.inf):
    """Distance fields from several source vertices at once, shape (s, n).

    Each row is one Dijkstra search over ``mesh.graph``, the mesh's
    ``edge_graph``, built once per mesh. That graph stores both directions
    of every edge, so a directed search sees the same edges as an
    undirected one and gives its values bit for bit, without scipy merging
    the graph with its transpose. A search stops at distance ``limit``:
    weights are non-negative, so every vertex within ``limit`` gets the
    value of an unlimited search, and every other vertex ``inf``.
    """
    sources = np.asarray(sources, dtype=np.int64)
    if len(sources) and (sources.min() < 0 or sources.max() >= mesh.n_vertices):
        raise IndexError("source vertex out of range")
    from scipy.sparse import csgraph

    return csgraph.dijkstra(mesh.graph, directed=True, indices=sources,
                            limit=limit)


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
