"""Quadric edge-collapse decimation with back-projected correspondence.

Garland-Heckbert error quadrics drive a greedy collapse queue. Collapses
that would flip a face normal or create a non-manifold edge are rejected.
Boundary edges get constraint quadrics (plane through the edge perpendicular
to the adjacent face) so open scans keep their silhouettes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .corrio import load_correspondence, save_correspondence
from .geometry import project_points_to_surface
from .meshes import DenseCorrespondence, Mesh, identity_correspondence
from .meshio import load_mesh, save_mesh
from .store import ContentStore

_SINGULAR_COND = 1e12


@dataclass
class RemeshResult:
    mesh: Mesh
    to_original: DenseCorrespondence
    target_count: int
    achieved_count: int
    max_projection_error: float


def _face_quadrics(vertices, faces):
    a = vertices[faces[:, 0]]
    b = vertices[faces[:, 1]]
    c = vertices[faces[:, 2]]
    n = np.cross(b - a, c - a)
    double_area = np.linalg.norm(n, axis=1)
    safe = np.where(double_area > 0, double_area, 1.0)
    n = n / safe[:, None]
    d = -(n * a).sum(axis=1)
    plane = np.concatenate([n, d[:, None]], axis=1)  # (m, 4)
    q = plane[:, :, None] * plane[:, None, :]
    return q * (double_area / 2.0)[:, None, None]  # area-weighted


def _boundary_quadrics(vertices, faces):
    """Constraint quadrics for boundary edges, keyed by vertex."""
    e = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    owner = np.tile(np.arange(len(faces)), 3)
    se = np.sort(e, axis=1)
    uniq, inverse, counts = np.unique(se, axis=0, return_inverse=True,
                                      return_counts=True)
    boundary = counts == 1
    out = {}
    if not boundary.any():
        return out
    for k in np.flatnonzero(boundary[inverse]):
        i, j = e[k]
        fi = owner[k]
        fa, fb, fc = vertices[faces[fi]]
        fn = np.cross(fb - fa, fc - fa)
        edge = vertices[j] - vertices[i]
        n = np.cross(edge, fn)
        ln = np.linalg.norm(n)
        if ln < 1e-15:
            continue
        n /= ln
        d = -n @ vertices[i]
        plane = np.concatenate([n, [d]])
        q = np.outer(plane, plane) * (edge @ edge)
        for v in (int(i), int(j)):
            out[v] = out.get(v, 0.0) + q
    return out


def _optimal_position(q, vi_pos, vj_pos):
    """Collapse target minimizing the combined quadric; midpoint/endpoint
    fallback when the 3x3 system is ill-conditioned."""
    A = q[:3, :3]
    b = -q[:3, 3]
    s = np.linalg.svd(A, compute_uv=False)
    if s[0] > 0 and s[2] > 0 and s[0] / s[2] < _SINGULAR_COND:
        return np.linalg.solve(A, b)
    candidates = [(vi_pos + vj_pos) / 2.0, vi_pos, vj_pos]
    costs = [_quadric_cost(q, p) for p in candidates]
    return candidates[int(np.argmin(costs))]


def _quadric_cost(q, p):
    h = np.append(p, 1.0)
    return float(h @ q @ h)


class _DecimationState:
    def __init__(self, mesh):
        self.v = mesh.vertices.copy()
        self.alive_v = np.ones(mesh.n_vertices, dtype=bool)
        self.faces = {i: tuple(int(x) for x in f)
                      for i, f in enumerate(mesh.faces)}
        self.vertex_faces = {i: set() for i in range(mesh.n_vertices)}
        for fi, f in self.faces.items():
            for vv in f:
                self.vertex_faces[vv].add(fi)
        self.quadrics = _face_quadrics(self.v, mesh.faces)
        self.Q = np.zeros((mesh.n_vertices, 4, 4))
        for fi, f in self.faces.items():
            for vv in f:
                self.Q[vv] += self.quadrics[fi]
        for vv, q in _boundary_quadrics(self.v, mesh.faces).items():
            self.Q[vv] += q
        self.version = np.zeros(mesh.n_vertices, dtype=np.int64)
        self.n_alive = mesh.n_vertices

    def neighbors(self, i):
        out = set()
        for fi in self.vertex_faces[i]:
            out.update(self.faces[fi])
        out.discard(i)
        return out

    def edge_entry(self, i, j, seq):
        i, j = (i, j) if i < j else (j, i)
        q = self.Q[i] + self.Q[j]
        pos = _optimal_position(q, self.v[i], self.v[j])
        cost = _quadric_cost(q, pos)
        return (cost, seq, i, j, self.version[i], self.version[j], pos)

    def link_condition(self, i, j):
        shared_faces = self.vertex_faces[i] & self.vertex_faces[j]
        shared_verts = self.neighbors(i) & self.neighbors(j)
        third = set()
        for fi in shared_faces:
            third.update(v for v in self.faces[fi] if v not in (i, j))
        return shared_verts == third and len(shared_faces) in (1, 2)

    def flips_normal(self, i, j, pos):
        for vid in (i, j):
            for fi in self.vertex_faces[vid]:
                f = self.faces[fi]
                if i in f and j in f:
                    continue  # face disappears
                pts = [pos if vv == vid else self.v[vv] for vv in f]
                n_new = np.cross(pts[1] - pts[0], pts[2] - pts[0])
                old = [self.v[vv] for vv in f]
                n_old = np.cross(old[1] - old[0], old[2] - old[0])
                if n_new @ n_old <= 0:
                    return True
        return False

    def collapse(self, i, j, pos):
        """Merge j into i, moving i to pos."""
        dead = self.vertex_faces[i] & self.vertex_faces[j]
        for fi in dead:
            for vv in self.faces[fi]:
                self.vertex_faces[vv].discard(fi)
            del self.faces[fi]
        for fi in list(self.vertex_faces[j]):
            f = self.faces[fi]
            self.faces[fi] = tuple(i if vv == j else vv for vv in f)
            self.vertex_faces[j].discard(fi)
            self.vertex_faces[i].add(fi)
        self.v[i] = pos
        self.Q[i] = self.Q[i] + self.Q[j]
        self.alive_v[j] = False
        self.version[i] += 1
        self.version[j] += 1
        self.n_alive -= 1


def decimate(mesh, target_vertices):
    """Edge-collapse decimation toward ``target_vertices``.

    Stops early (with the achieved count in the result) when no valid
    collapse remains. Returns (decimated mesh, vertex map decimated->input).
    """
    if not 4 <= target_vertices <= mesh.n_vertices:
        raise ValueError(
            f"target {target_vertices} outside [4, {mesh.n_vertices}]")
    if target_vertices == mesh.n_vertices:
        return mesh, np.arange(mesh.n_vertices)

    st = _DecimationState(mesh)
    heap = []
    seq = 0
    seen = set()
    for f in mesh.faces:
        for i, j in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            key = (min(i, j), max(i, j))
            if key not in seen:
                seen.add(key)
                heapq.heappush(heap, st.edge_entry(*key, seq))
                seq += 1

    while st.n_alive > target_vertices and heap:
        cost, _, i, j, vi, vj, pos = heapq.heappop(heap)
        if not (st.alive_v[i] and st.alive_v[j]):
            continue
        if vi != st.version[i] or vj != st.version[j]:
            continue  # stale entry
        if j not in st.neighbors(i):
            continue
        if not st.link_condition(i, j):
            continue
        if st.flips_normal(i, j, pos):
            continue
        st.collapse(i, j, pos)
        for k in sorted(st.neighbors(i)):
            heapq.heappush(heap, st.edge_entry(i, k, seq))
            seq += 1

    keep = np.flatnonzero(st.alive_v)
    remap = np.full(mesh.n_vertices, -1, dtype=np.int64)
    remap[keep] = np.arange(len(keep))
    faces = np.array([[remap[v] for v in f]
                      for _, f in sorted(st.faces.items())], dtype=np.int64)
    out = Mesh(st.v[keep], faces, id=mesh.id, metadata=mesh.metadata)
    return out, keep


def back_correspondence(decimated, original):
    """Map every decimated vertex to its nearest surface point on the
    original mesh (dense, no unmatched entries)."""
    faces, bary = project_points_to_surface(decimated.vertices, original)
    return DenseCorrespondence(decimated.id, original.id, faces, bary)


def remesh_with_correspondence(mesh, count_range, rng, cache=None):
    """Decimate to a vertex count drawn uniformly from ``count_range`` and
    attach the back-projected correspondence onto the input mesh.

    Meshes at or below the lower bound are passed through with an identity
    correspondence. Deterministic for a fixed rng state.
    """
    lo, hi = count_range
    if not (4 <= lo <= hi):
        raise ValueError(f"invalid count range [{lo}, {hi}]")
    target = int(rng.integers(lo, hi + 1))
    if mesh.n_vertices <= lo:
        return RemeshResult(mesh, identity_correspondence(mesh),
                            target_count=target,
                            achieved_count=mesh.n_vertices,
                            max_projection_error=0.0)
    target = min(target, mesh.n_vertices)
    if cache is not None:
        cached = cache.load(mesh, target)
        if cached is not None:
            return cached
    dec, _ = decimate(mesh, target)
    corr = back_correspondence(dec, mesh)
    from .geometry import evaluate_correspondence
    mapped = evaluate_correspondence(corr, mesh)
    err = float(np.linalg.norm(mapped - dec.vertices, axis=1).max())
    result = RemeshResult(dec, corr, target_count=target,
                          achieved_count=dec.n_vertices,
                          max_projection_error=err)
    if cache is not None:
        cache.store(mesh, target, result)
    return result


class RemeshCache(ContentStore):
    """Cache of decimated meshes + correspondences keyed by (vertices,
    faces, target); honors the use_precompute_remeshing /
    update_precomputed_remeshed config pair."""

    suffixes = (".ply", ".corr", ".meta")

    @staticmethod
    def key_parts(mesh, target):
        return mesh.vertices, mesh.faces, str(int(target)).encode()

    # spelled out so perfbench's tracer, which looks in the class __dict__,
    # finds it
    def load(self, mesh, target):
        return super().load(mesh, target)

    def read(self, paths, mesh, target):
        mesh_path, corr_path, meta_path = paths
        dec = load_mesh(mesh_path, id=mesh.id)
        corr = load_correspondence(corr_path)
        meta = dict(line.split("=", 1) for line in
                    meta_path.read_text().splitlines() if line)
        return RemeshResult(dec, corr, target_count=target,
                            achieved_count=dec.n_vertices,
                            max_projection_error=float(meta["max_projection_error"]))

    def write(self, paths, result):
        mesh_path, corr_path, meta_path = paths
        save_mesh(result.mesh, mesh_path)
        save_correspondence(result.to_original, corr_path, binary=True)
        meta_path.write_text(
            f"max_projection_error={result.max_projection_error!r}\n")
