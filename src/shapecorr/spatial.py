"""Bounding-volume hierarchy over mesh triangles.

Answers first-hit ray queries (identical to exhaustive Moller-Trumbore
intersection, ties at shared edges broken by lowest face index) and nearest
surface point queries (identical to the exhaustive per-face minimum, ties
broken by lowest face index). Both take a whole batch of rays or points per
call and walk the flat node arrays with numpy, not one traversal per query.
"""

from __future__ import annotations

import numpy as np

from .geometry import closest_points_on_triangles

RAY_EPS = 1e-9
_LEAF_SIZE = 8
_QUERY_POINTS = 256  # points per nearest-point chunk
_QUERY_PAIRS = 1024  # (point, face) pairs per closest-point evaluation


def ray_triangle_intersections(origins, directions, a, b, c):
    """Moller-Trumbore for every (ray, triangle) combination.

    origins/directions: (r, 3); a/b/c: (m, 3). Returns (r, m) array of hit
    parameters t, +inf where there is no hit. Edge hits within RAY_EPS count
    for both adjacent faces; callers tie-break by face index.
    """
    o = origins[:, None, :]
    d = directions[:, None, :]
    e1 = (b - a)[None, :, :]
    e2 = (c - a)[None, :, :]
    pvec = np.cross(d, e2)
    det = (e1 * pvec).sum(-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / det
        tvec = o - a[None, :, :]
        u = (tvec * pvec).sum(-1) * inv
        qvec = np.cross(tvec, e1)
        v = (d * qvec).sum(-1) * inv
        t = ((e2 * qvec).sum(-1)) * inv
    ok = ((np.abs(det) > RAY_EPS)
          & (u >= -RAY_EPS) & (v >= -RAY_EPS) & (u + v <= 1.0 + RAY_EPS)
          & (t > RAY_EPS))
    return np.where(ok, t, np.inf)


def _first_hit_reduce(t_matrix, face_ids):
    """Min-t per ray with lowest-face-index tie-break (exact t equality)."""
    order = np.argsort(face_ids, kind="stable")
    t = t_matrix[:, order]
    ids = face_ids[order]
    k = np.argmin(t, axis=1)  # first minimum in face-index order
    best_t = t[np.arange(len(t)), k]
    best_f = np.where(np.isfinite(best_t), ids[k], -1)
    return best_f, best_t


def exhaustive_first_hits(mesh, origins, directions):
    """Brute-force first hits over all faces; the BVH oracle."""
    a, b, c = mesh.face_corners()
    t = ray_triangle_intersections(np.asarray(origins, dtype=np.float64),
                                   np.asarray(directions, dtype=np.float64),
                                   a, b, c)
    return _first_hit_reduce(t, np.arange(mesh.n_faces))


class TriangleBVH:
    """Median-split BVH stored in flat arrays."""

    def __init__(self, mesh):
        a, b, c = mesh.face_corners()
        self._tri = (a, b, c)
        lo = np.minimum(np.minimum(a, b), c)
        hi = np.maximum(np.maximum(a, b), c)
        centroids = (a + b + c) / 3.0

        order = np.arange(mesh.n_faces)
        node_min, node_max = [], []
        node_left, node_start, node_count = [], [], []

        def build(start, end):
            idx = len(node_min)
            node_min.append(None)
            node_max.append(None)
            node_left.append(-1)
            node_start.append(start)
            node_count.append(end - start)
            sel = order[start:end]
            bmin = lo[sel].min(axis=0)
            bmax = hi[sel].max(axis=0)
            node_min[idx] = bmin
            node_max[idx] = bmax
            if end - start > _LEAF_SIZE:
                axis = int(np.argmax(bmax - bmin))
                # stable sort on (centroid, face idx) keeps builds deterministic
                key = centroids[sel, axis]
                local = np.argsort(key, kind="stable")
                order[start:end] = sel[local]
                mid = start + (end - start) // 2
                node_count[idx] = 0
                build(start, mid)
                node_left[idx] = len(node_min)
                build(mid, end)
            return idx

        # median splits keep the depth near log2(n_faces / _LEAF_SIZE) + 1
        build(0, mesh.n_faces)

        self.node_min = np.asarray(node_min)
        self.node_max = np.asarray(node_max)
        self.node_left = np.asarray(node_left, dtype=np.int64)
        self.node_start = np.asarray(node_start, dtype=np.int64)
        self.node_count = np.asarray(node_count, dtype=np.int64)
        self.face_order = order

        # padded leaf -> faces table (-1 pads) and node -> table row map
        leaves = np.flatnonzero(self.node_count)
        counts = self.node_count[leaves, None]
        cols = np.arange(counts.max())
        slot = np.minimum(self.node_start[leaves, None] + cols, len(order) - 1)
        self.leaf_faces = np.where(cols < counts, order[slot], -1)
        self.leaf_row = np.full(len(self.node_count), -1, dtype=np.int64)
        self.leaf_row[leaves] = np.arange(len(leaves))

    # --- ray queries ---

    def first_hits(self, origins, directions):
        """First-hit (face, t) for each ray; face -1 and t +inf on miss."""
        origins = np.atleast_2d(np.asarray(origins, dtype=np.float64))
        directions = np.atleast_2d(np.asarray(directions, dtype=np.float64))
        n = len(origins)
        best_t = np.full(n, np.inf)
        best_f = np.full(n, -1, dtype=np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_d = 1.0 / directions
        a, b, c = self._tri
        stack = [(0, np.arange(n))]
        while stack:
            node, rays = stack.pop()
            tmin = self._slab_entry(origins[rays], inv_d[rays], node)
            # prune when the box is missed (entry inf) or cannot contain a
            # better-or-equal hit; equal-t lower-index faces are never skipped
            live = np.isfinite(tmin) & (tmin <= best_t[rays])
            rays = rays[live]
            if len(rays) == 0:
                continue
            if self.node_count[node] > 0:
                s = self.node_start[node]
                faces = self.face_order[s:s + self.node_count[node]]
                t = ray_triangle_intersections(origins[rays], directions[rays],
                                               a[faces], b[faces], c[faces])
                f, tt = _first_hit_reduce(t, faces)
                better = (tt < best_t[rays]) | (
                    (tt == best_t[rays]) & (f >= 0) & (f < best_f[rays]))
                upd = rays[better]
                best_t[upd] = tt[better]
                best_f[upd] = f[better]
            else:
                stack.append((self.node_left[node], rays))
                stack.append((node + 1, rays))
        return best_f, best_t

    def _slab_entry(self, origins, inv_d, node):
        t0 = (self.node_min[node] - origins) * inv_d
        t1 = (self.node_max[node] - origins) * inv_d
        tmin = np.minimum(t0, t1).max(axis=1)
        tmax = np.maximum(t0, t1).min(axis=1)
        entry = np.maximum(tmin, 0.0)
        entry[tmax < entry] = np.inf
        return entry

    # --- nearest point queries ---

    def nearest_points(self, points):
        """Globally nearest surface point to each of ``points`` (n, 3).

        Returns (faces (n,), barycentric (n, 3)), equal to
        ``brute_force_nearest`` row by row: ties on exact squared distance
        go to the lowest face index. Points are taken in fixed-size chunks,
        so extra memory does not grow with n.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"points must have shape (n, 3), got {points.shape}")
        faces = np.empty(len(points), dtype=np.int64)
        bary = np.empty((len(points), 3))
        a, b, c = self._tri
        for s in range(0, len(points), _QUERY_POINTS):
            p = points[s:s + _QUERY_POINTS]
            f = self._nearest_faces(p)
            faces[s:s + len(p)] = f
            bary[s:s + len(p)] = closest_points_on_triangles(p, a[f], b[f], c[f])[1]
        return faces, bary

    def _nearest_faces(self, p):
        """Nearest face for each point of one chunk p (m, 3)."""
        m = len(p)
        # 1. descend greedily to one leaf per point; its faces bound d2 above
        leaf = np.zeros(m, dtype=np.int64)
        inner = np.flatnonzero(self.node_count[leaf] == 0)
        while len(inner):
            left, right = leaf[inner] + 1, self.node_left[leaf[inner]]
            nearer_left = (self._box_d2(p[inner], left)
                           < self._box_d2(p[inner], right))
            leaf[inner] = np.where(nearer_left, left, right)
            inner = inner[self.node_count[leaf[inner]] == 0]
        best_d2 = np.full(m, np.inf)
        best_face = np.full(m, -1, dtype=np.int64)
        self._scan_leaves(p, np.arange(m), leaf, best_d2, best_face)

        # 2. every other leaf whose box is within the bound (<= keeps exact
        # ties); the greedy leaf is already scanned, so rounding that puts
        # its box distance above the bound its own faces set cannot drop it
        hit_pt, hit_node = [], []
        fp, fn = np.arange(m), np.zeros(m, dtype=np.int64)
        while len(fp):
            keep = self._box_d2(p[fp], fn) <= best_d2[fp]
            fp, fn = fp[keep], fn[keep]
            at_leaf = self.node_count[fn] > 0
            new = at_leaf & (fn != leaf[fp])
            hit_pt.append(fp[new])
            hit_node.append(fn[new])
            fp, fn = fp[~at_leaf], fn[~at_leaf]
            fp, fn = np.tile(fp, 2), np.concatenate([fn + 1, self.node_left[fn]])

        # 3. and 4. exact distances to their faces, lowest (d2, face) wins
        self._scan_leaves(p, np.concatenate(hit_pt), np.concatenate(hit_node),
                          best_d2, best_face)
        return best_face

    def _box_d2(self, p, node):
        """Squared distance from each p[i] to the box of node[i]."""
        d = np.maximum(self.node_min[node] - p, 0.0)
        d = np.maximum(d, p - self.node_max[node])
        return (d * d).sum(axis=1)

    def _scan_leaves(self, p, pt, node, best_d2, best_face):
        """Lower best_d2/best_face[pt[i]] to the faces of leaf node[i] that
        are nearer to p[pt[i]], or as near with a lower index.

        Works in chunks of at most _QUERY_PAIRS (point, face) pairs.
        """
        a, b, c = self._tri
        step = max(1, _QUERY_PAIRS // self.leaf_faces.shape[1])
        for s in range(0, len(pt), step):
            table = self.leaf_faces[self.leaf_row[node[s:s + step]]]
            valid = table >= 0
            row = np.broadcast_to(pt[s:s + step, None], table.shape)[valid]
            face = table[valid]
            q = p[row]
            near, _ = closest_points_on_triangles(q, a[face], b[face], c[face])
            d2 = ((near - q) ** 2).sum(axis=1)
            order = np.lexsort((face, d2, row))
            first = np.ones(len(order), dtype=bool)
            first[1:] = row[order[1:]] != row[order[:-1]]
            win = order[first]
            row, face, d2 = row[win], face[win], d2[win]
            better = (d2 < best_d2[row]) | (
                (d2 == best_d2[row]) & (face < best_face[row]))
            best_d2[row[better]] = d2[better]
            best_face[row[better]] = face[better]


def brute_force_nearest(mesh, p):
    """Exhaustive all-faces nearest point; oracle for BVH nearest queries."""
    a, b, c = mesh.face_corners()
    pts, bary = closest_points_on_triangles(np.asarray(p, dtype=np.float64), a, b, c)
    d2 = ((pts - p) ** 2).sum(axis=1)
    f = int(np.argmin(d2))  # argmin returns the first (lowest) index on ties
    return f, pts[f], bary[f]
