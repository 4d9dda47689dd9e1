"""Bounding-volume hierarchy over mesh triangles.

Answers nearest surface point queries, identical to the exhaustive
per-face minimum ``exhaustive_nearest_points`` of ``tests/conftest.py``,
ties broken by lowest face index. A query walks the tree breadth-first
over (point, node) pairs, a chunk of points at a time, and reduces each
leaf it reaches to the lowest (squared distance, face) per point.
The tree is built level by level too, and numbers its nodes in that level
order: a node's two children sit side by side, at ``node_child``, and each
node has its own row of ``node_faces``.

The ray-triangle test and the lowest-(key, face) reduction live here too;
the scanner (``scanning._hit_faces``) casts its rays with them.
"""

from __future__ import annotations

import numpy as np

from .geometry import closest_points_on_triangles

RAY_EPS = 1e-9
_LEAF_SIZE = 8
_QUERY_CHUNK = 256  # points per walk
_QUERY_PAIRS = 1024  # (point, face) pairs per leaf-scan step


def ray_triangle_intersections(origins, directions, a, b, c):
    """Moller-Trumbore hit parameter of each ray against each triangle.

    origins/directions/a/b/c: (..., 3) arrays that broadcast together.
    Returns t with the broadcast shape less the last axis, +inf where there
    is no hit. Edge hits within RAY_EPS count for both adjacent faces;
    callers tie-break by face index.
    """
    e1 = b - a
    e2 = c - a
    pvec = np.cross(directions, e2)
    det = (e1 * pvec).sum(-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / det
        tvec = origins - a
        u = (tvec * pvec).sum(-1) * inv
        qvec = np.cross(tvec, e1)
        v = (directions * qvec).sum(-1) * inv
        t = ((e2 * qvec).sum(-1)) * inv
    ok = ((np.abs(det) > RAY_EPS)
          & (u >= -RAY_EPS) & (v >= -RAY_EPS) & (u + v <= 1.0 + RAY_EPS)
          & (t > RAY_EPS))
    return np.where(ok, t, np.inf)


def _keep_lowest(row, face, key, best, best_face):
    """Lower best/best_face[row[i]] to (key[i], face[i]) where key[i] is
    lower, or equal with a lower face index: over any split of the pairs
    into calls, each row keeps its lowest (key, face)."""
    order = np.lexsort((face, key, row))
    first = np.ones(len(order), dtype=bool)
    first[1:] = row[order[1:]] != row[order[:-1]]
    win = order[first]
    row, face, key = row[win], face[win], key[win]
    # a miss (key inf) never replaces: its face is above best's -1
    better = (key < best[row]) | (
        (key == best[row]) & (face < best_face[row]))
    best[row[better]] = key[better]
    best_face[row[better]] = face[better]


class TriangleBVH:
    """Median-split BVH stored in flat arrays.

    Nodes are numbered in level order, as ``_median_split_tree`` makes
    them: the children of inner node i are ``node_child[i]`` and
    ``node_child[i] + 1``, and ``node_child`` is -1 at a leaf.
    ``node_min`` / ``node_max`` hold each node's box, and ``node_faces[i]``
    lists leaf i's faces in ascending index, padded at the end with -1 to
    the largest leaf size; an inner node's row is all -1.
    """

    def __init__(self, mesh):
        a, b, c = mesh.face_corners()
        self._tri = (a, b, c)
        lo = np.minimum(np.minimum(a, b), c)
        hi = np.maximum(np.maximum(a, b), c)
        centroids = (a + b + c) / 3.0

        (order, self.node_min, self.node_max, self.node_child, start,
         size) = _median_split_tree(lo, hi, centroids)

        # a leaf's row is its run of order, sorted with its pads as n_faces,
        # which puts them last; an inner node's row is all pads
        size = np.where(self.node_child < 0, size, 0)
        cols = np.arange(size.max())
        slot = np.minimum(start[:, None] + cols, len(order) - 1)
        self.node_faces = np.where(cols < size[:, None], order[slot],
                                   mesh.n_faces)
        self.node_faces.sort(axis=1)
        self.node_faces[self.node_faces == mesh.n_faces] = -1

    def nearest_points(self, points):
        """Globally nearest surface point to each of ``points`` (n, 3).

        Returns (faces (n,), barycentric (n, 3)), equal to the exhaustive
        reference ``exhaustive_nearest_points`` of ``tests/conftest.py``:
        ties on exact squared distance go to the lowest face index. Points
        are taken in fixed-size chunks, so extra memory does not grow with
        n. A NaN or infinite point raises ValueError.
        """
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 3:
            raise ValueError(f"points must have shape (n, 3), got {points.shape}")
        if not np.isfinite(points).all():
            raise ValueError("points must be finite")
        faces = np.empty(len(points), dtype=np.int64)
        bary = np.empty((len(points), 3))
        a, b, c = self._tri
        for s in range(0, len(points), _QUERY_CHUNK):
            p = points[s:s + _QUERY_CHUNK]
            f = self._nearest_faces(p)
            faces[s:s + len(p)] = f
            bary[s:s + len(p)] = closest_points_on_triangles(p, a[f], b[f], c[f])[1]
        return faces, bary

    def _nearest_faces(self, p):
        """Nearest face for each point of one chunk p (m, 3)."""
        m = len(p)
        # descend greedily to one leaf per point; its faces bound d2 above
        leaf = np.zeros(m, dtype=np.int64)
        inner = np.flatnonzero(self.node_child[leaf] >= 0)
        while len(inner):
            left = self.node_child[leaf[inner]]
            nearer_left = (self._box_d2(p[inner], left)
                           < self._box_d2(p[inner], left + 1))
            leaf[inner] = np.where(nearer_left, left, left + 1)
            inner = inner[self.node_child[leaf[inner]] >= 0]
        best_d2 = np.full(m, np.inf)
        best_face = np.full(m, -1, dtype=np.int64)
        q = np.arange(m)
        self._scan_leaves(p, q, leaf, best_d2, best_face)

        # then walk down from the root over (point q[i], node node[i])
        # pairs, one level per step, keeping every other box within the
        # bound (<= keeps exact ties); the greedy leaf is already scanned,
        # so rounding that puts its box distance above the bound its own
        # faces set cannot drop it. The leaves a level reaches are scanned
        # at once, so deeper levels prune against the lowered bounds.
        node = np.zeros(m, dtype=np.int64)
        while len(q):
            live = ((self._box_d2(p[q], node) <= best_d2[q])
                    & (node != leaf[q]))
            q, node = q[live], node[live]
            child = self.node_child[node]
            at_leaf = child < 0
            self._scan_leaves(p, q[at_leaf], node[at_leaf], best_d2,
                              best_face)
            q, child = q[~at_leaf], child[~at_leaf]
            q, node = np.tile(q, 2), np.concatenate([child, child + 1])
        return best_face

    def _box_d2(self, p, node):
        """Squared distance from each p[i] to the box of node[i]."""
        d = np.maximum(self.node_min[node] - p, 0.0)
        d = np.maximum(d, p - self.node_max[node])
        return (d * d).sum(axis=1)

    def _scan_leaves(self, p, q, node, best, best_face):
        """Lower best/best_face[q[i]] to the faces of leaf node[i] by
        ``_keep_lowest``, each keyed by its squared distance to p[q[i]].

        Works in chunks of at most _QUERY_PAIRS (point, face) pairs.
        """
        a, b, c = self._tri
        step = max(1, _QUERY_PAIRS // self.node_faces.shape[1])
        for s in range(0, len(q), step):
            table = self.node_faces[node[s:s + step]]
            valid = table >= 0
            row = np.broadcast_to(q[s:s + step, None], table.shape)[valid]
            face = table[valid]
            near, _ = closest_points_on_triangles(p[row], a[face], b[face],
                                                  c[face])
            _keep_lowest(row, face, ((near - p[row]) ** 2).sum(axis=1),
                         best, best_face)


def _median_split_tree(lo, hi, centroids):
    """Median-split tree over the faces with boxes ``lo`` / ``hi`` (m, 3),
    built one level at a time.

    A node with more than ``_LEAF_SIZE`` faces sorts them, stably, by the
    centroid coordinate on the longest axis of its box and gives the lower
    half (rounded down) to its left child; the stable sort keeps builds
    deterministic, and median splits keep the depth near
    log2(m / _LEAF_SIZE) + 1. Each level is a few whole-array operations:
    boxes by ``reduceat`` over the level's runs, and one ``lexsort`` of
    every run to split.

    Nodes are numbered in the order the levels make them. Every inner node
    has two children, and a level lists them in its parents' order, so the
    k-th inner node's children are nodes 2k + 1 and 2k + 2.

    Returns ``(order, node_min, node_max, node_child, start, size)``:
    ``order`` lists the faces so that node i holds the run
    ``order[start[i]:start[i] + size[i]]``, and the other node arrays are
    as ``TriangleBVH`` keeps them.
    """
    lo_t, hi_t, cen_t = (np.ascontiguousarray(x.T)
                         for x in (lo, hi, centroids))
    order = np.arange(len(lo))
    start, size = np.zeros(1, dtype=np.int64), np.array([len(lo)])
    levels = []  # (start, size, box min, box max, inner) per depth
    while len(start):
        # a level's nodes tile disjoint runs of order, in position order
        offset = np.cumsum(size) - size
        pos = np.repeat(start - offset, size) + np.arange(offset[-1] + size[-1])
        face = order[pos]
        box_min = np.minimum.reduceat(lo_t[:, face], offset, axis=1).T
        box_max = np.maximum.reduceat(hi_t[:, face], offset, axis=1).T
        inner = size > _LEAF_SIZE
        levels.append((start, size, box_min, box_max, inner))
        # lexsort is stable and pos ascends, so ties on (node, centroid)
        # keep the order the parent's sort left them in
        node = np.repeat(np.arange(len(start)), size)
        split = inner[node]
        node, pos, face = node[split], pos[split], face[split]
        axis = np.argmax(box_max - box_min, axis=1)
        key = cen_t[axis[node], face]
        order[pos] = face[np.lexsort((key, node))]
        start, size = start[inner], size[inner]
        half = size // 2
        start = np.column_stack([start, start + half]).ravel()
        size = np.column_stack([half, size - half]).ravel()

    start, size, node_min, node_max, inner = map(np.concatenate, zip(*levels))
    node_child = np.full(len(start), -1, dtype=np.int64)
    node_child[inner] = 1 + 2 * np.arange(inner.sum())
    return order, node_min, node_max, node_child, start, size
