"""Quadric edge-collapse decimation with back-projected correspondence.

Garland-Heckbert error quadrics drive a greedy collapse queue. Collapses
that would flip a face normal or create a non-manifold edge are rejected.
Boundary edges get constraint quadrics (plane through the edge perpendicular
to the adjacent face) so open scans keep their silhouettes.

The output is that of the sequential loop: pop entries in (cost, seq)
order; skip a stale entry (an endpoint's version changed since it was
pushed) or an invalid one; else collapse and push the edges around the kept
vertex with consecutive seq. The queue makes those collapses in windows:

1. Pop entries in key order. Drop one that is stale against the state at
   the window's start: versions only grow, so the loop would skip it too.
   Plan the candidates that pass the neighbour and link tests while each
   is independent of every candidate s planned before it, rule (a):
   ``{i, j}`` does not meet ``R_s = N(i_s) | N(j_s) | {i_s, j_s}``. Sharing
   a face is symmetric, so ``{i_s, j_s}`` does not meet ``R`` either, and
   no planned collapse changes the faces, positions, quadrics or versions
   that another one's tests and prices read. Stop popping at the first
   entry that fails (a) or when the remaining budget of collapses is
   planned.
2. Run one flip test over the faces of every planned candidate.
3. Price the would-be new edges of every survivor in one batch, from
   ``Q_i + Q_j``, the new position and the neighbours ``neighbors(i)``
   will list after the collapse: the vertices of the faces that hold
   exactly one of i and j (``N(i) | N(j)`` would keep the third vertex of
   a shared face that was its only link). Each edge's endpoints go in
   (min, max) order, as ``edge_entries`` gets them after the collapse: the
   fallback keeps the first of equally cheap candidates.
4. Commit in key order, with seq in commit order. Stop at the first entry
   whose cost is above the cheapest new entry already pushed, rule (b):
   the loop would pop that new entry first. A new entry of equal cost has
   a larger seq and pops after. Rejected entries before the stop are
   dropped, as the loop drops them.
5. Push every entry from the stop on back unchanged. Keys are unique, so
   the pop order does not change.

When stale entries outnumber live ones (at most one live entry per edge)
the heap is filtered and heapified, which keeps the pop order too.

The numpy work is batched: ``edge_entries`` prices the initial heap in
chunks, and a window makes one flip test and one pricing batch. Batches
must round like per-edge and per-face arithmetic, because a last-bit
change in a cost can reorder collapses. Batched
``np.linalg.svd``/``solve``, stacked ``matmul`` and ``np.vecdot`` round
exactly like their per-item calls (numpy 2.4), and so do cross products
spelled per component (``a1*b2 - a2*b1``, as ``np.cross`` computes them
without its wrapper); ``einsum`` and ``(a * b).sum(-1)`` sum in another
order and do not, so they are not used here. Per-vertex quadrics are
summed with one ``np.add.at`` in (face, corner) order, the order of a
per-face loop. Boundary quadrics are priced in one batch too:
``np.sqrt(np.vecdot(n, n))`` rounds like the per-row ``np.linalg.norm``
and ``norm(axis=1)`` does not. They are summed with one ``np.add.at``
edge by edge, ``i`` before ``j``, the order of a per-edge loop. Only the
``ok`` mask of the conditioning SVD is read; a determinant test proves
most rows well conditioned, and only the others are decomposed
(``_well_conditioned``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .corrio import load_correspondence, save_correspondence
from .geometry import evaluate_correspondence
from .meshes import (DenseCorrespondence, Mesh, edge_incidence,
                     identity_correspondence)
from .meshio import load_mesh, save_mesh
from .network import project_template_pair
from .store import ContentStore
from .textio import FormatError, key_value_text, read_key_values

_SINGULAR_COND = 1e12
# condition bound that the determinant test proves without an SVD; the
# factor 1000 under _SINGULAR_COND absorbs rounding (see _well_conditioned)
_DECIDED_COND = 1e9
_TINY = np.finfo(np.float64).tiny
# edges per batch of the initial heap; small enough that the batch's
# (k, 4, 4) temporaries add no measurable peak RSS (4096 added ~0.25 MB
# when decimating a 642-vertex mesh) and no measurable time
_ENTRY_CHUNK = 256


@dataclass
class RemeshResult:
    """A shape as it is emitted: ``mesh`` and the dense correspondence
    ``to_original`` from it onto ``original``, the mesh it was made from.
    Without decimation ``mesh`` is ``original`` itself."""

    mesh: Mesh
    original: Mesh
    to_original: DenseCorrespondence
    target_count: int
    achieved_count: int
    max_projection_error: float


def _cross(a, b):
    """``np.cross`` of (..., 3) arrays, spelled per component without the
    wrapper; it rounds exactly like ``np.cross`` (numpy 2.4)."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2,
                     a0 * b1 - a1 * b0], axis=-1)


def _face_quadrics(vertices, faces):
    a = vertices[faces[:, 0]]
    b = vertices[faces[:, 1]]
    c = vertices[faces[:, 2]]
    n = _cross(b - a, c - a)
    double_area = np.linalg.norm(n, axis=1)
    safe = np.where(double_area > 0, double_area, 1.0)
    n = n / safe[:, None]
    d = -(n * a).sum(axis=1)
    plane = np.concatenate([n, d[:, None]], axis=1)  # (m, 4)
    q = plane[:, :, None] * plane[:, None, :]
    return q * (double_area / 2.0)[:, None, None]  # area-weighted


def _boundary_quadrics(vertices, faces):
    """Constraint quadrics for boundary edges: the vertices on a boundary
    edge and, per vertex, the (4, 4) sum of its edges' quadrics."""
    directed, inverse, _, counts = edge_incidence(faces, len(vertices))
    rows = np.flatnonzero(counts[inverse] == 1)
    fa, fb, fc = (vertices[faces[rows % len(faces), k]] for k in range(3))
    i, j = directed[rows].T
    edge = vertices[j] - vertices[i]
    n = _cross(edge, _cross(fb - fa, fc - fa))
    ln = np.sqrt(np.vecdot(n, n))
    keep = ~(ln < 1e-15)
    i, j, edge = i[keep], j[keep], edge[keep]
    n = n[keep] / ln[keep, None]
    plane = np.concatenate([n, np.vecdot(-n, vertices[i])[:, None]], axis=1)
    q = (plane[:, :, None] * plane[:, None, :]
         * np.vecdot(edge, edge)[:, None, None])
    vids, slot = np.unique(np.stack([i, j], axis=1), return_inverse=True)
    out = np.zeros((len(vids), 4, 4))
    np.add.at(out, slot.reshape(-1, 2), q[:, None])
    return vids, out


def _quadric_costs(q, p):
    """``h @ q @ h`` with ``h = (p, 1)``, for stacks of 4x4 quadrics ``q``
    and points ``p`` that broadcast against each other."""
    h = np.concatenate([p, np.ones(p.shape[:-1] + (1,))], axis=-1)
    return (h[..., None, :] @ q @ h[..., :, None])[..., 0, 0]


def _well_conditioned(A):
    """Rows of the (k, 3, 3) stack ``A`` whose condition number, as the
    singular values of ``np.linalg.svd`` give it, is finite and below
    ``_SINGULAR_COND``.

    A cheap test decides most rows, and only the others go through the
    SVD. With ``F = ||A||_F`` and singular values ``s0 >= s1 >= s2``:
    ``s0, s1 <= F`` and ``s2 = |det A| / (s0 s1)``, so ``cond = s0 / s2 <=
    F**3 / |det A|``. The cofactor determinant is off by at most about
    ``10 eps F**3`` (its six products sum to at most ``F**3`` in absolute
    value), so a row with ``F**3 < _DECIDED_COND * |det|`` computed has
    ``cond < 1.0001 * _DECIDED_COND``. The singular values LAPACK returns
    are off by at most ``p eps s0`` for a small ``p``, so their ratio stays
    far below ``_SINGULAR_COND = 1000 * _DECIDED_COND`` and the SVD would
    accept the row too. ``F**3`` must not underflow, or the rounding of
    the determinant is no longer relative; NaN and overflow fail the test
    and go to the SVD.
    """
    flat = A.reshape(len(A), 9)
    with np.errstate(over="ignore", invalid="ignore"):
        det = np.vecdot(A[:, 0], _cross(A[:, 1], A[:, 2]))
        fro3 = np.sqrt(np.vecdot(flat, flat)) ** 3
        ok = (fro3 < _DECIDED_COND * np.abs(det)) & (fro3 >= _TINY)
    rest = np.flatnonzero(~ok)
    if len(rest):
        s = np.linalg.svd(A[rest], compute_uv=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            ok[rest] = ((s[:, 0] > 0) & (s[:, 2] > 0)
                        & (s[:, 0] / s[:, 2] < _SINGULAR_COND))
    return ok


def _optimal_positions(q, vi_pos, vj_pos):
    """Collapse targets minimizing each combined quadric of the (k, 4, 4)
    stack ``q``; the cheapest of midpoint and endpoints where the 3x3
    system is ill-conditioned."""
    A = q[:, :3, :3]
    b = -q[:, :3, 3]
    ok = _well_conditioned(A)
    pos = np.empty_like(b)
    pos[ok] = np.linalg.solve(A[ok], b[ok][..., None])[..., 0]
    bad = ~ok
    if bad.any():
        vi, vj = vi_pos[bad], vj_pos[bad]
        candidates = np.stack([(vi + vj) / 2.0, vi, vj], axis=1)  # (k, 3, 3)
        costs = _quadric_costs(q[bad, None], candidates)
        pos[bad] = candidates[np.arange(len(costs)), costs.argmin(axis=1)]
    return pos


class _DecimationState:
    def __init__(self, mesh):
        self.v = mesh.vertices.copy()
        self.alive_v = np.ones(mesh.n_vertices, dtype=bool)
        self.faces = dict(enumerate(zip(*mesh.faces.T.tolist())))
        self.vertex_faces = {i: set() for i in range(mesh.n_vertices)}
        for fi, f in self.faces.items():
            for vv in f:
                self.vertex_faces[vv].add(fi)
        self.Q = np.zeros((mesh.n_vertices, 4, 4))
        # (face, corner) order, the order a per-face loop would add in
        np.add.at(self.Q, mesh.faces,
                  _face_quadrics(self.v, mesh.faces)[:, None])
        vids, q = _boundary_quadrics(self.v, mesh.faces)
        self.Q[vids] += q
        self.version = [0] * mesh.n_vertices
        self.n_alive = mesh.n_vertices
        # every edge once, in order of first appearance in the face list
        _, inverse, edges, _ = edge_incidence(mesh.faces, mesh.n_vertices)
        ids = inverse.reshape(3, -1).T.ravel()  # face-major
        _, first = np.unique(ids, return_index=True)
        edges = edges[ids[np.sort(first)]]
        # at most one live entry per edge, so this bounds the live entries
        self.n_edges = len(edges)
        self.heap = []
        for start in range(0, len(edges), _ENTRY_CHUNK):
            self.heap += self.edge_entries(edges[start:start + _ENTRY_CHUNK],
                                           start)
        heapq.heapify(self.heap)  # unique (cost, seq) keys: pops as pushed
        self.seq = len(self.heap)

    def neighbors(self, i):
        out = set()
        for fi in self.vertex_faces[i]:
            out.update(self.faces[fi])
        out.discard(i)
        return out

    def merged_neighbors(self, i, j):
        """``sorted(neighbors(i))`` as it will be once j is merged into i:
        the vertices of the faces holding exactly one of the two."""
        out = set()
        for fi in self.vertex_faces[i] ^ self.vertex_faces[j]:
            out.update(self.faces[fi])
        out.discard(i)
        out.discard(j)
        return sorted(out)

    def edge_entries(self, pairs, seq):
        """Heap entries ``(cost, seq, i, j, version[i], version[j], x, y,
        z)``, with the collapse position ``(x, y, z)`` inline (plain floats
        hold less memory than a row per entry), for the (k, 2) edge array
        ``pairs`` (``i < j`` in each row), with sequence numbers ``seq, seq
        + 1, ...``."""
        i, j = pairs[:, 0].tolist(), pairs[:, 1].tolist()
        q = self.Q[i] + self.Q[j]
        pos = _optimal_positions(q, self.v[i], self.v[j])
        cost = _quadric_costs(q, pos)
        return list(zip(cost.tolist(), range(seq, seq + len(pairs)), i, j,
                        [self.version[k] for k in i],
                        [self.version[k] for k in j], *pos.T.tolist()))

    def link_condition(self, i, j, ni, nj):
        """The link test, given ``ni = neighbors(i)`` and ``nj =
        neighbors(j)``."""
        shared_faces = self.vertex_faces[i] & self.vertex_faces[j]
        third = set()
        for fi in shared_faces:
            third.update(self.faces[fi])
        third -= {i, j}
        return (ni & nj) == third and len(shared_faces) in (1, 2)

    def flips_normal(self, candidates):
        """Per ``(i, j, pos)`` candidate: whether moving i and j to pos
        turns any surviving face around them (the faces holding one of the
        two) by 90 degrees or more."""
        faces, owner = [], []
        for c, (i, j, _) in enumerate(candidates):
            ring = self.vertex_faces[i] ^ self.vertex_faces[j]
            faces += [self.faces[fi] for fi in ring]
            owner += [c] * len(ring)
        if not faces:
            return np.zeros(len(candidates), dtype=bool)
        f = np.array(faces)
        owner = np.array(owner)
        ij = np.array([c[:2] for c in candidates])[owner]
        pos = np.array([c[2] for c in candidates])[owner]
        old = self.v[f]
        moving = (f == ij[:, :1]) | (f == ij[:, 1:])
        tri = np.stack([old, np.where(moving[..., None], pos[:, None], old)])
        n_old, n_new = _cross(tri[:, :, 1] - tri[:, :, 0],
                              tri[:, :, 2] - tri[:, :, 0])
        flips = owner[np.vecdot(n_new, n_old) <= 0]
        return np.bincount(flips, minlength=len(candidates)) > 0

    def merged_entries(self, candidates):
        """Per ``(i, j, pos)`` candidate, ``(cost, lo, hi, x, y, z)`` of
        every edge that collapsing it pushes, in push order: what
        ``edge_entries`` gives after ``collapse``, priced before it."""
        ks = [self.merged_neighbors(i, j) for i, j, _ in candidates]
        owner = np.repeat(np.arange(len(ks)), [len(k) for k in ks])
        k = np.array([x for kk in ks for x in kk], dtype=np.int64)
        i, j, p = zip(*candidates)
        q = (self.Q[list(i)] + self.Q[list(j)])[owner] + self.Q[k]
        i = np.array(i)[owner]
        # the endpoints in (min, max) order, as edge_entries gets them: the
        # fallback keeps the first of the equally cheap candidates
        i_lo = (i < k)[:, None]
        p, vk = np.array(p)[owner], self.v[k]
        pos = _optimal_positions(q, np.where(i_lo, p, vk),
                                 np.where(i_lo, vk, p))
        rows = list(zip(_quadric_costs(q, pos).tolist(),
                        np.minimum(i, k).tolist(), np.maximum(i, k).tolist(),
                        *pos.T.tolist()))
        ends = np.cumsum([len(kk) for kk in ks]).tolist()
        return [rows[a:b] for a, b in zip([0] + ends, ends)]

    def plan(self, budget):
        """Pop live entries in key order until ``budget`` pass the neighbour
        and link tests or one meets the ring of one planned before it.
        Returns the popped live entries and, per entry, True when planned,
        False when rejected, None when it met a ring."""
        window, planned, ring = [], [], set()
        n_planned, version = 0, self.version
        while self.heap and n_planned < budget:
            entry = heapq.heappop(self.heap)
            _, _, i, j, vi, vj = entry[:6]
            if vi != version[i] or vj != version[j]:
                continue  # stale now, so stale whenever the loop pops it
            window.append(entry)
            if i in ring or j in ring:  # rule (a)
                planned.append(None)
                break
            ni = self.neighbors(i)
            ok = j in ni
            if ok:
                nj = self.neighbors(j)
                ok = self.link_condition(i, j, ni, nj)
            planned.append(ok)
            if ok:
                ring |= ni | nj
                n_planned += 1
        return window, planned

    def collapse(self, i, j, pos):
        """Merge j into i, moving i to pos."""
        vf, faces = self.vertex_faces, self.faces
        dead = vf[i] & vf[j]
        for fi in dead:
            for vv in faces.pop(fi):
                vf[vv].discard(fi)
        for fi in vf[j]:
            a, b, c = faces[fi]
            faces[fi] = (i if a == j else a, i if b == j else b,
                         i if c == j else c)
        vf[i] |= vf[j]
        vf[j].clear()
        self.v[i] = pos
        self.Q[i] = self.Q[i] + self.Q[j]
        self.alive_v[j] = False
        self.version[i] += 1
        self.version[j] += 1
        self.n_alive -= 1
        # edge (i, j) goes, and (j, k) folds into (i, k) per shared face
        self.n_edges -= 1 + len(dead)

    def commit_window(self, budget):
        """Make the next at most ``budget`` collapses of the sequential
        loop (see the module docstring)."""
        window, planned = self.plan(budget)
        cands = [(e[2], e[3], e[6:]) for e, ok in zip(window, planned) if ok]
        if cands:
            flips = self.flips_normal(cands).tolist()
            cands = [c for c, f in zip(cands, flips) if not f]
        merged = (dict(zip([c[:2] for c in cands],
                           self.merged_entries(cands))) if cands else {})
        cheapest_new = np.inf
        for n, (entry, ok) in enumerate(zip(window, planned)):
            if ok is None or entry[0] > cheapest_new:  # rule (b)
                break
            i, j = entry[2:4]
            if (i, j) not in merged:
                continue  # rejected: the sequential loop skips it too
            self.collapse(i, j, entry[6:])
            for cost, lo, hi, x, y, z in merged[i, j]:
                heapq.heappush(self.heap, (cost, self.seq, lo, hi,
                                           self.version[lo],
                                           self.version[hi], x, y, z))
                cheapest_new = min(cheapest_new, cost)
                self.seq += 1
        else:
            n = len(window)
        for entry in window[n:]:
            heapq.heappush(self.heap, entry)  # unique keys: same pop order
        if len(self.heap) > 2 * self.n_edges:  # stale outnumber live
            v = self.version
            self.heap = [e for e in self.heap
                         if e[4] == v[e[2]] and e[5] == v[e[3]]]
            heapq.heapify(self.heap)


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
    while st.n_alive > target_vertices and st.heap:
        st.commit_window(st.n_alive - target_vertices)
    if not st.faces:
        # vertices that no face references count toward the target
        unref = mesh.n_vertices - len(np.unique(mesh.faces))
        raise ValueError(
            f"decimating to {target_vertices} vertices removed every face; "
            f"{unref} of the {mesh.n_vertices} vertices are in no face")

    keep = np.flatnonzero(st.alive_v)
    remap = np.full(mesh.n_vertices, -1, dtype=np.int64)
    remap[keep] = np.arange(len(keep))
    faces = remap[np.array([f for _, f in sorted(st.faces.items())])]
    out = Mesh(st.v[keep], faces, id=mesh.id)
    return out, keep


def back_correspondence(decimated, original):
    """Map every decimated vertex to its nearest surface point on the
    original mesh (dense, no unmatched entries)."""
    # a span of its own in perfbench, apart from the pipeline's forward
    # projections, which call project_template_pair directly
    return project_template_pair(decimated, original)


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
        return RemeshResult(mesh, mesh, identity_correspondence(mesh),
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
    mapped = evaluate_correspondence(corr, mesh)
    err = float(np.linalg.norm(mapped - dec.vertices, axis=1).max())
    result = RemeshResult(dec, mesh, corr, target_count=target,
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
        meta = read_key_values(meta_path)
        if "max_projection_error" not in meta:
            raise FormatError(meta_path, "no max_projection_error")
        dec = load_mesh(mesh_path, id=mesh.id)
        corr = load_correspondence(corr_path)
        # the entry may come from another shape of the same geometry: take
        # this mesh's ids, as a miss would
        corr.source_id = corr.target_id = mesh.id
        return RemeshResult(dec, mesh, corr, target_count=target,
                            achieved_count=dec.n_vertices,
                            max_projection_error=float(meta["max_projection_error"]))

    def write(self, paths, result):
        mesh_path, corr_path, meta_path = paths
        save_mesh(result.mesh, mesh_path)
        save_correspondence(result.to_original, corr_path)
        meta_path.write_text(key_value_text({
            "max_projection_error": result.max_projection_error}))
