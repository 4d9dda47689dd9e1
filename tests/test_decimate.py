import hashlib
import heapq
import importlib

import numpy as np
import pytest

from shapecorr import geometry as geo
from shapecorr.decimate import (_SINGULAR_COND, RemeshCache,
                                _DecimationState, _boundary_quadrics,
                                _face_quadrics, _well_conditioned,
                                back_correspondence, decimate,
                                remesh_with_correspondence)
from shapecorr.meshes import Mesh
from shapecorr.meshio import validation_report
from shapecorr.spatial import brute_force_nearest

from conftest import bumpy_sphere, grid_plane, icosphere, require_golden_build


def torus(n=12, m=8, big_r=1.0, small_r=0.4):
    """Closed genus-1 surface, an n x m grid of quads split into triangles."""
    u = 2 * np.pi * np.arange(n) / n
    w = 2 * np.pi * np.arange(m) / m
    uu, ww = np.meshgrid(u, w, indexing="ij")
    ring = big_r + small_r * np.cos(ww)
    v = np.stack([ring * np.cos(uu), ring * np.sin(uu),
                  small_r * np.sin(ww)], axis=-1).reshape(-1, 3)
    a, b = np.meshgrid(np.arange(n), np.arange(m), indexing="ij")
    k00, k01 = a * m + b, a * m + (b + 1) % m
    k10, k11 = (a + 1) % n * m + b, (a + 1) % n * m + (b + 1) % m
    faces = np.concatenate([np.stack([k00, k10, k11], -1).reshape(-1, 3),
                            np.stack([k00, k11, k01], -1).reshape(-1, 3)])
    return Mesh(v, faces, id=f"torus{n}x{m}")


def test_target_equals_current_is_identity():
    m = icosphere(2)
    out, keep = decimate(m, m.n_vertices)
    assert out == m
    np.testing.assert_array_equal(keep, np.arange(m.n_vertices))


def test_grid_plane_distance_bound():
    m = grid_plane(9)  # 100 vertices
    out, _ = decimate(m, 50)
    assert out.n_vertices == 50
    diag = np.linalg.norm(m.vertices.max(axis=0) - m.vertices.min(axis=0))
    for v in out.vertices:
        _, pt, _ = brute_force_nearest(m, v)
        assert np.linalg.norm(pt - v) < 0.02 * diag


def test_icosphere_area_preserved():
    m = icosphere(3)  # 642 vertices
    out, _ = decimate(m, 162)
    assert out.n_vertices == 162
    assert geo.surface_area(out) == pytest.approx(geo.surface_area(m), rel=0.05)


def test_output_valid_and_monotone():
    m = bumpy_sphere(3)
    out, _ = decimate(m, 100)
    assert out.n_vertices <= m.n_vertices
    assert out.faces.max() < out.n_vertices  # Mesh() validates the rest


# sha256 over (vertices, faces, keep) bytes of decimate's output, measured
# on conftest.GOLDEN_BUILD; the grid planes reach boundary quadrics and the
# singular-quadric fallback
DECIMATE_DIGESTS = [
    ("bumpy_sphere", 3, 0, 150,
     "dee66a00a298e77ade5a5cd586f18492d49db594c25f3f1dbe096e342859ba1e"),
    ("bumpy_sphere", 3, 0, 400,
     "cbcf24773cd588aa00b597eb181976d6feb25075b12b8135bd3cb7b7afabbab6"),
    ("bumpy_sphere", 3, 1, 150,
     "b0c07c01dadc53da5d8d78786e41a3d08f3e8c0e88b259c279138d269b0f6be2"),
    ("bumpy_sphere", 3, 1, 400,
     "66c06a927fc0b3fae10d7512614a8becfee7c1cd8f0d47b3186b4cab6b58a7ab"),
    ("bumpy_sphere", 3, 2, 150,
     "0d0d9662725273d699e9ebb76c650a14df0ec8a5ea07b18b0b53b394a19b327b"),
    ("bumpy_sphere", 3, 2, 400,
     "bad173b06eee2782895f4a2de7e99c1696e29f7fc7a82113dcfc61ae91aeac80"),
    ("bumpy_sphere", 2, 5, 40,
     "39903bfc1b6a26447305864f01e1a8e5427760b798081f80d18fc59399be4d1c"),
    ("grid_plane", 6, None, 20,
     "40da2a301fc53e1dead4d721fc8d11229425b809f9f28c7c39a172d12c9698c1"),
    ("grid_plane", 10, None, 40,
     "5662a3b6066c807d43a959e1e5fca854b17a299851ede7d37c58f20adfef3dbb"),
    ("grid_plane", 20, None, 150,
     "22aae5cdea6e91b2e0f4ea4401de580413410c7f939f468326424f682542ecdb"),
]


@pytest.mark.parametrize("shape,n,seed,target,digest", DECIMATE_DIGESTS)
def test_decimate_pinned_digest(shape, n, seed, target, digest):
    """decimate's output bytes equal a pinned digest, so a rewrite of the
    collapse queue that changes any pop order or position fails here."""
    require_golden_build()
    m = bumpy_sphere(n, seed=seed) if shape == "bumpy_sphere" \
        else grid_plane(n)
    out, keep = decimate(m, target)
    assert out.n_vertices == target
    h = hashlib.sha256()
    for a, dtype in ((out.vertices, np.float64), (out.faces, np.int64),
                     (keep, np.int64)):
        h.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
    assert h.hexdigest() == digest


def test_stops_early_when_no_valid_collapse_remains():
    """A torus needs at least 7 vertices and every accepted collapse keeps
    its genus, so the queue runs dry above a target of 4."""
    t = torus()
    r = remesh_with_correspondence(t, (4, 4), np.random.default_rng(0))
    assert r.target_count == 4
    assert r.achieved_count > r.target_count
    assert r.achieved_count == r.mesh.n_vertices
    report = validation_report(r.mesh)
    assert "0 boundary, 0 non-manifold" in report
    assert "components: 1" in report
    assert "winding: consistent" in report
    # the collapses kept the genus: V - E + F == 0
    n_edges = len(r.mesh.edges())
    assert r.mesh.n_vertices - n_edges + r.mesh.n_faces == 0


# per-item reference formulas for the batched collapse queue


def reference_cost(q, p):
    h = np.append(p, 1.0)
    return float(h @ q @ h)


def reference_position(q, vi_pos, vj_pos):
    """(position, solved) for one combined quadric."""
    A = q[:3, :3]
    b = -q[:3, 3]
    s = np.linalg.svd(A, compute_uv=False)
    if s[0] > 0 and s[2] > 0 and s[0] / s[2] < _SINGULAR_COND:
        return np.linalg.solve(A, b), True
    candidates = [(vi_pos + vj_pos) / 2.0, vi_pos, vj_pos]
    costs = [reference_cost(q, p) for p in candidates]
    return candidates[int(np.argmin(costs))], False


def test_well_conditioned_matches_svd_rule(rng, monkeypatch):
    """The determinant test decides rows without changing the mask of the
    per-row SVD rule, on rows near both condition bounds, of rank 0-2 and
    at extreme scales; it leaves some rows, not all, to the SVD."""
    spectra = [(1, 1, 1), (1, 0.3, 1e-5)]
    for cond in (1e9, 1e12):
        spectra += [(1, 1, 1 / (cond * f)) for f in (0.999, 1, 1.001)]
        spectra += [(1, 1 / np.sqrt(cond), 1 / (cond * f))
                    for f in (0.999, 1, 1.001)]
    spectra += [(1, 1, 0), (1, 0, 0), (0, 0, 0)]
    spectra += [(1, 10 ** -u, 0) for u in rng.uniform(0, 3, size=20)]
    spectra += [(1, 10 ** -u, 10 ** -(u + v)) for u, v in
                rng.uniform(0, 7, size=(100, 2))]
    rows = []
    for s in spectra:
        u, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        w, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        # at 1e-106 the Frobenius cube underflows and the rounding of a
        # rank-2 determinant can leave it nonzero
        for scale in (1e-106, 1e-30, 1.0, 1e30, 1e103):
            rows += [scale * (u * s) @ u.T, scale * (u * s) @ w.T]
    rows = np.array(rows)
    want = []
    for a in rows:
        sv = np.linalg.svd(a, compute_uv=False)
        want.append(sv[0] > 0 and sv[2] > 0 and sv[0] / sv[2] < _SINGULAR_COND)
    decomposed = []
    svd = np.linalg.svd

    def counting_svd(a, **kw):
        decomposed.append(len(a))
        return svd(a, **kw)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    np.testing.assert_array_equal(_well_conditioned(rows), want)
    assert 0 < sum(decomposed) < len(rows)
    assert 0 < sum(want) < len(rows)


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


def reference_boundary_quadrics(vertices, faces):
    """{vertex: quadric sum}, one boundary edge at a time, i before j."""
    e = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    _, inverse, counts = np.unique(np.sort(e, axis=1), axis=0,
                                   return_inverse=True, return_counts=True)
    out = {}
    for k in np.flatnonzero(counts[inverse.ravel()] == 1):
        i, j = e[k]
        fa, fb, fc = vertices[faces[k % len(faces)]]
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


def open_patch():
    """bumpy_sphere(3) minus a cap: a curved open surface."""
    m = bumpy_sphere(3)
    c = m.vertices[m.faces].mean(axis=1)
    up = c[:, 2] / np.linalg.norm(c, axis=1)
    return Mesh(m.vertices, m.faces[up < 0.8], id="patch")


def bowtie():
    """Two triangles on one vertex, which lies on four boundary edges, as
    the second vertex of the first and the first vertex of the next."""
    return Mesh([[0.1, 0.2, 0.3], [1.3, 0.1, -0.2], [0.7, 1.1, 0.4],
                 [-0.9, -0.3, 0.6], [-0.4, -1.2, -0.7]],
                [[1, 0, 2], [0, 3, 4]], id="bowtie")


@pytest.mark.parametrize("mesh", [grid_plane(10), open_patch(), bowtie()],
                         ids=["grid_plane", "open_patch", "bowtie"])
def test_boundary_quadrics_match_per_edge_loop(mesh):
    vids, q = _boundary_quadrics(mesh.vertices, mesh.faces)
    want = reference_boundary_quadrics(mesh.vertices, mesh.faces)
    assert vids.tolist() == sorted(want)
    assert q.tobytes() == np.array([want[v] for v in sorted(want)]).tobytes()


def test_closed_mesh_has_no_boundary_quadrics():
    m = icosphere(1)
    vids, q = _boundary_quadrics(m.vertices, m.faces)
    assert vids.shape == (0,) and q.shape == (0, 4, 4)


def test_unreferenced_vertices_leave_no_face():
    """open_patch keeps 593 of its 642 vertices in faces; the 49 others
    count toward the target, so at 51 every face is collapsed away."""
    m = open_patch()
    with pytest.raises(ValueError, match="49 of the 642 vertices"):
        decimate(m, 51)
    out, _ = decimate(m, 52)
    assert out.n_faces > 0


@pytest.mark.parametrize("mesh", [bumpy_sphere(3), grid_plane(10)],
                         ids=["bumpy_sphere", "grid_plane"])
def test_vertex_quadrics_match_per_face_sum(mesh):
    st = _DecimationState(mesh)
    quadrics = _face_quadrics(mesh.vertices, mesh.faces)
    Q = np.zeros((mesh.n_vertices, 4, 4))
    for fi, f in enumerate(mesh.faces):
        for vv in f:
            Q[vv] += quadrics[fi]
    for vv, q in reference_boundary_quadrics(mesh.vertices,
                                             mesh.faces).items():
        Q[vv] += q
    assert Q.tobytes() == st.Q.tobytes()


def edges_in_face_order(mesh):
    """Every edge once as (lo, hi), in order of first appearance in the
    face list."""
    out = []
    for f in mesh.faces.tolist():
        for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            if (min(a, b), max(a, b)) not in out:
                out.append((min(a, b), max(a, b)))
    return out


@pytest.mark.parametrize("mesh", [bumpy_sphere(2), grid_plane(6), bowtie()],
                         ids=["bumpy_sphere", "grid_plane", "bowtie"])
def test_initial_heap_edges_in_face_order(mesh, monkeypatch):
    """The initial heap prices every edge once, in order of first
    appearance in the face list; its entries take seq 0, 1, ..."""
    want = edges_in_face_order(mesh)
    priced = []
    entries = _DecimationState.edge_entries

    def record(st, pairs, seq):
        if seq < len(want):
            priced.extend(map(tuple, pairs.tolist()))
        return entries(st, pairs, seq)

    monkeypatch.setattr(_DecimationState, "edge_entries", record)
    decimate(mesh, mesh.n_vertices - 1)
    assert priced == want


@pytest.mark.parametrize("mesh,target", [(bumpy_sphere(3), 150),
                                         (grid_plane(10), 40)],
                         ids=["bumpy_sphere", "grid_plane"])
def test_output_faces_match_per_vertex_remap(mesh, target, monkeypatch):
    states = []
    init = _DecimationState.__init__

    def record(st, m):
        init(st, m)
        states.append(st)

    monkeypatch.setattr(_DecimationState, "__init__", record)
    out, keep = decimate(mesh, target)
    st, = states
    remap = np.full(mesh.n_vertices, -1, dtype=np.int64)
    remap[keep] = np.arange(len(keep))
    faces = np.array([[remap[v] for v in f]
                      for _, f in sorted(st.faces.items())], dtype=np.int64)
    assert out.faces.tobytes() == faces.tobytes()


@pytest.mark.parametrize("mesh", [bumpy_sphere(3), grid_plane(10)],
                         ids=["bumpy_sphere", "grid_plane"])
def test_edge_entries_match_per_edge_reference(mesh):
    """One batch over every edge equals the per-edge solve or fallback and
    ``h @ q @ h``, bit for bit."""
    st = _DecimationState(mesh)
    edges = mesh.edges()
    entries = st.edge_entries(edges, 7)
    assert len(entries) == len(edges)
    solved = []
    for k, ((i, j), entry) in enumerate(zip(edges, entries)):
        q = st.Q[i] + st.Q[j]
        pos, ok = reference_position(q, st.v[i], st.v[j])
        solved.append(ok)
        cost, seq, ei, ej, vi, vj, *epos = entry
        assert (seq, ei, ej, vi, vj) == (7 + k, i, j, 0, 0)
        assert np.array(epos).tobytes() == pos.tobytes()
        assert cost == reference_cost(q, pos)
    if mesh.id.startswith("grid"):  # a batch with both kinds of row
        assert 0 < sum(solved) < len(solved)


@pytest.mark.parametrize("mesh", [bumpy_sphere(3), grid_plane(10)],
                         ids=["bumpy_sphere", "grid_plane"])
def test_flips_normal_matches_per_face_loop(mesh, rng):
    """Random candidate collapses, moved from near the edge midpoint to far
    off the surface, get the per-face loop's verdict, alone and in one
    batch (whose candidates share faces)."""
    st = _DecimationState(mesh)
    edges = mesh.edges()
    scale = np.linalg.norm(np.ptp(mesh.vertices, axis=0))
    candidates, verdicts = [], []
    for k in rng.choice(len(edges), size=300, replace=False):
        i, j = (int(x) for x in edges[k])
        pos = (st.v[i] + st.v[j]) / 2 + rng.normal(size=3) * scale \
            * 10.0 ** rng.uniform(-4, 0)
        candidates.append((i, j, pos.tolist()))
        verdicts.append(reference_flips_normal(st, i, j, pos))
        assert st.flips_normal(candidates[-1:]).tolist() == verdicts[-1:]
    assert st.flips_normal(candidates).tolist() == verdicts
    assert 0 < sum(verdicts) < len(verdicts)


# the plain sequential collapse loop that decimate's windows reproduce


def reference_link_condition(st, i, j):
    shared_faces = st.vertex_faces[i] & st.vertex_faces[j]
    shared_verts = st.neighbors(i) & st.neighbors(j)
    third = set()
    for fi in shared_faces:
        third.update(v for v in st.faces[fi] if v not in (i, j))
    return shared_verts == third and len(shared_faces) in (1, 2)


def sequential_decimate(mesh, target):
    """One collapse per pop: pop in (cost, seq) order, skip a stale or
    invalid entry, else collapse and price the edges around the kept
    vertex with consecutive seq."""
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
    return st.v[keep], np.array(faces, dtype=np.int64), keep


def flat_and_curved(n=6, bend=0.5):
    """A grid plane whose x > 0.5 half bends up into a parabola. Costs in
    the flat half are rounding-level (about -1e-17): a collapse there can
    price a new edge below an edge planned after it in the same window,
    and the sequential loop pops that new edge first (rule (b))."""
    m = grid_plane(n)
    v = m.vertices.copy()
    x = v[:, 0] - 0.5
    v[:, 2] = np.where(x > 0, bend * x * x, 0.0)
    return Mesh(v, m.faces, id="flat_and_curved")


WINDOW_CASES = [(bumpy_sphere(3, seed=s), t) for s in (0, 1)
                for t in (100, 300, 600)]
WINDOW_CASES += [(bumpy_sphere(2, seed=5), t) for t in (20, 80)]
WINDOW_CASES += [(grid_plane(n), t) for n, t in ((6, 10), (10, 40), (10, 90),
                                                  (20, 150))]
WINDOW_CASES += [(open_patch(), t) for t in (80, 200, 500)]
WINDOW_CASES += [(bowtie(), 4), (torus(), 4), (torus(), 40), (torus(), 80)]
# the budget runs out where rule (b) decides: at 46, the window planned at
# 48 vertices holds back its second collapse, and the last collapse goes
# to a cheaper edge that its first one pushed
WINDOW_CASES += [(flat_and_curved(), t) for t in (46, 41, 30)]


@pytest.mark.parametrize(
    "mesh,target", WINDOW_CASES,
    ids=[f"{m.id}-{m.n_vertices}-{t}" for m, t in WINDOW_CASES])
def test_windows_match_sequential_loop(mesh, target):
    out, keep = decimate(mesh, target)
    vertices, faces, want_keep = sequential_decimate(mesh, target)
    assert out.vertices.tobytes() == vertices.tobytes()
    assert out.faces.tobytes() == faces.tobytes()
    assert keep.tobytes() == want_keep.tobytes()


def test_merged_entries_price_the_post_collapse_edges():
    """Every edge a window prices before a collapse is the edge, cost and
    position that pricing after it gives, including where a shared face
    dangles (its third vertex is no neighbour once the face is gone)."""
    m = open_patch()
    st = _DecimationState(m)
    dangling = 0
    for i, j in m.edges()[::7].tolist():
        if not reference_link_condition(st, i, j):
            continue
        pos = ((st.v[i] + st.v[j]) / 2).tolist()
        (priced,) = st.merged_entries([(i, j, pos)])
        before = st.neighbors(i) | st.neighbors(j)
        after = _DecimationState(m)
        after.collapse(i, j, pos)
        ks = sorted(after.neighbors(i))
        dangling += len(before - {i, j} - set(ks))
        pairs = np.array([(min(i, k), max(i, k)) for k in ks]).reshape(-1, 2)
        want = after.edge_entries(pairs, 0)
        assert priced == [e[0:1] + e[2:4] + e[6:] for e in want]
    assert dangling > 0


def test_merged_entries_keep_the_endpoint_order_of_the_fallback():
    """A singular quadric takes the cheapest of (midpoint, lower vertex,
    higher vertex), the first on a tie; the window prices each new edge
    with its endpoints in that order, as edge_entries after the collapse
    does. Here both endpoints cost -1 and the midpoint 0."""
    m = grid_plane(3)
    st = _DecimationState(m)
    i, j = 5, 6
    k = min(st.merged_neighbors(i, j))
    assert k < i  # the new edge (k, i) has the kept vertex second
    st.Q[:] = 0.0
    st.Q[i, 0, 0] = -1.0  # cost -x^2, singular
    st.v[k] = [-1.0, 0.0, 0.0]
    pos = [1.0, 0.0, 0.0]
    (priced,) = st.merged_entries([(i, j, pos)])
    st.collapse(i, j, pos)
    ks = sorted(st.neighbors(i))
    pairs = np.array([(min(i, k), max(i, k)) for k in ks])
    want = st.edge_entries(pairs, 0)
    assert priced == [e[0:1] + e[2:4] + e[6:] for e in want]
    assert priced[0] == (-1.0, k, i, -1.0, 0.0, 0.0)


def test_invalid_target_raises():
    m = icosphere(1)
    with pytest.raises(ValueError):
        decimate(m, 2)
    with pytest.raises(ValueError):
        decimate(m, m.n_vertices + 1)


class TestBackCorrespondence:
    def test_identity_case(self):
        m = icosphere(1)
        corr = back_correspondence(m, m)
        assert corr.matched.all()
        pos = geo.evaluate_correspondence(corr, m)
        np.testing.assert_allclose(pos, m.vertices, atol=1e-9)

    def test_one_body_with_the_template_projection(self, monkeypatch):
        """back_correspondence is the network's template projection under
        the name perfbench times as remesh back-projection; it used to be
        a second copy of that body."""
        a, b, corr = icosphere(1), icosphere(2), object()
        monkeypatch.setattr(
            importlib.import_module("shapecorr.decimate"),
            "project_template_pair",
            lambda x, y: corr if (x, y) == (a, b) else None)
        assert back_correspondence(a, b) is corr

    def test_within_brute_force_distance(self):
        m = icosphere(2)
        dec, _ = decimate(m, 60)
        corr = back_correspondence(dec, m)
        pos = geo.evaluate_correspondence(corr, m)
        for i, v in enumerate(dec.vertices):
            _, pt, _ = brute_force_nearest(m, v)
            assert np.linalg.norm(pos[i] - v) == pytest.approx(
                np.linalg.norm(pt - v), abs=1e-9)


class TestRemeshWithCorrespondence:
    def test_deterministic(self):
        m = bumpy_sphere(3)
        r1 = remesh_with_correspondence(m, (100, 200), np.random.default_rng(42))
        r2 = remesh_with_correspondence(m, (100, 200), np.random.default_rng(42))
        assert r1.mesh == r2.mesh
        assert r1.to_original == r2.to_original

    def test_skip_below_range(self):
        m = icosphere(2)  # 162 vertices
        r = remesh_with_correspondence(m, (9000, 10000), np.random.default_rng(0))
        assert r.mesh == m
        pos = geo.evaluate_correspondence(r.to_original, m)
        np.testing.assert_allclose(pos, m.vertices, atol=1e-12)

    def test_different_seeds_differ(self):
        m = bumpy_sphere(3)
        r1 = remesh_with_correspondence(m, (100, 500), np.random.default_rng(1))
        r2 = remesh_with_correspondence(m, (100, 500), np.random.default_rng(2))
        assert r1.target_count != r2.target_count

    def test_projection_error_bound_holds(self):
        m = bumpy_sphere(3)
        r = remesh_with_correspondence(m, (150, 250), np.random.default_rng(3))
        pos = geo.evaluate_correspondence(r.to_original, m)
        d = np.linalg.norm(pos - r.mesh.vertices, axis=1)
        assert d.max() <= r.max_projection_error + 1e-12

    def test_cache_roundtrip(self, tmp_path):
        m = bumpy_sphere(2)
        cache = RemeshCache(tmp_path / "cache")
        r1 = remesh_with_correspondence(m, (30, 30), np.random.default_rng(0),
                                        cache=cache)
        r2 = remesh_with_correspondence(m, (30, 30), np.random.default_rng(0),
                                        cache=cache)
        assert r2.mesh == r1.mesh
        assert r2.to_original == r1.to_original
        assert r2.max_projection_error == r1.max_projection_error

    def test_cache_hit_returns_the_missed_result(self, tmp_path):
        m = bumpy_sphere(4)
        cache = RemeshCache(tmp_path / "cache")
        r1 = remesh_with_correspondence(m, (800, 800), np.random.default_rng(0),
                                        cache=cache)
        r2 = remesh_with_correspondence(m, (800, 800), np.random.default_rng(0),
                                        cache=cache)
        assert r2.mesh == r1.mesh
        assert r2.to_original.weights.tobytes() == \
            r1.to_original.weights.tobytes()

    def test_cache_hit_takes_the_ids_of_the_mesh(self, tmp_path):
        """Two shapes of the same geometry share a cache entry; a hit on
        the second carries its ids, as a miss does."""
        a = bumpy_sphere(2, id="faust_001")
        b = bumpy_sphere(2, id="shrec_017")
        cache = RemeshCache(tmp_path / "cache")
        remesh_with_correspondence(a, (30, 30), np.random.default_rng(0),
                                   cache=cache)
        assert cache.load(b, 30) is not None
        hit = remesh_with_correspondence(b, (30, 30),
                                         np.random.default_rng(0), cache=cache)
        miss = remesh_with_correspondence(b, (30, 30),
                                          np.random.default_rng(0))
        assert hit.mesh.id == "shrec_017"
        assert (hit.to_original.source_id,
                hit.to_original.target_id) == ("shrec_017", "shrec_017")
        assert hit.to_original == miss.to_original

    @pytest.mark.parametrize("text", ["", "comment=none\n"],
                             ids=["empty", "no_key"])
    def test_meta_without_error_is_a_miss_and_rewritten(self, tmp_path,
                                                        text):
        m = bumpy_sphere(2)
        cache = RemeshCache(tmp_path / "cache")
        r1 = remesh_with_correspondence(m, (30, 30), np.random.default_rng(0),
                                        cache=cache)
        (meta,) = (tmp_path / "cache").glob("*.meta")
        written = meta.read_text()
        meta.write_text(text)
        assert cache.load(m, 30) is None
        r2 = remesh_with_correspondence(m, (30, 30), np.random.default_rng(0),
                                        cache=cache)
        assert meta.read_text() == written
        assert r2.mesh == r1.mesh
        assert r2.max_projection_error == r1.max_projection_error

    def test_cache_disabled_use(self, tmp_path):
        m = bumpy_sphere(2)
        cache = RemeshCache(tmp_path / "cache", use=False, update=True)
        r1 = remesh_with_correspondence(m, (30, 30), np.random.default_rng(0),
                                        cache=cache)
        assert cache.load(m, 30) is None
        cache.use = True
        assert cache.load(m, 30).mesh == r1.mesh
