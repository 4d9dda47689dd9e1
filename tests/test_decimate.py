import hashlib

import numpy as np
import pytest

from shapecorr import geometry as geo
from shapecorr.decimate import (_SINGULAR_COND, RemeshCache,
                                _DecimationState, _boundary_quadrics,
                                _face_quadrics, back_correspondence, decimate,
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


@pytest.mark.parametrize("mesh", [bumpy_sphere(2), grid_plane(6), bowtie()],
                         ids=["bumpy_sphere", "grid_plane", "bowtie"])
def test_initial_heap_edges_in_face_order(mesh, monkeypatch):
    """The initial heap prices every edge once, in order of first
    appearance in the face list; its entries take seq 0, 1, ..."""
    want = []
    for f in mesh.faces.tolist():
        for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            if (min(a, b), max(a, b)) not in want:
                want.append((min(a, b), max(a, b)))
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
        cost, seq, ei, ej, vi, vj, epos = entry
        assert (seq, ei, ej, vi, vj) == (7 + k, i, j, 0, 0)
        assert epos.tobytes() == pos.tobytes()
        assert cost == reference_cost(q, pos)
    if mesh.id.startswith("grid"):  # a batch with both kinds of row
        assert 0 < sum(solved) < len(solved)


@pytest.mark.parametrize("mesh", [bumpy_sphere(3), grid_plane(10)],
                         ids=["bumpy_sphere", "grid_plane"])
def test_flips_normal_matches_per_face_loop(mesh, rng):
    """Random candidate collapses, moved from near the edge midpoint to far
    off the surface, get the per-face loop's verdict."""
    st = _DecimationState(mesh)
    edges = mesh.edges()
    scale = np.linalg.norm(np.ptp(mesh.vertices, axis=0))
    verdicts = []
    for k in rng.choice(len(edges), size=300, replace=False):
        i, j = (int(x) for x in edges[k])
        pos = (st.v[i] + st.v[j]) / 2 + rng.normal(size=3) * scale \
            * 10.0 ** rng.uniform(-4, 0)
        verdicts.append(reference_flips_normal(st, i, j, pos))
        assert st.flips_normal(i, j, pos) == verdicts[-1]
    assert 0 < sum(verdicts) < len(verdicts)


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

    def test_cache_disabled_use(self, tmp_path):
        m = bumpy_sphere(2)
        cache = RemeshCache(tmp_path / "cache", use=False, update=True)
        r1 = remesh_with_correspondence(m, (30, 30), np.random.default_rng(0),
                                        cache=cache)
        assert cache.load(m, 30) is None
        cache.use = True
        assert cache.load(m, 30).mesh == r1.mesh
