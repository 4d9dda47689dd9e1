import numpy as np
import pytest

from scipy import sparse
from scipy.sparse import csgraph

from shapecorr import geometry as geo
from shapecorr.meshes import DenseCorrespondence, Mesh
from shapecorr.scanning import CameraPose, cast_scan

from conftest import (exhaustive_nearest_points, floyd_warshall_distances,
                      random_rigid)
from shapes import bumpy_sphere, icosphere


class TestSurfaceArea:
    def test_unit_square(self):
        m = Mesh([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]],
                 [[0, 1, 2], [0, 2, 3]])
        assert geo.surface_area(m) == pytest.approx(1.0, abs=1e-12)

    def test_scaling_law(self):
        m = bumpy_sphere(1)
        s = 3.7
        assert geo.surface_area(m.with_vertices(m.vertices * s)) == pytest.approx(
            s ** 2 * geo.surface_area(m), rel=1e-12)

    def test_matches_per_face_cross_product_sum(self):
        m = icosphere(3)  # 1280 faces
        total = 0.0
        for a, b, c in m.vertices[m.faces]:
            total += 0.5 * np.linalg.norm(np.cross(b - a, c - a))
        assert geo.surface_area(m) == pytest.approx(total, rel=1e-12)


class TestConnectedComponents:
    def test_shared_edge_one_component(self):
        m = Mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]],
                 [[0, 1, 2], [1, 3, 2]])
        assert len(geo.connected_components(m)) == 1

    def test_disjoint_triangles(self):
        m = Mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0],
                  [5, 0, 0], [6, 0, 0], [5, 1, 0]],
                 [[0, 1, 2], [3, 4, 5]])
        assert len(geo.connected_components(m)) == 2

    def test_sorted_by_area_descending(self):
        m = Mesh([[0, 0, 0], [3, 0, 0], [0, 3, 0],
                  [5, 0, 0], [6, 0, 0], [5, 1, 0]],
                 [[3, 4, 5], [0, 1, 2]])
        comps = geo.connected_components(m)
        assert comps[0][1] > comps[1][1]
        np.testing.assert_array_equal(comps[0][0], [1])

    def test_split_ring_against_union_find_oracle(self):
        m = icosphere(2)
        # remove a band of faces around the equator to split the sphere
        a, b, c = m.face_corners()
        zc = (a[:, 2] + b[:, 2] + c[:, 2]) / 3.0
        keep = np.flatnonzero(np.abs(zc) > 0.25)
        comps = geo.connected_components(m, keep)
        assert len(comps) >= 2  # hemispheres plus possible stray faces
        got = np.sort(np.concatenate([fa for fa, _ in comps]))
        np.testing.assert_array_equal(got, np.sort(keep))
        # union-find oracle on shared-edge adjacency
        parent = {int(f): int(f) for f in keep}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        edge_owner = {}
        for fi in keep:
            vs = m.faces[fi]
            for e in [(vs[0], vs[1]), (vs[1], vs[2]), (vs[2], vs[0])]:
                key = (min(e), max(e))
                if key in edge_owner:
                    parent[find(int(fi))] = find(edge_owner[key])
                else:
                    edge_owner[key] = int(fi)
        roots = {find(int(f)) for f in keep}
        assert len(roots) == len(comps)

    def test_face_subset_partition(self):
        m = icosphere(1)
        subset = np.arange(0, 40, 3)
        comps = geo.connected_components(m, subset)
        all_faces = sorted(int(f) for fa, _ in comps for f in fa)
        assert all_faces == subset.tolist()


def reference_connected_components(mesh, fidx):
    """Chain each run of faces sharing an edge, then one mask per
    component."""
    f = mesh.faces[fidx]
    edges = np.sort(np.concatenate([f[:, [0, 1]], f[:, [1, 2]],
                                    f[:, [2, 0]]]), axis=1)
    owner = np.tile(np.arange(len(fidx)), 3)
    _, inverse = np.unique(edges, axis=0, return_inverse=True)
    order = np.argsort(inverse.ravel(), kind="stable")
    inv_sorted, own_sorted = inverse.ravel()[order], owner[order]
    same = inv_sorted[1:] == inv_sorted[:-1]
    n = len(fidx)
    adj = sparse.coo_matrix((np.ones(same.sum()), (own_sorted[:-1][same],
                                                   own_sorted[1:][same])),
                            shape=(n, n))
    n_comp, labels = csgraph.connected_components(adj, directed=False)
    areas = geo.face_areas(mesh, fidx)
    comps = [(fidx[labels == ci], float(areas[labels == ci].sum()))
             for ci in range(n_comp)]
    comps.sort(key=lambda fa: (-fa[1], fa[0][0]))
    return comps


@pytest.mark.parametrize("resolution", [(48, 48), (64, 64), (256, 256)])
def test_connected_components_of_scans_match_reference(resolution):
    """Coarse scans of a bumpy sphere fall apart into hundreds of
    components; faces, areas and order match the reference."""
    m = geo.normalize_to_unit_box(bumpy_sphere(4))
    hit = cast_scan(m, CameraPose(0.3, 0.2), resolution)
    comps = assert_components_match_reference(m, hit)
    if resolution != (256, 256):
        assert len(comps) > 300


def assert_components_match_reference(mesh, fidx):
    """``connected_components`` equals the reference on the sorted distinct
    ``fidx`` in faces, areas and order, bit for bit; returns the
    components."""
    comps = geo.connected_components(mesh, fidx)
    want = reference_connected_components(mesh, np.unique(fidx))
    assert len(comps) == len(want)
    for (faces, area), (want_faces, want_area) in zip(comps, want):
        assert faces.tobytes() == want_faces.tobytes()
        assert (np.diff(faces) > 0).all()
        assert area == want_area
    return comps


def strip(n_quads, seed):
    """A long strip of 2 * n_quads triangles with shuffled face ids: one
    component whose dual graph is a path in random index order."""
    x = np.arange(n_quads + 1.0)
    vertices = np.concatenate([np.stack([x, 0 * x, 0 * x], axis=1),
                               np.stack([x, 0 * x + 1, 0 * x], axis=1)])
    k = np.arange(n_quads)
    top = k + n_quads + 1
    faces = np.concatenate([np.stack([k, k + 1, top], axis=1),
                            np.stack([k + 1, top + 1, top], axis=1)])
    return Mesh(vertices, faces[np.random.default_rng(seed).permutation(
        len(faces))])


class TestComponentsAgainstReference:
    @pytest.mark.parametrize("reverse", [False, True])
    def test_shuffled_strip(self, reverse):
        m = strip(2000, seed=3)
        if reverse:
            m = Mesh(m.vertices, m.faces[::-1])
        comps = assert_components_match_reference(m, np.arange(m.n_faces))
        assert len(comps) == 1
        # drop the quads at x = 250, 750, 1250 and 1750: five pieces
        x = m.vertices[m.faces].mean(axis=1)[:, 0]
        keep = np.flatnonzero(np.floor(x) % 500 != 250)
        assert len(assert_components_match_reference(m, keep)) == 5

    def test_non_manifold_fan(self):
        # three faces on the edge (0, 1), and one face apart
        m = Mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1],
                  [5, 0, 0], [6, 0, 0], [5, 1, 0]],
                 [[5, 6, 7], [0, 1, 2], [1, 0, 3], [0, 1, 4]])
        comps = assert_components_match_reference(m, np.arange(4))
        np.testing.assert_array_equal(comps[0][0], [1, 2, 3])

    def test_subset_with_isolated_faces(self):
        m = icosphere(3)
        subset = np.concatenate([np.arange(0, m.n_faces, 17),
                                 np.arange(100, 140)])
        comps = assert_components_match_reference(m, subset)
        assert sum(len(f) == 1 for f, _ in comps) > 10

    def test_empty_subset(self):
        m = icosphere(1)
        empty = np.array([], dtype=np.int64)
        assert assert_components_match_reference(m, empty) == []

    def test_repeated_ids_count_once(self):
        m = icosphere(1)
        (faces, area), = geo.connected_components(m, np.array([5, 5]))
        np.testing.assert_array_equal(faces, [5])
        assert area == geo.face_areas(m, [5])[0]
        assert_components_match_reference(m, np.array([5, 7, 5, 7, 30]))


def closest_point(p, a, b, c):
    """``closest_points_on_triangles`` on one-row arrays."""
    pts, bary = geo.closest_points_on_triangles(p, a[None], b[None], c[None])
    return pts[0], bary[0]


def surface_positions(mesh, faces, weights):
    """3D positions of the surface points (faces, weights) of ``mesh``."""
    corr = DenseCorrespondence("points", mesh.id, faces, weights)
    return geo.evaluate_correspondence(corr, mesh)


class TestClosestPointOnTriangle:
    A = np.array([0.0, 0.0, 0.0])
    B = np.array([2.0, 0.0, 0.0])
    C = np.array([0.0, 2.0, 0.0])

    def test_query_at_vertex(self):
        pt, w = closest_point(self.A, self.A, self.B, self.C)
        np.testing.assert_allclose(w, [1, 0, 0], atol=1e-12)
        np.testing.assert_allclose(pt, self.A, atol=1e-12)

    def test_lifted_centroid(self):
        centroid = (self.A + self.B + self.C) / 3.0
        p = centroid + np.array([0, 0, 5.0])
        pt, w = closest_point(p, self.A, self.B, self.C)
        np.testing.assert_allclose(w, [1 / 3] * 3, atol=1e-12)
        np.testing.assert_allclose(pt, centroid, atol=1e-12)

    def test_weights_reconstruct_point(self, rng):
        for _ in range(200):
            a, b, c = rng.normal(size=(3, 3))
            if np.linalg.norm(np.cross(b - a, c - a)) < 1e-6:
                continue
            p = rng.normal(size=3) * 2
            pt, w = closest_point(p, a, b, c)
            assert w.min() >= 0 and abs(w.sum() - 1) < 1e-9
            np.testing.assert_allclose(w[0] * a + w[1] * b + w[2] * c, pt,
                                       atol=1e-9)

    def test_against_rejection_sampling_oracle(self, rng):
        a, b, c = rng.normal(size=(3, 3))
        p = rng.normal(size=3) * 1.5
        pt, w = closest_point(p, a, b, c)
        d = np.linalg.norm(pt - p)
        # dense barycentric sampling of the triangle
        u = rng.random(10 ** 6)
        v = rng.random(10 ** 6)
        flip = u + v > 1
        u[flip] = 1 - u[flip]
        v[flip] = 1 - v[flip]
        samples = (1 - u - v)[:, None] * a + u[:, None] * b + v[:, None] * c
        d_oracle = np.linalg.norm(samples - p, axis=1).min()
        assert d <= d_oracle + 1e-12
        assert abs(d - d_oracle) < 1e-3


class TestProjection:
    def test_point_on_face_distance_zero(self):
        m = icosphere(1)
        a, b, c = m.vertices[m.faces[7]]
        p = (a + b + c) / 3.0
        faces, bary = geo.project_points_to_surface(p[None], m)
        np.testing.assert_allclose(surface_positions(m, faces, bary)[0], p,
                                   atol=1e-12)

    def test_equidistant_tie_breaks_to_lowest_face(self):
        # two parallel triangles, query point exactly between them
        m = Mesh([[0, 0, 1], [1, 0, 1], [0, 1, 1],
                  [0, 0, -1], [1, 0, -1], [0, 1, -1]],
                 [[0, 1, 2], [3, 4, 5]])
        faces, _ = geo.project_points_to_surface(np.array([[0.2, 0.2, 0.0]]),
                                                 m)
        assert faces[0] == 0

    def test_matches_exhaustive_scan(self, rng):
        m = bumpy_sphere(2)
        pts = rng.normal(size=(1000, 3))
        faces, bary = geo.project_points_to_surface(pts, m)
        want_faces, want_bary = exhaustive_nearest_points(m, pts)
        np.testing.assert_array_equal(faces, want_faces)
        assert bary.tobytes() == want_bary.tobytes()


class TestEvaluateSurfacePoint:
    """``evaluate_correspondence`` on single surface points."""

    def test_corner_weight(self):
        m = icosphere(1)
        np.testing.assert_array_equal(
            surface_positions(m, [4], [[1.0, 0.0, 0.0]])[0],
            m.vertices[m.faces[4, 0]])

    def test_centroid(self):
        m = icosphere(1)
        np.testing.assert_allclose(
            surface_positions(m, [4], [[1 / 3, 1 / 3, 1 / 3]])[0],
            m.vertices[m.faces[4]].mean(axis=0), atol=1e-12)

    def test_invalid_face_raises(self):
        with pytest.raises(IndexError):
            surface_positions(icosphere(1), [10 ** 6], [[1.0, 0.0, 0.0]])

    def test_projection_roundtrip(self, rng):
        m = icosphere(2)
        f = rng.integers(0, m.n_faces, size=1)
        w = rng.dirichlet([1, 1, 1], size=1)
        p = surface_positions(m, f, w)
        faces, bary = geo.project_points_to_surface(p, m)
        np.testing.assert_allclose(surface_positions(m, faces, bary), p,
                                   atol=1e-9)


class TestProcrustes:
    def test_identity(self, rng):
        pts = rng.normal(size=(20, 3))
        T = geo.procrustes_align(pts, pts)
        np.testing.assert_allclose(T.rotation, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(T.translation, 0, atol=1e-9)

    def test_recovers_constructed_transform(self, rng):
        src = rng.normal(size=(15, 3))
        Rz = np.array([[0, -1, 0], [1, 0, 0], [0, 0, 1]], float)
        t = np.array([1.0, 2.0, 3.0])
        dst = src @ Rz.T + t
        T = geo.procrustes_align(src, dst)
        np.testing.assert_allclose(T.rotation, Rz, atol=1e-9)
        np.testing.assert_allclose(T.translation, t, atol=1e-9)
        np.testing.assert_allclose(T.apply(src), dst, atol=1e-9)

    def test_collinear_raises(self):
        src = np.outer(np.arange(5.0), [1.0, 0, 0])
        with pytest.raises(ValueError, match="degenerate"):
            geo.procrustes_align(src, src)

    def test_noisy_beats_random_search(self, rng):
        src = rng.normal(size=(30, 3))
        T_true = random_rigid(rng)
        dst = T_true.apply(src) + rng.normal(scale=0.01, size=src.shape)
        T = geo.procrustes_align(src, dst)
        res = ((T.apply(src) - dst) ** 2).sum()
        # random-search lower-bound oracle
        best_random = np.inf
        for _ in range(1000):
            R = random_rigid(rng)
            best_random = min(best_random, ((R.apply(src) - dst) ** 2).sum())
        assert res <= best_random + 1e-12

    def test_no_reflection(self, rng):
        # mirrored targets must still yield a proper rotation
        src = rng.normal(size=(12, 3))
        dst = src * np.array([-1.0, 1.0, 1.0])
        T = geo.procrustes_align(src, dst)
        assert np.linalg.det(T.rotation) == pytest.approx(1.0, abs=1e-9)


class TestTransforms:
    def test_rotate_z_zero_identity(self):
        m = icosphere(1)
        np.testing.assert_array_equal(geo.rotate_z(m, 0.0).vertices, m.vertices)

    def test_rotate_z_full_turn(self):
        m = icosphere(1)
        np.testing.assert_allclose(geo.rotate_z(m, 2 * np.pi).vertices,
                                   m.vertices, atol=1e-12)

    def test_rotate_preserves_area(self, rng):
        m = bumpy_sphere(1)
        for angle in rng.uniform(0, 2 * np.pi, size=5):
            assert geo.surface_area(geo.rotate_z(m, angle)) == pytest.approx(
                geo.surface_area(m), rel=1e-9)

    def test_normalize_unit_box_cube(self):
        v = np.array([[x, y, z] for x in (-.5, .5) for y in (-.5, .5)
                      for z in (-.5, .5)])
        f = [[0, 1, 3], [0, 3, 2], [4, 6, 7], [4, 7, 5], [0, 4, 5], [0, 5, 1],
             [2, 3, 7], [2, 7, 6], [0, 2, 6], [0, 6, 4], [1, 5, 7], [1, 7, 3]]
        cube = Mesh(v, f)
        norm = geo.normalize_to_unit_box(cube)
        np.testing.assert_allclose(norm.vertices, cube.vertices, atol=1e-12)

    def test_normalize_unit_box_roundtrip(self):
        m = bumpy_sphere(1)
        shifted = m.with_vertices(m.vertices * 5.0 + np.array([10.0, 0, 0]))
        norm = geo.normalize_to_unit_box(shifted)
        ext = norm.vertices.max(axis=0) - norm.vertices.min(axis=0)
        assert ext.max() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(norm.vertices.mean(axis=0) * 0 + (
            norm.vertices.max(axis=0) + norm.vertices.min(axis=0)) / 2, 0,
            atol=1e-12)
        lo, hi = shifted.vertices.min(axis=0), shifted.vertices.max(axis=0)
        np.testing.assert_allclose(norm.vertices * (hi - lo).max()
                                   + (lo + hi) / 2, shifted.vertices,
                                   atol=1e-9)

    def test_normalize_unit_box_uniform_scale(self):
        m = bumpy_sphere(1)
        stretched = m.with_vertices(m.vertices * np.array([3.0, 1.0, 1.0]))
        norm = geo.normalize_to_unit_box(stretched)
        e_in = stretched.vertices.max(axis=0) - stretched.vertices.min(axis=0)
        e_out = norm.vertices.max(axis=0) - norm.vertices.min(axis=0)
        np.testing.assert_allclose(e_out / e_out.max(), e_in / e_in.max(),
                                   atol=1e-12)

    def test_normalize_area(self):
        m = bumpy_sphere(1)
        scaled = m.with_vertices(m.vertices * 2.0)
        n1 = geo.normalize_area(scaled)
        assert geo.surface_area(n1) == pytest.approx(1.0, abs=1e-9)
        n2 = geo.normalize_area(n1)
        np.testing.assert_allclose(n2.vertices, n1.vertices, atol=1e-9)

    def test_normalize_area_of_area4(self):
        m = Mesh([[0, 0, 0], [2, 0, 0], [2, 2, 0], [0, 2, 0]],
                 [[0, 1, 2], [0, 2, 3]])
        n = geo.normalize_area(m)
        np.testing.assert_allclose(n.vertices, m.vertices * 0.5, atol=1e-12)


class TestGeodesics:
    def test_source_distance_zero(self):
        m = icosphere(1)
        d = geo.geodesic_distance_fields(m, [5])[0]
        assert d[5] == 0.0

    def test_chain_of_edges(self):
        # strip of triangles along a line; distance along x accumulates
        v = [[0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0],
             [0, 1, 0], [1, 1, 0], [2, 1, 0], [3, 1, 0]]
        f = [[0, 1, 4], [1, 5, 4], [1, 2, 5], [2, 6, 5], [2, 3, 6], [3, 7, 6]]
        m = Mesh(v, f)
        d = geo.geodesic_distance_fields(m, [0])[0]
        assert d[3] == pytest.approx(3.0, abs=1e-12)

    def test_against_floyd_warshall(self):
        m = bumpy_sphere(1)  # 42 vertices
        oracle = floyd_warshall_distances(m)
        all_d = geo.geodesic_distance_fields(m, np.arange(m.n_vertices))
        np.testing.assert_allclose(all_d, oracle, atol=1e-9)

    def test_symmetry(self):
        m = bumpy_sphere(1)
        d = geo.geodesic_distance_fields(m, np.arange(m.n_vertices))
        np.testing.assert_allclose(d, d.T, atol=1e-9)

    def test_triangle_inequality(self, rng):
        m = bumpy_sphere(1)
        d = geo.geodesic_distance_fields(m, np.arange(m.n_vertices))
        n = m.n_vertices
        for _ in range(500):
            u, v, w = rng.integers(0, n, size=3)
            assert d[u, w] <= d[u, v] + d[v, w] + 1e-9

    def test_rigid_invariance(self, rng):
        m = bumpy_sphere(1)
        T = random_rigid(rng)
        m2 = m.with_vertices(T.apply(m.vertices))
        np.testing.assert_allclose(geo.geodesic_distance_fields(m2, [3])[0],
                                   geo.geodesic_distance_fields(m, [3])[0],
                                   rtol=1e-9, atol=1e-12)
        assert geo.surface_area(m2) == pytest.approx(geo.surface_area(m), rel=1e-9)

    def test_zero_length_edge_kept(self):
        m = zero_length_strip()
        assert geo.edge_graph(m).nnz == 2 * len(m.edges())
        d = geo.geodesic_distance_fields(m, np.arange(m.n_vertices))
        np.testing.assert_allclose(d, floyd_warshall_distances(m), atol=1e-12)
        assert d[0, 3] == 1.0

    @pytest.mark.parametrize("builder", [
        lambda: zero_length_strip(),
        lambda: two_spheres(),
        lambda: bumpy_sphere(4)], ids=["zero_length_strip", "two_components",
                                       "bumpy_sphere"])
    def test_limited_field_is_unlimited_within_limit(self, builder):
        """A search with a limit gives every vertex within it (<=) the
        unlimited value bit for bit and every other vertex inf. The
        unlimited directed search on the symmetric graph equals scipy's
        undirected search."""
        m = builder()
        sources = np.arange(0, m.n_vertices, max(1, m.n_vertices // 40))
        full = geo.geodesic_distance_fields(m, sources)
        undirected = csgraph.dijkstra(geo.edge_graph(m), directed=False,
                                      indices=sources)
        assert full.tobytes() == undirected.tobytes()
        finite = np.unique(full[np.isfinite(full)])
        for limit in [0.0, *np.quantile(finite, [0.1, 0.5, 0.9]),
                      finite[len(finite) // 3], finite.max()]:
            part = geo.geodesic_distance_fields(m, sources, limit)
            within = full <= limit
            assert part[within].tobytes() == full[within].tobytes()
            assert np.isinf(part[~within]).all()

    def test_graph_built_once_per_mesh(self):
        m = icosphere(1)
        geo.geodesic_distance_fields(m, [0])
        g = m.graph
        geo.geodesic_distance_fields(m, [1], 0.5)
        assert m.graph is g
        assert m.with_vertices(m.vertices * 2).graph is not g


def zero_length_strip():
    """Vertex 3 coincides with vertex 1 and is joined to the strip only
    through the zero-length edge (1, 3) and its two faces."""
    v = [[0, 0, 0], [1, 0, 0], [2, 0, 0], [1, 0, 0], [1, 1, 0]]
    f = [[0, 1, 4], [1, 3, 4], [3, 2, 4]]
    return Mesh(v, f)


def two_spheres():
    a = icosphere(1)
    return Mesh(np.vstack([a.vertices, a.vertices + [5.0, 0.0, 0.0]]),
                np.vstack([a.faces, a.faces + a.n_vertices]))
