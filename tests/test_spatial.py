import collections
import gc
import weakref

import numpy as np
import pytest

from shapecorr import geometry as geo
from shapecorr import spatial
from shapecorr.meshes import Mesh
from shapecorr.spatial import TriangleBVH

from conftest import exhaustive_nearest_points, grid_plane
from shapes import bumpy_sphere, icosphere


def face_hits(mesh, origin, direction):
    """Hit parameter t of one ray against each face of ``mesh``."""
    return spatial.ray_triangle_intersections(
        np.asarray(origin, dtype=np.float64),
        np.asarray(direction, dtype=np.float64), *mesh.face_corners())


def keep_lowest_one_by_one(t, faces):
    """The (face, t) ``_keep_lowest`` keeps for one ray whose hits on
    ``faces`` arrive one call each, in that order."""
    best, best_face = np.full(1, np.inf), np.full(1, -1, dtype=np.int64)
    for f in faces:
        spatial._keep_lowest(np.zeros(1, dtype=np.int64), np.array([f]),
                             t[[f]], best, best_face)
    return best_face[0], best[0]


def test_single_triangle_interior_hit():
    m = Mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    t = face_hits(m, [0.2, 0.2, 1.0], [0.0, 0.0, -1.0])
    assert t[0] == pytest.approx(1.0)


def test_miss():
    m = Mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    t = face_hits(m, [5.0, 5.0, 1.0], [0.0, 0.0, -1.0])
    assert t[0] == np.inf
    assert keep_lowest_one_by_one(t, [0]) == (-1, np.inf)


def test_occlusion_nearer_triangle_wins():
    m = Mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0],
              [0, 0, 1], [1, 0, 1], [0, 1, 1]],
             [[0, 1, 2], [3, 4, 5]])
    t = face_hits(m, [0.2, 0.2, 5.0], [0.0, 0.0, -1.0])
    np.testing.assert_allclose(t, [5.0, 4.0])
    for order in ([0, 1], [1, 0]):  # z=1 plane is nearer from above
        assert keep_lowest_one_by_one(t, order) == (1, t[1])


def test_shared_edge_hit_lowest_face():
    # ray aimed exactly at the shared edge of two triangles: both count
    # as hit at one t, and the lower face index wins in either order
    m = Mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]],
             [[0, 1, 2], [1, 3, 2]])
    mid = (m.vertices[1] + m.vertices[2]) / 2.0
    t = face_hits(m, mid + [0, 0, 2.0], [0.0, 0.0, -1.0])
    assert np.isfinite(t[0]) and t[0] == t[1]
    for order in ([0, 1], [1, 0]):
        assert keep_lowest_one_by_one(t, order) == (0, t[0])


def assert_nearest_matches_oracle(mesh, points):
    """Batched nearest query equals exhaustive_nearest_points: same faces,
    bit-identical barycentrics. Returns the batched points."""
    faces, bary = mesh.bvh.nearest_points(points)
    want_faces, want_bary = exhaustive_nearest_points(mesh, points)
    np.testing.assert_array_equal(faces, want_faces)
    assert bary.tobytes() == want_bary.tobytes()
    return np.einsum("ij,ijk->ik", bary, mesh.vertices[mesh.faces[faces]])


def test_nearest_point_matches_brute_force(rng):
    assert_nearest_matches_oracle(bumpy_sphere(2),
                                  rng.normal(size=(300, 3)) * 1.5)


def test_nearest_point_on_vertex():
    m = icosphere(1)
    near = assert_nearest_matches_oracle(m, m.vertices[:1] * 2.0)
    np.testing.assert_allclose(near[0], m.vertices[0], atol=1e-12)


def test_nearest_points_on_vertices_and_centroids():
    m = bumpy_sphere(2)
    centroids = m.vertices[m.faces].mean(axis=1)
    assert_nearest_matches_oracle(m, np.concatenate([m.vertices, centroids]))


def test_nearest_points_equidistant_ties():
    # two parallel triangles, query point exactly between them
    m = Mesh([[0, 0, 1], [1, 0, 1], [0, 1, 1],
              [0, 0, -1], [1, 0, -1], [0, 1, -1]],
             [[0, 1, 2], [3, 4, 5]])
    assert_nearest_matches_oracle(m, np.array([[0.2, 0.2, 0.0]]))
    # above grid vertices and edge midpoints every adjacent face is a tie
    g = grid_plane(8)
    v, f = g.vertices, g.faces
    mids = np.concatenate([(v[f[:, i]] + v[f[:, (i + 1) % 3]]) / 2.0
                           for i in range(3)])
    assert_nearest_matches_oracle(g, np.concatenate([v, mids]) + [0, 0, 0.25])


def test_nearest_points_long_sliver(rng):
    # one sliver spanning the sphere makes box bounds loose everywhere
    m = bumpy_sphere(2)
    v = np.concatenate([m.vertices, [[-2.0, -2.0, -2.0], [2.0, 2.0, 2.0],
                                     [2.0, 2.0, 2.001]]])
    n = len(m.vertices)
    f = np.concatenate([m.faces, [[n, n + 1, n + 2]]])
    assert_nearest_matches_oracle(Mesh(v, f), rng.normal(size=(300, 3)) * 1.5)


def test_nearest_points_empty():
    faces, bary = bumpy_sphere(2).bvh.nearest_points(np.empty((0, 3)))
    assert faces.shape == (0,)
    assert bary.shape == (0, 3)


def test_nearest_points_across_chunk_boundary(rng):
    n = spatial._QUERY_CHUNK + 1
    assert_nearest_matches_oracle(bumpy_sphere(2),
                                  rng.normal(size=(n, 3)) * 1.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nearest_points_non_finite_raises(bad):
    m = bumpy_sphere(2)
    points = np.zeros((3, 3))
    points[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        m.bvh.nearest_points(points)
    with pytest.raises(ValueError, match="finite"):
        geo.project_points_to_surface(points, m)


def test_deterministic_build():
    m = bumpy_sphere(2)
    b1, b2 = TriangleBVH(m), TriangleBVH(m)
    np.testing.assert_array_equal(b1.node_faces, b2.node_faces)
    np.testing.assert_array_equal(b1.node_child, b2.node_child)
    np.testing.assert_array_equal(b1.node_min, b2.node_min)


@pytest.mark.parametrize("mesh_builder", [lambda: bumpy_sphere(3),
                                          lambda: grid_plane(5)],
                         ids=["bumpy_sphere", "grid_plane"])
def test_tree_structure(mesh_builder):
    """Each inner node's box is the union of its children's boxes
    (node_child[node] and the node after it); every node but the root is
    the child of exactly one inner node; each leaf's box bounds its faces;
    leaf rows are index-sorted with -1 pads last and together hold every
    face once, and inner rows are all -1."""
    m = mesh_builder()
    bvh = TriangleBVH(m)
    a, b, c = m.face_corners()
    lo = np.minimum(np.minimum(a, b), c)
    hi = np.maximum(np.maximum(a, b), c)
    inner = np.flatnonzero(bvh.node_child >= 0)
    left = bvh.node_child[inner]
    assert (left > inner).all()
    np.testing.assert_array_equal(
        np.sort(np.concatenate([left, left + 1])),
        np.arange(1, len(bvh.node_child)))
    np.testing.assert_array_equal(
        bvh.node_min[inner],
        np.minimum(bvh.node_min[left], bvh.node_min[left + 1]))
    np.testing.assert_array_equal(
        bvh.node_max[inner],
        np.maximum(bvh.node_max[left], bvh.node_max[left + 1]))
    assert (bvh.node_faces[inner] == -1).all()
    assert len(bvh.node_faces) == len(bvh.node_child)
    for node in np.flatnonzero(bvh.node_child < 0):
        row = bvh.node_faces[node]
        faces = row[row >= 0]
        assert (row[len(faces):] == -1).all()
        assert (np.diff(faces) > 0).all()
        np.testing.assert_array_equal(bvh.node_min[node], lo[faces].min(axis=0))
        np.testing.assert_array_equal(bvh.node_max[node], hi[faces].max(axis=0))
    table = bvh.node_faces[bvh.node_faces >= 0]
    np.testing.assert_array_equal(np.sort(table), np.arange(m.n_faces))


def stack_build(mesh):
    """The one-node-per-iteration median-split build: the reference the
    level-at-a-time build must equal array for array. Returns (node_min,
    node_max, node_child, node_faces)."""
    a, b, c = mesh.face_corners()
    lo = np.minimum(np.minimum(a, b), c)
    hi = np.maximum(np.maximum(a, b), c)
    centroids = (a + b + c) / 3.0
    order = np.arange(mesh.n_faces)
    node_min, node_max, node_child, rows = [], [], [], []
    # (start, end) runs of order, first in first out: a splitting node's
    # children take the next two ids after the nodes already queued, which
    # numbers the nodes in level order
    queue = collections.deque([(0, mesh.n_faces)])
    while queue:
        start, end = queue.popleft()
        sel = order[start:end]
        node_min.append(lo[sel].min(axis=0))
        node_max.append(hi[sel].max(axis=0))
        if end - start > spatial._LEAF_SIZE:
            axis = int(np.argmax(node_max[-1] - node_min[-1]))
            order[start:end] = sel[np.argsort(centroids[sel, axis],
                                              kind="stable")]
            mid = start + (end - start) // 2
            node_child.append(len(node_min) + len(queue))
            queue += [(start, mid), (mid, end)]
            rows.append(sel[:0])
        else:
            node_child.append(-1)
            rows.append(np.sort(sel))
    width = max(len(f) for f in rows)
    node_faces = np.array([np.pad(f, (0, width - len(f)), constant_values=-1)
                           for f in rows])
    return (np.asarray(node_min), np.asarray(node_max),
            np.asarray(node_child), node_faces)


def random_soup(rng, n_faces):
    """Independent random triangles; some share exact centroid
    coordinates, so the stable tie order counts."""
    v = rng.normal(size=(3 * n_faces, 3))
    v[rng.random(len(v)) < 0.2, 0] = 0.5
    return Mesh(np.round(v, 1), np.arange(3 * n_faces).reshape(-1, 3),
                validate=False)


@pytest.mark.parametrize("mesh_builder", [
    lambda rng: bumpy_sphere(3), lambda rng: grid_plane(7),
    lambda rng: icosphere(0),
    *(lambda rng, k=k: random_soup(rng, k)
      for k in (1, 8, 9, 17, 100, 1000, 4097))])
def test_level_build_matches_stack_build(mesh_builder, rng):
    m = mesh_builder(rng)
    bvh = TriangleBVH(m)
    got = (bvh.node_min, bvh.node_max, bvh.node_child, bvh.node_faces)
    for name, a, b in zip(("node_min", "node_max", "node_child",
                           "node_faces"), got, stack_build(m)):
        assert a.shape == b.shape and a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


def test_build_leaves_no_cycle():
    """A build creates no reference cycle, so the arrays it holds do not
    wait for the cycle collector."""
    m = bumpy_sphere(2)
    gc.collect()
    gc.disable()
    try:
        TriangleBVH(m)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_mesh_with_bvh_freed_without_cycle_collector():
    m = icosphere(1)
    assert m.bvh is not None
    ref = weakref.ref(m)
    gc.disable()
    try:
        del m
        assert ref() is None
    finally:
        gc.enable()
