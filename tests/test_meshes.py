import numpy as np
import pytest

from shapecorr.meshes import (DenseCorrespondence, Mesh, edge_incidence,
                              identity_correspondence)

from conftest import grid_plane
from shapes import bumpy_sphere, icosphere


def reference_edge_incidence(faces):
    """Corner-major directed edges and a row-wise unique over their sorted
    pairs."""
    directed = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]],
                               faces[:, [2, 0]]])
    edges, inverse, counts = np.unique(np.sort(directed, 1), axis=0,
                                       return_inverse=True,
                                       return_counts=True)
    return directed, inverse.ravel(), edges, counts


def fan():
    """Three triangles on the edge (0, 1): a non-manifold fan."""
    return Mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1]],
                [[0, 1, 2], [1, 0, 3], [0, 1, 4]], id="fan")


@pytest.mark.parametrize("mesh,subset", [
    (bumpy_sphere(3), None), (grid_plane(7), None), (fan(), None),
    (bumpy_sphere(2), np.arange(0, 320, 3))],
    ids=["bumpy_sphere", "grid_plane", "fan", "face_subset"])
def test_edge_incidence_matches_row_wise_unique(mesh, subset):
    faces = mesh.faces if subset is None else mesh.faces[subset]
    got = edge_incidence(faces, mesh.n_vertices)
    want = reference_edge_incidence(faces)
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        np.testing.assert_array_equal(g, w)
    if mesh.id == "fan":
        assert got[3].max() == 3


def reference_identity_faces(mesh):
    """(face, corner) per vertex: a reverse loop over the faces, so the
    lowest face index wins."""
    faces = np.full(mesh.n_vertices, -1, dtype=np.int64)
    corner = np.zeros(mesh.n_vertices, dtype=np.int64)
    for fi in range(mesh.n_faces - 1, -1, -1):
        for k in range(3):
            faces[mesh.faces[fi, k]] = fi
            corner[mesh.faces[fi, k]] = k
    return faces, corner


@pytest.mark.parametrize("mesh", [bumpy_sphere(3), grid_plane(6)],
                         ids=["bumpy_sphere", "grid_plane"])
def test_identity_correspondence_matches_face_loop(mesh):
    faces, corner = reference_identity_faces(mesh)
    corr = identity_correspondence(mesh)
    np.testing.assert_array_equal(corr.faces, faces)
    weights = np.zeros((mesh.n_vertices, 3))
    weights[np.arange(mesh.n_vertices), corner] = 1.0
    assert corr.weights.tobytes() == weights.tobytes()


def test_mesh_leaves_caller_arrays_writable_and_unshared():
    """Mesh(v, f) used to keep ``v`` itself and make it read-only."""
    base = icosphere(1)
    v, f = base.vertices.copy(), base.faces.copy()
    m = Mesh(v, f)
    assert v.flags.writeable and f.flags.writeable
    assert not np.shares_memory(m.vertices, v)
    assert not np.shares_memory(m.faces, f)
    assert not (m.vertices.flags.writeable or m.faces.flags.writeable)
    moved = m.with_vertices(v + 1.0)
    assert moved.faces is m.faces  # read-only input shared, not copied


def test_identity_correspondence_rejects_isolated_vertex():
    m = Mesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5]], [[0, 1, 2]])
    with pytest.raises(ValueError, match="isolated"):
        identity_correspondence(m)


def test_correspondence_face_below_unmatched_rejected():
    corr = identity_correspondence(icosphere(1))
    faces = corr.faces.copy()
    faces[3] = -3
    with pytest.raises(ValueError, match="below -1"):
        DenseCorrespondence("a", "b", faces, corr.weights)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("build", [DenseCorrespondence,
                                   DenseCorrespondence._exact])
def test_correspondence_non_finite_weight_rejected(build, bad):
    """A NaN weight on a matched row passed both the sign and the sum
    check; ``compose`` then read that vertex as unmatched."""
    with pytest.raises(ValueError, match="non-finite barycentric weight"):
        build("a", "b", [0, -1], [[bad, 0.0, 1.0], [0.0, 0.0, 0.0]])
    # an unmatched row's weights are zeroed, whatever they held
    corr = build("a", "b", [-1], [[bad, 0.0, 1.0]])
    assert (corr.weights == 0).all()
