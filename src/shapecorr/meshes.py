"""Core data types: triangle meshes, dense correspondences and rigid
transforms. Per-vertex labels are plain (n,) int64 arrays, UNKNOWN_LABEL
where a vertex has none."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

UNMATCHED = -1
UNKNOWN_LABEL = -1

_WEIGHT_TOL = 1e-9


class MeshValidationError(ValueError):
    """A mesh violates a structural invariant (bad indices, degenerate faces...)."""


def edge_incidence(faces, n_vertices):
    """Edge incidence of the (m, 3) faces: ``(directed, inverse, edges,
    counts)``. ``directed`` (3m, 2) holds the edges (a, b), (b, c), (c, a)
    corner-major: row ``k * m + f`` is edge ``k`` of face ``f``. ``inverse``
    gives each row's undirected edge id into ``edges``, the unique
    ``(lo, hi)`` pairs in lexicographic order, and ``counts`` the faces
    sharing each edge. One 1-D ``np.unique`` over ``lo * n_vertices + hi``
    gives the result of a row-wise ``np.unique(axis=0)``, ~10x faster."""
    directed = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]],
                               faces[:, [2, 0]]])
    lo, hi = directed.min(axis=1), directed.max(axis=1)
    keys, inverse, counts = np.unique(lo * n_vertices + hi,
                                      return_inverse=True, return_counts=True)
    edges = np.stack(np.divmod(keys, n_vertices), axis=1)
    return directed, inverse, edges, counts


def _frozen(array, dtype):
    """``array`` as a read-only C-contiguous ``dtype`` array; a writable
    array is copied, so the caller's stays writable and unshared."""
    shared = isinstance(array, np.ndarray) and not array.flags.writeable
    out = np.array(array, dtype, order="C", copy=None if shared else True)
    out.setflags(write=False)
    return out


class Mesh:
    """Indexed triangle surface.

    Vertices are float64 positions of shape (n, 3); faces are int64 index
    triples of shape (m, 3). Both arrays are frozen so a Mesh can be shared
    between workers without defensive copies; a writable input is copied
    first, a read-only one may be shared.
    """

    def __init__(self, vertices, faces, id=None, validate=True):
        self.vertices = _frozen(vertices, np.float64)
        self.faces = _frozen(faces, np.int64)
        self.id = id
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshValidationError("vertices must have shape (n, 3)")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise MeshValidationError("faces must have shape (m, 3)")
        if validate:
            self._validate()

    def _validate(self):
        if not np.isfinite(self.vertices).all():
            raise MeshValidationError("non-finite vertex positions")
        if len(self.faces) == 0:
            raise MeshValidationError("mesh has no faces (point clouds unsupported)")
        n = len(self.vertices)
        if self.faces.min(initial=0) < 0 or self.faces.max(initial=-1) >= n:
            bad = np.where((self.faces < 0) | (self.faces >= n))[0]
            raise MeshValidationError(
                f"face indices out of range [0, {n}) in faces {sorted(set(bad.tolist()))}"
            )
        a, b, c = self.faces.T
        degen = (a == b) | (b == c) | (a == c)
        if degen.any():
            raise MeshValidationError(
                f"degenerate faces (repeated vertex): {np.where(degen)[0].tolist()}"
            )

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_faces(self):
        return len(self.faces)

    def face_corners(self, face_indices=None):
        """Return the (m, 3) corner position arrays (a, b, c) for faces."""
        f = self.faces if face_indices is None else self.faces[face_indices]
        v = self.vertices
        return v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]

    def edges(self):
        """Unique undirected edges as a sorted (e, 2) int array."""
        return edge_incidence(self.faces, self.n_vertices)[2]

    def with_vertices(self, vertices):
        """Same connectivity and id, new vertex positions."""
        return Mesh(vertices, self.faces, id=self.id, validate=False)

    @cached_property
    def bvh(self):
        # built lazily; the mesh is immutable so the index stays valid
        from .spatial import TriangleBVH
        return TriangleBVH(self)

    @cached_property
    def graph(self):
        # the edge graph of geodesic searches, built lazily like the BVH
        from .geometry import edge_graph
        return edge_graph(self)

    @cached_property
    def progressive(self):
        # the collapse log and back-projection memo of remeshing, grown
        # lazily like the BVH
        from .decimate import ProgressiveMesh
        return ProgressiveMesh(self)

    @cached_property
    def unit_area(self):
        # the area-normalized copy generation remeshes, made once so that
        # its BVH and collapse log are made once too
        from .geometry import normalize_area
        return normalize_area(self)

    def __eq__(self, other):
        if not isinstance(other, Mesh):
            return NotImplemented
        return (self.vertices.shape == other.vertices.shape
                and self.faces.shape == other.faces.shape
                and np.array_equal(self.vertices, other.vertices)
                and np.array_equal(self.faces, other.faces))

    def __repr__(self):
        return f"Mesh(id={self.id!r}, n_vertices={self.n_vertices}, n_faces={self.n_faces})"


class DenseCorrespondence:
    """Per-source-vertex map onto a target surface.

    Stored columnar: ``faces`` (n,) int64 with UNMATCHED (-1) sentinel and
    ``weights`` (n, 3) float64 barycentric weights (zero rows for unmatched
    vertices).
    """

    def __init__(self, source_id, target_id, faces, weights):
        self._set(source_id, target_id, faces, weights)
        matched = self.matched
        self.weights[matched] /= self.weights[matched].sum(axis=1, keepdims=True)
        self.weights.setflags(write=False)

    @classmethod
    def _exact(cls, source_id, target_id, faces, weights):
        """Checked and clipped as the constructor does, but keeping the
        matched weights bit for bit, as a file load must: renormalizing
        weights that already sum to 1 can move their last bits."""
        corr = cls.__new__(cls)
        corr._set(source_id, target_id, faces, weights)
        corr.weights.setflags(write=False)
        return corr

    def _set(self, source_id, target_id, faces, weights):
        """Copy and check; clip the weights at 0, zero unmatched rows."""
        self.source_id = source_id
        self.target_id = target_id
        # copy so read-only inputs can be reused and normalization stays local
        self.faces = np.array(faces, dtype=np.int64, order="C")
        self.weights = np.array(weights, dtype=np.float64, order="C")
        if self.faces.ndim != 1 or self.weights.shape != (len(self.faces), 3):
            raise ValueError("faces must be (n,), weights (n, 3)")
        if (self.faces < UNMATCHED).any():
            raise ValueError("correspondence face index below -1")
        matched = self.faces != UNMATCHED
        if matched.any():
            w = self.weights[matched]
            # NaN passes both checks below; NaN or inf leaves dev non-finite
            dev = np.abs(w.sum(axis=1) - 1.0).max()
            if not np.isfinite(dev):
                raise ValueError(
                    "non-finite barycentric weight in correspondence")
            if w.min() < -_WEIGHT_TOL:
                raise ValueError("negative barycentric weight in correspondence")
            if dev > 1e-6:
                raise ValueError("barycentric weights must sum to 1")
            np.clip(self.weights, 0.0, None, out=self.weights)
        self.weights[~matched] = 0.0
        self.faces.setflags(write=False)

    def __len__(self):
        return len(self.faces)

    @property
    def matched(self):
        """Boolean mask of matched source vertices."""
        return self.faces != UNMATCHED

    def validate_against(self, source_mesh, target_mesh):
        if len(self) != source_mesh.n_vertices:
            raise ValueError(
                f"correspondence length {len(self)} != source vertex count "
                f"{source_mesh.n_vertices}")
        if self.faces.max(initial=UNMATCHED) >= target_mesh.n_faces:
            raise ValueError("correspondence references invalid target face")

    def __eq__(self, other):
        if not isinstance(other, DenseCorrespondence):
            return NotImplemented
        return (self.source_id == other.source_id
                and self.target_id == other.target_id
                and np.array_equal(self.faces, other.faces)
                and np.array_equal(self.weights, other.weights))


@dataclass(frozen=True)
class RigidTransform:
    """Proper rigid motion x -> R @ x + t."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if np.abs(R.T @ R - np.eye(3)).max() > 1e-6:
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(R) - 1.0) > 1e-6:
            raise ValueError("rotation has determinant != +1 (reflection?)")
        object.__setattr__(self, "rotation", R)
        object.__setattr__(self, "translation", t)

    def apply(self, points):
        return np.asarray(points) @ self.rotation.T + self.translation


def identity_correspondence(mesh):
    """Map every vertex of ``mesh`` to itself: weight 1 on a corner of its
    lowest-index incident face."""
    # a vertex's first occurrence in the face list is in its lowest face
    vids, first = np.unique(mesh.faces.ravel(), return_index=True)
    if len(vids) != mesh.n_vertices:
        raise ValueError("mesh has isolated vertices; identity map undefined")
    faces, corner = np.divmod(first, 3)
    weights = np.eye(3)[corner]
    return DenseCorrespondence(mesh.id, mesh.id, faces, weights)
