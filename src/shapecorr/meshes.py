"""Core data types: triangle meshes, surface points, dense correspondences,
rigid/similarity transforms and per-vertex labels."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

UNMATCHED = -1
UNKNOWN_LABEL = -1

_ORTHO_TOL = 1e-9
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


class Mesh:
    """Indexed triangle surface.

    Vertices are float64 positions of shape (n, 3); faces are int64 index
    triples of shape (m, 3). Both arrays are copied and frozen so a Mesh can
    be shared between workers without defensive copies.
    """

    def __init__(self, vertices, faces, id=None, metadata=None, validate=True):
        self.vertices = np.ascontiguousarray(vertices, dtype=np.float64)
        self.faces = np.ascontiguousarray(faces, dtype=np.int64)
        self.id = id
        self.metadata = dict(metadata) if metadata else {}
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshValidationError("vertices must have shape (n, 3)")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise MeshValidationError("faces must have shape (m, 3)")
        if validate:
            self._validate()
        self.vertices.setflags(write=False)
        self.faces.setflags(write=False)
        self._bvh = None

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

    def with_vertices(self, vertices, id=None):
        """Same connectivity, new vertex positions."""
        return Mesh(vertices, self.faces, id=id if id is not None else self.id,
                    metadata=self.metadata, validate=False)

    @property
    def bvh(self):
        # built lazily; the mesh is immutable so the index stays valid
        if self._bvh is None:
            from .spatial import TriangleBVH
            self._bvh = TriangleBVH(self)
        return self._bvh

    def __eq__(self, other):
        if not isinstance(other, Mesh):
            return NotImplemented
        return (self.vertices.shape == other.vertices.shape
                and self.faces.shape == other.faces.shape
                and np.array_equal(self.vertices, other.vertices)
                and np.array_equal(self.faces, other.faces))

    def __repr__(self):
        return f"Mesh(id={self.id!r}, n_vertices={self.n_vertices}, n_faces={self.n_faces})"


@dataclass(frozen=True)
class SurfacePoint:
    """A point on a mesh surface: face index plus barycentric weights."""

    face: int
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (3,):
            raise ValueError("weights must be a length-3 vector")
        # clamp float fuzz; anything materially negative is a real error
        if w.min() < -_WEIGHT_TOL:
            raise ValueError(f"negative barycentric weight: {w}")
        w = np.clip(w, 0.0, None)
        s = w.sum()
        if abs(s - 1.0) > 1e-6:
            raise ValueError(f"barycentric weights sum to {s}, expected 1")
        w = w / s
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "face", int(self.face))


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
            if w.min() < -_WEIGHT_TOL:
                raise ValueError("negative barycentric weight in correspondence")
            if np.abs(w.sum(axis=1) - 1.0).max() > 1e-6:
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

    def entry(self, i):
        """SurfacePoint for source vertex i, or None if unmatched."""
        if self.faces[i] == UNMATCHED:
            return None
        return SurfacePoint(self.faces[i], self.weights[i])

    def validate_against(self, source_mesh, target_mesh):
        if len(self) != source_mesh.n_vertices:
            raise ValueError(
                f"correspondence length {len(self)} != source vertex count "
                f"{source_mesh.n_vertices}")
        if self.faces.max(initial=UNMATCHED) >= target_mesh.n_faces:
            raise ValueError("correspondence references invalid target face")

    @classmethod
    def all_unmatched(cls, source_id, target_id, n):
        return cls(source_id, target_id,
                   np.full(n, UNMATCHED, dtype=np.int64), np.zeros((n, 3)))

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

    @classmethod
    def identity(cls):
        return cls(np.eye(3), np.zeros(3))

    def apply(self, points):
        return np.asarray(points) @ self.rotation.T + self.translation

    def inverse(self):
        return RigidTransform(self.rotation.T, -self.rotation.T @ self.translation)

    def compose(self, other):
        """self after other: (self @ other)(x) = self(other(x))."""
        return RigidTransform(self.rotation @ other.rotation,
                              self.rotation @ other.translation + self.translation)


@dataclass(frozen=True)
class SimilarityTransform:
    """Uniform scale + translation, x -> scale * x + translation.

    Used as the restore descriptor of unit-box normalization: applying it to
    normalized coordinates returns the original pose.
    """

    scale: float
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(
            self, "translation",
            np.asarray(self.translation, dtype=np.float64).reshape(3))
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    @classmethod
    def identity(cls):
        return cls(1.0, np.zeros(3))

    def apply(self, points):
        return np.asarray(points) * self.scale + self.translation

    def inverse(self):
        return SimilarityTransform(1.0 / self.scale, -self.translation / self.scale)


@dataclass
class VertexLabels:
    """Per-vertex categorical labels (e.g. left/right), UNKNOWN_LABEL = -1."""

    shape_id: str
    labels: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))

    def __post_init__(self):
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 1:
            raise ValueError("labels must be one-dimensional")


def identity_correspondence(mesh, source_id=None, target_id=None):
    """Map every vertex of ``mesh`` to itself: weight 1 on a corner of its
    lowest-index incident face."""
    # a vertex's first occurrence in the face list is in its lowest face
    vids, first = np.unique(mesh.faces.ravel(), return_index=True)
    if len(vids) != mesh.n_vertices:
        raise ValueError("mesh has isolated vertices; identity map undefined")
    faces, corner = np.divmod(first, 3)
    weights = np.eye(3)[corner]
    sid = source_id if source_id is not None else mesh.id
    tid = target_id if target_id is not None else mesh.id
    return DenseCorrespondence(sid, tid, faces, weights)
