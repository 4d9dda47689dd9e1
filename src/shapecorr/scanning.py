"""Simulated unidirectional 3D scanner.

A pinhole camera on a sphere around the unit-box-normalized shape casts a
pixel grid of rays; first-hit faces forming the largest connected component
(by area) become the partial shape. Partial pairs are regenerated until the
mutual overlap fraction lands in a configured range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .meshes import DenseCorrespondence, Mesh, UNMATCHED
from .store import ContentStore

CAMERA_DISTANCE = 2.0
_FOV_MARGIN = 1.05
_POLE_ELEVATION = np.deg2rad(85.0)
SCAN_ATTEMPTS = 5  # cameras generate_partial samples before it gives up


@dataclass(frozen=True)
class CameraPose:
    """Viewpoint on a sphere around the origin, looking at the origin."""

    azimuth: float
    elevation: float
    distance: float = CAMERA_DISTANCE

    def __post_init__(self):
        if not 0.0 <= self.azimuth < 2 * np.pi:
            raise ValueError(f"azimuth {self.azimuth} outside [0, 2pi)")
        if not -np.pi / 2 <= self.elevation <= np.pi / 2:
            raise ValueError(f"elevation {self.elevation} outside [-pi/2, pi/2]")
        if self.distance <= 0:
            raise ValueError("camera distance must be positive")

    @property
    def position(self):
        ce = np.cos(self.elevation)
        return self.distance * np.array([
            ce * np.cos(self.azimuth), ce * np.sin(self.azimuth),
            np.sin(self.elevation)])


@dataclass
class PartialMesh:
    """Subset mesh cut from a parent by a scan, at the parent's pose."""

    mesh: Mesh
    parent_id: str
    parent_vertex: np.ndarray  # per-vertex index into the parent, ascending
    parent_face: np.ndarray  # per-face index into the parent, ascending
    camera: CameraPose | None  # None for a whole partial

    @classmethod
    def whole(cls, mesh):
        """A full shape as the partial that keeps all of ``mesh``."""
        return cls(mesh, mesh.id, np.arange(mesh.n_vertices),
                   np.arange(mesh.n_faces), None)

    def face_index(self, parent_faces):
        """Each face's position in the sorted ``parent_face``, or UNMATCHED
        where this partial does not keep it (or the input is UNMATCHED)."""
        pos = np.minimum(np.searchsorted(self.parent_face, parent_faces),
                         len(self.parent_face) - 1)
        return np.where(self.parent_face[pos] == parent_faces, pos, UNMATCHED)


@dataclass
class OverlapStats:
    frac_x_to_y: float
    frac_y_to_x: float
    iterations_used: int
    within_range: bool


class EmptyScanError(RuntimeError):
    """The scan hit no faces; the caller resamples the camera."""


def sample_camera(rng):
    """Uniform-on-the-sphere camera pose at CAMERA_DISTANCE: azimuth ~
    U[0, 2pi), elevation arcsin-distributed so positions are area-uniform."""
    azimuth = rng.uniform(0.0, 2 * np.pi)
    elevation = np.arcsin(rng.uniform(-1.0, 1.0))
    return CameraPose(azimuth % (2 * np.pi), elevation)


def sample_constrained_pair(rng, alpha):
    """A free pose plus a second pose within ``alpha`` of it in both azimuth
    (wrapped) and elevation (clamped)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    first = sample_camera(rng)
    az = (first.azimuth + rng.uniform(-alpha, alpha)) % (2 * np.pi)
    el = np.clip(first.elevation + rng.uniform(-alpha, alpha),
                 -np.pi / 2, np.pi / 2)
    return first, CameraPose(az, el)


def camera_rays(camera, resolution):
    """Pinhole ray grid: origins (r, 3) and unit directions (r, 3).

    The vertical FOV fits the unit bounding sphere of a unit-box shape with
    a small margin; pixels are square.
    """
    w, h = resolution
    eye = camera.position
    forward = -eye / np.linalg.norm(eye)
    up = np.array([0.0, 0.0, 1.0])
    if abs(camera.elevation) > _POLE_ELEVATION:
        up = np.array([1.0, 0.0, 0.0])  # avoid gimbal degeneracy at the poles
    right = np.cross(forward, up)
    right /= np.linalg.norm(right)
    true_up = np.cross(right, forward)

    bounding_radius = np.sqrt(3.0) / 2.0
    half_fov = np.arcsin(min(1.0, bounding_radius / camera.distance)) * _FOV_MARGIN
    half_extent = np.tan(half_fov)
    ys = (np.arange(h) + 0.5) / h * 2.0 - 1.0
    xs = (np.arange(w) + 0.5) / w * 2.0 - 1.0
    gx, gy = np.meshgrid(xs * half_extent * (w / h), ys * half_extent)
    dirs = (forward[None, :] + gx.reshape(-1, 1) * right[None, :]
            + gy.reshape(-1, 1) * true_up[None, :])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    origins = np.broadcast_to(eye, dirs.shape).copy()
    return origins, dirs


def cast_scan(mesh, camera, resolution, cache=None):
    """First-hit faces of a pixel-grid scan; the mesh is expected to be
    unit-box normalized. Returns a sorted int64 array of face indices."""
    if cache is not None:
        cached = cache.load(mesh, camera, resolution)
        if cached is not None:
            return cached
    origins, dirs = camera_rays(camera, resolution)
    faces, _ = mesh.bvh.first_hits(origins, dirs)
    hit = np.unique(faces[faces >= 0])
    if cache is not None:
        cache.store(mesh, camera, resolution, hit)
    return hit


def extract_partial(mesh, hit_faces, camera, parent):
    """Largest-area connected component of the hit faces as a PartialMesh.

    ``mesh`` is the scanned (normalized) mesh; vertex positions of the
    output are taken from ``parent``, which shares its connectivity, so the
    partial sits at the original scale and pose, bit-exactly.
    """
    comps = geo.connected_components(mesh, hit_faces)
    if not comps:
        raise EmptyScanError("scan hit no faces")
    keep_faces = comps[0][0]  # ascending: components keep sorted order
    vids = np.unique(mesh.faces[keep_faces])
    remap = np.full(mesh.n_vertices, -1, dtype=np.int64)
    remap[vids] = np.arange(len(vids))
    sub = Mesh(parent.vertices[vids], remap[mesh.faces[keep_faces]],
               id=f"{parent.id}#partial")
    return PartialMesh(mesh=sub, parent_id=parent.id,
                       parent_vertex=vids, parent_face=keep_faces,
                       camera=camera)


def _scan(normalized, parent, camera, resolution, cache):
    """The partial of ``parent`` that ``camera`` sees on ``normalized``."""
    return extract_partial(normalized,
                           cast_scan(normalized, camera, resolution, cache),
                           camera, parent)


def generate_partial(mesh, rng, resolution, cache=None):
    """Partial shape from a random camera; resamples the camera after an
    empty scan, up to SCAN_ATTEMPTS cameras."""
    # normalized once: the normalized mesh builds its BVH on first use
    normalized = geo.normalize_to_unit_box(mesh)
    for _ in range(SCAN_ATTEMPTS):
        camera = sample_camera(rng)
        try:
            return _scan(normalized, mesh, camera, resolution, cache)
        except EmptyScanError:
            continue
    raise EmptyScanError(f"no visible faces after {SCAN_ATTEMPTS} camera "
                         "samples")


def compute_overlap(px, py, corr_xy, corr_yx):
    """Mutual overlap fractions ``(frac_x_to_y, frac_y_to_x)`` between two
    partial shapes.

    A vertex of px counts as overlapping when its parent vertex is matched
    by corr_xy onto a face py keeps (``py.face_index``, as in ``restrict``).
    Unmatched parents stay in the denominator. Both correspondences must
    connect the partials' parents.
    """
    if corr_xy.source_id != px.parent_id or corr_xy.target_id != py.parent_id:
        raise ValueError("corr_xy does not connect the parents of px and py")
    if corr_yx.source_id != py.parent_id or corr_yx.target_id != px.parent_id:
        raise ValueError("corr_yx does not connect the parents of py and px")
    return (_directed_overlap(px, py, corr_xy),
            _directed_overlap(py, px, corr_yx))


def _directed_overlap(pa, pb, corr):
    kept = pb.face_index(corr.faces[pa.parent_vertex]) != UNMATCHED
    return float(kept.sum() / len(kept))


def restrict(corr, px, py):
    """``corr`` between the parents cut down to the partials: px's rows,
    py's faces (``py.face_index``); the constructor zeroes unmatched rows."""
    return DenseCorrespondence(
        px.mesh.id, py.mesh.id, py.face_index(corr.faces[px.parent_vertex]),
        corr.weights[px.parent_vertex])


def generate_partial_pair(mx, my, corr_xy, corr_yx, params, rng, resolution,
                          cache=None):
    """Overlap-constrained partial pair.

    my is rigidly pre-aligned to mx (Procrustes over the matched vertex
    pairs) for camera placement only; the returned partials are at the
    original dataset poses. Up to ``m`` attempts with camera pairs whose
    angular disparity stays below ``alpha``; an attempt is accepted when at
    least one overlap fraction is inside [min_overlap, max_overlap]. After
    m failures the attempt whose worst fraction is closest to the range is
    returned with within_range=False.
    """
    alpha = params["alpha"]
    lo, hi = params["min_overlap"], params["max_overlap"]
    m = int(params["m"])
    if not (0 <= lo < hi <= 1):
        raise ValueError("need 0 <= min_overlap < max_overlap <= 1")
    if m < 1:
        raise ValueError("m must be >= 1")
    # normalized once: each normalized mesh builds its BVH on first use
    nx = geo.normalize_to_unit_box(mx)
    ny = geo.normalize_to_unit_box(_align_to(my, mx, corr_xy))

    best = None
    best_score = np.inf
    for it in range(1, m + 1):
        cam_x, cam_y = sample_constrained_pair(rng, alpha)
        try:
            px = _scan(nx, mx, cam_x, resolution, cache)
            # scan the aligned mesh, keep the original (unaligned) pose
            py = _scan(ny, my, cam_y, resolution, cache)
        except EmptyScanError:
            continue
        fx, fy = compute_overlap(px, py, corr_xy, corr_yx)
        if (lo <= fx <= hi) or (lo <= fy <= hi):
            return px, py, OverlapStats(fx, fy, it, True)
        # distance of the worse fraction to [lo, hi]
        score = max(0.0, lo - fx, fx - hi, lo - fy, fy - hi)
        if score < best_score:
            best_score = score
            best = (px, py, OverlapStats(fx, fy, m, False))
    if best is None:
        raise EmptyScanError("all camera pairs produced empty scans")
    return best


def _align_to(my, mx, corr_xy):
    """Rigidly move my into mx's frame using the matched vertex pairs."""
    matched = np.flatnonzero(corr_xy.matched)
    if len(matched) < 3:
        raise ValueError("correspondence has fewer than 3 matched pairs")
    y_pos = geo.evaluate_correspondence(corr_xy, my)[matched]
    x_pos = mx.vertices[matched]
    T = geo.procrustes_align(y_pos, x_pos)
    return my.with_vertices(T.apply(my.vertices))


class RaycastCache(ContentStore):
    """Cache of hit-face sets keyed by (mesh, camera, resolution); honors the
    use_precomputed_partial_raycasting / update_precomputed_raycasting pair."""

    suffixes = (".npy",)

    @staticmethod
    def key_parts(mesh, camera, resolution):
        return (mesh.vertices, mesh.faces,
                np.array([camera.azimuth, camera.elevation, camera.distance],
                         dtype=np.float64),
                np.array(resolution, dtype=np.int64))

    # spelled out so perfbench's tracer, which looks in the class __dict__,
    # finds it
    def load(self, mesh, camera, resolution):
        return super().load(mesh, camera, resolution)

    def read(self, paths, mesh, camera, resolution):
        return np.load(paths[0])

    def write(self, paths, hit_faces):
        np.save(paths[0], np.asarray(hit_faces, dtype=np.int64))
