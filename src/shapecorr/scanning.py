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
from .meshes import Mesh, UNMATCHED
from .store import ContentStore

CAMERA_DISTANCE = 2.0
_FOV_MARGIN = 1.05
_POLE_ELEVATION = np.deg2rad(85.0)
DEFAULT_RESOLUTION = (256, 256)

# angular disparity per cam_pos_regime config value
REGIME_ALPHA = {"low": np.pi / 8, "medium": np.pi / 4, "high": np.pi / 2}


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
    parent_vertex: np.ndarray  # per-vertex index into the parent
    parent_face: np.ndarray  # per-face index into the parent
    camera: CameraPose
    restore: object  # SimilarityTransform used during scanning


@dataclass
class OverlapStats:
    frac_x_to_y: float
    frac_y_to_x: float
    iterations_used: int
    within_range: bool


class EmptyScanError(RuntimeError):
    """The scan hit no faces; the caller resamples the camera."""


def sample_camera(rng, distance=CAMERA_DISTANCE):
    """Uniform-on-the-sphere camera pose: azimuth ~ U[0, 2pi), elevation
    arcsin-distributed so positions are area-uniform."""
    azimuth = rng.uniform(0.0, 2 * np.pi)
    elevation = np.arcsin(rng.uniform(-1.0, 1.0))
    return CameraPose(azimuth % (2 * np.pi), elevation, distance)


def sample_constrained_pair(rng, alpha, distance=CAMERA_DISTANCE):
    """A free pose plus a second pose within ``alpha`` of it in both azimuth
    (wrapped) and elevation (clamped)."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    first = sample_camera(rng, distance)
    az = (first.azimuth + rng.uniform(-alpha, alpha)) % (2 * np.pi)
    el = np.clip(first.elevation + rng.uniform(-alpha, alpha),
                 -np.pi / 2, np.pi / 2)
    return first, CameraPose(az, el, distance)


def angular_disparity(a, b):
    """(azimuth, elevation) disparity with azimuth wrap-around."""
    da = abs(a.azimuth - b.azimuth)
    da = min(da, 2 * np.pi - da)
    return da, abs(a.elevation - b.elevation)


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


def cast_scan(mesh, camera, resolution=DEFAULT_RESOLUTION, cache=None):
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


def extract_partial(mesh, hit_faces, camera, restore, parent=None,
                    parent_id=None):
    """Largest-area connected component of the hit faces as a PartialMesh.

    ``mesh`` is the scanned (normalized) mesh; vertex positions of the
    output are taken from ``parent`` (default: mesh itself) so the partial
    sits at the original scale and pose, bit-exactly.
    """
    hit_faces = np.asarray(sorted(hit_faces), dtype=np.int64)
    if len(hit_faces) == 0:
        raise EmptyScanError("scan hit no faces")
    comps = geo.connected_components(mesh, hit_faces)
    keep_faces = np.sort(comps[0][0])
    parent = parent if parent is not None else mesh
    vids = np.unique(mesh.faces[keep_faces])
    remap = np.full(mesh.n_vertices, -1, dtype=np.int64)
    remap[vids] = np.arange(len(vids))
    sub = Mesh(parent.vertices[vids], remap[mesh.faces[keep_faces]],
               id=f"{parent.id}#partial", metadata=parent.metadata)
    return PartialMesh(mesh=sub,
                       parent_id=parent_id if parent_id is not None else parent.id,
                       parent_vertex=vids, parent_face=keep_faces,
                       camera=camera, restore=restore)


def scan_partial(mesh, camera, resolution=DEFAULT_RESOLUTION, cache=None):
    """Normalize, scan from the given pose, keep the largest component."""
    normalized, restore = geo.normalize_to_unit_box(mesh)
    hit = cast_scan(normalized, camera, resolution, cache=cache)
    return extract_partial(normalized, hit, camera, restore, parent=mesh)


def generate_partial(mesh, rng, resolution=DEFAULT_RESOLUTION, cache=None,
                     max_retries=5):
    """Partial shape from a random camera; retries empty scans."""
    for _ in range(max_retries):
        camera = sample_camera(rng)
        try:
            return scan_partial(mesh, camera, resolution, cache=cache)
        except EmptyScanError:
            continue
    raise EmptyScanError(f"no visible faces after {max_retries} camera samples")


def compute_overlap(px, py, corr_xy, corr_yx, iterations_used=1,
                    overlap_range=None):
    """Mutual overlap fractions between two partial shapes.

    A vertex of px counts as overlapping when its parent vertex is matched
    by corr_xy and the matched SurfacePoint's face belongs to py's parent
    faces. Unmatched parents stay in the denominator.
    """
    if corr_xy.source_id != px.parent_id or corr_xy.target_id != py.parent_id:
        raise ValueError("corr_xy does not connect the parents of px and py")
    if corr_yx.source_id != py.parent_id or corr_yx.target_id != px.parent_id:
        raise ValueError("corr_yx does not connect the parents of py and px")
    fx = _directed_overlap(px, py, corr_xy)
    fy = _directed_overlap(py, px, corr_yx)
    within = False
    if overlap_range is not None:
        lo, hi = overlap_range
        within = (lo <= fx <= hi) or (lo <= fy <= hi)
    return OverlapStats(fx, fy, iterations_used, within)


def _directed_overlap(pa, pb, corr):
    faces = corr.faces[pa.parent_vertex]
    matched = faces != UNMATCHED
    in_b = np.isin(faces, pb.parent_face)
    return float((matched & in_b).sum() / len(faces))


def generate_partial_pair(mx, my, corr_xy, corr_yx, params, rng,
                          resolution=DEFAULT_RESOLUTION, cache=None):
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
    aligned_my = _align_to(my, mx, corr_xy)

    def dist_to_range(f):
        return max(0.0, lo - f, f - hi)

    best = None
    best_score = np.inf
    for it in range(1, m + 1):
        cam_x, cam_y = sample_constrained_pair(rng, alpha)
        try:
            px = scan_partial(mx, cam_x, resolution, cache=cache)
            py_aligned = scan_partial(aligned_my, cam_y, resolution, cache=cache)
        except EmptyScanError:
            continue
        # re-seat the y partial on the original (unaligned) mesh
        py = PartialMesh(
            mesh=Mesh(my.vertices[py_aligned.parent_vertex],
                      py_aligned.mesh.faces, id=f"{my.id}#partial",
                      metadata=my.metadata),
            parent_id=my.id, parent_vertex=py_aligned.parent_vertex,
            parent_face=py_aligned.parent_face, camera=cam_y,
            restore=py_aligned.restore)
        stats = compute_overlap(px, py, corr_xy, corr_yx,
                                iterations_used=it, overlap_range=(lo, hi))
        if stats.within_range:
            return px, py, stats
        score = max(dist_to_range(stats.frac_x_to_y),
                    dist_to_range(stats.frac_y_to_x))
        if score < best_score:
            best_score = score
            best = (px, py, stats)
    if best is None:
        raise EmptyScanError("all camera pairs produced empty scans")
    px, py, stats = best
    stats.iterations_used = m
    return px, py, stats


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
