"""Simulated unidirectional 3D scanner.

A pinhole camera on a sphere around the unit-box-normalized shape casts a
pixel grid of rays, every one from the camera's eye; first-hit faces
forming the largest connected component (by area) become the partial
shape, which keeps its parent maps and no camera. Partial pairs are
regenerated until the mutual overlap fraction lands in a configured range.

A scan finds its first hits by binning each face into the pixels its
projected box covers and intersecting only those (ray, face) pairs; each
ray's (face, t) is that of exhaustive first-hit search over every face,
and this is the package's only ray caster. Binning needs every vertex in
front of the eye, which a unit-box mesh is: a mesh that reaches the eye's
plane raises ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import geometry as geo
from .meshes import DenseCorrespondence, Mesh, UNMATCHED
from .spatial import RAY_EPS, _keep_lowest, ray_triangle_intersections
from .store import ContentStore

CAMERA_DISTANCE = 2.0
_FOV_MARGIN = 1.05
_POLE_ELEVATION = np.deg2rad(85.0)
SCAN_ATTEMPTS = 5  # cameras generate_partial samples before it gives up
_SCAN_PAIRS = 1 << 12  # (ray, face) pairs per binned intersection step
_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class CameraPose:
    """Viewpoint on the sphere of radius ``CAMERA_DISTANCE`` around the
    origin, looking at the origin. Every camera sits at that distance,
    which ``_hit_faces``' depth bound assumes."""

    azimuth: float
    elevation: float

    def __post_init__(self):
        if not 0.0 <= self.azimuth < 2 * np.pi:
            raise ValueError(f"azimuth {self.azimuth} outside [0, 2pi)")
        if not -np.pi / 2 <= self.elevation <= np.pi / 2:
            raise ValueError(f"elevation {self.elevation} outside [-pi/2, pi/2]")

    @property
    def position(self):
        ce = np.cos(self.elevation)
        return CAMERA_DISTANCE * np.array([
            ce * np.cos(self.azimuth), ce * np.sin(self.azimuth),
            np.sin(self.elevation)])

    @cached_property
    def frame(self):
        """The pinhole: ``(eye, forward, right, true_up, half_extent)``,
        built once per pose. ``camera_rays`` casts its rays in this frame
        and ``_hit_faces`` projects into it, so the two share one pixel
        grid.

        The vertical FOV fits the unit bounding sphere of a unit-box shape
        with a small margin; ``half_extent`` is the tangent of its half
        angle.
        """
        eye = self.position
        forward = -eye / np.linalg.norm(eye)
        up = np.array([0.0, 0.0, 1.0])
        if abs(self.elevation) > _POLE_ELEVATION:
            up = np.array([1.0, 0.0, 0.0])  # avoid gimbal degeneracy at the poles
        right = np.cross(forward, up)
        right /= np.linalg.norm(right)
        true_up = np.cross(right, forward)

        bounding_radius = np.sqrt(3.0) / 2.0
        half_fov = (np.arcsin(min(1.0, bounding_radius / CAMERA_DISTANCE))
                    * _FOV_MARGIN)
        return eye, forward, right, true_up, np.tan(half_fov)


@dataclass
class PartialMesh:
    """Subset mesh cut from a parent by a scan, at the parent's pose."""

    mesh: Mesh
    parent_id: str
    parent_vertex: np.ndarray  # per-vertex index into the parent, ascending
    parent_face: np.ndarray  # per-face index into the parent, ascending

    @classmethod
    def whole(cls, mesh):
        """A full shape as the partial that keeps all of ``mesh``."""
        return cls(mesh, mesh.id, np.arange(mesh.n_vertices),
                   np.arange(mesh.n_faces))

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
    # a sum a hair below 0 wraps to 2pi exactly, outside [0, 2pi)
    az = 0.0 if az == 2 * np.pi else az
    el = np.clip(first.elevation + rng.uniform(-alpha, alpha),
                 -np.pi / 2, np.pi / 2)
    return first, CameraPose(az, el)


def camera_rays(camera, resolution):
    """Pinhole ray grid ``(eye, directions)``: every ray starts at the eye,
    ``camera.position`` (3,), and runs along its unit direction, one row
    of ``directions`` (w h, 3).

    Ray j * w + i passes through the centre of pixel column i, row j of the
    w x h grid; pixels are square.
    """
    w, h = resolution
    eye, forward, right, true_up, half_extent = camera.frame
    ys = (np.arange(h) + 0.5) / h * 2.0 - 1.0
    xs = (np.arange(w) + 0.5) / w * 2.0 - 1.0
    gx, gy = np.meshgrid(xs * half_extent * (w / h), ys * half_extent)
    dirs = (forward[None, :] + gx.reshape(-1, 1) * right[None, :]
            + gy.reshape(-1, 1) * true_up[None, :])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return eye, dirs


def cast_scan(mesh, camera, resolution, cache=None):
    """First-hit faces of a pixel-grid scan; the mesh is expected to be
    unit-box normalized. Returns a sorted int64 array of face indices.

    Raises ValueError for a mesh with a vertex at or behind the eye's plane
    (``_hit_faces`` states the bound), which no unit-box mesh has."""
    if cache is not None:
        cached = cache.load(mesh, camera, resolution)
        if cached is not None:
            return cached
    face, _ = _hit_faces(mesh, camera, resolution)
    hit = np.unique(face[face >= 0])
    if cache is not None:
        cache.store(mesh, camera, resolution, hit)
    return hit


def _hit_faces(mesh, camera, resolution):
    """First-hit ``(face, t)`` of each ray of ``camera_rays``, face -1 and
    t +inf on a miss: over every face, each ray's lowest (t, face) by
    ``ray_triangle_intersections``, as ``exhaustive_first_hits`` of
    ``tests/conftest.py`` finds it. Every ray is cast from the eye itself,
    broadcast against the rays' directions; no per-ray origin is built.
    The pinhole frame is the pose's one ``CameraPose.frame``.

    Each face is binned into the pixels whose centres lie in its projected
    box, widened by the margin below, and only those (ray, face) pairs are
    intersected, ``_SCAN_PAIRS`` at a time; each ray keeps its lowest
    (t, face) by ``_keep_lowest``. Binning needs every vertex in front of
    the eye, at a depth z_min > 2 beta z_max (beta below), and raises
    ValueError otherwise. A unit-box mesh at CAMERA_DISTANCE has depths of
    at least 2 - sqrt(3)/2 ~ 1.13, against a bound of about 2.4e-3.

    Margin. ``ray_triangle_intersections`` counts a hit where the
    barycentric weights (1 - u - v, u, v) it computes are all >= -RAY_EPS.
    With D = |eye| + R, R the farthest vertex's distance to the eye, u and
    v are dot products of vectors no longer than 2D divided by det, and
    |det| > RAY_EPS on a hit; so rounding moves each by at most
    40 eps D^2 / RAY_EPS (eps the float64 epsilon), and the exact weights
    of the ray's crossing with the face's plane are all >= -beta, where
    beta = RAY_EPS + 80 eps D^2 / RAY_EPS. The crossing lies on the ray,
    which projects onto its pixel centre. A point with weights w_k on
    corners at depths z_k projects to the combination of the corners'
    projections with weights w_k z_k / sum_j w_j z_j; at most two w_k are
    negative and sum_j w_j z_j >= z_min - 2 beta z_max, so the point lies
    at most 2 beta z_max / (z_min - 2 beta z_max) box widths outside the
    corners' box on each axis. The projection rounds each pixel coordinate,
    and the ray's direction its pixel centre, by less than
    64 eps (1 + D / z_min)^2 (s + w + h) pixels, s the pixels per unit of
    x / z; both terms widen every box.
    """
    w, h = resolution
    eye, dirs = camera_rays(camera, resolution)
    _, forward, right, true_up, half_extent = camera.frame
    rel = mesh.vertices - eye
    depth = (rel * forward).sum(axis=1)
    scale = h / (2.0 * half_extent)  # pixels per unit of x / z
    col = (rel * right).sum(axis=1) / depth * scale + (w / 2.0 - 0.5)
    row = (rel * true_up).sum(axis=1) / depth * scale + (h / 2.0 - 0.5)

    reach = np.linalg.norm(eye) + np.sqrt((rel * rel).sum(axis=1).max())
    beta = RAY_EPS + 80 * _EPS * reach ** 2 / RAY_EPS
    z_min, z_max = depth.min(), depth.max()
    if not z_min > 2 * beta * z_max:
        raise ValueError(
            f"a vertex lies at depth {z_min!r}, within {2 * beta * z_max!r} "
            "of the eye's plane; a scan needs every vertex in front of it")
    grow = 2 * beta * z_max / (z_min - 2 * beta * z_max)
    pad = 64 * _EPS * (1 + reach / z_min) ** 2 * (scale + w + h)

    def pixels(coord, n):
        """First pixel and pixel count of each face's widened box."""
        c = coord[mesh.faces]
        lo, hi = c.min(axis=1), c.max(axis=1)
        margin = grow * (hi - lo) + pad
        first = np.clip(np.ceil(lo - margin), 0, n)
        last = np.clip(np.floor(hi + margin), -1, n - 1)
        return first.astype(np.int64), np.maximum(last - first + 1,
                                                  0).astype(np.int64)

    col0, n_col = pixels(col, w)
    row0, n_row = pixels(row, h)
    n_pairs = n_col * n_row
    end = np.cumsum(n_pairs)
    total = int(end[-1])
    a, b, c = mesh.face_corners()
    best_t = np.full(w * h, np.inf)
    best_face = np.full(w * h, -1, dtype=np.int64)
    for s in range(0, total, _SCAN_PAIRS):
        pair = np.arange(s, min(s + _SCAN_PAIRS, total))
        face = np.searchsorted(end, pair, side="right")
        k = pair - (end[face] - n_pairs[face])
        ray = ((row0[face] + k // n_col[face]) * w + col0[face]
               + k % n_col[face])
        t = ray_triangle_intersections(eye, dirs[ray], a[face], b[face],
                                       c[face])
        hit = np.isfinite(t)
        _keep_lowest(ray[hit], face[hit], t[hit], best_t, best_face)
    return best_face, best_t


def extract_partial(mesh, hit_faces, parent):
    """Largest-area connected component of the hit faces as a PartialMesh.

    ``mesh`` is the scanned (normalized) mesh and ``hit_faces`` its faces
    that a scan hit; vertex positions of the output are taken from
    ``parent``, which shares its connectivity, so the partial sits at the
    original scale and pose, bit-exactly. The partial records no camera:
    the program reads only its mesh and its two parent maps.
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
                       parent_vertex=vids, parent_face=keep_faces)


def _scan(normalized, parent, camera, resolution, cache):
    """The partial of ``parent`` that ``camera`` sees on ``normalized``."""
    return extract_partial(
        normalized, cast_scan(normalized, camera, resolution, cache), parent)


def generate_partial(mesh, rng, resolution, cache=None):
    """Partial shape from a random camera; resamples the camera after an
    empty scan, up to SCAN_ATTEMPTS cameras."""
    normalized = geo.normalize_to_unit_box(mesh)  # once, for every camera
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


def generate_partial_pair(mx, my, corr_xy, corr_yx, rng, resolution, alpha,
                          overlap_range, attempts, cache=None):
    """Overlap-constrained partial pair: ``(px, py, OverlapStats)``.

    my is rigidly pre-aligned to mx (Procrustes over the matched vertex
    pairs) for camera placement only; the returned partials are at the
    original dataset poses. Up to ``attempts`` camera pairs whose angular
    disparity stays below ``alpha``; an attempt is accepted when at least
    one overlap fraction is inside ``overlap_range = (lo, hi)``. After
    ``attempts`` failures the attempt whose worse fraction is closest to
    the range is returned with within_range=False. ``ValueError`` unless
    ``0 <= lo < hi <= 1`` and ``attempts >= 1``.
    """
    lo, hi = overlap_range
    if not (0 <= lo < hi <= 1):
        raise ValueError("need 0 <= min_overlap < max_overlap <= 1")
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    # normalized once, for every attempt
    nx = geo.normalize_to_unit_box(mx)
    ny = geo.normalize_to_unit_box(_align_to(my, mx, corr_xy))

    best = None
    best_score = np.inf
    for it in range(1, attempts + 1):
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
            best = (px, py, OverlapStats(fx, fy, attempts, False))
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
                np.array([camera.azimuth, camera.elevation, CAMERA_DISTANCE],
                         dtype=np.float64),
                np.array(resolution, dtype=np.int64))

    # spelled out so perfbench's tracer, which looks in the class __dict__,
    # finds it
    def load(self, mesh, camera, resolution):
        return super().load(mesh, camera, resolution)

    def read(self, paths, mesh, camera, resolution):
        # mapped, not read: a header that claims more data than the file
        # holds raises ValueError instead of allocating what it claims
        return np.array(np.load(paths[0], mmap_mode="r"))

    def write(self, paths, hit_faces):
        np.save(paths[0], np.asarray(hit_faces, dtype=np.int64))
