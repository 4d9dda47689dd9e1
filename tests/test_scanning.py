import numpy as np
import pytest

from shapecorr import geometry as geo
from shapecorr import scanning
from shapecorr.meshes import (UNMATCHED, DenseCorrespondence, Mesh,
                              identity_correspondence)
from shapecorr.scanning import (CAMERA_DISTANCE, CameraPose, EmptyScanError,
                                PartialMesh, RaycastCache, camera_rays,
                                cast_scan, compute_overlap, extract_partial,
                                generate_partial, generate_partial_pair,
                                restrict, sample_camera,
                                sample_constrained_pair)

from conftest import exhaustive_first_hits, random_rigid
from shapes import bumpy_sphere, icosphere


def sphere_pair(subdiv=2, seed=99):
    """Two rigidly related spheres with exact correspondences both ways."""
    base = icosphere(subdiv)
    mx = Mesh(base.vertices, base.faces, id="pairx")
    T = random_rigid(np.random.default_rng(seed))
    my = Mesh(T.apply(base.vertices), base.faces, id="pairy")
    ic = identity_correspondence(base)
    corr_xy = DenseCorrespondence("pairx", "pairy", ic.faces, ic.weights)
    corr_yx = DenseCorrespondence("pairy", "pairx", ic.faces, ic.weights)
    return mx, my, corr_xy, corr_yx


class TestCameraPose:
    def test_range_validation(self):
        with pytest.raises(ValueError):
            CameraPose(azimuth=-0.1, elevation=0.0)
        with pytest.raises(ValueError):
            CameraPose(azimuth=0.0, elevation=2.0)

    def test_position_on_sphere(self):
        p = CameraPose(azimuth=1.0, elevation=0.3)
        assert np.linalg.norm(p.position) == pytest.approx(CAMERA_DISTANCE)


class TestSampleCamera:
    def test_deterministic(self):
        a = sample_camera(np.random.default_rng(5))
        b = sample_camera(np.random.default_rng(5))
        assert a == b

    def test_angle_ranges(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            c = sample_camera(rng)
            assert 0 <= c.azimuth < 2 * np.pi
            assert -np.pi / 2 <= c.elevation <= np.pi / 2

    def test_uniform_on_sphere(self):
        # mean position of area-uniform samples is the origin; per-coordinate
        # variance of a uniform point on a radius-d sphere is d^2/3
        rng = np.random.default_rng(123)
        n = 100_000
        pos = np.array([sample_camera(rng).position for _ in range(n)])
        sigma = pos.std() / np.sqrt(n)
        assert np.abs(pos.mean(axis=0)).max() < 3 * sigma + 1e-12


class TestConstrainedPair:
    def test_disparity_bounds(self):
        rng = np.random.default_rng(1)
        alpha = np.pi / 4
        for _ in range(300):
            a, b = sample_constrained_pair(rng, alpha)
            daz = abs(a.azimuth - b.azimuth)  # the short way round
            assert min(daz, 2 * np.pi - daz) <= alpha + 1e-12
            assert abs(a.elevation - b.elevation) <= alpha + 1e-12

    def test_tiny_alpha_poses_coincide(self):
        a, b = sample_constrained_pair(np.random.default_rng(2), 1e-12)
        assert abs(a.azimuth - b.azimuth) < 1e-11
        assert abs(a.elevation - b.elevation) < 1e-11

    def test_wraparound_disparity(self):
        """The second azimuth wraps into [0, 2pi): some pairs lie within
        alpha only the short way round."""
        rng = np.random.default_rng(1)
        az = np.array([[p.azimuth for p in sample_constrained_pair(
            rng, np.pi / 4)] for _ in range(300)])
        assert ((az >= 0) & (az < 2 * np.pi)).all()
        assert (np.abs(az[:, 0] - az[:, 1]) > np.pi).any()

    def test_azimuth_a_hair_below_zero_wraps_to_zero(self):
        """A first azimuth of 2pi 2^-53 and a disparity of -9.99e-16, both
        values the rng's draws can take, sum to a hair below 0, which
        ``% 2pi`` rounds up to 2pi exactly; the pose takes 0.0 instead."""
        class Scripted:
            draws = [2 * np.pi * 2.0 ** -53, 0.0, -9.99e-16, 0.0]

            def uniform(self, low, high):
                return self.draws.pop(0)

        first, second = sample_constrained_pair(Scripted(), np.pi / 4)
        assert first.azimuth == 2 * np.pi * 2.0 ** -53
        assert second.azimuth == 0.0

    def test_alpha_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            sample_constrained_pair(np.random.default_rng(0), 0.0)


class TestCastScan:
    def test_single_facing_triangle_hit(self):
        tri = Mesh(np.array([[-0.3, -0.3, 0.0], [0.3, -0.3, 0.0],
                             [0.0, 0.4, 0.0]]),
                   np.array([[0, 1, 2]]), id="tri")
        cam = CameraPose(azimuth=0.0, elevation=np.pi / 2)  # on +z axis
        hit = cast_scan(tri, cam, resolution=(32, 32))
        assert list(hit) == [0]

    def test_occlusion_nearer_triangle_wins(self):
        # two coaxial triangles; the camera sees only the nearer one
        t = np.array([[-0.3, -0.3, 0.0], [0.3, -0.3, 0.0], [0.0, 0.4, 0.0]])
        m = Mesh(np.vstack([t + [0, 0, 0.2], t - [0, 0, 0.2]]),
                 np.array([[0, 1, 2], [3, 4, 5]]), id="two")
        cam = CameraPose(azimuth=0.0, elevation=np.pi / 2)
        hit = cast_scan(m, cam, resolution=(32, 32))
        assert list(hit) == [0]

    def test_matches_exhaustive_oracle(self):
        m = geo.normalize_to_unit_box(icosphere(2))
        cam = sample_camera(np.random.default_rng(7))
        face, _ = exhaustive_first_hits(m, *camera_rays(cam, (48, 48)))
        np.testing.assert_array_equal(cast_scan(m, cam, (48, 48)),
                                      np.unique(face[face >= 0]))

    def test_closed_sphere_back_faces_occluded(self):
        m = geo.normalize_to_unit_box(icosphere(2))
        cam = CameraPose(azimuth=0.3, elevation=0.2)
        hit = cast_scan(m, cam, resolution=(128, 128))
        assert 0 < len(hit) < m.n_faces


class TestBinnedHits:
    """``cast_scan`` bins each face into the pixels its projected box
    covers; each ray's first-hit face and t equal those of
    ``exhaustive_first_hits`` on the same rays, and its hit faces are
    their distinct faces."""

    @staticmethod
    def assert_exact(mesh, camera, resolution):
        face, t = scanning._hit_faces(mesh, camera, resolution)
        want_face, want_t = exhaustive_first_hits(
            mesh, *camera_rays(camera, resolution))
        np.testing.assert_array_equal(face, want_face)
        assert t.tobytes() == want_t.tobytes()
        hit = cast_scan(mesh, camera, resolution)
        np.testing.assert_array_equal(hit, np.unique(face[face >= 0]))
        assert "bvh" not in mesh.__dict__  # binned: no BVH was built
        return hit

    @staticmethod
    def on_rays(camera, resolution, ray, scale):
        """Points on the rays ``ray`` of ``camera_rays``, each ``scale``
        times the eye's distance from the eye."""
        origins, dirs = camera_rays(camera, resolution)
        return origins[ray] + dirs[ray] * (np.asarray(scale) * CAMERA_DISTANCE)

    def test_vertices_and_edges_on_pixel_centres(self):
        # a grid on the rays of every second pixel: every other ray passes
        # exactly through one of its vertices or along one of its edges,
        # where faces tie
        cam, n = CameraPose(0.4, 0.3), 16
        idx = np.arange(1, 32, 2)
        ray = (idx[:, None] * 32 + idx[None, :]).ravel()
        v = self.on_rays(cam, (32, 32), ray, 1.0)
        k = (np.arange(n - 1)[:, None] * n + np.arange(n - 1)).ravel()
        faces = np.concatenate([np.stack([k, k + 1, k + n + 1], axis=1),
                                np.stack([k, k + n + 1, k + n], axis=1)])
        assert len(self.assert_exact(Mesh(v, faces), cam, (32, 32))) > 0

    def test_slivers_and_edge_on_faces(self, rng):
        # each face has a corner on a pixel-centre ray; a sliver's third
        # corner lies within 1e-7 of its opposite edge, and an edge-on
        # face's plane holds the eye to within 1e-12..1e-7, so |det| lands
        # on both sides of RAY_EPS
        cam, n = CameraPose(1.1, -0.2), 80
        a = self.on_rays(cam, (32, 32), rng.choice(1024, n, replace=False),
                         rng.uniform(0.8, 1.2, (n, 1)))
        b = a + rng.normal(size=(n, 3)) * 0.15
        sliver = (a + rng.uniform(0, 1, (n, 1)) * (b - a)
                  + rng.normal(size=(n, 3)) * 1e-7)
        edge_on = (a + (a - cam.position) * rng.uniform(-0.3, 0.3, (n, 1))
                   + rng.normal(size=(n, 3))
                   * 10.0 ** rng.uniform(-12, -7, (n, 1)))
        i = np.arange(n)
        faces = np.concatenate([np.stack([i, i + n, i + 2 * n], axis=1),
                                np.stack([i, i + n, i + 3 * n], axis=1)])
        m = Mesh(np.concatenate([a, b, sliver, edge_on]), faces)
        assert len(self.assert_exact(m, cam, (32, 32))) > 0

    @pytest.mark.parametrize("camera,resolution", [
        (CameraPose(0.7, np.pi / 2), (32, 32)),
        (CameraPose(5.0, -np.pi / 2), (32, 32)),
        (CameraPose(0.7, np.deg2rad(86.0)), (32, 32)),  # past the pole
        (CameraPose(2.0, 0.4), (40, 24)),
        (CameraPose(4.0, -0.9), (24, 40)),
        (CameraPose(0.3, 0.2), (256, 256)),
    ])
    def test_matches_exhaustive(self, camera, resolution):
        m = geo.normalize_to_unit_box(bumpy_sphere(2))
        assert len(self.assert_exact(m, camera, resolution)) > 0

    def test_random_cameras(self):
        m = geo.normalize_to_unit_box(bumpy_sphere(2))
        rng = np.random.default_rng(5)
        for _ in range(20):
            self.assert_exact(m, sample_camera(rng), (32, 32))

    def test_mesh_across_the_eye_plane_raises(self):
        # scaled past the camera: some vertices lie behind the eye
        m = geo.normalize_to_unit_box(bumpy_sphere(2))
        big = m.with_vertices(m.vertices * 5.0)
        with pytest.raises(ValueError, match="eye's plane"):
            cast_scan(big, CameraPose(0.3, 0.2), (32, 32))
        assert "bvh" not in big.__dict__


class TestExtractPartial:
    def test_full_hit_is_identity(self):
        m = icosphere(1)
        norm = geo.normalize_to_unit_box(m)
        cam = CameraPose(0.0, 0.0)
        p = extract_partial(norm, np.arange(m.n_faces), cam, parent=m)
        np.testing.assert_array_equal(p.parent_face, np.arange(m.n_faces))
        np.testing.assert_array_equal(p.parent_vertex, np.arange(m.n_vertices))
        np.testing.assert_array_equal(p.mesh.vertices, m.vertices)
        np.testing.assert_array_equal(p.mesh.faces, m.faces)

    def test_largest_area_patch_kept(self):
        m = icosphere(2)
        norm = geo.normalize_to_unit_box(m)
        # two disjoint patches: faces around vertex 0 vs a single far face
        big = sorted(int(f) for f in np.flatnonzero((m.faces == 0).any(axis=1)))
        lone_candidates = [f for f in range(m.n_faces)
                           if not (set(m.faces[f]) & set(np.unique(m.faces[big])))]
        subset = big + [lone_candidates[-1]]
        p = extract_partial(norm, subset, CameraPose(0, 0), parent=m)
        comps = geo.connected_components(m, np.array(subset))
        np.testing.assert_array_equal(p.parent_face, np.sort(comps[0][0]))

    def test_empty_hit_raises(self):
        m = icosphere(1)
        norm = geo.normalize_to_unit_box(m)
        with pytest.raises(EmptyScanError):
            extract_partial(norm, [], CameraPose(0, 0), parent=m)

    def test_parent_maps_consistent(self):
        m = icosphere(2)
        norm = geo.normalize_to_unit_box(m)
        cam = CameraPose(1.0, 0.4)
        p = extract_partial(norm, cast_scan(norm, cam, (64, 64)), cam,
                            parent=m)
        np.testing.assert_array_equal(p.parent_vertex[p.mesh.faces],
                                      m.faces[p.parent_face])

    def test_scan_moved_copy_at_parent_pose(self, rng):
        m = icosphere(2)
        moved = m.with_vertices(random_rigid(rng).apply(m.vertices))
        norm = geo.normalize_to_unit_box(moved)
        cam = CameraPose(1.0, 0.4)
        hit = cast_scan(norm, cam, (64, 64))
        p = extract_partial(norm, hit, cam, parent=m)
        q = extract_partial(norm, hit, cam, parent=moved)
        np.testing.assert_array_equal(p.parent_face, q.parent_face)
        np.testing.assert_array_equal(p.mesh.faces, q.mesh.faces)
        assert p.mesh.vertices.tobytes() == \
            m.vertices[q.parent_vertex].tobytes()
        assert (p.parent_id, p.mesh.id) == (m.id, f"{m.id}#partial")

    def test_kept_fraction_at_default_resolution(self):
        # the largest component drops the faces of the other scan fragments;
        # at 256x256 these 8 cameras kept 0.80-0.95 of the hit faces, and the
        # bound sits 0.10 below the smallest share
        m = geo.normalize_to_unit_box(bumpy_sphere(5))
        rng = np.random.default_rng(0)
        kept = []
        for _ in range(8):
            cam = sample_camera(rng)
            hit = cast_scan(m, cam, (256, 256))
            kept.append(len(extract_partial(m, hit, cam, m).parent_face)
                        / len(hit))
        assert min(kept) >= 0.70


class TestWholePartial:
    def test_is_the_full_hit_partial(self):
        """A full shape's whole partial has the maps of a scan that hits
        every face, and no camera."""
        m = icosphere(1)
        w = PartialMesh.whole(m)
        p = extract_partial(m, np.arange(m.n_faces), CameraPose(0.0, 0.0), m)
        np.testing.assert_array_equal(w.parent_face, p.parent_face)
        np.testing.assert_array_equal(w.parent_vertex, p.parent_vertex)
        assert w.mesh is m and w.camera is None

    def test_restrict_is_identity(self):
        """face_index of a whole partial keeps every face and UNMATCHED,
        so restricting to whole partials re-makes the correspondence."""
        m = icosphere(1)
        rng = np.random.default_rng(8)
        faces = rng.integers(0, m.n_faces, m.n_vertices)
        faces[rng.random(m.n_vertices) < 0.3] = UNMATCHED
        corr = DenseCorrespondence(m.id, m.id, faces,
                                   rng.dirichlet(np.ones(3), m.n_vertices))
        w = PartialMesh.whole(m)
        np.testing.assert_array_equal(w.face_index(faces), faces)
        out = restrict(corr, w, w)
        np.testing.assert_array_equal(out.faces, corr.faces)
        np.testing.assert_array_equal(
            out.weights, DenseCorrespondence(m.id, m.id, corr.faces,
                                             corr.weights).weights)


class TestComputeOverlap:
    def test_full_total_correspondence_is_one(self):
        mx, my, cxy, cyx = sphere_pair()
        norm_x = geo.normalize_to_unit_box(mx)
        norm_y = geo.normalize_to_unit_box(my)
        px = extract_partial(norm_x, np.arange(mx.n_faces), CameraPose(0, 0),
                             parent=mx)
        py = extract_partial(norm_y, np.arange(my.n_faces), CameraPose(0, 0),
                             parent=my)
        assert compute_overlap(px, py, cxy, cyx) == (1.0, 1.0)

    def test_matches_brute_force_membership(self):
        mx, my, cxy, cyx = sphere_pair()
        rng = np.random.default_rng(3)
        px = generate_partial(mx, rng, resolution=(64, 64))
        py = generate_partial(my, rng, resolution=(64, 64))
        fx, fy = compute_overlap(px, py, cxy, cyx)
        pf = set(int(f) for f in py.parent_face)
        hits = sum(1 for v in px.parent_vertex
                   if int(cxy.faces[v]) >= 0 and int(cxy.faces[v]) in pf)
        assert fx == pytest.approx(hits / px.mesh.n_vertices)
        assert 0.0 <= fy <= 1.0

    def test_mismatched_parent_ids_rejected(self):
        mx, my, cxy, cyx = sphere_pair()
        rng = np.random.default_rng(4)
        px = generate_partial(mx, rng, resolution=(64, 64))
        py = generate_partial(my, rng, resolution=(64, 64))
        with pytest.raises(ValueError):
            compute_overlap(px, py, cyx, cxy)


class TestGeneratePartial:
    def test_deterministic(self):
        m = icosphere(2)
        a = generate_partial(m, np.random.default_rng(11), resolution=(64, 64))
        b = generate_partial(m, np.random.default_rng(11), resolution=(64, 64))
        assert a.mesh == b.mesh
        np.testing.assert_array_equal(a.parent_vertex, b.parent_vertex)
        np.testing.assert_array_equal(a.parent_face, b.parent_face)
        assert a.camera == b.camera

    def test_closed_mesh_loses_back_faces(self):
        m = icosphere(2)
        p = generate_partial(m, np.random.default_rng(8), resolution=(128, 128))
        assert p.mesh.n_vertices < m.n_vertices

    def test_single_component(self):
        m = icosphere(2)
        p = generate_partial(m, np.random.default_rng(9), resolution=(64, 64))
        comps = geo.connected_components(p.mesh)
        assert len(comps) == 1

    def test_vertices_exact_subset_of_parent(self):
        m = icosphere(3)
        p = generate_partial(m, np.random.default_rng(10), resolution=(64, 64))
        np.testing.assert_array_equal(p.mesh.vertices,
                                      m.vertices[p.parent_vertex])

    def test_no_bvh_build_across_empty_scans(self, monkeypatch, bvh_builds):
        # the first two cameras see nothing; all three scans bin their
        # faces, so none builds a BVH
        attempts = []
        extract = scanning.extract_partial

        def empty_twice(*args, **kwargs):
            attempts.append(args[2])
            if len(attempts) <= 2:
                raise EmptyScanError("scan hit no faces")
            return extract(*args, **kwargs)

        monkeypatch.setattr(scanning, "extract_partial", empty_twice)
        p = generate_partial(icosphere(2), np.random.default_rng(12),
                             resolution=(32, 32))
        assert p.camera == attempts[2]
        assert bvh_builds == []


class TestGeneratePartialPair:
    # alpha, overlap range, attempts
    PARAMS = (np.pi / 4, (0.1, 0.9), 10)

    def test_accepted_or_max_iterations(self):
        mx, my, cxy, cyx = sphere_pair()
        px, py, st = generate_partial_pair(
            mx, my, cxy, cyx, np.random.default_rng(21), (64, 64),
            *self.PARAMS)
        assert 0.0 <= st.frac_x_to_y <= 1.0
        assert 0.0 <= st.frac_y_to_x <= 1.0
        if st.within_range:
            lo, hi = 0.1, 0.9
            assert (lo <= st.frac_x_to_y <= hi) or (lo <= st.frac_y_to_x <= hi)
        else:
            assert st.iterations_used == 10

    def test_partials_at_original_poses(self):
        mx, my, cxy, cyx = sphere_pair()
        px, py, _ = generate_partial_pair(
            mx, my, cxy, cyx, np.random.default_rng(22), (64, 64),
            *self.PARAMS)
        np.testing.assert_array_equal(px.mesh.vertices,
                                      mx.vertices[px.parent_vertex])
        np.testing.assert_array_equal(py.mesh.vertices,
                                      my.vertices[py.parent_vertex])

    def test_deterministic(self):
        mx, my, cxy, cyx = sphere_pair()
        r1 = generate_partial_pair(mx, my, cxy, cyx, np.random.default_rng(23),
                                   (64, 64), *self.PARAMS)
        r2 = generate_partial_pair(mx, my, cxy, cyx, np.random.default_rng(23),
                                   (64, 64), *self.PARAMS)
        assert r1[0].mesh == r2[0].mesh
        assert r1[1].mesh == r2[1].mesh
        assert r1[2].frac_x_to_y == r2[2].frac_x_to_y

    def test_no_bvh_build(self, bvh_builds):
        # an overlap window no attempt reaches makes all m attempts run
        mx, my, cxy, cyx = sphere_pair()
        _, _, st = generate_partial_pair(mx, my, cxy, cyx,
                                         np.random.default_rng(24), (32, 32),
                                         np.pi / 4, (0.0, 1e-9), 5)
        assert not st.within_range
        assert bvh_builds == []

    def test_degenerate_correspondence_rejected(self):
        mx, my, cxy, cyx = sphere_pair()
        bad = DenseCorrespondence("pairx", "pairy",
                                  np.full(len(cxy), -1, dtype=np.int64),
                                  np.zeros((len(cxy), 3)))
        with pytest.raises(ValueError):
            generate_partial_pair(mx, my, bad, cyx, np.random.default_rng(0),
                                  (64, 64), *self.PARAMS)

    def test_bad_params_rejected(self):
        mx, my, cxy, cyx = sphere_pair()
        with pytest.raises(ValueError):
            generate_partial_pair(mx, my, cxy, cyx, np.random.default_rng(0),
                                  (64, 64), 1.0, (0.9, 0.1), 10)
        with pytest.raises(ValueError):
            generate_partial_pair(mx, my, cxy, cyx, np.random.default_rng(0),
                                  (64, 64), 1.0, (0.1, 0.9), 0)


class TestRaycastCache:
    def test_roundtrip_and_flags(self, tmp_path):
        m = geo.normalize_to_unit_box(icosphere(2))
        cam = CameraPose(0.5, 0.1)
        cache = RaycastCache(tmp_path / "rays")
        fresh = cast_scan(m, cam, (48, 48), cache=cache)
        cached = cache.load(m, cam, (48, 48))
        np.testing.assert_array_equal(cached, fresh)
        cache.use = False
        assert cache.load(m, cam, (48, 48)) is None

    def test_no_write_when_update_disabled(self, tmp_path):
        m = geo.normalize_to_unit_box(icosphere(1))
        cam = CameraPose(0.5, 0.1)
        cache = RaycastCache(tmp_path / "rays", use=True, update=False)
        cast_scan(m, cam, (16, 16), cache=cache)
        assert not (tmp_path / "rays").exists()

    def test_oversized_header_is_a_miss(self, tmp_path):
        # a header that claims more data than the file holds reads as a
        # miss, so the scan is cast again
        m = geo.normalize_to_unit_box(icosphere(2))
        cam = CameraPose(0.5, 0.1)
        cache = RaycastCache(tmp_path / "rays")
        fresh = cast_scan(m, cam, (48, 48), cache=cache)
        path, = (tmp_path / "rays").glob("*.npy")
        with open(path, "wb") as f:
            np.lib.format.write_array_header_1_0(f, {
                "descr": "<i8", "fortran_order": False, "shape": (2 ** 40,)})
            f.write(fresh.tobytes())
        np.testing.assert_array_equal(cast_scan(m, cam, (48, 48), cache=cache),
                                      fresh)
