import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapecorr import geometry as geo
from shapecorr import metrics
from shapecorr.meshes import (DenseCorrespondence, Mesh, UNMATCHED,
                              identity_correspondence)
from shapecorr.metrics import (DEFAULT_THRESHOLDS, SOURCE_CHUNK,
                               aggregate_reports, auc, error_curve,
                               evaluate_instance, f1,
                               geodesic_error, iou,
                               load_prediction, lr_accuracy, write_report)
from shapecorr.textio import key_value_text, write_atomic

from conftest import full_matrix_geodesic_error, random_correspondence
from shapes import bumpy_sphere, icosphere


def near_miss(mesh, targets, rng):
    """Each of ``targets`` moved by a random walk of 1-3 mesh edges (it may
    walk back to where it started)."""
    e = mesh.edges()
    arcs = np.concatenate([e, e[:, ::-1]])
    arcs = arcs[np.lexsort((arcs[:, 1], arcs[:, 0]))]
    start = np.searchsorted(arcs[:, 0], np.arange(mesh.n_vertices + 1))
    out = np.array(targets, dtype=np.int64)
    steps = rng.integers(1, 4, size=len(out))
    for s in range(3):
        v = out[steps > s]
        out[steps > s] = arcs[start[v] + rng.integers(0, start[v + 1] -
                                                       start[v]), 1]
    return out


def folded_strip(arm=24, radius=0.05):
    """A unit-wide strip bent into a U: two straight arms of ``arm`` unit
    segments, 2 * radius apart, joined by a half turn. A vertex and the one
    facing it on the other arm are close in space but far along the
    strip. Vertex 2 * i + k sits at station i of the centre line, at
    height z = k."""
    turn = np.pi * radius
    steps = np.concatenate([np.arange(arm + 1.0),
                            arm + turn * np.arange(1, 8) / 8,
                            arm + turn + np.arange(arm + 1.0)])
    centre = []
    for t in steps:
        if t <= arm:
            centre.append([t, 0.0])
        elif t < arm + turn:
            a = (t - arm) / radius
            centre.append([arm + radius * np.sin(a),
                           radius - radius * np.cos(a)])
        else:
            centre.append([arm - (t - arm - turn), 2 * radius])
    centre = np.array(centre)
    v = np.repeat(np.column_stack([centre, np.zeros(len(centre))]), 2,
                  axis=0)
    v[1::2, 2] = 1.0
    i = 2 * np.arange(len(centre) - 1)
    f = np.concatenate([np.column_stack([i, i + 2, i + 1]),
                        np.column_stack([i + 1, i + 2, i + 3])])
    return Mesh(v, f, id="u_strip")


class TestGeodesicError:
    def test_exact_prediction_zero(self):
        mesh = icosphere(1)
        gt = random_correspondence(mesh, np.random.default_rng(0))
        pred = geo.snap_correspondence_to_vertices(gt, mesh)
        errors = geodesic_error(pred, gt, mesh, geo.surface_area(mesh),
                                "full_full")
        np.testing.assert_array_equal(errors, 0.0)

    def test_p2p_mismatch_semantics(self):
        mesh = icosphere(1)
        n = mesh.n_vertices
        gt = random_correspondence(mesh, np.random.default_rng(1),
                                   unmatched_frac=0.3)
        pred = geo.snap_correspondence_to_vertices(gt, mesh)
        gm = gt.matched
        # flip one matched to unmatched and one unmatched to matched
        i_pred_missing = int(np.flatnonzero(gm)[0])
        i_gt_missing = int(np.flatnonzero(~gm)[0])
        pred[i_pred_missing] = UNMATCHED
        pred[i_gt_missing] = 0
        errors = geodesic_error(pred, gt, mesh, geo.surface_area(mesh),
                                "partial_partial")
        assert np.isinf(errors[i_pred_missing])
        assert np.isinf(errors[i_gt_missing])
        # both-unmatched are excluded
        both_un = ~gm & (pred == UNMATCHED)
        assert np.isnan(errors[both_un]).all()

    def test_f2f_gt_unmatched_excluded(self):
        mesh = icosphere(1)
        gt = random_correspondence(mesh, np.random.default_rng(2),
                                   unmatched_frac=0.3)
        pred = np.zeros(mesh.n_vertices, dtype=np.int64)
        errors = geodesic_error(pred, gt, mesh, geo.surface_area(mesh),
                                "partial_full")
        assert np.isnan(errors[~gt.matched]).all()
        assert np.isfinite(errors[gt.matched]).all()

    def test_invalid_prediction_rejected(self):
        mesh = icosphere(1)
        gt = random_correspondence(mesh, np.random.default_rng(3))
        pred = np.full(mesh.n_vertices, mesh.n_vertices, dtype=np.int64)
        with pytest.raises(ValueError):
            geodesic_error(pred, gt, mesh, 1.0, "full_full")

    def test_gt_face_out_of_range_rejected(self):
        mesh = icosphere(1)
        gt = random_correspondence(mesh, np.random.default_rng(3))
        faces = gt.faces.copy()
        faces[0] = mesh.n_faces
        gt = DenseCorrespondence("x", "y", faces, gt.weights)
        pred = np.zeros(mesh.n_vertices, dtype=np.int64)
        with pytest.raises(ValueError, match="ground truth"):
            geodesic_error(pred, gt, mesh, 1.0, "full_full")

    @pytest.mark.parametrize("setting", ["full_full", "partial_partial"])
    def test_prediction_below_unmatched_rejected(self, setting):
        """-2 is not a vertex: read as an index it would score vertex
        n - 2."""
        mesh = icosphere(1)
        gt = random_correspondence(mesh, np.random.default_rng(3))
        pred = geo.snap_correspondence_to_vertices(gt, mesh)
        pred[4] = -2
        with pytest.raises(ValueError, match="below -1"):
            geodesic_error(pred, gt, mesh, 1.0, setting)
        with pytest.raises(ValueError, match="below -1"):
            evaluate_instance(mesh, gt, pred, setting, 1.0)


    @pytest.mark.parametrize("setting", ["partial-partial", "", "F2F"])
    def test_unknown_setting_rejected(self, setting):
        """Every setting but partial_partial would be scored as F2F."""
        mesh = icosphere(1)
        gt = random_correspondence(mesh, np.random.default_rng(3))
        pred = geo.snap_correspondence_to_vertices(gt, mesh)
        with pytest.raises(ValueError, match=repr(setting)):
            geodesic_error(pred, gt, mesh, 1.0, setting)
        with pytest.raises(ValueError, match=repr(setting)):
            evaluate_instance(mesh, gt, pred, setting, 1.0)

    @pytest.mark.parametrize("area", [np.nan, np.inf, 0.0, -1.0])
    def test_area_not_positive_finite_rejected(self, area):
        """A NaN area would exclude every vertex and an infinite one would
        score every vertex 0; both would report AUC 100."""
        mesh = icosphere(1)
        rng = np.random.default_rng(13)
        gt = random_correspondence(mesh, rng)
        pred = rng.integers(0, mesh.n_vertices, size=mesh.n_vertices)
        with pytest.raises(ValueError, match="area"):
            geodesic_error(pred, gt, mesh, area, "full_full")


class TestPairPath:
    """Self pairs and source chunks give the full-matrix errors bit for
    bit."""

    @pytest.fixture(scope="class")
    def sphere(self):
        return bumpy_sphere(3)  # 642 vertices: many source chunks

    @staticmethod
    def check(pred, gt, mesh, setting="full_full"):
        area = geo.surface_area(mesh)
        got = geodesic_error(pred, gt, mesh, area, setting)
        want = full_matrix_geodesic_error(pred, gt, mesh, area, setting)
        np.testing.assert_array_equal(got, want)
        assert got.tobytes() == want.tobytes()
        return got

    @pytest.mark.parametrize("kind", ["random", "near_miss", "self"])
    def test_bumpy_sphere(self, sphere, kind):
        n = sphere.n_vertices
        rng = np.random.default_rng(14)
        gt = random_correspondence(sphere, rng)
        gtv = geo.snap_correspondence_to_vertices(gt, sphere)
        pred = {"random": rng.integers(0, n, size=n),
                "near_miss": near_miss(sphere, gtv, rng),
                "self": gtv}[kind]
        errors = self.check(pred, gt, sphere)
        moved = pred != gtv
        assert (errors[~moved] == 0.0).all()
        assert (errors[moved] > 0.0).all()

    def test_one_chunk_plus_one_source(self, sphere):
        n = sphere.n_vertices
        gt = identity_correspondence(sphere)
        np.testing.assert_array_equal(
            geo.snap_correspondence_to_vertices(gt, sphere), np.arange(n))
        rng = np.random.default_rng(15)
        k = SOURCE_CHUNK + 1
        pred = np.arange(n)
        pred[:k] = (pred[:k] + rng.integers(1, n, size=k)) % n
        errors = self.check(pred, gt, sphere)
        assert (errors[:k] > 0).all() and (errors[k:] == 0).all()

    def test_two_components_inf(self):
        a = icosphere(1)
        mesh = Mesh(np.vstack([a.vertices, a.vertices + [5.0, 0.0, 0.0]]),
                    np.vstack([a.faces, a.faces + a.n_vertices]))
        gt = identity_correspondence(mesh)
        rng = np.random.default_rng(16)
        pred = rng.integers(0, mesh.n_vertices, size=mesh.n_vertices)
        errors = self.check(pred, gt, mesh)
        gtv = geo.snap_correspondence_to_vertices(gt, mesh)
        cross = (gtv < a.n_vertices) != (pred < a.n_vertices)
        assert cross.any() and np.isinf(errors[cross]).all()
        assert np.isfinite(errors[~cross]).all()

    def test_folded_strip_reruns_without_limit(self, monkeypatch):
        """Pairs across the arms of a U lie 0.1 apart in space and several
        units apart along the strip, so their limited search misses them
        and one unlimited re-run scores them. Pairs along one arm finish
        within the limit."""
        mesh = folded_strip()
        n = mesh.n_vertices
        gt = identity_correspondence(mesh)
        station, k = np.divmod(np.arange(n), 2)
        pred = 2 * (n // 2 - 1 - station) + k  # facing it on the other arm
        pred[::3] = np.minimum(np.arange(0, n, 3) + 2, n - 1)  # next station
        limits = []
        search = geo.geodesic_distance_fields

        def spy(mesh, sources, limit=np.inf):
            limits.append(limit)
            return search(mesh, sources, limit)

        monkeypatch.setattr(geo, "geodesic_distance_fields", spy)
        errors = self.check(pred, gt, mesh)
        assert np.isinf(limits).any() and np.isfinite(limits).any()
        assert (limits[-1] == np.inf) and np.isfinite(limits[0])
        # every cross-arm pair is further along the strip than its own
        # bound: _REACH times its chord
        v = mesh.vertices
        cross = np.flatnonzero((v[:, 1] == 0) & (v[pred, 1] > 0.09))
        chord = np.linalg.norm(v[cross] - v[pred[cross]], axis=1)
        area = geo.surface_area(mesh)
        assert len(cross) > 10
        assert (errors[cross] * np.sqrt(area) > metrics._REACH * chord).all()

    def test_partial_partial_unmatched_either_side(self, sphere):
        n = sphere.n_vertices
        rng = np.random.default_rng(17)
        gt = random_correspondence(sphere, rng, unmatched_frac=0.3)
        gm = gt.matched
        pred = rng.integers(0, n, size=n)
        gtv = geo.snap_correspondence_to_vertices(gt, sphere)
        pred[gm] = near_miss(sphere, gtv[gm], rng)
        pred[rng.random(n) < 0.3] = UNMATCHED
        errors = self.check(pred, gt, sphere, "partial_partial")
        pm = pred != UNMATCHED
        assert (gm & ~pm).any() and (~gm & pm).any()
        assert np.isinf(errors[gm != pm]).all()
        assert np.isnan(errors[~gm & ~pm]).all()
        assert np.isfinite(errors[gm & pm]).all()


class TestInvariance:
    def test_rigid_invariance(self):
        from conftest import random_rigid
        mesh = icosphere(1)
        rng = np.random.default_rng(4)
        gt = random_correspondence(mesh, rng)
        pred = rng.integers(0, mesh.n_vertices,
                            size=mesh.n_vertices).astype(np.int64)
        e1 = geodesic_error(pred, gt, mesh, geo.surface_area(mesh),
                            "full_full")
        T = random_rigid(rng)
        moved = mesh.with_vertices(T.apply(mesh.vertices))
        e2 = geodesic_error(pred, gt, moved, geo.surface_area(moved),
                            "full_full")
        np.testing.assert_allclose(e1, e2, rtol=1e-9, atol=1e-12)

    def test_scale_invariance(self):
        mesh = icosphere(1)
        rng = np.random.default_rng(5)
        gt = random_correspondence(mesh, rng)
        pred = rng.integers(0, mesh.n_vertices,
                            size=mesh.n_vertices).astype(np.int64)
        e1 = geodesic_error(pred, gt, mesh, geo.surface_area(mesh),
                            "full_full")
        s = 3.7
        scaled = mesh.with_vertices(mesh.vertices * s)
        e2 = geodesic_error(pred, gt, scaled, geo.surface_area(scaled),
                            "full_full")
        np.testing.assert_allclose(e1, e2, rtol=1e-9, atol=1e-12)


class TestCurveAndAuc:
    def test_all_zero_constant_one(self):
        fr = error_curve(np.zeros(10))
        assert fr.shape == DEFAULT_THRESHOLDS.shape and (fr == 1.0).all()
        assert auc(fr) == pytest.approx(100.0, abs=1e-6)

    def test_half_infinite(self):
        fr = error_curve(np.array([0.0] * 5 + [np.inf] * 5))
        assert (fr == 0.5).all()
        assert auc(fr) == pytest.approx(50.0, abs=1e-6)

    def test_nan_excluded_from_denominator(self):
        fr = error_curve(np.array([0.0, np.nan, np.inf, np.nan]))
        assert (fr == 0.5).all()

    def test_matches_sort_and_count_oracle(self):
        rng = np.random.default_rng(6)
        errors = rng.exponential(0.2, size=500)
        errors[rng.random(500) < 0.1] = np.inf
        fr = error_curve(errors)
        for t, f in list(zip(DEFAULT_THRESHOLDS, fr))[::97]:
            assert f == pytest.approx((errors <= t).mean())

    def test_piecewise_linear_closed_form(self):
        # fractions rise linearly 0 -> 1 over the grid [0, 1]: integral 1/2
        assert auc(DEFAULT_THRESHOLDS.copy()) == pytest.approx(50.0)

    @given(st.lists(st.floats(min_value=0, max_value=10), min_size=1,
                    max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_curve_monotone(self, errs):
        fr = error_curve(np.array(errs))
        assert (np.diff(fr) >= 0).all()
        assert ((0 <= fr) & (fr <= 1)).all()


class TestMasksMetrics:
    def test_hand_counts(self):
        p = np.array([1, 1, 1, 0], dtype=bool)
        g = np.array([0, 1, 1, 1], dtype=bool)
        assert iou(p, g) == pytest.approx(0.5)
        assert f1(p, g) == pytest.approx(2 / 3)

    def test_identical_and_disjoint(self):
        a = np.array([1, 0, 1], dtype=bool)
        assert iou(a, a) == 1.0 and f1(a, a) == 1.0
        b = ~a
        assert iou(a, b) == 0.0 and f1(a, b) == 0.0

    def test_empty_masks(self):
        z = np.zeros(4, dtype=bool)
        assert iou(z, z) == 1.0
        assert f1(z, z) == 1.0

    @given(st.integers(1, 60), st.integers(0, 2**60 - 1),
           st.integers(0, 2**60 - 1))
    @settings(max_examples=100, deadline=None)
    def test_iou_le_f1_and_symmetry(self, n, pa, pb):
        p = np.array([(pa >> i) & 1 for i in range(n)], dtype=bool)
        g = np.array([(pb >> i) & 1 for i in range(n)], dtype=bool)
        assert iou(p, g) <= f1(p, g) + 1e-12
        assert iou(p, g) == iou(g, p)
        assert f1(p, g) == f1(g, p)


class TestLrAccuracy:
    def test_perfect(self):
        lab = np.array([0, 1, 0, 1])
        m = np.ones(4, dtype=bool)
        assert lr_accuracy(lab, lab, m, m, "full_full") == 1.0

    def test_toy_p2p_hand_count(self):
        # 10 vertices: 8 agree in the overlap, 2 are overlap mismatches
        gt_lab = np.zeros(10, dtype=int)
        pred_lab = np.zeros(10, dtype=int)
        gm = np.ones(10, dtype=bool)
        pm = np.ones(10, dtype=bool)
        gm[8] = False  # pred matched, gt not
        pm[9] = False  # gt matched, pred not
        assert lr_accuracy(pred_lab, gt_lab, gm, pm,
                           "partial_partial") == pytest.approx(0.8)

    def test_all_outside_overlap_zero(self):
        gm = np.array([True] * 5 + [False] * 5)
        pm = ~gm
        lab = np.zeros(10, dtype=int)
        assert lr_accuracy(lab, lab, gm, pm, "partial_partial") == 0.0

    def test_flipped_labels_score_zero(self):
        """A labelling with left and right swapped is wrong everywhere:
        the score does not forgive the sign."""
        gt_lab = np.array([0, 0, 0, 0, 1])
        pred_lab = 1 - gt_lab
        m = np.ones(5, dtype=bool)
        assert lr_accuracy(pred_lab, gt_lab, m, m, "full_full") == 0.0


class TestEvaluateInstance:
    def test_gt_as_prediction_ceiling(self):
        mesh = icosphere(1)
        gt = random_correspondence(mesh, np.random.default_rng(7),
                                   unmatched_frac=0.2)
        pred = geo.snap_correspondence_to_vertices(gt, mesh)
        rep = evaluate_instance(mesh, gt, pred, "partial_partial",
                                geo.surface_area(mesh))
        assert rep.auc == pytest.approx(100.0, abs=1e-6)
        assert rep.iou == 100.0
        assert rep.f1 == 100.0

    def test_all_unmatched_p2p_floor(self):
        mesh = icosphere(1)
        gt = random_correspondence(mesh, np.random.default_rng(8),
                                   unmatched_frac=0.2)
        pred = np.full(mesh.n_vertices, UNMATCHED, dtype=np.int64)
        rep = evaluate_instance(mesh, gt, pred, "partial_partial",
                                geo.surface_area(mesh))
        assert rep.auc == 0.0
        assert rep.iou == 0.0
        assert rep.f1 == 0.0

    def test_report_internally_consistent(self):
        mesh = icosphere(1)
        rng = np.random.default_rng(9)
        gt = random_correspondence(mesh, rng, unmatched_frac=0.1)
        pred = rng.integers(0, mesh.n_vertices,
                            size=mesh.n_vertices).astype(np.int64)
        pred[rng.random(mesh.n_vertices) < 0.2] = UNMATCHED
        rep = evaluate_instance(mesh, gt, pred, "partial_partial",
                                geo.surface_area(mesh))
        finite_le = np.sum(rep.errors[~np.isnan(rep.errors)]
                           <= DEFAULT_THRESHOLDS[-1])
        assert rep.fractions[-1] * rep.n_denominator == pytest.approx(
            finite_le)
        assert rep.n_denominator + rep.n_excluded == len(gt)

    def test_improving_one_vertex_never_hurts_auc(self):
        mesh = icosphere(1)
        rng = np.random.default_rng(10)
        gt = random_correspondence(mesh, rng)
        pred = rng.integers(0, mesh.n_vertices,
                            size=mesh.n_vertices).astype(np.int64)
        base = evaluate_instance(mesh, gt, pred, "full_full",
                                 geo.surface_area(mesh))
        better = pred.copy()
        better[0] = geo.snap_correspondence_to_vertices(gt, mesh)[0]
        rep = evaluate_instance(mesh, gt, better, "full_full",
                                geo.surface_area(mesh))
        assert rep.auc >= base.auc - 1e-12


class TestReports:
    def test_write_and_aggregate(self, tmp_path):
        mesh = icosphere(1)
        gt = random_correspondence(mesh, np.random.default_rng(11),
                                   unmatched_frac=0.2)
        pred = geo.snap_correspondence_to_vertices(gt, mesh)
        rep = evaluate_instance(mesh, gt, pred, "partial_partial",
                                geo.surface_area(mesh))
        write_report(rep, tmp_path / "inst0")
        text = (tmp_path / "inst0" / "report.txt").read_text()
        assert "auc=" in text and "iou=" in text
        curve = np.loadtxt(tmp_path / "inst0" / "curve.txt")
        assert curve.shape == (len(DEFAULT_THRESHOLDS), 2)
        np.testing.assert_array_equal(curve[:, 0], DEFAULT_THRESHOLDS)
        summary = aggregate_reports([rep, rep])
        assert summary["mean_auc"] == pytest.approx(rep.auc)
        assert summary["mean_iou"] == pytest.approx(100.0)
        write_atomic(tmp_path / "summary.txt", key_value_text(summary))
        assert "mean_auc" in (tmp_path / "summary.txt").read_text()

    def test_prediction_file_roundtrip(self, tmp_path):
        p = tmp_path / "pred.txt"
        p.write_text("0\n5\n-1\n2  # trailing comment\n")
        np.testing.assert_array_equal(load_prediction(p),
                                      np.array([0, 5, -1, 2]))


class TestPredictionFile:
    def test_comments_and_blank_lines(self, tmp_path):
        p = tmp_path / "pred.txt"
        p.write_text("# vertex map\n\n3\n  # indented comment\n-1\n\n7 # x\n")
        np.testing.assert_array_equal(load_prediction(p), [3, -1, 7])

    @pytest.mark.parametrize("text", ["1 2\n", "0\n1 2\n3\n", "0 1\n2 3\n",
                                      "0\n1.5\n", "0\nx\n"])
    def test_not_one_integer_per_line_raises_value_error(self, tmp_path,
                                                          text):
        p = tmp_path / "pred.txt"
        p.write_text(text)
        with pytest.raises(ValueError):
            load_prediction(p)

    @pytest.mark.parametrize("text", ["", "\n", "# nothing\n\n"])
    def test_empty_file_is_empty_array(self, tmp_path, text):
        p = tmp_path / "pred.txt"
        p.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pred = load_prediction(p)
        assert pred.dtype == np.int64 and pred.shape == (0,)
