"""Hypothesis property tests for cross-module invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapecorr import geometry as geo
from shapecorr.meshes import DenseCorrespondence, UNMATCHED
from shapecorr.network import compose

from shapes import icosphere

finite = st.floats(min_value=-100, max_value=100, allow_nan=False)


@st.composite
def triangles(draw):
    pts = np.array([[draw(finite) for _ in range(3)] for _ in range(3)])
    a, b, c = pts
    # reject (near-)degenerate triangles; the contract excludes them
    if np.linalg.norm(np.cross(b - a, c - a)) < 1e-6:
        pts = np.eye(3) + pts * 0.0
    return pts


class TestBarycentricClosure:
    @given(triangles(), st.tuples(finite, finite, finite))
    @settings(max_examples=200, deadline=None)
    def test_closest_point_weights_are_convex(self, tri, p):
        a, b, c = tri[:, None]
        _, bary = geo.closest_points_on_triangles(np.array(p), a, b, c)
        assert (bary >= 0).all()
        assert bary.sum() == pytest.approx(1.0, abs=1e-9)

    @given(st.tuples(st.floats(0.001, 1.0), st.floats(0.001, 1.0),
                     st.floats(0.001, 1.0)))
    @settings(max_examples=200, deadline=None)
    def test_surface_point_renormalizes(self, raw):
        w = np.array(raw) / sum(raw)
        corr = DenseCorrespondence("a", "b", [0], [w])
        assert corr.weights[0].sum() == pytest.approx(1.0, abs=1e-12)
        assert (corr.weights >= 0).all()


def random_corr(mesh, rng, unmatched_frac):
    n = mesh.n_vertices
    faces = rng.integers(0, mesh.n_faces, size=n).astype(np.int64)
    w = rng.dirichlet(np.ones(3), size=n)
    drop = rng.random(n) < unmatched_frac
    faces[drop] = UNMATCHED
    w[drop] = 0.0
    return faces, w


class TestUnmatchedAbsorption:
    @given(st.integers(2, 5), st.integers(0, 10_000),
           st.floats(0.0, 0.5))
    @settings(max_examples=25, deadline=None)
    def test_chains_never_regain_matches(self, length, seed, frac):
        mesh = icosphere(1)
        rng = np.random.default_rng(seed)
        ids = [f"n{i}" for i in range(length + 1)]
        corrs = []
        for i in range(length):
            f, w = random_corr(mesh, rng, frac)
            corrs.append(DenseCorrespondence(ids[i], ids[i + 1], f, w))
        acc = corrs[0]
        for c in corrs[1:]:
            nxt = compose(acc, c, mesh, mesh)
            # composition can lose matches but never create them
            assert not (nxt.matched & ~acc.matched).any()
            acc = nxt
        assert not (acc.matched & ~corrs[0].matched).any()


class TestNormalizeArea:
    @given(st.floats(0.01, 50.0))
    @settings(max_examples=30, deadline=None)
    def test_idempotent_and_unit(self, scale):
        m = icosphere(1)
        m = m.with_vertices(m.vertices * scale)
        once = geo.normalize_area(m)
        assert geo.surface_area(once) == pytest.approx(1.0, abs=1e-9)
        twice = geo.normalize_area(once)
        np.testing.assert_allclose(twice.vertices, once.vertices, atol=1e-12)


class TestCorrespondenceWeights:
    @given(st.integers(0, 10_000), st.floats(0.0, 0.9))
    @settings(max_examples=50, deadline=None)
    def test_matched_rows_convex_unmatched_zero(self, seed, frac):
        mesh = icosphere(1)
        f, w = random_corr(mesh, np.random.default_rng(seed), frac)
        corr = DenseCorrespondence("a", "b", f, w)
        m = corr.matched
        if m.any():
            np.testing.assert_allclose(corr.weights[m].sum(axis=1), 1.0,
                                       atol=1e-9)
            assert (corr.weights[m] >= 0).all()
        assert (corr.weights[~m] == 0).all()
