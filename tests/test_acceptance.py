"""Acceptance suite: nine end-to-end criteria at stated tolerances.

Each test is one criterion; together they gate the whole package.
"""

import dataclasses
import shutil
import time

import numpy as np
import pytest

from shapecorr import geometry as geo
from shapecorr.config import GenerationConfig
from shapecorr.decimate import remesh_with_correspondence
from shapecorr.meshes import (DenseCorrespondence, Mesh, UNMATCHED,
                              identity_correspondence)
from shapecorr.metrics import (evaluate_instance, geodesic_error,
                               gt_as_prediction)
from shapecorr.network import ShapeNetwork, ShapeNode, compose
from shapecorr.pairs import (PairSpec, ShapeRecord, SplitManifest,
                             default_split_manifest, enumerate_pairs)
from shapecorr.pipeline import run_generation
from shapecorr.scanning import generate_partial, generate_partial_pair
from shapecorr.spatial import exhaustive_first_hits

from conftest import (bumpy_sphere, digest_tree, floyd_warshall_distances,
                      grid_plane, icosphere, random_rigid, require_golden_build)


def random_corr(mesh, rng, unmatched_frac=0.0):
    n = mesh.n_vertices
    faces = rng.integers(0, mesh.n_faces, size=n).astype(np.int64)
    w = rng.dirichlet(np.ones(3), size=n)
    if unmatched_frac:
        drop = rng.random(n) < unmatched_frac
        faces[drop] = UNMATCHED
        w[drop] = 0.0
    return DenseCorrespondence("src", mesh.id, faces, w)


def test_criterion_1_metric_oracle_equivalence():
    """>= 20 toy pairs (<= 60 vertices): errors match Floyd-Warshall within
    1e-9 after normalization, in under 10 s total."""
    rng = np.random.default_rng(1001)
    t0 = time.monotonic()
    for trial in range(20):
        mesh = grid_plane(4) if trial % 2 else icosphere(1)
        assert mesh.n_vertices <= 60
        fw = floyd_warshall_distances(mesh)
        area = geo.surface_area(mesh)
        gt = random_corr(mesh, rng)
        pred = rng.integers(0, mesh.n_vertices,
                            size=mesh.n_vertices).astype(np.int64)
        errors = geodesic_error(pred, gt, mesh, area, "full_full")
        gtv = geo.snap_correspondence_to_vertices(gt, mesh)
        np.testing.assert_allclose(errors, fw[gtv, pred] / np.sqrt(area),
                                   atol=1e-9)
    assert time.monotonic() - t0 < 10.0


def test_criterion_2_metric_ceilings():
    """Ground truth evaluated against itself: AUC 100 +- 1e-6; P2P IoU and
    F1 exactly 100."""
    mesh = icosphere(2)
    rng = np.random.default_rng(1002)
    for setting, frac in (("full_full", 0.0), ("partial_full", 0.3),
                          ("partial_partial", 0.3)):
        gt = random_corr(mesh, rng, unmatched_frac=frac)
        rep = evaluate_instance(mesh, gt, gt_as_prediction(gt, mesh),
                                setting, geo.surface_area(mesh))
        assert rep.auc == pytest.approx(100.0, abs=1e-6)
        if setting == "partial_partial":
            assert rep.iou == 100.0
            assert rep.f1 == 100.0


def test_criterion_3_raycast_correctness():
    """10^4 random rays per mesh: BVH == exhaustive; partials are single
    components and vertex-exact parent subsets; < 60 s per mesh at
    256x256."""
    rng = np.random.default_rng(1003)
    for mesh in (icosphere(3), bumpy_sphere(3)):
        origins = rng.normal(size=(10_000, 3)) * 2.0
        dirs = rng.normal(size=(10_000, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        bf, bt = mesh.bvh.first_hits(origins, dirs)
        ef, et = exhaustive_first_hits(mesh, origins, dirs)
        np.testing.assert_array_equal(bf, ef)
        np.testing.assert_array_equal(bt, et)

        t0 = time.monotonic()
        p = generate_partial(mesh, rng, resolution=(256, 256))
        assert time.monotonic() - t0 < 60.0
        assert len(geo.connected_components(p.mesh)) == 1
        diff = np.abs(p.mesh.vertices - mesh.vertices[p.parent_vertex])
        assert diff.max() <= 1e-9


def test_criterion_4_overlap_protocol():
    """200 P2P pairs at alpha=pi/4, range 10-90%, m=10: >= 90% within
    range, the rest flagged at iterations_used=10; deterministic."""
    shapes = [bumpy_sphere(2, seed=s, id=f"s{s}") for s in range(4)]
    params = {"alpha": np.pi / 4, "min_overlap": 0.1, "max_overlap": 0.9,
              "m": 10}

    def run(seed):
        rng = np.random.default_rng(seed)
        stats = []
        for k in range(200):
            mx = shapes[k % 4]
            my = shapes[(k + 1) % 4]
            ic = identity_correspondence(mx)
            cxy = DenseCorrespondence(mx.id, my.id, ic.faces, ic.weights)
            cyx = DenseCorrespondence(my.id, mx.id, ic.faces, ic.weights)
            _, _, st = generate_partial_pair(mx, my, cxy, cyx, params, rng,
                                             resolution=(64, 64))
            stats.append((st.frac_x_to_y, st.frac_y_to_x,
                          st.iterations_used, st.within_range))
        return stats

    stats = run(1004)
    within = [s for s in stats if s[3]]
    assert len(within) >= 180  # >= 90%
    for s in stats:
        if not s[3]:
            assert s[2] == 10
        assert 0.0 <= s[0] <= 1.0 and 0.0 <= s[1] <= 1.0
    assert run(1004) == stats  # bit-identical repeat


def test_criterion_5_remeshing_contract():
    """Default count range on an above-range input: vertex count lands in
    [9000, 10000]; back-correspondence residuals bounded by the reported
    error; identical seeds give bit-identical meshes."""
    mesh = bumpy_sphere(5)  # 10242 vertices
    assert mesh.n_vertices > 10_000
    r1 = remesh_with_correspondence(mesh, (9000, 10_000),
                                    np.random.default_rng(1005))
    r2 = remesh_with_correspondence(mesh, (9000, 10_000),
                                    np.random.default_rng(1005))
    assert 9000 <= r1.mesh.n_vertices <= 10_000
    assert r1.mesh == r2.mesh
    assert r1.to_original == r2.to_original
    mapped = geo.evaluate_correspondence(r1.to_original, mesh)
    d = np.linalg.norm(mapped - r1.mesh.vertices, axis=1)
    assert d.max() <= r1.max_projection_error + 1e-12


def test_criterion_6_correspondence_algebra():
    """Identity and permutation-composition oracles exact; UNMATCHED
    absorption on randomized chains of length <= 5."""
    base = icosphere(2)
    rng = np.random.default_rng(1006)
    # permutation chain oracle
    perms = [rng.permutation(base.n_vertices) for _ in range(4)]
    meshes = []
    for p in perms:
        T = random_rigid(rng)
        meshes.append(Mesh(T.apply(base.vertices)[np.argsort(p)],
                           p[base.faces], id=f"m{len(meshes)}"))
    corrs = []
    for i in range(3):
        fwd = perms[i + 1][np.argsort(perms[i])]
        ic = identity_correspondence(meshes[i + 1])
        corrs.append(DenseCorrespondence(f"m{i}", f"m{i+1}",
                                         ic.faces[fwd], ic.weights[fwd]))
    acc = corrs[0]
    for i, c in enumerate(corrs[1:], start=1):
        acc = compose(acc, c, meshes[i], meshes[i + 1])
    expect = np.arange(base.n_vertices)
    for i in range(3):
        expect = perms[i + 1][np.argsort(perms[i])][expect]
    snapped = geo.snap_correspondence_to_vertices(acc, meshes[3])
    np.testing.assert_array_equal(snapped, expect)
    # identity law
    ident = identity_correspondence(meshes[0])
    left = compose(ident, corrs[0], meshes[0], meshes[1])
    np.testing.assert_allclose(
        geo.evaluate_correspondence(left, meshes[1]),
        geo.evaluate_correspondence(corrs[0], meshes[1]), atol=1e-9)
    # absorption on random chains
    for trial in range(5):
        length = int(rng.integers(2, 6))
        acc = random_corr(base, rng, unmatched_frac=0.3)
        for _ in range(length - 1):
            step = random_corr(base, rng, unmatched_frac=0.3)
            step = DenseCorrespondence(acc.target_id, "src", step.faces,
                                       step.weights)
            nxt = compose(acc, step, base, base)
            assert not (nxt.matched & ~acc.matched).any()
            acc = nxt


def test_criterion_7_invariance_suite():
    """Metric invariance under rigid motion and uniform target scaling
    (1e-9 relative); normalize_area idempotent."""
    mesh = icosphere(1)
    rng = np.random.default_rng(1007)
    gt = random_corr(mesh, rng, unmatched_frac=0.2)
    pred = rng.integers(0, mesh.n_vertices,
                        size=mesh.n_vertices).astype(np.int64)
    base = evaluate_instance(mesh, gt, pred, "partial_partial",
                             geo.surface_area(mesh))
    T = random_rigid(rng)
    moved = mesh.with_vertices(T.apply(mesh.vertices))
    rigid = evaluate_instance(moved, gt, pred, "partial_partial",
                              geo.surface_area(moved))
    scaled = mesh.with_vertices(mesh.vertices * 5.3)
    scale = evaluate_instance(scaled, gt, pred, "partial_partial",
                              geo.surface_area(scaled))
    for other in (rigid, scale):
        assert other.auc == pytest.approx(base.auc, rel=1e-9)
        assert other.iou == base.iou and other.f1 == base.f1
        finite = np.isfinite(base.errors)
        np.testing.assert_allclose(other.errors[finite],
                                   base.errors[finite], rtol=1e-9,
                                   atol=1e-12)
    unit = geo.normalize_area(mesh)
    again = geo.normalize_area(unit)
    np.testing.assert_allclose(again.vertices, unit.vertices, atol=1e-12)


def test_criterion_8_split_hygiene_and_counts():
    """Default manifest: 10185/137/142 pairs and zero train/test category
    overlap."""
    manifest = default_split_manifest()
    sizes = {s: len(enumerate_pairs(manifest, GenerationConfig(split=s)))
             for s in ("train", "val", "test")}
    assert sizes == {"train": 10185, "val": 137, "test": 142}
    assert not (manifest.categories("train") & manifest.categories("test"))


def _toy_world(n=5, base=None):
    base = icosphere(2) if base is None else base
    rng = np.random.default_rng(1009)
    ids = [f"faust:{i:04d}" for i in range(n)]
    nodes, edges = {}, {}
    ic = identity_correspondence(base)
    for i, sid in enumerate(ids):
        T = random_rigid(rng)
        node = ShapeNode(id=sid, dataset="faust", category="faust:c",
                         template=(i == 0))
        node._mesh = Mesh(T.apply(base.vertices), base.faces, id=sid)
        nodes[sid] = node
    for a, b in zip(ids, ids[1:]):
        edges[(a, b)] = DenseCorrespondence(a, b, ic.faces, ic.weights)
        edges[(b, a)] = DenseCorrespondence(b, a, ic.faces, ic.weights)
    pairs = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)]
    manifest = SplitManifest(
        {s: ShapeRecord(s, "faust", "faust:c", "human") for s in ids},
        {"train": pairs})
    return ShapeNetwork(nodes, edges), manifest


# digest_tree of the criterion-9 tree, cache/ included, measured on
# conftest.GOLDEN_BUILD
GOLDEN_DIGEST = \
    "16b1718b0ddc87c2e1b06d5f3f211c0661fe1289cb36ddb1fb97cf66a0c5690f"


def _criterion_9_config():
    return GenerationConfig(datasets=("faust",), split="train",
                            setting="partial_partial", resolution=(48, 48),
                            count_range=(80, 120), global_seed=9)


def test_criterion_9_end_to_end_determinism(tmp_path):
    """A 10-instance run repeated with the same seed is byte-identical;
    interrupted-and-resumed equals uninterrupted."""
    net, manifest = _toy_world()
    cfg = _criterion_9_config()
    done = run_generation(cfg, net, manifest, tmp_path / "a")
    assert len(done) == 10
    run_generation(cfg, net, manifest, tmp_path / "b")
    assert digest_tree(tmp_path / "a") == digest_tree(tmp_path / "b")
    run_generation(cfg, net, manifest, tmp_path / "c", limit=4)  # "interrupt"
    run_generation(cfg, net, manifest, tmp_path / "c")
    assert digest_tree(tmp_path / "c") == digest_tree(tmp_path / "a")


def test_criterion_9_pinned_digest(tmp_path):
    """The criterion-9 tree equals a pinned digest, so a change to any
    output byte fails here even when two runs still agree."""
    require_golden_build()
    net, manifest = _toy_world()
    run_generation(_criterion_9_config(), net, manifest, tmp_path)
    assert digest_tree(tmp_path) == GOLDEN_DIGEST


def test_warm_remesh_cache_writes_cold_bytes(tmp_path):
    """A run that finds its decimations in a copied cache writes the
    instance bytes of the run that filled it."""
    net, manifest = _toy_world(base=bumpy_sphere(3))
    cfg = dataclasses.replace(_criterion_9_config(), count_range=(300, 320))
    run_generation(cfg, net, manifest, tmp_path / "cold")
    shutil.copytree(tmp_path / "cold" / "cache", tmp_path / "warm" / "cache")
    run_generation(cfg, net, manifest, tmp_path / "warm")
    names = (tmp_path / "cold" / "instances.manifest").read_text().split()
    assert len(names) == 10
    for name in names:
        assert (tmp_path / "warm" / name / "gt.corr").read_bytes() == \
            (tmp_path / "cold" / name / "gt.corr").read_bytes(), name
    assert digest_tree(tmp_path / "warm") == digest_tree(tmp_path / "cold")
