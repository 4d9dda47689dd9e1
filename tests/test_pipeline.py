import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from shapecorr import geometry as geo
from shapecorr.config import ConfigError, GenerationConfig
from shapecorr.meshes import (DenseCorrespondence, Mesh, UNMATCHED,
                              identity_correspondence)
from shapecorr.network import ShapeNetwork, ShapeNode
from shapecorr.pairs import PairSpec, ShapeRecord, SplitManifest
from shapecorr.pipeline import (MatchingInstance, derive_seed,
                                generate_instance, load_instance,
                                run_generation, write_instance)
from shapecorr.scanning import generate_partial, restrict
from shapecorr.textio import TEMP_NAME

from conftest import digest_tree, icosphere, random_rigid


def toy_network(n=3):
    """Chain of rigidly transformed icospheres registered vertex-to-vertex."""
    base = icosphere(2)
    rng = np.random.default_rng(101)
    nodes, edges = {}, {}
    ids = [f"faust:{i:04d}" for i in range(n)]
    meshes = []
    for i, sid in enumerate(ids):
        T = random_rigid(rng)
        m = Mesh(T.apply(base.vertices), base.faces, id=sid)
        meshes.append(m)
        node = ShapeNode(id=sid, dataset="faust", category="faust:c",
                         template=(i == 0))
        node._mesh = m
        nodes[sid] = node
    ic = identity_correspondence(base)
    for a, b in zip(ids, ids[1:]):
        edges[(a, b)] = DenseCorrespondence(a, b, ic.faces, ic.weights)
        edges[(b, a)] = DenseCorrespondence(b, a, ic.faces, ic.weights)
    manifest = SplitManifest(
        {sid: ShapeRecord(sid, "faust", "faust:c", "human") for sid in ids},
        {"train": [(ids[0], ids[1]), (ids[1], ids[2]), (ids[0], ids[2])]})
    return ShapeNetwork(nodes, edges), manifest, ids


def toy_config(**kw):
    base = dict(datasets=("faust",), split="train", setting="full_full",
                resolution=(48, 48), count_range=(80, 120), global_seed=5)
    base.update(kw)
    return GenerationConfig(**base)


def spec(net_ids, i=0, a=0, b=1):
    return PairSpec(i, "train", net_ids[a], net_ids[b], "faust")


class TestSeedDerivation:
    def test_stable_and_distinct(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        seen = {derive_seed(g, i, r) for g in range(3) for i in range(5)
                for r in range(5)}
        assert len(seen) == 75


class TestGenerateInstance:
    def test_f2f_plain_equals_network_corr(self):
        net, _, ids = toy_network()
        cfg = toy_config(remesh=False, one_axis_rotation=False)
        inst = generate_instance(spec(ids), net, cfg)
        direct = net.edges[(ids[0], ids[1])]
        np.testing.assert_array_equal(inst.gt.faces, direct.faces)
        np.testing.assert_array_equal(inst.gt.weights, direct.weights)
        assert inst.shape_x == net.mesh(ids[0])
        assert inst.overlap is None

    def test_deterministic(self):
        net, _, ids = toy_network()
        cfg = toy_config(setting="partial_partial")
        a = generate_instance(spec(ids), net, cfg)
        b = generate_instance(spec(ids), net, cfg)
        assert a.shape_x == b.shape_x
        assert a.shape_y == b.shape_y
        assert a.gt == b.gt
        assert a.transforms == b.transforms

    def test_remesh_counts_in_range(self):
        net, _, ids = toy_network()
        inst = generate_instance(spec(ids), net,
                                 toy_config(one_axis_rotation=False))
        for mesh in (inst.shape_x, inst.shape_y):
            assert 80 <= mesh.n_vertices <= 120
        assert inst.provenance["remesh_achieved_x"] == inst.shape_x.n_vertices

    def test_p2f_partial_source_full_target(self):
        net, _, ids = toy_network()
        inst = generate_instance(spec(ids), net,
                                 toy_config(setting="partial_full"))
        assert inst.shape_x.n_vertices < inst.shape_y.n_vertices * 1.0 + 1
        assert len(inst.gt) == inst.shape_x.n_vertices
        assert inst.overlap is None
        assert 80 <= inst.shape_y.n_vertices <= 120  # target stays full

    def test_p2p_has_overlap_and_valid_restriction(self):
        net, _, ids = toy_network()
        inst = generate_instance(spec(ids), net,
                                 toy_config(setting="partial_partial"))
        assert inst.overlap is not None
        assert 0 <= inst.overlap.frac_x_to_y <= 1
        m = inst.gt.matched
        assert m.any()
        assert inst.gt.faces[m].max() < inst.shape_y.n_faces

    def test_rotation_angles_recorded(self):
        net, _, ids = toy_network()
        inst = generate_instance(spec(ids), net, toy_config())
        for key in ("rotation_z_x", "rotation_z_y"):
            assert 0.0 <= inst.transforms[key] < 2 * np.pi
        plain = generate_instance(spec(ids), net,
                                  toy_config(one_axis_rotation=False))
        rot = geo.rotate_z(plain.shape_x, inst.transforms["rotation_z_x"])
        np.testing.assert_allclose(inst.shape_x.vertices, rot.vertices,
                                   atol=1e-12)

    def test_path_length_recorded(self):
        net, _, ids = toy_network()
        cfg = toy_config(remesh=False, one_axis_rotation=False)
        assert generate_instance(spec(ids), net,
                                 cfg).provenance["path_length"] == 1
        assert generate_instance(spec(ids, a=0, b=2), net,
                                 cfg).provenance["path_length"] == 2

    def test_error_tagged_with_spec(self):
        net, _, ids = toy_network()
        bad = PairSpec(0, "train", ids[0], "nope", "faust")
        with pytest.raises(RuntimeError, match="instance 0"):
            generate_instance(bad, net, toy_config())

    def test_area_normalization(self):
        net, _, ids = toy_network()
        cfg = toy_config(remesh=False, one_axis_rotation=False,
                         normalize_area=True)
        inst = generate_instance(spec(ids), net, cfg)
        assert geo.surface_area(inst.shape_x) == pytest.approx(1.0, abs=1e-9)


class TestRestriction:
    def test_matches_brute_force_membership(self):
        m = icosphere(2)
        rng = np.random.default_rng(31)
        px = generate_partial(m, rng, resolution=(64, 64))
        py = generate_partial(m, rng, resolution=(64, 64))
        full = identity_correspondence(m)
        out = restrict(full, px, py)
        assert len(out) == px.mesh.n_vertices
        pf = list(py.parent_face)
        for i, pv in enumerate(px.parent_vertex):
            f = int(full.faces[pv])
            if f in pf:
                assert out.faces[i] == pf.index(f)
                np.testing.assert_array_equal(out.weights[i], full.weights[pv])
            else:
                assert out.faces[i] == UNMATCHED

    def test_overlap_required_for_p2p_only(self):
        m = icosphere(1)
        gt = identity_correspondence(m)
        with pytest.raises(ValueError):
            MatchingInstance("partial_partial", m, m, gt, {}, None, {})


class TestRunGeneration:
    def test_writes_all_and_manifest(self, tmp_path):
        net, manifest, _ = toy_network()
        cfg = toy_config(setting="partial_partial")
        done = run_generation(cfg, net, manifest, tmp_path / "out")
        assert len(done) == 3
        listed = (tmp_path / "out" / "instances.manifest").read_text().split()
        assert listed == done
        for name in done:
            sx, sy, gt, meta = load_instance(tmp_path / "out" / name)
            assert meta["setting"] == "partial_partial"
            gt.validate_against(sx, sy)
            assert "overlap_x_to_y" in meta
        assert (tmp_path / "out" / "config.echo").exists()

    def test_idempotent_and_deterministic(self, tmp_path):
        net, manifest, _ = toy_network()
        cfg = toy_config(setting="partial_partial")
        run_generation(cfg, net, manifest, tmp_path / "a")
        d1 = digest_tree(tmp_path / "a")
        logs = []
        run_generation(cfg, net, manifest, tmp_path / "a", log=logs.append)
        assert digest_tree(tmp_path / "a") == d1
        assert sum("skip" in line for line in logs) == 3
        run_generation(cfg, net, manifest, tmp_path / "b")
        assert digest_tree(tmp_path / "b") == d1

    def test_interrupted_resume_matches(self, tmp_path):
        net, manifest, _ = toy_network()
        cfg = toy_config(setting="partial_full")
        run_generation(cfg, net, manifest, tmp_path / "full")
        run_generation(cfg, net, manifest, tmp_path / "resumed", limit=1)
        run_generation(cfg, net, manifest, tmp_path / "resumed")
        assert digest_tree(tmp_path / "resumed") == \
            digest_tree(tmp_path / "full")

    @pytest.mark.parametrize("limit", [0, -2])
    def test_limit_below_one_rejected(self, tmp_path, limit):
        """A negative limit sliced pairs off the end, and 0 wrote an empty
        manifest; both now fail before the tree is made."""
        net, manifest, _ = toy_network()
        with pytest.raises(ValueError, match="limit must be at least 1"):
            run_generation(toy_config(), net, manifest, tmp_path / "out",
                           limit=limit)
        assert not (tmp_path / "out").exists()

    def test_resume_refuses_another_config(self, tmp_path):
        """A tree made by one config is not topped up by another: the
        refusal names the first differing key and leaves the tree as it
        was; the same config with another limit resumes."""
        net, manifest, _ = toy_network()
        out = tmp_path / "out"
        cfg = toy_config(setting="partial_partial", global_seed=0)
        run_generation(cfg, net, manifest, out, limit=1)
        before = digest_tree(out)
        other = toy_config(setting="full_full", global_seed=5)
        with pytest.raises(ConfigError, match=re.escape(
                "made with setting='partial_partial', not 'full_full'; "
                "choose another --output")):
            run_generation(other, net, manifest, out)
        assert digest_tree(out) == before
        assert len(run_generation(cfg, net, manifest, out, limit=2)) == 2

    def test_config_made_with_lists_resumes_its_tree(self, tmp_path):
        """``datasets=["faust"]`` used to be refused by its own echo, which
        reads back ``('faust',)``."""
        net, manifest, _ = toy_network()
        out = tmp_path / "out"
        cfg = toy_config(datasets=["faust"], resolution=[48, 48])
        run_generation(cfg, net, manifest, out, limit=1)
        assert len(run_generation(cfg, net, manifest, out, limit=2)) == 2

    def test_run_killed_writing_its_echo_resumes(self, tmp_path,
                                                 monkeypatch):
        """The echo is renamed into place: a run killed while writing it
        leaves no torn echo for the resume to refuse."""
        net, manifest, _ = toy_network()
        out = tmp_path / "out"

        def killed(src, dst):
            raise KeyboardInterrupt
        with monkeypatch.context() as m:
            m.setattr(os, "replace", killed)
            with pytest.raises(KeyboardInterrupt):
                run_generation(toy_config(), net, manifest, out)
        assert not (out / "config.echo").exists()
        assert len(run_generation(toy_config(), net, manifest, out)) == 3
        assert not list(out.rglob("*.tmp*"))

    def test_killed_run_resumes_to_same_tree(self, tmp_path):
        """Torn cache entries and a leftover temp directory, as a run killed
        while writing instance 0 leaves them, are recovered on resume."""
        net, manifest, _ = toy_network()
        cfg = toy_config(setting="partial_partial")
        run_generation(cfg, net, manifest, tmp_path / "probe", limit=1)
        cache_files = [p.relative_to(tmp_path / "probe") for p in
                       sorted((tmp_path / "probe" / "cache").rglob("*"))
                       if p.is_file()]
        assert {p.suffix for p in cache_files} >= {".npy", ".ply", ".meta"}
        out = tmp_path / "out"
        run_generation(cfg, net, manifest, out)
        expected = digest_tree(out)
        for rel in cache_files:
            data = (out / rel).read_bytes()
            (out / rel).write_bytes(data[:len(data) // 2])
        shutil.rmtree(out / "train_000000")
        (out / "train_000000.tmp.4242").mkdir()
        (out / "train_000000.tmp.4242" / "x.ply").write_bytes(b"ply\n")
        logs = []
        run_generation(cfg, net, manifest, out, log=logs.append)
        assert not [line for line in logs if line.startswith("FAIL")]
        assert digest_tree(out) == expected

    # the first rename of each kind of write a P2P run with both caches
    # makes, told by its destination
    KILL_AT = {
        "echo": lambda dst: dst.name == "config.echo",
        "remesh_entry": lambda dst: dst.parent.name == "remesh"
        and not TEMP_NAME.fullmatch(dst.name),
        "raycast_entry": lambda dst: dst.parent.name == "raycast",
        "instance": lambda dst: dst.name.startswith("train_"),
        "manifest": lambda dst: dst.name == "instances.manifest",
    }

    @pytest.mark.parametrize("kind", sorted(KILL_AT))
    def test_kill_at_each_kind_of_write_resumes_to_clean_tree(
            self, tmp_path, monkeypatch, kind):
        """A run killed at the first rename of one kind of write resumes
        to the tree of a run never killed, and no temp name remains."""
        net, manifest, _ = toy_network()
        cfg = toy_config(setting="partial_partial")
        run_generation(cfg, net, manifest, tmp_path / "clean")
        out = tmp_path / "out"
        real = os.replace

        def replace(src, dst):
            if self.KILL_AT[kind](Path(dst)):
                raise KeyboardInterrupt
            real(src, dst)
        with monkeypatch.context() as m:
            m.setattr(os, "replace", replace)
            with pytest.raises(KeyboardInterrupt):
                run_generation(cfg, net, manifest, out)
        run_generation(cfg, net, manifest, out)
        assert digest_tree(out) == digest_tree(tmp_path / "clean")
        assert not [p for p in out.rglob("*") if TEMP_NAME.fullmatch(p.name)]

    def test_resume_keeps_files_that_are_not_its_temps(self, tmp_path):
        """The resume's sweep used to delete every name holding ``.tmp``,
        a user's ``results.tmp.csv`` and ``notes/plan.tmpl`` among them."""
        net, manifest, _ = toy_network()
        out = tmp_path / "out"
        run_generation(toy_config(), net, manifest, out, limit=1)
        (out / "notes").mkdir()
        kept = {out / "results.tmp.csv": "a,b\n",
                out / "notes" / "plan.tmpl": "plan\n"}
        for path, text in kept.items():
            path.write_text(text)
        run_generation(toy_config(), net, manifest, out)
        assert {p: p.read_text() for p in kept} == kept

    def test_store_vis_emits_colored_plys(self, tmp_path):
        net, manifest, _ = toy_network()
        cfg = toy_config(store_vis=True)
        done = run_generation(cfg, net, manifest, tmp_path / "out", limit=1)
        inst_dir = tmp_path / "out" / done[0]
        assert (inst_dir / "vis_x.ply").exists()
        assert (inst_dir / "vis_y.ply").exists()
