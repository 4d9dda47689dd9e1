import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from shapecorr import cli
from shapecorr.cli import main
from shapecorr.corrio import load_correspondence, save_correspondence
from shapecorr.meshes import DenseCorrespondence, Mesh, identity_correspondence
from shapecorr.meshio import load_mesh, save_mesh
from shapecorr.geometry import snap_correspondence_to_vertices
from shapecorr.pipeline import _remove_temporaries, load_instance
from shapecorr.textio import TEMP_NAME

from conftest import digest_tree, icosphere, random_rigid


@pytest.fixture
def workspace(tmp_path):
    """On-disk network + split manifest + config for three sphere shapes."""
    base = icosphere(2)
    rng = np.random.default_rng(7)
    ids = [f"faust:{i:04d}" for i in range(3)]
    ic = identity_correspondence(base)
    net_lines = ["dataset faust type=synthetic"]
    for i, sid in enumerate(ids):
        T = random_rigid(rng)
        m = Mesh(T.apply(base.vertices), base.faces, id=sid)
        save_mesh(m, tmp_path / f"s{i}.ply")
        tmpl = " template=true" if i == 0 else ""
        net_lines.append(f"shape {sid} dataset=faust mesh=s{i}.ply{tmpl}")
    for i in range(2):
        a, b = ids[i], ids[i + 1]
        save_correspondence(DenseCorrespondence(a, b, ic.faces, ic.weights),
                            tmp_path / f"e{i}f.corr")
        save_correspondence(DenseCorrespondence(b, a, ic.faces, ic.weights),
                            tmp_path / f"e{i}b.corr")
        net_lines.append(f"edge {a} {b} forward=e{i}f.corr backward=e{i}b.corr")
    labels = (base.vertices[:, 0] > 0).astype(int)
    (tmp_path / "s0.labels").write_text(
        "\n".join(str(v) for v in labels) + "\n")
    net_lines.append(f"annotation {ids[0]} labels=s0.labels")
    (tmp_path / "network.manifest").write_text("\n".join(net_lines) + "\n")

    split_lines = [f"shape {sid} dataset=faust category=faust:c type=human"
                   for sid in ids]
    split_lines += [f"pair train {ids[0]} {ids[1]}",
                    f"pair train {ids[1]} {ids[2]}"]
    (tmp_path / "split.manifest").write_text("\n".join(split_lines) + "\n")

    (tmp_path / "run.cfg").write_text("\n".join([
        "datasets=faust", "setting=full_full", "remesh=false",
        "one_axis_rotation=false", "resolution=32x32", "global_seed=3",
    ]) + "\n")
    return tmp_path, ids


def gen_args(ws, out, extra=()):
    return ["generate", "--config", str(ws / "run.cfg"),
            "--network", str(ws / "network.manifest"),
            "--split-manifest", str(ws / "split.manifest"),
            "--output", str(out), *extra]


class TestGenerate:
    def test_deterministic_trees(self, workspace):
        ws, _ = workspace
        assert main(gen_args(ws, ws / "out1")) == 0
        assert main(gen_args(ws, ws / "out2")) == 0
        assert digest_tree(ws / "out1") == digest_tree(ws / "out2")
        assert (ws / "out1" / "config.echo").exists()

    def test_failed_instance_exit_1(self, workspace, capsys):
        ws, ids = workspace
        # a fourth shape with no edges: no network path reaches it
        with open(ws / "network.manifest", "a") as fh:
            fh.write("shape faust:0003 dataset=faust mesh=s0.ply\n")
        with open(ws / "split.manifest", "a") as fh:
            fh.write("shape faust:0003 dataset=faust category=faust:c "
                     "type=human\n")
            fh.write(f"pair train {ids[0]} faust:0003\n")
        assert main(gen_args(ws, ws / "out")) == 1
        assert "FAIL train_000002" in capsys.readouterr().out
        listed = (ws / "out" / "instances.manifest").read_text().split()
        assert listed == ["train_000000", "train_000001"]
        assert main(gen_args(ws, ws / "out", extra=["--limit", "2"])) == 0

    def test_seed_changes_output(self, workspace):
        ws, _ = workspace
        cfg2 = ws / "rot.cfg"
        cfg2.write_text((ws / "run.cfg").read_text().replace(
            "one_axis_rotation=false", "one_axis_rotation=true"))
        args = gen_args(ws, ws / "o1")
        args[2] = str(cfg2)
        assert main(args + ["--seed", "1"]) == 0
        args2 = gen_args(ws, ws / "o2")
        args2[2] = str(cfg2)
        assert main(args2 + ["--seed", "2"]) == 0
        assert digest_tree(ws / "o1") != digest_tree(ws / "o2")

    def test_unknown_key_exit_2(self, workspace, capsys):
        ws, _ = workspace
        code = main(gen_args(ws, ws / "out", extra=["--set", "frobnicate=1"]))
        assert code == 2
        out = capsys.readouterr().out
        assert "frobnicate" in out and "min_overlap" in out

    @pytest.mark.parametrize("override,expected", [
        ("n_cam_pos=abc", "n_cam_pos: expected int"),
        ("resolution=32", "resolution: expected WIDTHxHEIGHT"),
        ("count_range=5", "count_range: expected LOW-HIGH"),
    ])
    def test_malformed_value_exit_2(self, workspace, capsys, override,
                                    expected):
        ws, _ = workspace
        code = main(gen_args(ws, ws / "out", extra=["--set", override]))
        assert code == 2
        out = capsys.readouterr().out
        assert "config error: " + expected in out

    def test_set_strips_key_and_value(self, workspace):
        """``--set`` reads a pair as a config file line does."""
        ws, _ = workspace
        assert main(gen_args(ws, ws / "out",
                             extra=["--set", " global_seed = 5 "])) == 0
        assert "global_seed=5\n" in (ws / "out" / "config.echo").read_text()

    def test_resume_with_another_config_exit_2(self, workspace, capsys):
        ws, _ = workspace
        assert main(gen_args(ws, ws / "out", extra=["--limit", "1"])) == 0
        before = digest_tree(ws / "out")
        capsys.readouterr()
        assert main(gen_args(ws, ws / "out", extra=["--seed", "4"])) == 2
        out = capsys.readouterr().out
        assert "global_seed=3, not 4; choose another --output" in out
        assert digest_tree(ws / "out") == before

    @pytest.mark.parametrize("seed", [2**63, -2**63 - 1])
    def test_seed_outside_int64_exit_2(self, workspace, capsys, seed):
        """Such a seed used to be echoed, then fail every instance, and
        the echo refused the resume with a valid seed."""
        ws, _ = workspace
        assert main(gen_args(ws, ws / "out", extra=["--seed", str(seed)])) \
            == 2
        assert "outside the signed 64-bit range" in capsys.readouterr().out
        assert not (ws / "out").exists()
        assert main(gen_args(ws, ws / "out", extra=["--limit", "1"])) == 0

    def test_rerun_from_echoed_config(self, workspace):
        ws, _ = workspace
        assert main(gen_args(ws, ws / "a")) == 0
        args = gen_args(ws, ws / "b")
        args[2] = str(ws / "a" / "config.echo")
        assert main(args) == 0
        # instance payloads identical (echo file itself lists same values)
        names = (ws / "a" / "instances.manifest").read_text().split()
        for n in names:
            assert digest_tree(ws / "a" / n) == digest_tree(ws / "b" / n)


class TestLimit:
    def eval_args(self, ws, limit):
        return ["evaluate", "--instances", str(ws / "out"), "--predictions",
                str(ws / "preds"), "--output", str(ws / f"eval{limit}"),
                "--limit", limit]

    def test_below_one_is_a_usage_error(self, workspace):
        """A negative limit used to drop instances from the end, and
        ``evaluate --limit 0`` scored every instance."""
        ws, _ = workspace
        assert main(gen_args(ws, ws / "out")) == 0
        write_gt_predictions(
            ws, (ws / "out" / "instances.manifest").read_text().split())
        for limit in ("-1", "0"):
            assert main(gen_args(ws, ws / f"gen{limit}",
                                 extra=["--limit", limit])) == 2
            assert not (ws / f"gen{limit}").exists()
            assert main(self.eval_args(ws, limit)) == 2
            assert not (ws / f"eval{limit}").exists()

    def test_first_n(self, workspace):
        ws, _ = workspace
        assert main(gen_args(ws, ws / "out", extra=["--limit", "1"])) == 0
        assert (ws / "out" / "instances.manifest").read_text().split() == \
            ["train_000000"]
        assert main(gen_args(ws, ws / "out", extra=["--limit", "2"])) == 0
        names = (ws / "out" / "instances.manifest").read_text().split()
        assert names == ["train_000000", "train_000001"]
        write_gt_predictions(ws, names)
        for limit in ("1", "2"):
            assert main(self.eval_args(ws, limit)) == 0
            summary = (ws / f"eval{limit}" / "summary.txt").read_text()
            assert f"n_instances={limit}\n" in summary


def write_gt_predictions(ws, names):
    """Ground truth as prediction files for the named instances."""
    pred_dir = ws / "preds"
    pred_dir.mkdir()
    for n in names:
        _, shape_y, gt, _ = load_instance(ws / "out" / n)
        pred = snap_correspondence_to_vertices(gt, shape_y)
        (pred_dir / f"{n}.txt").write_text(
            "\n".join(str(int(v)) for v in pred) + "\n")
    return pred_dir


class TestEvaluate:
    def test_gt_predictions_score_100(self, workspace, capsys):
        ws, _ = workspace
        assert main(gen_args(ws, ws / "out")) == 0
        names = (ws / "out" / "instances.manifest").read_text().split()
        pred_dir = write_gt_predictions(ws, names)
        code = main(["evaluate", "--instances", str(ws / "out"),
                     "--predictions", str(pred_dir),
                     "--output", str(ws / "eval")])
        assert code == 0
        summary = (ws / "eval" / "summary.txt").read_text()
        assert "mean_auc=100.0" in summary
        for n in names:
            assert (ws / "eval" / n / "curve.txt").exists()

    def test_missing_prediction_exit_1(self, workspace, capsys):
        ws, _ = workspace
        assert main(gen_args(ws, ws / "out")) == 0
        names = (ws / "out" / "instances.manifest").read_text().split()
        assert len(names) > 1
        pred_dir = write_gt_predictions(ws, names[1:])
        capsys.readouterr()
        code = main(["evaluate", "--instances", str(ws / "out"),
                     "--predictions", str(pred_dir),
                     "--output", str(ws / "eval")])
        assert code == 1
        out = capsys.readouterr().out.splitlines()
        assert f"SKIP {names[0]}:" in "\n".join(out)
        assert out[-1].endswith(" n_skipped=1")
        assert "n_skipped" not in (ws / "eval" / "summary.txt").read_text()
        assert not (ws / "eval" / names[0]).exists()
        for n in names[1:]:
            assert (ws / "eval" / n / "curve.txt").exists()

    def test_every_temp_is_one_the_sweep_removes(self, workspace,
                                                 monkeypatch):
        """Every temp that a P2P run with both caches and an ``evaluate``
        run rename into place has a name the resume sweep matches, and
        the sweep removes a leftover of each, file or directory."""
        ws, _ = workspace
        temps = {}
        real = os.replace

        def replace(src, dst):
            temps[Path(src)] = Path(src).is_dir()
            real(src, dst)
        monkeypatch.setattr(os, "replace", replace)
        assert main(gen_args(ws, ws / "out", [
            "--set", "setting=partial_partial", "--set", "remesh=true",
            "--set", "count_range=80-120", "--set", "resolution=48x48"])) == 0
        names = (ws / "out" / "instances.manifest").read_text().split()
        assert main(["evaluate", "--instances", str(ws / "out"),
                     "--predictions", str(write_gt_predictions(ws, names)),
                     "--output", str(ws / "eval")]) == 0
        finals = {p.name.replace(f".tmp.{os.getpid()}", "") for p in temps}
        assert {"config.echo", "instances.manifest", names[0], "meta.txt",
                "report.txt", "curve.txt", "summary.txt"} <= finals
        assert {".ply", ".corr", ".meta", ".npy"} <= {
            Path(n).suffix for n in finals}
        assert [p for p in temps if not TEMP_NAME.fullmatch(p.name)] == []
        for path, is_dir in sorted(temps.items()):
            if is_dir:
                path.mkdir(parents=True)
            else:
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(b"torn")
        _remove_temporaries(ws)
        assert [p for p in temps if p.exists()] == []

    @pytest.mark.parametrize("bad", ["garbled", "short", "below_unmatched",
                                     "out_of_range"])
    def test_malformed_prediction_skipped(self, workspace, capsys, bad):
        ws, _ = workspace
        assert main(gen_args(ws, ws / "out")) == 0
        names = (ws / "out" / "instances.manifest").read_text().split()
        pred_dir = write_gt_predictions(ws, names)
        path = pred_dir / f"{names[0]}.txt"
        lines = path.read_text().splitlines()
        if bad == "garbled":
            lines[5] = "12x"
        elif bad == "short":
            lines = lines[:-1]
        elif bad == "below_unmatched":
            lines[5] = "-2"
        else:
            lines[5] = "100000"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["evaluate", "--instances", str(ws / "out"),
                     "--predictions", str(pred_dir),
                     "--output", str(ws / "eval")])
        assert code == 1
        out = capsys.readouterr().out.splitlines()
        assert f"SKIP {names[0]}: bad prediction file" in "\n".join(out)
        assert out[-1].endswith(" n_skipped=1")
        assert not (ws / "eval" / names[0]).exists()
        for n in names[1:]:
            assert (ws / "eval" / n / "curve.txt").exists()

    def test_unreadable_instance_skipped(self, workspace, capsys):
        ws, _ = workspace
        assert main(gen_args(ws, ws / "out")) == 0
        names = (ws / "out" / "instances.manifest").read_text().split()
        pred_dir = write_gt_predictions(ws, names)

        def truncate(path):
            path.write_bytes(path.read_bytes()[:-7])

        def drop_setting(path):
            path.write_text("".join(
                line for line in path.read_text().splitlines(keepends=True)
                if not line.startswith("setting=")))

        def misspell_setting(path):
            path.write_text("".join(
                "setting=partial-partial\n" if line.startswith("setting=")
                else line
                for line in path.read_text().splitlines(keepends=True)))

        def face_beyond_y(path):
            gt = load_correspondence(path)
            faces = gt.faces.copy()
            faces[0] = load_mesh(path.parent / "y.ply").n_faces
            save_correspondence(DenseCorrespondence(
                gt.source_id, gt.target_id, faces, gt.weights), path)

        def meta_line(line):
            """Put ``line`` second in meta.txt, in place of the area."""
            def damage(path):
                lines = [ln for ln in path.read_text().splitlines()
                         if not ln.startswith("area_full_y=")]
                lines.insert(1, line)
                path.write_text("\n".join(lines) + "\n")
            return damage

        # evaluate reads y.ply, gt.corr and meta.txt; x.ply is not scored.
        # A non-finite area would score AUC 100, an unknown setting as F2F;
        # a line without "=" is named by file and line.
        cases = [("y.ply", truncate, True, ""),
                 ("meta.txt", drop_setting, True, ""),
                 ("meta.txt", misspell_setting, True,
                  "setting 'partial-partial' not in"),
                 ("gt.corr", face_beyond_y, True, ""),
                 ("x.ply", truncate, False, ""),
                 ("meta.txt", meta_line("area_full_y=nan"), True,
                  "target area nan"),
                 ("meta.txt", meta_line("area_full_y=inf"), True,
                  "target area inf"),
                 ("meta.txt", meta_line("no equals sign"), True,
                  "meta.txt:2: expected key=value")]
        for i, (file, damage, skipped, reason) in enumerate(cases):
            inst, ev = ws / f"out{i}", ws / f"eval{i}"
            shutil.copytree(ws / "out", inst)
            damage(inst / names[0] / file)
            capsys.readouterr()
            code = main(["evaluate", "--instances", str(inst),
                         "--predictions", str(pred_dir),
                         "--output", str(ev)])
            out = capsys.readouterr().out.splitlines()
            assert (ev / "summary.txt").exists(), file
            for n in names[1:]:
                assert (ev / n / "curve.txt").exists()
            if not skipped:
                assert code == 0
                assert (ev / names[0] / "curve.txt").exists()
                continue
            assert code == 1, file
            skip = f"SKIP {names[0]}: unreadable instance: "
            assert any(skip in ln and reason in ln for ln in out), out
            assert out[-1].endswith(" n_skipped=1")
            assert not (ev / names[0]).exists()

    def test_no_predictions_exit_1(self, workspace):
        ws, _ = workspace
        assert main(gen_args(ws, ws / "out")) == 0
        empty = ws / "nopreds"
        empty.mkdir()
        code = main(["evaluate", "--instances", str(ws / "out"),
                     "--predictions", str(empty),
                     "--output", str(ws / "eval")])
        assert code == 1


# Generates F2F (with remeshing) and P2P instances in a fresh interpreter,
# then evaluates them: generation must not load scipy.sparse, evaluation
# must load it on first use and still score. The predictions are the ground
# truth shifted by one row, so that evaluation needs Dijkstra.
NUMPY_ONLY_GENERATION = """
import sys
from pathlib import Path

import numpy as np

import shapecorr
from shapecorr import cli
from shapecorr.cli import main
from shapecorr.geometry import snap_correspondence_to_vertices
from shapecorr.pipeline import load_instance

ws = Path(sys.argv[1])
common = ["--config", str(ws / "run.cfg"),
          "--network", str(ws / "network.manifest"),
          "--split-manifest", str(ws / "split.manifest")]
runs = {"f2f": ["--set", "remesh=true", "--set", "count_range=80-120"],
        "p2p": ["--set", "setting=partial_partial"]}
for out, extra in runs.items():
    assert main(["generate", *common, "--output", str(ws / out), *extra]) == 0
print("after generation", "scipy.sparse" in sys.modules)
for out in runs:
    names = (ws / out / "instances.manifest").read_text().split()
    preds = ws / (out + "_preds")
    preds.mkdir()
    for n in names:
        _, shape_y, gt, _ = load_instance(ws / out / n)
        pred = np.roll(snap_correspondence_to_vertices(gt, shape_y), 1)
        (preds / (n + ".txt")).write_text(
            "\\n".join(str(int(v)) for v in pred) + "\\n")
    assert main(["evaluate", "--instances", str(ws / out), "--predictions",
                 str(preds), "--output", str(ws / (out + "_eval"))]) == 0
print("after evaluation", "scipy.sparse" in sys.modules)
"""


def test_generation_runs_without_scipy(workspace):
    """The pytest process has imported scipy already, so this runs in a
    subprocess."""
    ws, _ = workspace
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run([sys.executable, "-c", NUMPY_ONLY_GENERATION,
                           str(ws)], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "after generation False" in lines
    assert "after evaluation True" in lines
    for out in ("f2f", "p2p"):
        assert len((ws / out / "instances.manifest").read_text().split()) == 2
        summary = (ws / (out + "_eval") / "summary.txt").read_text()
        auc = float(summary.split("mean_auc=")[1].split()[0])
        assert 0.0 < auc < 100.0


class TestOtherCommands:
    def test_validate_network_ok(self, workspace, capsys):
        ws, _ = workspace
        code = main(["validate-network", "--network",
                     str(ws / "network.manifest")])
        assert code == 0
        assert "templates_connected=True" in capsys.readouterr().out

    def test_validate_network_missing_file(self, workspace):
        ws, _ = workspace
        (ws / "e0f.corr").unlink()
        assert main(["validate-network", "--network",
                     str(ws / "network.manifest")]) == 1

    @pytest.mark.parametrize("name,text", [
        ("e0b.corr", None), ("s0.labels", "0\nleft\n")])
    def test_validate_network_bad_file(self, workspace, capsys, name,
                                       text):
        """A truncated edge file or a malformed labels file used to end
        the command in a traceback."""
        ws, _ = workspace
        path = ws / name
        if text is None:
            path.write_bytes(path.read_bytes()[:-7])
        else:
            path.write_text(text)
        assert main(["validate-network", "--network",
                     str(ws / "network.manifest")]) == 1
        out = capsys.readouterr().out
        assert "network invalid: " in out and name in out

    @pytest.mark.parametrize("command", ["validate-network", "generate"])
    def test_unreadable_node_mesh(self, workspace, capsys, command):
        """A node mesh that cannot be read, on an annotated node without
        edges, used to end both commands in a traceback."""
        ws, ids = workspace
        path = ws / "s0.ply"
        path.write_bytes(path.read_bytes()[:-7])
        (ws / "network.manifest").write_text(
            "dataset faust type=synthetic\n"
            f"shape {ids[0]} dataset=faust mesh=s0.ply\n"
            f"annotation {ids[0]} labels=s0.labels\n")
        if command == "generate":
            args, said = gen_args(ws, ws / "out"), "validation error: "
        else:
            args = [command, "--network", str(ws / "network.manifest")]
            said = "network invalid: "
        assert main(args) == 1
        out = capsys.readouterr().out
        assert f"{said}shape {ids[0]}: {path}: " in out

    def test_validate_network_non_finite_weight(self, workspace, capsys):
        """A NaN weight on a matched row of an edge file used to load, and
        compose read that vertex as unmatched."""
        ws, _ = workspace
        path = ws / "e0b.corr"
        raw = bytearray(path.read_bytes())
        n = icosphere(2).n_vertices
        w0 = len(raw) - 28 * n + 4  # weight 0 of record 0
        raw[w0:w0 + 8] = np.float64(np.nan).tobytes()
        path.write_bytes(bytes(raw))
        assert main(["validate-network", "--network",
                     str(ws / "network.manifest")]) == 1
        out = capsys.readouterr().out
        assert "non-finite barycentric weight" in out and "e0b.corr" in out

    def test_validate_network_bytes_past_the_records(self, workspace,
                                                     capsys):
        ws, _ = workspace
        path = ws / "e0b.corr"
        path.write_bytes(path.read_bytes() + bytes(28))
        assert main(["validate-network", "--network",
                     str(ws / "network.manifest")]) == 1
        assert "e0b.corr: bytes past the" in capsys.readouterr().out

    def test_generate_text_edge_file_with_a_duplicated_record(self, workspace,
                                                              capsys):
        """A text edge file whose header count is one short of its records
        used to load its first rows and drop the last."""
        ws, _ = workspace
        corr = load_correspondence(ws / "e1f.corr")
        rows = [f"{f} {w[0]!r} {w[1]!r} {w[2]!r}\n" for f, w in
                zip(corr.faces.tolist(), corr.weights.tolist())]
        (ws / "e1f.corr").write_text(
            f"corr {corr.source_id} {corr.target_id} {len(rows)}\n"
            + rows[0] + "".join(rows))
        assert main(gen_args(ws, ws / "out")) == 1
        n = len(rows)
        assert f"e1f.corr: expected {n} records, got {n + 1}" in \
            capsys.readouterr().out

    def test_generate_bad_edge_file(self, workspace, capsys):
        ws, _ = workspace
        path = ws / "e1f.corr"
        path.write_bytes(path.read_bytes()[:-7])
        assert main(gen_args(ws, ws / "out")) == 1
        assert "e1f.corr: truncated" in capsys.readouterr().out

    def test_propagate_annotations(self, workspace):
        ws, ids = workspace
        code = main(["propagate-annotations", "--network",
                     str(ws / "network.manifest"),
                     "--output", str(ws / "ann"), ids[2]])
        assert code == 0
        out = (ws / "ann" / "faust_0002.labels").read_text().split()
        src = (ws / "s0.labels").read_text().split()
        assert out == src  # identity chain copies labels exactly

    def test_propagate_stores_correspondence(self, workspace):
        ws, ids = workspace
        assert main(["propagate-annotations", "--network",
                     str(ws / "network.manifest"), "--output",
                     str(ws / "ann"), "--store-correspondence", ids[2]]) == 0
        corr = load_correspondence(ws / "ann" / "faust_0002.corr")
        assert (corr.source_id, corr.target_id) == (ids[2], ids[0])
        assert sorted(p.name for p in (ws / "ann").iterdir()) == [
            "faust_0002.corr", "faust_0002.labels"]

    def test_propagate_failed_correspondence_write_leaves_no_temp(
            self, workspace, monkeypatch):
        """A ``.corr`` write that raised used to leave ``<stem>.corr.tmp``
        behind; the previous file stays whole."""
        ws, ids = workspace
        argv = ["propagate-annotations", "--network",
                str(ws / "network.manifest"), "--output", str(ws / "ann"),
                "--store-correspondence", ids[2]]
        assert main(argv) == 0
        before = (ws / "ann" / "faust_0002.corr").read_bytes()

        def torn(corr, path):
            path.write_bytes(b"DCOR")
            raise OSError("disk full")
        monkeypatch.setattr(cli, "save_correspondence", torn)
        with pytest.raises(OSError, match="disk full"):
            main(argv)
        assert sorted(p.name for p in (ws / "ann").iterdir()) == [
            "faust_0002.corr", "faust_0002.labels"]
        assert (ws / "ann" / "faust_0002.corr").read_bytes() == before

    def test_propagate_colliding_file_names_exit_2(self, workspace, capsys):
        """``faust:0001`` and ``faust_0001`` both name ``faust_0001.labels``;
        the second used to overwrite the first."""
        ws, ids = workspace
        ic = identity_correspondence(icosphere(2))
        for a, b, name in ((ids[0], "faust_0001", "xf.corr"),
                           ("faust_0001", ids[0], "xb.corr")):
            save_correspondence(
                DenseCorrespondence(a, b, ic.faces, ic.weights), ws / name)
        with open(ws / "network.manifest", "a") as fh:
            fh.write("shape faust_0001 dataset=faust mesh=s1.ply\n"
                     f"edge {ids[0]} faust_0001 forward=xf.corr "
                     "backward=xb.corr\n")
        assert main(["propagate-annotations", "--network",
                     str(ws / "network.manifest"), "--output",
                     str(ws / "ann"), ids[2], ids[1], "faust_0001"]) == 2
        out = capsys.readouterr().out
        assert "'faust:0001' and 'faust_0001'" in out
        assert "faust_0001.labels" in out
        assert not (ws / "ann").exists()
        # the same id twice names one file, and is no collision
        assert main(["propagate-annotations", "--network",
                     str(ws / "network.manifest"), "--output",
                     str(ws / "ann"), "faust_0001", "faust_0001"]) == 0

    def test_inspect(self, workspace, capsys):
        ws, _ = workspace
        assert main(gen_args(ws, ws / "out")) == 0
        name = (ws / "out" / "instances.manifest").read_text().split()[0]
        assert main(["inspect", str(ws / "out" / name)]) == 0
        assert "setting=full_full" in capsys.readouterr().out
        assert main(["inspect", str(ws / "nothere")]) == 1

    def test_usage_errors_exit_2(self):
        assert main([]) == 2
        assert main(["generate"]) == 2  # missing required --output
