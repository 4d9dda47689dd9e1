import numpy as np
import pytest

from shapecorr.cli import main
from shapecorr.corrio import save_correspondence
from shapecorr.meshes import DenseCorrespondence, Mesh, identity_correspondence
from shapecorr.meshio import save_mesh
from shapecorr.metrics import gt_as_prediction
from shapecorr.pipeline import load_instance

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


def write_gt_predictions(ws, names):
    """Ground truth as prediction files for the named instances."""
    pred_dir = ws / "preds"
    pred_dir.mkdir()
    for n in names:
        _, shape_y, gt, _ = load_instance(ws / "out" / n)
        pred = gt_as_prediction(gt, shape_y)
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
        x = ws / "out" / names[0] / "x.ply"
        x.write_bytes(x.read_bytes()[:-7])
        capsys.readouterr()
        code = main(["evaluate", "--instances", str(ws / "out"),
                     "--predictions", str(pred_dir),
                     "--output", str(ws / "eval")])
        assert code == 1
        out = capsys.readouterr().out.splitlines()
        assert f"SKIP {names[0]}: unreadable instance" in "\n".join(out)
        assert out[-1].endswith(" n_skipped=1")
        assert (ws / "eval" / "summary.txt").exists()
        assert not (ws / "eval" / names[0]).exists()
        for n in names[1:]:
            assert (ws / "eval" / n / "curve.txt").exists()

    def test_no_predictions_exit_1(self, workspace):
        ws, _ = workspace
        assert main(gen_args(ws, ws / "out")) == 0
        empty = ws / "nopreds"
        empty.mkdir()
        code = main(["evaluate", "--instances", str(ws / "out"),
                     "--predictions", str(empty),
                     "--output", str(ws / "eval")])
        assert code == 1


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

    def test_propagate_annotations(self, workspace):
        ws, ids = workspace
        code = main(["propagate-annotations", "--network",
                     str(ws / "network.manifest"),
                     "--output", str(ws / "ann"), ids[2]])
        assert code == 0
        out = (ws / "ann" / "faust_0002.labels").read_text().split()
        src = (ws / "s0.labels").read_text().split()
        assert out == src  # identity chain copies labels exactly

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
