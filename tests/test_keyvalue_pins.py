"""Pinned bytes of the key=value files the program writes: an instance's
report.txt, evaluate's summary.txt, a remesh-cache .meta entry and
config.echo. Criterion 9 pins whole generation trees; these pins cover the
files that only evaluation and the cache write, and a config far from the
defaults."""

import hashlib

import numpy as np

from shapecorr import geometry as geo
from shapecorr import metrics
from shapecorr.cli import main
from shapecorr.config import GenerationConfig
from shapecorr.corrio import save_correspondence
from shapecorr.decimate import RemeshCache, remesh_with_correspondence
from shapecorr.meshes import DenseCorrespondence, UNMATCHED
from shapecorr.meshio import save_mesh
from shapecorr.metrics import evaluate_instance, write_report

from conftest import full_matrix_geodesic_error, require_golden_build
from shapes import bumpy_sphere, icosphere

# sha256 of each file's bytes, measured on shapes.GOLDEN_BUILD
PINS = {
    "report_f2f":
        "e7f1d9991b58c7b2c451eb0e7bf49d3228cebf9d1da1a939ffd13d238c5fcd46",
    "report_p2p_labels":
        "b6fee254b4bafc9a0d26a8c0dfa4650d5ed45a2a35ed91dcdd190b4c90debfd9",
    "summary":
        "e568582ba6421bec938d0521ab1d317c2212c54b30afcd67c3ca421469b473f5",
    "remesh_meta":
        "ec16846257943fc5d94542774d5812aecbc355d36eeed8b360bcfbb6778f6d63",
    "config_echo":
        "f9d46fb5decb7a69a60568bbffb4e4b5f4334d8807a9a2d45d0907ab375949da",
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _ground_truth(mesh, rng, unmatched_frac):
    n = mesh.n_vertices
    faces = rng.integers(0, mesh.n_faces, size=n)
    weights = rng.dirichlet(np.ones(3), size=n)
    drop = rng.random(n) < unmatched_frac
    faces[drop] = UNMATCHED
    weights[drop] = 0.0
    return DenseCorrespondence("src", mesh.id, faces, weights)


def _cases():
    """(setting, target mesh, ground truth, prediction): an F2F and a P2P
    case whose predictions are the snapped ground truth shifted by one row,
    so that errors need Dijkstra and P2P overlaps disagree."""
    mesh = icosphere(2)
    rng = np.random.default_rng(17)
    out = []
    for setting, frac in (("full_full", 0.0), ("partial_partial", 0.2)):
        gt = _ground_truth(mesh, rng, frac)
        pred = geo.snap_correspondence_to_vertices(gt, mesh)
        out.append((setting, mesh, gt, np.roll(pred, 1)))
    return out


def test_report_bytes_pinned(tmp_path):
    require_golden_build()
    (f2f, p2p) = _cases()
    setting, mesh, gt, pred = f2f
    write_report(evaluate_instance(mesh, gt, pred, setting,
                                   geo.surface_area(mesh)), tmp_path / "f2f")
    setting, mesh, gt, pred = p2p
    labels = np.random.default_rng(5).integers(0, 2, size=(2, len(gt)))
    rep = evaluate_instance(mesh, gt, pred, setting, geo.surface_area(mesh),
                            pred_labels=labels[0], gt_labels=labels[1])
    assert None not in (rep.iou, rep.f1, rep.lr_accuracy)
    write_report(rep, tmp_path / "p2p")
    assert sha256(tmp_path / "f2f" / "report.txt") == PINS["report_f2f"]
    assert sha256(tmp_path / "p2p" / "report.txt") == \
        PINS["report_p2p_labels"]


def test_summary_bytes_pinned(tmp_path):
    """summary.txt of ``evaluate`` over the two cases written as instance
    directories."""
    require_golden_build()
    inst, preds = tmp_path / "inst", tmp_path / "preds"
    preds.mkdir()
    names = []
    for i, (setting, mesh, gt, pred) in enumerate(_cases()):
        name = f"test_{i:06d}"
        d = inst / name
        d.mkdir(parents=True)
        save_mesh(mesh, d / "y.ply")
        save_correspondence(gt, d / "gt.corr")
        (d / "meta.txt").write_text(
            f"setting={setting}\narea_full_y={geo.surface_area(mesh)!r}\n")
        (preds / f"{name}.txt").write_text(
            "\n".join(str(v) for v in pred) + "\n")
        names.append(name)
    (inst / "instances.manifest").write_text("\n".join(names) + "\n")
    out = tmp_path / "eval"
    assert main(["evaluate", "--instances", str(inst), "--predictions",
                 str(preds), "--output", str(out)]) == 0
    assert sha256(out / "summary.txt") == PINS["summary"]


def test_evaluation_pins_hold_with_reference_geodesics(tmp_path,
                                                      monkeypatch):
    """The report and summary pins hold with ``metrics.geodesic_error``
    swapped for the full-matrix Dijkstra reference: the chunked,
    chord-bounded searches give its errors over whole files."""
    calls = []

    def reference(*args):
        calls.append(args[-1])
        return full_matrix_geodesic_error(*args)

    monkeypatch.setattr(metrics, "geodesic_error", reference)
    for name in ("report", "summary"):
        (tmp_path / name).mkdir()
    test_report_bytes_pinned(tmp_path / "report")
    test_summary_bytes_pinned(tmp_path / "summary")
    assert calls == ["full_full", "partial_partial"] * 2


def test_remesh_cache_meta_bytes_pinned(tmp_path):
    require_golden_build()
    cache = RemeshCache(tmp_path / "remesh")
    remesh_with_correspondence(bumpy_sphere(2), (100, 120),
                               np.random.default_rng(3), cache=cache)
    (meta,) = (tmp_path / "remesh").glob("*.meta")
    assert sha256(meta) == PINS["remesh_meta"]


def test_config_echo_bytes_pinned(tmp_path):
    cfg = GenerationConfig(
        datasets=("faust", "tosca"), combinations="human",
        setting="partial_full", remesh=False, store_vis=True,
        use_precompute_remeshing=False, one_axis_rotation=False,
        n_cam_pos=4, min_overlap=0.25, max_overlap=0.875, global_seed=11,
        resolution=(128, 96), count_range=(500, 800), split="val",
        normalize_area=True)
    cfg.to_file(tmp_path / "out" / "config.echo")
    assert sha256(tmp_path / "out" / "config.echo") == PINS["config_echo"]
