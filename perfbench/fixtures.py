"""Seeded on-disk inputs for the benchmark workloads.

Every input is written by this module's own PLY / .corr writers, so the
inputs stay fixed while the program's readers and writers change. All
shapes of one network are radial perturbations of the same icosphere, which
makes vertex ``i`` of one shape correspond to vertex ``i`` of every other
shape: the stored edges are identity-index maps.

Fixtures are cached under ``perfbench/_work/fixtures/<key>``, keyed by the
workload, the seed and the sizes; a directory is renamed into place only
when complete. Writing them is never timed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import struct
import tempfile
from pathlib import Path

import numpy as np

WORK_DIR = Path(__file__).resolve().parent / "_work"

# Shared by the fixture writer and the run so cached fixtures are keyed by
# everything they depend on.
P2P_TRAIN = {"level": 2, "faust": 4, "scape": 6}
F2F_HEAVY = {"level": 3, "shapes": 8}
EVAL_MIXED = {"level": 4, "per_setting": 3, "cap": 0.35,
              "wrong_frac": 0.2, "unmatched_frac": 0.05}
FIXTURE_VERSION = 2
# Radial bump height and wave frequency of every shape (see ``bumpy``).
BUMP = 0.25
FREQUENCY = 1.6


# --- geometry ---

def icosphere(level):
    """Unit icosphere; each level splits every face into four. Level 4 has
    2562 vertices and 5120 faces, level 5 has 10242 and 20480."""
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    v = np.array([
        [-1, phi, 0], [1, phi, 0], [-1, -phi, 0], [1, -phi, 0],
        [0, -1, phi], [0, 1, phi], [0, -1, -phi], [0, 1, -phi],
        [phi, 0, -1], [phi, 0, 1], [-phi, 0, -1], [-phi, 0, 1],
    ], dtype=np.float64)
    f = np.array([
        [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
        [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
        [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
        [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
    ], dtype=np.int64)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    for _ in range(level):
        corners = [f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]]
        edges = np.sort(np.concatenate(corners), axis=1)
        uniq, inv = np.unique(edges, axis=0, return_inverse=True)
        mid = (v[uniq[:, 0]] + v[uniq[:, 1]]) / 2.0
        mid /= np.linalg.norm(mid, axis=1, keepdims=True)
        m = len(v) + inv.reshape(3, -1)  # midpoint ids of ab, bc, ca
        ab, bc, ca = m
        a, b, c = f.T
        f = np.concatenate([np.stack(t, axis=1) for t in
                            ((a, ab, ca), (b, bc, ab), (c, ca, bc),
                             (ab, bc, ca))])
        v = np.concatenate([v, mid])
    return v, f


def bumpy(base_vertices, seed):
    """Smooth seeded radial perturbation of a unit sphere, in the style of
    the test suite's ``bumpy_sphere``. Only the directions of the four bump
    waves are random; their frequencies are fixed, so every seed gives a
    shape of the same complexity and run times differ little by seed."""
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=(4, 3))
    coeffs *= FREQUENCY / np.linalg.norm(coeffs, axis=1, keepdims=True)
    r = np.ones(len(base_vertices))
    for k, row in enumerate(coeffs, start=1):
        r = r + BUMP / k * np.sin(k * base_vertices @ row)
    return base_vertices * r[:, None]


def face_areas(v, f):
    a, b, c = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
    return 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)


def vertex_faces(f, n):
    """Lowest face index containing each vertex, and the corner it sits at."""
    face = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    corner = np.zeros(n, dtype=np.int64)
    ids = np.repeat(np.arange(len(f)), 3)
    corners = np.tile(np.arange(3), len(f))
    verts = f.reshape(-1)
    order = np.lexsort((corners, ids, verts))
    verts, ids, corners = verts[order], ids[order], corners[order]
    first = np.ones(len(verts), dtype=bool)
    first[1:] = verts[1:] != verts[:-1]
    face[verts[first]] = ids[first]
    corner[verts[first]] = corners[first]
    return face, corner


def one_hot_corr(face, corner):
    w = np.zeros((len(face), 3))
    matched = face >= 0
    w[np.flatnonzero(matched), corner[matched]] = 1.0
    return w


# --- writers (independent of the program's own) ---

def write_ply(path, v, f):
    header = ("ply\nformat binary_little_endian 1.0\n"
              f"element vertex {len(v)}\n"
              "property double x\nproperty double y\nproperty double z\n"
              f"element face {len(f)}\n"
              "property list uchar int vertex_indices\nend_header\n")
    rec = np.empty(len(f), dtype=[("n", "u1"), ("idx", "<i4", 3)])
    rec["n"] = 3
    rec["idx"] = f
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(v, dtype="<f8").tobytes())
        fh.write(rec.tobytes())


def write_corr(path, source_id, target_id, faces, weights):
    sid, tid = source_id.encode(), target_id.encode()
    rec = np.empty(len(faces), dtype=[("face", "<i4"), ("w", "<f8", 3)])
    rec["face"] = faces
    rec["w"] = weights
    with open(path, "wb") as fh:
        fh.write(b"DCOR" + struct.pack("<B", 1))
        fh.write(struct.pack("<H", len(sid)) + sid)
        fh.write(struct.pack("<H", len(tid)) + tid)
        fh.write(struct.pack("<Q", len(faces)))
        fh.write(rec.tobytes())


# --- cache ---

def _cached(kind, seed, params, build):
    """Return the fixture directory for (kind, seed, params), building it
    into a temporary directory and renaming it into place if missing."""
    blob = json.dumps([kind, seed, params, FIXTURE_VERSION], sort_keys=True)
    key = hashlib.sha256(blob.encode()).hexdigest()[:12]
    dest = WORK_DIR / "fixtures" / f"{kind}-s{seed}-{key}"
    if (dest / "DONE").exists():
        return dest
    dest.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=dest.name + ".tmp.",
                                dir=dest.parent))
    try:
        build(tmp)
        (tmp / "DONE").write_text(blob + "\n")
        shutil.rmtree(dest, ignore_errors=True)
        os.replace(tmp, dest)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return dest


def _shape_seed(seed, k):
    h = hashlib.sha256(f"perfbench-shape-{seed}-{k}".encode()).digest()
    return int.from_bytes(h[:8], "little")


# --- networks ---

def write_chain_network(root, seed, level, shapes, split_pairs):
    """Chain network s0 - s1 - ... with identity-index edges.

    ``shapes`` is a list of (shape id, dataset); ``split_pairs`` maps a
    split name to its (id_x, id_y) base pairs. Writes ``network.manifest``
    and ``split.manifest`` under ``root``.
    """
    base, f = icosphere(level)
    face, corner = vertex_faces(f, len(base))
    weights = one_hot_corr(face, corner)
    (root / "meshes").mkdir()
    (root / "edges").mkdir()
    lines = ["# synthetic chain network"]
    for dataset in sorted({d for _, d in shapes}):
        lines.append(f"dataset {dataset}")
    for k, (sid, dataset) in enumerate(shapes):
        name = sid.replace(":", "_")
        write_ply(root / "meshes" / f"{name}.ply",
                  bumpy(base, _shape_seed(seed, k)), f)
        lines.append(f"shape {sid} dataset={dataset} "
                     f"mesh=meshes/{name}.ply")
    for (a, _), (b, _) in zip(shapes, shapes[1:]):
        na, nb = a.replace(":", "_"), b.replace(":", "_")
        fwd, bwd = f"edges/{na}-{nb}.corr", f"edges/{nb}-{na}.corr"
        write_corr(root / fwd, a, b, face, weights)
        write_corr(root / bwd, b, a, face, weights)
        lines.append(f"edge {a} {b} forward={fwd} backward={bwd}")
    (root / "network.manifest").write_text("\n".join(lines) + "\n")
    split = ["# split manifest: shapes and base pair lists"]
    for sid, dataset in shapes:
        split.append(f"shape {sid} dataset={dataset} category={sid} "
                     f"type=human")
    for name, pairs in split_pairs.items():
        split += [f"pair {name} {a} {b}" for a, b in pairs]
    (root / "split.manifest").write_text("\n".join(split) + "\n")


def p2p_train_fixture(seed, p=P2P_TRAIN):
    """Chain of faust shapes f0..f3 followed by scape shapes. Train
    balancing repeats the two faust pairs (2 and 3 hops) so each recurs and
    hits the per-pair memo; the scape pairs come after them."""
    faust = [f"faust:{i:04d}" for i in range(p["faust"])]
    scape = [f"scape:{i:04d}" for i in range(p["scape"])]
    shapes = [(s, "faust") for s in faust] + [(s, "scape") for s in scape]
    scape_pairs = [(a, b) for i, a in enumerate(scape)
                   for j, b in enumerate(scape) if abs(i - j) >= 2]
    pairs = {"train": [(faust[0], faust[2]), (faust[0], faust[3])]
             + scape_pairs}
    return _cached("p2p_train", seed, p, lambda root: write_chain_network(
        root, seed, p["level"], shapes, pairs))


def f2f_heavy_fixture(seed, p=F2F_HEAVY):
    """Chain of shapes; the val split holds distinct two-hop pairs in both
    directions, so every network lookup misses the memo."""
    ids = [f"faust:{i:04d}" for i in range(p["shapes"])]
    shapes = [(s, "faust") for s in ids]
    pairs = [(ids[i], ids[i + 2]) for i in range(len(ids) - 2)]
    pairs += [(b, a) for a, b in pairs]
    return _cached("f2f_remesh_heavy", seed, p,
                   lambda root: write_chain_network(
                       root, seed, p["level"], shapes, {"val": pairs}))


# --- evaluation set ---

def _cap(v, f, direction, frac):
    """Faces whose centroid lies in the spherical cap around ``direction``
    holding about ``frac`` of the faces; a connected patch."""
    score = v[f].mean(axis=1) @ direction
    return np.sort(np.flatnonzero(score >= np.quantile(score, 1.0 - frac)))


def _submesh(v, f, keep_faces):
    vids = np.unique(f[keep_faces])
    remap = np.full(len(v), -1, dtype=np.int64)
    remap[vids] = np.arange(len(vids))
    return vids, v[vids], remap[f[keep_faces]]


def write_eval_set(root, seed, p):
    """Instances (F2F, P2F, P2P interleaved) and predictions.

    Ground truth maps source vertex ``i`` onto the target's vertex with the
    same parent index; partial shapes are caps of the full shapes. Each
    prediction is the ground-truth vertex with a seeded fraction of entries
    reassigned to random target vertices and a further fraction set to -1.
    """
    base, f = icosphere(p["level"])
    rng = np.random.default_rng(seed)
    inst_dir, pred_dir = root / "instances", root / "predictions"
    inst_dir.mkdir()
    pred_dir.mkdir()
    names = []
    settings = ("full_full", "partial_full", "partial_partial")
    for k in range(3 * p["per_setting"]):
        setting = settings[k % 3]
        name = f"test_{k:06d}"
        d = inst_dir / name
        d.mkdir()
        vx = bumpy(base, _shape_seed(seed, 2 * k))
        vy = bumpy(base, _shape_seed(seed, 2 * k + 1))
        dirs = rng.normal(size=(2, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        if setting == "full_full":
            x_parent, x_v, x_f = np.arange(len(base)), vx, f
        else:
            x_parent, x_v, x_f = _submesh(vx, f, _cap(vx, f, dirs[0],
                                                      p["cap"]))
        # target; caps of P2P pairs overlap only partly
        if setting == "partial_partial":
            y_parent, y_v, y_f = _submesh(vy, f, _cap(vy, f, dirs[0] +
                                                      0.8 * dirs[1],
                                                      p["cap"]))
        else:
            y_parent, y_v, y_f = np.arange(len(base)), vy, f
        y_index = np.full(len(base), -1, dtype=np.int64)
        y_index[y_parent] = np.arange(len(y_parent))
        face_y, corner_y = vertex_faces(y_f, len(y_v))
        gt_vertex = y_index[x_parent]
        ok = gt_vertex >= 0
        faces = np.full(len(x_parent), -1, dtype=np.int64)
        corners = np.zeros(len(x_parent), dtype=np.int64)
        faces[ok] = face_y[gt_vertex[ok]]
        corners[ok] = corner_y[gt_vertex[ok]]
        write_ply(d / "x.ply", x_v, x_f)
        write_ply(d / "y.ply", y_v, y_f)
        write_corr(d / "gt.corr", f"{name}/x", f"{name}/y", faces,
                   one_hot_corr(faces, corners))
        area_y = float(face_areas(vy, f).sum())
        (d / "meta.txt").write_text(
            f"setting={setting}\narea_full_y={area_y!r}\n")
        pred = gt_vertex.copy()
        u = rng.random(len(pred))
        wrong = u < p["wrong_frac"]
        pred[wrong] = rng.integers(0, len(y_v), size=int(wrong.sum()))
        pred[(u >= p["wrong_frac"]) &
             (u < p["wrong_frac"] + p["unmatched_frac"])] = -1
        (pred_dir / f"{name}.txt").write_text(
            "\n".join(str(int(t)) for t in pred) + "\n")
        names.append(name)
    (inst_dir / "instances.manifest").write_text("\n".join(names) + "\n")


def eval_fixture(seed, p=EVAL_MIXED):
    return _cached("evaluate_mixed", seed, p,
                   lambda root: write_eval_set(root, seed, p))
