"""Correctness gate: output digests against pinned values, and a structural
check of every generated ground truth with the benchmark's own readers.

The pinned digests in ``golden.json`` are a function of the program, the
fixtures and the numpy/scipy build they were recorded with; under another
build they are not compared.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).resolve().parent / "golden.json"


def tree_digest(root):
    """sha256 over every file under ``root``: relative path and content."""
    root = Path(root)
    h = hashlib.sha256()
    for p in sorted(q for q in root.rglob("*") if q.is_file()):
        h.update(p.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(p.read_bytes()).digest())
    return h.hexdigest()


def load_golden(versions):
    """Pinned digests for this numpy/scipy build, or None."""
    if not GOLDEN.exists():
        return None
    golden = json.loads(GOLDEN.read_text())
    if golden.get("versions") != versions:
        return None
    return golden


# --- readers independent of the program ---

def read_ply_counts(path):
    """(n_vertices, n_faces) from a PLY header."""
    n_v = n_f = None
    with open(path, "rb") as fh:
        if fh.readline().strip() != b"ply":
            raise ValueError(f"{path}: not a PLY file")
        for raw in fh:
            parts = raw.decode("ascii", "replace").split()
            if parts[:2] == ["element", "vertex"]:
                n_v = int(parts[2])
            elif parts[:2] == ["element", "face"]:
                n_f = int(parts[2])
            elif parts and parts[0] == "end_header":
                break
    if n_v is None or n_f is None:
        raise ValueError(f"{path}: PLY header lacks vertex/face counts")
    return n_v, n_f


def read_corr(path):
    """(faces, weights) of a binary .corr file."""
    data = Path(path).read_bytes()
    if data[:5] != b"DCOR\x01":
        raise ValueError(f"{path}: not a version-1 binary correspondence")
    pos = 5
    for _ in range(2):
        (n,) = struct.unpack_from("<H", data, pos)
        pos += 2 + n
    (n,) = struct.unpack_from("<Q", data, pos)
    pos += 8
    rec = np.frombuffer(data, dtype=[("face", "<i4"), ("w", "<f8", 3)],
                        count=n, offset=pos)
    return rec["face"].astype(np.int64), rec["w"]


def check_instance(directory, setting):
    """Problems found in one generated instance directory (empty if none)."""
    d = Path(directory)
    try:
        meta = dict(line.split("=", 1) for line in
                    (d / "meta.txt").read_text().splitlines() if line)
        n_x, _ = read_ply_counts(d / "x.ply")
        _, nf_y = read_ply_counts(d / "y.ply")
        faces, weights = read_corr(d / "gt.corr")
    except (OSError, ValueError, struct.error) as exc:
        return [f"unreadable: {exc}"]
    problems = []
    if meta.get("setting") != setting:
        problems.append(f"setting {meta.get('setting')!r} != {setting!r}")
    if len(faces) != n_x:
        problems.append(f"gt has {len(faces)} rows for {n_x} vertices")
    matched = faces != -1
    if ((faces < -1) | (faces >= nf_y)).any():
        problems.append("gt face index out of range")
    w = weights[matched]
    if (w < -1e-12).any() or not np.allclose(w.sum(axis=1), 1.0, atol=1e-9):
        problems.append("gt weights are not barycentric")
    if (weights[~matched] != 0).any():
        problems.append("unmatched gt rows carry weights")
    if not matched.any():
        problems.append("gt matches no vertex")
    if setting == "full_full" and not matched.all():
        problems.append("full-to-full gt has unmatched vertices on a "
                        "network without unmatched edges")
    return problems


def check(result, pinned):
    """(failed unit count, notes) for one run; a unit is one instance in
    one pass.

    A unit fails when it was not produced, when its own check found a
    problem, or when its bytes differ from the first pass or from the
    pinned digests. A difference in the rest of the tree (``cache/``, the
    manifest, the summary) fails every unit of its pass.
    """
    failed, notes = 0, []
    first = result["passes"][0]
    for i, p in enumerate(result["passes"]):
        notes += [f"pass {i}: {msg}" for msg in p["fails"]]
        shared = [f"pass {i}: {k}: {v}" for k, v in p["problems"].items()
                  if k not in result["names"]]
        if p["tree"] != first["tree"] or (
                pinned is not None and p["tree"] != pinned["tree"]):
            shared.append(f"pass {i}: output tree differs")
        notes += shared
        for name in result["names"]:
            digest = p["digests"].get(name)
            bad = [f"pass {i}: {name}: {v}"
                   for v in p["problems"].get(name, [])]
            if name not in p["times"] or digest is None:
                bad.append(f"pass {i}: {name}: not produced")
            elif digest != first["digests"].get(name) or (
                    pinned is not None
                    and digest != pinned["digests"].get(name)):
                bad.append(f"pass {i}: {name}: bytes differ")
            notes += bad
            failed += bool(bad or shared)
    notes.append("outputs compared with pinned digests" if pinned is not None
                 else "no pinned digests for this seed and build; passes "
                 "compared with each other")
    return failed, notes
