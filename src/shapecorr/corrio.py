"""Dense-correspondence file formats.

Text variant::

    corr <source_id> <target_id> <n>
    <face> <w0> <w1> <w2>          (one record per source vertex)
    ...

Face index -1 marks an unmatched vertex; its weights are written as zeros.

Binary variant: magic ``DCOR``, format version byte, the two ids as
length-prefixed UTF-8, vertex count as little-endian uint64, then n records
of (int32 face, 3x float64 weights). Bit-exact round trips.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .meshes import DenseCorrespondence, UNMATCHED

_MAGIC = b"DCOR"
_VERSION = 1


def save_correspondence(corr, path, binary=True):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if binary:
        _save_binary(corr, path)
    else:
        _save_text(corr, path)


def load_correspondence(path):
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == _MAGIC:
        return _load_binary(path)
    return _load_text(path)


def _save_text(corr, path):
    with open(path, "w") as fh:
        fh.write(f"corr {corr.source_id} {corr.target_id} {len(corr)}\n")
        for f, w in zip(corr.faces, corr.weights):
            if f == UNMATCHED:
                fh.write("-1 0 0 0\n")
            else:
                fh.write(f"{f} {float(w[0])!r} {float(w[1])!r} {float(w[2])!r}\n")


def _load_text(path):
    with open(path, "r") as fh:
        header = fh.readline().split()
        if len(header) != 4 or header[0] != "corr":
            raise ValueError(f"{path}: bad correspondence header")
        source_id, target_id, n = header[1], header[2], int(header[3])
        faces = np.empty(n, dtype=np.int64)
        weights = np.zeros((n, 3))
        for i in range(n):
            parts = fh.readline().split()
            if len(parts) != 4:
                raise ValueError(f"{path}: bad record at vertex {i}")
            faces[i] = int(parts[0])
            if faces[i] != UNMATCHED:
                weights[i] = [float(parts[1]), float(parts[2]), float(parts[3])]
    return DenseCorrespondence(source_id, target_id, faces, weights)


def _save_binary(corr, path):
    sid = str(corr.source_id).encode("utf-8")
    tid = str(corr.target_id).encode("utf-8")
    rec = np.empty(len(corr), dtype=[("face", "<i4"), ("w", "<f8", 3)])
    rec["face"] = corr.faces
    rec["w"] = corr.weights
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<B", _VERSION))
        fh.write(struct.pack("<H", len(sid)) + sid)
        fh.write(struct.pack("<H", len(tid)) + tid)
        fh.write(struct.pack("<Q", len(corr)))
        fh.write(rec.tobytes())


def _load_binary(path):
    with open(path, "rb") as fh:
        def read(n):
            buf = fh.read(n)
            if len(buf) != n:
                raise ValueError(f"{path}: truncated correspondence file")
            return buf

        if read(4) != _MAGIC:
            raise ValueError(f"{path}: not a binary correspondence file")
        (version,) = struct.unpack("<B", read(1))
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        (ls,) = struct.unpack("<H", read(2))
        sid = read(ls).decode("utf-8")
        (lt,) = struct.unpack("<H", read(2))
        tid = read(lt).decode("utf-8")
        (n,) = struct.unpack("<Q", read(8))
        rec = np.frombuffer(read(n * 28),
                            dtype=[("face", "<i4"), ("w", "<f8", 3)])
    return DenseCorrespondence(sid, tid, rec["face"].astype(np.int64),
                               rec["w"].astype(np.float64))
