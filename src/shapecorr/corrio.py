"""Dense-correspondence file formats: both variants below are read,
correspondences are written in the binary one only.

Text variant::

    corr <source_id> <target_id> <n>
    <face> <w0> <w1> <w2>          (one record per source vertex)
    ...

Face index -1 marks an unmatched vertex; its weights load as zeros.
``#`` comments and blank lines are skipped, so the header is the first
line that holds data. The records are read by ``textio``'s table reader.

Binary variant: magic ``DCOR``, format version byte, the two ids as
length-prefixed UTF-8, vertex count as little-endian uint64, then n records
of (int32 face, 3x float64 weights).

Either variant holds exactly n records: a load refuses fewer or more.

A load keeps the weights bit for bit: it checks them but does not
renormalize them.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .meshes import DenseCorrespondence
from .textio import data_lines, read_table

_MAGIC = b"DCOR"
_VERSION = 1


def save_correspondence(corr, path):
    """Write ``corr`` in the binary variant, making the parent directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
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


def load_correspondence(path):
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == _MAGIC:
        return _load_binary(path)
    return _load_text(path)


def _load_text(path):
    lines = data_lines(path)
    header = lines[0][1].split() if lines else []
    if (len(header) != 4 or header[0] != "corr"
            or not header[3].isdecimal()):
        raise ValueError(f"{path}: bad correspondence header")
    n = int(header[3])
    rows = lines[1:]
    if len(rows) != n:
        raise ValueError(f"{path}: expected {n} records, got {len(rows)}")
    rec = read_table(path, rows, "record", [("face", "i8"), ("w", "f8", 3)])
    return DenseCorrespondence._exact(header[1], header[2], rec["face"],
                                      rec["w"])


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
        # the records are the rest of the file, read as it is: a count
        # larger than the file is compared, never allocated
        body = fh.read()
    if len(body) < n * 28:
        raise ValueError(f"{path}: truncated correspondence file")
    if len(body) > n * 28:
        raise ValueError(f"{path}: bytes past the {n} records")
    rec = np.frombuffer(body, dtype=[("face", "<i4"), ("w", "<f8", 3)])
    return DenseCorrespondence._exact(sid, tid, rec["face"], rec["w"])
