"""Mesh file I/O (positions + faces only): OFF, ASCII/binary PLY and OBJ
are read; meshes are written as binary little-endian PLY only. OFF and
OBJ bodies are read by ``textio.read_table``.

Vertex and face order is preserved bit-exactly on load; binary PLY stores
positions as float64 so save -> load round-trips are lossless.

PLY bodies may be ASCII or binary of either byte order, with any elements
and properties of the standard types. Positions are the vertex element's
x/y/z as float64 (ASCII values always parse as float64). Faces are the face
element's first list, which must have 3 items in every row; any other list
must have its first row's length in every row. Any other malformed or
short file raises ``MeshFormatError``.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .meshes import Mesh
from .textio import FormatError as MeshFormatError, data_lines, read_table

_FORMATS = ("off", "ply", "obj")


def load_mesh(path, id=None):
    """Load a mesh, dispatching on the file extension."""
    path = Path(path)
    ext = path.suffix.lower().lstrip(".")
    if ext not in _FORMATS:
        raise MeshFormatError(path, f"unsupported extension {ext!r} (want off/ply/obj)")
    if not path.exists():
        raise FileNotFoundError(path)
    v, f = {"off": _read_off, "ply": _read_ply, "obj": _read_obj}[ext](path)
    return Mesh(v, f, id=id if id is not None else path.stem)


def save_mesh(mesh, path):
    """Write a mesh as binary little-endian PLY with float64 positions; a
    path that does not end in ``.ply`` raises ``MeshFormatError``."""
    path = Path(path)
    if path.suffix.lower() != ".ply":
        raise MeshFormatError(path, "meshes are written as .ply only")
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_ply(mesh, path)


# --- OFF ---

_XYZ = [("xyz", "f8", 3)]


def _read_off(path):
    rows = data_lines(path)
    if not rows:
        raise MeshFormatError(path, "empty file")
    lineno, line = rows.pop(0)
    line = line.strip()
    if line.upper().startswith("OFF"):  # else a headerless OFF
        line = line[3:].strip()
        if not line and rows:  # the counts are on the next line
            lineno, line = rows.pop(0)
    counts = line.split()[:2]
    if len(counts) < 2 or not all(c.isdecimal() for c in counts):
        raise MeshFormatError(path, f"bad count line {line!r}", lineno)
    nv, nf = map(int, counts)
    if len(rows) < nv:
        raise MeshFormatError(path, f"expected {nv} vertices, got {len(rows)}")
    if len(rows) < nv + nf:
        raise MeshFormatError(path, f"expected {nf} faces, got {len(rows) - nv}")
    # usecols skips the optional colour columns of vertex and face rows
    vertices = read_table(path, rows[:nv], "vertex", _XYZ, usecols=(0, 1, 2))
    faces = read_table(path, rows[nv:nv + nf], "face",
                       [("n", "i8"), ("idx", "i8", 3)], usecols=(0, 1, 2, 3))
    for k in np.flatnonzero(faces["n"] != 3)[:1]:
        raise MeshFormatError(path, "only triangles supported, got "
                              f"{faces['n'][k]}-gon", rows[nv + k][0])
    return vertices["xyz"], faces["idx"]


# --- PLY ---

_PLY_TYPES = {
    "char": "i1", "int8": "i1", "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2", "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4", "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4", "double": "f8", "float64": "f8",
}
_PLY_FORMATS = {"ascii": "=", "binary_little_endian": "<",
                "binary_big_endian": ">"}


def _read_ply(path):
    with open(path, "rb") as fh:
        fmt, elements = _read_ply_header(path, fh)
        body = fh.read()
    if fmt not in _PLY_FORMATS:
        raise MeshFormatError(path, f"unsupported PLY format {fmt!r}")
    if fmt == "ascii":
        try:
            body = np.array(body.split(), dtype=np.float64).tobytes()
        except ValueError:
            raise MeshFormatError(path, "non-numeric ASCII data")
    types = {k: np.dtype(_PLY_FORMATS[fmt] + ("f8" if fmt == "ascii" else v))
             for k, v in _PLY_TYPES.items()}
    records, offset = {}, 0
    for name, count, props in elements:
        if props:  # an element without properties holds no data
            records[name], offset = _read_ply_element(
                path, body, offset, name, count,
                [(p, types[t], c and types[c]) for p, t, c in props])
    if "vertex" not in records or "face" not in records:
        raise MeshFormatError(path, "PLY lacks vertex or face element")
    vertex, face = records["vertex"], records["face"]
    if any(c not in vertex.dtype.names or vertex.dtype[c].names for c in "xyz"):
        raise MeshFormatError(path, "vertex element lacks x/y/z")
    lists = [n for n in face.dtype.names if face.dtype[n].names]
    if not lists:
        raise MeshFormatError(path, "face element lacks a vertex index list")
    vertices = np.stack([vertex["x"], vertex["y"], vertex["z"]], axis=1)
    return vertices.astype(np.float64), face[lists[0]]["items"].astype(np.int64)


def _read_ply_header(path, fh):
    """The format name and [(element, count, [(property, type, list count
    type or None)])]; leaves ``fh`` at the first byte of the body."""
    if fh.readline().strip() != b"ply":
        raise MeshFormatError(path, "not a PLY file", 1)
    fmt, elements = None, []
    for lineno, raw in enumerate(iter(fh.readline, b""), start=2):
        line = raw.decode("ascii", "replace").strip()
        parts = line.split()
        if not parts or line.startswith(("comment", "obj_info")):
            continue
        if parts[0] == "end_header":
            break
        if parts[0] not in ("format", "element", "property"):
            raise MeshFormatError(path, f"unknown header line {line!r}", lineno)
        try:
            if parts[0] == "format":
                fmt, ok = parts[1], True
            elif parts[0] == "element":
                elements.append((parts[1], int(parts[2]), []))
                ok = elements[-1][1] >= 0
            else:
                props = elements[-1][2]
                props.append((parts[4], parts[3], parts[2]) if parts[1] == "list"
                             else (parts[2], parts[1], None))
                ok = (all(t in _PLY_TYPES for t in props[-1][1:] if t)
                      and [p[0] for p in props].count(props[-1][0]) == 1)
        except (IndexError, ValueError):
            ok = False
        if not ok:
            raise MeshFormatError(path, f"bad header line {line!r}", lineno)
    else:
        raise MeshFormatError(path, "unterminated header")
    if fmt is None:
        raise MeshFormatError(path, "missing format line")
    return fmt, elements


def _read_ply_element(path, body, offset, name, count, props):
    """One element's rows from byte ``offset`` of ``body`` as a record array
    (a list is a sub-record of ``n`` and ``items``) and the offset after."""
    layout, lists = [], []
    for prop, ptype, ctype in props:
        if ctype is None:
            layout.append((prop, ptype))
            continue
        length = 3
        if count and (name != "face" or lists):  # the first row's count
            at = offset + np.dtype(layout).itemsize
            room = len(body) - at - ctype.itemsize
            n = float(np.frombuffer(body, ctype, 1, at)[0]) if room >= 0 else -1
            if not 0 <= n * ptype.itemsize <= room:
                raise MeshFormatError(path, f"truncated {name} data")
            length = int(n)
        lists.append((prop, length))
        layout.append((prop, [("n", ctype), ("items", ptype, (length,))]))
    size = np.dtype(layout).itemsize
    rows = np.frombuffer(body, layout, min(count, (len(body) - offset) // size),
                         offset)
    if lists:  # rows after the first wrong count are misaligned
        got = np.stack([rows[p]["n"] for p, _ in lists], axis=1)
        for i, j in np.argwhere(got != [n for _, n in lists])[:1]:
            (prop, n), k = lists[j], int(got[i, j])
            if name == "face" and j == 0:
                raise MeshFormatError(path, f"face {i} is a {k}-gon")
            raise MeshFormatError(
                path, f"{name} {i}: list {prop!r} has {k} items, not {n}")
    if len(rows) < count:
        raise MeshFormatError(path, f"truncated {name} data")
    return rows, offset + count * size


def _write_ply(mesh, path, colors=None):
    """Binary little-endian PLY: float64 positions, optional uchar RGB."""
    header = ("ply\nformat binary_little_endian 1.0\n"
              f"element vertex {mesh.n_vertices}\n"
              "property double x\nproperty double y\nproperty double z\n")
    fields = [("xyz", "<f8", 3)]
    if colors is not None:
        header += "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        fields.append(("rgb", "u1", 3))
    header += (f"element face {mesh.n_faces}\n"
               "property list uchar int vertex_indices\nend_header\n")
    vertex = np.empty(mesh.n_vertices, fields)
    vertex["xyz"] = mesh.vertices
    if colors is not None:
        vertex["rgb"] = colors
    face = np.empty(mesh.n_faces, [("n", "u1"), ("idx", "<i4", 3)])
    face["n"], face["idx"] = 3, mesh.faces
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(vertex.tobytes())
        fh.write(face.tobytes())


def save_colored_ply(mesh, colors, path):
    """Binary PLY with per-vertex uchar RGB (visualization output only)."""
    colors = np.asarray(colors)
    if colors.shape != (mesh.n_vertices, 3):
        raise ValueError("colors must be (n_vertices, 3)")
    if colors.dtype != np.uint8:
        colors = np.clip(np.rint(colors * 255.0), 0, 255).astype(np.uint8)
    _write_ply(mesh, path, colors)


# --- OBJ ---

# the /vt/vn tails of the v/vt, v/vt/vn and v//vn face corner forms
_CORNER_TAIL = re.compile(r"/\S*")


def _read_obj(path):
    rows = {"v": [], "f": []}  # vn/vt/usemtl/groups silently ignored
    for lineno, line in data_lines(path):
        key = line.split(None, 1)[0]
        if key in rows:
            rows[key].append((lineno, line))
    if not rows["v"]:
        raise MeshFormatError(path, "no vertices found")
    vertices = read_table(path, rows["v"], "vertex", _XYZ, usecols=(1, 2, 3))
    linenos = [lineno for lineno, _ in rows["f"]]
    corners = _CORNER_TAIL.sub("", "\n".join(line for _, line in rows["f"]))
    faces = read_table(path, list(zip(linenos, corners.split("\n"))), "face",
                       [("f", "U1"), ("idx", "i8", 3)])["idx"]
    for k in np.flatnonzero((faces == 0).any(axis=1))[:1]:
        raise MeshFormatError(path, "face index 0 (OBJ indices start at 1)",
                              linenos[k])
    # a negative index counts back from the last vertex above its face
    above = np.searchsorted([lineno for lineno, _ in rows["v"]], linenos)
    faces = np.where(faces > 0, faces - 1, faces + above[:, None])
    return vertices["xyz"], faces

