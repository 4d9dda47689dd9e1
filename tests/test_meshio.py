import numpy as np
import pytest

from shapecorr.meshes import Mesh, MeshValidationError
from shapecorr.meshio import (MeshFormatError, load_mesh, save_colored_ply,
                              save_mesh)

from shapes import bumpy_sphere, icosphere


def write(path, text):
    path.write_text(text)
    return path


def write_text_mesh(mesh, path):
    """``mesh`` as OFF or OBJ (by the extension of ``path``), one ``repr``
    row per vertex; the package writes only PLY."""
    rows = [f"{x!r} {y!r} {z!r}\n" for x, y, z in mesh.vertices.tolist()]
    if path.suffix == ".off":
        faces = [f"3 {a} {b} {c}\n" for a, b, c in mesh.faces.tolist()]
        rows = [f"OFF\n{mesh.n_vertices} {mesh.n_faces} 0\n"] + rows
    else:
        faces = [f"f {a} {b} {c}\n" for a, b, c in (mesh.faces + 1).tolist()]
        rows = ["v " + row for row in rows]
    return write(path, "".join(rows + faces))


def test_single_triangle_off(tmp_path):
    p = write(tmp_path / "tri.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    m = load_mesh(p)
    assert m.n_vertices == 3
    assert m.n_faces == 1
    np.testing.assert_array_equal(m.faces, [[0, 1, 2]])


def test_off_out_of_range_index(tmp_path):
    p = write(tmp_path / "bad.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 5\n")
    with pytest.raises(MeshValidationError):
        load_mesh(p)


def test_off_counts_on_header_line(tmp_path):
    p = write(tmp_path / "tri.off", "OFF 3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    assert load_mesh(p).n_faces == 1


def test_off_parse_error_reports_line(tmp_path):
    p = write(tmp_path / "bad.off", "OFF\n3 1 0\n0 0 0\nnope nope nope\n0 1 0\n3 0 1 2\n")
    with pytest.raises(MeshFormatError, match="bad.off:4"):
        load_mesh(p)


def test_unit_cube_off_roundtrip(tmp_path):
    v = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], float)
    f = np.array([
        [0, 1, 3], [0, 3, 2], [4, 6, 7], [4, 7, 5],
        [0, 4, 5], [0, 5, 1], [2, 3, 7], [2, 7, 6],
        [0, 2, 6], [0, 6, 4], [1, 5, 7], [1, 7, 3],
    ])
    cube = Mesh(v, f, id="cube")
    again = load_mesh(write_text_mesh(cube, tmp_path / "cube.off"))
    assert again == cube


def test_point_cloud_rejected(tmp_path):
    with pytest.raises(MeshValidationError, match="no faces"):
        Mesh(np.zeros((4, 3)), np.zeros((0, 3), dtype=np.int64))


def test_binary_ply_roundtrip_large(tmp_path):
    m = icosphere(3)  # 1280 faces
    rng = np.random.default_rng(0)
    m = m.with_vertices(m.vertices + 1e-9 * rng.normal(size=m.vertices.shape))
    save_mesh(m, tmp_path / "s.ply")
    again = load_mesh(tmp_path / "s.ply")
    assert np.array_equal(again.vertices, m.vertices)  # bit-exact
    assert np.array_equal(again.faces, m.faces)


def test_ascii_ply(tmp_path):
    text = (
        "ply\nformat ascii 1.0\n"
        "element vertex 3\nproperty float x\nproperty float y\nproperty float z\n"
        "element face 1\nproperty list uchar int vertex_indices\n"
        "end_header\n"
        "0 0 0\n1 0 0\n0 1 0\n"
        "3 0 1 2\n"
    )
    m = load_mesh(write(tmp_path / "t.ply", text))
    assert m.n_vertices == 3 and m.n_faces == 1


TRI_V = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                  [1.0, 1.0, 0.5]])
TRI_F = np.array([[0, 1, 2], [1, 3, 2]])


def ply_header(fmt, vertex_props, face_props, nv=4, nf=2):
    return ("ply\n"
            f"format {fmt} 1.0\n"
            "comment written by hand\n"
            f"element vertex {nv}\n"
            + "".join(f"property {p}\n" for p in vertex_props)
            + f"element face {nf}\n"
            + "".join(f"property {p}\n" for p in face_props)
            + "end_header\n").encode("ascii")


XYZ = ["double x", "double y", "double z"]
INDICES = ["list uchar int vertex_indices"]


def test_big_endian_binary_ply(tmp_path):
    faces = np.empty(2, dtype=[("n", "u1"), ("idx", ">i4", 3)])
    faces["n"], faces["idx"] = 3, TRI_F
    p = tmp_path / "be.ply"
    p.write_bytes(ply_header("binary_big_endian", XYZ, INDICES)
                  + TRI_V.astype(">f8").tobytes() + faces.tobytes())
    m = load_mesh(p)
    assert np.array_equal(m.vertices, TRI_V)
    assert np.array_equal(m.faces, TRI_F)


def test_float32_vertices_widen_exactly(tmp_path):
    v32 = (TRI_V + 0.1).astype("<f4")
    faces = np.empty(2, dtype=[("n", "u1"), ("idx", "<i4", 3)])
    faces["n"], faces["idx"] = 3, TRI_F
    p = tmp_path / "f32.ply"
    p.write_bytes(ply_header("binary_little_endian",
                             ["float x", "float y", "float z"], INDICES)
                  + v32.tobytes() + faces.tobytes())
    m = load_mesh(p)
    assert m.vertices.dtype == np.float64
    assert np.array_equal(m.vertices, v32.astype(np.float64))


def test_colored_ply_reads_back(tmp_path):
    m = icosphere(1)
    colors = np.linspace(0.0, 1.0, 3 * m.n_vertices).reshape(-1, 3)
    save_colored_ply(m, colors, tmp_path / "c.ply")
    again = load_mesh(tmp_path / "c.ply")
    assert np.array_equal(again.vertices, m.vertices)
    assert np.array_equal(again.faces, m.faces)


def test_extra_face_property_after_index_list(tmp_path):
    faces = np.empty(2, dtype=[("n", "u1"), ("idx", "<i4", 3),
                               ("flags", "<u2")])
    faces["n"], faces["idx"], faces["flags"] = 3, TRI_F, [7, 65535]
    p = tmp_path / "flags.ply"
    p.write_bytes(ply_header("binary_little_endian", XYZ,
                             INDICES + ["ushort flags"])
                  + TRI_V.astype("<f8").tobytes() + faces.tobytes())
    m = load_mesh(p)
    assert np.array_equal(m.vertices, TRI_V)
    assert np.array_equal(m.faces, TRI_F)


def test_ascii_ply_extra_properties(tmp_path):
    head = ply_header("ascii", ["float x", "float y", "float z",
                                "float nx", "uchar red"],
                      INDICES + ["uchar flags"])
    body = ("0.1 0 0 1 255\n1 0 0 1 0\n0 1 0 1 0\n1 1 0.5 1 0\n"
            "3 0 1 2 9\n3 1 3 2 9\n")
    p = tmp_path / "extra.ply"
    p.write_bytes(head + body.encode("ascii"))
    m = load_mesh(p)
    assert m.vertices[0, 0] == 0.1  # parsed as float64, not float32
    assert np.array_equal(m.vertices[1:], TRI_V[1:])
    assert np.array_equal(m.faces, TRI_F)


def test_quad_face_named_in_both_encodings(tmp_path):
    ascii_body = b"0 0 0\n1 0 0\n0 1 0\n1 1 0.5\n3 0 1 2\n4 1 3 2 0\n"
    p = tmp_path / "quad_ascii.ply"
    p.write_bytes(ply_header("ascii", XYZ, INDICES) + ascii_body)
    with pytest.raises(MeshFormatError, match="face 1 is a 4-gon"):
        load_mesh(p)
    p = tmp_path / "quad_binary.ply"
    p.write_bytes(ply_header("binary_little_endian", XYZ, INDICES)
                  + TRI_V.astype("<f8").tobytes()
                  + b"\x03" + np.array([0, 1, 2], "<i4").tobytes()
                  + b"\x04" + np.array([1, 3, 2, 0], "<i4").tobytes())
    with pytest.raises(MeshFormatError, match="face 1 is a 4-gon"):
        load_mesh(p)


def test_vertex_without_z_rejected(tmp_path):
    p = tmp_path / "noz.ply"
    p.write_bytes(ply_header("ascii", ["float x", "float y"], INDICES)
                  + b"0 0\n1 0\n0 1\n1 1\n3 0 1 2\n3 1 3 2\n")
    with pytest.raises(MeshFormatError, match="x/y/z"):
        load_mesh(p)


def test_colored_ply_bytes(tmp_path):
    m = Mesh(TRI_V[:3], [[0, 1, 2]])
    colors = np.array([[0.0, 0.5, 1.0], [1.0, 0.0, 0.0], [0.2, 0.4, 0.6]])
    save_colored_ply(m, colors, tmp_path / "c.ply")
    header = (b"ply\nformat binary_little_endian 1.0\nelement vertex 3\n"
              b"property double x\nproperty double y\nproperty double z\n"
              b"property uchar red\nproperty uchar green\n"
              b"property uchar blue\nelement face 1\n"
              b"property list uchar int vertex_indices\nend_header\n")
    rgb = [(0, 128, 255), (255, 0, 0), (51, 102, 153)]
    vertices = b"".join(np.array(v, "<f8").tobytes() + bytes(c)
                        for v, c in zip(TRI_V[:3], rgb))
    face = b"\x03" + np.array([0, 1, 2], "<i4").tobytes()
    assert (tmp_path / "c.ply").read_bytes() == header + vertices + face


def repr_rows_mesh():
    """Rows that need plain and exponent notation to hold every bit."""
    m = bumpy_sphere(2)
    return Mesh(m.vertices * [1.0, 1e-7, 1e17], m.faces)


def test_obj_roundtrip(tmp_path):
    """OBJ rows written with ``repr`` load bit for bit and in order."""
    m = repr_rows_mesh()
    p = write_text_mesh(m, tmp_path / "s.obj")
    assert "e-" in p.read_text() and "e+" in p.read_text()
    again = load_mesh(p)
    assert again.vertices.tobytes() == m.vertices.tobytes()
    assert np.array_equal(again.faces, m.faces)


def test_obj_ignores_normals_and_uvs(tmp_path):
    text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nvt 0 0\nf 1/1/1 2/1/1 3/1/1\n"
    m = load_mesh(write(tmp_path / "t.obj", text))
    np.testing.assert_array_equal(m.faces, [[0, 1, 2]])


def test_off_roundtrip_preserves_order(tmp_path):
    """OFF rows written with ``repr`` load bit for bit and in order."""
    m = repr_rows_mesh()
    p = write_text_mesh(m, tmp_path / "s.off")
    assert "e-" in p.read_text() and "e+" in p.read_text()
    again = load_mesh(p)
    assert again.vertices.tobytes() == m.vertices.tobytes()
    assert np.array_equal(again.faces, m.faces)


@pytest.mark.parametrize("name", ["m.off", "m.obj"])
def test_save_mesh_writes_ply_only(tmp_path, name):
    """PLY bytes are never written under another extension."""
    with pytest.raises(MeshFormatError, match="ply"):
        save_mesh(icosphere(0), tmp_path / name)
    assert not (tmp_path / name).exists()


def test_degenerate_face_rejected():
    with pytest.raises(MeshValidationError, match="degenerate"):
        Mesh(np.eye(3), [[0, 1, 1]])


def test_binary_ply_cut_anywhere_rejected(tmp_path):
    m = Mesh(TRI_V, TRI_F)
    save_mesh(m, tmp_path / "full.ply")
    data = (tmp_path / "full.ply").read_bytes()
    p = tmp_path / "cut.ply"
    for n in range(data.index(b"end_header"), len(data)):
        p.write_bytes(data[:n])
        with pytest.raises(MeshFormatError):
            load_mesh(p)


@pytest.mark.parametrize("line", [
    "property quad x",
    "property list uchar vertex_indices",
    "element face many",
])
def test_malformed_ply_header_line(tmp_path, line):
    text = ("ply\nformat ascii 1.0\n"
            "element vertex 3\nproperty float x\nproperty float y\n"
            "property float z\n"
            f"{line}\n"
            "end_header\n0 0 0\n1 0 0\n0 1 0\n")
    with pytest.raises(MeshFormatError, match="t.ply:7"):
        load_mesh(write(tmp_path / "t.ply", text))


TRI_OFF_BODY = "0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"


def test_headerless_off(tmp_path):
    m = load_mesh(write(tmp_path / "t.off", "3 1 0\n" + TRI_OFF_BODY))
    np.testing.assert_array_equal(m.vertices, TRI_V[:3])
    np.testing.assert_array_equal(m.faces, [[0, 1, 2]])


def test_off_colour_columns_ignored(tmp_path):
    text = ("OFF\n4 2 0\n0 0 0 255 0 0 255\n1 0 0 0 255 0 255\n"
            "0 1 0\n1 1 0.5 0.5 0.5 0.5\n"
            "3 0 1 2 255 0 0\n3 1 3 2 0.25 0.5 0.75 1\n")
    m = load_mesh(write(tmp_path / "c.off", text))
    np.testing.assert_array_equal(m.vertices, TRI_V)
    np.testing.assert_array_equal(m.faces, TRI_F)


def test_off_comments_and_blank_lines(tmp_path):
    text = ("# made by hand\nOFF  # keyword\n\n3 1 0\n# vertices\n"
            "0 0 0\n\n1 0 0 # second\n0 1 0\n  \n# faces\n3 0 1 2\n# end\n")
    m = load_mesh(write(tmp_path / "c.off", text))
    np.testing.assert_array_equal(m.vertices, TRI_V[:3])
    np.testing.assert_array_equal(m.faces, [[0, 1, 2]])


def test_off_quad_rejected_with_line(tmp_path):
    text = "OFF\n4 2 0\n0 0 0\n1 0 0\n0 1 0\n1 1 0\n3 0 1 2\n4 0 1 3 2\n"
    with pytest.raises(MeshFormatError, match="q.off:8"):
        load_mesh(write(tmp_path / "q.off", text))


def test_obj_quad_rejected_with_line(tmp_path):
    text = "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1 2 3\nf 1 2 4 3\n"
    with pytest.raises(MeshFormatError, match="q.obj:6"):
        load_mesh(write(tmp_path / "q.obj", text))


def test_off_fewer_vertex_lines_than_count(tmp_path):
    text = "OFF\n4 1 0\n0 0 0\n1 0 0\n0 1 0\n"
    with pytest.raises(MeshFormatError, match="expected 4 vertices"):
        load_mesh(write(tmp_path / "short.off", text))


def test_obj_negative_indices_and_normal_only_form(tmp_path):
    text = ("v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nf -3//1 -2//1 -1//1\n"
            "v 1 1 0.5\nf 2//1 -1//1 3//1\n")
    m = load_mesh(write(tmp_path / "n.obj", text))
    np.testing.assert_array_equal(m.vertices, TRI_V)
    np.testing.assert_array_equal(m.faces, [[0, 1, 2], [1, 3, 2]])


def test_obj_bad_vertex_value_names_line(tmp_path):
    text = "v 0 0 0\nv 1 0 0\nvn 0 0 1\nv 0 x 0\nf 1 2 3\n"
    with pytest.raises(MeshFormatError, match="b.obj:4"):
        load_mesh(write(tmp_path / "b.obj", text))


def test_obj_inline_comments_dropped(tmp_path):
    text = "v 0 0 0  # origin\nv 1 0 0\nv 0 1 0\nf 1 2 3 # c\n"
    m = load_mesh(write(tmp_path / "c.obj", text))
    np.testing.assert_array_equal(m.vertices, TRI_V[:3])
    np.testing.assert_array_equal(m.faces, [[0, 1, 2]])


def test_obj_face_index_zero_rejected_with_line(tmp_path):
    """OBJ indices start at 1; a 0 used to count back from the vertices
    above its face, so the first face below loaded as ``[0, 1, 2]``,
    taking a vertex declared after it."""
    text = "v 0 0 0\nv 1 0 0\nf 1 2 0\nv 0 1 0\nv 0 0 1\nf 1 2 3\n"
    with pytest.raises(MeshFormatError, match="z.obj:3: face index 0"):
        load_mesh(write(tmp_path / "z.obj", text))
