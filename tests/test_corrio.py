import struct

import numpy as np
import pytest

from shapecorr.corrio import load_correspondence, save_correspondence
from shapecorr.decimate import back_correspondence, decimate
from shapecorr.meshes import DenseCorrespondence, identity_correspondence

from conftest import bumpy_sphere, icosphere


def test_binary_corr_cut_anywhere_raises_value_error(tmp_path):
    corr = identity_correspondence(icosphere(0))
    save_correspondence(corr, tmp_path / "full.corr")
    data = (tmp_path / "full.corr").read_bytes()
    p = tmp_path / "cut.corr"
    for n in range(len(data)):
        p.write_bytes(data[:n])
        with pytest.raises(ValueError):
            load_correspondence(p)


def text_corr(tmp_path):
    """A text .corr with unmatched rows and weights that need all 17
    digits."""
    rng = np.random.default_rng(5)
    faces = rng.integers(0, 80, size=42)
    faces[::5] = -1
    corr = DenseCorrespondence("src:1", "tgt:2", faces,
                               rng.dirichlet(np.ones(3), size=42))
    path = tmp_path / "text.corr"
    save_correspondence(corr, path, binary=False)
    return corr, path


def test_text_corr_roundtrip_bit_exact(tmp_path):
    """The text file holds every weight bit for bit, and loading it gives
    what loading the binary file gives."""
    corr, path = text_corr(tmp_path)
    assert path.read_text().startswith("corr src:1 tgt:2 42\n")
    records = np.loadtxt(path, skiprows=1)
    assert records[:, 0].astype(np.int64).tolist() == corr.faces.tolist()
    assert records[:, 1:].tobytes() == corr.weights.tobytes()
    save_correspondence(corr, tmp_path / "binary.corr")
    back = load_correspondence(path)
    assert back == load_correspondence(tmp_path / "binary.corr")
    assert back.weights.tobytes() == \
        load_correspondence(tmp_path / "binary.corr").weights.tobytes()


@pytest.mark.parametrize("damage", ["truncated", "short_record", "garbled",
                                    "bad_header", "empty"])
def test_text_corr_damaged_raises_value_error(tmp_path, damage):
    _, path = text_corr(tmp_path)
    lines = path.read_text().splitlines()
    if damage == "truncated":
        lines = lines[:20]
    elif damage == "short_record":
        lines[7] = lines[7].rsplit(" ", 1)[0]
    elif damage == "garbled":
        lines[7] = lines[7].replace(".", ",", 1)
    elif damage == "bad_header":
        lines[0] = "corr src:1 tgt:2"
    else:
        lines = []
    path.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(ValueError):
        load_correspondence(path)


def test_text_corr_face_below_unmatched_raises_value_error(tmp_path):
    _, path = text_corr(tmp_path)
    lines = path.read_text().splitlines()
    lines[3] = "-2 0 0 0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="below -1"):
        load_correspondence(path)


def test_binary_corr_face_below_unmatched_raises_value_error(tmp_path):
    corr, _ = text_corr(tmp_path)
    path = tmp_path / "binary.corr"
    save_correspondence(corr, path)
    data = bytearray(path.read_bytes())
    record = len(data) - 28 * (len(corr) - 2)  # records are 28 bytes
    data[record:record + 4] = (-3).to_bytes(4, "little", signed=True)
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="below -1"):
        load_correspondence(path)


@pytest.mark.parametrize("binary", [True, False])
def test_load_keeps_saved_weights_bit_for_bit(tmp_path, binary):
    """Renormalizing a back-projection's weights moves the last bits of
    some rows; a load must return the saved weights unchanged."""
    original = bumpy_sphere(4)
    corr = back_correspondence(decimate(original, 800)[0], original)
    path = tmp_path / "c.corr"
    save_correspondence(corr, path, binary=binary)
    back = load_correspondence(path)
    assert back.faces.tobytes() == corr.faces.tobytes()
    assert back.weights.tobytes() == corr.weights.tobytes()


@pytest.mark.parametrize("binary", [True, False])
def test_load_clips_tiny_negative_weights(tmp_path, binary):
    """A saved weight in [-1e-9, 0) loads as 0.0; the others keep their
    bits."""
    weights = np.array([[0.0, 0.25, 0.75], [0.0, 0.0, 0.0]])
    path = tmp_path / "c.corr"
    save_correspondence(DenseCorrespondence("a", "b", [0, -1], weights),
                        path, binary=binary)
    data = path.read_bytes()
    if binary:
        w0 = len(data) - 2 * 28 + 4  # the first weight of row 0
        data = data[:w0] + struct.pack("<d", -1e-10) + data[w0 + 8:]
    else:
        data = data.replace(b"\n0 0.0 ", b"\n0 -1e-10 ")
    path.write_bytes(data)
    assert load_correspondence(path).weights.tobytes() == weights.tobytes()
