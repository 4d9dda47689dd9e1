import struct

import numpy as np
import pytest

from shapecorr.corrio import load_correspondence, save_correspondence
from shapecorr.decimate import back_correspondence, decimate
from shapecorr.meshes import DenseCorrespondence, identity_correspondence

from conftest import COUNTS_PAST_THE_FILE, set_corr_count
from shapes import bumpy_sphere, icosphere


def test_binary_corr_cut_anywhere_raises_value_error(tmp_path):
    corr = identity_correspondence(icosphere(0))
    save_correspondence(corr, tmp_path / "full.corr")
    data = (tmp_path / "full.corr").read_bytes()
    p = tmp_path / "cut.corr"
    for n in range(len(data)):
        p.write_bytes(data[:n])
        with pytest.raises(ValueError):
            load_correspondence(p)


@pytest.mark.parametrize("count", COUNTS_PAST_THE_FILE)
def test_binary_corr_count_past_the_file_raises_value_error(tmp_path, count):
    """The count used to be read as it stood: ``read(n * 28)`` raised
    ``MemoryError`` or ``OverflowError``, which no caller catches."""
    p = tmp_path / "big.corr"
    save_correspondence(identity_correspondence(icosphere(0)), p)
    set_corr_count(p, count)
    with pytest.raises(ValueError, match="truncated correspondence file"):
        load_correspondence(p)


def write_text_corr(corr, path):
    """The text variant, one ``repr`` row per record; the package writes
    only the binary variant."""
    rows = [f"{f} {w[0]!r} {w[1]!r} {w[2]!r}\n" if f != -1 else "-1 0 0 0\n"
            for f, w in zip(corr.faces.tolist(), corr.weights.tolist())]
    path.write_text(f"corr {corr.source_id} {corr.target_id} {len(corr)}\n"
                    + "".join(rows))


def save(corr, path, form):
    """True: the binary variant; False: the text variant; a string: the
    text variant with that comment around its header, which stays the first
    line that holds data."""
    if form is True:
        save_correspondence(corr, path)
        return
    write_text_corr(corr, path)
    if form:
        header, records = path.read_text().split("\n", 1)
        before, after = form.split("HEADER")
        path.write_text(before + header + after + "\n" + records)


def text_corr(tmp_path):
    """A text .corr with unmatched rows and weights that need all 17
    digits."""
    rng = np.random.default_rng(5)
    faces = rng.integers(0, 80, size=42)
    faces[::5] = -1
    corr = DenseCorrespondence("src:1", "tgt:2", faces,
                               rng.dirichlet(np.ones(3), size=42))
    path = tmp_path / "text.corr"
    write_text_corr(corr, path)
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
                                    "bad_header", "empty", "extra_record"])
def test_text_corr_damaged_raises_value_error(tmp_path, damage):
    """A record past the header's count (here: the first one, duplicated)
    used to load as the first n rows, shifted, dropping the last."""
    _, path = text_corr(tmp_path)
    lines = path.read_text().splitlines()
    if damage == "truncated":
        lines = lines[:20]
    elif damage == "extra_record":
        lines.insert(1, lines[1])
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


def test_binary_corr_bytes_past_the_records_raise_value_error(tmp_path):
    corr, _ = text_corr(tmp_path)
    path = tmp_path / "binary.corr"
    save_correspondence(corr, path)
    for extra in (b"\0", bytes(28)):
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(ValueError, match=f"{path}: bytes past the 42 "
                           "records"):
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


@pytest.mark.parametrize("form", [
    True, False, pytest.param("# made by hand\nHEADER", id="comment_line"),
    pytest.param("\nHEADER  # two rows", id="trailing_comment")])
def test_load_keeps_saved_weights_bit_for_bit(tmp_path, form):
    """Renormalizing a back-projection's weights moves the last bits of
    some rows; a load must return the saved weights unchanged. A comment
    before or after a text header used to make it a bad header."""
    original = bumpy_sphere(4)
    corr = back_correspondence(decimate(original, 800)[0], original)
    path = tmp_path / "c.corr"
    save(corr, path, form)
    back = load_correspondence(path)
    assert back.faces.tobytes() == corr.faces.tobytes()
    assert back.weights.tobytes() == corr.weights.tobytes()


@pytest.mark.parametrize("binary", [True, False])
def test_load_clips_tiny_negative_weights(tmp_path, binary):
    """A saved weight in [-1e-9, 0) loads as 0.0; the others keep their
    bits."""
    weights = np.array([[0.0, 0.25, 0.75], [0.0, 0.0, 0.0]])
    path = tmp_path / "c.corr"
    save(DenseCorrespondence("a", "b", [0, -1], weights), path, binary)
    data = path.read_bytes()
    if binary:
        w0 = len(data) - 2 * 28 + 4  # the first weight of row 0
        data = data[:w0] + struct.pack("<d", -1e-10) + data[w0 + 8:]
    else:
        data = data.replace(b"\n0 0.0 ", b"\n0 -1e-10 ")
    path.write_bytes(data)
    assert load_correspondence(path).weights.tobytes() == weights.tobytes()
