import warnings

import numpy as np
import pytest

from shapecorr.corrio import load_correspondence
from shapecorr.meshio import MeshFormatError, load_mesh
from shapecorr.metrics import load_prediction
from shapecorr.network import load_annotation
from shapecorr.textio import FormatError


def test_bad_row_raises_format_error_naming_its_line(tmp_path):
    p = tmp_path / "pred.txt"
    p.write_text("0\n# c\n1 2\n")
    with pytest.raises(FormatError, match="pred.txt:3: bad value line '1 2'"):
        load_prediction(p)
    assert MeshFormatError is FormatError


def _readers(tmp_path):
    """Each text reader with an integer column, fed "1.5" in that column."""
    pred = tmp_path / "pred.txt"
    pred.write_text("0\n1.5\n")
    labels = tmp_path / "s.labels"
    labels.write_text("0\n1.5\n")
    off = tmp_path / "m.off"
    off.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1.5 2\n")
    corr = tmp_path / "c.corr"
    corr.write_text("corr a b 2\n-1 0 0 0\n1.5 0.25 0.25 0.5\n")
    return [lambda: load_prediction(pred), lambda: load_annotation(labels, "s"),
            lambda: load_mesh(off), lambda: load_correspondence(corr)]


@pytest.mark.filterwarnings("ignore")
def test_non_integer_rejected_whatever_the_warning_filters(tmp_path):
    for read in _readers(tmp_path):
        with pytest.raises(ValueError):
            read()


@pytest.mark.filterwarnings("ignore")
def test_non_integer_rejected_where_numpy_only_warns(tmp_path, monkeypatch):
    """numpy 1.x reads "1.5" into an integer column as 1 and only warns
    (a ValueError when that warning is an error): read_table must turn the
    warning into an error itself."""
    loadtxt = np.loadtxt

    def warning_loadtxt(lines, dtype, **kwargs):
        if any("1.5" in line for line in lines):
            try:
                warnings.warn("Parsing an integer via a float is deprecated.",
                              DeprecationWarning)
            except DeprecationWarning as exc:
                raise ValueError("could not convert '1.5'") from exc
            lines = [line.replace("1.5", "1") for line in lines]
        return loadtxt(lines, dtype, **kwargs)

    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    for read in _readers(tmp_path):
        with pytest.raises(ValueError):
            read()
