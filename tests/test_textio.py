import os
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shapecorr.corrio import load_correspondence
from shapecorr.meshio import MeshFormatError, load_mesh
from shapecorr.metrics import load_prediction
from shapecorr.network import load_annotation
from shapecorr.textio import (TEMP_NAME, FormatError, format_value,
                              key_values, read_key_values, replace_atomic,
                              write_atomic, write_key_values)


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
    return [lambda: load_prediction(pred), lambda: load_annotation(labels),
            lambda: load_mesh(off), lambda: load_correspondence(corr)]


@pytest.mark.filterwarnings("ignore")
def test_non_integer_rejected_whatever_the_warning_filters(tmp_path):
    for read in _readers(tmp_path):
        with pytest.raises(ValueError):
            read()


# keys and plain values: no "=" in a key, and no "#" or whitespace anywhere
tokens = st.from_regex(r"[A-Za-z0-9_.:/+-]+", fullmatch=True)
keys = st.from_regex(r"[A-Za-z_][A-Za-z0-9_.]*", fullmatch=True)
values = st.one_of(st.booleans(), st.integers(),
                   st.floats(allow_nan=False, allow_infinity=False), tokens)


@given(st.dictionaries(keys, values, max_size=8))
@example({"zero": -0.0, "tiny": 5e-324, "sub": 2.2250738585072e-308,
          "flag": True, "n": -3, "id": "faust:0001"})
@settings(max_examples=200, deadline=None)
def test_key_values_round_trip(tmp_path_factory, mapping):
    path = tmp_path_factory.mktemp("kv") / "sub" / "meta.txt"
    write_key_values(path, mapping)
    back = read_key_values(path)
    assert back == {k: format_value(v) for k, v in mapping.items()}
    for k, v in mapping.items():
        if type(v) is float:
            assert struct.pack("<d", float(back[k])) == struct.pack("<d", v)


def test_read_key_values_rules(tmp_path):
    """Comments and blank lines are skipped, key and value stripped, a
    later key wins, and a line without "=" is named by path and line."""
    p = tmp_path / "a.txt"
    p.write_text("# head\n\n  a = 1  # note\nb=x=y\na=2\n")
    assert read_key_values(p) == {"a": "2", "b": "x=y"}
    p.write_text("a=1\n\n  bogus  \n")
    with pytest.raises(FormatError,
                       match=re.escape(f"{p}:3: expected key=value, "
                                       "got 'bogus'")):
        read_key_values(p)



def test_key_values_strips_key_and_value():
    """Tokens follow the line rule of ``read_key_values``."""
    assert key_values([" a = 1 ", "b=x = y", "a=2"]) == {"a": "2",
                                                         "b": "x = y"}
    with pytest.raises(ValueError, match="got 'bogus'"):
        key_values(["  bogus "])


def test_failed_write_leaves_previous_file_whole(tmp_path):
    """A write that fails halfway (here: a character the encoder cannot
    write, after the first line; then a writer interrupted after a partial
    line) leaves the old file as it was, and no temp file: the temp used
    to stay behind."""
    path = tmp_path / "instances.manifest"
    write_atomic(path, "val_0000\nval_0001\n")
    with pytest.raises(UnicodeEncodeError):
        write_atomic(path, "val_0000\n\udcff\n")

    def torn(tmp):
        tmp.write_text("val_0")
        raise KeyboardInterrupt
    with pytest.raises(KeyboardInterrupt):
        replace_atomic([path], torn)
    assert path.read_text() == "val_0000\nval_0001\n"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_temps_keep_pid_and_suffix_and_rename_in_order(tmp_path,
                                                       monkeypatch):
    """Each path goes to ``<stem>.tmp.<pid><suffix>`` and is renamed in
    the order given; ``TEMP_NAME`` matches those names and not a user's
    ``results.tmp.csv`` or ``plan.tmpl``, nor the older temp forms."""
    seen, renamed = [], []
    real = os.replace

    def replace(src, dst):
        renamed.append(dst.name)
        real(src, dst)
    monkeypatch.setattr(os, "replace", replace)

    def write(*tmps):
        for tmp in tmps:
            seen.append(tmp.name)
            tmp.write_text("x")
    replace_atomic([tmp_path / "d" / name
                    for name in ("k.ply", "k.meta", "train_000001")], write)
    pid = os.getpid()
    assert seen == [f"k.tmp.{pid}.ply", f"k.tmp.{pid}.meta",
                    f"train_000001.tmp.{pid}"]
    assert renamed == ["k.ply", "k.meta", "train_000001"]
    assert all(TEMP_NAME.fullmatch(name) for name in seen)
    assert not [name for name in ("results.tmp.csv", "plan.tmpl", "k.ply",
                                  "config.echo.tmp", "train_0.tmp.k3j2h1ab")
                if TEMP_NAME.fullmatch(name)]


def test_failed_write_removes_its_temp_directory(tmp_path):
    def torn(tmp):
        tmp.mkdir()
        (tmp / "x.ply").write_bytes(b"ply\n")
        raise KeyboardInterrupt
    with pytest.raises(KeyboardInterrupt):
        replace_atomic([tmp_path / "train_000000"], torn)
    assert list(tmp_path.iterdir()) == []
