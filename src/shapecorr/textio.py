"""The text-table reader of OFF, OBJ, text ``.corr``, prediction and
``.labels`` files: ``#`` comments and blank lines skipped, one
``np.loadtxt`` call per table, a bad row named by its line number. Also
the ``key=value`` codec: the token parser of the network and split
manifests, and the reader and writer of the flat files (the config and its
echo, ``meta.txt``, ``report.txt``, ``summary.txt``, remesh-cache ``.meta``
entries). ``replace_atomic`` is the one temp-then-rename of the package:
every file and directory a run writes goes to ``<stem>.tmp.<pid><suffix>``
beside its final name and is renamed into place; ``TEMP_NAME`` matches
those names and no others, so a resume sweeps only its own leftovers."""

from __future__ import annotations

import os
import re
import shutil
from pathlib import Path

import numpy as np


class FormatError(ValueError):
    """Parse failure of an input file, with its line number when known."""

    def __init__(self, path, message, line=None):
        loc = f"{path}:{line}" if line is not None else str(path)
        super().__init__(f"{loc}: {message}")
        self.path = str(path)
        self.line = line


def data_lines(path):
    """The (line number, text) pairs of the lines of ``path`` that hold
    data: ``#`` comments and blank lines are dropped."""
    with open(path, "r") as fh:
        lines = [line.split("#", 1)[0] for line in fh.read().split("\n")]
    return [(lineno, line) for lineno, line in enumerate(lines, start=1)
            if line and not line.isspace()]


def read_table(path, rows, what, dtype, usecols=None):
    """``rows`` ((line number, text) pairs) as a record array of ``dtype``,
    parsed by one ``np.loadtxt`` call; each row holds exactly the record's
    columns, or at least ``usecols``. Only on failure are the rows parsed
    one at a time, to name the first bad line."""
    if not rows:
        return np.empty(0, dtype)  # np.loadtxt warns on empty input
    try:
        return np.loadtxt([text for _, text in rows], dtype, usecols=usecols,
                          ndmin=1)
    except ValueError:
        for lineno, text in rows:
            try:
                np.loadtxt([text], dtype, usecols=usecols)
            except ValueError:
                raise FormatError(path, f"bad {what} line {text!r}",
                                  lineno) from None
        raise


def load_int_column(path):
    """One integer per line, as an (n,) int64 array: predictions, labels."""
    return read_table(path, data_lines(path), "value", [("v", "i8")])["v"]


def key_values(tokens, known=None):
    """``key=value`` tokens as a dict, key and value stripped; a later key
    wins. A token without ``=``, or a key outside ``known`` when that is
    given, raises ``ValueError``, which the manifest readers report with
    their path and line."""
    out = {}
    for tok in tokens:
        key, eq, value = tok.partition("=")
        if not eq:
            raise ValueError(f"expected key=value, got {tok.strip()!r}")
        key = key.strip()
        if known is not None and key not in known:
            raise ValueError(f"unknown key {key!r}; valid: {', '.join(known)}")
        out[key] = value.strip()
    return out


def read_key_values(path):
    """A flat ``key=value`` file as a dict of strings: ``#`` comments and
    blank lines are skipped, each line is read by ``key_values``. A line
    without ``=`` raises ``FormatError`` naming ``path:line``."""
    out = {}
    for lineno, text in data_lines(path):
        try:
            out.update(key_values([text]))
        except ValueError as exc:
            raise FormatError(path, str(exc), lineno) from None
    return out


def format_value(v):
    """``true``/``false`` for a bool, ``repr`` for a float (it reads back
    bit for bit), ``str`` for anything else."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


# the names ``replace_atomic`` writes to: stem, ``.tmp.``, pid, suffix
TEMP_NAME = re.compile(r".+\.tmp\.\d+(\.[^.]+)?")


def remove_path(path):
    """Delete ``path``, a file or a directory tree, if it exists."""
    if path.is_dir():
        shutil.rmtree(path, ignore_errors=True)
    else:
        path.unlink(missing_ok=True)


def replace_atomic(paths, write):
    """Call ``write(*tmps)`` with the temp name ``<stem>.tmp.<pid><suffix>``
    beside each of ``paths`` (all in one directory, which is made), then
    rename each temp onto its path in order, so the last path appears
    last. The writer makes each temp, a file or a directory. On any
    exception every temp is removed, so a write that fails leaves the
    previous files whole and no temp behind."""
    paths = [Path(p) for p in paths]
    tmps = [p.with_name(f"{p.stem}.tmp.{os.getpid()}{p.suffix}")
            for p in paths]
    paths[0].parent.mkdir(parents=True, exist_ok=True)
    try:
        write(*tmps)
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            remove_path(tmp)
        raise


def write_atomic(path, text):
    """Write ``text`` to ``path`` through ``replace_atomic``."""
    replace_atomic([path], lambda tmp: tmp.write_text(text))


def write_key_values(path, mapping):
    """``mapping`` as one ``key=value`` line per entry, in order, written
    by ``write_atomic``."""
    write_atomic(path, "".join(f"{k}={format_value(v)}\n"
                               for k, v in mapping.items()))


def parse_bool(text):
    """``true/1/yes/on`` or ``false/0/no/off``, in any case; anything else
    raises ``ValueError``."""
    low = text.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected boolean, got {text!r}")
