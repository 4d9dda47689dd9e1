"""The text-table reader of OFF, OBJ, text ``.corr``, prediction and
``.labels`` files: ``#`` comments and blank lines skipped, one
``np.loadtxt`` call per table, a bad row named by its line number."""

from __future__ import annotations

import warnings

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
    with warnings.catch_warnings():
        # numpy 1.x only warns, and truncates, on "1.5" in an integer column
        warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
        try:
            return np.loadtxt([text for _, text in rows], dtype,
                              usecols=usecols, ndmin=1)
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
