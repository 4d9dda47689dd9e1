"""Content-addressed on-disk store behind the remesh and raycast caches.

An entry is one file ``<key><suffix>`` per suffix in the store's directory.
Every file is written under a temp name that keeps the suffix and is then
renamed into place; the last suffix is renamed last and marks the entry
complete. An entry that cannot be read is a miss, so it is recomputed and
written again. One directory takes one writer at a time.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path

import numpy as np

# np.load raises EOFError on an empty file and ValueError on a truncated one;
# the mesh and correspondence readers raise ValueError on torn files
UNREADABLE = (OSError, ValueError, EOFError)


class ContentStore:
    """Subclasses set ``suffixes`` and define ``key_parts(*args)``,
    ``read(paths, *args)`` and ``write(paths, value)``; ``use`` and
    ``update`` switch loading and storing."""

    suffixes = ()

    def __init__(self, directory, use=True, update=True):
        self.dir = Path(directory)
        self.use = use
        self.update = update

    def key(self, *args):
        h = hashlib.sha256()
        for part in self.key_parts(*args):
            h.update(part if isinstance(part, bytes)
                     else np.ascontiguousarray(part).tobytes())
        return h.hexdigest()[:24]

    def load(self, *args):
        if not self.use:
            return None
        key = self.key(*args)
        paths = [self.dir / (key + s) for s in self.suffixes]
        if not paths[-1].exists():
            return None
        try:
            return self.read(paths, *args)
        except UNREADABLE:
            return None

    def store(self, *args):
        """``store(*key_args, value)``."""
        if not self.update:
            return
        *key_args, value = args
        self.dir.mkdir(parents=True, exist_ok=True)
        key = self.key(*key_args)
        tmps = [self.dir / f"{key}.tmp.{os.getpid()}{s}"
                for s in self.suffixes]
        try:
            self.write(tmps, value)
            for s, tmp in zip(self.suffixes, tmps):
                os.replace(tmp, self.dir / (key + s))
        finally:
            for tmp in tmps:
                tmp.unlink(missing_ok=True)
