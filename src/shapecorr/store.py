"""Content-addressed on-disk store behind the remesh and raycast caches.

An entry is one file ``<key><suffix>`` per suffix in the store's directory,
written by one ``textio.replace_atomic`` call: ``write`` writes each file
in place at its temp name ``<key>.tmp.<pid><suffix>``, and each is renamed
once, the last suffix last, so that file marks the entry complete. An entry that cannot be read
is a miss, so it is recomputed and written again. One directory takes one
writer at a time.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .textio import replace_atomic

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
        key = self.key(*key_args)
        replace_atomic([self.dir / (key + s) for s in self.suffixes],
                       lambda *tmps: self.write(tmps, value))
