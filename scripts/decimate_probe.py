"""Wall time, peak RSS and output digest of ``decimate`` at paper scale.

Decimates a bumpy icosphere (seed 7) at 10242 -> 2500 and 40962 -> 10000
vertices (the paper remeshes to 9-10k vertices) and prints, per case, the
wall seconds of the ``decimate`` call, the process's peak RSS and the
sha256 over the output (vertices, faces, vertex map) bytes. Two trees that
print the same digests decimate alike. The peak RSS is the process's peak
so far; the cases run smallest first, so each line's figure is the peak
of its own case.

Usage: python3 scripts/decimate_probe.py
"""

import hashlib
import resource
import sys
import time
from pathlib import Path

import numpy as np

from shapecorr.decimate import decimate

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import bumpy_sphere  # noqa: E402

# (icosphere subdivision level, source vertex count, target vertex count)
CASES = ((5, 10242, 2500), (6, 40962, 10000))


def digest(out, keep):
    h = hashlib.sha256()
    for a, dtype in ((out.vertices, np.float64), (out.faces, np.int64),
                     (keep, np.int64)):
        h.update(np.ascontiguousarray(a, dtype=dtype).tobytes())
    return h.hexdigest()


def main():
    for level, n, target in CASES:
        mesh = bumpy_sphere(level, seed=7)
        t0 = time.perf_counter()
        out, keep = decimate(mesh, target)
        wall = time.perf_counter() - t0
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{n} -> {target}: {wall:.2f} s, peak RSS {rss:.0f} MB, "
              f"sha256 {digest(out, keep)}", flush=True)


if __name__ == "__main__":
    main()
