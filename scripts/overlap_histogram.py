"""Histogram of overlap fractions produced by the constrained pair sampler.

Samples partial-partial pairs from a bumpy sphere at each camera-disparity
regime and prints a text histogram of the directed overlap fractions, plus
the acceptance rate of the retry loop. Useful for sanity-checking regime
parameters before a long generation run.

Usage: python3 scripts/overlap_histogram.py [--pairs N] [--seed S]
                                             [--resolution R]
"""

import argparse

import numpy as np

from shapecorr.config import CAM_POS_REGIMES
from shapecorr.meshes import DenseCorrespondence, identity_correspondence
from shapecorr.scanning import generate_partial_pair

from pathlib import Path
import sys

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from shapes import bumpy_sphere  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--pairs", type=int, default=100)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--resolution", type=int, default=64)
    args = ap.parse_args(argv)

    mx = bumpy_sphere(3, seed=1, id="x")
    my = bumpy_sphere(3, seed=2, id="y")
    ic = identity_correspondence(mx)
    cxy = DenseCorrespondence("x", "y", ic.faces, ic.weights)
    cyx = DenseCorrespondence("y", "x", ic.faces, ic.weights)
    res = (args.resolution, args.resolution)

    for regime, alpha in CAM_POS_REGIMES.items():
        rng = np.random.default_rng(args.seed)
        fracs, iters, ok = [], [], 0
        for _ in range(args.pairs):
            _, _, st = generate_partial_pair(mx, my, cxy, cyx, rng, res,
                                             alpha, (0.1, 0.9), 10)
            fracs.extend([st.frac_x_to_y, st.frac_y_to_x])
            iters.append(st.iterations_used)
            ok += st.within_range
        counts, edges = np.histogram(fracs, bins=10, range=(0.0, 1.0))
        print(f"\nregime={regime} (alpha={alpha:.3f})  "
              f"accepted {ok}/{args.pairs}  "
              f"mean attempts {np.mean(iters):.2f}")
        for c, lo, hi in zip(counts, edges, edges[1:]):
            bar = "#" * int(round(40 * c / max(counts.max(), 1)))
            print(f"  [{lo:.1f}, {hi:.1f})  {c:4d}  {bar}")


if __name__ == "__main__":
    main()
