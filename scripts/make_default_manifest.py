#!/usr/bin/env python3
"""Regenerate the shipped default split manifest.

The layout targets train/val/test sizes of 10185/137/142 after train-time
oversampling: per-dataset base train quotas are divisors of 1455, so every
dataset oversamples to exactly 1455 pairs and 7 x 1455 = 10185. Val/test
pairs come from categories never used in train.
"""

import itertools
from pathlib import Path

import numpy as np

from shapecorr.config import COMBINATIONS
from shapecorr.pairs import (ShapeRecord, SplitManifest, combination_allows,
                             write_split_manifest)

SEED = 20250824

# dataset -> list of (category, shape type, shape count, split)
LAYOUT = {
    "faust": [(f"subj{i:02d}", "human", 10, "train") for i in range(10)],
    "scape": [("person", "human", 71, "train")],
    "tosca": [
        ("david", "human", 15, "train"),
        ("michael", "human", 15, "train"),
        ("victoria", "human", 15, "train"),
        ("centaur", "centaur", 6, "train"),
        ("cat", "four-legged", 8, "train"),
        ("dog", "four-legged", 6, "train"),
        ("gorilla", "four-legged", 7, "val"),
        ("horse", "four-legged", 7, "test"),
        ("wolf", "four-legged", 3, "test"),
    ],
    "kids": [("kid1", "human", 16, "train"), ("kid2", "human", 16, "train")],
    "dt4d": (
        [(f"hum{i:02d}", "human", 31, "train") for i in range(8)]
        + [(f"anim{i:02d}", "four-legged", 60, "train") for i in range(30)]
        + [("animval0", "four-legged", 25, "val"),
           ("animval1", "four-legged", 25, "val"),
           ("animtest0", "four-legged", 50, "test"),
           ("animtest1", "four-legged", 50, "test")]
    ),
    "smal": [
        ("cow", "four-legged", 13, "train"),
        ("dog", "four-legged", 12, "train"),
        ("lion", "four-legged", 8, "val"),
        ("horse", "four-legged", 8, "test"),
        ("hippo", "four-legged", 8, "test"),
    ],
    "shrec20": [("menagerie", "four-legged", 11, "train")],
}

# base pair quotas; train entries are divisors of 1455 = 3 * 5 * 97
QUOTAS = {
    "train": {"faust": 291, "scape": 291, "tosca": 485, "kids": 97,
              "dt4d": 1455, "smal": 97, "shrec20": 15},
    "val": {"tosca": 20, "dt4d": 97, "smal": 20},
    "test": {"tosca": 22, "dt4d": 100, "smal": 20},
}


def build():
    rng = np.random.default_rng(SEED)
    shapes = {}
    by_split = {}  # (dataset, split) -> [shape ids]
    for dataset, cats in LAYOUT.items():
        counter = itertools.count()
        for cat, typ, count, split in cats:
            for _ in range(count):
                sid = f"{dataset}:{next(counter):04d}"
                shapes[sid] = ShapeRecord(sid, dataset, f"{dataset}:{cat}",
                                          typ)
                by_split.setdefault((dataset, split), []).append(sid)
    # a type pair is compatible when a combination narrower than "all"
    # admits it
    types = {rec.type for rec in shapes.values()}
    compatible = {frozenset((s, t)) for s in types for t in types
                  if any(combination_allows(c, s, t)
                         for c in COMBINATIONS if c != "all")}
    pairs = {}
    for split, quotas in QUOTAS.items():
        for dataset in sorted(quotas):
            pool = by_split[(dataset, split)]
            cands = [(a, b) for a, b in itertools.combinations(pool, 2)
                     if frozenset((shapes[a].type, shapes[b].type))
                     in compatible]
            quota = quotas[dataset]
            if quota > len(cands):
                raise SystemExit(f"{dataset}/{split}: quota {quota} exceeds "
                                 f"candidate pool {len(cands)}")
            pick = np.sort(rng.choice(len(cands), quota, replace=False))
            pairs.setdefault(split, []).extend(cands[i] for i in pick)
    return SplitManifest(shapes, pairs)


def main():
    out = Path(__file__).resolve().parents[1] / \
        "src/shapecorr/data/default_split.manifest"
    manifest = build()
    write_split_manifest(manifest, out)
    n_shapes = len(manifest.shapes)
    sizes = {s: len(p) for s, p in manifest.pairs.items()}
    print(f"wrote {out}: {n_shapes} shapes, base pairs {sizes}")


if __name__ == "__main__":
    main()
