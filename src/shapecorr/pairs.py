"""Split manifests and deterministic pair enumeration.

A split manifest declares every shape (dataset, category, type) and the
base pair lists per split. Enumeration filters by enabled datasets and the
requested type combination, then oversamples smaller datasets in the train
split so per-dataset pair counts are balanced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources

from .config import COMBINATIONS, SPLITS
from .textio import data_lines, key_values, write_atomic


class ManifestError(ValueError):
    pass


@dataclass(frozen=True)
class ShapeRecord:
    id: str
    dataset: str
    category: str
    type: str


@dataclass(frozen=True)
class PairSpec:
    index: int  # position in the emitted enumeration (seed derivation)
    split: str
    id_x: str
    id_y: str
    dataset: str


class SplitManifest:
    def __init__(self, shapes, pairs):
        self.shapes = dict(shapes)  # id -> ShapeRecord
        self.pairs = {s: list(p) for s, p in pairs.items()}  # split -> [(a,b)]
        for split, plist in self.pairs.items():
            for a, b in plist:
                for sid in (a, b):
                    if sid not in self.shapes:
                        raise ManifestError(
                            f"{split} pair references unknown shape {sid!r}")


def parse_split_manifest(path):
    """Shape and pair lines as a ``SplitManifest``; a malformed line, and
    a pair id that no shape line declares, raise ``ManifestError`` naming
    ``path:line``. Shape lines may follow the pairs that use them."""
    shapes, pairs, uses = {}, {}, []
    for lineno, line in data_lines(path):
        parts = line.split()
        try:
            if parts[0] == "shape":
                kv = key_values(parts[2:], ("dataset", "category", "type"))
                if parts[1] in shapes:
                    raise ManifestError(f"shape {parts[1]} repeats an "
                                        "earlier line")
                shapes[parts[1]] = ShapeRecord(
                    parts[1], kv["dataset"], kv["category"], kv["type"])
            elif parts[0] == "pair":
                if len(parts) != 4:
                    raise ManifestError(
                        f"expected 'pair SPLIT A B', got {line.strip()!r}")
                if parts[1] not in SPLITS:
                    raise ManifestError(f"unknown split {parts[1]!r}; "
                                        f"valid: {', '.join(SPLITS)}")
                pairs.setdefault(parts[1], []).append((parts[2], parts[3]))
                uses.append((lineno, parts[1], parts[2:]))
            else:
                raise ManifestError(f"unknown directive {parts[0]!r}")
        except (KeyError, IndexError, ValueError) as exc:
            raise ManifestError(f"{path}:{lineno}: {exc}") from None
    for lineno, split, ids in uses:
        for sid in ids:
            if sid not in shapes:
                raise ManifestError(f"{path}:{lineno}: {split} pair "
                                    f"references unknown shape {sid!r}")
    return SplitManifest(shapes, pairs)


def write_split_manifest(manifest, path):
    lines = ["# split manifest: shapes and base pair lists"]
    for rec in manifest.shapes.values():
        lines.append(f"shape {rec.id} dataset={rec.dataset} "
                     f"category={rec.category} type={rec.type}")
    for split in ("train", "val", "test"):
        for a, b in manifest.pairs.get(split, []):
            lines.append(f"pair {split} {a} {b}")
    write_atomic(path, "\n".join(lines) + "\n")


def default_split_manifest():
    """The shipped split manifest (packaged data file)."""
    with resources.as_file(resources.files("shapecorr").joinpath(
            "data/default_split.manifest")) as p:
        return parse_split_manifest(p)


def combination_allows(combination, type_a, type_b):
    if combination not in COMBINATIONS:
        raise ManifestError(f"unknown combination {combination!r}")
    allowed = COMBINATIONS[combination]
    return allowed is None or {type_a, type_b} <= allowed


def enumerate_pairs(manifest, config):
    """Deterministic pair list for config.split.

    Filters by enabled datasets and the type combination; in the train
    split, each dataset's pair list is repeated by
    ceil(max per-dataset count / own count) to balance dataset sizes.
    """
    split = config.split
    enabled = set(config.datasets)
    per_dataset = {}
    for a, b in manifest.pairs.get(split, []):
        ra, rb = manifest.shapes[a], manifest.shapes[b]
        if ra.dataset != rb.dataset:
            raise ManifestError(f"cross-dataset pair {a} / {b}")
        if ra.dataset not in enabled:
            continue
        if not combination_allows(config.combinations, ra.type, rb.type):
            continue
        per_dataset.setdefault(ra.dataset, []).append((a, b))
    if not per_dataset:
        raise ManifestError(
            f"empty selection for split={split!r}, "
            f"datasets={sorted(enabled)}, combinations={config.combinations}")
    if split == "train":
        top = max(len(v) for v in per_dataset.values())
        factors = {d: math.ceil(top / len(v)) for d, v in per_dataset.items()}
    else:
        factors = {d: 1 for d in per_dataset}
    out = []
    for dataset in sorted(per_dataset):
        for _ in range(factors[dataset]):
            for a, b in per_dataset[dataset]:
                out.append(PairSpec(len(out), split, a, b, dataset))
    return out
