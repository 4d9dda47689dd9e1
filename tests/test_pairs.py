import re

import pytest

from shapecorr.config import GenerationConfig
from shapecorr.pairs import (ManifestError, ShapeRecord, SplitManifest,
                             combination_allows, default_split_manifest,
                             enumerate_pairs, parse_split_manifest,
                             write_split_manifest)


def toy_manifest():
    shapes = {}
    for i in range(4):
        shapes[f"big:{i}"] = ShapeRecord(f"big:{i}", "big", "big:c", "human")
    for i in range(3):
        shapes[f"small:{i}"] = ShapeRecord(f"small:{i}", "small", "small:c",
                                           "four-legged")
    pairs = {
        "train": [("big:0", "big:1"), ("big:0", "big:2"), ("big:1", "big:2"),
                  ("big:2", "big:3"), ("big:1", "big:3"),
                  ("small:0", "small:1"), ("small:1", "small:2")],
        "test": [("small:0", "small:2")],
    }
    return SplitManifest(shapes, pairs)


class TestEnumerate:
    def test_oversampling_balances_datasets(self):
        cfg = GenerationConfig(split="train", datasets=("faust", "scape",
                                                        "tosca", "kids",
                                                        "dt4d", "smal",
                                                        "shrec20"))
        specs = enumerate_pairs(toy_manifest_with_datasets(), cfg)
        counts = {}
        for s in specs:
            counts[s.dataset] = counts.get(s.dataset, 0) + 1
        # factor = ceil(5/2) = 3 for the small dataset
        assert counts == {"faust": 5, "smal": 6}

    def test_single_dataset_no_oversampling(self):
        m = toy_manifest()
        cfg = GenerationConfig(split="train", datasets=("faust",))
        # map toy datasets onto real names via a fresh manifest
        m2 = rename_dataset(m, {"big": "faust", "small": "smal"})
        specs = enumerate_pairs(m2, GenerationConfig(split="train",
                                                     datasets=("smal",)))
        assert len(specs) == 2  # base count, factor 1

    def test_indices_sequential_and_deterministic(self):
        m = rename_dataset(toy_manifest(), {"big": "faust", "small": "smal"})
        cfg = GenerationConfig(split="train")
        a = enumerate_pairs(m, cfg)
        b = enumerate_pairs(m, cfg)
        assert a == b
        assert [s.index for s in a] == list(range(len(a)))

    def test_combination_filter(self):
        m = rename_dataset(toy_manifest(), {"big": "faust", "small": "smal"})
        human = enumerate_pairs(m, GenerationConfig(split="train",
                                                    combinations="human"))
        assert {s.dataset for s in human} == {"faust"}
        fl = enumerate_pairs(m, GenerationConfig(split="train",
                                                 combinations="four-legged"))
        assert {s.dataset for s in fl} == {"smal"}

    def test_empty_selection_raises(self):
        m = rename_dataset(toy_manifest(), {"big": "faust", "small": "smal"})
        with pytest.raises(ManifestError):
            enumerate_pairs(m, GenerationConfig(split="val"))
        with pytest.raises(ManifestError):
            enumerate_pairs(m, GenerationConfig(split="train",
                                                datasets=("tosca",)))


def toy_manifest_with_datasets():
    return rename_dataset(toy_manifest(), {"big": "faust", "small": "smal"})


def rename_dataset(m, mapping):
    shapes = {sid: ShapeRecord(sid, mapping[r.dataset], r.category, r.type)
              for sid, r in m.shapes.items()}
    return SplitManifest(shapes, m.pairs)


class TestCombinationRules:
    def test_matrix(self):
        assert combination_allows("all", "human", "four-legged")
        assert combination_allows("human", "human", "human")
        assert not combination_allows("human", "human", "centaur")
        assert combination_allows("human_centaur", "human", "centaur")
        assert combination_allows("human_centaur", "centaur", "centaur")
        assert not combination_allows("human_centaur", "human", "four-legged")
        assert combination_allows("four-legged_centaur", "four-legged",
                                  "centaur")
        assert not combination_allows("four-legged", "four-legged", "centaur")

    def test_unknown_combination(self):
        with pytest.raises(ManifestError, match="unknown combination"):
            combination_allows("centaur", "centaur", "centaur")


class TestManifestIO:
    def test_roundtrip(self, tmp_path):
        m = toy_manifest()
        p = tmp_path / "split.manifest"
        write_split_manifest(m, p)
        again = parse_split_manifest(p)
        assert again.shapes == m.shapes
        assert again.pairs == m.pairs

    def test_unknown_shape_in_pair(self):
        with pytest.raises(ManifestError):
            SplitManifest({}, {"train": [("a", "b")]})

    def test_pair_may_precede_its_shapes(self, tmp_path):
        p = tmp_path / "split.manifest"
        p.write_text("pair train a b\n" + "".join(
            f"shape {s} dataset=faust category=c type=human\n" for s in "ab"))
        assert parse_split_manifest(p).pairs == {"train": [("a", "b")]}

    def test_bare_token_names_line_and_token(self, tmp_path):
        p = tmp_path / "split.manifest"
        p.write_text("# shapes\nshape a dataset=faust category=c type=human\n"
                     "shape b dataset=faust human\n")
        want = re.escape(f"{p}:3: expected key=value, got 'human'")
        with pytest.raises(ManifestError, match=want):
            parse_split_manifest(p)

    def test_unknown_shape_key_names_line_and_valid_keys(self, tmp_path):
        """A misspelt key used to load without a word."""
        p = tmp_path / "split.manifest"
        p.write_text("shape a dataset=faust category=c type=human\n"
                     "shape b dataset=faust category=c type=human typo=1\n")
        want = re.escape(f"{p}:2: unknown key 'typo'; valid: dataset, "
                         "category, type")
        with pytest.raises(ManifestError, match=want):
            parse_split_manifest(p)

    def test_repeated_shape_names_line(self, tmp_path):
        """A second ``shape a`` line used to replace the first one's dataset
        and category; repeated pair lines are kept."""
        p = tmp_path / "split.manifest"
        p.write_text("shape a dataset=faust category=c type=human\n"
                     "shape b dataset=faust category=c type=human\n"
                     "pair val a b\npair val a b\n"
                     "shape a dataset=scape category=d type=human\n")
        want = re.escape(f"{p}:5: shape a repeats an earlier line")
        with pytest.raises(ManifestError, match=want):
            parse_split_manifest(p)
        p.write_text("".join(p.read_text().splitlines(True)[:4]))
        assert parse_split_manifest(p).pairs == {"val": [("a", "b")] * 2}

    @pytest.mark.parametrize("line,message", [
        ("pair trian a b", "unknown split 'trian'; valid: train, val, test"),
        ("pair val a b extra tokens",
         "expected 'pair SPLIT A B', got 'pair val a b extra tokens'"),
        ("pair val a", "expected 'pair SPLIT A B', got 'pair val a'"),
        ("pair val a z", "val pair references unknown shape 'z'"),
    ])
    def test_bad_pair_line_names_line(self, tmp_path, line, message):
        """A misspelled split or a pair line of other than four tokens was
        stored or loaded silently; its pairs were never enumerated. An
        unknown id was reported without its line."""
        p = tmp_path / "split.manifest"
        p.write_text("shape a dataset=faust category=c type=human\n"
                     f"shape b dataset=faust category=c type=human\n{line}\n")
        with pytest.raises(ManifestError,
                           match=re.escape(f"{p}:3: {message}")):
            parse_split_manifest(p)


class TestDefaultManifest:
    def test_published_split_sizes(self):
        m = default_split_manifest()
        assert len(m.shapes) == 2543
        sizes = {}
        for split in ("train", "val", "test"):
            sizes[split] = len(enumerate_pairs(
                m, GenerationConfig(split=split)))
        assert sizes == {"train": 10185, "val": 137, "test": 142}

    def test_split_hygiene(self):
        m = default_split_manifest()
        assert not (m.categories("train") & m.categories("test"))

    def test_shape_type_totals(self):
        m = default_split_manifest()
        humanoid = sum(1 for r in m.shapes.values() if r.type == "human")
        assert humanoid == 496
        assert len(m.shapes) - humanoid == 2047
