import re

import numpy as np
import pytest

from shapecorr.config import ALL_DATASETS, ConfigError, GenerationConfig


def test_defaults_valid():
    cfg = GenerationConfig()
    assert cfg.datasets == ALL_DATASETS
    assert cfg.n_cam_pos == 10
    assert cfg.min_overlap == 0.1 and cfg.max_overlap == 0.9
    assert cfg.count_range == (9000, 10000)
    assert cfg.resolution == (256, 256)


def test_file_roundtrip(tmp_path):
    cfg = GenerationConfig(setting="partial_full", global_seed=42,
                           resolution=(64, 64), datasets=("faust", "smal"))
    p = tmp_path / "run.cfg"
    cfg.to_file(p)
    again = GenerationConfig.from_file(p)
    assert again == cfg


def test_parse_typed_values(tmp_path):
    p = tmp_path / "a.cfg"
    p.write_text("\n".join([
        "# comment line",
        "remesh=false",
        "n_cam_pos=7",
        "min_overlap=0.25",
        "resolution=128x96",
        "count_range=500-800",
        "datasets=faust,tosca",
    ]) + "\n")
    cfg = GenerationConfig.from_file(p)
    assert cfg.remesh is False
    assert cfg.n_cam_pos == 7
    assert cfg.min_overlap == 0.25
    assert cfg.resolution == (128, 96)
    assert cfg.count_range == (500, 800)
    assert cfg.datasets == ("faust", "tosca")


def test_bad_line_named_by_path_and_number(tmp_path):
    """Comments and blank lines count toward the line number; CRLF line
    ends read like LF ones."""
    p = tmp_path / "a.cfg"
    p.write_bytes(b"# comment\r\n\r\nglobal_seed=3  # inline\r\nbogus\r\n")
    want = re.escape(f"{p}:4: expected key=value, got 'bogus'")
    with pytest.raises(ConfigError, match=want):
        GenerationConfig.from_file(p)
    p.write_bytes(b"# comment\r\n\r\nglobal_seed=3  # inline\r\n")
    assert GenerationConfig.from_file(p).global_seed == 3


def test_overrides_win(tmp_path):
    p = tmp_path / "a.cfg"
    p.write_text("global_seed=1\nsetting=full_full\n")
    cfg = GenerationConfig.from_file(p, overrides={"global_seed": "9"})
    assert cfg.global_seed == 9
    assert cfg.setting == "full_full"


def test_unknown_key_lists_valid_keys():
    with pytest.raises(ConfigError) as exc:
        GenerationConfig.from_mapping({"frobnicate": "1"})
    assert "frobnicate" in str(exc.value)
    assert exc.value.known_keys is not None
    assert "min_overlap" in exc.value.known_keys


@pytest.mark.parametrize("kwargs", [
    {"setting": "bogus"},
    {"combinations": "bogus"},
    {"cam_pos_regime": "bogus"},
    {"split": "bogus"},
    {"datasets": ("bogus",)},
    {"datasets": ()},
    {"min_overlap": 0.9, "max_overlap": 0.1},
    {"n_cam_pos": 0},
    {"count_range": (2, 1)},
    # a non-integer item used to be echoed as 32.0x32, which the echo's
    # re-read then refused
    {"resolution": (32.0, 32)},
    {"resolution": (32, "32")},
    {"resolution": (32, True)},
    {"count_range": (500.5, 800)},
    {"count_range": (500, 800, 900)},
])
def test_invalid_values_rejected(kwargs):
    with pytest.raises(ConfigError):
        GenerationConfig(**kwargs)


def test_echo_reads_back_a_config_made_with_lists(tmp_path):
    """A library config made with lists used to differ from the tuples its
    own echo reads back, so a run could not resume its own tree."""
    cfg = GenerationConfig(datasets=["faust"], resolution=[32, 32],
                           count_range=[500, 800])
    assert (cfg.datasets, cfg.resolution, cfg.count_range) == (
        ("faust",), (32, 32), (500, 800))
    p = tmp_path / "config.echo"
    cfg.to_file(p)
    assert p.read_text().splitlines()[1:2] == ["datasets=faust"]
    assert GenerationConfig.from_file(p) == cfg


def test_numpy_numbers_echo_as_plain_numbers(tmp_path):
    """A numpy float used to be stored as given and echoed by its numpy
    ``repr``, ``min_overlap=np.float64(0.25)``, which the run's own
    resume refused."""
    cfg = GenerationConfig(min_overlap=np.float64(0.25),
                           n_cam_pos=np.int64(4),
                           resolution=(np.int64(64), 48))
    assert [type(v) for v in (cfg.min_overlap, cfg.n_cam_pos,
                              *cfg.resolution)] == [float, int, int, int]
    p = tmp_path / "config.echo"
    cfg.to_file(p)
    assert "min_overlap=0.25\n" in p.read_text()
    assert GenerationConfig.from_file(p) == cfg


@pytest.mark.parametrize("key,value,want", [
    ("resolution", 32, ConfigError),
    ("count_range", 500, ConfigError),
    ("resolution", "32x32", (32, 32)),
    ("datasets", "faust", ("faust",)),
    ("remesh", "no", False),
    ("remesh", 1, ConfigError),
    ("global_seed", 1.5, ConfigError),
    ("n_cam_pos", 2.5, ConfigError),
    ("n_cam_pos", "3", 3),
    ("min_overlap", "0.2", 0.2),
])
def test_python_values_take_the_file_rule(key, value, want):
    """A string made in Python is parsed as a file's text is; any other
    value must already have the key's type. These used to raise a bare
    TypeError, be split into letters, be stored as a truthy string, or
    truncate (a fractional seed wrote an echo its resume refused)."""
    if want is ConfigError:
        with pytest.raises(ConfigError, match=f"^{key}: expected "):
            GenerationConfig(**{key: value})
    else:
        got = getattr(GenerationConfig(**{key: value}), key)
        assert (type(got), got) == (type(want), want)


def test_text_and_typed_values_make_equal_configs():
    """``from_mapping`` of a file's text equals the constructor of the
    typed values, value types included."""
    text = {"remesh": "false", "store_vis": "yes", "n_cam_pos": "7",
            "min_overlap": "0.25", "max_overlap": "1", "resolution": "128x96",
            "count_range": "500-800", "datasets": "faust,tosca",
            "global_seed": str(-2**63), "setting": "full_full",
            "split": "test", "data_dir": "elsewhere"}
    typed = {"remesh": False, "store_vis": True, "n_cam_pos": 7,
             "min_overlap": 0.25, "max_overlap": 1.0, "resolution": (128, 96),
             "count_range": (500, 800), "datasets": ("faust", "tosca"),
             "global_seed": -2**63, "setting": "full_full", "split": "test",
             "data_dir": "elsewhere"}

    def typed_values(cfg):
        return [(type(v), v) for v in vars(cfg).values()]

    assert typed_values(GenerationConfig.from_mapping(text)) == \
        typed_values(GenerationConfig(**typed))
    assert typed_values(GenerationConfig.from_mapping({"datasets": "all"})) \
        == typed_values(GenerationConfig())


@pytest.mark.parametrize("seed", [2**63, -2**63 - 1, 10**30])
def test_seed_outside_int64_rejected(seed):
    """Instance seeds pack the global seed as a signed 64-bit integer; one
    outside that range failed every instance of a run, after its echo was
    written."""
    with pytest.raises(ConfigError, match="global_seed=.* outside the "
                       r"signed 64-bit range"):
        GenerationConfig.from_mapping({"global_seed": str(seed)})


@pytest.mark.parametrize("seed", [2**63 - 1, -2**63])
def test_seed_int64_bounds_accepted(seed):
    assert GenerationConfig(global_seed=seed).global_seed == seed


class TestOriginalSettings:
    def test_accepts_defaults(self):
        cfg = GenerationConfig(original_settings=True)
        assert cfg.original_settings

    def test_operational_knobs_stay_free(self):
        GenerationConfig(original_settings=True, global_seed=7,
                         split="test", setting="full_full",
                         data_dir="/elsewhere")

    def test_rejects_nondefault_named(self):
        with pytest.raises(ConfigError, match="n_cam_pos"):
            GenerationConfig(original_settings=True, n_cam_pos=3)
        with pytest.raises(ConfigError, match="min_overlap"):
            GenerationConfig(original_settings=True, min_overlap=0.2)
        with pytest.raises(ConfigError, match="cam_pos_regime"):
            GenerationConfig(original_settings=True, cam_pos_regime="high")


def test_every_bool_key_rejects_non_boolean():
    bool_keys = [k for k, v in vars(GenerationConfig()).items()
                 if isinstance(v, bool)]
    assert len(bool_keys) == 10
    for key in bool_keys:
        with pytest.raises(ConfigError, match=key):
            GenerationConfig.from_mapping({key: "maybe"})
