"""Generation config: flat key=value file (see ``textio``), one option
per line.

Key names follow the pipeline's main configuration file one-to-one.
``original_settings=true`` activates hard assertions pinning every
science-affecting option to its published default.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass, field

from .textio import (FormatError, parse_bool, read_key_values,
                     write_key_values)

ALL_DATASETS = ("faust", "scape", "tosca", "kids", "dt4d", "smal", "shrec20")
# the shape types a pair may hold under each combinations value; None: any
COMBINATIONS = {
    "human": frozenset({"human"}),
    "four-legged": frozenset({"four-legged"}),
    "human_centaur": frozenset({"human", "centaur"}),
    "four-legged_centaur": frozenset({"four-legged", "centaur"}),
    "all": None,
}
SETTINGS = ("full_full", "partial_full", "partial_partial")
# angular disparity of the two scanner cameras per cam_pos_regime value
CAM_POS_REGIMES = {"low": math.pi / 8, "medium": math.pi / 4,
                   "high": math.pi / 2}
SPLITS = ("train", "val", "test")


class ConfigError(ValueError):
    def __init__(self, msg, known_keys=None):
        super().__init__(msg)
        self.known_keys = known_keys


@dataclass
class GenerationConfig:
    data_dir: str = "data"
    datasets: tuple = ALL_DATASETS
    combinations: str = "all"
    setting: str = "partial_partial"
    remesh: bool = True
    cam_pos_regime: str = "medium"
    store_vis: bool = False
    show_output: bool = False  # accepted for compatibility; no viewer here
    original_settings: bool = False
    use_precompute_remeshing: bool = True
    update_precomputed_remeshed: bool = True
    use_precomputed_partial_raycasting: bool = True
    update_precomputed_raycasting: bool = True
    one_axis_rotation: bool = True
    n_cam_pos: int = 10
    min_overlap: float = 0.1
    max_overlap: float = 0.9
    global_seed: int = 0
    resolution: tuple = (256, 256)
    count_range: tuple = (9000, 10000)
    split: str = "train"
    normalize_area: bool = False

    # options pinned by original_settings=true; operational knobs
    # (paths, seeds, caches, split selection, setting choice) stay free
    ASSERTED = ("datasets", "combinations", "remesh", "cam_pos_regime",
                "one_axis_rotation", "n_cam_pos", "min_overlap", "max_overlap",
                "resolution", "count_range", "normalize_area")

    def __post_init__(self):
        # tuple keys are stored as tuples, so a config made with lists
        # equals the one its echo reads back
        for key, (_, form) in _TUPLES.items():
            value = tuple(getattr(self, key))
            if form is not None and (len(value) != 2 or not all(
                    isinstance(v, numbers.Integral)
                    and not isinstance(v, bool) for v in value)):
                raise ConfigError(f"{key}: expected {form} (two integers), "
                                  f"got {getattr(self, key)!r}")
            setattr(self, key, value)
        self.validate()

    def validate(self):
        if self.combinations not in COMBINATIONS:
            raise ConfigError(
                f"combinations={self.combinations!r} not in "
                f"{tuple(COMBINATIONS)}")
        if self.setting not in SETTINGS:
            raise ConfigError(f"setting={self.setting!r} not in {SETTINGS}")
        if self.cam_pos_regime not in CAM_POS_REGIMES:
            raise ConfigError(
                f"cam_pos_regime={self.cam_pos_regime!r} not in "
                f"{tuple(CAM_POS_REGIMES)}")
        if self.split not in SPLITS:
            raise ConfigError(f"split={self.split!r} not in {SPLITS}")
        unknown = [d for d in self.datasets if d not in ALL_DATASETS]
        if unknown:
            raise ConfigError(f"unknown datasets {unknown}; valid: "
                              f"{ALL_DATASETS}")
        if not self.datasets:
            raise ConfigError("datasets must enable at least one dataset")
        if not 0 <= self.min_overlap < self.max_overlap <= 1:
            raise ConfigError("need 0 <= min_overlap < max_overlap <= 1")
        if not -2**63 <= self.global_seed < 2**63:
            # instance seeds derive from it as a signed 64-bit integer
            raise ConfigError(f"global_seed={self.global_seed} outside the "
                              "signed 64-bit range [-2**63, 2**63)")
        if self.n_cam_pos < 1:
            raise ConfigError("n_cam_pos must be >= 1")
        w, h = self.resolution
        if w < 1 or h < 1:
            raise ConfigError("resolution must be positive")
        lo, hi = self.count_range
        if not 4 <= lo <= hi:
            raise ConfigError(f"invalid count_range [{lo}, {hi}]")
        if self.original_settings:
            defaults = {f.name: f.default
                        for f in dataclasses.fields(GenerationConfig)}
            bad = [k for k in self.ASSERTED
                   if getattr(self, k) != defaults[k]]
            if bad:
                raise ConfigError(
                    "original_settings=true but non-default values for: "
                    + ", ".join(f"{k}={getattr(self, k)!r}" for k in bad))

    # --- serialization ---

    @classmethod
    def known_keys(cls):
        return [f.name for f in dataclasses.fields(cls)]

    @classmethod
    def from_mapping(cls, mapping):
        known = cls.known_keys()
        unknown = [k for k in mapping if k not in known]
        if unknown:
            raise ConfigError(
                f"unknown config keys: {', '.join(sorted(unknown))}",
                known_keys=known)
        kwargs = {}
        for f in dataclasses.fields(cls):
            if f.name not in mapping:
                continue
            kwargs[f.name] = _parse_value(f, mapping[f.name])
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path, overrides=None):
        try:
            mapping = read_key_values(path)
        except FormatError as exc:
            raise ConfigError(str(exc)) from None
        if overrides:
            mapping.update(overrides)
        return cls.from_mapping(mapping)

    def to_file(self, path):
        """Echo the fully-resolved config; re-loading reproduces it."""
        write_key_values(path, {
            f.name: _format_value(f.name, getattr(self, f.name))
            for f in dataclasses.fields(self)})


# tuple-valued keys: item separator, and the form a parse error names
# (None: a list of names rather than two integers)
_TUPLES = {"datasets": (",", None), "resolution": ("x", "WIDTHxHEIGHT"),
           "count_range": ("-", "LOW-HIGH")}


# a field's value type is the type of its default
def _parse_value(field, value):
    if not isinstance(value, str):
        return value
    key, kind = field.name, type(field.default)
    if kind is tuple:
        sep, form = _TUPLES[key]
        if form is None:
            if value.lower() == "all":
                return ALL_DATASETS
            return tuple(d.strip() for d in value.split(sep) if d.strip())
        try:
            a, b = value.lower().split(sep)
            return (int(a), int(b))
        except ValueError:
            raise ConfigError(f"{key}: expected {form} (two integers), got "
                              f"{value!r}") from None
    if kind in (bool, int, float):
        try:
            return parse_bool(value) if kind is bool else kind(value)
        except ValueError:
            raise ConfigError(f"{key}: expected {kind.__name__}, got "
                              f"{value!r}") from None
    return value


def _format_value(key, value):
    if key in _TUPLES:
        return _TUPLES[key][0].join(str(v) for v in value)
    return value
