"""Generation config: flat key=value file (see ``textio``), one option
per line.

Key names follow the pipeline's main configuration file one-to-one.
``original_settings=true`` activates hard assertions pinning every
science-affecting option to its published default.

Every value, from a file, ``--set`` or Python, takes one path: a string is
parsed as a file's text is (``remesh="no"`` is ``False``); any other value
must already have its key's type (a bool is no int) and is stored as
given, a tuple key's as a tuple, and a number of another class (numpy's)
as the plain ``int`` or ``float`` it equals. Anything else is a
``ConfigError``.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass

from .textio import (FormatError, key_value_text, parse_bool,
                     read_key_values, write_atomic)

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
        for key in _DEFAULTS:
            setattr(self, key, _coerce(key, getattr(self, key)))
        self.validate()

    def validate(self):
        for key, choices in _CHOICES.items():
            if getattr(self, key) not in choices:
                raise ConfigError(
                    f"{key}={getattr(self, key)!r} not in {choices}")
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
            bad = [k for k in self.ASSERTED
                   if getattr(self, k) != _DEFAULTS[k]]
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
        return cls(**mapping)

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
        write_atomic(path, key_value_text({
            f.name: _format_value(f.name, getattr(self, f.name))
            for f in dataclasses.fields(self)}))


# a key's type is the type of its default
_DEFAULTS = {f.name: f.default for f in dataclasses.fields(GenerationConfig)}
# the keys whose value is one name of a table, and the names
_CHOICES = {"combinations": tuple(COMBINATIONS), "setting": SETTINGS,
            "cam_pos_regime": tuple(CAM_POS_REGIMES), "split": SPLITS}
# tuple-valued keys: item separator, item type, and what a value must be
_TUPLES = {"datasets": (",", str, "dataset names"),
           "resolution": ("x", int, "WIDTHxHEIGHT (two integers)"),
           "count_range": ("-", int, "LOW-HIGH (two integers)")}
# what a value of an int, float or str type may be besides that type; a
# bool is an int to Python, but not to a config
_WIDER = {int: numbers.Integral, float: numbers.Real, str: str}


def _has_type(kind, value):
    return type(value) is kind or (
        kind in _WIDER and isinstance(value, _WIDER[kind])
        and not isinstance(value, bool))


def _coerce(key, value):
    """``value`` as ``key``'s, by the module docstring's rule; a str key's
    value is kept as given, and ``validate`` checks it."""
    kind = type(_DEFAULTS[key])
    if kind is str:
        return value
    if kind is not tuple and _has_type(kind, value):
        # a plain int stays one, in a float key too; another number
        # (numpy's) becomes the builtin it equals, whose echo reads back
        return value if type(value) is int else kind(value)
    try:
        if kind is not tuple:
            if isinstance(value, str):
                return parse_bool(value) if kind is bool else kind(value)
        else:
            sep, item, _ = _TUPLES[key]
            if not isinstance(value, str):
                items = tuple(value)
            elif item is int:
                items = tuple(int(v) for v in value.lower().split(sep))
            elif value.lower() == "all":
                items = ALL_DATASETS
            else:
                items = tuple(d.strip() for d in value.split(sep) if d.strip())
            if (all(_has_type(item, v) for v in items)
                    and (item is str or len(items) == 2)):
                return tuple(map(item, items))
    except (TypeError, ValueError):
        pass
    expected = _TUPLES[key][2] if kind is tuple else kind.__name__
    raise ConfigError(f"{key}: expected {expected}, got {value!r}")


def _format_value(key, value):
    if key in _TUPLES:
        return _TUPLES[key][0].join(str(v) for v in value)
    return value
