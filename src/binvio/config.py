"""Pipeline configuration: sectioned defaults, key=value files, overrides.

A section is the config type its consumer runs with: ``tracker`` is
``tracker.TrackerConfig``, ``filter`` is ``msckf.FilterConfig`` and ``noise``
is an ``imu.NoiseParams``, so each setting has one definition and one
default.  The on-disk format is flat ``section.key = value`` lines; every
field can be overridden from a file or from CLI flags of the same dotted
name.  A value parses by its field's type (bool, int, float, str, or an enum
by its value), and the section is rebuilt around it, so the section's own
validation rejects a bad value as it is read.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass, field
from pathlib import Path

from .emulator import MAX_EDGE_THRESHOLD, MAX_FLIP_RATE
from .imu import NoiseParams
from .msckf import FilterConfig
from .tracker import TrackerConfig


class ConfigInvalid(ValueError):
    """A config file or override failed to parse or validate."""


@dataclass
class EmulatorSection:
    edge_threshold: float = 80.0
    fast_threshold: float = 20.0
    noise_flip_rate: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.edge_threshold <= MAX_EDGE_THRESHOLD:
            raise ValueError(f"edge_threshold must be in (0, {MAX_EDGE_THRESHOLD}]")
        if not self.fast_threshold >= 0.0:
            raise ValueError("fast_threshold must be >= 0")
        if not 0.0 <= self.noise_flip_rate <= MAX_FLIP_RATE:
            raise ValueError(f"noise_flip_rate must be in [0, {MAX_FLIP_RATE}]")


@dataclass(frozen=True)
class NoiseSection(NoiseParams):
    """The IMU noise the filter assumes, unless the dataset's manifest states its own."""

    from_manifest: bool = True


@dataclass
class RunSection:
    seed: int = 0


@dataclass
class PipelineConfig:
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    filter: FilterConfig = field(default_factory=FilterConfig)
    emulator: EmulatorSection = field(default_factory=EmulatorSection)
    noise: NoiseSection = field(default_factory=NoiseSection)
    run: RunSection = field(default_factory=RunSection)

    def apply_override(self, dotted_key: str, raw_value: str) -> None:
        key = dotted_key.replace("-", "_")
        if "." not in key:
            raise ConfigInvalid(f"override {dotted_key!r} must be section.key")
        section_name, field_name = key.split(".", 1)
        if section_name not in {f.name for f in dataclasses.fields(self)}:
            raise ConfigInvalid(f"unknown config section {section_name!r}")
        section = getattr(self, section_name)
        types = typing.get_type_hints(type(section))
        if field_name not in types:
            raise ConfigInvalid(f"unknown config key {dotted_key!r}")
        try:
            value = _parse_value(types[field_name], raw_value.strip())
            setattr(self, section_name, dataclasses.replace(section, **{field_name: value}))
        except ValueError as e:
            raise ConfigInvalid(f"bad value for {dotted_key!r}: {e}") from e


def _parse_value(kind: type, raw: str):
    if kind is bool:
        low = raw.lower()
        if low not in ("true", "false", "1", "0", "yes", "no", "on", "off"):
            raise ValueError(f"not a boolean: {raw!r}")
        return low in ("true", "1", "yes", "on")
    value = kind(raw)  # int, float and str by construction, an enum by its value
    if kind is float and not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


def parse_config_text(text: str, base: PipelineConfig | None = None) -> PipelineConfig:
    cfg = base if base is not None else PipelineConfig()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigInvalid(f"line {lineno}: expected key = value, got {line!r}")
        key, value = line.split("=", 1)
        cfg.apply_override(key.strip(), value.strip())
    return cfg


def load_config(path) -> PipelineConfig:
    p = Path(path)
    if not p.exists():
        raise ConfigInvalid(f"config file not found: {p}")
    return parse_config_text(p.read_text())
