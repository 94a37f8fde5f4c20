"""Flat text configuration.

One `key = value` pair per line, `#` comments, every key optional. The
defaults reproduce the reference pipeline settings; anything unknown or
out of range is rejected so a typo cannot silently fall back.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .geometry import GripperModel


def _positive(x: float) -> bool:
    return math.isfinite(x) and x > 0.0


def _non_negative(x: float) -> bool:
    return math.isfinite(x) and x >= 0.0


def _at_least_one(x: int) -> bool:
    return x >= 1


def _anchor_choices(x: int) -> bool:
    return x in (6, 8)


# key -> (type, validator, range description)
_SCHEMA = {
    "finger_length": (float, _positive, "> 0"),
    "finger_thickness": (float, _positive, "> 0"),
    "finger_height": (float, _positive, "> 0"),
    "max_opening": (float, _positive, "> 0"),
    "base_depth": (float, _positive, "> 0"),
    "mu": (float, _positive, "> 0"),
    "distance_threshold": (float, _positive, "> 0"),
    "confidence_threshold": (float, _non_negative, ">= 0"),
    "region_count": (int, _at_least_one, ">= 1"),
    "region_size": (int, _at_least_one, ">= 1"),
    "anchor_count": (int, _anchor_choices, "6 or 8"),
    "region_radius": (float, _positive, "> 0"),
    "subsample_size": (int, _at_least_one, ">= 1"),
    "min_closing_points": (int, _non_negative, ">= 0"),
}


@dataclass(frozen=True)
class Config:
    """Pipeline settings; see _SCHEMA for the accepted ranges."""

    finger_length: float = 0.06
    finger_thickness: float = 0.01
    finger_height: float = 0.02
    max_opening: float = 0.08
    base_depth: float = 0.02
    mu: float = 0.6
    distance_threshold: float = 0.02
    confidence_threshold: float = 0.6
    region_count: int = 64
    region_size: int = 256
    anchor_count: int = 8
    region_radius: float | None = None  # None: half the max gripper dimension
    subsample_size: int = 20000
    min_closing_points: int = 50

    def gripper(self) -> GripperModel:
        return GripperModel(
            finger_length=self.finger_length,
            finger_thickness=self.finger_thickness,
            finger_height=self.finger_height,
            max_opening=self.max_opening,
            base_depth=self.base_depth,
        )

    def resolved_region_radius(self) -> float:
        if self.region_radius is not None:
            return self.region_radius
        return self.gripper().region_radius

    def lines(self) -> list[str]:
        """Echo every setting, resolved, as `key = value` lines."""
        out = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "region_radius" and value is None:
                value = self.resolved_region_radius()
            out.append(f"{f.name} = {value!r}")
        return out

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.lines()).encode()).hexdigest()


def parse_pairs(text: str, source: str = "<config>") -> dict[str, str]:
    """Raw `key = value` pairs from config text; later lines win."""
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got '{line}'")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got '{line}'")
        pairs[key] = value
    return pairs


def config_from_pairs(pairs: dict[str, str]) -> Config:
    kwargs = {}
    for key, raw in pairs.items():
        if key not in _SCHEMA:
            raise ConfigError(f"unknown key '{key}'")
        typ, check, valid = _SCHEMA[key]
        try:
            value = typ(raw)
        except ValueError:
            raise ConfigError(f"key '{key}': cannot parse '{raw}' as {typ.__name__}") from None
        if not check(value):
            raise ConfigError(f"key '{key}': value {value} out of range (valid: {valid})")
        kwargs[key] = value
    return Config(**kwargs)


def load_config(*paths, overrides=None) -> Config:
    """Parse config files left to right, later files winning per key (None
    paths are skipped; an empty file yields all defaults), then lay
    ``overrides`` (key -> value; None values are skipped) over them. The
    schema checks every merged pair alike."""
    pairs: dict[str, str] = {}
    for path in filter(None, paths):
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        pairs.update(parse_pairs(path.read_text(), source=str(path)))
    pairs.update((key, str(value)) for key, value in (overrides or {}).items() if value is not None)
    return config_from_pairs(pairs)
