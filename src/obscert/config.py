"""Readers for JSON config fields.  Each checks one value and names the
field, by its path in the config, in the ConfigError it raises."""

from __future__ import annotations

import math

import numpy as np


class ConfigError(ValueError):
    """Scenario config failed validation; message carries the config path."""


def positive(value, where: str) -> float:
    try:
        if isinstance(value, bool):            # float(True) is 1.0
            raise TypeError
        v = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: expected a number, got {value!r}") from None
    if not (v > 0) or not math.isfinite(v):
        raise ConfigError(f"{where}: must be positive and finite, got {v}")
    return v


def positive_int(value, where: str) -> int:
    v = positive(value, where)
    if not v.is_integer():
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return int(v)


def numbers(value, where: str, finite: bool = True) -> np.ndarray:
    """value as a float array: never NaN, and without +-inf when ``finite``."""
    try:
        v = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{where}: expected numbers, got {value!r}") from None
    if np.isnan(v).any() or (finite and not np.isfinite(v).all()):
        raise ConfigError(f"{where}: must be {'finite' if finite else 'numbers, not NaN'}, "
                          f"got {value!r}")
    return v


def vec(value, dim: int, where: str) -> np.ndarray:
    v = numbers(value, where).reshape(-1)
    if v.size != dim:
        raise ConfigError(f"{where}: expected {dim} component(s), got {v.size}")
    return v


def known_fields(obj, fields, where: str) -> dict:
    """obj, checked to be an object whose every key is in ``fields``."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: must be an object")
    for key in obj:
        if key not in fields:
            raise ConfigError(f"{where}.{key}: unknown field (expected one of "
                              f"{sorted(fields)})")
    return obj
