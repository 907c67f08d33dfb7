"""Config schemas: each key of a JSON config object has one row
``(default, reader, *args)``, and ``read_config`` reads them all."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

REQUIRED, OPTIONAL = "<required>", "<optional>"


def read_config(cfg, schema: dict, what: str = ""):
    """(merged, values) of the config object cfg, named ``what`` ("" at
    the top level), under its schema.  A row's default is a JSON value,
    REQUIRED or OPTIONAL; its reader is called as ``reader(value, dotted
    name, *args)`` and raises ConfigError on a value it refuses.
    ``merged`` is the defaults updated by cfg, the raw dict a config hash
    reads; ``values`` holds each key's read value, None for an absent
    OPTIONAL key.  A key the schema does not list is refused, so that a
    misspelt or retired key cannot run silently.
    """
    if not isinstance(cfg, dict):
        raise ConfigError(f"{what or 'config'} must be a JSON object")
    unknown = sorted(map(str, set(cfg) - set(schema)))
    if unknown:
        raise ConfigError(f"unknown config keys {', '.join(unknown)} in {what or 'config'} (known: {', '.join(schema)})")
    merged = {key: row[0] for key, row in schema.items() if row[0] not in (REQUIRED, OPTIONAL)}
    merged.update(cfg)
    values = dict.fromkeys(schema)
    for key, (default, reader, *args) in schema.items():
        if key in merged:
            values[key] = reader(merged[key], f"{what}.{key}" if what else key, *args)
        elif default == REQUIRED:
            raise ConfigError(f"{what or 'config'} needs '{key}'")
    return merged, values


def integer(value, what: str, lo: int, hi: int) -> int:
    """An integer in lo..hi.  A boolean, a string, or a non-integral or
    non-finite float (JSON has Infinity) is refused, not truncated."""
    if isinstance(value, bool) or not (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"{what} must be an integer")
    if not lo <= value <= hi:
        raise ConfigError(f"{what} must be in {lo}..{hi}")
    return int(value)


def power_of_two(value, what: str, hi: int) -> int:
    m = integer(value, what, 2, hi)
    if m & (m - 1):
        raise ConfigError(f"{what} must be a power of two >= 2")
    return m


def real(value, what: str) -> float:
    """A number as a float; NaN passes, so that a certification fails on it."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number")
    try:
        return float(value)
    except OverflowError as e:  # an integer beyond the largest double
        raise ConfigError(f"{what} is too large for a double") from e


def of_type(value, what: str, kind: type):
    if not isinstance(value, kind):
        raise ConfigError(f"{what} must be a JSON {'string' if kind is str else 'true or false'}")
    return value


def list_of(value, what: str, size, reader, *args) -> list:
    """A non-empty list, of exactly ``size`` entries unless size is None,
    each read by ``reader(entry, what, *args)``."""
    if not isinstance(value, list) or not value or size not in (None, len(value)):
        raise ConfigError(f"{what} must be a non-empty list" + (f" of {size}" if size else ""))
    return [reader(v, what, *args) for v in value]


def pair(value, what: str) -> complex:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{what} must be an [re, im] pair")
    return complex(real(value[0], what), real(value[1], what))


def pairs(value, what: str) -> np.ndarray:
    """A list of [re, im] pairs, possibly empty, as a complex array."""
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a list of [re, im] pairs")
    return np.array([pair(v, f"{what}[{i}]") for i, v in enumerate(value)], dtype=np.complex128)
