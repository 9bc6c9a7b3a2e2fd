"""Flat key=value run configuration.

A config file supplies defaults for CLI flags; explicit flags win.
Lines are `key = value`, blank lines and # comments ignored. Keys match
the long flag names; dashes are canonical but underscores are accepted.
The file to read is named by the DIMER_HYSTERESIS_CONFIG environment
variable; runs launched by wrapper scripts set it once instead of
repeating flags.
"""

from __future__ import annotations

import os

from .errors import ConfigError

ENV_VAR = "DIMER_HYSTERESIS_CONFIG"


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


# key -> caster applied to the raw string from the file
KNOWN_KEYS = {
    "r": float,
    "nu": float,
    "z0": float,
    "theta0": float,
    "T": float,
    "schedule": str,
    "eta-start": float,
    "eta-peak": float,
    "dt": float,
    "abs-tol": float,
    "rel-tol": float,
    "sample-stride": int,
    "grid": int,
    "eta-min": float,
    "eta-max": float,
    "steps": int,
    "r-min": float,
    "r-max": float,
    "tol": float,
    "hysteresis": _parse_bool,
    "plot": str,
    "out": str,
}


def canonical_key(raw: str) -> str:
    return raw.strip().replace("_", "-")


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse key=value lines into typed values, rejecting unknown keys."""
    values = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"{source}:{lineno}: expected key=value, got {line!r}")
        key_raw, val = line.split("=", 1)
        key = canonical_key(key_raw)
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = KNOWN_KEYS[key](val.strip())
        except ValueError as exc:
            raise ConfigError(
                f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def load_config(path: str | None = None) -> dict:
    """Read the config file named by `path` or the environment.

    Returns {} when neither names a file. A path that is set but
    unreadable is an error: silently ignoring it would mask typos.
    """
    if path is None:
        path = os.environ.get(ENV_VAR)
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    return parse_config_text(text, source=path)


def merge(file_values: dict, cli_values: dict) -> dict:
    """Overlay CLI values (not-None wins) onto file values."""
    out = dict(file_values)
    for key, val in cli_values.items():
        if val is not None:
            out[canonical_key(key)] = val
    return out
