"""The CLI's settings, declared once, and the key=value files that set them.

SETTINGS gives each setting's caster, default, help and choices; where
a library dataclass defines the default, the table reads it from there.
The CLI builds its flags from the table, a config file is parsed and
checked with it, and resolve gives a run's effective settings: the flag
if set, else the file's value, else the default.

Config lines are `key = value`, blank lines and # comments ignored.
Keys are the long flag names; dashes are canonical but underscores are
accepted. Values are checked as the flags are, and a bad one names its
file and line. The file to read is named by the DIMER_HYSTERESIS_CONFIG
environment variable; runs launched by wrapper scripts set it once
instead of repeating flags.
"""

from __future__ import annotations

import os
from typing import Any, Callable, NamedTuple, Optional

from .dynamics import IntegratorConfig
from .errors import ConfigError
from .model import SCHEDULE_KINDS, ModelParams, PhaseState

ENV_VAR = "DIMER_HYSTERESIS_CONFIG"


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


class _Setting(NamedTuple):
    cast: Callable[[str], Any]
    default: Any = None
    help: Optional[str] = None
    choices: Optional[tuple] = None

    def flag(self) -> dict:
        """argparse keywords for the setting's flag; an unset flag is None."""
        if self.cast is _parse_bool:
            return {"action": "store_true", "default": None, "help": self.help}
        return {"type": self.cast, "choices": self.choices, "help": self.help}


# one row per setting; cli's key tuples say which subcommand takes which
SETTINGS = {
    "r": _Setting(float, None, "nonlinearity power"),
    "nu": _Setting(float, ModelParams.nu, "damping constant"),
    "z0": _Setting(float, 0.01, "initial imbalance"),
    "theta0": _Setting(float, PhaseState.theta, "initial phase"),
    "T": _Setting(float, 4000.0, "schedule duration, the run's length in tau"),
    "schedule": _Setting(str, "triangular", "coupling schedule", SCHEDULE_KINDS),
    "eta-start": _Setting(float, -1.0, "coupling at tau = 0"),
    "eta-peak": _Setting(float, None, "triangular schedule's coupling at T/2"),
    "dt": _Setting(float, IntegratorConfig.dt, "initial step"),
    "abs-tol": _Setting(float, IntegratorConfig.abs_tol,
                        "absolute error bound per unit tau"),
    "rel-tol": _Setting(float, IntegratorConfig.rel_tol,
                        "relative error bound per unit tau"),
    "sample-stride": _Setting(int, IntegratorConfig.sample_stride,
                              "output samples per unit tau"),
    "out": _Setting(str, None, "output file (default stdout); bifurcate "
                    "also writes a JSON sidecar beside it"),
    "plot": _Setting(str, None, "also write an SVG plot here"),
    "grid": _Setting(int, 128, "|eta| bins for the hysteresis report"),
    "hysteresis": _Setting(_parse_bool, False, "run one hysteresis sweep"),
    "r-min": _Setting(float, None, "lower power of the threshold bracket"),
    "r-max": _Setting(float, None, "upper power of the threshold bracket"),
    "tol": _Setting(float, 1e-4, "threshold bisection tolerance"),
    "eta-min": _Setting(float, None, "|eta| lower bound"),
    "eta-max": _Setting(float, None, "|eta| upper bound"),
    "steps": _Setting(int, 500, "|eta| grid points"),
}


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse key=value lines into values checked as the flags are."""
    values = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(
                f"{source}:{lineno}: expected key=value, got {line!r}")
        key_raw, val = line.split("=", 1)
        key = key_raw.strip().replace("_", "-")
        if key not in SETTINGS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        setting = SETTINGS[key]
        try:
            value = setting.cast(val.strip())
            if setting.choices and value not in setting.choices:
                raise ValueError(f"invalid choice {value!r} (choose from "
                                 f"{', '.join(setting.choices)})")
        except ValueError as exc:
            raise ConfigError(
                f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
        values[key] = value
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


def resolve(file_values: dict, args, keys) -> dict:
    """Each key's flag if set, else its file value, else its default."""
    eff = {}
    for key in keys:
        flag = getattr(args, key.replace("-", "_"))
        eff[key] = flag if flag is not None else file_values.get(
            key, SETTINGS[key].default)
    return eff
