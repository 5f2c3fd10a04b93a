"""Workspace configuration.

A workspace file is plain `key = value` text (# comments, blank lines
ignored), each key set at most once. Its path comes from the
HERA_WORKSPACE environment variable.
Command-line flags always win over workspace values, which win over
built-in defaults.
"""

from __future__ import annotations

import math
import os

from .errors import UsageError, excerpt

ENV_VAR = "HERA_WORKSPACE"

# Built-in defaults shared by a stage and the help text of its flag.
DEFAULT_COUNT_WINDOW = 100
DEFAULT_BENIGN_LABEL = "Benign"

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def parse_config_text(text: str, origin: str = "<config>") -> dict[str, str]:
    values: dict[str, str] = {}
    lines: dict[str, int] = {}  # each key's line
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{origin}:{line_number}: expected key=value, got {excerpt(raw)}")
        key = key.strip()
        if key in lines:
            raise UsageError(f"{origin}:{line_number}: key {excerpt(key)} is already set "
                             f"on line {lines[key]}")
        lines[key] = line_number
        values[key] = value.strip()
    return values


def load_workspace(environ=None) -> dict[str, str]:
    env = os.environ if environ is None else environ
    path = env.get(ENV_VAR)
    if not path:
        return {}
    try:  # utf-8-sig: a leading byte-order mark is not part of the first key
        with open(path, "r", encoding="utf-8-sig") as fp:
            text = fp.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read workspace file {path!r}: {exc}") from exc
    return parse_config_text(text, origin=path)


class Settings:
    """Flag-over-config-over-default resolution for one command.

    `flags` maps a setting's name to the flag that sets it, for error
    messages; a setting it does not name is set by `--name-with-dashes`."""

    def __init__(self, args, config: dict[str, str], flags: dict[str, str] | None = None):
        self._args = args
        self._config = config
        self._flags = flags or {}

    def _flag(self, name):
        return getattr(self._args, name, None)

    def origin(self, name: str) -> str:
        """What set `name`: its flag, or else its workspace key."""
        if self._flag(name) is None:
            return f"config key {name}"
        return self._flags.get(name, "--" + name.replace("_", "-"))

    def text(self, name: str, default: str | None = None) -> str | None:
        value = self._flag(name)
        if value is not None:
            return value
        return self._config.get(name, default)

    def number(self, name: str, default: float | None) -> float | None:
        value = self.text(name)
        if value is None:
            return default
        try:
            number = float(value)
        except (TypeError, ValueError):
            number = math.nan
        if not math.isfinite(number):
            raise UsageError(f"{self.origin(name)} expects a finite number, got {excerpt(value)}")
        return number

    def flag(self, name: str, default: bool = False) -> bool:
        value = self._flag(name)
        if value is not None:
            return bool(value)
        raw = self._config.get(name)
        if raw is None:
            return default
        lowered = raw.lower()
        if lowered in _TRUE:
            return True
        if lowered in _FALSE:
            return False
        raise UsageError(f"config key {name} expects a boolean, got {excerpt(raw)}")

    def paths(self, name: str) -> list[str]:
        value = self._flag(name)
        if value:
            return list(value)
        raw = self._config.get(name)
        return raw.split() if raw else []
