"""Error types shared across the package, and the JSON file reader that maps
unreadable input onto them.

Two families matter operationally: ConfigError covers anything a user can fix
by editing a config, dataset, or flag (CLI exit code 1); NumericsError covers
degenerate or non-finite computations discovered at run time (CLI exit code 2).
"""

import json
from pathlib import Path


class TailPromptError(Exception):
    """Base class for all package errors."""


class ConfigError(TailPromptError, ValueError):
    """Invalid configuration, labels, counts, shapes, or CLI arguments."""


class NumericsError(TailPromptError, ArithmeticError):
    """Degenerate embeddings, infinite biases, or non-finite losses/gradients."""


def read_json(path, what: str):
    """The JSON document in the file at path. A missing or unreadable file
    and invalid JSON raise ConfigError, naming what the file should hold.
    NaN, Infinity and -Infinity, which json.loads takes by default, are not
    JSON (RFC 8259) and are refused the same way."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read {what} {path}: {reason}") from exc

    def refuse(constant: str):
        raise ConfigError(f"{what} {path} is not valid JSON: {constant} is not a JSON number")

    try:
        return json.loads(text, parse_constant=refuse)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
