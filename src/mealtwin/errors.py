"""Exception types shared across the package, and the reader of saved JSON."""

import json
from pathlib import Path
from typing import Callable, TypeVar

T = TypeVar("T")


class ConfigError(Exception):
    """Invalid configuration or input data (maps to CLI exit code 2)."""


class ContractError(RuntimeError):
    """A caller violated an internal API contract (e.g. applied a masked action)."""


class NumericalError(Exception):
    """Training or evaluation produced non-finite values (maps to CLI exit code 3)."""


def load_document(path: Path, schema: str, what: str, parse: Callable[[dict], T]) -> T:
    """`parse` of the JSON object saved at `path` under `schema`.  Any fault of
    the file or of its fields is a ConfigError naming `what` and the path."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except ValueError as exc:  # also a file that is not text
        raise ConfigError(f"{what} file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != schema:
        raise ConfigError(f"{what} file {path} must hold a JSON object of schema {schema!r}")
    try:
        return parse(doc)
    except ConfigError as exc:
        raise ConfigError(f"{what} file {path}: {exc}") from exc
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"{what} file {path} is malformed: {exc!r}") from exc


def whole(value, name: str) -> int:
    """A saved integer field: an int, or a float holding a whole number; not a
    boolean, string or fraction, which int() would take or truncate."""
    if type(value) is int or isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{name} {value!r} is not a whole number")


def number(value, name: str) -> float:
    """A saved real field: an int or a float; not a boolean or string, which
    float() would take."""
    if type(value) is float:
        return value
    if type(value) is int:
        return float(value)
    raise ConfigError(f"{name} {value!r} is not a number")
