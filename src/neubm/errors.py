"""Error classes, and the readers that turn a faulty input file into one
of them.

There is one class per CLI exit code, carried as ``exit_code``:
ConfigError (2) for bad configuration or infeasible requests, DataError (3)
for malformed or inconsistent inputs, NumericError (4) for runtime numeric
failures (divergence, degenerate references).

An error may name where in an input file it lies; its message then ends
with ``[file:line]`` (or ``[file]``). :func:`read_json`, :func:`read_lines`
and :func:`build` raise the error class their caller picks, so each input
file fails with one class: configs, checkpoints and records as
ConfigError, dataset and neutral directories and prediction CSVs as
DataError.
"""

import json
import math
from contextlib import suppress
from dataclasses import is_dataclass
from pathlib import Path
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np


class NeubmError(Exception):
    """Base of the three error classes; never raised itself."""

    exit_code: int

    def __init__(self, message="", file=None, line=None):
        if file is not None:
            message += f" [{file}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(message)
        self.file = file
        self.line = line


class ConfigError(NeubmError):
    """Bad configuration or an infeasible request (split too small...)."""

    exit_code = 2


class DataError(NeubmError):
    """Malformed or inconsistent input: a data file, a graph invariant, a
    shape mismatch, an empty selection."""

    exit_code = 3


class NumericError(NeubmError):
    """Runtime numeric failure: divergence, a degenerate reference, a
    collapsed probability row."""

    exit_code = 4


def _read_text(path, what, error) -> str:
    try:
        return Path(path).read_text()
    except (OSError, ValueError) as exc:  # missing, a directory, not UTF-8
        reason = getattr(exc, "strerror", None) or exc
        raise error(f"cannot read {what}: {reason}", file=path) from None


def read_json(path, what, error) -> dict:
    """The JSON object in the file ``path``. A file that is missing,
    unreadable, malformed, nested too deeply for the decoder or not an
    object raises ``error`` naming it."""
    text = _read_text(path, what, error)
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"malformed {what}: {exc.msg}", file=path,
                    line=exc.lineno) from None
    except RecursionError:
        raise error(f"malformed {what}: nested too deeply", file=path) from None
    if not isinstance(value, dict):
        raise error(f"{what} is not a JSON object", file=path)
    return value


def read_lines(path, what, error, parse) -> list:
    """``parse`` of each non-blank line of the text file ``path``, stripped.
    A file that cannot be read, or a ValueError or RecursionError (JSON
    nested too deeply) from ``parse``, raises ``error`` naming the file (and
    the line)."""
    rows = []
    for lineno, line in enumerate(_read_text(path, what, error).splitlines(), 1):
        line = line.strip()
        if line:
            try:
                rows.append(parse(line))
            except (ValueError, RecursionError) as exc:
                raise error(f"malformed {what}: {exc}", file=path,
                            line=lineno) from None
    return rows


def build(name, cls, values, error, file=None):
    """``cls(**values)``, each value checked first against the annotation of
    its field: a ``float`` takes an int or a finite float, kept as given; an
    ``int`` an int, never a bool; a ``tuple[X, ...]`` a list of X; an ``np.ndarray``
    a (nested) list of finite numbers; a dataclass, alone or in a union, a
    mapping, built the same way. Values that are not a mapping, an unknown or
    missing key, a value of the wrong type, or a value ``cls`` rejects raise
    ``error`` naming the section ``name`` (and ``file``)."""
    if not isinstance(values, dict):
        raise error(f"section {name!r} must be an object, got {values!r}", file=file)
    types = get_type_hints(cls)
    if unknown := sorted(set(values) - set(types)):
        raise error(f"section {name!r}: unknown keys {unknown}", file=file)
    typed = {key: _typed(key, types[key], v, error, file) for key, v in values.items()}
    for key, value in typed.items():
        if value is _WRONG:
            got = values[key]
            note = " (not finite)" if isinstance(got, float) and not finite(got) else ""
            raise error(f"section {name!r}: {key!r} must be {_describe(types[key])}, "
                        f"got {got!r}{note}", file=file)
    try:
        return cls(**typed)
    except (TypeError, NeubmError) as exc:
        raise error(f"section {name!r}: {exc}", file=file) from None


_WRONG = object()  # a value that does not fit its annotation


def _typed(key, tp, value, error, file):
    """``value`` as the field ``key``, annotated ``tp``, takes it, or _WRONG."""
    origin = get_origin(tp)
    if origin in (Union, UnionType):
        for arm in get_args(tp):
            if (typed := _typed(key, arm, value, error, file)) is not _WRONG:
                return typed
    elif origin is tuple:
        if isinstance(value, (list, tuple)):
            items = tuple(_typed(key, get_args(tp)[0], v, error, file) for v in value)
            if _WRONG not in items:
                return items
    elif tp is np.ndarray and isinstance(value, list):
        with suppress(TypeError, ValueError):  # ragged, or not numbers
            array = np.asarray(value, dtype=np.float64)
            if np.isfinite(array).all():  # a null reads as nan
                return array
    elif is_dataclass(tp) and isinstance(value, dict):
        return build(key, tp, value, error, file)
    elif not isinstance(value, bool) and (
            isinstance(value, tp) or tp is float and isinstance(value, int)):
        if tp is not float or finite(value):
            return value
    return _WRONG


def finite(number) -> bool:
    """Whether ``number`` is a finite float or an int in float's range, never
    a bool: JSON's NaN, Infinity, 1e999 and 400-digit ints all parse."""
    with suppress(TypeError, OverflowError):  # not a number, or past the range
        return not isinstance(number, bool) and math.isfinite(number)
    return False


def check_finite(config, *names) -> None:
    """Raise ConfigError naming the first field of ``names`` whose value in
    ``config`` is not a finite number."""
    for name in names:
        if not finite(value := getattr(config, name)):
            raise ConfigError(f"{name} must be a finite number, got {value}")


def check_seed(config) -> None:
    """Raise ConfigError if ``config.seed`` is negative, which numpy's
    generators reject: every seed field is checked where it is set."""
    if config.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {config.seed}")


def _describe(tp) -> str:
    if get_origin(tp) is tuple:
        return f"a list of {_describe(get_args(tp)[0])}"
    if get_args(tp):  # a union
        return " or ".join(_describe(arm) for arm in get_args(tp))
    return {type(None): "null", np.ndarray: "a list of numbers"}.get(tp, tp.__name__)
