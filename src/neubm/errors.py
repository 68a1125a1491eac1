"""Exception hierarchy, and the readers that turn a faulty input file into
one of these errors.

Every error carries a ``category`` used by the CLI to pick an exit code:
``config`` (2) for bad configuration or infeasible requests, ``data`` (3)
for malformed or inconsistent inputs, ``numeric`` (4) for runtime numeric
failures (divergence, degenerate references).

An error may name where in an input file it lies; its message then ends
with ``[file:line]`` (or ``[file]``). :func:`read_json`, :func:`read_lines`
and :func:`build` raise the error class their caller picks, so each input
file fails in one category: configs, checkpoints and records as
ConfigError, dataset and neutral directories and prediction CSVs as
DatasetParseError.
"""

import json
from pathlib import Path


class NeubmError(Exception):
    category = "data"

    def __init__(self, message="", file=None, line=None):
        if file is not None:
            message += f" [{file}" + (f":{line}" if line is not None else "") + "]"
        super().__init__(message)
        self.file = file
        self.line = line


class GraphValidationError(NeubmError):
    """Structural invariant of a graph violated (bad edge index, mask overlap...)."""

    category = "data"


class DatasetParseError(NeubmError):
    """Malformed input data file; names the offending file and line."""

    category = "data"


class EmptyScopeError(NeubmError):
    category = "data"


class DensityUndefinedError(NeubmError):
    """Edge density needs at least two nodes."""

    category = "data"


class InfeasibleError(NeubmError):
    """Request cannot be satisfied (split too small, total_nodes < classes...)."""

    category = "config"


class ConfigError(NeubmError):
    category = "config"


class ShapeError(NeubmError):
    category = "data"


class NumericError(NeubmError):
    category = "numeric"


class TrainingFailureError(NumericError):
    """Training diverged; carries the epoch index."""

    def __init__(self, message, epoch=None):
        super().__init__(message)
        self.epoch = epoch


class DegenerateReferenceError(NumericError):
    """Neutral reference unusable (e.g. zero spread for the normalize variant)."""


class DegenerateRowError(NumericError):
    """A probability row collapsed to all-zero after post-softmax clamping."""


EXIT_CODES = {"config": 2, "data": 3, "numeric": 4}


def _read_text(path, what, error) -> str:
    try:
        return Path(path).read_text()
    except (OSError, ValueError) as exc:  # missing, a directory, not UTF-8
        reason = getattr(exc, "strerror", None) or exc
        raise error(f"cannot read {what}: {reason}", file=path) from None


def read_json(path, what, error) -> dict:
    """The JSON object in the file ``path``. A file that is missing,
    unreadable, malformed or not an object raises ``error`` naming it."""
    try:
        value = json.loads(_read_text(path, what, error))
    except json.JSONDecodeError as exc:
        raise error(f"malformed {what}: {exc.msg}", file=path,
                    line=exc.lineno) from None
    if not isinstance(value, dict):
        raise error(f"{what} is not a JSON object", file=path)
    return value


def read_lines(path, what, error, parse) -> list:
    """``parse`` of each non-blank line of the text file ``path``, stripped.
    A file that cannot be read, or a ValueError from ``parse``, raises
    ``error`` naming the file (and the line)."""
    rows = []
    for lineno, line in enumerate(_read_text(path, what, error).splitlines(), 1):
        line = line.strip()
        if line:
            try:
                rows.append(parse(line))
            except ValueError as exc:
                raise error(f"malformed {what}: {exc}", file=path,
                            line=lineno) from None
    return rows


def build(name, cls, values, error, file=None):
    """``cls(**values)``. An unknown or missing key, ``values`` that are not
    a mapping, or a value ``cls`` rejects raise ``error`` naming the section
    ``name`` (and ``file``)."""
    try:
        return cls(**values)
    except (TypeError, NeubmError) as exc:
        raise error(f"section {name!r}: {exc}", file=file) from None
