"""Exception hierarchy, the checks every input reader shares, and the
readers of input files and JSON objects. CLI exit codes: validation errors
map to 2, numerical/solver failures to 3."""

import json
import reprlib
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np


class ExoloadError(Exception):
    """Base class for all package errors."""


class ValidationError(ExoloadError):
    """Malformed input, schema violation, or inconsistent configuration."""


class FrameError(ValidationError):
    """A validation error about one frame of a trajectory: ``frame`` lets a
    file reader name the row the frame came from."""

    def __init__(self, message: str, frame: int | None = None) -> None:
        super().__init__(message)
        self.frame = frame


class NumericalError(ExoloadError):
    """A computation failed to produce a usable result."""


class SolverError(NumericalError):
    """The QP solver did not converge."""


@contextmanager
def prefixed(prefix: object):
    """Re-raise package errors with ``prefix`` in front of the message,
    keeping their type and so the exit code."""
    try:
        yield
    except ExoloadError as exc:
        raise type(exc)(f"{prefix}: {exc}") from exc


@contextmanager
def open_input(path: str | Path, mode: str = "r"):
    """Open a user-supplied input, turning OS errors, and text that is not
    UTF-8, into validation errors."""
    try:
        fh = open(path, mode) if "b" in mode else open(path, mode, encoding="utf-8", newline="")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text: {exc}") from None


def _unique_members(pairs: list[tuple[str, object]]) -> dict:
    members = dict(pairs)
    if len(members) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValidationError(f"repeated key {key!r}")
            seen.add(key)
    return members


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_members)  # one for every input and line


def parse_json(text: str, where: object) -> object:
    """One JSON document of an input, decoded as ``json.loads`` decodes it,
    except that an object stating a key twice is an error naming ``where``
    and the key, where ``json`` would keep the last value."""
    try:
        if text.startswith("\ufeff"):  # the check json.loads makes before decoding
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{where}: invalid JSON: {exc}") from None
    except ValidationError as exc:  # a repeated key
        raise ValidationError(f"{where}: {exc}") from None


def load_json_file(path: str | Path) -> object:
    """JSON input with structured errors for unreadable files, bad syntax
    and repeated keys."""
    with open_input(path) as fh:
        text = fh.read()
    return parse_json(text, path)


def require_finite(values, where: str) -> None:
    """Reject NaN and Inf, naming ``where`` and the first index (along axis 0)
    that holds one."""
    bad = ~np.isfinite(np.asarray(values, dtype=float))
    if bad.any():
        raise ValidationError(f"{where}: non-finite value at index {int(np.argwhere(bad)[0][0])}")


def sample_period(times: np.ndarray) -> float:
    """The sample period of two or more timestamps: their span over the
    number of spacings. Stamps rounded to a step move it by at most that step
    over the number of spacings; a median spacing can move by the whole step."""
    return float(times[-1] - times[0]) / (len(times) - 1)


def uniform_spacing(times: np.ndarray, tolerance: float) -> float:
    """The sample period of evenly spaced finite timestamps: the time-base
    rule of captures and biosignal files. A ``FrameError`` names the frame
    that breaks it: the last of fewer than two, the first that does not follow
    the one before it, or the one spaced furthest from ``sample_period``, if
    by more than ``tolerance`` of it."""
    n = len(times)
    if n < 2:
        raise FrameError(f"need at least two samples, got {n}", n - 1 if n else None)
    dt = np.diff(times)
    bad = np.nonzero(dt <= 0.0)[0]
    if bad.size:
        k = int(bad[0]) + 1
        raise FrameError(f"timestamps must strictly increase: frame {k} at {float(times[k])!r} s", k)
    nominal = sample_period(times)
    deviation = np.abs(dt - nominal)
    k = int(np.argmax(deviation))
    if deviation[k] > tolerance * nominal:
        raise FrameError(
            f"frame spacing at frame {k + 1} is {float(dt[k])!r} s, more than {tolerance:.0%} off the mean "
            f"spacing {nominal!r} s: the time base is not uniform",
            k + 1,
        )
    return nominal


def finite_number(value: object) -> float | None:
    """A JSON number that is not a bool, as a finite float; ``None`` for
    anything else, a NaN, an infinity or an integer beyond the float range
    included."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    # abs(value) compares exactly, so a huge integer is never converted
    return float(value) if abs(value) <= sys.float_info.max else None


REQUIRED = object()  # the default of a field that must be present
KIND_NAMES = {
    float: "a finite number",
    int: "an integer",
    str: "a string",
    bool: "true or false",
    list: "a list",
    dict: "an object",
}


class JsonFields:
    """A decoded JSON object read one field at a time: the one place that
    decides which JSON values a field accepts. A field read as ``float`` is a
    finite number (never a bool), ``int`` an integer (never a bool), ``str``
    a string, ``bool`` a JSON bool, ``list`` a list, and ``dict`` a nested
    object, itself read as a ``JsonFields``. A rejection is a
    ``ValidationError`` naming ``where`` and the dotted field, as in
    ``config.json: profile.height_m must be a finite number, got True``."""

    def __init__(self, value: object, where: str | Path, prefix: str = "") -> None:
        if not isinstance(value, dict):
            raise ValidationError(f"{where}: expected a JSON object, got {type(value).__name__}")
        self.data, self.where, self.prefix = value, where, prefix
        self.read: set[str] = set()
        self.children: list[JsonFields] = []

    def get(self, key: str, kind: type, default: object = REQUIRED, positive: bool = False):
        """Field ``key`` as ``kind``, or ``default`` when it is missing.
        ``null`` reads as ``None`` where the default is ``None``. With
        ``positive``, a number must be above zero."""
        self.read.add(key)
        value = self.data.get(key, default)
        if value is REQUIRED:
            raise ValidationError(f"{self.where}: missing field {self.prefix}{key}")
        if value is None and default is None:
            return None
        value = self._check(value, kind, self.prefix + key)
        if positive and not value > 0:
            raise ValidationError(f"{self.where}: {self.prefix}{key} must be positive, got {value!r}")
        return value

    def get_list(self, key: str, kind: type, default: object = REQUIRED) -> list:
        """Field ``key`` as a list whose every element is ``kind``."""
        name = self.prefix + key
        return [self._check(v, kind, f"{name}.{i}") for i, v in enumerate(self.get(key, list, default))]

    def entries(self, kind: type) -> dict:
        """Every field, each one ``kind``: the object read as a map."""
        return {key: self.get(key, kind) for key in self.data}

    def reject_unread(self) -> None:
        """Reject a field no read asked for, here or in an object read from
        here, so that a misspelled setting is an error, not a default."""
        unknown = [self.prefix + key for key in self.data if key not in self.read]
        if unknown:
            raise ValidationError(f"{self.where}: unknown field(s) {', '.join(unknown)}")
        for child in self.children:
            child.reject_unread()

    def _check(self, value: object, kind: type, name: str):
        if kind is float:
            number = finite_number(value)
            if number is not None:
                return number
        elif isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
            if kind is dict:
                self.children.append(JsonFields(value, self.where, name + "."))
                return self.children[-1]
            return value
        raise ValidationError(f"{self.where}: {name} must be {KIND_NAMES[kind]}, got {reprlib.repr(value)}")
