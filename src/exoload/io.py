"""File formats: motion capture CSV, annotation JSON, EMG/ECG CSV, response
JSONL, joint-trajectory CSV, plus deterministic CSV/JSON writers and input
hashing for the run manifest.

Numeric CSV output uses the shortest round-trip float representation, UTF-8
and LF line endings, so byte-identical reruns are a meaningful contract.

Motion CSV layout: a ``time_s`` column followed by seven columns per segment
named ``<segment>_px, _py, _pz, _qw, _qx, _qy, _qz`` (world position in m,
unit quaternion scalar-first). An optional ``com`` pseudo-segment carries the
whole-body CoM track.
"""

from __future__ import annotations

import csv
import hashlib
import json
import lzma
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .biosignals import EcgRecord, EmgRecord
from .errors import (
    FrameError,
    JsonFields,
    ValidationError,
    load_json_file,
    open_input,
    parse_json,
    prefixed,
    uniform_spacing,
)
from .posture import AnnotationSegment, TrialAnnotation
from .retarget import CapturedTrajectory, SegmentTrack
from .skeleton import JointConfiguration, SkeletonModel
from .surveys import ResponseSet, parse_response

SIGNAL_JITTER_TOL = 0.01  # EMG/ECG sample spacing, relative to the sample period
POSE_SUFFIXES = ("px", "py", "pz", "qw", "qx", "qy", "qz")


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open_input(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def format_value(value: object) -> str:
    # np.float64 subclasses float, so coerce before repr
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (np.integer,)):
        return str(int(value))
    return str(value)


@contextmanager
def _open_output(path: str | Path):
    """An output file opened for writing. An OS error while opening or
    writing it, such as a directory at its path, is a validation error
    naming it."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from exc


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]] | np.ndarray) -> None:
    """A CSV table, each cell as ``format_value`` writes it. The rows of a
    float array are joined from the ``repr`` of the plain floats of one
    ``tolist()``, which is what ``format_value`` gives and which never
    needs quoting."""
    with _open_output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if isinstance(rows, np.ndarray) and rows.dtype.kind == "f":
            fh.writelines(",".join(map(repr, row)) + "\n" for row in rows.tolist())
            return
        for row in rows:
            writer.writerow([format_value(v) for v in row])


def write_json(path: str | Path, payload: object) -> None:
    with _open_output(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_header(reader, path: str | Path) -> list[str]:
    """The stripped header cells, each naming one column."""
    header = next(reader, None)
    if header is None:
        raise ValidationError(f"{path}: empty file")
    header = [h.strip() for h in header]
    if len(set(header)) < len(header):
        repeated = next(h for k, h in enumerate(header) if h in header[:k])
        raise ValidationError(f"{path}: column {repeated!r} appears twice in the header")
    return header


def _records(path: str | Path) -> tuple[list[str], list[tuple[int, list[str]]]]:
    """The header and every non-blank record of a CSV file as ``csv`` splits
    them, each record with the file line it starts on."""
    with open_input(path) as fh:
        reader = csv.reader(fh)
        header = _read_header(reader, path)
        records, line = [], reader.line_num
        for row in reader:
            if row:
                records.append((line + 1, row))
            line = reader.line_num
    return header, records


def _record(path: str | Path, k: int) -> tuple[int, list[str]]:
    """Data row ``k`` as ``(file line, cells)``, blank lines counted: for
    error messages only, as it reads the file again."""
    return _records(path)[1][k]


def _parse_float(text: str, path: str | Path, line: int, column: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"{path}: row {line}: column {column!r}: not a number: {text!r}") from None


def _parse_cells(path: str | Path) -> np.ndarray:
    """A CSV body cell by cell, split by ``csv`` and converted by ``float``:
    the path of a body the bulk pass refuses. It names the first record with
    the wrong cell count or the first cell that is not a number, or accepts
    what ``float`` accepts and numpy does not, such as ``1_0``."""
    header, records = _records(path)
    for line, row in records:
        if len(row) != len(header):
            raise ValidationError(f"{path}: row {line}: expected {len(header)} cells, got {len(row)}")
    cells = [
        [_parse_float(cell, path, line, header[j]) for j, cell in enumerate(row)] for line, row in records
    ]
    return np.array(cells, dtype=float).reshape(len(records), len(header))


def _read_table(path: str | Path) -> tuple[list[str], np.ndarray]:
    """The header and body of a numeric CSV file: a header whose first
    column is ``time_s``, one data row per non-blank record, one cell per
    column, every value finite. Errors name the file line. The body converts
    in one C pass (``np.loadtxt`` on the path, which it reads in chunks),
    which gives the doubles ``float`` gives; a body it refuses goes through
    ``_parse_cells``."""
    with open_input(path) as fh:
        reader = csv.reader(fh)
        header = _read_header(reader, path)
        if header[:1] != ["time_s"]:  # the cell's repr shows a byte-order mark
            raise ValidationError(f"{path}: first column must be 'time_s', got {''.join(header[:1])!r}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # an empty body
                data = np.loadtxt(
                    path,
                    delimiter=",",
                    quotechar='"',
                    comments=None,
                    dtype=float,
                    ndmin=2,
                    skiprows=reader.line_num,  # a quoted header cell may span lines
                    encoding="utf-8",
                )
        except UnicodeDecodeError:  # a ValueError, but open_input names the file
            raise
        except (ValueError, OSError, lzma.LZMAError):
            # a ragged record, a cell numpy does not convert, or a plain file
            # named .gz, .bz2 or .xz, which numpy tries to decompress
            data = None
    if data is None or data.shape[1] != len(header):
        data = _parse_cells(path)
    finite = np.isfinite(data)
    if not finite.all():
        k, j = np.argwhere(~finite)[0]
        line, row = _record(path, k)
        raise ValidationError(f"{path}: row {line}: column {header[j]!r}: non-finite value {row[j]!r}")
    return header, data


@contextmanager
def _rows_named(path: str | Path):
    """Put the file and the file line of a ``FrameError``'s frame in front of its message."""
    try:
        yield
    except FrameError as exc:
        where = path if exc.frame is None else f"{path}: row {_record(path, exc.frame)[0]}"
        raise ValidationError(f"{where}: {exc}") from exc


def parse_motion_file(path: str | Path, aliases: Mapping[str, str] | None = None) -> CapturedTrajectory:
    """Read a captured trajectory. ``CapturedTrajectory`` checks the time base
    and the quaternions; its errors, like those of malformed headers and
    non-finite cells, name the offending row.

    ``aliases`` maps capture-file segment names onto canonical model names;
    two file segments that would read as one model segment are an error.
    """
    header, data = _read_table(path)
    groups: dict[str, dict[str, int]] = {}
    for idx, name in enumerate(header[1:], start=1):
        if "_" not in name:
            raise ValidationError(f"{path}: malformed pose column {name!r}")
        seg, suffix = name.rsplit("_", 1)
        if suffix not in POSE_SUFFIXES:
            raise ValidationError(f"{path}: malformed pose column {name!r}")
        groups.setdefault(seg, {})[suffix] = idx
    aliases = aliases or {}
    segments, file_names = {}, {}  # file_names: the model's segment name -> the file's
    for seg, cols in groups.items():
        missing = [s for s in POSE_SUFFIXES if s not in cols]
        if missing:
            raise ValidationError(f"{path}: segment {seg!r} lacks columns {missing}")
        name = aliases.get(seg, seg)
        if file_names.setdefault(name, seg) != seg:
            raise ValidationError(f"{path}: segments {file_names[name]!r} and {seg!r} both read as {name!r}")
        pose = data[:, [cols[s] for s in POSE_SUFFIXES]]
        segments[seg] = SegmentTrack(pose[:, :3], pose[:, 3:])
    with _rows_named(path):
        captured = CapturedTrajectory(data[:, 0].copy(), segments)
    # checked under the file's segment names, read under the model's
    captured.segments = {name: captured.segments[seg] for name, seg in file_names.items()}
    return captured


def parse_annotation_file(path: str | Path) -> TrialAnnotation:
    # the label and overlap checks of the records name no file: their errors gain it
    fields = JsonFields(load_json_file(path), path)
    segments = []
    for s in fields.get_list("segments", dict):
        label, start, end = s.get("label", str), s.get("start", float), s.get("end", float)
        if not start < end:
            raise ValidationError(f"{path}: {s.prefix}start {start!r} must precede end {end!r}")
        with prefixed(f"{path}: {s.prefix}label"):
            segments.append(AnnotationSegment(label, start, end))
    trial_id = fields.get("trial_id", str)
    with prefixed(path):
        return TrialAnnotation(trial_id=trial_id, segments=tuple(segments))


def read_signal_csv(path: str | Path) -> tuple[float, dict[str, np.ndarray]]:
    """Generic biosignal CSV: ``time_s`` plus one column per channel."""
    header, data = _read_table(path)
    if len(header) < 2:
        raise ValidationError(f"{path}: no signal channels")
    with _rows_named(path):
        rate = 1.0 / uniform_spacing(data[:, 0], SIGNAL_JITTER_TOL)
    channels = {header[j]: data[:, j].copy() for j in range(1, len(header))}
    return rate, channels


def sidecar_path(path: str | Path) -> Path:
    """Optional metadata sidecar next to a biosignal CSV: ``<name>.meta.json``
    carrying {"units": ..., "sample_rate": ...}. The recording's rate is its
    time column's; a rate the sidecar states is checked against it, never
    used in its place."""
    path = Path(path)
    return path.with_name(path.name + ".meta.json")


def _signal_record(record_type, path: str | Path, units: tuple[str, ...], rate: float, **data):
    """``record_type(sample_rate=rate, **data)`` for the recording at
    ``path``, whose time column gives ``rate``. Its sidecar, if it has one,
    must state units among ``units`` and a sample rate within
    ``SIGNAL_JITTER_TOL`` of ``rate``, if it states them. The record's own
    checks name no file, so their errors gain the file and the rate."""
    sc = sidecar_path(path)
    if sc.exists():
        fields = JsonFields(load_json_file(sc), sc)
        stated_units = fields.get("units", str, None)
        if stated_units is not None and stated_units not in units:
            raise ValidationError(f"{sc}: units {stated_units!r} not among {units}")
        stated = fields.get("sample_rate", float, None, positive=True)
        if stated is not None and abs(stated - rate) > SIGNAL_JITTER_TOL * rate:
            raise ValidationError(
                f"{sc}: sample_rate {stated:g} Hz disagrees with the {rate:g} Hz "
                f"of the time_s column of {Path(path).name}"
            )
    with prefixed(f"{path}: sample rate {rate:g} Hz"):
        return record_type(sample_rate=rate, **data)


def read_emg_file(path: str | Path) -> EmgRecord:
    rate, channels = read_signal_csv(path)
    return _signal_record(EmgRecord, path, ("uV", "µV"), rate, channels=channels)


def read_ecg_file(path: str | Path, channel: str | None = None) -> EcgRecord:
    rate, channels = read_signal_csv(path)
    if channel is None:
        channel = next(iter(channels))
    if channel not in channels:
        raise ValidationError(f"{path}: no channel {channel!r}; available: {sorted(channels)}")
    return _signal_record(EcgRecord, path, ("mV",), rate, samples=channels[channel])


def read_responses_file(path: str | Path) -> list[ResponseSet]:
    """Questionnaire responses, one JSON object per line."""
    out = []
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}: line {lineno}"
            out.append(parse_response(parse_json(line, where), where))
    if not out:
        raise ValidationError(f"{path}: no responses")
    return out


def write_joint_trajectory(
    path: str | Path, model: SkeletonModel, times: np.ndarray, q: JointConfiguration
) -> None:
    header = (
        ["time_s", "base_px", "base_py", "base_pz", "base_qw", "base_qx", "base_qy", "base_qz"]
        + list(model.dof_names)
    )
    write_csv(path, header, np.column_stack([times, q.base_position, q.base_orientation, q.joint_angles]))
