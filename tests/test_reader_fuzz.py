"""Property tests of the file readers: every input either parses or raises
``ValidationError``, never another exception."""

import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from exoload import io as eio
from exoload.errors import ValidationError
from exoload.pipeline import load_config

FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])

POSE_COLUMNS = [f"pelvis_{s}" for s in eio.POSE_SUFFIXES] + [f"com_{s}" for s in eio.POSE_SUFFIXES]
CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(["", " ", "nan", "-inf", "1e309", "1_0", "0x1", "1,5", '"2"', "abc"]),
    st.text(max_size=6),
)
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8,
)


def read(reader, content: bytes):
    """Run a reader on a file holding ``content``; a result or a
    ``ValidationError`` passes, any other exception fails the test."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(content)
        try:
            return reader(path)
        except ValidationError:
            return None


@st.composite
def csv_files(draw, columns):
    header = draw(st.lists(st.one_of(st.sampled_from(columns), st.text(max_size=8)), max_size=6))
    if draw(st.booleans()):
        header = ["time_s"] + header
    width = len(header)
    rows = draw(
        st.lists(
            st.lists(CELLS, min_size=max(width - 1, 0), max_size=width + 1),
            max_size=6,
        )
    )
    if draw(st.booleans()):
        # strictly increasing timestamps, so more inputs get past the time check
        rows = [[repr(k / 240.0)] + row[1:] for k, row in enumerate(rows)]
    text = "\n".join(",".join(line) for line in [header] + rows)
    return text.encode("utf-8")


def raw_files():
    return st.one_of(st.binary(max_size=64), st.text(max_size=64).map(lambda t: t.encode("utf-8")))


@FUZZ
@given(st.one_of(csv_files(["time_s"] + POSE_COLUMNS), raw_files()))
@example(b"time_s,pelvis_px\n\xff\xfe\n")
def test_parse_motion_file_parses_or_rejects(content):
    read(eio.parse_motion_file, content)


@FUZZ
@given(st.one_of(csv_files(["time_s", "ch1", "ch2"]), raw_files()))
@example(b"time_s,ch1\n0,\xff\n")
def test_read_signal_csv_parses_or_rejects(content):
    read(eio.read_signal_csv, content)


RESPONSE_RECORDS = st.one_of(
    JSON_VALUES,
    st.fixed_dictionaries(
        {},
        optional={
            "respondent_id": JSON_VALUES,
            "questionnaire_id": st.one_of(st.sampled_from(["A", "B", "C", "D", "E"]), JSON_VALUES),
            "answers": st.one_of(st.dictionaries(st.text(max_size=4), JSON_SCALARS, max_size=3), JSON_VALUES),
            "context": st.one_of(
                st.fixed_dictionaries(
                    {},
                    optional={
                        "exoskeleton": JSON_VALUES,
                        "position": JSON_VALUES,
                        "pp_index": JSON_VALUES,
                        "icu": JSON_VALUES,
                    },
                ),
                JSON_VALUES,
            ),
        },
    ),
)


@FUZZ
@given(
    st.one_of(
        st.lists(st.one_of(RESPONSE_RECORDS.map(json.dumps), st.text(max_size=10)), max_size=4).map(
            lambda lines: "\n".join(lines).encode("utf-8")
        ),
        raw_files(),
    )
)
@example(b"null\n")
@example(b"[]\n")
@example(b'{"respondent_id": 1, "questionnaire_id": "A", "answers": "ab"}\n')
@example(b'{"respondent_id": 1, "questionnaire_id": "A", "answers": {}, "context": []}\n')
@example(b"\xff\n")
def test_read_responses_file_parses_or_rejects(content):
    read(eio.read_responses_file, content)


PATHS = st.one_of(st.sampled_from(["a.csv", "sub/b.csv", "/abs/c.csv"]), JSON_VALUES)
CONFIGS = st.fixed_dictionaries(
    {},
    optional={
        "profile": st.one_of(
            st.fixed_dictionaries(
                {},
                optional={
                    "height_m": st.one_of(st.floats(0.5, 2.5), JSON_VALUES),
                    "mass_kg": st.one_of(st.floats(20.0, 150.0), JSON_VALUES),
                    "coefficient_table": JSON_VALUES,
                    "coefficient_table_file": PATHS,
                },
            ),
            JSON_VALUES,
        ),
        "output_dir": PATHS,
        "motion_file": PATHS,
        "annotation_file": PATHS,
        "exoskeleton": st.one_of(st.sampled_from(["none", "laevo"]), JSON_VALUES),
        "derivative_smoothing_hz": JSON_VALUES,
        "gravity": JSON_VALUES,
        "seed": JSON_VALUES,
        "emg": st.one_of(
            st.fixed_dictionaries(
                {},
                optional={
                    "baseline_file": PATHS,
                    "trial_files": st.one_of(st.dictionaries(st.text(max_size=4), PATHS, max_size=2), JSON_VALUES),
                    "sample_rate": JSON_VALUES,
                },
            ),
            JSON_VALUES,
        ),
        "ecg": st.one_of(
            st.fixed_dictionaries(
                {},
                optional={
                    "files": st.one_of(st.dictionaries(st.text(max_size=4), PATHS, max_size=2), JSON_VALUES),
                    "channel": JSON_VALUES,
                },
            ),
            JSON_VALUES,
        ),
        "survey": st.one_of(st.fixed_dictionaries({}, optional={"responses_file": PATHS}), JSON_VALUES),
    },
)


@FUZZ
@given(st.one_of(st.one_of(CONFIGS, JSON_VALUES).map(lambda c: json.dumps(c).encode("utf-8")), raw_files()))
@example(b"[]")
@example(b'{"profile": {"height_m": 1.7, "mass_kg": 70}, "output_dir": "o", "seed": Infinity}')
@example(b'{"profile": {"height_m": 1.7, "mass_kg": 70}, "output_dir": "o", "emg": {"baseline_file": "a", "trial_files": []}}')
@example(b"\xff")
@example(b'{"profile": {"height_m": 1.7, "mass_kg": 70}, "output_dir": "o", "derivative_smoothing_hz": "5"}')
def test_load_config_parses_or_rejects(content):
    config = read(load_config, content)
    if config is not None:  # the numbers that reach the stages are finite floats
        numbers = [config.gravity, config.derivative_smoothing_hz]
        if config.emg is not None:
            numbers.append(config.emg.sample_rate)
        assert all(v is None or (type(v) is float and math.isfinite(v)) for v in numbers)
        assert config.gravity is not None
