"""Property tests of the file readers: every input either parses or raises
``ValidationError``, never another exception; and the bulk numeric CSV reader
returns what its per-cell oracle returns."""

import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from helpers import reference_read_table
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from exoload import io as eio
from exoload.anthropometry import AnthropometricProfile, load_table_file
from exoload.dynamics import load_exoskeleton_params
from exoload.errors import ValidationError, finite_number, parse_json, uniform_spacing
from exoload.pipeline import MOTION_FIELDS, SessionConfig, _segment_aliases, load_config
from exoload.retarget import DT_JITTER_TOL

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


@FUZZ
@given(
    rate=st.floats(50.0, 4000.0),
    n=st.integers(3, 5000),
    decimals=st.integers(4, 9),
    tolerance=st.sampled_from([DT_JITTER_TOL, eio.SIGNAL_JITTER_TOL]),
)
@example(rate=240.0, n=240, decimals=6, tolerance=DT_JITTER_TOL)
@example(rate=300.0, n=3000, decimals=4, tolerance=DT_JITTER_TOL)
def test_period_of_rounded_timestamps_is_within_one_rounding_step_over_the_span(rate, n, decimals, tolerance):
    """Timestamps of a uniform recording written to ``decimals`` places, as
    an export writes them: the reader's period is off the true one by at most
    the rounding step over the number of spacings, plus float rounding."""
    times = np.array([float(f"{k / rate:.{decimals}f}") for k in range(n)])
    try:
        period = uniform_spacing(times, tolerance)
    except ValidationError:
        assume(False)  # rounded past the reader's tolerance
    bound = 10.0**-decimals / (n - 1) + 4 * np.spacing(times[-1])
    assert abs(period - 1.0 / rate) <= bound


NUMBER_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),  # shortest round-trip form
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["1_0", "nan", "-inf", "+inf", "1e309", "-0", ".5", "1.", "+2", "1e-320", "0x1", "١٢"]),
    st.sampled_from(["", " ", "abc", "1 2", "1,5", "\xa0", "1\x00"]),
)
TABLE_CELLS = st.one_of(
    NUMBER_TEXT,
    NUMBER_TEXT.map(lambda t: f'"{t}"'),  # quoted
    st.tuples(  # padded
        st.sampled_from([" ", "\t", "  ", "\xa0", "\x0c"]), NUMBER_TEXT, st.sampled_from(["", " ", "\t"])
    ).map("".join),
)


@st.composite
def numeric_tables(draw):
    """The text of a numeric CSV file: a header, rows of mostly one cell per
    column, LF or CRLF line ends, blank or blank-looking lines between rows,
    and a final line end or none."""
    width = draw(st.integers(1, 4))
    lines = [",".join(["time_s"] + [f"c{j}" for j in range(1, width)])]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t", "\r"])))
        size = draw(st.sampled_from([width] * 8 + [width - 1, width + 1]))
        lines.append(",".join(draw(st.lists(TABLE_CELLS, min_size=size, max_size=size))))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    end = newline if draw(st.booleans()) else ""
    return (newline.join(lines) + end).encode("utf-8")


@FUZZ
@given(numeric_tables())
@example(b"time_s,a\n0,1_0\n1,2")
@example(b"time_s,a\r\n0, 1 \r\n\r\n\"1\",inf\r\n")
@example(b"time_s\n \n1\n")
@example(b"time_s,a\n")
@example(b"time_s,a, a\n0,1,2\n")
def test_bulk_table_reader_equals_the_per_cell_oracle(content):
    """``io._read_table`` returns the oracle's header and, bit for bit, its
    array, or both reject the file."""
    new, old = read(eio._read_table, content), read(reference_read_table, content)
    assert (new is None) == (old is None)
    if new is not None:
        assert new[0] == old[0]
        assert new[1].shape == old[1].shape
        assert np.array_equal(new[1].view(np.int64), old[1].view(np.int64))


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
                        "exoskelton": JSON_VALUES,  # a misspelled key
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
@example(b'{"respondent_id": "p", "questionnaire_id": "B", "answers": {}, "context": {"exoskelton": "x"}}\n')
@example(b"\xff\n")
# answers Python's json accepts that no float conversion may reach unchecked
@example(b'{"respondent_id": "p", "questionnaire_id": "B", "answers": {"1": NaN}}\n')
@example(b'{"respondent_id": "p", "questionnaire_id": "B", "answers": {"1": Infinity}}\n')
@example(b'{"respondent_id": "p", "questionnaire_id": "B", "answers": {"1": ' + b"9" * 400 + b"}}\n")
@example(b'{"respondent_id": "p", "questionnaire_id": "C", "answers": {"effort_neck": ' + b"9" * 400 + b"}}\n")
@example(b'{"respondent_id": "p", "questionnaire_id": "D", "answers": {"borg_neck": ' + b"9" * 400 + b"}}\n")
def test_read_responses_file_parses_or_rejects(content):
    if read(eio.read_responses_file, content) is not None:
        # a context holds only the fields that group the answers
        lines = [line.strip() for line in io.StringIO(content.decode("utf-8"), newline="")]
        for payload in (json.loads(line) for line in lines if line):
            assert set(payload.get("context", {})) <= {"exoskeleton", "position", "pp_index", "icu"}


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
        "segment_aliases_file": PATHS,
        "exoskeleton": st.one_of(st.sampled_from(["none", "laevo"]), JSON_VALUES),
        "exoskeleton_params_file": PATHS,
        # the method's settings, once fields: a config that states one is rejected
        "solver_settings_file": PATHS,
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
@example(b'{"profile": {"height_m": true, "mass_kg": 70}, "output_dir": "o"}')
@example(b'{"profile": {"height_m": 1.7, "mass_kg": 70}, "output_dir": "o", "seed": "5"}')
@example(
    b'{"profile": {"height_m": 1.7, "mass_kg": 70}, "output_dir": "o", '
    b'"emg": {"baseline_file": "a", "trial_files": {}, "sample_rate": 2000}}'
)
@example(b'{"profile": {"height_m": 1.7, "mass_kg": 70}, "output_dir": "o", "gravity": 1.0}')
@example(b'{"profile": {"height_m": 1.7, "mass_kg": 70}, "output_dir": "o", "emg": {"baseline_file": "a", "trial_files": {}}}')
@example(b'{"profile": {"height_m": 1.7, "mass_kg": 70}, "output_dir": "o", "ecg": {"files": {}}}')
@example(b'{"profile": {"height_m": 1.7, "mass_kg": 70}, "output_dir": "o", "derivative_smoothing_hz": null}')
@example(
    b'{"profile": {"height_m": 1.7, "mass_kg": 70}, "output_dir": "o", '
    b'"motion_file": "m", "exoskeleton_params_file": "p"}'
)
def test_load_config_parses_or_rejects(content):
    config = read(load_config, content)
    if config is not None:  # the numbers that reach the stages are finite and positive
        numbers = [config.profile.height_m, config.profile.mass_kg]
        assert all(type(v) is float and 0.0 < v < math.inf for v in numbers)
        # and each checked field came from a payload value of its JSON type
        payload = json.loads(content)
        # gravity, the smoothing cutoff and the QP settings are the code's constants
        assert not {"gravity", "derivative_smoothing_hz", "solver_settings_file"} & set(payload)
        # the time column sets the EMG rate: a config that states one is rejected
        assert "sample_rate" not in (payload.get("emg") or {})
        assert type(payload.get("seed", 0)) is int and config.seed == payload.get("seed", 0)
        for name in ("height_m", "mass_kg"):
            value = payload["profile"][name]
            assert type(value) in (int, float) and getattr(config.profile, name) == value
        assert type(payload.get("exoskeleton", "none")) is str
        # every setting the config states is one its run reads
        # the coefficient table file holds its own id
        assert set(payload["profile"]) <= {"height_m", "mass_kg", "coefficient_table_file"}
        if config.motion_file is None:
            assert not set(MOTION_FIELDS) & set(payload)
            assert "coefficient_table_file" not in payload["profile"]
        if "exoskeleton_params_file" in payload:
            assert config.exoskeleton == "laevo"
        # an EMG or ECG section names at least one file to analyse
        assert config.emg is None or config.emg.trial_files
        assert config.ecg is None or config.ecg.files


def json_files(documents):
    return st.one_of(documents.map(lambda d: json.dumps(d).encode("utf-8")), raw_files())


NUMBERS = st.one_of(st.floats(-1.0, 100.0), st.integers(-2, 300), JSON_VALUES)
ANNOTATIONS = st.fixed_dictionaries(
    {},
    optional={
        "trial_id": st.one_of(st.text(max_size=4), JSON_VALUES),
        "segments": st.one_of(
            st.lists(
                st.one_of(
                    st.fixed_dictionaries(
                        {},
                        optional={
                            "label": st.one_of(st.sampled_from(["PS", "control"]), JSON_VALUES),
                            "start": NUMBERS,
                            "end": NUMBERS,
                        },
                    ),
                    JSON_VALUES,
                ),
                max_size=3,
            ),
            JSON_VALUES,
        ),
    },
)


@FUZZ
@given(json_files(st.one_of(ANNOTATIONS, JSON_VALUES)))
@example(b'{"trial_id": "t", "segments": [{"label": "PS", "start": "abc", "end": 1.0}]}')
def test_parse_annotation_file_parses_or_rejects(content):
    annotation = read(eio.parse_annotation_file, content)
    if annotation is not None:
        assert type(annotation.trial_id) is str
        assert all(type(s.start) is float and type(s.end) is float for s in annotation.segments)
        assert all(s.start < s.end for s in annotation.segments)
        assert len({s.label for s in annotation.segments}) == len(annotation.segments)


LAEVO_NAMES = ["k_loss", "theta_min", "theta_max", "tau_max"]
EXOSKELETON_PARAMS = st.one_of(
    # k0 and k1 were once fields: the spring line the other four define
    st.dictionaries(st.sampled_from(LAEVO_NAMES + ["k0", "k1", "k2"]), NUMBERS, max_size=7),
    st.fixed_dictionaries({name: NUMBERS for name in LAEVO_NAMES}),
)


@FUZZ
@given(json_files(st.one_of(EXOSKELETON_PARAMS, JSON_VALUES)))
@example(b'{"k_loss": 0, "theta_min": 0, "theta_max": 1, "tau_max": 1, "k2": 1}')
@example(b'{"k0": 0, "k1": 1, "k_loss": 0, "theta_min": 0, "theta_max": 1, "tau_max": 1}')
def test_load_exoskeleton_params_parses_or_rejects(content):
    if read(load_exoskeleton_params, content) is not None:
        payload = json.loads(content)
        assert set(payload) == set(LAEVO_NAMES)
        assert all(type(payload[name]) in (int, float) for name in LAEVO_NAMES)


TABLE_ROWS = st.fixed_dictionaries(
    {},
    optional={
        "name": st.one_of(st.sampled_from(["pelvis", "thorax"]), JSON_VALUES),
        "length_fraction": NUMBERS,
        "mass_fraction": NUMBERS,
        "com_fraction": NUMBERS,
        "gyration_fractions": st.one_of(st.lists(NUMBERS, max_size=4), JSON_VALUES),
    },
)
TABLES = st.fixed_dictionaries(
    {},
    optional={
        "table_id": JSON_VALUES,
        "comment": JSON_VALUES,
        "segments": st.one_of(st.lists(st.one_of(TABLE_ROWS, JSON_VALUES), max_size=3), JSON_VALUES),
    },
)


@FUZZ
@given(json_files(st.one_of(TABLES, JSON_VALUES)))
@example(b'{"table_id": "x", "segments": 5}')
def test_load_table_file_parses_or_rejects(content):
    read(load_table_file, content)


# the fuzzed sidecars sit next to a 1000 Hz EMG file
SIDECAR_RATES = st.one_of(
    NUMBERS,
    st.floats(990.5, 1009.5),  # within 1% of the time column's rate
    st.floats(950.0, 989.5),  # more than 1% off it, where a looser check would pass
    st.floats(1010.5, 1050.0),
)
SIDECARS = st.fixed_dictionaries(
    {},
    optional={
        "units": st.one_of(st.sampled_from(["uV", "µV", "mV"]), JSON_VALUES),
        "sample_rate": SIDECAR_RATES,
    },
)


def no_repeated_keys(pairs: list[tuple[str, object]]) -> dict:
    keys = [key for key, _ in pairs]
    if len(set(keys)) < len(keys):
        raise ValueError("repeated key")
    return dict(pairs)


@FUZZ
@given(st.one_of(JSON_VALUES.map(json.dumps), st.text(max_size=24)))
@example("\ufeff{}")
@example('{"a": 1, "b": 2, "a": 3}')
@example('[{"a": 1}, {"a": 1}]')
def test_parse_json_decodes_as_json_loads_and_rejects_repeated_keys(text):
    """Every JSON input decodes as ``json.loads`` decodes it, errors and
    their messages included, but for an object that states a key twice."""
    try:
        expected = json.loads(text, object_pairs_hook=no_repeated_keys)
    except ValueError as exc:
        try:
            parse_json(text, "in")
        except ValidationError as raised:
            if str(exc) == "repeated key":
                assert str(raised).startswith("in: repeated key ")
            else:
                assert str(raised) == f"in: invalid JSON: {exc}"
        else:
            raise AssertionError(f"accepted {text!r}") from None
    else:
        assert json.dumps(parse_json(text, "in")) == json.dumps(expected)


def sidecar_accepted(content: bytes, rate: float) -> bool:
    """The sidecar rule on its own: a JSON object, no key stated twice at
    any depth, whose units, if stated, are EMG units and whose sample rate,
    if stated, is a positive finite number within 1% of ``rate``."""
    try:
        payload = json.loads(content.decode("utf-8"), object_pairs_hook=no_repeated_keys)
    except ValueError:  # not UTF-8, not JSON, or a key stated twice
        return False
    if not isinstance(payload, dict) or payload.get("units") not in (None, "uV", "µV"):
        return False
    stated = payload.get("sample_rate")
    if stated is None:
        return True
    number = finite_number(stated)
    return number is not None and number > 0 and abs(number - rate) <= eio.SIGNAL_JITTER_TOL * rate


@FUZZ
@given(json_files(st.one_of(SIDECARS, JSON_VALUES)))
@example(b"[1]")
@example(b'{"sample_rate": "2000"}')
@example(b'{"units": "uV", "sample_rate": 1009}')
@example(b'{"units": "uV", "sample_rate": 2000}')
@example(b'{"units": "mV", "units": "uV"}')
def test_read_emg_file_with_sidecar_parses_or_rejects(content):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "emg.csv"
        path.write_text("time_s,ESL_L\n" + "".join(f"{k / 1000.0!r},1.0\n" for k in range(20)))
        eio.sidecar_path(path).write_bytes(content)
        rate, _ = eio.read_signal_csv(path)
        try:
            record = eio.read_emg_file(path)
        except ValidationError:
            record = None
    assert (record is not None) == sidecar_accepted(content, rate)
    if record is not None:  # the time column's rate, whatever the sidecar states
        assert record.sample_rate == rate


@FUZZ
@given(json_files(st.one_of(st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=3), JSON_VALUES)))
@example(b'{"hips": 5}')
def test_segment_aliases_parse_or_reject(content):
    def aliases(path):
        config = SessionConfig(
            AnthropometricProfile(1.75, 70.0), output_dir=path.parent, segment_aliases_file=path
        )
        return _segment_aliases(config)

    table = read(aliases, content)
    if table is not None:  # the table as written: every value a JSON string
        assert table == json.loads(content) and all(type(v) is str for v in table.values())
