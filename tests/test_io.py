import json
import warnings

import numpy as np
import pytest

from helpers import (
    capture_from_configurations,
    default_model,
    moving_base_trajectory,
    read_joint_trajectory,
    reference_write_joint_trajectory,
    repeated,
    write_annotation_file,
    write_motion_file,
)

from exoload import io as eio
from exoload.errors import ValidationError
from exoload.posture import AnnotationSegment, TrialAnnotation


def write_rows(path, header, rows):
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def minimal_motion_rows(n=2, quat=(1.0, 0.0, 0.0, 0.0)):
    header = ["time_s"] + [f"pelvis_{s}" for s in ("px", "py", "pz", "qw", "qx", "qy", "qz")]
    rows = [[k / 240.0, 0.0, 0.0, 1.0, *quat] for k in range(n)]
    return header, rows


def test_minimal_two_frame_file(tmp_path):
    path = tmp_path / "m.csv"
    write_rows(path, *minimal_motion_rows(2))
    trajectory = eio.parse_motion_file(path)
    assert trajectory.n_frames == 2
    assert set(trajectory.segments) == {"pelvis"}
    assert trajectory.dt == pytest.approx(1 / 240.0)


def test_quaternion_renormalization_tolerance(tmp_path):
    path = tmp_path / "m.csv"
    scale = 1.0005  # norm within the 1e-3 acceptance band
    write_rows(path, *minimal_motion_rows(2, quat=(scale, 0.0, 0.0, 0.0)))
    trajectory = eio.parse_motion_file(path)
    assert np.allclose(np.linalg.norm(trajectory.segments["pelvis"].quaternions, axis=1), 1.0)

    path2 = tmp_path / "bad.csv"
    write_rows(path2, *minimal_motion_rows(2, quat=(1.01, 0.0, 0.0, 0.0)))
    with pytest.raises(ValidationError, match="row 2"):
        eio.parse_motion_file(path2)


def test_batched_quaternion_normalization_matches_per_row_loop(tmp_path):
    """The normalized tracks equal the per-row ``np.linalg.norm`` loop the
    reader used before, bit for bit; the first row out of tolerance is the
    one named."""
    rng = np.random.default_rng(5)
    n = 400
    header = ["time_s"]
    rows = [[k / 240.0] for k in range(n)]
    raw = {}
    for seg in ("pelvis", "thorax", "head"):
        header += [f"{seg}_{s}" for s in eio.POSE_SUFFIXES]
        q = rng.standard_normal((n, 4))
        q /= np.linalg.norm(q, axis=1)[:, None]
        q *= 1.0 + rng.uniform(-9e-4, 9e-4, (n, 1))  # inside the 1e-3 band
        raw[seg] = q
        for k in range(n):
            rows[k] += [0.1, -0.2, 1.0, *q[k]]
    eio.write_csv(tmp_path / "m.csv", header, rows)
    trajectory = eio.parse_motion_file(tmp_path / "m.csv")
    for seg, q in raw.items():
        expected = q.copy()
        for k in range(n):
            expected[k] /= float(np.linalg.norm(expected[k]))
        assert np.array_equal(trajectory.segments[seg].quaternions, expected)

    for k in (7, 12):
        rows[k][4:8] = [1.01, 0.0, 0.0, 0.0]
    eio.write_csv(tmp_path / "bad.csv", header, rows)
    with pytest.raises(ValidationError, match="row 9: segment 'pelvis'"):
        eio.parse_motion_file(tmp_path / "bad.csv")


def test_decreasing_timestamps_name_the_row(tmp_path):
    header, rows = minimal_motion_rows(3)
    rows[2][0] = rows[1][0] - 0.001
    path = tmp_path / "m.csv"
    write_rows(path, header, rows)
    with pytest.raises(ValidationError, match="row 4"):
        eio.parse_motion_file(path)


def test_malformed_header_rejected(tmp_path):
    path = tmp_path / "m.csv"
    write_rows(path, ["time_s", "pelvis_px", "pelvis_py"], [[0.0, 1.0, 2.0]])
    with pytest.raises(ValidationError, match="lacks columns"):
        eio.parse_motion_file(path)
    path2 = tmp_path / "m2.csv"
    write_rows(path2, ["stamp", "pelvis_px"], [[0.0, 1.0]])
    with pytest.raises(ValidationError, match="time_s"):
        eio.parse_motion_file(path2)


def test_segment_aliases_apply(tmp_path):
    path = tmp_path / "m.csv"
    header = ["time_s"] + [f"T8_{s}" for s in ("px", "py", "pz", "qw", "qx", "qy", "qz")]
    rows = [[k / 240.0, 0.0, 0.0, 1.3, 1.0, 0.0, 0.0, 0.0] for k in range(2)]
    write_rows(path, header, rows)
    trajectory = eio.parse_motion_file(path, aliases={"T8": "thorax"})
    assert "thorax" in trajectory.segments


@pytest.mark.parametrize(
    "aliases, first, second, name",
    [
        ({"hips": "pelvis"}, "hips", "pelvis", "pelvis"),
        ({"hips": "thorax", "T8": "thorax"}, "hips", "T8", "thorax"),
    ],
    ids=["alias-onto-a-file-segment", "two-aliases-onto-one-name"],
)
def test_segments_read_as_one_name_are_rejected(tmp_path, aliases, first, second, name):
    """Two file segments that the alias table reads as one model segment are
    an error naming both, not a track silently dropped."""
    path = tmp_path / "m.csv"
    header = ["time_s"] + [f"{seg}_{s}" for seg in ("hips", "pelvis", "T8") for s in eio.POSE_SUFFIXES]
    rows = [[k / 240.0] + [0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0] * 3 for k in range(3)]
    write_rows(path, header, rows)
    message = rf"m\.csv: segments '{first}' and '{second}' both read as '{name}'"
    with pytest.raises(ValidationError, match=message):
        eio.parse_motion_file(path, aliases)


def test_motion_round_trip(tmp_path):
    model = default_model()
    captured = capture_from_configurations(model, [model.upright_configuration()] * 4, 240.0)
    path = tmp_path / "m.csv"
    write_motion_file(path, captured)
    back = eio.parse_motion_file(path)
    assert back.n_frames == 4
    for name, track in captured.segments.items():
        assert np.allclose(back.segments[name].positions, track.positions, atol=1e-15)


def test_annotation_round_trip(tmp_path):
    ann = TrialAnnotation(
        "trial7", (AnnotationSegment("PS", 0.0, 3.0), AnnotationSegment("SP", 4.0, 9.5))
    )
    path = tmp_path / "a.json"
    write_annotation_file(path, ann)
    back = eio.parse_annotation_file(path)
    assert back == ann
    (tmp_path / "bad.json").write_text(json.dumps({"segments": []}))
    with pytest.raises(ValidationError):
        eio.parse_annotation_file(tmp_path / "bad.json")


def test_signal_csv_roundtrip(tmp_path):
    path = tmp_path / "emg.csv"
    fs = 1000.0
    n = 100
    t = np.arange(n) / fs
    header = ["time_s", "ESL_L", "ESL_R"]
    rows = [[t[k], np.sin(k / 7.0), np.cos(k / 9.0)] for k in range(n)]
    write_rows(path, header, rows)
    record = eio.read_emg_file(path)
    assert record.sample_rate == pytest.approx(fs)
    assert set(record.channels) == {"ESL_L", "ESL_R"}

    ecg = eio.read_ecg_file(path, channel="ESL_R")
    assert len(ecg.samples) == n
    with pytest.raises(ValidationError, match="no channel"):
        eio.read_ecg_file(path, channel="lead_II")


def test_signal_csv_requires_uniform_spacing(tmp_path):
    path = tmp_path / "emg.csv"
    rows = [[0.0, 1.0], [0.001, 1.0], [0.05, 1.0]]
    write_rows(path, ["time_s", "ESL_L"], rows)
    message = r"row 3: frame spacing at frame 1 is 0\.001 s, more than 1% off the mean spacing 0\.025 s: "
    with pytest.raises(ValidationError, match=message):
        eio.read_emg_file(path)


def test_late_signal_sample_names_the_file_and_row(tmp_path):
    """One EMG sample 40% of a spacing late: the error names the file and the
    file line of that sample."""
    rows = [[k / 1000.0, 1.0] for k in range(50)]
    rows[20][0] += 0.4 / 1000.0
    path = tmp_path / "emg.csv"
    write_rows(path, ["time_s", "ESL_L"], rows)
    with pytest.raises(ValidationError, match=r"emg\.csv: row 22: frame spacing at frame 20 .* 1% .*uniform"):
        eio.read_emg_file(path)


def test_responses_jsonl(tmp_path):
    path = tmp_path / "r.jsonl"
    lines = [
        json.dumps(
            {
                "respondent_id": "p1",
                "questionnaire_id": "B",
                "answers": {"1": 4},
                "context": {"exoskeleton": "Laevo"},
            }
        ),
        "",
        json.dumps({"respondent_id": "p2", "questionnaire_id": "B", "answers": {"1": 5}}),
    ]
    path.write_text("\n".join(lines), encoding="utf-8")
    responses = eio.read_responses_file(path)
    assert [r.respondent_id for r in responses] == ["p1", "p2"]
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json}\n", encoding="utf-8")
    with pytest.raises(ValidationError, match="line 1"):
        eio.read_responses_file(bad)


def test_joint_trajectory_round_trip(tmp_path):
    model = default_model()
    q = model.upright_configuration()
    times = np.arange(3) / 240.0
    path = tmp_path / "joints.csv"
    eio.write_joint_trajectory(path, model, times, repeated(q, 3))
    t_back, configurations = read_joint_trajectory(path, model)
    assert np.allclose(t_back, times)
    assert np.array_equal(configurations[0].joint_angles, q.joint_angles)


def test_joint_trajectory_matches_the_per_row_writer_byte_for_byte(tmp_path):
    model = default_model()
    q = moving_base_trajectory(model, 0.5)
    times = np.arange(len(q)) / 240.0
    eio.write_joint_trajectory(tmp_path / "joints.csv", model, times, q)
    reference_write_joint_trajectory(tmp_path / "reference.csv", model, times, q)
    assert (tmp_path / "joints.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_motion_non_finite_cell_names_row_and_column(tmp_path, cell):
    header, rows = minimal_motion_rows(3)
    rows[1][5] = cell  # pelvis_qx
    path = tmp_path / "m.csv"
    write_rows(path, header, rows)
    with pytest.raises(ValidationError, match=r"m\.csv: row 3: column 'pelvis_qx': non-finite"):
        eio.parse_motion_file(path)


@pytest.mark.parametrize("cell", ["nan", "-inf"])
def test_signal_non_finite_cell_names_row_and_column(tmp_path, cell):
    rows = [[k / 1000.0, 1.0, 2.0] for k in range(4)]
    rows[2][2] = cell
    path = tmp_path / "emg.csv"
    write_rows(path, ["time_s", "ESL_L", "ESL_R"], rows)
    with pytest.raises(ValidationError, match=r"emg\.csv: row 4: column 'ESL_R': non-finite"):
        eio.read_signal_csv(path)


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_joint_trajectory_non_finite_cell_names_row_and_column(tmp_path, cell):
    model = default_model()
    path = tmp_path / "joints.csv"
    upright = model.upright_configuration()
    eio.write_joint_trajectory(path, model, np.arange(3) / 240.0, repeated(upright, 3))
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[2].split(",")
    cells[9] = cell  # the second joint angle
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    column = model.dof_names[1]
    message = rf"joints\.csv: row 3: column '{column}': non-finite"
    with pytest.raises(ValidationError, match=message):
        read_joint_trajectory(path, model)


def test_float_round_trip_formatting(tmp_path):
    path = tmp_path / "x.csv"
    value = 0.1 + 0.2  # 0.30000000000000004
    eio.write_csv(path, ["v"], [[value]])
    text = path.read_text()
    assert "0.30000000000000004" in text
    assert float(text.splitlines()[1]) == value
    assert "\r" not in text


def test_sha256_file(tmp_path):
    p = tmp_path / "f.bin"
    p.write_bytes(b"abc")
    assert eio.sha256_file(p) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


def test_biosignal_sidecar_metadata(tmp_path):
    """A sidecar's units are checked, and so is its sample rate: within 1%
    of the time column's it is accepted and changes nothing, further off it
    is an error naming the sidecar and both rates."""
    path = tmp_path / "emg.csv"
    fs = 2000.0
    rows = [[k / fs, 1.0] for k in range(50)]
    write_rows(path, ["time_s", "ESL_L"], rows)
    rate, _ = eio.read_signal_csv(path)
    sidecar = tmp_path / "emg.csv.meta.json"
    for stated in (2000, 1981.0, 2019.0):
        sidecar.write_text(json.dumps({"units": "uV", "sample_rate": stated}))
        assert eio.read_emg_file(path).sample_rate == rate
    for stated in (1000.0, 1979.0, 2021.0, 4370.0):
        sidecar.write_text(json.dumps({"units": "uV", "sample_rate": stated}))
        with pytest.raises(ValidationError) as info:
            eio.read_emg_file(path)
        assert str(info.value) == (
            f"{sidecar}: sample_rate {stated:g} Hz disagrees with the 2000 Hz of the time_s column of emg.csv"
        )

    sidecar.write_text(json.dumps({"units": "volts"}))
    with pytest.raises(ValidationError, match="units"):
        eio.read_emg_file(path)

    ecg_path = tmp_path / "ecg.csv"
    write_rows(ecg_path, ["time_s", "lead_I"], [[k / 500.0, 0.0] for k in range(50)])
    (tmp_path / "ecg.csv.meta.json").write_text(json.dumps({"units": "mV"}))
    record = eio.read_ecg_file(ecg_path)
    assert record.sample_rate == pytest.approx(500.0)


def test_rows_are_file_lines_after_blank_lines(tmp_path):
    """Every CSV error names the file line, blank lines counted."""
    cases = {
        "time_s,a\n0,1\n\n\n0.001,2\n0.002,x\n": "row 6: column 'a': not a number: 'x'",
        "time_s,a\n0,1\n\n\n0.001,nan\n": "row 5: column 'a': non-finite value 'nan'",
        "time_s,a\n\n0,1\n\r\n0.001,2,3\n": "row 5: expected 2 cells, got 3",
        "time_s,a\n0,1\n\n0.001,2\n\n\n0.001,3\n": "row 7: timestamps must strictly increase",
    }
    for k, (text, message) in enumerate(cases.items()):
        path = tmp_path / f"s{k}.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError, match=rf"s{k}\.csv: {message}"):
            eio.read_signal_csv(path)

    header, rows = minimal_motion_rows(4)
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    # data rows 0..3 sit on file lines 2, 5, 6 and 7
    for k, edit, message in [
        (1, lambda cells: cells[:4] + ["1.01"] + cells[5:], "row 5: segment 'pelvis': quaternion norm"),
        (3, lambda cells: ["0.0"] + cells[1:], "row 7: timestamps must strictly increase"),
    ]:
        edited = lines.copy()
        edited[k + 1] = ",".join(edit(edited[k + 1].split(",")))
        path = tmp_path / "m.csv"
        path.write_text("\n".join(edited[:2] + ["", ""] + edited[2:]) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=rf"m\.csv: {message}"):
            eio.parse_motion_file(path)


def test_valid_files_never_take_the_per_cell_path(tmp_path, monkeypatch):
    """A valid signal or motion file converts in the one bulk pass."""

    def refuse(path):
        raise AssertionError(f"{path} went down the per-cell path")

    model = default_model()
    captured = capture_from_configurations(model, [model.upright_configuration()] * 5, 240.0)
    write_motion_file(tmp_path / "m.csv", captured)
    rng = np.random.default_rng(3)
    signal = np.column_stack([np.arange(50) / 1000.0, rng.standard_normal((50, 3))])
    eio.write_csv(tmp_path / "emg.csv", ["time_s", "ESL_L", "ESL_R", "RA"], signal)
    monkeypatch.setattr(eio, "_parse_cells", refuse)
    assert eio.parse_motion_file(tmp_path / "m.csv").n_frames == 5
    rate, channels = eio.read_signal_csv(tmp_path / "emg.csv")
    assert list(channels) == ["ESL_L", "ESL_R", "RA"]
    assert np.array_equal(channels["RA"], signal[:, 3])


def test_bulk_reader_keeps_the_empty_body_and_encoding_errors(tmp_path):
    path = tmp_path / "emg.csv"
    path.write_text("time_s,ESL_L\n\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's empty-input warning must not leak
        with pytest.raises(ValidationError, match="need at least two samples"):
            eio.read_signal_csv(path)
    # a bad byte far past the header decodes inside the bulk pass
    body = "".join(f"{k / 1000.0!r},1.0\n" for k in range(5000))
    path.write_bytes(b"time_s,ESL_L\n" + body.encode() + b"5.0,\xff\n")
    with pytest.raises(ValidationError, match="not UTF-8"):
        eio.read_signal_csv(path)


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz"])
def test_plain_csv_with_a_compressed_suffix_parses_cell_by_cell(tmp_path, monkeypatch, suffix):
    """numpy decompresses a path by its suffix and fails on plain text; such
    a file still reads, through ``_parse_cells``, as the same file named
    ``.csv`` does."""
    text = "time_s,ESL_L\n" + "".join(f"{k / 1000.0!r},{k % 7}.5\n" for k in range(30))
    (tmp_path / "emg.csv").write_text(text, encoding="utf-8")
    (tmp_path / f"emg.csv{suffix}").write_text(text, encoding="utf-8")
    expected = eio.read_signal_csv(tmp_path / "emg.csv")
    per_cell = []
    parse_cells = eio._parse_cells
    monkeypatch.setattr(eio, "_parse_cells", lambda path: per_cell.append(path) or parse_cells(path))
    rate, channels = eio.read_signal_csv(tmp_path / f"emg.csv{suffix}")
    assert per_cell == [tmp_path / f"emg.csv{suffix}"]
    assert rate == expected[0] and np.array_equal(channels["ESL_L"], expected[1]["ESL_L"])


def test_quoted_header_cell_spanning_lines_reads_in_the_bulk_pass(tmp_path, monkeypatch):
    """The bulk pass skips the header's every file line, so a header whose
    quoted cell holds a line break neither shifts nor drops a data row."""
    path = tmp_path / "s.csv"
    path.write_text('time_s,"a\nb"\n0,1\n0.001,2\n0.002,3\n', encoding="utf-8")
    monkeypatch.setattr(eio, "_parse_cells", lambda path: pytest.fail("took the per-cell path"))
    header, data = eio._read_table(path)
    assert header == ["time_s", "a\nb"]
    assert data.tolist() == [[0.0, 1.0], [0.001, 2.0], [0.002, 3.0]]


def test_biosignal_rate_of_zero_is_rejected_not_skipped(tmp_path):
    path = tmp_path / "emg.csv"
    write_rows(path, ["time_s", "ESL_L"], [[k / 1000.0, 1.0] for k in range(50)])
    sidecar = tmp_path / "emg.csv.meta.json"
    for value in (0, -5.0):
        sidecar.write_text(json.dumps({"units": "uV", "sample_rate": value}))
        with pytest.raises(ValidationError, match=r"emg\.csv\.meta\.json: sample_rate must be positive"):
            eio.read_emg_file(path)
    sidecar.write_text(json.dumps({"units": "uV", "sample_rate": "1000"}))
    with pytest.raises(ValidationError, match=r"emg\.csv\.meta\.json: sample_rate must be a finite number"):
        eio.read_emg_file(path)


@pytest.mark.parametrize(
    "kind, rate, with_sidecar, message",
    [
        ("emg", 15.0, False, "twice the filter cutoff"),
        ("emg", 15.0, True, "twice the filter cutoff"),
        ("ecg", 100.0, False, "at least 250 Hz"),
        ("ecg", 200.0, True, "at least 250 Hz"),
    ],
    ids=["emg-time-column", "emg-sidecar", "ecg-time-column", "ecg-sidecar"],
)
def test_biosignal_rate_range_error_names_file_and_rate_source(tmp_path, kind, rate, with_sidecar, message):
    """A time column whose rate is outside its record's range names the file
    and the rate, also when a sidecar states the same rate: the time column
    is the rate's one source."""
    path = tmp_path / f"{kind}.csv"
    write_rows(path, ["time_s", "ESL_L"], [[k / rate, 1.0] for k in range(50)])
    if with_sidecar:
        units = "uV" if kind == "emg" else "mV"
        (tmp_path / f"{kind}.csv.meta.json").write_text(json.dumps({"units": units, "sample_rate": rate}))
    with pytest.raises(ValidationError) as info:
        (eio.read_emg_file if kind == "emg" else eio.read_ecg_file)(path)
    text = str(info.value)
    assert text.startswith(f"{path}: sample rate {rate:g} Hz: ")
    assert message in text


@pytest.mark.parametrize(
    "read, header",
    [
        (eio.parse_motion_file, minimal_motion_rows(2)[0]),
        (eio.read_emg_file, ["time_s", "ESL_L"]),
        (eio.read_ecg_file, ["time_s", "lead_I"]),
    ],
    ids=["motion", "emg", "ecg"],
)
def test_byte_order_mark_before_time_s_is_shown_in_the_error(tmp_path, read, header):
    """A file saved with a UTF-8 byte-order mark reads its first header cell
    with the mark in front of ``time_s``; every numeric reader rejects it
    with one message that shows the cell it got."""
    path = tmp_path / "data.csv"
    rows = [[k / 1000.0] + [1.0] * (len(header) - 1) for k in range(50)]
    write_rows(path, header, rows)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    with pytest.raises(ValidationError) as info:
        read(path)
    assert str(info.value) == f"{path}: first column must be 'time_s', got '\\ufefftime_s'"


def test_annotation_segment_must_start_before_it_ends(tmp_path):
    path = tmp_path / "annotation.json"
    segments = [{"label": "PS", "start": 0.0, "end": 1.0}, {"label": "SP", "start": 2.0, "end": 2.0}]
    path.write_text(json.dumps({"trial_id": "t", "segments": segments}))
    message = r"annotation\.json: segments\.1\.start 2\.0 must precede end 2\.0"
    with pytest.raises(ValidationError, match=message):
        eio.parse_annotation_file(path)
