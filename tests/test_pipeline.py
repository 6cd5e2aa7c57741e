import argparse
import csv
import dataclasses
import gc
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    LAEVO_PARAMS,
    bent_configuration,
    capture_from_configurations,
    default_model,
    reference_write_joint_trajectory,
    synthetic_ecg,
    write_bend_session,
    write_ecg_csv,
    write_emg_csv,
    write_every_input_session,
    write_motion_file,
    write_responses,
)

from exoload import cli
from exoload import io as eio
from exoload.biosignals import emg_change_pct, emg_envelope, settle_samples
from exoload.dynamics import LaevoModel
from exoload.errors import NumericalError, ValidationError
from exoload.pipeline import MOTION_FIELDS, _stage, emit_boxplot_data, load_config, run_pipeline
from exoload.posture import DistributionSummary
from exoload.skeleton import JointConfiguration


def write_survey_config(directory):
    """A survey-only session config reading ``responses.jsonl`` in ``directory``."""
    path = directory / "config.json"
    config = {
        "profile": {"height_m": 1.75, "mass_kg": 70.0},
        "survey": {"responses_file": "responses.jsonl"},
        "output_dir": "out",
    }
    path.write_text(json.dumps(config))
    return path


@pytest.fixture(scope="module")
def bend_bundle(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bend")
    config_path = write_bend_session(tmp)
    bundle = run_pipeline(load_config(config_path))
    return bundle


def test_motion_pipeline_outputs(bend_bundle):
    for key in (
        "joints",
        "torque_series",
        "angle_summaries",
        "posture_fractions",
        "torque_summaries",
        "torque_reductions",
        "boxplot_data",
        "manifest",
    ):
        assert key in bend_bundle.files and bend_bundle.files[key].exists()
    # EMG/ECG/survey tables are omitted when unconfigured
    for key in ("emg_changes", "heart_rate", "survey_constructs", "survey_borg"):
        assert key not in bend_bundle.files


def test_bend_reduction_in_band(bend_bundle):
    with open(bend_bundle.files["torque_reductions"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["label"] == "PS"
    assert 5.0 <= float(rows[0]["median_reduction_pct"]) <= 30.0


def test_bend_angle_summary_hits_forty_degrees(bend_bundle):
    with open(bend_bundle.files["angle_summaries"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    median = float(rows[0]["median"])
    assert median == pytest.approx(40.0, abs=0.05)
    with open(bend_bundle.files["posture_fractions"], newline="") as fh:
        frac = list(csv.DictReader(fh))[0]
    assert float(frac["frac_above_20deg"]) == 1.0
    assert float(frac["frac_above_45deg"]) == 0.0


def test_manifest_covers_all_inputs(bend_bundle):
    manifest = json.loads(bend_bundle.files["manifest"].read_text())
    hashed = set(manifest["inputs"])
    assert any(p.endswith("motion.csv") for p in hashed)
    assert any(p.endswith("annotation.json") for p in hashed)
    assert any(p.endswith("config.json") for p in hashed)
    assert manifest["seed"] == 0
    assert manifest["config"]["exoskeleton"] == "laevo"


def test_pipeline_rerun_is_byte_identical(tmp_path):
    config_path = write_bend_session(tmp_path, duration_s=1.0)
    config = load_config(config_path)
    first = run_pipeline(config)
    snapshot = {k: p.read_bytes() for k, p in first.files.items()}
    second = run_pipeline(config)
    for key, path in second.files.items():
        assert path.read_bytes() == snapshot[key], f"{key} differs between reruns"


def test_back_flexion_equals_per_frame_thorax_angles(tmp_path):
    from exoload.pipeline import read_motion_inputs, run_motion_analysis
    from exoload.posture import thorax_flexion_deg
    from exoload.skeleton import KinematicState

    config = load_config(write_bend_session(tmp_path, duration_s=0.5))
    inputs = read_motion_inputs(config)
    retargeted, torque = run_motion_analysis(config, inputs)
    expected = [
        thorax_flexion_deg(KinematicState(inputs.model, q).segment_pose("thorax").rotation)
        for q in retargeted.configurations
    ]
    assert np.array_equal(torque.theta_deg, expected)


def test_emg_trial_settles_at_its_own_sample_rate(tmp_path):
    """A trial recorded at half the baseline's rate, both rates from their
    time columns, drops its own 0.5 s settle-in rather than the baseline's
    sample count (1.0 s at the trial's rate). The trial is louder between
    0.5 and 1.0 s, so dropping too much shows in the change."""
    write_emg_csv(tmp_path / "baseline.csv", 2000.0, 3.0, {"ESL_L": 50.0})
    t = np.arange(3000) / 1000.0
    amplitude = np.where((t >= 0.5) & (t < 1.0), 100.0, 50.0)
    trial = amplitude * np.random.default_rng(8).standard_normal(t.size)
    eio.write_csv(tmp_path / "head.csv", ["time_s", "ESL_L"], np.column_stack([t, trial]))
    config = {
        "profile": {"height_m": 1.75, "mass_kg": 70.0},
        "emg": {"baseline_file": "baseline.csv", "trial_files": {"head": "head.csv"}},
        "output_dir": "out",
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    bundle = run_pipeline(load_config(tmp_path / "config.json"))
    with open(bundle.files["emg_changes"], newline="") as fh:
        (row,) = csv.DictReader(fh)

    baseline = eio.read_emg_file(tmp_path / "baseline.csv")
    record = eio.read_emg_file(tmp_path / "head.csv")
    fs_base, fs_trial = baseline.sample_rate, record.sample_rate
    assert (fs_base, fs_trial) == (pytest.approx(2000.0), pytest.approx(1000.0))
    base_env = emg_envelope(baseline.channels["ESL_L"], fs_base)[settle_samples(fs_base) :]
    env = emg_envelope(record.channels["ESL_L"], fs_trial)
    own_rate = emg_change_pct(env[settle_samples(fs_trial) :], base_env)
    baseline_rate = emg_change_pct(env[settle_samples(fs_base) :], base_env)
    assert float(row["change_pct"]) == pytest.approx(own_rate, rel=1e-9)
    assert abs(own_rate - baseline_rate) > 5.0


def test_biosignal_and_survey_branches(tmp_path):
    fs_emg = 4370.0
    write_emg_csv(tmp_path / "baseline.csv", fs_emg, 1.5, {"ESL_L": 50.0, "ESL_R": 50.0, "TA": 30.0})
    write_emg_csv(tmp_path / "head.csv", fs_emg, 1.5, {"ESL_L": 40.0, "ESL_R": 45.0})
    write_ecg_csv(tmp_path / "ecg_head.csv", 500.0, 30.0, 66.0)
    write_responses(tmp_path / "responses.jsonl")
    config = {
        "profile": {"height_m": 1.75, "mass_kg": 70.0},
        "emg": {
            "baseline_file": "baseline.csv",
            "trial_files": {"head": "head.csv"},
        },
        "ecg": {"files": {"head": "ecg_head.csv"}},
        "survey": {"responses_file": "responses.jsonl"},
        "output_dir": "out",
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    bundle = run_pipeline(load_config(tmp_path / "config.json"))

    with open(bundle.files["emg_changes"], newline="") as fh:
        rows = {r["channel"]: r["change_pct"] for r in csv.DictReader(fh)}
    assert rows["TA"] == "NA"  # channel absent from the trial
    assert float(rows["ESL_L"]) < 0.0  # reduced amplitude shows as reduction

    with open(bundle.files["heart_rate"], newline="") as fh:
        hr = list(csv.DictReader(fh))[0]
    assert float(hr["median"]) == pytest.approx(66.0, abs=1.0)

    with open(bundle.files["survey_constructs"], newline="") as fh:
        constructs = {r["construct"]: r for r in csv.DictReader(fh)}
    assert constructs["Easiness to install"]["display"] == "4.5±0.7"
    with open(bundle.files["survey_borg"], newline="") as fh:
        borg = [r for r in csv.DictReader(fh) if r["zone"] == "lower_back"][0]
    assert borg["display"] == "1.8±0.4"

    # no motion stage ran
    assert "torque_series" not in bundle.files


def test_survey_violations_abort(tmp_path):
    bad = {"respondent_id": "p", "questionnaire_id": "B", "answers": {"1": 9}}
    (tmp_path / "responses.jsonl").write_text(json.dumps(bad))
    with pytest.raises(ValidationError, match=r"stage survey: .*responses\.jsonl: line 1: item 1: answer 9"):
        run_pipeline(load_config(write_survey_config(tmp_path)))


BIG = "9" * 400  # a JSON integer beyond the float range
# one record Python's json accepts but no questionnaire does: (record, what the error names)
BAD_RESPONSES = {
    "likert-nan": ('{"respondent_id": "p", "questionnaire_id": "B", "answers": {"1": NaN}}', "item 1: answer nan"),
    "likert-infinity": (
        '{"respondent_id": "p", "questionnaire_id": "B", "answers": {"1": Infinity}}',
        "item 1: answer inf",
    ),
    "numeric-huge": (
        f'{{"respondent_id": "p", "questionnaire_id": "C", "answers": {{"effort_neck": {BIG}}}}}',
        "item effort_neck: answer 999",
    ),
    "borg-huge": (
        f'{{"respondent_id": "p", "questionnaire_id": "D", "answers": {{"borg_neck": {BIG}}}}}',
        "item borg_neck: answer 999",
    ),
    "unknown-questionnaire": (
        '{"respondent_id": "p", "questionnaire_id": "Z", "answers": {}}',
        "unknown questionnaire_id 'Z'",
    ),
}


@pytest.mark.parametrize("record, named", BAD_RESPONSES.values(), ids=list(BAD_RESPONSES))
def test_cli_bad_response_exits_2_naming_file_and_line(tmp_path, capsys, record, named):
    write_responses(tmp_path / "responses.jsonl")
    with open(tmp_path / "responses.jsonl", "a", encoding="utf-8") as fh:
        fh.write("\n" + record + "\n")
    assert cli.main(["pipeline", "--config", str(write_survey_config(tmp_path))]) == 2
    assert f"responses.jsonl: line 8: {named}" in capsys.readouterr().err


def test_each_answer_is_checked_once(tmp_path, monkeypatch):
    """Scoring reads the answers the reader checked: ``_check_answer`` runs
    once per answer in the file."""
    from exoload import surveys

    calls = []
    check = surveys._check_answer

    def counted(item, value):
        calls.append(item.item_id)
        return check(item, value)

    monkeypatch.setattr(surveys, "_check_answer", counted)
    write_responses(tmp_path / "responses.jsonl")
    run_pipeline(load_config(write_survey_config(tmp_path)))
    lines = (tmp_path / "responses.jsonl").read_text().splitlines()
    assert len(calls) == sum(len(json.loads(line)["answers"]) for line in lines) == 24


def test_stage_errors_name_the_stage(tmp_path):
    (tmp_path / "motion.csv").write_text("time_s\n")
    config = {
        "profile": {"height_m": 1.75, "mass_kg": 70.0},
        "motion_file": "motion.csv",
        "output_dir": "out",
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    with pytest.raises(ValidationError, match="stage parse-motion"):
        run_pipeline(load_config(tmp_path / "config.json"))


def test_stage_keeps_the_error_type_and_passes_other_errors():
    with pytest.raises(NumericalError, match="^stage dynamics: singular") as info:
        with _stage("dynamics"):
            raise NumericalError("singular")
    assert isinstance(info.value.__cause__, NumericalError)
    with pytest.raises(KeyError):
        with _stage("dynamics"):
            raise KeyError("not a package error")
    with _stage("dynamics"):
        pass


def test_emit_boxplot_data_order_and_round_trip(tmp_path):
    s1 = DistributionSummary(3, 2.0, 1.0, 1.0, 1.5, 2.0, 2.5, 3.0)
    s2 = DistributionSummary(1, 9.0, 0.0, 9.0, 9.0, 9.0, 9.0, 9.0)
    records = emit_boxplot_data([("f", "b", "c", s2), ("f", "a", "c", s1)])
    assert [r["label"] for r in records] == ["b", "a"]  # input order preserved
    path = tmp_path / "box.json"
    eio.write_json(path, records)
    assert json.loads(path.read_text()) == records


def test_cli_pipeline_and_exit_codes(tmp_path, capsys):
    config_path = write_bend_session(tmp_path, duration_s=0.5, with_annotation=False)
    assert cli.main(["pipeline", "--config", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "manifest" in out
    assert gc.get_freeze_count() == 0  # only the process entry freezes the collector

    assert cli.main(["pipeline", "--config", str(tmp_path / "missing.json")]) == 2

    # flat ECG drives a numerical failure -> exit 3
    n = 4000
    eio.write_csv(
        tmp_path / "flat.csv",
        ["time_s", "lead_I"],
        np.column_stack([np.arange(n) / 500.0, np.zeros(n)]),
    )
    config = {
        "profile": {"height_m": 1.75, "mass_kg": 70.0},
        "ecg": {"files": {"control": "flat.csv"}},
        "output_dir": "out2",
    }
    (tmp_path / "ecg_config.json").write_text(json.dumps(config))
    assert cli.main(["pipeline", "--config", str(tmp_path / "ecg_config.json")]) == 3


def run_cli_process(*args: str, code: str | None = None) -> subprocess.CompletedProcess:
    """``python -m exoload.cli`` with ``args`` in a fresh interpreter, or
    ``python -c code`` with ``args`` as its ``sys.argv[1:]``."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    entry = ["-c", code] if code else ["-m", "exoload.cli"]
    return subprocess.run([sys.executable, *entry, *args], capture_output=True, text=True, env=env)


def test_cli_process_entry_writes_the_in_process_bundle(tmp_path):
    config_path = write_bend_session(tmp_path, duration_s=0.5)
    done = run_cli_process("pipeline", "--config", str(config_path))
    assert done.returncode == 0, done.stderr
    out_dir = load_config(config_path).output_dir
    written = {p: p.read_bytes() for p in sorted(out_dir.rglob("*"))}

    bundle = run_pipeline(load_config(config_path))
    assert done.stdout.splitlines() == [f"{key}: {bundle.files[key]}" for key in sorted(bundle.files)]
    assert written == {p: p.read_bytes() for p in sorted(out_dir.rglob("*"))}
    assert sorted(written) == sorted(bundle.files.values())

    missing = tmp_path / "missing.json"
    failed = run_cli_process("pipeline", "--config", str(missing))
    assert failed.returncode == 2
    assert str(missing) in failed.stderr


def test_cli_pipeline_run_leaves_numpy_ma_unimported(tmp_path):
    config_path = write_bend_session(tmp_path, duration_s=0.5)
    code = (
        "import sys\n"
        "from exoload import cli\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
        "print('numpy.ma' in sys.modules)"
    )
    done = run_cli_process("pipeline", "--config", str(config_path), code=code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def write_short_emg_trial(tmp_path):
    """A 0.3 s trial, shorter than the 0.5 s settle-in its envelope drops."""
    write_emg_csv(tmp_path / "baseline.csv", 2000.0, 2.0, {"ESL_L": 50.0})
    write_emg_csv(tmp_path / "short.csv", 2000.0, 0.3, {"ESL_L": 50.0})
    return {"emg": {"baseline_file": "baseline.csv", "trial_files": {"PS": "short.csv"}}}


def test_cli_emg_baseline_shorter_than_settle_in_names_the_baseline(tmp_path, capsys):
    """A 0.3 s baseline with a 2 s trial: the baseline envelope does not
    outlast its 0.5 s settle-in, and the error names the baseline, not the
    trial whose change it would have been compared with."""
    write_emg_csv(tmp_path / "baseline.csv", 2000.0, 0.3, {"ESL_L": 50.0})
    write_emg_csv(tmp_path / "trial.csv", 2000.0, 2.0, {"ESL_L": 50.0})
    config = {
        "profile": {"height_m": 1.75, "mass_kg": 70.0},
        "emg": {"baseline_file": "baseline.csv", "trial_files": {"PS": "trial.csv"}},
        "output_dir": "out",
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert cli.main(["pipeline", "--config", str(tmp_path / "config.json")]) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path / 'baseline.csv'}: empty signal" in err and "settle-in" in err
    assert "trial.csv" not in err


def write_ecg(tmp_path, duration_s, flat):
    n = int(duration_s * 500.0)
    signal = np.zeros(n) if flat else synthetic_ecg(500.0, duration_s, 70.0)[0]
    eio.write_csv(tmp_path / "ecg.csv", ["time_s", "lead_I"], np.column_stack([np.arange(n) / 500.0, signal]))
    return {"ecg": {"files": {"PS": "ecg.csv"}}}


@pytest.mark.parametrize(
    "write_branch, file, code, message",
    [
        (write_short_emg_trial, "short.csv", 2, "empty signal"),
        (lambda tmp_path: write_ecg(tmp_path, 3.0, flat=False), "ecg.csv", 2, "at least 5 s"),
        (lambda tmp_path: write_ecg(tmp_path, 10.0, flat=True), "ecg.csv", 3, "no peaks found"),
    ],
    ids=["emg-trial-shorter-than-settle-in", "ecg-shorter-than-5-s", "flat-ecg"],
)
def test_cli_recording_processing_errors_name_the_file(tmp_path, capsys, write_branch, file, code, message):
    """An error from processing one EMG or ECG recording names that file
    once, and keeps the exit code of its type."""
    config = {"profile": {"height_m": 1.75, "mass_kg": 70.0}, "output_dir": "out", **write_branch(tmp_path)}
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert cli.main(["pipeline", "--config", str(tmp_path / "config.json")]) == code
    err = capsys.readouterr().err
    assert f"{tmp_path / file}: " in err and message in err
    assert err.count(file) == 1


def test_cli_non_finite_motion_cell_exits_2_naming_the_file(tmp_path, capsys):
    config_path = write_bend_session(tmp_path, duration_s=0.5, with_annotation=False)
    motion = tmp_path / "motion.csv"
    lines = motion.read_text(encoding="utf-8").splitlines()
    cells = lines[5].split(",")
    cells[1] = "nan"
    lines[5] = ",".join(cells)
    motion.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert cli.main(["pipeline", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert "motion.csv: row 6" in err and "non-finite" in err


def write_repeated_column_session(directory, kind: str):
    """A session whose ``kind`` input file names a column twice: the motion
    capture's ``pelvis_px``, the EMG trial's ``ESL_L`` or the ECG's
    ``lead_I``, the second copy holding other values. Returns the config
    path and the file."""
    if kind == "motion":
        config_path = write_bend_session(directory, duration_s=0.5, with_annotation=False)
        path = directory / "motion.csv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines = [lines[0] + ",pelvis_px"] + [line + ",5.0" for line in lines[1:]]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return config_path, path
    if kind == "emg":
        write_emg_csv(directory / "baseline.csv", 2000.0, 2.0, {"ESL_L": 50.0})
        path = directory / "trial.csv"
        t = np.arange(4000) / 2000.0
        rng = np.random.default_rng(9)
        columns = [t, 40.0 * rng.standard_normal(t.size), 80.0 * rng.standard_normal(t.size)]
        eio.write_csv(path, ["time_s", "ESL_L", "ESL_L"], np.column_stack(columns))
        session = {"emg": {"baseline_file": "baseline.csv", "trial_files": {"PS": "trial.csv"}}}
    else:
        path = directory / "ecg.csv"
        signal, _ = synthetic_ecg(500.0, 10.0, 66.0, snr_db=25.0, seed=11)
        columns = [np.arange(signal.size) / 500.0, signal, np.zeros(signal.size)]
        eio.write_csv(path, ["time_s", "lead_I", "lead_I"], np.column_stack(columns))
        session = {"ecg": {"files": {"PS": "ecg.csv"}}}
    config = {"profile": {"height_m": 1.75, "mass_kg": 70.0}, "output_dir": "out", **session}
    (directory / "config.json").write_text(json.dumps(config))
    return directory / "config.json", path


@pytest.mark.parametrize("kind, column", [("motion", "pelvis_px"), ("emg", "ESL_L"), ("ecg", "lead_I")])
def test_cli_repeated_csv_column_exits_2_naming_the_file_and_column(tmp_path, capsys, kind, column):
    """A header that names a column twice is an error, not the last copy's
    values under that name."""
    config_path, path = write_repeated_column_session(tmp_path, kind)
    assert cli.main(["pipeline", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}: column {column!r} appears twice in the header" in err
    assert list((tmp_path / "out").glob("*")) == []  # the run wrote no file


SURVEY_CONFIG = '"survey": {"responses_file": "responses.jsonl"}, "output_dir": "out"'
REPEATED_KEYS = {
    "config": (
        '{"profile": {"height_m": 1.75, "mass_kg": 70.0}, ' + SURVEY_CONFIG + ', "seed": 5, "seed": 9}',
        "seed",
    ),
    "config-nested": (
        '{"profile": {"height_m": 1.75, "height_m": 1.8, "mass_kg": 70.0}, ' + SURVEY_CONFIG + "}",
        "height_m",
    ),
    "responses-line": ('{"respondent_id": "p3", "questionnaire_id": "B", "respondent_id": "p4"}', "respondent_id"),
}


@pytest.mark.parametrize("case", list(REPEATED_KEYS))
def test_cli_repeated_json_key_exits_2_naming_the_file_and_key(tmp_path, capsys, case):
    """A JSON object that states a key twice is an error, not the last
    value: in a file read whole, at any depth, and on one line of a
    responses file."""
    text, key = REPEATED_KEYS[case]
    responses = tmp_path / "responses.jsonl"
    write_responses(responses)
    config_path = write_survey_config(tmp_path)
    if case == "responses-line":
        lines = responses.read_text(encoding="utf-8").splitlines() + [text]
        responses.write_text("\n".join(lines) + "\n", encoding="utf-8")
        where = f"{responses}: line {len(lines)}"
    else:
        config_path.write_text(text)
        where = str(config_path)
    assert cli.main(["pipeline", "--config", str(config_path)]) == 2
    assert f"{where}: repeated key {key!r}" in capsys.readouterr().err
    assert list((tmp_path / "out").glob("*")) == []  # the run wrote no file


def test_cli_irregular_frame_spacing_exits_2_naming_the_row(tmp_path, capsys):
    """A 240 Hz capture with one timestamp moved by half a frame: the error
    names the motion file and the row of the frame."""
    config_path = write_bend_session(tmp_path, duration_s=0.5, with_annotation=False)
    motion = tmp_path / "motion.csv"
    lines = motion.read_text(encoding="utf-8").splitlines()
    cells = lines[6].split(",")  # data row 5
    cells[0] = repr(float(cells[0]) + 0.5 / 240.0)
    lines[6] = ",".join(cells)
    motion.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert cli.main(["pipeline", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert "motion.csv: row 7: frame spacing at frame 5" in err


def round_motion_times(motion: Path, decimals: int) -> np.ndarray:
    """Rewrite the ``time_s`` column of a motion file to ``decimals``
    places, as an export with a fixed number of decimals writes it, and
    return the rounded times as read back."""
    lines = motion.read_text(encoding="utf-8").splitlines()
    for i in range(1, len(lines)):
        time, rest = lines[i].split(",", 1)
        lines[i] = f"{float(time):.{decimals}f},{rest}"
    motion.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return np.array([float(line.split(",", 1)[0]) for line in lines[1:]])


@pytest.mark.parametrize("decimals", [4, 5, 6])
def test_rounded_capture_times_are_replayed_as_recorded(tmp_path, decimals):
    """A 240 Hz capture whose timestamps are written to a fixed number of
    decimals, with an annotation window that ends one period past the last
    frame: every frame is retargeted at its recorded time."""
    config_path = write_bend_session(tmp_path, duration_s=0.5)
    times = round_motion_times(tmp_path / "motion.csv", decimals)
    assert np.ptp(np.diff(times)) > 0.0  # the rounding leaves the grid uneven
    assert cli.main(["pipeline", "--config", str(config_path)]) == 0
    joints = np.loadtxt(tmp_path / "out" / "joints.csv", delimiter=",", skiprows=1, ndmin=2)
    assert len(joints) == len(times) == 120
    assert np.array_equal(joints[:, 0], times)


def test_capture_rounded_past_the_spacing_tolerance_exits_2_naming_the_row(tmp_path, capsys):
    """At 3 decimals a 240 Hz frame spacing reads 4 or 5 ms, 20% apart: the
    capture is not uniform."""
    config_path = write_bend_session(tmp_path, duration_s=0.5)
    round_motion_times(tmp_path / "motion.csv", 3)
    assert cli.main(["pipeline", "--config", str(config_path)]) == 2
    pattern = (
        r"motion\.csv: row (\d+): frame spacing at frame (\d+) is ([0-9.]+) s, "
        r"more than 10% off the mean spacing ([0-9.]+) s"
    )
    found = re.search(pattern, capsys.readouterr().err)
    assert found, "the error names no row"
    row, frame, spacing, period = (float(v) for v in found.groups())
    assert row == frame + 2
    assert abs(spacing - period) > 0.1 * period


def test_cli_stray_linalg_error_exits_3_naming_the_subcommand(tmp_path, capsys, monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr("exoload.retarget.solve_hierarchy", singular)
    config_path = write_bend_session(tmp_path, duration_s=0.5, with_annotation=False)
    assert cli.main(["pipeline", "--config", str(config_path)]) == 3
    err = capsys.readouterr().err
    assert "error: pipeline: numerical failure" in err and "SVD did not converge" in err


def test_cli_stage_commands(tmp_path, capsys):
    """``pipeline`` on a motion-only config runs every motion stage:
    retargeting, dynamics and posture each leave their file."""
    config_path = write_bend_session(tmp_path, duration_s=0.5)
    assert cli.main(["pipeline", "--config", str(config_path)]) == 0
    for name in ("joints.csv", "torque_series.csv", "angle_summaries.csv"):
        assert (tmp_path / "out" / name).exists(), name
    with pytest.raises(SystemExit) as exc:  # boxplot_data.json has one writer, run_pipeline
        cli.main(["report", "--config", str(config_path)])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("blocked", ["joints.csv", "manifest.json"])
def test_a_bundle_file_that_cannot_be_written_exits_2_naming_it(tmp_path, capsys, blocked):
    """A directory at a bundle file's path is a validation error naming that
    path, not a traceback. The report stage writes joints first and the
    manifest last, and the files it wrote before the failure stay."""
    config_path = write_bend_session(tmp_path, duration_s=0.5)
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert cli.main(["pipeline", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: stage report: cannot write ") and str(out / blocked) in err
    written = {p.name for p in out.iterdir() if p.is_file()}
    if blocked == "joints.csv":
        assert written == set()
    else:
        assert {"joints.csv", "torque_series.csv", "angle_summaries.csv", "boxplot_data.json"} <= written


@pytest.mark.parametrize(
    "args",
    [
        ["report"],  # boxplot_data.json has one writer, run_pipeline
        ["retarget"],
        ["dynamics"],
        ["posture"],
        ["motion"],  # a branch runs alone from a config that holds only that branch
        ["emg"],
        ["ecg"],
        ["survey"],
        ["pipeline", "--motion", "motion.csv"],
        ["pipeline", "--annotation", "annotation.json"],
        ["pipeline", "--exoskeleton", "none"],
        ["pipeline", "--seed", "7"],  # the config's seed is the one the manifest records
    ],
)
def test_cli_removed_subcommands_and_overrides_exit_2(tmp_path, capsys, args):
    """Every analysis setting comes from the config file: the per-stage and
    per-branch subcommands and the input overrides are gone, and argparse
    rejects them."""
    config_path = write_bend_session(tmp_path, duration_s=0.5)
    with pytest.raises(SystemExit) as exc:
        cli.main([*args, "--config", str(config_path)])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()
    capsys.readouterr()


def readme_section(heading):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_lists_the_cli_subcommands():
    """The sh block under the README's "Command line" heading lists one line
    per subcommand, exactly the subcommands the parser defines."""
    block = readme_section("Command line").split("```sh\n", 1)[1].split("```", 1)[0]
    documented = [line.split()[1] for line in block.splitlines() if line.startswith("exoload ")]
    parser = cli._build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert sorted(documented) == sorted(subparsers.choices)
    assert len(documented) == len(set(documented))


def test_readme_config_example_and_exoskeleton_fields_match_the_code(tmp_path):
    """The README's example session config loads as it stands (loading reads
    no input file), and its list of exoskeleton-parameter fields is the
    fields of ``LaevoModel``."""
    path = tmp_path / "session.json"
    path.write_text(readme_section("Command line").split("```json\n", 1)[1].split("```", 1)[0])
    assert load_config(path).exoskeleton == "laevo"
    formats = readme_section("File formats")
    sentence = formats.split("An exoskeleton parameter file holds", 1)[1].split(";", 1)[0]
    documented = re.findall(r"`(\w+)`", sentence)
    assert documented == [f.name for f in dataclasses.fields(LaevoModel)]


def test_readme_motion_settings_match_the_code():
    """The README sentence that lists the motion settings names exactly
    ``MOTION_FIELDS`` and the coefficient table file, in order."""
    section = readme_section("Command line")
    sentence = section.split("the config may\nset none of the motion settings:", 1)[1].split(".\n", 1)[0]
    documented = re.findall(r"`([\w.]+)`", sentence)
    assert documented == [*MOTION_FIELDS, "profile.coefficient_table_file"]


@pytest.mark.parametrize("variant", ["laevo", "none", "no-motion"])
def test_manifest_inputs_are_exactly_the_files_read(tmp_path, variant):
    config, files = write_every_input_session(tmp_path)
    expected = set(files)
    # a config names only the files its run reads
    if variant == "none":
        config["exoskeleton"] = "none"
        del config["exoskeleton_params_file"]
        expected -= {"exoskeleton"}
    if variant == "no-motion":
        for key in ("motion_file", *MOTION_FIELDS):
            config.pop(key, None)
        del config["profile"]["coefficient_table_file"]
        expected -= {"motion", "annotation", "coefficients", "aliases", "exoskeleton"}
    files["config"].write_text(json.dumps(config))
    bundle = run_pipeline(load_config(files["config"]))
    manifest = json.loads(bundle.files["manifest"].read_text())
    assert manifest["inputs"] == {str(files[kind]): eio.sha256_file(files[kind]) for kind in expected}
    assert manifest["config"]["config_path"] == str(files["config"])
    assert manifest["config"]["profile"] == {"height_m": 1.75, "mass_kg": 70.0}


def test_every_exoskeleton_parameter_is_applied(tmp_path):
    """Changing any one field of the parameter file changes the torque
    series. The bend fixture's capture is replaced by one that holds the
    bend and then straightens a quarter of the way back, so the descending
    branch, where ``k_loss`` acts, is reached inside the engagement range."""
    model = default_model()
    bent = bent_configuration(model)
    scales = np.concatenate([np.ones(60), np.linspace(1.0, 0.75, 60)])
    poses = [
        JointConfiguration(bent.base_position, bent.base_orientation, s * bent.joint_angles)
        for s in scales
    ]
    capture = capture_from_configurations(model, poses, 240.0)

    def torque_series(name, params):
        directory = tmp_path / name
        directory.mkdir()
        config_path = write_bend_session(directory, duration_s=0.5, with_annotation=False)
        write_motion_file(directory / "motion.csv", capture)
        (directory / "laevo.json").write_text(json.dumps(params))
        config = json.loads(config_path.read_text())
        config_path.write_text(json.dumps(dict(config, exoskeleton_params_file="laevo.json")))
        return run_pipeline(load_config(config_path)).files["torque_series"].read_bytes()

    reference = torque_series("file", LAEVO_PARAMS)
    changed = {"k_loss": 5.0, "theta_min": 15.0, "theta_max": 55.0, "tau_max": 30.0}
    assert set(changed) == set(LAEVO_PARAMS)
    for field, value in changed.items():
        assert torque_series(field, dict(LAEVO_PARAMS, **{field: value})) != reference, field


def test_summary_tables_list_their_figures_boxplot_records(tmp_path):
    """Each summary table holds its figure's ``boxplot_data.json`` records,
    in order, and every bundle file is named after its key."""
    _, files = write_every_input_session(tmp_path)
    bundle = run_pipeline(load_config(files["config"]))
    records = json.loads(bundle.files["boxplot_data"].read_text())
    for key, figure in [
        ("angle_summaries", "back_flexion"),
        ("torque_summaries", "lumbar_torque"),
        ("heart_rate", "heart_rate"),
    ]:
        with open(bundle.files[key], newline="") as fh:
            rows = list(csv.DictReader(fh))
        expected = [record for record in records if record["figure"] == figure]
        assert rows and len(rows) == len(expected), key
        for row, record in zip(rows, expected):
            assert (row["label"], row["channel"], int(row["n"])) == (
                record["label"],
                record["channel"],
                record["n"],
            )
            for column in ("min", "q1", "median", "q3", "max"):
                assert float(row[column]) == record[column], (key, column)
    assert len(bundle.files) == 12
    for key, path in bundle.files.items():
        assert path.name in (f"{key}.csv", f"{key}.json") and path.parent == bundle.output_dir


@pytest.mark.parametrize(
    "field, value",
    [
        # no longer fields: the method's settings are the code's constants
        ("derivative_smoothing_hz", "5"),
        ("derivative_smoothing_hz", True),
        ("derivative_smoothing_hz", float("inf")),
        ("gravity", "nan"),
        ("gravity", float("nan")),
        ("gravity", None),
        # no longer a field: the time column sets the EMG rate
        ("emg.sample_rate", "2000"),
        ("emg.sample_rate", False),
        ("emg.sample_rate", [2000.0]),
    ],
)
def test_config_numbers_are_checked_where_read(tmp_path, capsys, field, value):
    config = {
        "profile": {"height_m": 1.75, "mass_kg": 70.0},
        "emg": {"baseline_file": "b.csv", "trial_files": {}},
        "output_dir": "out",
    }
    if field == "emg.sample_rate":
        config["emg"]["sample_rate"] = value
    else:
        config[field] = value
    message = rf"unknown field\(s\) {field}"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    with pytest.raises(ValidationError, match=rf"config.json: {message}"):
        load_config(path)
    assert cli.main(["pipeline", "--config", str(path)]) == 2
    assert field in capsys.readouterr().err


def test_config_numbers_accept_integers_and_null(tmp_path):
    """An integer reads as a float where a number is read, and ``null`` as
    ``None`` exactly where the field's default is ``None``."""
    config = {
        "profile": {"height_m": 1.75, "mass_kg": 70},
        "motion_file": "motion.csv",
        "annotation_file": None,
        "emg": {"baseline_file": "b.csv", "trial_files": {"head": "h.csv"}},
        "ecg": None,
        "output_dir": "out",
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    loaded = load_config(path)
    assert loaded.annotation_file is None and loaded.ecg is None
    assert type(loaded.profile.mass_kg) is float and loaded.profile.mass_kg == 70.0
    path.write_text(json.dumps(dict(config, exoskeleton=None)))
    with pytest.raises(ValidationError, match="config.json: exoskeleton must be a string, got None"):
        load_config(path)


def with_field(*keys, value):
    """An edit of a decoded JSON document that sets the field at ``keys``."""

    def edit(payload):
        target = payload
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        return payload

    return edit


def overlapping_segment(payload):
    payload["segments"].append(dict(payload["segments"][0], label="SP"))
    return payload


def extra_segment(payload):
    """A ``tail`` segment, the mass fractions re-split to sum to 1."""
    for row in payload["segments"]:
        row["mass_fraction"] *= 0.9
    payload["segments"].append(dict(payload["segments"][0], name="tail", mass_fraction=0.1))
    return payload


def missing_segment(payload):
    """No ``neck``; its mass folded into the head."""
    segments = {row["name"]: row for row in payload["segments"]}
    segments["head"]["mass_fraction"] += segments.pop("neck")["mass_fraction"]
    payload["segments"] = list(segments.values())
    return payload


def zero_gyration(payload):
    next(row for row in payload["segments"] if row["name"] == "left_hand")["gyration_fractions"][0] = 0.0
    return payload


def icu_text_with_icu_only_answer(payload):
    payload["context"]["icu"] = "false"
    payload["answers"]["maneuvers_today"] = 3
    return payload


# one edit of one input file of a valid session: (input, edit, field named)
BAD_INPUT_EDITS = {
    "sidecar-rate-string": ("emg_baseline_sidecar", with_field("sample_rate", value="2000"), "sample_rate"),
    "sidecar-list": ("emg_baseline_sidecar", lambda payload: [1], "JSON object"),
    "annotation-start-text": ("annotation", with_field("segments", 0, "start", value="abc"), "segments.0.start"),
    "annotation-start-bool": ("annotation", with_field("segments", 0, "start", value=True), "segments.0.start"),
    "table-segments-number": ("coefficients", with_field("segments", value=5), "segments"),
    "table-com-string": (
        "coefficients",
        with_field("segments", 0, "com_fraction", value="0.5"),
        "segments.0.com_fraction",
    ),
    "height-bool": ("config", with_field("profile", "height_m", value=True), "profile.height_m"),
    "mass-string": ("config", with_field("profile", "mass_kg", value="70"), "profile.mass_kg"),
    "seed-string": ("config", with_field("seed", value="5"), "seed"),
    "seed-float": ("config", with_field("seed", value=1.9), "seed"),
    "exoskeleton-typo": ("config", with_field("exoskelton", value="laevo"), "exoskelton"),
    "exoskeleton-unknown": (
        "config",
        with_field("exoskeleton", value="foo"),
        "config.json: exoskeleton must be 'none' or 'laevo', got 'foo'",
    ),
    "alias-number": ("aliases", with_field("hips", value=5), "hips"),
    "response-icu-text": ("responses", icu_text_with_icu_only_answer, "context.icu"),
    "response-context-typo": (
        "responses",
        with_field("context", "exoskelton", value="Laevo"),
        "line 7: unknown field(s) context.exoskelton",
    ),
    # range checks where the value is read
    "sidecar-rate-zero": ("emg_baseline_sidecar", with_field("sample_rate", value=0), "sample_rate"),
    "ecg-sidecar-rate-negative": ("ecg_sidecar", with_field("sample_rate", value=-500.0), "sample_rate"),
    # a stated rate against the time column's
    "sidecar-rate-disagrees": (
        "emg_baseline_sidecar",
        with_field("sample_rate", value=1000.0),
        "sample_rate 1000 Hz disagrees with the 2000 Hz of the time_s column of baseline.csv",
    ),
    "ecg-sidecar-rate-disagrees": (
        "ecg_sidecar",
        with_field("sample_rate", value=250.0),
        "sample_rate 250 Hz disagrees with the 500 Hz of the time_s column of ecg.csv",
    ),
    # a field the config no longer has: the time column sets the EMG rate
    "emg-rate-zero": (
        "config",
        with_field("emg", "sample_rate", value=0),
        "unknown field(s) emg.sample_rate",
    ),
    # fields that restated a value of another input: the table file's own id,
    # and the spring line through (theta_min, 0) and (theta_max, tau_max)
    "coefficient-table-id": (
        "config",
        with_field("profile", "coefficient_table", value="default-v1"),
        "unknown field(s) profile.coefficient_table",
    ),
    "laevo-k0": ("exoskeleton", with_field("k0", value=-80.0 / 3.0), "unknown field(s) k0"),
    "height-negative": ("config", with_field("profile", "height_m", value=-1), "profile.height_m"),
    "mass-zero": ("config", with_field("profile", "mass_kg", value=0.0), "profile.mass_kg"),
    # a field the config no longer has: the smoothing cutoff is the code's constant
    "smoothing-negative": (
        "config",
        with_field("derivative_smoothing_hz", value=-3),
        "unknown field(s) derivative_smoothing_hz",
    ),
    "annotation-start-after-end": (
        "annotation",
        with_field("segments", 0, "start", value=9.0),
        "segments.0.start",
    ),
    # record checks of the annotation types
    "annotation-unknown-label": (
        "annotation",
        with_field("segments", 0, "label", value="bogus"),
        "segments.0.label: unknown segment label 'bogus'",
    ),
    "annotation-overlap": ("annotation", overlapping_segment, "segments 'PS' and 'SP' overlap"),
    # record check of the exoskeleton model
    "laevo-tau-max-negative": ("exoskeleton", with_field("tau_max", value=-40.0), "tau_max must be positive"),
    # tables whose mass fractions sum to 1 but that the model cannot take
    "table-extra-segment": ("coefficients", extra_segment, "missing [], unknown ['tail']"),
    "table-missing-segment": ("coefficients", missing_segment, "missing ['neck'], unknown []"),
    "table-zero-gyration": (
        "coefficients",
        zero_gyration,
        "segment 'left_hand' needs three gyration fractions above zero",
    ),
}


@pytest.mark.parametrize("kind, edit, field", BAD_INPUT_EDITS.values(), ids=list(BAD_INPUT_EDITS))
def test_one_bad_field_exits_2_naming_file_and_field(tmp_path, capsys, kind, edit, field):
    _, files = write_every_input_session(tmp_path)
    path = files[kind]
    if kind == "responses":  # JSON lines: the edit applies to the last record
        lines = path.read_text().split("\n")
        lines[-1] = json.dumps(edit(json.loads(lines[-1])))
        path.write_text("\n".join(lines))
    else:
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    assert cli.main(["pipeline", "--config", str(files["config"])]) == 2
    err = capsys.readouterr().err
    assert path.name in err and field in err
    assert err.count(str(path)) == 1  # named once, not prefixed twice


def write_static_capture(path, rate):
    """12 frames of the static bend, sampled at ``rate``."""
    model = default_model()
    write_motion_file(path, capture_from_configurations(model, [bent_configuration(model)] * 12, rate))


def test_capture_just_above_twice_the_smoothing_cutoff_runs(tmp_path):
    """A capture just above 10 Hz passes the read phase, and the velocity
    smoothing that the rule guards runs on it: no capture is read and then
    rejected after retargeting."""
    from exoload.dynamics import DERIVATIVE_SMOOTHING_HZ
    from exoload.pipeline import read_motion_inputs

    config_path = write_bend_session(tmp_path, duration_s=0.25, with_annotation=False)
    write_static_capture(tmp_path / "motion.csv", 10.001)
    config = load_config(config_path)
    assert 2 * DERIVATIVE_SMOOTHING_HZ < read_motion_inputs(config).captured.sample_rate < 10.01
    assert "torque_series" in run_pipeline(config).files


def test_sidecar_rate_out_of_range_exits_2_naming_the_file(tmp_path, capsys):
    """An EMG sidecar rate below twice the envelope cutoff is off its 2000 Hz
    time column: the error names the sidecar and both rates, and the file is
    never read at the stated rate."""
    _, files = write_every_input_session(tmp_path)
    files["emg_baseline_sidecar"].write_text(json.dumps({"units": "uV", "sample_rate": 5.0}))
    assert cli.main(["pipeline", "--config", str(files["config"])]) == 2
    err = capsys.readouterr().err
    message = "sample_rate 5 Hz disagrees with the 2000 Hz of the time_s column of baseline.csv"
    assert f"{files['emg_baseline_sidecar']}: {message}" in err
    assert "filter cutoff" not in err


def test_agreeing_sidecar_rate_changes_no_output(tmp_path):
    """A sidecar rate within 1% of its time column's is checked and not
    used: the bundle is the one without a stated rate, manifest aside."""
    bundles = []
    for stated in (None, 2000.0, 2015.0):
        (tmp_path / str(stated)).mkdir()
        _, files = write_every_input_session(tmp_path / str(stated))
        sidecar = {"units": "uV"} if stated is None else {"units": "uV", "sample_rate": stated}
        files["emg_baseline_sidecar"].write_text(json.dumps(sidecar))
        bundle = run_pipeline(load_config(files["config"]))
        bundles.append({key: path.read_bytes() for key, path in bundle.files.items() if key != "manifest"})
    assert bundles[0] == bundles[1] == bundles[2]


def test_non_utf8_byte_after_the_header_exits_2_naming_the_file(tmp_path, capsys):
    """The bulk pass decodes the body itself; a byte that is not UTF-8 right
    after a valid header is still a validation error naming the file."""
    _, files = write_every_input_session(tmp_path)
    path = files["emg_trial"]
    header, _, body = path.read_bytes().partition(b"\n")
    path.write_bytes(header + b"\n0.0,\xff1.0\n" + body.split(b"\n", 1)[1])
    assert cli.main(["pipeline", "--config", str(files["config"])]) == 2
    assert f"{path}: not UTF-8 text" in capsys.readouterr().err


@pytest.mark.parametrize("level", ["", "profile", "emg", "ecg", "survey"])
def test_config_rejects_unknown_fields(tmp_path, level):
    config = {
        "profile": {"height_m": 1.75, "mass_kg": 70.0},
        "emg": {"baseline_file": "b.csv", "trial_files": {"head": "h.csv"}},
        "ecg": {"files": {"head": "e.csv"}},
        "survey": {"responses_file": "r.jsonl"},
        "output_dir": "out",
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    load_config(path)
    (config[level] if level else config)["extra"] = 1
    path.write_text(json.dumps(config))
    name = f"{level}.extra" if level else "extra"
    with pytest.raises(ValidationError, match=rf"config\.json: unknown field\(s\) {name}$"):
        load_config(path)


@pytest.mark.parametrize(
    "field, value",
    [
        ("annotation_file", "annotation.json"),
        ("segment_aliases_file", "aliases.json"),
        ("exoskeleton", "laevo"),
        ("exoskeleton", "none"),
        ("exoskeleton_params_file", "laevo.json"),
        ("profile.coefficient_table_file", "coefficients.json"),
    ],
)
def test_config_without_motion_file_rejects_motion_fields(tmp_path, capsys, field, value):
    """Only the motion branch reads a motion setting, so a config without a
    motion_file that sets one exits 2 naming the config and the field."""
    path = write_survey_config(tmp_path)
    config = json.loads(path.read_text())
    *parents, key = field.split(".")
    (config[parents[0]] if parents else config)[key] = value
    path.write_text(json.dumps(config))
    with pytest.raises(ValidationError, match=rf"config\.json: no motion_file, so no run reads {field}$"):
        load_config(path)
    assert cli.main(["pipeline", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config.json" in err and field in err


@pytest.mark.parametrize(
    "field, value",
    [
        ("gravity", 1.0),
        ("derivative_smoothing_hz", 5.0),
        ("derivative_smoothing_hz", None),
        ("solver_settings_file", "solver.json"),
    ],
)
def test_config_rejects_method_settings(tmp_path, capsys, field, value):
    """Gravity, the velocity smoothing cutoff and the QP settings are the
    code's constants, so a config that states one, at its old default or
    ``null`` included, exits 2 naming the config and the field, and writes
    no file."""
    config_path = write_bend_session(tmp_path, duration_s=0.25, with_annotation=False)
    config = json.loads(config_path.read_text())
    config_path.write_text(json.dumps(dict(config, **{field: value})))
    with pytest.raises(ValidationError, match=rf"config\.json: unknown field\(s\) {field}$"):
        load_config(config_path)
    (tmp_path / "out").mkdir()
    assert cli.main(["pipeline", "--config", str(config_path)]) == 2
    assert f"{config_path}: unknown field(s) {field}" in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []


def test_config_rejects_settings_no_run_reads(tmp_path, capsys):
    """The two configs that once ran with a setting ignored: an exoskeleton
    parameter file without the laevo model (the file does not exist), and a
    survey-only config stating motion files and a device."""
    config_path = write_bend_session(tmp_path, duration_s=0.5, exoskeleton="none")
    config = json.loads(config_path.read_text())
    config["exoskeleton_params_file"] = "does_not_exist.json"
    config_path.write_text(json.dumps(config))
    assert cli.main(["pipeline", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert f"{config_path}: exoskeleton_params_file is read only with exoskeleton 'laevo', got 'none'" in err
    assert not (tmp_path / "out").exists()

    (tmp_path / "survey").mkdir()
    survey = write_survey_config(tmp_path / "survey")
    config = json.loads(survey.read_text())
    config.update(
        annotation_file="missing_annotation.json",
        segment_aliases_file="missing_aliases.json",
        exoskeleton="laevo",
    )
    survey.write_text(json.dumps(config))
    assert cli.main(["pipeline", "--config", str(survey)]) == 2
    err = capsys.readouterr().err
    assert (
        f"{survey}: no motion_file, so no run reads "
        "annotation_file, segment_aliases_file, exoskeleton"
    ) in err


@pytest.mark.parametrize(
    "branch, field",
    [
        ({"emg": {"baseline_file": "baseline.csv", "trial_files": {}}}, "emg.trial_files"),
        ({"ecg": {"files": {}, "channel": "II"}}, "ecg.files"),
    ],
    ids=["emg", "ecg"],
)
def test_a_branch_that_names_no_file_exits_2(tmp_path, capsys, branch, field):
    """An EMG branch without a trial enveloped its baseline for nothing, and
    an ECG branch without a recording never checked its channel; both wrote
    a header-only table. The config is rejected naming the empty map, and
    no file is written."""
    write_emg_csv(tmp_path / "baseline.csv", 2000.0, 1.5, {"ESL_L": 50.0})
    path = write_survey_config(tmp_path)
    write_responses(tmp_path / "responses.jsonl")
    path.write_text(json.dumps(dict(json.loads(path.read_text()), **branch)))
    with pytest.raises(ValidationError, match=rf"config\.json: {re.escape(field)} names no file"):
        load_config(path)
    assert cli.main(["pipeline", "--config", str(path)]) == 2
    assert f"{path}: {field} names no file" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_label_given_twice_in_the_annotation_exits_2_naming_the_file(tmp_path, capsys):
    """Two PS windows once ran with two PS angle rows that could not be told
    apart and one PS torque reduction, the second window's: the summaries
    are keyed by label, so a label names one window, and the run exits 2
    naming the annotation file and the label before it writes a file."""
    config_path = write_bend_session(tmp_path, duration_s=1.0)
    windows = [{"label": "PS", "start": 0.0, "end": 0.5}, {"label": "PS", "start": 0.5, "end": 1.0}]
    annotation = tmp_path / "annotation.json"
    annotation.write_text(json.dumps({"trial_id": "bend", "segments": windows}))
    assert cli.main(["pipeline", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert f"{annotation}: trial 'bend': label 'PS' names more than one segment" in err
    assert list((tmp_path / "out").iterdir()) == []


def test_the_analysis_takes_only_what_a_run_varies():
    """The velocity smoothing cutoff is the constant
    ``DERIVATIVE_SMOOTHING_HZ``, the heart rate is one summary of one whole
    recording, and the Borg summary takes every response of its
    questionnaire: no signature carries a cutoff, an annotation or a filter."""
    from exoload import biosignals, dynamics, surveys

    assert list(inspect.signature(dynamics.estimate_derivatives).parameters) == ["q", "dt"]
    assert list(inspect.signature(dynamics.net_lumbar_series).parameters) == ["kinematics", "dt"]
    assert list(inspect.signature(dynamics.check_sampling).parameters) == ["n_frames", "dt"]
    assert list(inspect.signature(biosignals.heart_rate_stats).parameters) == ["beat_times"]
    assert list(inspect.signature(surveys.borg_summary).parameters) == ["schema", "responses"]
    assert dynamics.DERIVATIVE_SMOOTHING_HZ == 5.0


def test_config_env_var(tmp_path, monkeypatch, capsys):
    """The config path comes only from ``--config``: the variable that once
    gave it, set alone, is not read."""
    config_path = write_bend_session(tmp_path, duration_s=0.5, with_annotation=False)
    monkeypatch.setenv("EXOLOAD_CONFIG", str(config_path))
    assert cli.main(["pipeline"]) == 2
    assert capsys.readouterr().err == "error: no config given: pass --config\n"
    assert not (tmp_path / "out").exists()


def test_pipeline_torque_matches_forward_model_oracle(tmp_path):
    """Known joint trajectory pushed through the whole pipeline: the net
    torque series must match inverse dynamics of the true trajectory with
    its closed-form derivatives (the forward-model oracle). After the
    settle-in and away from the end it stays within 2% relative RMS; over
    the last 48 frames, where the derivative filter settles, within 4 Nm
    RMS."""
    from helpers import (
        capture_from_configurations,
        default_model,
        sinusoid_derivatives,
        sinusoid_trajectory,
        write_motion_file,
    )

    from exoload.dynamics import LUMBAR_LOAD_SIGN, inverse_dynamics_series
    from exoload.skeleton import KinematicState, lumbar_flexion_index

    model = default_model()
    truth = sinusoid_trajectory(model, 3.0)
    captured = capture_from_configurations(model, truth, 240.0)
    write_motion_file(tmp_path / "motion.csv", captured)
    config = {
        "profile": {"height_m": 1.75, "mass_kg": 70.0},
        "motion_file": "motion.csv",
        "exoskeleton": "none",
        "output_dir": "out",
    }
    (tmp_path / "config.json").write_text(json.dumps(config))
    bundle = run_pipeline(load_config(tmp_path / "config.json"))
    with open(bundle.files["torque_series"], newline="") as fh:
        rows = list(csv.DictReader(fh))
    tau_pipeline = np.array([float(r["tau_net_nm"]) for r in rows])
    qd, qdd = sinusoid_derivatives(model, 3.0)
    tau = inverse_dynamics_series(KinematicState(model, truth), qd, qdd)
    oracle = LUMBAR_LOAD_SIGN * tau[:, 6 + lumbar_flexion_index(model)]
    skip, edge = 240, 48  # the first second while feedback converges; the filter's end
    err = tau_pipeline - oracle
    inner = slice(skip, len(oracle) - edge)
    rel_rms = float(np.sqrt(np.mean(err[inner] ** 2)) / np.sqrt(np.mean(oracle[inner] ** 2)))
    assert rel_rms <= 0.02
    assert float(np.sqrt(np.mean(err[-edge:] ** 2))) <= 4.0
    with open(bundle.files["torque_series"], newline="") as fh:
        exo = {float(r["tau_exo_nm"]) for r in csv.DictReader(fh)}
    assert exo == {0.0}  # no exoskeleton configured


def window_past_the_capture(tmp_path, config):
    path = tmp_path / "annotation.json"
    payload = json.loads(path.read_text())
    payload["segments"][0]["end"] = 1.01  # the 1 s capture's range is [0.0, 1.0]
    path.write_text(json.dumps(payload))
    return path, "stage parse-annotation", "lies outside the recorded range"


def negative_tau_max(tmp_path, config):
    path = tmp_path / "laevo.json"
    path.write_text(json.dumps(dict(LAEVO_PARAMS, tau_max=-40.0)))
    config["exoskeleton_params_file"] = path.name
    return path, "stage parse-exoskeleton", "tau_max must be positive"


def two_frame_capture(tmp_path, config):
    # the fixture at two frames; the 1 s config still names its files
    write_bend_session(tmp_path, duration_s=2 / 240)
    return tmp_path / "motion.csv", "stage parse-motion", "needs at least 3"


def capture_at_twice_the_cutoff(tmp_path, config):
    # the 5 Hz velocity smoothing needs a rate above 10 Hz
    write_static_capture(tmp_path / "motion.csv", 10.0)
    return tmp_path / "motion.csv", "stage parse-motion", "sample rate 10 Hz must exceed twice the 5 Hz"


def capture_far_below_twice_the_cutoff(tmp_path, config):
    write_static_capture(tmp_path / "motion.csv", 2.0)
    return tmp_path / "motion.csv", "stage parse-motion", "sample rate 2 Hz must exceed twice the 5 Hz"


@pytest.mark.parametrize(
    "edit",
    [
        window_past_the_capture,
        negative_tau_max,
        two_frame_capture,
        capture_at_twice_the_cutoff,
        capture_far_below_twice_the_cutoff,
    ],
)
def test_motion_inputs_are_checked_before_retargeting(tmp_path, capsys, monkeypatch, edit):
    """A bad annotation window, exoskeleton parameter file, a capture too
    short to differentiate or one sampled too slowly for the velocity
    smoothing exits 2 naming the file, before retargeting starts and
    without writing a file."""
    from exoload import pipeline

    def not_reached(*args, **kwargs):
        raise AssertionError("retargeting started")

    monkeypatch.setattr(pipeline, "retarget_trajectory", not_reached)
    config_path = write_bend_session(tmp_path, duration_s=1.0)
    config = json.loads(config_path.read_text())
    path, stage, message = edit(tmp_path, config)
    config_path.write_text(json.dumps(config))
    assert cli.main(["pipeline", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {stage}: ") and str(path) in err and message in err
    assert list((tmp_path / "out").iterdir()) == []


def add_emg_branch(config_path, nan_in_trial):
    """An EMG branch next to the motion branch of ``config_path``; with
    ``nan_in_trial`` the trial holds one NaN sample."""
    directory = config_path.parent
    write_emg_csv(directory / "baseline.csv", 2000.0, 1.5, {"ESL_L": 50.0})
    write_emg_csv(directory / "trial.csv", 2000.0, 1.5, {"ESL_L": 40.0})
    if nan_in_trial:
        lines = (directory / "trial.csv").read_text().splitlines()
        lines[100] = lines[100].split(",")[0] + ",nan"
        (directory / "trial.csv").write_text("\n".join(lines) + "\n")
    config = json.loads(config_path.read_text())
    config["emg"] = {"baseline_file": "baseline.csv", "trial_files": {"PS": "trial.csv"}}
    config_path.write_text(json.dumps(config))


def test_a_bad_input_after_the_motion_branch_writes_no_file(tmp_path, capsys):
    config_path = write_bend_session(tmp_path, duration_s=0.5)
    add_emg_branch(config_path, nan_in_trial=True)
    assert cli.main(["pipeline", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert "trial.csv: row 101" in err and "non-finite" in err
    assert list((tmp_path / "out").iterdir()) == []


def nan_emg_trial(tmp_path, config):
    write_emg_csv(tmp_path / "baseline.csv", 2000.0, 1.5, {"ESL_L": 50.0})
    write_emg_csv(tmp_path / "trial.csv", 2000.0, 1.5, {"ESL_L": 40.0})
    lines = (tmp_path / "trial.csv").read_text().splitlines()
    lines[100] = lines[100].split(",")[0] + ",nan"
    (tmp_path / "trial.csv").write_text("\n".join(lines) + "\n")
    config["emg"] = {"baseline_file": "baseline.csv", "trial_files": {"PS": "trial.csv"}}
    return tmp_path / "trial.csv", "stage emg", "row 101: column 'ESL_L': non-finite"


def missing_ecg_recording(tmp_path, config):
    config["ecg"] = {"files": {"PS": "ecg.csv"}}
    return tmp_path / "ecg.csv", "stage ecg", "cannot read"


def off_scale_survey_answer(tmp_path, config):
    record = {"respondent_id": "p", "questionnaire_id": "B", "answers": {"1": 9}}
    (tmp_path / "responses.jsonl").write_text(json.dumps(record))
    config["survey"] = {"responses_file": "responses.jsonl"}
    return tmp_path / "responses.jsonl", "stage survey", "item 1: answer 9"


@pytest.mark.parametrize("edit", [nan_emg_trial, missing_ecg_recording, off_scale_survey_answer])
def test_signal_and_survey_inputs_are_checked_before_retargeting(tmp_path, capsys, monkeypatch, edit):
    """A bad EMG, ECG or survey input next to a motion branch exits 2 naming
    the file, before retargeting starts and without writing a file."""
    from exoload import pipeline

    def not_reached(*args, **kwargs):
        raise AssertionError("retargeting started")

    monkeypatch.setattr(pipeline, "retarget_trajectory", not_reached)
    config_path = write_bend_session(tmp_path, duration_s=0.5)
    config = json.loads(config_path.read_text())
    path, stage, message = edit(tmp_path, config)
    config_path.write_text(json.dumps(config))
    assert cli.main(["pipeline", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {stage}: ") and str(path) in err and message in err
    assert list((tmp_path / "out").iterdir()) == []


def test_numeric_tables_match_the_per_row_writers_byte_for_byte(tmp_path):
    """``joints.csv`` and ``torque_series.csv`` of a bundle, whose float
    rows go to the writer in one ``tolist()``, equal the same tables
    written row by row through ``io.format_value``."""
    from exoload.pipeline import read_motion_inputs, run_motion_analysis

    config = load_config(write_bend_session(tmp_path, duration_s=0.5))
    bundle = run_pipeline(config)
    inputs = read_motion_inputs(config)
    retargeted, ts = run_motion_analysis(config, inputs)
    reference_write_joint_trajectory(
        tmp_path / "joints.csv", inputs.model, ts.times, retargeted.configurations
    )
    with open(bundle.files["torque_series"], newline="") as fh:
        header = next(csv.reader(fh))
    rows = zip(ts.times, ts.theta_deg, ts.theta_dot_deg_s, ts.tau_net, ts.tau_exo, ts.tau_human)
    with open(tmp_path / "torque_series.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([eio.format_value(v) for v in row])
    for key in ("joints", "torque_series"):
        assert bundle.files[key].read_bytes() == (tmp_path / f"{key}.csv").read_bytes(), key


def test_a_failing_rerun_leaves_the_bundle_as_it_was(tmp_path, capsys):
    """A clean run, then a rerun with an edited annotation and a corrupt EMG
    trial: the rerun exits 2 and every file of the first bundle is unchanged."""
    config_path = write_bend_session(tmp_path, duration_s=0.5)
    add_emg_branch(config_path, nan_in_trial=False)
    assert cli.main(["pipeline", "--config", str(config_path)]) == 0
    out = tmp_path / "out"
    first = {path.name: path.read_bytes() for path in out.iterdir()}
    annotation = tmp_path / "annotation.json"
    payload = json.loads(annotation.read_text())
    payload["segments"][0]["start"] = 0.1
    annotation.write_text(json.dumps(payload))
    add_emg_branch(config_path, nan_in_trial=True)
    assert cli.main(["pipeline", "--config", str(config_path)]) == 2
    assert "trial.csv" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in out.iterdir()} == first


def test_retarget_errors_name_the_capture(tmp_path, capsys):
    """A capture without the ``left_foot_*`` columns the left-foot task tracks."""
    config_path = write_bend_session(tmp_path, duration_s=0.5, with_annotation=False)
    motion = tmp_path / "motion.csv"
    rows = list(csv.reader(motion.read_text().splitlines()))
    keep = [j for j, name in enumerate(rows[0]) if not name.startswith("left_foot_")]
    motion.write_text("".join(",".join(row[j] for j in keep) + "\n" for row in rows))
    assert cli.main(["pipeline", "--config", str(config_path)]) == 2
    err = capsys.readouterr().err
    assert f"stage retarget: {motion}: task 'left_foot'" in err
