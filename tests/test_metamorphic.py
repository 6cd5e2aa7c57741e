"""Metamorphic oracles: a session transformed in a way the analysis must not
see, or must see only as a relabelling (a rigid move or a mirror of the
capture, a heavier subject, a later clock, the capture's columns, the
responses' lines or the EMG trials in another order, a gain on the EMG and
ECG samples), against the same session untransformed."""

import csv
import json

import numpy as np
import pytest

from helpers import (
    capture_from_configurations,
    sinusoid_trajectory,
    synthetic_ecg,
    write_bend_session,
    write_every_input_session,
    write_motion_file,
)

from exoload import io as eio
from exoload.dynamics import net_lumbar_series
from exoload.geometry import quat_multiply
from exoload.io import POSE_SUFFIXES
from exoload.pipeline import load_config, run_pipeline
from exoload.retarget import CapturedTrajectory, SegmentTrack, retarget_trajectory
from exoload.skeleton import KinematicState
from exoload.surveys import BORG_VALUES, load_schema

# the 2 s sinusoid capture replays with no bound binding, so a rigid move or
# a clock offset changes the replay only by rounding
RIGID_TAU_TOL_NM = 1e-7
RIGID_ANGLE_TOL_DEG = 1e-6
CLOCK_TAU_TOL_NM = 1e-7
CLOCK_OFFSET_S = 1000.0


def sinusoid_capture(model) -> CapturedTrajectory:
    return capture_from_configurations(model, sinusoid_trajectory(model, 2.0), 240.0)


def moved(captured: CapturedTrajectory, shift, yaw_deg: float) -> CapturedTrajectory:
    """Every captured pose turned by ``yaw_deg`` about the vertical through
    the origin, then shifted by ``shift``."""
    yaw = np.radians(yaw_deg)
    c, s = np.cos(yaw), np.sin(yaw)
    R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    q_yaw = np.array([np.cos(yaw / 2), 0.0, 0.0, np.sin(yaw / 2)])
    tracks = {
        name: SegmentTrack(
            track.positions @ R.T + np.asarray(shift, dtype=float),
            quat_multiply(np.broadcast_to(q_yaw, track.quaternions.shape), track.quaternions),
        )
        for name, track in captured.segments.items()
    }
    return CapturedTrajectory(captured.times.copy(), tracks)


def replay(model, captured: CapturedTrajectory) -> tuple[np.ndarray, np.ndarray, int]:
    """Net lumbar torque, joint angles in degrees and the number of frames
    with a bound active of a replayed capture."""
    result = retarget_trajectory(model, captured)
    kinematics = KinematicState(model, result.configurations)
    tau_net = net_lumbar_series(kinematics, 1.0 / captured.sample_rate)
    saturated = sum(1 for d in result.diagnostics if d.active_constraints)
    return tau_net, np.degrees(result.configurations.joint_angles), saturated


@pytest.fixture(scope="module")
def unmoved(model):
    captured = sinusoid_capture(model)
    tau_net, angles, saturated = replay(model, captured)
    assert saturated == 0
    return captured, tau_net, angles


@pytest.mark.parametrize(
    "shift, yaw_deg",
    [((2.0, -1.0, 0.0), 0.0), ((0.0, 0.0, 0.0), 37.0), ((0.0, 0.0, 0.0), 90.0), ((2.0, -1.0, 0.0), 90.0)],
    ids=["shift", "yaw37", "yaw90", "shift-yaw90"],
)
def test_a_rigidly_moved_capture_replays_the_same_torque_and_joints(model, unmoved, shift, yaw_deg):
    """A horizontal shift and a yaw about the vertical move where the
    subject stood, not how they moved: the replay starts on the captured
    pelvis, so the net lumbar torque and every joint angle hold. Back
    flexion and the Laevo torque are left out, because they are measured
    in the world XZ plane."""
    captured, tau_net, angles = unmoved
    moved_tau, moved_angles, _ = replay(model, moved(captured, shift, yaw_deg))
    assert np.max(np.abs(moved_tau - tau_net)) <= RIGID_TAU_TOL_NM
    assert np.max(np.abs(moved_angles - angles)) <= RIGID_ANGLE_TOL_DEG


def other_side(name: str) -> str:
    """A left segment or DoF name for its right partner, and back; a
    midline name for itself."""
    for side, other in (("left_", "right_"), ("right_", "left_")):
        if name.startswith(side):
            return other + name[len(side) :]
    return name


def mirrored(captured: CapturedTrajectory) -> CapturedTrajectory:
    """The capture reflected through the world XZ plane: every position's y
    negated, every orientation conjugated by the reflection (``(w, x, y, z)``
    to ``(w, -x, y, -z)``), and the left and right tracks swapped."""
    flip_y, flip_q = np.array([1.0, -1.0, 1.0]), np.array([1.0, -1.0, 1.0, -1.0])
    tracks = {
        other_side(name): SegmentTrack(track.positions * flip_y, track.quaternions * flip_q)
        for name, track in captured.segments.items()
    }
    return CapturedTrajectory(captured.times.copy(), tracks)


def test_a_mirrored_capture_replays_the_same_torque_and_mirrored_joints(model, unmoved):
    """Left and right swapped through the sagittal plane: the sagittal net
    lumbar torque holds, and each joint angle is its partner's, with the
    same sign about a Y axis and the opposite sign about an X or Z axis,
    since a reflection turns those rotations the other way."""
    captured, tau_net, angles = unmoved
    mirror_tau, mirror_angles, _ = replay(model, mirrored(captured))
    axes = np.array([dof.axis for joint in model.joints for dof in joint.dofs], dtype=float)
    assert np.array_equal(np.abs(axes).sum(axis=1), np.ones(len(axes)))  # each about one world axis
    sign = np.where(axes[:, 1] != 0.0, 1.0, -1.0)
    partner = [model.dof_names.index(other_side(name)) for name in model.dof_names]
    assert partner != list(range(len(partner)))
    assert np.max(np.abs(mirror_tau - tau_net)) <= RIGID_TAU_TOL_NM
    assert np.max(np.abs(mirror_angles - sign * angles[:, partner])) <= RIGID_ANGLE_TOL_DEG


def torque_column(bundle, name: str) -> np.ndarray:
    with open(bundle.files["torque_series"], newline="") as fh:
        return np.array([float(row[name]) for row in csv.DictReader(fh)])


def test_doubling_the_mass_doubles_the_net_torque_exactly(tmp_path):
    """Every segment mass and inertia scales with ``profile.mass_kg``, and
    scaling by two is exact in floating point: the CoM and so the replay
    hold bit for bit, and the inverse dynamics doubles bit for bit."""
    config_path = write_bend_session(tmp_path, duration_s=1.0)
    first = run_pipeline(load_config(config_path))
    joints, tau_net = first.files["joints"].read_bytes(), torque_column(first, "tau_net_nm")
    config = json.loads(config_path.read_text())
    config["profile"]["mass_kg"] *= 2.0
    config_path.write_text(json.dumps(config))
    heavier = run_pipeline(load_config(config_path))
    assert heavier.files["joints"].read_bytes() == joints
    assert np.array_equal(torque_column(heavier, "tau_net_nm"), 2.0 * tau_net)


def sinusoid_session(tmp_path, model, offset_s: float):
    """The bend fixture's session with the 2 s sinusoid capture in place of
    the bend, its clock and annotation windows started ``offset_s`` later."""
    tmp_path.mkdir()
    config_path = write_bend_session(tmp_path, duration_s=2.0)
    captured = sinusoid_capture(model)
    later = CapturedTrajectory(captured.times + offset_s, captured.segments)
    write_motion_file(tmp_path / "motion.csv", later)
    annotation = json.loads((tmp_path / "annotation.json").read_text())
    for segment in annotation["segments"]:
        segment["start"] += offset_s
        segment["end"] += offset_s
    (tmp_path / "annotation.json").write_text(json.dumps(annotation))
    return run_pipeline(load_config(config_path))


def test_a_clock_offset_leaves_the_net_torque(tmp_path, model):
    """Starting the clock 1000 s later changes only the rounding of the
    sample period, which is the span over the frame count."""
    first = sinusoid_session(tmp_path / "zero", model, 0.0)
    later = sinusoid_session(tmp_path / "later", model, CLOCK_OFFSET_S)
    shifted_times = torque_column(later, "time_s") - CLOCK_OFFSET_S
    assert np.allclose(shifted_times, torque_column(first, "time_s"), rtol=0.0, atol=1e-9)
    tau_net = torque_column(first, "tau_net_nm")
    assert np.max(np.abs(torque_column(later, "tau_net_nm") - tau_net)) <= CLOCK_TAU_TOL_NM


def bundle_bytes(bundle) -> dict[str, bytes]:
    """Every file of a bundle's output directory but the manifest, which
    hashes the inputs, by name."""
    return {
        path.name: path.read_bytes()
        for path in sorted(bundle.output_dir.iterdir())
        if path.name != "manifest.json"
    }


def test_reordered_capture_columns_leave_every_bundle_file(tmp_path, model):
    """The capture's segment column groups in another order, ``time_s``
    still first, name the same tracks: every bundle file but the manifest
    holds byte for byte."""
    sessions = {name: tmp_path / name for name in ("recorded", "reordered")}
    for directory in sessions.values():
        directory.mkdir()
        write_bend_session(directory, duration_s=1.0)
    captured = capture_from_configurations(model, sinusoid_trajectory(model, 1.0), 240.0)
    write_motion_file(sessions["recorded"] / "motion.csv", captured)
    rows = [line.split(",") for line in (sessions["recorded"] / "motion.csv").read_text().splitlines()]
    width = len(POSE_SUFFIXES)
    groups = [list(range(1 + g, 1 + g + width)) for g in range(0, len(rows[0]) - 1, width)]
    order = [0] + [j for g in np.random.default_rng(5).permutation(len(groups)) for j in groups[g]]
    assert order != sorted(order) and sorted(order) == list(range(len(rows[0])))
    text = "".join(",".join(row[j] for j in order) + "\n" for row in rows)
    (sessions["reordered"] / "motion.csv").write_text(text)
    bundles = {name: run_pipeline(load_config(d / "config.json")) for name, d in sessions.items()}
    recorded = bundle_bytes(bundles["recorded"])
    assert "joints.csv" in recorded and recorded == bundle_bytes(bundles["reordered"])


def survey_records(rng: np.random.Generator, count: int) -> list[dict]:
    """Questionnaire B and D records that validation accepts, alternating,
    over a few respondents, exoskeletons and working positions, with some
    items left unanswered and ICU-only items only in ICU contexts."""
    items = {q: load_schema(q).items for q in "BD"}
    records = []
    for i in range(count):
        icu = bool(rng.random() < 0.5)
        context = {"exoskeleton": ("Laevo", "Corfor", "none")[int(rng.integers(3))], "icu": icu}
        record = {"respondent_id": f"p{int(rng.integers(1, 13)):02d}"}
        if i % 2 == 0:
            answers = {
                item.item_id: int(rng.integers(1, 6))
                for item in items["B"]
                if (icu or not item.icu_only) and rng.random() >= 0.15
            }
            record.update(questionnaire_id="B", answers=answers, context=context)
        else:
            answers = {
                item.item_id: BORG_VALUES[int(rng.integers(len(BORG_VALUES)))]
                for item in items["D"]
                if item.kind == "borg_cr10" and rng.random() >= 0.1
            }
            context.update(position=("head", "side")[int(rng.integers(2))], pp_index=i)
            record.update(questionnaire_id="D", answers=answers, context=context)
        records.append(record)
    return records


def test_shuffled_responses_leave_the_survey_tables(tmp_path):
    """The order of the records in a responses file is not part of the
    answers: the construct and Borg tables hold byte for byte."""
    lines = [json.dumps(r) for r in survey_records(np.random.default_rng(3), 300)]
    shuffled = [lines[k] for k in np.random.default_rng(4).permutation(len(lines))]
    tables = []
    for name, order in (("recorded", lines), ("shuffled", shuffled)):
        directory = tmp_path / name
        directory.mkdir()
        (directory / "responses.jsonl").write_text("\n".join(order), encoding="utf-8")
        config = {
            "profile": {"height_m": 1.75, "mass_kg": 70.0},
            "survey": {"responses_file": "responses.jsonl"},
            "output_dir": "out",
        }
        (directory / "config.json").write_text(json.dumps(config))
        bundle = run_pipeline(load_config(directory / "config.json"))
        tables.append([bundle.files[key].read_bytes() for key in ("survey_constructs", "survey_borg")])
    assert tables[0] == tables[1]


def test_emg_trials_listed_in_another_order_give_the_same_rows(tmp_path):
    """The order of ``emg.trial_files`` orders the change table and the
    boxplot records, and nothing else: the rows and records are the same,
    and every other bundle file but the manifest holds byte for byte."""
    rng = np.random.default_rng(6)
    channels = {
        "baseline": ("ESL_L", "ESL_R", "TA"),
        "PS": ("ESL_L", "ESL_R", "TA"),
        "head": ("ESL_L", "TA"),
        "side": ("ESL_R", "RA"),  # a channel the baseline lacks: an NA row
    }
    t = np.arange(3000) / 2000.0
    for name, names in channels.items():
        columns = [t] + [rng.uniform(20.0, 80.0) * rng.standard_normal(t.size) for _ in names]
        eio.write_csv(tmp_path / f"{name}.csv", ["time_s", *names], np.column_stack(columns))
    ecg, _ = synthetic_ecg(500.0, 10.0, 70.0, snr_db=25.0, seed=2)
    eio.write_csv(tmp_path / "ecg.csv", ["time_s", "lead_I"], np.column_stack([np.arange(ecg.size) / 500.0, ecg]))
    trials = {label: f"{label}.csv" for label in ("PS", "head", "side")}
    outputs = {}
    for name, order in (("listed", list(trials)), ("reversed", list(reversed(trials)))):
        config = {
            "profile": {"height_m": 1.75, "mass_kg": 70.0},
            "emg": {"baseline_file": "baseline.csv", "trial_files": {label: trials[label] for label in order}},
            "ecg": {"files": {"PS": "ecg.csv"}},
            "output_dir": name,
        }
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
        outputs[name] = bundle_bytes(run_pipeline(load_config(tmp_path / f"{name}.json")))
    listed, reordered = outputs["listed"], outputs["reversed"]
    assert set(listed) == set(reordered) >= {"emg_changes.csv", "boxplot_data.json", "heart_rate.csv"}
    header, *rows = listed.pop("emg_changes.csv").decode().splitlines()
    other_header, *other_rows = reordered.pop("emg_changes.csv").decode().splitlines()
    assert other_header == header and other_rows != rows and sorted(other_rows) == sorted(rows)
    assert any(row.endswith(",NA") for row in rows)
    records, other_records = (
        [json.dumps(record, sort_keys=True) for record in json.loads(files.pop("boxplot_data.json"))]
        for files in (listed, reordered)
    )
    assert other_records != records and sorted(other_records) == sorted(records)
    assert listed == reordered


def double_samples(path) -> None:
    """Every sample of a signal CSV times 2, its ``time_s`` cells as written."""
    header, *rows = path.read_text().splitlines()
    doubled = []
    for row in rows:
        time_s, *samples = row.split(",")
        doubled.append(",".join([time_s] + [repr(2.0 * float(v)) for v in samples]))
    path.write_text("\n".join([header] + doubled) + "\n")


FIVE_NUMBERS = ("min", "q1", "median", "q3", "max")


def test_a_gain_on_the_emg_and_ecg_samples_doubles_only_the_envelope_records(tmp_path):
    """A gain of 2 on every EMG and ECG sample, as from a recorder set to
    other units: the EMG changes are ratios to the baseline and the R-peak
    thresholds are relative, so the change, heart-rate and survey tables
    hold byte for byte. A gain of 2 commutes with every rounding, so each
    EMG envelope record's five numbers double exactly, with the same ``n``,
    and every other boxplot record holds."""
    bundles = {}
    for name in ("recorded", "doubled"):
        directory = tmp_path / name
        directory.mkdir()
        _, files = write_every_input_session(directory)
        if name == "doubled":
            for kind in ("emg_baseline", "emg_trial", "ecg"):
                double_samples(files[kind])
        bundles[name] = run_pipeline(load_config(files["config"])).files
    recorded, doubled = bundles["recorded"], bundles["doubled"]
    for key in ("emg_changes", "heart_rate", "survey_constructs", "survey_borg"):
        assert doubled[key].read_bytes() == recorded[key].read_bytes(), key
    records, doubled_records = (json.loads(files["boxplot_data"].read_text()) for files in (recorded, doubled))
    assert len(doubled_records) == len(records)
    figures = {record["figure"] for record in records}
    assert {"emg_envelope", "heart_rate", "back_flexion"} <= figures
    for record, other in zip(records, doubled_records):
        if record["figure"] == "emg_envelope":
            record = dict(record, **{key: 2.0 * record[key] for key in FIVE_NUMBERS})
        assert other == record
