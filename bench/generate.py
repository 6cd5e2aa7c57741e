"""Seeded session generators for the benchmark.

Every input the benchmark feeds to ``exoload pipeline`` is written here from
a seed, together with the ground truth the checks compare against. The
generators are the benchmark's own: they use only the package's documented
model API (``build_model``, ``forward_kinematics``, ``JointConfiguration``)
and write every file with their own CSV/JSON writers, so an edit to the test
helpers or to the package's writers cannot move the inputs.

Sessions (sizes are module constants, listed in bench/README.md):

* ``sway``: planted feet, fixed base, smooth trunk/neck/arm sinusoids, a CoM
  track, five annotation windows, Laevo on.
* ``shuffle``: the ``sway`` upper body plus a translating, yawing pelvis, so
  the captured feet drift from the first-frame feet held at level 1.
* ``signals``: EMG baseline and two trials, three ECG recordings, and a
  responses file of questionnaire B and D records; no motion.
* ``control``/``probe_*``: fixed (seed-independent) small sessions. The
  control is a clean motion session; each probe is a copy with one malformed
  cell that the program should reject with exit code 2 or 3.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from exoload import AnthropometricProfile, JointConfiguration, build_model, forward_kinematics

SAMPLE_RATE = 240.0  # Hz, motion capture
PROFILE = {"height_m": 1.75, "mass_kg": 70.0}
MOTION_FRAMES = 240  # sway and shuffle
CONTROL_FRAMES = 72  # the fixed control/probe motion session
CONTROL_SEED = 20210216  # fixed: probe inputs never depend on --seed

EMG_RATE = 2000.0  # Hz
EMG_SECONDS = 20.0
EMG_CHANNELS = ("ESL_L", "ESL_R", "ESI_L", "ESI_R", "RA_L", "RF_R", "GM_R", "BF_L")
EMG_TRIALS = ("head", "side")
PROBE_EMG_SECONDS = 4.0
ECG_RATE = 1000.0  # Hz
ECG_SECONDS = 60.0
ECG_BPM_RANGES = {"control": (58.0, 66.0), "head": (72.0, 80.0), "side": (86.0, 94.0)}
ECG_SNR_DB = 20.0
RESPONSES = 2000  # half questionnaire B, half questionnaire D

CAPTURE_SEGMENTS = (
    "pelvis",
    "thorax",
    "head",
    "left_upper_arm",
    "right_upper_arm",
    "left_forearm",
    "right_forearm",
    "left_hand",
    "right_hand",
    "left_foot",
    "right_foot",
)

# DoFs the default task stack cannot observe (wrist spin about the tracked
# hand origin, the neck split behind the head orientation); they stay out of
# the joint-angle error, as in the package's acceptance round trip
UNTRACKED_DOFS = (
    "left_wrist_flexion",
    "left_wrist_deviation",
    "right_wrist_flexion",
    "right_wrist_deviation",
    "lower_neck_flexion",
    "lower_neck_lateral",
    "upper_neck_flexion",
    "upper_neck_lateral",
    "upper_neck_axial",
)

# amplitude (rad) and frequency (Hz) of each driven DoF. The seed scales the
# amplitudes only, by at most 2.5%: the frequencies set the end state, and
# with it the derivative edge error that dominates the accuracy metrics.
# Every sinusoid starts at zero, so frame 0 is the upright pose the
# retargeter starts from.
UPPER_BODY = {
    "lumbar_flexion": (0.35, 0.5),
    "lumbar_axial": (0.10, 0.3),
    "thoracic_flexion": (0.25, 0.5),
    "thoracic_lateral": (0.08, 0.4),
    "left_shoulder_flexion": (0.6, 0.4),
    "right_shoulder_flexion": (0.6, 0.4),
    "left_shoulder_lateral": (0.25, 0.3),
    "right_shoulder_lateral": (-0.25, 0.3),
    "left_elbow_flexion": (0.4, 0.5),
    "right_elbow_flexion": (0.4, 0.5),
}

# shuffle: pelvis sway of a few cm and a 0.2 rad yaw at this rate; the feet
# it carries drift from the first-frame feet the task stack holds at level 1
PELVIS_HZ = 1.2

LABELS = ("control", "PS", "SP", "head", "side")
EXOSKELETONS = ("Laevo", "Corfor", "CrayX", "BackX", "none")
B_ICU_ONLY = ("10", "21", "22")
BORG_VALUES = (0.0, 0.5) + tuple(float(v) for v in range(1, 11))
BORG_ITEMS = (
    "borg_neck",
    "borg_lower_back",
    "borg_legs",
    "borg_left_shoulder_arm",
    "borg_left_forearm_hand",
    "borg_right_shoulder_arm",
    "borg_right_forearm_hand",
)


@dataclass
class Session:
    """One generated session: its config, the files it consumes, and the
    truth the output checks use."""

    name: str
    directory: Path
    config: Path
    inputs: list[Path] = field(default_factory=list)
    truth: dict = field(default_factory=dict)


@dataclass
class Probe:
    """A malformed copy of a session the program should reject."""

    name: str
    session: Session
    file: Path  # the malformed file; the error message must name it


# -- writers -----------------------------------------------------------------


def write_table(path: Path, header: list[str], columns: np.ndarray) -> None:
    """CSV with shortest round-trip floats, LF line endings."""
    lines = [",".join(header)]
    lines += [",".join(map(repr, row)) for row in columns.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path: Path, payload: object) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_config(session: Session, payload: dict) -> None:
    payload = {"profile": dict(PROFILE), "output_dir": "out", "seed": 0, **payload}
    write_json(session.config, payload)
    session.inputs.insert(0, session.config)


# -- motion ------------------------------------------------------------------


def session_model():
    return build_model(AnthropometricProfile(PROFILE["height_m"], PROFILE["mass_kg"]))


@dataclass
class Motion:
    """A generating trajectory with analytic derivatives, laid out as the
    package's 49 velocity coordinates (base linear, base angular, joints)."""

    times: np.ndarray
    configurations: list[JointConfiguration]
    qd: np.ndarray  # (n, 49)
    qdd: np.ndarray  # (n, 49)


def _sine(amp: float, freq: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    w = 2.0 * math.pi * freq
    return amp * np.sin(w * t), amp * w * np.cos(w * t), -amp * w * w * np.sin(w * t)


def generate_motion(model, n: int, rng: np.random.Generator, shuffle: bool) -> Motion:
    t = np.arange(n) / SAMPLE_RATE
    nj = model.n_joint_dofs
    angles, rates, accels = np.zeros((n, nj)), np.zeros((n, nj)), np.zeros((n, nj))
    for name, (amp, freq) in UPPER_BODY.items():
        a, ad, add = _sine(amp * rng.uniform(0.975, 1.025), freq, t)
        j = model.dof_index[name]
        angles[:, j], rates[:, j], accels[:, j] = a, ad, add

    upright = model.upright_configuration()
    pos = np.tile(upright.base_position, (n, 1))
    vel, acc = np.zeros((n, 3)), np.zeros((n, 3))
    yaw, yaw_d, yaw_dd = np.zeros(n), np.zeros(n), np.zeros(n)
    if shuffle:
        for axis, amp in ((0, 0.04), (1, 0.03)):  # m
            p, pd, pdd = _sine(amp * rng.uniform(0.975, 1.025), PELVIS_HZ, t)
            pos[:, axis] += p
            vel[:, axis], acc[:, axis] = pd, pdd
        yaw, yaw_d, yaw_dd = _sine(0.2 * rng.uniform(0.975, 1.025), PELVIS_HZ, t)

    qd, qdd = np.zeros((n, 6 + nj)), np.zeros((n, 6 + nj))
    qd[:, 0:3], qdd[:, 0:3] = vel, acc
    qd[:, 5], qdd[:, 5] = yaw_d, yaw_dd  # yaw about world Z
    qd[:, 6:], qdd[:, 6:] = rates, accels
    configurations = [
        JointConfiguration(
            pos[k], np.array([math.cos(yaw[k] / 2), 0.0, 0.0, math.sin(yaw[k] / 2)]), angles[k]
        )
        for k in range(n)
    ]
    return Motion(times=t, configurations=configurations, qd=qd, qdd=qdd)


def capture(model, motion: Motion) -> tuple[list[str], np.ndarray]:
    """Motion-capture table (header, rows) sampled by forward kinematics,
    with a ``com`` pseudo-segment carrying the whole-body CoM."""
    n = len(motion.times)
    header = ["time_s"]
    names = sorted(CAPTURE_SEGMENTS + ("com",))
    for seg in names:
        header += [f"{seg}_{s}" for s in ("px", "py", "pz", "qw", "qx", "qy", "qz")]
    rows = np.empty((n, len(header)))
    rows[:, 0] = motion.times
    for k, q in enumerate(motion.configurations):
        poses, com = forward_kinematics(model, q)
        col = 1
        for seg in names:
            if seg == "com":
                rows[k, col : col + 7] = [*com, 1.0, 0.0, 0.0, 0.0]
            else:
                rows[k, col : col + 3] = poses[seg].position
                rows[k, col + 3 : col + 7] = poses[seg].quaternion
            col += 7
    return header, rows


def annotation_windows(n: int, rng: np.random.Generator) -> list[dict]:
    """Five adjacent [start, end) windows covering the recording, labels in
    a seeded order."""
    duration = n / SAMPLE_RATE
    edges = np.linspace(0.0, duration, len(LABELS) + 1)
    labels = rng.permutation(LABELS).tolist()
    return [
        {"label": label, "start": float(edges[i]), "end": float(edges[i + 1])}
        for i, label in enumerate(labels)
    ]


def write_motion_session(
    directory: Path, name: str, n: int, seed: int, shuffle: bool, annotate: bool
) -> Session:
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    model = session_model()
    motion = generate_motion(model, n, rng, shuffle)
    header, rows = capture(model, motion)
    session = Session(name, directory, directory / "config.json")
    motion_path = directory / "motion.csv"
    write_table(motion_path, header, rows)
    payload = {"motion_file": "motion.csv", "exoskeleton": "laevo"}
    session.inputs.append(motion_path)
    windows = None
    if annotate:
        windows = annotation_windows(n, rng)
        write_json(directory / "annotation.json", {"trial_id": name, "segments": windows})
        payload["annotation_file"] = "annotation.json"
        session.inputs.append(directory / "annotation.json")
    write_config(session, payload)
    session.truth = {
        "kind": "motion",
        "motion": motion,
        "capture_header": header,
        "capture": rows,
        "windows": windows,
    }
    return session


# -- biosignals and questionnaires --------------------------------------------


def emg_table(rng: np.random.Generator, seconds: float, amplitudes: dict[str, float]) -> np.ndarray:
    n = int(round(seconds * EMG_RATE))
    out = np.empty((n, 1 + len(amplitudes)))
    out[:, 0] = np.arange(n) / EMG_RATE
    for j, amp in enumerate(amplitudes.values(), start=1):
        out[:, j] = amp * rng.standard_normal(n)
    return out


def ecg_table(rng: np.random.Generator, bpm: float) -> np.ndarray:
    """Gaussian R-wave train (10 ms wide) at a fixed rate plus white noise at
    a fixed SNR."""
    n = int(round(ECG_SECONDS * ECG_RATE))
    t = np.arange(n) / ECG_RATE
    signal = np.zeros(n)
    half = int(0.05 * ECG_RATE)
    for beat in np.arange(0.5, ECG_SECONDS - 0.5, 60.0 / bpm):
        c = int(round(beat * ECG_RATE))
        sl = slice(max(0, c - half), min(n, c + half + 1))
        signal[sl] += np.exp(-0.5 * ((t[sl] - beat) / 0.01) ** 2)
    noise_power = np.mean(signal**2) / 10 ** (ECG_SNR_DB / 10)
    signal += rng.normal(0.0, math.sqrt(noise_power), n)
    return np.column_stack([t, signal])


def responses(rng: np.random.Generator, count: int) -> list[dict]:
    """Questionnaire B (acceptance, likert) and D (usage log, Borg CR10)
    records that pass validation: ICU-only items only in ICU contexts, some
    items left unanswered."""
    out = []
    for i in range(count):
        icu = bool(rng.random() < 0.5)
        exo = EXOSKELETONS[int(rng.integers(len(EXOSKELETONS)))]
        respondent = f"p{int(rng.integers(1, 61)):03d}"
        if i % 2 == 0:
            answers = {}
            for item in range(1, 23):
                key = str(item)
                if (key in B_ICU_ONLY and not icu) or rng.random() < 0.15:
                    continue
                answers[key] = int(rng.integers(1, 6))
            context = {"exoskeleton": exo, "icu": icu}
            out.append({"respondent_id": respondent, "questionnaire_id": "B",
                        "answers": answers, "context": context})
        else:
            answers = {}
            for item in BORG_ITEMS:
                if rng.random() < 0.1:
                    continue
                answers[item] = BORG_VALUES[int(rng.integers(len(BORG_VALUES)))]
            if icu:
                answers["maneuvers_today"] = int(rng.integers(1, 30))
                answers["systematic_use"] = "yes" if rng.random() < 0.5 else "no"
            context = {
                "exoskeleton": exo,
                "position": "head" if rng.random() < 0.5 else "side",
                "pp_index": i,
                "icu": icu,
            }
            out.append({"respondent_id": respondent, "questionnaire_id": "D",
                        "answers": answers, "context": context})
    return out


def write_signals_session(directory: Path, seed: int) -> Session:
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    session = Session("signals", directory, directory / "config.json")
    header = ["time_s", *EMG_CHANNELS]

    base_amp = {c: float(rng.uniform(20.0, 80.0)) for c in EMG_CHANNELS}
    ratios = {
        label: {c: float(rng.uniform(0.6, 1.2)) for c in EMG_CHANNELS} for label in EMG_TRIALS
    }
    write_table(directory / "emg_control.csv", header, emg_table(rng, EMG_SECONDS, base_amp))
    session.inputs.append(directory / "emg_control.csv")
    for label in EMG_TRIALS:
        amps = {c: base_amp[c] * ratios[label][c] for c in EMG_CHANNELS}
        path = directory / f"emg_{label}.csv"
        write_table(path, header, emg_table(rng, EMG_SECONDS, amps))
        session.inputs.append(path)

    bpm = {label: float(rng.uniform(lo, hi)) for label, (lo, hi) in ECG_BPM_RANGES.items()}
    for label in ECG_BPM_RANGES:
        path = directory / f"ecg_{label}.csv"
        write_table(path, ["time_s", "lead_I"], ecg_table(rng, bpm[label]))
        session.inputs.append(path)

    records = responses(rng, RESPONSES)
    path = directory / "responses.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    session.inputs.append(path)

    write_config(
        session,
        {
            "emg": {
                "baseline_file": "emg_control.csv",
                "trial_files": {label: f"emg_{label}.csv" for label in EMG_TRIALS},
            },
            "ecg": {"files": {label: f"ecg_{label}.csv" for label in ECG_BPM_RANGES}},
            "survey": {"responses_file": "responses.jsonl"},
        },
    )
    session.truth = {"kind": "signals", "emg_ratios": ratios, "bpm": bpm, "responses": records}
    return session


# -- the fixed control session and the known-fault probes ---------------------


def _corrupt_cell(path: Path, column: str, row: int) -> None:
    """Replace one data cell (``row`` counts data rows from 0) with nan."""
    lines = path.read_text(encoding="utf-8").split("\n")
    header = lines[0].split(",")
    cells = lines[1 + row].split(",")
    cells[header.index(column)] = "nan"
    lines[1 + row] = ",".join(cells)
    path.write_text("\n".join(lines), encoding="utf-8")


def write_control_and_probes(directory: Path) -> tuple[Session, list[Probe]]:
    control = write_motion_session(
        directory / "control", "control", CONTROL_FRAMES, CONTROL_SEED, shuffle=False, annotate=False
    )
    probes = []
    for name, column in (("probe_motion_nan", "pelvis_px"), ("probe_com_quat_nan", "com_qx")):
        session = write_motion_session(
            directory / name, name, CONTROL_FRAMES, CONTROL_SEED, shuffle=False, annotate=False
        )
        _corrupt_cell(session.directory / "motion.csv", column, row=10)
        probes.append(Probe(name, session, session.directory / "motion.csv"))

    rng = np.random.default_rng(CONTROL_SEED)
    sub = directory / "probe_emg_nan"
    sub.mkdir(parents=True, exist_ok=True)
    session = Session("probe_emg_nan", sub, sub / "config.json")
    amps = {"ESL_L": 50.0, "ESL_R": 40.0}
    write_table(sub / "emg_control.csv", ["time_s", *amps], emg_table(rng, PROBE_EMG_SECONDS, amps))
    write_table(sub / "emg_head.csv", ["time_s", *amps], emg_table(rng, PROBE_EMG_SECONDS, amps))
    _corrupt_cell(sub / "emg_head.csv", "ESL_L", row=int(PROBE_EMG_SECONDS * EMG_RATE) // 2)
    session.inputs += [sub / "emg_control.csv", sub / "emg_head.csv"]
    write_config(
        session,
        {"emg": {"baseline_file": "emg_control.csv", "trial_files": {"head": "emg_head.csv"}}},
    )
    probes.insert(1, Probe("probe_emg_nan", session, sub / "emg_head.csv"))
    return control, probes


def build_workload(workload: str, seed: int, directory: Path) -> tuple[Session, Session | None, list[Probe]]:
    """The timed session of a workload, plus, for ``signals``, the clean
    control session and the probes."""
    if workload == "sway":
        return write_motion_session(directory / "sway", "sway", MOTION_FRAMES, seed, False, True), None, []
    if workload == "shuffle":
        return (
            write_motion_session(directory / "shuffle", "shuffle", MOTION_FRAMES, seed, True, True),
            None,
            [],
        )
    if workload == "signals":
        control, probes = write_control_and_probes(directory)
        return write_signals_session(directory / "signals", seed), control, probes
    raise ValueError(f"unknown workload {workload!r}")
