"""Shared generators for the test suite: synthetic motions, biosignals and
session fixtures. Everything is seeded and deterministic."""

from __future__ import annotations

import csv
import json
import shutil
from pathlib import Path

import numpy as np

from exoload import io as eio
from exoload.anthropometry import AnthropometricProfile
from exoload.dynamics import GRAVITY_DEFAULT, RATE_TOLERANCE, LaevoModel
from exoload.errors import InfeasibleBoundsError, ValidationError
from exoload.geometry import (
    IDENTITY_QUAT,
    orientation_error,
    quat_normalize,
    quat_rotvec_between,
    quat_to_matrix,
    rotvec_to_quat,
)
from exoload import retarget
from exoload.posture import AnnotationSegment, TrialAnnotation
from exoload.qp import QPResult, solve_ls_qp
from exoload.retarget import (
    CapturedTrajectory,
    FrameDiagnostics,
    Reference,
    SegmentTrack,
    TaskSpec,
    _reference_tracks,
    _Plan,
    _trajectory_references,
    default_task_stack,
)
from exoload.skeleton import (
    JointConfiguration,
    KinematicState,
    SkeletonModel,
    build_model,
    integrate_configuration,
)

# segments a capture file carries for the default task stack
CAPTURE_SEGMENTS = [
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
]

# DoFs observable from the default task stack: wrist rotations only spin the
# tracked hand origin and the neck split is pinned only through the head
# orientation sum, so both stay out of the recovery metric
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


def default_model(height: float = 1.75, mass: float = 70.0) -> SkeletonModel:
    return build_model(AnthropometricProfile(height, mass))


def repeated(q: JointConfiguration, n: int) -> JointConfiguration:
    """The ``(n,)`` trajectory that holds one configuration."""
    return q[None][np.zeros(n, dtype=int)]


def capture_from_configurations(
    model: SkeletonModel,
    configurations: JointConfiguration | list[JointConfiguration],
    sample_rate: float,
    include_com: bool = True,
    segments: list[str] | None = None,
) -> CapturedTrajectory:
    """FK-sample a joint trajectory into a captured-trajectory structure."""
    segments = segments if segments is not None else CAPTURE_SEGMENTS
    n = len(configurations)
    times = np.arange(n) / sample_rate
    positions = {s: np.zeros((n, 3)) for s in segments}
    quats = {s: np.zeros((n, 4)) for s in segments}
    com = np.zeros((n, 3))
    for k, q in enumerate(configurations):
        state = KinematicState(model, q)
        for s in segments:
            pose = state.segment_pose(s)
            positions[s][k] = pose.position
            quats[s][k] = pose.quaternion
        com[k] = state.com()
    tracks = {s: SegmentTrack(positions[s], quats[s]) for s in segments}
    if include_com:
        tracks["com"] = SegmentTrack(com, np.tile(IDENTITY_QUAT, (n, 1)))
    return CapturedTrajectory(times, tracks)


# (amplitude in rad, frequency in Hz) of each joint of the sinusoid trajectory
SINUSOID_JOINTS = {
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
# (amplitude, frequency in Hz) of the swaying base: along world x in m, and
# yaw about world z in rad
SINUSOID_BASE_SWAY = (0.05, 0.6)
SINUSOID_BASE_YAW = (0.3, 0.35)


def _sinusoid_coordinates(
    model: SkeletonModel, duration_s: float, sample_rate: float, sway: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sinusoid motion as ``(T, n_velocity)`` coordinates and their first
    two time derivatives, in the velocity layout: the base offset along x in
    column 0, the yaw in column 5 and the joint angles from column 6. The
    yaw turns about the fixed world z, so the derivatives of these columns
    are the generalized velocities and accelerations of the motion."""
    n = int(round(duration_s * sample_rate))
    t = np.arange(n) / sample_rate
    amp, freq = np.zeros(model.n_velocity), np.zeros(model.n_velocity)
    for name, (a, f) in SINUSOID_JOINTS.items():
        amp[6 + model.dof_index[name]], freq[6 + model.dof_index[name]] = a, f
    if sway:
        (amp[0], freq[0]), (amp[5], freq[5]) = SINUSOID_BASE_SWAY, SINUSOID_BASE_YAW
    w = 2 * np.pi * freq
    sin, cos = np.sin(w * t[:, None]), np.cos(w * t[:, None])
    return amp * sin, amp * w * cos, -amp * w * w * sin


def sinusoid_trajectory(
    model: SkeletonModel, duration_s: float, sample_rate: float = 240.0, sway: bool = False
) -> JointConfiguration:
    """Smooth upper-body motion (trunk, neck, arms) over mostly fixed legs,
    starting from the upright configuration: a ``(T,)`` trajectory. With
    ``sway`` the base also sways along x and yaws about z."""
    x, _, _ = _sinusoid_coordinates(model, duration_s, sample_rate, sway)
    position = model.upright_configuration().base_position + x[:, 0:3]
    yaw = x[:, 5]
    zeros = np.zeros_like(yaw)
    orientation = np.column_stack([np.cos(yaw / 2), zeros, zeros, np.sin(yaw / 2)])
    return JointConfiguration(position, orientation, x[:, 6:])


def sinusoid_derivatives(
    model: SkeletonModel, duration_s: float, sample_rate: float = 240.0, sway: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form generalized velocities and accelerations ``(T,
    n_velocity)`` of :func:`sinusoid_trajectory` with the same arguments."""
    _, qd, qdd = _sinusoid_coordinates(model, duration_s, sample_rate, sway)
    return qd, qdd


def moving_base_trajectory(
    model: SkeletonModel, duration_s: float, sample_rate: float = 240.0
) -> JointConfiguration:
    """The sinusoid trajectory on a base that translates, yaws and tilts, so
    every base term of the dynamics is non-zero: a ``(T,)`` trajectory."""
    q = sinusoid_trajectory(model, duration_s, sample_rate)
    t = np.arange(len(q)) / sample_rate
    shift = np.column_stack([0.05 * np.sin(1.1 * t), 0.03 * t, 0.02 * np.sin(2.3 * t)])
    tilt = np.column_stack([0.15 * np.sin(0.9 * t), 0.1 * np.sin(1.7 * t), 0.4 * t])
    base_orientation = np.array([rotvec_to_quat(r) for r in tilt])
    return JointConfiguration(q.base_position + shift, base_orientation, q.joint_angles)


def bent_configuration(model: SkeletonModel) -> JointConfiguration:
    """Static flat-back 40 degree forward bend with arms raised straight
    forward (horizontal) and the gaze dropped, as held over a bed edge."""
    angles = np.zeros(model.n_joint_dofs)
    angles[model.dof_index["lumbar_flexion"]] = np.radians(32.0)
    angles[model.dof_index["thoracic_flexion"]] = np.radians(8.0)
    angles[model.dof_index["lower_neck_flexion"]] = np.radians(15.0)
    for side in ("left", "right"):
        angles[model.dof_index[f"{side}_shoulder_flexion"]] = np.radians(130.0)
    base = model.upright_configuration()
    return JointConfiguration(base.base_position, base.base_orientation, angles)


def write_motion_file(path: str | Path, trajectory: CapturedTrajectory) -> None:
    """A capture in the motion CSV layout ``io.parse_motion_file`` reads."""
    names = sorted(trajectory.segments)
    header = ["time_s"]
    for seg in names:
        header += [f"{seg}_{s}" for s in eio.POSE_SUFFIXES]
    rows = []
    for k in range(trajectory.n_frames):
        row: list[object] = [trajectory.times[k]]
        for seg in names:
            track = trajectory.segments[seg]
            row += list(track.positions[k]) + list(track.quaternions[k])
        rows.append(row)
    eio.write_csv(path, header, rows)


def write_annotation_file(path: str | Path, annotation: TrialAnnotation) -> None:
    """An annotation in the JSON layout ``io.parse_annotation_file`` reads."""
    eio.write_json(
        path,
        {
            "trial_id": annotation.trial_id,
            "segments": [
                {"label": s.label, "start": s.start, "end": s.end} for s in annotation.segments
            ],
        },
    )


JOINT_HEADER = ["time_s", "base_px", "base_py", "base_pz", "base_qw", "base_qx", "base_qy", "base_qz"]


def read_joint_trajectory(path: str | Path, model: SkeletonModel) -> tuple[np.ndarray, JointConfiguration]:
    """The times and the ``(T,)`` trajectory of a ``joints.csv`` file."""
    header, data = eio._read_table(path)
    if header != JOINT_HEADER + list(model.dof_names):
        raise ValidationError(f"{path}: joint trajectory header does not match the model layout")
    return data[:, 0].copy(), JointConfiguration(data[:, 1:4], data[:, 4:8], data[:, 8:])


def reference_write_joint_trajectory(
    path: str | Path, model: SkeletonModel, times: np.ndarray, configurations
) -> None:
    """``joints.csv`` written row by row from the frames of a trajectory:
    the oracle of ``io.write_joint_trajectory``."""
    rows = [
        [t, *q.base_position, *q.base_orientation, *q.joint_angles] for t, q in zip(times, configurations)
    ]
    eio.write_csv(path, JOINT_HEADER + list(model.dof_names), rows)


def write_bend_session(
    tmp_path: Path,
    duration_s: float = 2.0,
    exoskeleton: str = "laevo",
    with_annotation: bool = True,
) -> Path:
    """Write the static-bend fixture session (motion, annotation, config) and
    return the config path."""
    model = default_model()
    target = bent_configuration(model)
    n = int(round(duration_s * 240.0))
    captured = capture_from_configurations(model, [target] * n, 240.0)
    write_motion_file(tmp_path / "motion.csv", captured)
    config = {
        "profile": {"height_m": 1.75, "mass_kg": 70.0},
        "motion_file": "motion.csv",
        "exoskeleton": exoskeleton,
        "output_dir": "out",
        "seed": 0,
    }
    if with_annotation:
        # skip the settle-in transient where the solver converges onto the pose
        start = min(0.75, duration_s / 2.0)
        annotation = TrialAnnotation("bend", (AnnotationSegment("PS", start, duration_s),))
        write_annotation_file(tmp_path / "annotation.json", annotation)
        config["annotation_file"] = "annotation.json"
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return config_path


def synthetic_ecg(
    fs: float, duration_s: float, bpm: float, snr_db: float | None = None, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian R-wave train plus optional white noise; returns (signal,
    true beat times)."""
    n = int(duration_s * fs)
    t = np.arange(n) / fs
    beats = np.arange(0.5, duration_s - 0.5, 60.0 / bpm)
    signal = np.zeros(n)
    for b in beats:
        signal += np.exp(-0.5 * ((t - b) / 0.01) ** 2)
    if snr_db is not None:
        rng = np.random.default_rng(seed)
        noise_power = np.mean(signal**2) / 10 ** (snr_db / 10)
        signal = signal + rng.normal(0.0, np.sqrt(noise_power), n)
    return signal, beats


def write_emg_csv(path, fs, duration_s, channels):
    n = int(duration_s * fs)
    t = np.arange(n) / fs
    rng = np.random.default_rng(7)
    header = ["time_s"] + list(channels)
    rows = np.empty((n, 1 + len(channels)))
    rows[:, 0] = t
    for j, (name, amplitude) in enumerate(channels.items(), start=1):
        rows[:, j] = amplitude * rng.standard_normal(n)
    eio.write_csv(path, header, rows)


def write_ecg_csv(path, fs, duration_s, bpm):
    signal, _ = synthetic_ecg(fs, duration_s, bpm, snr_db=25.0, seed=11)
    n = len(signal)
    t = np.arange(n) / fs
    eio.write_csv(path, ["time_s", "lead_I"], np.column_stack([t, signal]))


def write_responses(path):
    rows = [
        {
            "respondent_id": "p1",
            "questionnaire_id": "B",
            "answers": {"1": 4, "13": 2, "15": 5, "16": 1, "17": 2, "18": 4, "20": 4},
            "context": {"exoskeleton": "Laevo"},
        },
        {
            "respondent_id": "p2",
            "questionnaire_id": "B",
            "answers": {"1": 5, "13": 2, "15": 4, "16": 2, "17": 1, "18": 5, "20": 5},
            "context": {"exoskeleton": "Laevo"},
        },
    ] + [
        {
            "respondent_id": "p1",
            "questionnaire_id": "D",
            "answers": {"borg_lower_back": v, "borg_neck": 1},
            "context": {"exoskeleton": "Laevo", "position": "head", "pp_index": i, "icu": True},
        }
        for i, v in enumerate([2, 2, 2, 1, 2])
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows), encoding="utf-8")


LAEVO_PARAMS = {"k_loss": 10.0, "theta_min": 20.0, "theta_max": 50.0, "tau_max": 40.0}


def write_every_input_session(tmp_path):
    """A session config naming every kind of input file; returns the config
    path and the files by kind."""
    config_path = write_bend_session(tmp_path, duration_s=0.25)
    files = {
        "config": config_path,
        "motion": tmp_path / "motion.csv",
        "annotation": tmp_path / "annotation.json",
        "coefficients": tmp_path / "coefficients.json",
        "aliases": tmp_path / "aliases.json",
        "exoskeleton": tmp_path / "laevo.json",
        "emg_baseline": tmp_path / "baseline.csv",
        "emg_baseline_sidecar": tmp_path / "baseline.csv.meta.json",
        "emg_trial": tmp_path / "head.csv",
        "ecg": tmp_path / "ecg.csv",
        "ecg_sidecar": tmp_path / "ecg.csv.meta.json",
        "responses": tmp_path / "responses.jsonl",
    }
    shutil.copy(Path(eio.__file__).parent / "data" / "coefficients_default.json", files["coefficients"])
    files["aliases"].write_text(json.dumps({"hips": "pelvis"}))
    files["exoskeleton"].write_text(json.dumps(LAEVO_PARAMS))
    write_emg_csv(files["emg_baseline"], 2000.0, 1.5, {"ESL_L": 50.0})
    files["emg_baseline_sidecar"].write_text(json.dumps({"units": "uV", "sample_rate": 2000.0}))
    write_emg_csv(files["emg_trial"], 2000.0, 1.5, {"ESL_L": 40.0})  # no sidecar
    write_ecg_csv(files["ecg"], 500.0, 10.0, 66.0)
    files["ecg_sidecar"].write_text(json.dumps({"units": "mV"}))
    write_responses(files["responses"])
    config = json.loads(config_path.read_text())
    config["profile"]["coefficient_table_file"] = "coefficients.json"
    config.update(
        {
            "segment_aliases_file": "aliases.json",
            "exoskeleton_params_file": "laevo.json",
            "emg": {"baseline_file": "baseline.csv", "trial_files": {"head": "head.csv"}},
            "ecg": {"files": {"head": "ecg.csv"}},
            "survey": {"responses_file": "responses.jsonl"},
        }
    )
    config_path.write_text(json.dumps(config))
    return config, files


def tracked_dof_indices(model: SkeletonModel) -> list[int]:
    return [i for i, name in enumerate(model.dof_names) if name not in UNTRACKED_DOFS]


def reference_laevo_torques(model: LaevoModel, theta: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """The hysteresis rule stepped one sample at a time from the ascending
    branch: the oracle of ``laevo_torque_series``."""
    out, branch = [], "ascending"
    for theta_deg, theta_dot_deg_s in zip(theta, rate):
        if not np.isfinite(theta_deg):
            raise ValidationError("flexion angle must be finite")
        if theta_dot_deg_s > RATE_TOLERANCE:
            branch = "ascending"
        elif theta_dot_deg_s < -RATE_TOLERANCE:
            branch = "descending"
        tau = model.spring_torque(theta_deg, branch)
        out.append(min(max(tau, 0.0), model.tau_max))
    return np.array(out)


def reference_read_table(path: str | Path) -> tuple[list[str], np.ndarray]:
    """A numeric CSV file as the readers parsed it before the bulk C pass:
    every cell a Python string from ``csv.reader``, one ``np.array`` call over
    the rows, and ``float`` cell by cell when that call refuses. The oracle of
    ``io._read_table``; it raises ``ValidationError`` on a header that names
    a column twice and on every body it rejects (its row numbers count data
    records, not file lines)."""
    with eio.open_input(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: empty file") from None
        rows = [row for row in reader if row]
    header = [h.strip() for h in header]
    if len(set(header)) < len(header):
        raise ValidationError(f"{path}: a column appears twice in the header")
    for k, row in enumerate(rows):
        if len(row) != len(header):
            raise ValidationError(f"{path}: row {k + 2}: expected {len(header)} cells, got {len(row)}")

    def cell(text: str, k: int, j: int) -> float:
        try:
            return float(text)
        except ValueError:
            raise ValidationError(f"{path}: row {k + 2}: column {header[j]!r}: not a number") from None

    try:
        data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    except ValueError:
        data = np.array([[cell(c, k, j) for j, c in enumerate(row)] for k, row in enumerate(rows)])
    if not np.isfinite(data).all():
        raise ValidationError(f"{path}: non-finite value")
    return header, data


def reference_axis_angle_matrix(axis: np.ndarray, angle: float | np.ndarray) -> np.ndarray:
    """Rodrigues rotation about a unit axis written out entry by entry, the
    matrix assembled from nested lists: the oracle for
    ``geometry.axis_angle_matrix``."""
    x, y, z = axis
    c = np.cos(angle)
    s = np.sin(angle)
    t = 1.0 - c
    return np.array(
        [
            [t * x * x + c, t * x * y - s * z, t * x * z + s * y],
            [t * x * y + s * z, t * y * y + c, t * y * z - s * x],
            [t * x * z - s * y, t * y * z + s * x, t * z * z + c],
        ]
    )


def reference_link_frames(
    model: SkeletonModel, q: JointConfiguration
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """World rotation ``(n, 3, 3)``, origin ``(n, 3)`` and joint axis
    ``(n, 3)`` of every link of one configuration, one link at a time with
    the base as a separate parent and each joint rotation from its own
    ``reference_axis_angle_matrix`` call: the per-link oracle for
    ``skeleton.FrameSweep``."""
    base_rotation = quat_to_matrix(q.base_orientation)
    base_position = np.asarray(q.base_position, dtype=float)
    n = model.n_joint_dofs
    frames = np.empty((n, 3, 5))
    position = np.empty((n, 3))
    for i, p in enumerate(model._parent_row):
        if p == 0:
            R_p, x_p = base_rotation, base_position
        else:
            R_p, x_p = frames[p - 1, :, :3], position[p - 1]
        local = np.empty((3, 5))
        local[:, :3] = reference_axis_angle_matrix(model._dof_axis[i], q.joint_angles[i])
        local[:, 3] = model._dof_offset[i]
        local[:, 4] = model._dof_axis[i]
        np.matmul(R_p, local, out=frames[i])
        np.add(x_p, frames[i, :, 3], out=position[i])
    return frames[:, :, :3], position, frames[:, :, 4]


def reference_inverse_dynamics(
    model: SkeletonModel,
    q: JointConfiguration,
    qd: np.ndarray,
    qdd: np.ndarray,
    gravity: float | np.ndarray = GRAVITY_DEFAULT,
) -> np.ndarray:
    """Generalized forces of the free-floating model via a recursive
    Newton-Euler sweep in world coordinates, one frame at a time on single
    3-vectors: the per-frame oracle for ``dynamics.inverse_dynamics_series``.

    ``qd``/``qdd`` follow the 49-coordinate velocity layout. The first six
    outputs are the base wrench (world force, world torque about the base
    origin); the remainder are joint actuation torques, one per DoF.
    """
    qd = np.asarray(qd, dtype=float)
    qdd = np.asarray(qdd, dtype=float)
    nv = model.n_velocity
    if qd.shape != (nv,) or qdd.shape != (nv,):
        raise ValidationError(f"expected velocity/acceleration of shape ({nv},)")
    if np.isscalar(gravity):
        g_vec = np.array([0.0, 0.0, -float(gravity)])
    else:
        g_vec = np.asarray(gravity, dtype=float)

    state = KinematicState(model, q)
    n = model.n_joint_dofs
    parent = [p - 1 for p in model._parent_row]  # link index, -1 for the base

    # forward sweep: world kinematics of every link origin; the base linear
    # acceleration is offset by -g so gravity rides through the recursion
    w = np.zeros((n, 3))
    al = np.zeros((n, 3))
    acc = np.zeros((n, 3))
    w0, a0 = qd[3:6], qdd[3:6]
    acc0 = qdd[0:3] - g_vec

    axes = state.axis_world
    for i in range(n):
        p = parent[i]
        if p < 0:
            wp, alp, accp, xp = w0, a0, acc0, state.base_position
        else:
            wp, alp, accp, xp = w[p], al[p], acc[p], state.link_position[p]
        r = state.link_position[i] - xp
        s = axes[i]
        w[i] = wp + s * qd[6 + i]
        al[i] = alp + s * qdd[6 + i] + np.cross(wp, s * qd[6 + i])
        acc[i] = accp + np.cross(alp, r) + np.cross(wp, np.cross(wp, r))

    # per-link inertial wrench about the link origin
    f_acc = np.zeros((n, 3))
    n_acc = np.zeros((n, 3))
    f_base = np.zeros(3)
    n_base = np.zeros(3)

    def body_wrench(seg_index: int, link: int) -> None:
        seg = model.segments[seg_index]
        if seg.mass == 0.0:
            return
        if link < 0:
            R, x = state.base_rotation, state.base_position
            wi, ali, acci = w0, a0, acc0
        else:
            R, x = state.link_rotation[link], state.link_position[link]
            wi, ali, acci = w[link], al[link], acc[link]
        rc = R @ seg.com_offset
        a_com = acci + np.cross(ali, rc) + np.cross(wi, np.cross(wi, rc))
        F = seg.mass * a_com
        I_w = R @ seg.inertia @ R.T
        N = I_w @ ali + np.cross(wi, I_w @ wi)
        if link < 0:
            nonlocal f_base, n_base
            f_base = f_base + F
            n_base = n_base + N + np.cross(rc, F)
        else:
            f_acc[link] += F
            n_acc[link] += N + np.cross(rc, F)

    base_index = model.segment_index[model.base_segment]
    body_wrench(base_index, -1)
    for i in range(n):
        seg_index = model._row_segment[1 + i]
        if seg_index >= 0:
            body_wrench(seg_index, i)

    tau = np.zeros(nv)
    for i in range(n - 1, -1, -1):
        tau[6 + i] = float(axes[i] @ n_acc[i])
        p = parent[i]
        if p < 0:
            r = state.link_position[i] - state.base_position
            f_base = f_base + f_acc[i]
            n_base = n_base + n_acc[i] + np.cross(r, f_acc[i])
        else:
            r = state.link_position[i] - state.link_position[p]
            f_acc[p] += f_acc[i]
            n_acc[p] += n_acc[i] + np.cross(r, f_acc[i])
    tau[0:3] = f_base
    tau[3:6] = n_base
    return tau


def reference_point_jacobian_linear(
    state: KinematicState, point: np.ndarray, link: int
) -> np.ndarray:
    """3 x n_velocity Jacobian of a world point rigidly attached to a link
    (link = -1 for the base), with ``np.cross``: the oracle for the point
    rows of ``KinematicState.jacobian``."""
    model = state.model
    J = np.zeros((3, model.n_velocity))
    J[:, 0:3] = np.eye(3)
    r = point - state.base_position
    # omega x r = -[r]x omega
    J[:, 3:6] = np.array(
        [[0.0, r[2], -r[1]], [-r[2], 0.0, r[0]], [r[1], -r[0], 0.0]]
    )
    if link >= 0:
        mask = model._row_ancestors[1 + link]
        axes = state.axis_world[mask]
        arms = point - state.link_position[mask]
        J[:, 6:][:, mask] = np.cross(axes, arms).T
    return J


def reference_com_jacobian(state: KinematicState) -> np.ndarray:
    """The CoM Jacobian as the mass-weighted sum of the 19 segment-CoM point
    Jacobians: the oracle for ``KinematicState.jacobian("com", "position")``."""
    model = state.model
    J = np.zeros((3, model.n_velocity))
    for seg in model.segments:
        link = model._segment_row[seg.name] - 1
        pose = state.segment_pose(seg.name)
        com = pose.position + pose.rotation @ seg.com_offset
        J += seg.mass * reference_point_jacobian_linear(state, com, link)
    return J / model.total_mass


def reference_matrix_to_quat(R: np.ndarray) -> np.ndarray:
    """Shepperd's method on one (3, 3) rotation with scalar branches: the
    oracle for the stacked ``geometry.matrix_to_quat``."""
    R = np.asarray(R, dtype=float)
    tr = R[0, 0] + R[1, 1] + R[2, 2]
    if tr > 0.0:
        s = np.sqrt(tr + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s]
        )
    elif R[0, 0] >= R[1, 1] and R[0, 0] >= R[2, 2]:
        s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        q = np.array(
            [(R[2, 1] - R[1, 2]) / s, 0.25 * s, (R[0, 1] + R[1, 0]) / s, (R[0, 2] + R[2, 0]) / s]
        )
    elif R[1, 1] >= R[2, 2]:
        s = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        q = np.array(
            [(R[0, 2] - R[2, 0]) / s, (R[0, 1] + R[1, 0]) / s, 0.25 * s, (R[1, 2] + R[2, 1]) / s]
        )
    else:
        s = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        q = np.array(
            [(R[1, 0] - R[0, 1]) / s, (R[0, 2] + R[2, 0]) / s, (R[1, 2] + R[2, 1]) / s, 0.25 * s]
        )
    if q[0] < 0.0:
        q = -q
    return quat_normalize(q)


def reference_matrix_to_rotvec(R: np.ndarray) -> np.ndarray:
    """Rotation vector of one (3, 3) rotation through scalar steps: the
    oracle for the stacked ``geometry.matrix_to_rotvec``."""
    w, x, y, z = reference_matrix_to_quat(R)
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    sin_half = np.sqrt(x * x + y * y + z * z)
    if sin_half < 1e-12:
        return np.array([x, y, z]) * (2.0 / w)
    angle = 2.0 * np.arctan2(sin_half, w)
    return np.array([x, y, z]) * (angle / sin_half)


def reference_quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product of one quaternion pair ``(4,)`` from its scalar
    components: the oracle for a one-pair ``geometry.quat_multiply``."""
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return np.array(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ]
    )


def reference_task_jacobian(state: KinematicState, frame: str, kind: str) -> np.ndarray:
    """World task Jacobian of one frame from the ``np.cross`` oracles: the
    point Jacobian of the frame origin, the ancestor links' world axes for
    the angular rows, or the per-segment CoM sum. The oracle for
    ``KinematicState.jacobian``."""
    model = state.model
    name = model.resolve_frame(frame)
    if name == "com":
        return reference_com_jacobian(state)
    link = model._segment_row[name] - 1
    rows = []
    if kind in ("position", "both"):
        origin = state.segment_pose(name).position
        rows.append(reference_point_jacobian_linear(state, origin, link))
    if kind in ("orientation", "both"):
        J = np.zeros((3, model.n_velocity))
        J[:, 3:6] = np.eye(3)
        if link >= 0:
            mask = model._row_ancestors[1 + link]
            J[:, 6:][:, mask] = state.axis_world[mask].T
        rows.append(J)
    return np.vstack(rows)


def reference_task_rows(
    state: KinematicState,
    tasks: list[TaskSpec],
    references: dict[str, Reference],
    gain: float,
    jacobian=reference_task_jacobian,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Level Jacobians and velocity references at feedback ``gain``,
    assembled one task at a time from ``jacobian(state, frame, kind)`` (the
    ``np.cross`` oracle unless given) and ``orientation_error``, stacked per
    level in stack order: ``(J1, v1, J2, v2)``. The oracle for the
    retargeter's one-pass row plan."""
    model = state.model
    blocks: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {1: [], 2: []}
    for task in tasks:
        ref = references[task.frame]
        J = jacobian(state, task.frame, task.kind)
        name = model.resolve_frame(task.frame)
        v = np.zeros(J.shape[0])
        r = 0
        if task.kind in ("position", "both"):
            current = state.com() if name == "com" else state.segment_pose(name).position
            v[r : r + 3] = gain * (ref.position - current) + ref.linear_velocity
            r += 3
        if task.kind in ("orientation", "both"):
            err = orientation_error(ref.rotation, state.segment_pose(name).rotation)
            v[r : r + 3] = gain * err + ref.angular_velocity
        blocks[task.priority].append((J, v))

    def level(p: int) -> tuple[np.ndarray, np.ndarray]:
        if not blocks[p]:
            return np.zeros((0, model.n_velocity)), np.zeros(0)
        return np.vstack([J for J, _ in blocks[p]]), np.concatenate([v for _, v in blocks[p]])

    return (*level(1), *level(2))


def reference_frame_references(
    model: SkeletonModel, captured: CapturedTrajectory, tasks: list[TaskSpec]
) -> list[dict[str, Reference]]:
    """Per-frame ``Reference`` objects of every task, feedforward over the
    step landing on each frame."""
    tracks = _reference_tracks(model, captured, tasks)
    dt = 1.0 / captured.sample_rate
    prev = np.maximum(np.arange(captured.n_frames) - 1, 0)
    arrays = {
        frame: (
            track.positions,
            quat_to_matrix(track.quaternions),
            (track.positions - track.positions[prev]) / dt,
            quat_rotvec_between(track.quaternions[prev], track.quaternions) / dt,
        )
        for frame, track in tracks.items()
    }
    return [
        {frame: Reference(p[k], R[k], v[k], w[k]) for frame, (p, R, v, w) in arrays.items()}
        for k in range(captured.n_frames)
    ]


def reference_two_level_step(
    J1: np.ndarray,
    v1: np.ndarray,
    J2: np.ndarray,
    v2: np.ndarray,
) -> QPResult:
    """One frame's two levels as two active-set QPs at the retargeter's
    ``EPSILON`` and ``VELOCITY_BOUND``, read when called: level 1 under the
    velocity bounds, then level 2 with the level-1 task velocities held by
    an equality constraint, started from level 1's solution. Iterations
    add up and the active bounds are the union of both levels'. The oracle
    for ``qp.solve_hierarchy``."""
    n, eps = J1.shape[1], retarget.EPSILON
    lb, ub = -np.full(n, retarget.VELOCITY_BOUND), np.full(n, retarget.VELOCITY_BOUND)
    r1 = solve_ls_qp(J1, v1, eps, lb, ub)
    if not J2.shape[0]:
        return r1
    r2 = solve_ls_qp(J2, v2, eps, lb, ub, C=J1, x0=r1.x)
    return QPResult(
        x=r2.x,
        iterations=r1.iterations + r2.iterations,
        active_lower=sorted(set(r1.active_lower) | set(r2.active_lower)),
        active_upper=sorted(set(r1.active_upper) | set(r2.active_upper)),
    )


def reference_start(model: SkeletonModel, captured: CapturedTrajectory) -> JointConfiguration:
    """The upright joint angles on the base pose of the first captured
    ``model.base_segment`` frame, or the upright configuration when the
    capture has no such track."""
    q = model.upright_configuration()
    if model.base_segment not in captured.segments:
        return q
    track = captured.segments[model.base_segment]
    return JointConfiguration(track.positions[0].copy(), track.quaternions[0].copy(), q.joint_angles)


def reference_retarget(
    model: SkeletonModel, captured: CapturedTrajectory
) -> tuple[list[JointConfiguration], list[FrameDiagnostics]]:
    """The two-level velocity-QP loop over a uniform capture for the default
    stack at the retargeter's constants, driven by the per-task row
    assembly of ``reference_task_rows`` and solved by
    ``reference_two_level_step``.
    Each task's Jacobian comes from ``KinematicState.jacobian``, so both
    loops see the same Jacobian bits: the regularized QP turns the last-bit
    difference of the ``np.cross`` CoM oracle into joint-angle drift of
    order 1e-8 rad over a saturating trajectory. The Jacobian values are
    checked against that oracle on their own."""
    tasks, dt = default_task_stack(), 1.0 / captured.sample_rate
    q = reference_start(model, captured)
    configurations, diagnostics = [], []
    for refs in reference_frame_references(model, captured, tasks):
        state = KinematicState(model, q)
        J1, v1, J2, v2 = reference_task_rows(state, tasks, refs, retarget.GAIN, KinematicState.jacobian)
        try:
            r = reference_two_level_step(J1, v1, J2, v2)
        except InfeasibleBoundsError as exc:
            diagnostics.append(FrameDiagnostics(skipped=True, message=str(exc)))
            configurations.append(q)
            continue
        diagnostics.append(FrameDiagnostics(r.iterations, r.saturated))
        q = integrate_configuration(model, q, r.x, dt)
        configurations.append(q)
    return configurations, diagnostics


def reference_allocating_retarget(
    model: SkeletonModel, captured: CapturedTrajectory
) -> tuple[JointConfiguration, list[FrameDiagnostics]]:
    """The default stack's retargeting loop with the per-frame objects made
    afresh, at the retargeter's constants: each
    frame builds a ``KinematicState`` of its configuration, writes the
    plan's rows from its frames, solves both levels with bounds made by
    ``np.full`` and integrates into a new ``JointConfiguration``; a frame
    whose bounds are empty holds the configuration. The level solver is
    ``retarget.solve_hierarchy`` as bound when the frame runs, so a patched
    one reaches this loop too. The bit-for-bit oracle of
    ``retarget_trajectory``."""
    tasks = default_task_stack()
    plan = _Plan(model, tasks)
    dt = 1.0 / captured.sample_rate
    n = captured.n_frames
    refs = _trajectory_references(plan, _reference_tracks(model, captured, tasks), n, dt)
    m1, nv, bound = plan.n_level1_rows, model.n_velocity, retarget.VELOCITY_BOUND
    q = reference_start(model, captured)
    configurations, diagnostics = [], []
    for k in range(n):
        J, v = plan.rows(KinematicState(model, q).frames, refs, k)
        try:
            result = retarget.solve_hierarchy(
                J[:m1],
                v[:m1],
                J[m1:],
                v[m1:],
                retarget.EPSILON,
                -np.full(nv, bound),
                np.full(nv, bound),
            )
        except InfeasibleBoundsError as exc:
            diagnostics.append(FrameDiagnostics(skipped=True, message=str(exc)))
        else:
            diagnostics.append(FrameDiagnostics(result.iterations, result.saturated))
            q = integrate_configuration(model, q, result.x, dt)
        configurations.append(q)
    stacked = JointConfiguration(
        np.array([c.base_position for c in configurations]),
        np.array([c.base_orientation for c in configurations]),
        np.array([c.joint_angles for c in configurations]),
    )
    return stacked, diagnostics
