"""Per-frame hierarchical velocity-QP inverse kinematics that replays captured
Cartesian segment trajectories on the scaled model.

Two strictly prioritized levels are solved as cascaded QPs: the level-2
problem minimizes its own tracking residual subject to an equality constraint
that pins the level-1 task velocities to the level-1 optimum, so adding or
rescaling level-2 tasks can never degrade level-1 tracking beyond solver
tolerance. Velocity references combine proportional feedback on the pose error
with a finite-difference feedforward of the reference trajectory.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import (
    InfeasibleBoundsError,
    SolverError,
    JsonFields,
    ValidationError,
    require_finite,
)
from .geometry import orientation_error, quat_rotvec_between, quat_slerp, quat_to_matrix
from .qp import solve_ls_qp
from .skeleton import (
    JointConfiguration,
    KinematicState,
    SkeletonModel,
    integrate_configuration,
)

DEFAULT_GAIN = 10.0  # 1/s, stable at 240 Hz
QUAT_TRACK_TOL = 1e-6
DT_JITTER_TOL = 0.10


@dataclass(frozen=True)
class SolverSettings:
    epsilon: float = 1e-6
    gain: float = DEFAULT_GAIN
    velocity_bound: float = 10.0  # rad/s and m/s, symmetric
    max_iterations: int = 200
    tolerance: float = 1e-10  # QP multiplier tolerance for releasing a bound


def load_solver_settings(path: str | Path) -> SolverSettings:
    """Solver settings from a JSON object. A field left out keeps its default
    and an unknown field is an error; ``tolerance`` must not be negative and
    the other settings must be positive."""
    from .io import load_json_file  # local import: io depends on this module

    raw = JsonFields(load_json_file(path), path)
    # each field has the JSON type of its default: max_iterations an integer, the rest numbers
    settings = SolverSettings(
        **{
            f.name: raw.get(f.name, type(f.default), f.default, positive=f.name != "tolerance")
            for f in fields(SolverSettings)
        }
    )
    raw.reject_unread()
    if settings.tolerance < 0.0:
        raise ValidationError(f"{path}: tolerance must not be negative, got {settings.tolerance!r}")
    return settings


@dataclass(frozen=True)
class TaskSpec:
    frame: str
    kind: str  # position | orientation | both
    priority: int  # 1 | 2
    feedback_gain: float = DEFAULT_GAIN
    source: str | None = None  # trajectory segment id; defaults to frame
    hold_first: bool = False  # reference pinned to the first captured frame

    def __post_init__(self) -> None:
        if self.priority not in (1, 2):
            raise ValidationError(f"task {self.frame!r}: priority must be 1 or 2")
        if self.feedback_gain <= 0.0:
            raise ValidationError(f"task {self.frame!r}: feedback gain must be positive")
        if self.kind not in ("position", "orientation", "both"):
            raise ValidationError(f"task {self.frame!r}: unknown kind {self.kind!r}")

    @property
    def reference_source(self) -> str:
        return self.source if self.source is not None else self.frame


def default_task_stack(gain: float = DEFAULT_GAIN) -> list[TaskSpec]:
    """Canonical retargeting stack: level 1 holds balance (CoM position) and
    both feet; level 2 tracks pelvis and thorax pose, shoulder/elbow/wrist
    positions on both sides, and head orientation."""
    level1 = [
        TaskSpec("com", "position", 1, gain, source="com"),
        TaskSpec("left_foot", "both", 1, gain, hold_first=True),
        TaskSpec("right_foot", "both", 1, gain, hold_first=True),
    ]
    level2 = [
        TaskSpec("pelvis", "both", 2, gain),
        TaskSpec("thorax", "both", 2, gain),
        TaskSpec("left_shoulder", "position", 2, gain, source="left_upper_arm"),
        TaskSpec("right_shoulder", "position", 2, gain, source="right_upper_arm"),
        TaskSpec("left_elbow", "position", 2, gain, source="left_forearm"),
        TaskSpec("right_elbow", "position", 2, gain, source="right_forearm"),
        TaskSpec("left_wrist", "position", 2, gain, source="left_hand"),
        TaskSpec("right_wrist", "position", 2, gain, source="right_hand"),
        TaskSpec("head", "orientation", 2, gain),
    ]
    return level1 + level2


@dataclass(frozen=True)
class SegmentTrack:
    positions: np.ndarray  # (n, 3)
    quaternions: np.ndarray  # (n, 4) unit, (w, x, y, z)


@dataclass
class CapturedTrajectory:
    """Time-stamped world poses of body segments from motion capture."""

    sample_rate: float
    times: np.ndarray  # (n,)
    segments: dict[str, SegmentTrack]

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        n = len(self.times)
        if n == 0:
            raise ValidationError("trajectory has no frames")
        if self.sample_rate <= 0.0:
            raise ValidationError("sample rate must be positive")
        require_finite(self.times, "trajectory timestamps")
        dt = np.diff(self.times)
        if np.any(dt <= 0.0):
            row = int(np.nonzero(dt <= 0.0)[0][0]) + 1
            raise ValidationError(f"timestamps not strictly increasing at frame {row}")
        nominal = 1.0 / self.sample_rate
        if dt.size and np.max(np.abs(dt - nominal)) > DT_JITTER_TOL * nominal:
            worst = int(np.argmax(np.abs(dt - nominal))) + 1
            raise ValidationError(
                f"frame spacing at frame {worst} deviates more than 10% from "
                f"1/{self.sample_rate} s"
            )
        for name, track in self.segments.items():
            if track.positions.shape != (n, 3) or track.quaternions.shape != (n, 4):
                raise ValidationError(f"segment {name!r}: track shape mismatch")
            require_finite(track.positions, f"segment {name!r}: positions")
            require_finite(track.quaternions, f"segment {name!r}: quaternions")
            norms = np.linalg.norm(track.quaternions, axis=1)
            if np.max(np.abs(norms - 1.0)) > QUAT_TRACK_TOL:
                raise ValidationError(f"segment {name!r}: non-unit quaternion in track")

    @property
    def n_frames(self) -> int:
        return len(self.times)

    def is_uniform(self, rel_tol: float = 1e-9) -> bool:
        if self.n_frames < 3:
            return True
        dt = np.diff(self.times)
        nominal = 1.0 / self.sample_rate
        return bool(np.max(np.abs(dt - nominal)) <= rel_tol * nominal)


def resample_uniform(captured: CapturedTrajectory) -> CapturedTrajectory:
    """Linear/slerp interpolation onto the uniform grid implied by the nominal
    sample rate. No-op (same data) when the input is already uniform."""
    if captured.is_uniform():
        return captured
    t0, t1 = captured.times[0], captured.times[-1]
    dt = 1.0 / captured.sample_rate
    n = int(np.floor((t1 - t0) / dt + 1e-9)) + 1
    grid = t0 + dt * np.arange(n)
    idx = np.clip(np.searchsorted(captured.times, grid, side="right") - 1, 0, captured.n_frames - 2)
    w = (grid - captured.times[idx]) / (captured.times[idx + 1] - captured.times[idx])
    w = np.clip(w, 0.0, 1.0)
    segments = {}
    for name, track in captured.segments.items():
        pos = track.positions[idx] * (1.0 - w[:, None]) + track.positions[idx + 1] * w[:, None]
        quats = np.empty((n, 4))
        for k in range(n):
            quats[k] = quat_slerp(track.quaternions[idx[k]], track.quaternions[idx[k] + 1], w[k])
        segments[name] = SegmentTrack(pos, quats)
    return CapturedTrajectory(sample_rate=captured.sample_rate, times=grid, segments=segments)


@dataclass(frozen=True)
class Reference:
    """Target pose plus feedforward velocity for one task at one frame."""

    position: np.ndarray | None = None
    rotation: np.ndarray | None = None  # (3, 3)
    linear_velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    angular_velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))


@dataclass
class FrameDiagnostics:
    iterations: int = 0
    active_constraints: list[int] = field(default_factory=list)
    skipped: bool = False
    message: str = ""


@dataclass
class FrameSolution:
    velocity: np.ndarray  # (49,)
    next_configuration: JointConfiguration
    position_error: dict[str, float]  # m, per task frame
    orientation_error: dict[str, float]  # rad, per task frame
    level1_residual: float
    diagnostics: FrameDiagnostics


def _task_rows(
    state: KinematicState, task: TaskSpec, ref: Reference
) -> tuple[np.ndarray, np.ndarray, float | None, float | None]:
    """Jacobian rows and velocity reference for one task, plus the current
    pose errors (position m, orientation rad)."""
    J = state.jacobian(task.frame, task.kind)
    rows_pos = task.kind in ("position", "both")
    rows_ori = task.kind in ("orientation", "both")
    v = np.zeros(J.shape[0])
    pos_err = ori_err = None
    r = 0
    if rows_pos:
        if ref.position is None:
            raise ValidationError(f"task {task.frame!r}: reference lacks a position")
        name = state.model.resolve_frame(task.frame)
        current = state.com() if name == "com" else state.segment_pose(name).position
        err = ref.position - current
        v[r : r + 3] = task.feedback_gain * err + ref.linear_velocity
        pos_err = float(np.linalg.norm(err))
        r += 3
    if rows_ori:
        if ref.rotation is None:
            raise ValidationError(f"task {task.frame!r}: reference lacks an orientation")
        name = state.model.resolve_frame(task.frame)
        err = orientation_error(ref.rotation, state.segment_pose(name).rotation)
        v[r : r + 3] = task.feedback_gain * err + ref.angular_velocity
        ori_err = float(np.linalg.norm(err))
    return J, v, pos_err, ori_err


def solve_frame(
    model: SkeletonModel,
    q_current: JointConfiguration,
    tasks: list[TaskSpec],
    references: dict[str, Reference],
    dt: float,
    settings: SolverSettings = SolverSettings(),
) -> FrameSolution:
    """One hierarchical velocity-QP step.

    Level 1 minimizes its tracking residual (with Tikhonov regularization)
    under symmetric velocity bounds; level 2 is minimized subject to
    preserving the level-1 task velocities exactly. The returned configuration
    integrates the solution over ``dt``.
    """
    if dt <= 0.0:
        raise ValidationError("dt must be positive")
    state = KinematicState(model, q_current)

    blocks: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {1: [], 2: []}
    pos_errors: dict[str, float] = {}
    ori_errors: dict[str, float] = {}
    for task in tasks:
        try:
            ref = references[task.frame]
        except KeyError:
            raise ValidationError(f"no reference supplied for task frame {task.frame!r}") from None
        J, v, pe, oe = _task_rows(state, task, ref)
        blocks[task.priority].append((J, v))
        if pe is not None:
            pos_errors[task.frame] = pe
        if oe is not None:
            ori_errors[task.frame] = oe

    n = model.n_velocity
    bound = settings.velocity_bound
    lb, ub = -np.full(n, bound), np.full(n, bound)

    if not blocks[1]:
        raise ValidationError("task stack has no level-1 tasks")
    J1 = np.vstack([J for J, _ in blocks[1]])
    v1 = np.concatenate([v for _, v in blocks[1]])
    options = {"max_iterations": settings.max_iterations, "tolerance": settings.tolerance}
    r1 = solve_ls_qp(J1, v1, settings.epsilon, lb, ub, **options)

    if blocks[2]:
        J2 = np.vstack([J for J, _ in blocks[2]])
        v2 = np.concatenate([v for _, v in blocks[2]])
        r2 = solve_ls_qp(J2, v2, settings.epsilon, lb, ub, C=J1, d=J1 @ r1.x, x0=r1.x, **options)
        qdot = r2.x
        iterations = r1.iterations + r2.iterations
        saturated = sorted(set(r1.saturated) | set(r2.saturated))
    else:
        qdot = r1.x
        iterations = r1.iterations
        saturated = r1.saturated

    return FrameSolution(
        velocity=qdot,
        next_configuration=integrate_configuration(model, q_current, qdot, dt),
        position_error=pos_errors,
        orientation_error=ori_errors,
        level1_residual=float(np.linalg.norm(J1 @ qdot - v1)),
        diagnostics=FrameDiagnostics(iterations=iterations, active_constraints=saturated),
    )


@dataclass
class RetargetResult:
    times: np.ndarray
    configurations: list[JointConfiguration]
    position_residuals: dict[str, np.ndarray]  # m per frame, keyed by task frame
    orientation_residuals: dict[str, np.ndarray]  # rad per frame
    diagnostics: list[FrameDiagnostics]

    @property
    def n_frames(self) -> int:
        return len(self.configurations)


def _reference_tracks(
    model: SkeletonModel, captured: CapturedTrajectory, tasks: list[TaskSpec]
) -> dict[str, SegmentTrack]:
    """One pose track per task frame, honoring held (first-frame) references
    and the CoM fallback."""
    out: dict[str, SegmentTrack] = {}
    n = captured.n_frames
    for task in tasks:
        src = task.reference_source
        if src == "com" and "com" not in captured.segments:
            track = _estimate_com_track(model, captured)
        elif src in captured.segments:
            track = captured.segments[src]
        else:
            raise ValidationError(
                f"task {task.frame!r}: trajectory has no segment {src!r} "
                f"(available: {sorted(captured.segments)})"
            )
        if task.hold_first:
            track = SegmentTrack(
                np.tile(track.positions[0], (n, 1)), np.tile(track.quaternions[0], (n, 1))
            )
        out[task.frame] = track
    return out


def _frame_references(
    tracks: dict[str, SegmentTrack], n: int, dt: float
) -> Iterator[dict[str, Reference]]:
    """The references of every task, frame by frame, from targets and
    feedforward velocities computed for the whole trajectory at once. The
    feedforward over the step that lands on frame k keeps the recovered
    configuration aligned with the captured frame index."""
    prev = np.maximum(np.arange(n) - 1, 0)
    arrays = {
        frame: (
            track.positions,
            quat_to_matrix(track.quaternions),
            (track.positions - track.positions[prev]) / dt,
            quat_rotvec_between(track.quaternions[prev], track.quaternions) / dt,
        )
        for frame, track in tracks.items()
    }
    for k in range(n):
        yield {frame: Reference(p[k], R[k], v[k], w[k]) for frame, (p, R, v, w) in arrays.items()}


def _estimate_com_track(model: SkeletonModel, captured: CapturedTrajectory) -> SegmentTrack:
    """Whole-body CoM estimated from the captured segment poses using the
    model's mass distribution (used when the capture provides no CoM track)."""
    names = [s.name for s in model.segments if s.name in captured.segments]
    if not names:
        raise ValidationError("cannot estimate CoM: no captured segment matches the model")
    masses = np.array([model.segment(name).mass for name in names])
    total = masses.sum()
    n = captured.n_frames
    com = np.zeros((n, 3))
    for name, mass in zip(names, masses):
        track = captured.segments[name]
        offs = model.segment(name).com_offset
        com += mass * (track.positions + quat_to_matrix(track.quaternions) @ offs)
    com /= total
    quats = np.tile(np.array([1.0, 0.0, 0.0, 0.0]), (n, 1))
    return SegmentTrack(com, quats)


def retarget_trajectory(
    model: SkeletonModel,
    captured: CapturedTrajectory,
    tasks: list[TaskSpec] | None = None,
    settings: SolverSettings = SolverSettings(),
    initial: JointConfiguration | None = None,
) -> RetargetResult:
    """Replay a captured trajectory on the model frame by frame.

    The frame count is preserved. Infeasible frames are skipped (configuration
    held) with a diagnostic; solver non-convergence aborts with the frame
    index.
    """
    if tasks is None:
        tasks = default_task_stack(settings.gain)
    captured = resample_uniform(captured)
    dt = 1.0 / captured.sample_rate
    n = captured.n_frames
    references = _frame_references(_reference_tracks(model, captured, tasks), n, dt)

    q = initial if initial is not None else model.upright_configuration()
    limit_flags = model.check_limits(q)
    if limit_flags:
        warnings.warn(f"initial configuration outside joint limits: {limit_flags[:3]}...")

    configurations: list[JointConfiguration] = []
    diagnostics: list[FrameDiagnostics] = []
    pos_res = {t.frame: np.zeros(n) for t in tasks}
    ori_res = {t.frame: np.zeros(n) for t in tasks}

    for k, frame_refs in enumerate(references):
        try:
            sol = solve_frame(model, q, tasks, frame_refs, dt, settings)
        except InfeasibleBoundsError as exc:
            diagnostics.append(FrameDiagnostics(skipped=True, message=str(exc)))
            configurations.append(q)
            continue
        except SolverError as exc:
            raise SolverError(f"frame {k}: {exc}") from exc
        for task in tasks:
            pos_res[task.frame][k] = sol.position_error.get(task.frame, 0.0)
            ori_res[task.frame][k] = sol.orientation_error.get(task.frame, 0.0)
        diagnostics.append(sol.diagnostics)
        q = sol.next_configuration
        configurations.append(q)

    return RetargetResult(
        times=captured.times.copy(),
        configurations=configurations,
        position_residuals=pos_res,
        orientation_residuals=ori_res,
        diagnostics=diagnostics,
    )
