"""Per-frame hierarchical velocity-QP inverse kinematics that replays captured
Cartesian segment trajectories on the scaled model.

Two strictly prioritized levels are solved as cascaded QPs
(``qp.solve_hierarchy``): the level-2 problem minimizes its own tracking
residual subject to an equality constraint that pins the level-1 task
velocities to the level-1 optimum, so adding or rescaling level-2 tasks can
never degrade level-1 tracking beyond solver tolerance. Velocity references
combine proportional feedback on the pose error with a finite-difference
feedforward of the reference trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FrameError, SolverError, ValidationError, require_finite, uniform_spacing
from .geometry import (
    orientation_error,
    quat_rotvec_between,
    quat_to_matrix,
    vector_norms,
)
from .qp import solve_hierarchy
from .skeleton import (
    TASK_KINDS,
    FrameSweep,
    JointConfiguration,
    SkeletonModel,
    TaskRowLayout,
    integrate_arrays,
)

QUAT_NORM_TOL = 1e-3
DT_JITTER_TOL = 0.10
# the retargeting QP's Tikhonov regularization
EPSILON = 1e-6
# 1/s, every task's feedback gain; stable at 240 Hz
GAIN = 10.0
# rad/s and m/s, the symmetric bound on every velocity coordinate
VELOCITY_BOUND = 10.0


@dataclass(frozen=True)
class TaskSpec:
    """A task: the model frame it moves, what it tracks and its level. It
    tracks the captured segment of ``model.resolve_frame(frame)`` (the CoM
    estimate when the capture has none) at ``GAIN``."""

    frame: str
    kind: str  # position | orientation | both
    priority: int  # 1 | 2

    def __post_init__(self) -> None:
        if self.priority not in (1, 2):
            raise ValidationError(f"task {self.frame!r}: priority must be 1 or 2")
        if self.kind not in TASK_KINDS:
            raise ValidationError(f"task {self.frame!r}: unknown kind {self.kind!r}")


def default_task_stack() -> list[TaskSpec]:
    """Canonical retargeting stack: level 1 tracks balance (CoM position) and
    the captured pose of both feet; level 2 tracks pelvis and thorax pose,
    shoulder/elbow/wrist positions on both sides, and head orientation."""
    level1 = [
        TaskSpec("com", "position", 1),
        TaskSpec("left_foot", "both", 1),
        TaskSpec("right_foot", "both", 1),
    ]
    level2 = [
        TaskSpec("pelvis", "both", 2),
        TaskSpec("thorax", "both", 2),
        TaskSpec("left_shoulder", "position", 2),
        TaskSpec("right_shoulder", "position", 2),
        TaskSpec("left_elbow", "position", 2),
        TaskSpec("right_elbow", "position", 2),
        TaskSpec("left_wrist", "position", 2),
        TaskSpec("right_wrist", "position", 2),
        TaskSpec("head", "orientation", 2),
    ]
    return level1 + level2


@dataclass(frozen=True)
class SegmentTrack:
    """World positions and unit quaternions of one captured segment, frame by frame."""

    positions: np.ndarray  # (n, 3)
    quaternions: np.ndarray  # (n, 4) unit, (w, x, y, z)


@dataclass
class CapturedTrajectory:
    """Time-stamped world poses of body segments from motion capture, frames
    as recorded. The period ``dt`` is ``uniform_spacing``'s: the span over
    the number of spacings, each spacing within ``DT_JITTER_TOL`` of it.
    Every quaternion within ``QUAT_NORM_TOL`` of unit norm is renormalized."""

    times: np.ndarray  # (n,)
    segments: dict[str, SegmentTrack]
    dt: float = field(init=False)  # s

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        require_finite(self.times, "trajectory timestamps")
        self.dt = uniform_spacing(self.times, DT_JITTER_TOL)
        n, segments = len(self.times), {}
        for name, track in self.segments.items():
            if track.positions.shape != (n, 3) or track.quaternions.shape != (n, 4):
                raise ValidationError(f"segment {name!r}: track shape mismatch")
            require_finite(track.positions, f"segment {name!r}: positions")
            require_finite(track.quaternions, f"segment {name!r}: quaternions")
            # norms of a C-ordered copy: bit for bit the per-row np.linalg.norm,
            # which a column-ordered block is not
            norms = vector_norms(np.ascontiguousarray(track.quaternions))
            bad = np.nonzero(~(np.abs(norms - 1.0) <= QUAT_NORM_TOL))[0]
            if bad.size:
                k = int(bad[0])
                raise FrameError(
                    f"segment {name!r}: quaternion norm {norms[k]:.6f} at frame {k} deviates from 1 "
                    f"by more than {QUAT_NORM_TOL}",
                    k,
                )
            segments[name] = SegmentTrack(track.positions, track.quaternions / norms[:, None])
        self.segments = segments

    @property
    def n_frames(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class Reference:
    """Target pose plus feedforward velocity for one task at one frame."""

    position: np.ndarray | None = None
    rotation: np.ndarray | None = None  # (3, 3)
    linear_velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    angular_velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))


@dataclass
class FrameDiagnostics:
    """QP iterations and the sorted coordinates at a velocity bound of one
    retargeting frame. The bounds are the constant ``VELOCITY_BOUND``, so
    every frame is solved: ``skipped`` is always False, and stays only
    because ``bench/tracing.py`` counts it as ``retarget.skipped_frames``."""

    iterations: int
    active_constraints: list[int]
    skipped: bool = False


@dataclass
class FrameSolution:
    """One retargeting step: velocity, next configuration, level-1 residual, diagnostics."""

    velocity: np.ndarray  # (49,)
    next_configuration: JointConfiguration
    level1_residual: float
    diagnostics: FrameDiagnostics


@dataclass(frozen=True)
class _ReferenceArrays:
    """Targets and feedforward velocities of a plan's tasks, frame by frame:
    positions and linear velocities ``(T, position tasks, 3)``, rotations
    ``(T, orientation tasks, 3, 3)`` and angular velocities
    ``(T, orientation tasks, 3)``, tasks in the plan's order."""

    positions: np.ndarray
    linear_velocities: np.ndarray
    rotations: np.ndarray
    angular_velocities: np.ndarray


class _Plan:
    """Everything one retargeting step needs that does not change from frame
    to frame, built once per (model, task stack). The tasks run
    level 1 first, in stack order within a level, through one
    :class:`TaskRowLayout`, so level 1 owns the first ``n_level1_rows`` rows.
    ``position_tasks`` and ``orientation_tasks`` are the tasks with those
    rows, in row order, which the reference arrays follow. The link frames,
    the task Jacobian ``J`` and velocity references ``v``, with the level
    Jacobians and references as views of them, and both velocity bounds are
    made here and overwritten by each step, so a sweep over a trajectory
    allocates them once. ``EPSILON``, ``GAIN`` and ``VELOCITY_BOUND`` are
    read here too."""

    def __init__(self, model: SkeletonModel, tasks: list[TaskSpec]):
        self.model, self.epsilon, self.gain = model, EPSILON, GAIN
        tasks = sorted(tasks, key=lambda task: task.priority)
        if not tasks or tasks[0].priority != 1:
            raise ValidationError("task stack has no level-1 tasks")
        self.layout = layout = TaskRowLayout(model, [(task.frame, task.kind) for task in tasks])
        self.n_rows = layout.n_rows
        self.position_tasks = [tasks[i] for i in layout.position_tasks]
        self.orientation_tasks = [tasks[i] for i in layout.orientation_tasks]
        self.n_level1_rows = m1 = 3 * sum(
            task.priority == 1 for task in self.position_tasks + self.orientation_tasks
        )
        self.sweep = FrameSweep(model)
        self.J, self.v = layout.new_jacobian(), np.empty(self.n_rows)
        self.levels = (self.J[:m1], self.v[:m1], self.J[m1:], self.v[m1:])
        n, bound = model.n_velocity, VELOCITY_BOUND
        self.lower, self.upper = -np.full(n, bound), np.full(n, bound)

    def rows(self, frames: np.ndarray, refs: _ReferenceArrays, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The plan's task Jacobian ``J`` ``(n_rows, n_velocity)`` and
        velocity references ``v`` ``(n_rows,)``, written from the world
        frames of one configuration for reference frame ``k`` at the
        plan's feedback gain, in one pass over the whole stack."""
        layout, gain = self.layout, self.gain
        _, current = layout.fill(frames, self.J)
        blocks = self.v.reshape(-1, 3)
        blocks[layout.position_blocks] = gain * (refs.positions[k] - current) + refs.linear_velocities[k]
        ori_err = orientation_error(refs.rotations[k], frames[layout.orientation_rows, :, :3])
        blocks[layout.orientation_blocks] = gain * ori_err + refs.angular_velocities[k]
        return self.J, self.v

    def step(
        self,
        q: tuple[np.ndarray, np.ndarray, np.ndarray],
        refs: _ReferenceArrays,
        k: int,
        dt: float,
        out: tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> tuple[np.ndarray, FrameDiagnostics]:
        """One hierarchical velocity-QP step towards reference frame ``k``
        from the configuration ``q``, given as its base position, base
        orientation and joint angles: the velocity and the frame's
        diagnostics, with the configuration it integrates to over ``dt``
        written into ``out``, three arrays of the same shapes."""
        position, orientation, angles = q
        self.rows(self.sweep(position, quat_to_matrix(orientation), angles), refs, k)
        result = solve_hierarchy(*self.levels, self.epsilon, self.lower, self.upper)
        integrate_arrays(position, orientation, angles, result.x, dt, out)
        return result.x, FrameDiagnostics(result.iterations, result.saturated)


def _frame_reference_arrays(plan: _Plan, references: dict[str, Reference]) -> _ReferenceArrays:
    """One frame of reference arrays from per-task ``Reference`` objects."""

    def reference(task: TaskSpec) -> Reference:
        try:
            return references[task.frame]
        except KeyError:
            raise ValidationError(f"no reference supplied for task frame {task.frame!r}") from None

    pos = [reference(task) for task in plan.position_tasks]
    ori = [reference(task) for task in plan.orientation_tasks]
    for task, ref in zip(plan.position_tasks, pos):
        if ref.position is None:
            raise ValidationError(f"task {task.frame!r}: reference lacks a position")
    for task, ref in zip(plan.orientation_tasks, ori):
        if ref.rotation is None:
            raise ValidationError(f"task {task.frame!r}: reference lacks an orientation")

    def frame(values: list, shape: tuple[int, ...]) -> np.ndarray:
        return np.array(values, dtype=float).reshape((1, -1) + shape)

    return _ReferenceArrays(
        frame([r.position for r in pos], (3,)),
        frame([r.linear_velocity for r in pos], (3,)),
        frame([r.rotation for r in ori], (3, 3)),
        frame([r.angular_velocity for r in ori], (3,)),
    )


def solve_frame(
    model: SkeletonModel,
    q_current: JointConfiguration,
    tasks: list[TaskSpec],
    references: dict[str, Reference],
    dt: float,
) -> FrameSolution:
    """One hierarchical velocity-QP step.

    Level 1 minimizes its tracking residual (with Tikhonov regularization)
    under symmetric velocity bounds; level 2 is minimized subject to
    preserving the level-1 task velocities exactly. The returned configuration
    integrates the solution over ``dt``.
    """
    if dt <= 0.0:
        raise ValidationError("dt must be positive")
    plan = _Plan(model, tasks)
    q = (q_current.base_position, q_current.base_orientation, q_current.joint_angles)
    out = (np.empty(3), np.empty(4), np.empty(model.n_joint_dofs))
    velocity, diagnostics = plan.step(q, _frame_reference_arrays(plan, references), 0, dt, out)
    J1, v1 = plan.levels[:2]
    return FrameSolution(
        velocity=velocity,
        next_configuration=JointConfiguration(*out),
        level1_residual=float(np.linalg.norm(J1 @ velocity - v1)),
        diagnostics=diagnostics,
    )


@dataclass
class RetargetResult:
    """A retargeted trajectory: one configuration and one frame's
    diagnostics for each captured frame, whose times the capture keeps."""

    configurations: JointConfiguration  # (T,) trajectory
    diagnostics: list[FrameDiagnostics]

    @property
    def n_frames(self) -> int:
        return len(self.configurations)


def _reference_tracks(
    model: SkeletonModel, captured: CapturedTrajectory, tasks: list[TaskSpec]
) -> dict[str, SegmentTrack]:
    """One pose track per task frame: the captured segment the frame resolves
    to, or the CoM estimated from the segments when the capture has no
    ``com`` track."""
    out: dict[str, SegmentTrack] = {}
    for task in tasks:
        src = model.resolve_frame(task.frame)
        if src == "com" and "com" not in captured.segments:
            out[task.frame] = _estimate_com_track(model, captured)
        elif src in captured.segments:
            out[task.frame] = captured.segments[src]
        else:
            raise ValidationError(
                f"task {task.frame!r}: trajectory has no segment {src!r} "
                f"(available: {sorted(captured.segments)})"
            )
    return out


def _trajectory_references(
    plan: _Plan, tracks: dict[str, SegmentTrack], n: int, dt: float
) -> _ReferenceArrays:
    """The reference arrays of every frame, computed for the whole
    trajectory at once. The feedforward over the step that lands on frame k
    keeps the recovered configuration aligned with the captured frame
    index."""
    prev = np.maximum(np.arange(n) - 1, 0)
    pos = [tracks[task.frame] for task in plan.position_tasks]
    ori = [tracks[task.frame] for task in plan.orientation_tasks]

    def stack(arrays: list[np.ndarray], shape: tuple[int, ...]) -> np.ndarray:
        return np.stack(arrays, axis=1) if arrays else np.zeros((n, 0) + shape)

    return _ReferenceArrays(
        stack([t.positions for t in pos], (3,)),
        stack([(t.positions - t.positions[prev]) / dt for t in pos], (3,)),
        stack([quat_to_matrix(t.quaternions) for t in ori], (3, 3)),
        stack([quat_rotvec_between(t.quaternions[prev], t.quaternions) / dt for t in ori], (3,)),
    )


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


def retarget_trajectory(model: SkeletonModel, captured: CapturedTrajectory) -> RetargetResult:
    """Replay a captured trajectory on the model with the default task stack,
    frame by frame, from the model's upright joint angles with the base at
    the first captured pose of ``model.base_segment``, or at the upright
    base pose when the capture has no such track.

    The captured frames are replayed as recorded, one ``captured.dt`` step
    apart, so the result holds one configuration per captured frame. The
    velocity bounds are constant, so every frame is solved; solver
    non-convergence aborts with the frame index.
    """
    tasks = default_task_stack()
    plan = _Plan(model, tasks)
    dt, n = captured.dt, captured.n_frames
    references = _trajectory_references(plan, _reference_tracks(model, captured, tasks), n, dt)

    q = model.upright_configuration()
    current = (q.base_position, q.base_orientation, q.joint_angles)
    if (base := captured.segments.get(model.base_segment)) is not None:
        current = (base.positions[0], base.quaternions[0], q.joint_angles)
    diagnostics: list[FrameDiagnostics] = []
    P, Q, A = np.empty((n, 3)), np.empty((n, 4)), np.empty((n, model.n_joint_dofs))
    # each frame steps from the configuration of the frame before, in the rows already written
    for k in range(n):
        row = (P[k], Q[k], A[k])
        try:
            _, frame = plan.step(current, references, k, dt, row)
        except SolverError as exc:
            raise SolverError(f"frame {k}: {exc}") from exc
        diagnostics.append(frame)
        current = row

    return RetargetResult(JointConfiguration(P, Q, A), diagnostics)
