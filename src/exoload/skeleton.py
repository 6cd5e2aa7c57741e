"""Scaled rigid-body human model: construction, forward kinematics, whole-body
center of mass, and task-frame Jacobians.

The canonical human model has 19 segments linked by 18 compound joints for 43
actuated revolute DoFs (11 back and neck, 9 per arm including the
sternoclavicular joint, 7 per leg) plus a 6-DoF free-floating pelvis base,
giving 49 velocity coordinates ordered as::

    [base linear velocity (world, m/s),
     base angular velocity (world, rad/s),
     joint rates (rad/s)]

All segment frames are world-aligned in the zero configuration, so the upright
reference pose has every rotation equal to identity. World axes: X forward,
Y left, Z up.

Compound joints are decomposed internally into chains of single-axis revolute
links; intermediate links are massless and the real segment rides on the last
link of its joint. Custom (non-human) models can be assembled from the same
``Segment``/``Joint`` building blocks, which is how the dynamics test oracles
construct single-hinge reductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .anthropometry import AnthropometricProfile, CoefficientTable, default_table
from .errors import ValidationError
from .geometry import (
    IDENTITY_QUAT,
    axis_angle_matrix,
    cross,
    matrix_to_quat,
    quat_multiply,
    quat_normalize,
    quat_to_matrix,
    rotvec_to_quat,
)

QUAT_NORM_TOL = 1e-9

BASE_SEGMENT = "pelvis"

# Canonical-layout geometry constants (ratios applied to table-scaled lengths).
HIP_HALF_WIDTH_RATIO = 0.60  # of pelvis length
CLAVICLE_ANCHOR_HEIGHT_RATIO = 0.95  # of thorax length

AXIS_X = np.array([1.0, 0.0, 0.0])
AXIS_Y = np.array([0.0, 1.0, 0.0])
AXIS_Z = np.array([0.0, 0.0, 1.0])

# Landmark aliases: task frames named after anatomical points resolve to the
# segment whose origin sits at that point.
FRAME_ALIASES: dict[str, str] = {
    "left_shoulder": "left_upper_arm",
    "right_shoulder": "right_upper_arm",
    "left_elbow": "left_forearm",
    "right_elbow": "right_forearm",
    "left_wrist": "left_hand",
    "right_wrist": "right_hand",
}


@dataclass(frozen=True)
class Segment:
    """Rigid body with inertial data expressed in its own frame."""

    name: str
    length: float
    mass: float
    com_offset: np.ndarray  # (3,) m, segment frame
    inertia: np.ndarray  # (3, 3) kg m^2 about the segment CoM, segment frame


@dataclass(frozen=True)
class Dof:
    """One revolute degree of freedom of a joint: its axis and limits."""

    name: str
    axis: np.ndarray  # (3,) unit, in the frame reached by the previous DoF
    lower: float = -np.pi
    upper: float = np.pi


@dataclass(frozen=True)
class Joint:
    """Compound joint: an anchor point in the parent frame plus an ordered
    chain of revolute DoFs."""

    name: str
    parent: str
    child: str
    anchor: np.ndarray  # (3,) m, parent segment frame
    dofs: tuple[Dof, ...]


@dataclass(frozen=True)
class JointConfiguration:
    """Free-floating base pose plus the actuated joint angles: one
    configuration, or a trajectory of T with a leading ``(T,)`` axis whose
    frame k is ``q[k]``. ``q[None]`` is the one-frame trajectory of ``q``."""

    base_position: np.ndarray  # (*batch, 3) m
    base_orientation: np.ndarray  # (*batch, 4) unit quaternion (w, x, y, z)
    joint_angles: np.ndarray  # (*batch, n_dofs) rad

    def __post_init__(self) -> None:
        for name in ("base_position", "base_orientation", "joint_angles"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        P, Q, A = self.base_position, self.base_orientation, self.joint_angles
        if A.ndim not in (1, 2) or P.shape != A.shape[:-1] + (3,) or Q.shape != A.shape[:-1] + (4,):
            raise ValidationError(
                f"configuration shapes disagree: base position {P.shape}, "
                f"base orientation {Q.shape}, joint angles {A.shape}"
            )
        norm = np.linalg.norm(Q, axis=-1).reshape(-1)
        bad = np.flatnonzero(~(np.abs(norm - 1.0) <= QUAT_NORM_TOL))
        if bad.size:
            frame = f"frame {bad[0]}: " if A.ndim == 2 else ""
            raise ValidationError(f"{frame}base orientation quaternion norm {float(norm[bad[0]])!r} is not 1")

    def __eq__(self, other: object) -> bool:
        """Equal shapes and equal values in all three arrays."""
        if not isinstance(other, JointConfiguration):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("base_position", "base_orientation", "joint_angles")
        )

    def __len__(self) -> int:
        if self.joint_angles.ndim == 1:
            raise TypeError("a single configuration has no length")
        return len(self.joint_angles)

    def __getitem__(self, k) -> JointConfiguration:
        return JointConfiguration(self.base_position[k], self.base_orientation[k], self.joint_angles[k])

    def __iter__(self):
        return (self[k] for k in range(len(self)))


@dataclass(frozen=True)
class Pose:
    """A world position and world-from-segment rotation."""

    position: np.ndarray  # (3,)
    rotation: np.ndarray  # (3, 3) world-from-segment

    @property
    def quaternion(self) -> np.ndarray:
        return matrix_to_quat(self.rotation)


class SkeletonModel:
    """Immutable kinematic tree. Safe to share across threads; all evaluation
    functions are pure in (model, configuration)."""

    def __init__(
        self,
        segments: Iterable[Segment],
        joints: Iterable[Joint],
        base_segment: str = BASE_SEGMENT,
        frame_aliases: Mapping[str, str] | None = None,
        reference_base_height: float = 0.0,
    ):
        self.segments: tuple[Segment, ...] = tuple(segments)
        self.joints: tuple[Joint, ...] = tuple(joints)
        self.base_segment = base_segment
        self.frame_aliases = dict(frame_aliases or {})
        self.reference_base_height = reference_base_height

        self.segment_index = {s.name: i for i, s in enumerate(self.segments)}
        if len(self.segment_index) != len(self.segments):
            raise ValidationError("duplicate segment names")
        if base_segment not in self.segment_index:
            raise ValidationError(f"base segment {base_segment!r} not among segments")

        self._build_chain()
        self._validate_tree()

    # -- structure -----------------------------------------------------

    def _build_chain(self) -> None:
        n = sum(len(j.dofs) for j in self.joints)
        self.n_joint_dofs = n
        self.n_velocity = 6 + n

        # frames are indexed by row: row 0 is the base, row 1 + i is link i
        self._parent_row: list[int] = []
        self._dof_offset = np.zeros((n, 3))  # in parent link frame
        self._dof_axis = np.zeros((n, 3))
        self.dof_names: list[str] = []
        self.dof_lower = np.zeros(n)
        self.dof_upper = np.zeros(n)
        self._row_segment = np.full(1 + n, -1, dtype=int)  # segment carried by row
        self._row_segment[0] = self.segment_index[self.base_segment]
        self._segment_row: dict[str, int] = {self.base_segment: 0}

        k = 0
        for joint in self.joints:
            if joint.parent not in self._segment_row:
                raise ValidationError(
                    f"joint {joint.name!r}: parent segment {joint.parent!r} not yet "
                    "attached (joints must be listed parents-first)"
                )
            if joint.child in self._segment_row:
                raise ValidationError(f"segment {joint.child!r} attached twice")
            parent_row = self._segment_row[joint.parent]
            for i, dof in enumerate(joint.dofs):
                self._parent_row.append(parent_row)
                self._dof_offset[k] = joint.anchor if i == 0 else 0.0
                axis = np.asarray(dof.axis, dtype=float)
                norm = float(np.linalg.norm(axis))
                if abs(norm - 1.0) > 1e-9:
                    raise ValidationError(f"dof {dof.name!r}: axis must be unit length")
                self._dof_axis[k] = axis
                self.dof_names.append(dof.name)
                self.dof_lower[k] = dof.lower
                self.dof_upper[k] = dof.upper
                k += 1
                parent_row = k
            self._row_segment[k] = self.segment_index[joint.child]
            self._segment_row[joint.child] = k

        self.dof_index = {name: i for i, name in enumerate(self.dof_names)}
        if len(self.dof_index) != n:
            raise ValidationError("duplicate DoF names")

        # ancestor masks: dofs on the path base -> row, inclusive; the base
        # row has none
        self._row_ancestors = np.zeros((1 + n, n), dtype=bool)
        for i, p in enumerate(self._parent_row):
            self._row_ancestors[1 + i] = self._row_ancestors[p]
            self._row_ancestors[1 + i, i] = True

    def _validate_tree(self) -> None:
        attached = set(self._segment_row)
        missing = [s.name for s in self.segments if s.name not in attached]
        if missing:
            raise ValidationError(f"segments not connected to the tree: {missing}")
        for seg in self.segments:
            if seg.mass < 0.0:
                raise ValidationError(f"segment {seg.name!r} has negative mass")
            inertia = np.asarray(seg.inertia, dtype=float)
            if inertia.shape != (3, 3) or not np.allclose(inertia, inertia.T, atol=1e-12):
                raise ValidationError(f"segment {seg.name!r}: inertia must be symmetric 3x3")
            if seg.mass > 0.0 and np.any(np.linalg.eigvalsh(inertia) <= 0.0):
                raise ValidationError(f"segment {seg.name!r}: inertia must be positive definite")
        self.total_mass = float(sum(s.mass for s in self.segments))
        self._masses = np.array([s.mass for s in self.segments])
        self._com_offsets = np.array([s.com_offset for s in self.segments], dtype=float)
        # row carrying each segment, and the subtree of each link as
        # segment-mass weights: row i holds m_s for every segment that link i
        # moves, so subtree masses and mass-weighted subtree CoMs are one
        # product each
        self._segment_rows = np.array([self._segment_row[s.name] for s in self.segments])
        weights = self._row_ancestors[self._segment_rows] * self._masses[:, None]
        self._subtree_weights = np.ascontiguousarray(weights.T)
        self._subtree_mass = self._subtree_weights.sum(axis=1)

    def resolve_frame(self, frame: str) -> str:
        name = self.frame_aliases.get(frame, frame)
        if name != "com" and name not in self.segment_index:
            raise ValidationError(f"unknown frame {frame!r}")
        return name

    def segment(self, name: str) -> Segment:
        return self.segments[self.segment_index[name]]

    def upright_configuration(self) -> JointConfiguration:
        return JointConfiguration(
            base_position=np.array([0.0, 0.0, self.reference_base_height]),
            base_orientation=IDENTITY_QUAT.copy(),
            joint_angles=np.zeros(self.n_joint_dofs),
        )


class FrameSweep:
    """Forward kinematics of one model into buffers made once, for joint
    angles of one batch shape: ``(n_links,)`` for one configuration,
    ``(T, n_links)`` for a trajectory. Each call overwrites ``frames``, the
    world frames ``[rotation | origin | joint axis]`` of the base (row 0,
    no axis) and of every link (row 1 + i), ``(1 + n_links, *batch, 3, 5)``,
    and returns it.

    Each link's frame in its parent's, ``[joint rotation | anchor | axis]``,
    has its anchor and axis columns written once; a call writes every joint
    rotation into it with one ``axis_angle_matrix`` call, then carries each
    link into the world parents first, through views bound once: one
    product with its parent's world frame, covering the whole batch."""

    def __init__(self, model: SkeletonModel, batch: tuple[int, ...] = ()):
        n = model.n_joint_dofs
        self.frames = frames = np.empty((1 + n, *batch, 3, 5))
        frames[0, ..., 4] = 0.0
        self._local = local = np.empty((n, *batch, 3, 5))
        links = (n,) + (1,) * len(batch) + (3,)
        local[..., 3] = model._dof_offset.reshape(links)
        local[..., 4] = model._dof_axis.reshape(links)
        rotation, origin = frames[..., :3], frames[..., 3]
        self._links = [
            (rotation[parent], local[row - 1], frames[row], origin[row], origin[parent])
            for row, parent in enumerate(model._parent_row, start=1)
        ]

    def __call__(
        self, base_position: np.ndarray, base_rotation: np.ndarray, angles: np.ndarray
    ) -> np.ndarray:
        """The frames of base poses ``(*batch, 3)`` and ``(*batch, 3, 3)``
        and joint angles ``(*batch, n_links)``."""
        frames, local = self.frames, self._local
        frames[0, ..., :3] = base_rotation
        frames[0, ..., 3] = base_position
        # the axis column of a link's local frame is the axis of its joint rotation
        axis_angle_matrix(local[..., 4], angles.T, out=local[..., :3])
        for parent_rotation, link, frame, origin, parent_origin in self._links:
            np.matmul(parent_rotation, link, frame)
            origin += parent_origin
        return frames


def _segment_coms(model: SkeletonModel, frames: np.ndarray) -> np.ndarray:
    """World CoM of every segment in model order, ``(n_segments, 3)``, from
    the frames of one configuration."""
    frames = frames[model._segment_rows]
    offsets = (frames[:, :, :3] @ model._com_offsets[:, :, None])[:, :, 0]
    return frames[:, :, 3] + offsets


def _whole_body_com(model: SkeletonModel, segment_coms: np.ndarray) -> np.ndarray:
    return model._masses @ segment_coms / model.total_mass


class KinematicState:
    """World frames of one configuration, or of every frame of a ``(T,)``
    trajectory, kept as ``configuration``: ``frames`` is the
    ``(1 + n_links, *batch, 3, 5)`` array of :class:`FrameSweep`, the base
    in row 0 and link i in row 1 + i. ``n_frames`` is T, or None for one
    configuration. Pose, CoM and Jacobian queries take a one-configuration
    state and compute from its frames on each call.

    Holds per-evaluation data only; the model stays immutable and shared."""

    def __init__(self, model: SkeletonModel, q: JointConfiguration):
        self.model = model
        angles = q.joint_angles
        if angles.shape[-1] != model.n_joint_dofs or not angles.size:
            raise ValidationError(
                f"expected {model.n_joint_dofs} joint angles a frame and at least one frame, "
                f"got joint angles of shape {angles.shape}"
            )
        self.n_frames = len(q) if angles.ndim == 2 else None
        self.configuration = q
        base_rotation = quat_to_matrix(q.base_orientation)
        self.frames = FrameSweep(model, angles.shape[:-1])(q.base_position, base_rotation, angles)

    def _require_one_frame(self, query: str) -> None:
        if self.n_frames is not None:
            raise ValidationError(
                f"{query} takes the state of one configuration, not of a {self.n_frames}-frame trajectory"
            )

    def segment_rotation(self, name: str) -> np.ndarray:
        """World-from-segment rotation of one segment, ``(*batch, 3, 3)``."""
        return self.frames[self.model._segment_row[name], ..., :3]

    def segment_pose(self, name: str) -> Pose:
        self._require_one_frame("segment_pose")
        frame = self.frames[self.model._segment_row[name]]
        return Pose(frame[:, 3].copy(), frame[:, :3].copy())

    def segment_coms(self) -> np.ndarray:
        """World CoM of every segment in model order, (n_segments, 3)."""
        self._require_one_frame("segment_coms")
        return _segment_coms(self.model, self.frames)

    def com(self) -> np.ndarray:
        return _whole_body_com(self.model, self.segment_coms())

    def jacobian(self, frame: str, task_kind: str = "both") -> np.ndarray:
        """World task Jacobian of a frame, the one-task case of
        :class:`TaskRowLayout`. Rows: linear velocity (position or both),
        then angular velocity (orientation or both)."""
        self._require_one_frame("a task Jacobian")
        return TaskRowLayout(self.model, [(frame, task_kind)]).fill(self.frames)[0]


TASK_KINDS = ("position", "orientation", "both")

# base angular columns of a position row (a point or the CoM) are -[r]x for
# the position's offset r from the base origin: six off-diagonal (row, column)
# entries, each +/- one component of r
_SKEW_ROW = np.array([0, 0, 1, 1, 2, 2])
_SKEW_COL = np.array([1, 2, 0, 2, 0, 1])
_SKEW_SRC = np.array([2, 1, 2, 0, 1, 0])
_SKEW_SIGN = np.array([1.0, -1.0, -1.0, 1.0, 1.0, -1.0])


def _joint_cells(
    model: SkeletonModel, blocks: np.ndarray, rows: np.ndarray
) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The (task, ancestor link) pairs of tasks riding on the frames of
    ``rows`` (row 0, the base, has none), and the flat Jacobian index of
    each pair's joint column in the three rows of the task's block."""
    task, link = np.nonzero(model._row_ancestors[rows])
    at = (3 * blocks[task, None] + np.arange(3)) * model.n_velocity + 6 + link[:, None]
    return (task, link), at.ravel()


class TaskRowLayout:
    """Where the world Jacobian rows of a list of ``(frame, kind)`` tasks go,
    built once per (model, tasks). In list order, each task takes a 3-row
    block for its position, then one for its orientation; a ``com`` task
    has a position block only. ``position_tasks`` and ``orientation_tasks``
    are the list indices of the tasks with those blocks, in block order,
    ``position_blocks`` and ``orientation_blocks`` their blocks, and
    ``orientation_rows`` the kinematic-frame rows the orientation tasks
    ride on."""

    def __init__(self, model: SkeletonModel, tasks: Sequence[tuple[str, str]]):
        self.model = model
        pos_tasks, pos_rows, pos_blocks, ori_tasks, ori_rows, ori_blocks = [], [], [], [], [], []
        is_com = []
        for i, (frame, kind) in enumerate(tasks):
            name = model.resolve_frame(frame)
            if name == "com" and kind != "position":
                raise ValidationError("the CoM frame only supports position tasks")
            if kind not in TASK_KINDS:
                raise ValidationError(f"unknown task kind {kind!r}")
            # the task's row of the kinematic frames; a CoM task's is a placeholder
            row = 0 if name == "com" else model._segment_row[name]
            if kind != "orientation":
                is_com.append(name == "com")
                pos_tasks.append(i)
                pos_rows.append(row)
                pos_blocks.append(len(pos_blocks) + len(ori_blocks))
            if kind != "position":
                ori_tasks.append(i)
                ori_rows.append(row)
                ori_blocks.append(len(pos_blocks) + len(ori_blocks))
        self.n_rows = 3 * (len(pos_blocks) + len(ori_blocks))
        self.position_tasks = np.array(pos_tasks, dtype=int)
        self.orientation_tasks = np.array(ori_tasks, dtype=int)
        self.position_blocks = np.array(pos_blocks, dtype=int)
        self.orientation_blocks = np.array(ori_blocks, dtype=int)
        self.orientation_rows = np.array(ori_rows, dtype=int)
        self._pos_rows = np.array(pos_rows, dtype=int)
        is_com = np.array(is_com, dtype=bool)
        self._com, self._points = np.flatnonzero(is_com), np.flatnonzero(~is_com)

        # constant entries: the identity blocks of the base columns; every
        # other entry is zero or written each frame at the flat indices below
        nv = model.n_velocity
        self._template = np.zeros((self.n_rows, nv))
        blocks = self._template.reshape(-1, 3, nv)
        blocks[self.position_blocks, :, 0:3] = np.eye(3)
        blocks[self.orientation_blocks, :, 3:6] = np.eye(3)
        skew_rows = 3 * self.position_blocks[:, None] + _SKEW_ROW
        self._skew_at = (skew_rows * nv + 3 + _SKEW_COL).ravel()
        self._point_pairs, self._point_at = _joint_cells(
            model, self.position_blocks[self._points], self._pos_rows[self._points]
        )
        (_, self._ori_links), self._ori_at = _joint_cells(
            model, self.orientation_blocks, self.orientation_rows
        )

    def new_jacobian(self) -> np.ndarray:
        """A Jacobian for :meth:`fill` to write into: a copy of the template,
        whose entries no fill writes."""
        return self._template.copy()

    def fill(self, frames: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Task Jacobian ``(n_rows, n_velocity)`` from the world frames
        ``(1 + n_links, 3, 5)`` of one configuration, and the world
        positions ``(position tasks, 3)`` of the position tasks. The
        Jacobian goes into ``out`` when it is given, an array of this
        layout's :meth:`new_jacobian`: every fill writes the same entries,
        so the rest keep the template's values.

        A point's joint column i is axis_i x (point - x_i) over its frame's
        ancestor links, and an orientation's is axis_i. The CoM's is
        axis_i x (sum of m_s c_s over the segments link i moves, minus their
        mass times the link origin x_i) / M, one pass over the subtrees
        (Orin & Goswami 2008)."""
        model = self.model
        J = self.new_jacobian() if out is None else out
        flat = J.reshape(-1)
        link_position, axis_world = frames[1:, :, 3], frames[1:, :, 4]
        positions = frames[self._pos_rows, :, 3]
        if self._com.size:
            coms = _segment_coms(model, frames)
            positions[self._com] = _whole_body_com(model, coms)
            moments = model._subtree_weights @ coms - model._subtree_mass[:, None] * link_position
            blocks = J.reshape(-1, 3, model.n_velocity)
            blocks[self.position_blocks[self._com], :, 6:] = cross(axis_world, moments).T / model.total_mass
        flat[self._skew_at] = ((positions - frames[0, :, 3])[:, _SKEW_SRC] * _SKEW_SIGN).ravel()
        task, link = self._point_pairs
        arms = positions[self._points][task] - link_position[link]
        flat[self._point_at] = cross(axis_world[link], arms).ravel()
        flat[self._ori_at] = axis_world[self._ori_links].ravel()
        return J, positions


def forward_kinematics(
    model: SkeletonModel, q: JointConfiguration
) -> tuple[dict[str, Pose], np.ndarray]:
    """World pose of every segment plus the whole-body CoM (mass-weighted
    mean of segment CoM positions)."""
    state = KinematicState(model, q)
    poses = {seg.name: state.segment_pose(seg.name) for seg in model.segments}
    return poses, state.com()


def task_jacobian(
    model: SkeletonModel, q: JointConfiguration, frame: str, task_kind: str = "both"
) -> np.ndarray:
    """Maps the 49 generalized velocities to world linear/angular velocity of
    ``frame`` (rows 3 or 6)."""
    return KinematicState(model, q).jacobian(frame, task_kind)


def integrate_configuration(
    model: SkeletonModel, q: JointConfiguration, u: np.ndarray, dt: float
) -> JointConfiguration:
    """First-order integration of a generalized velocity; base orientation via
    the quaternion exponential of the world angular velocity."""
    u = np.asarray(u, dtype=float)
    out = (np.empty(3), np.empty(4), np.empty(model.n_joint_dofs))
    integrate_arrays(q.base_position, q.base_orientation, q.joint_angles, u, dt, out)
    return JointConfiguration(*out)


def integrate_arrays(
    base_position: np.ndarray,
    base_orientation: np.ndarray,
    joint_angles: np.ndarray,
    u: np.ndarray,
    dt: float,
    out: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> None:
    """:func:`integrate_configuration` on the three arrays of one
    configuration, written into the three arrays of ``out``."""
    position, orientation, angles = out
    np.add(base_position, u[0:3] * dt, out=position)
    orientation[...] = quat_normalize(quat_multiply(rotvec_to_quat(u[3:6] * dt), base_orientation))
    np.add(joint_angles, u[6:] * dt, out=angles)


# -- canonical human model -------------------------------------------------


def _segment_from_table(
    name: str,
    height: float,
    mass: float,
    table: CoefficientTable,
    axis: np.ndarray,
) -> Segment:
    c = table.segments[name]
    length = c.length_fraction * height
    seg_mass = c.mass_fraction * mass
    com = c.com_fraction * length * axis
    gyr = np.asarray(c.gyration_fractions) * length
    inertia = np.diag(seg_mass * gyr**2)
    return Segment(name=name, length=length, mass=seg_mass, com_offset=com, inertia=inertia)


def _ball(
    name: str,
    limit_flex: float = np.pi,
    limit_other: float = np.pi,
    flexion_axis: np.ndarray = AXIS_Y,
) -> tuple[Dof, ...]:
    return (
        Dof(f"{name}_flexion", flexion_axis, -limit_flex, limit_flex),
        Dof(f"{name}_lateral", AXIS_X, -limit_other, limit_other),
        Dof(f"{name}_axial", AXIS_Z, -limit_other, limit_other),
    )


def build_model(
    profile: AnthropometricProfile, table: CoefficientTable | None = None
) -> SkeletonModel:
    """Scale the canonical 19-segment, 43-DoF model to a subject profile.

    Segment length = table fraction x height; mass = fraction x body mass;
    inertia is diagonal in the segment principal frame, from radii of gyration
    scaled by segment length. ``table`` defaults to the bundled one.
    """
    if table is None:
        table = default_table()
    H, M = profile.height_m, profile.mass_kg

    up, down, fwd = AXIS_Z, -AXIS_Z, AXIS_X
    left, right = AXIS_Y, -AXIS_Y
    axis_of = {
        "pelvis": up, "abdomen": up, "thorax": up, "neck": up, "head": up,
        "left_clavicle": left, "right_clavicle": right,
        "left_upper_arm": down, "right_upper_arm": down,
        "left_forearm": down, "right_forearm": down,
        "left_hand": down, "right_hand": down,
        "left_thigh": down, "right_thigh": down,
        "left_shank": down, "right_shank": down,
        "left_foot": fwd, "right_foot": fwd,
    }
    missing = [name for name in axis_of if name not in table.segments]
    unknown = [name for name in table.segments if name not in axis_of]
    if missing or unknown:
        raise ValidationError(
            f"coefficient table {table.table_id!r} must hold exactly the model's "
            f"{len(axis_of)} segments: missing {missing}, unknown {unknown}"
        )
    segments = {
        name: _segment_from_table(name, H, M, table, axis) for name, axis in axis_of.items()
    }
    L = {name: seg.length for name, seg in segments.items()}

    def v(x: float, y: float, z: float) -> np.ndarray:
        return np.array([x, y, z])

    half_pi = np.pi / 2
    joints = [
        Joint("lumbar", "pelvis", "abdomen", v(0, 0, L["pelvis"]),
              _ball("lumbar", half_pi, half_pi)),
        Joint("thoracic", "abdomen", "thorax", v(0, 0, L["abdomen"]),
              _ball("thoracic", half_pi, half_pi)),
        Joint("lower_neck", "thorax", "neck", v(0, 0, L["thorax"]),
              (Dof("lower_neck_flexion", AXIS_Y, -half_pi, half_pi),
               Dof("lower_neck_lateral", AXIS_X, -half_pi, half_pi))),
        Joint("upper_neck", "neck", "head", v(0, 0, L["neck"]),
              _ball("upper_neck", half_pi, half_pi)),
    ]
    # hanging limbs use a forward-positive flexion axis (-Y); the trunk keeps
    # +Y so forward bending is positive, matching the reported angle series
    clav_z = CLAVICLE_ANCHOR_HEIGHT_RATIO * L["thorax"]
    for side, sgn in (("right", -1.0), ("left", 1.0)):
        joints += [
            Joint(f"{side}_sternoclavicular", "thorax", f"{side}_clavicle", v(0, 0, clav_z),
                  (Dof(f"{side}_sternoclavicular_protraction", AXIS_Z, -half_pi, half_pi),
                   Dof(f"{side}_sternoclavicular_elevation", AXIS_X, -half_pi, half_pi))),
            Joint(f"{side}_shoulder", f"{side}_clavicle", f"{side}_upper_arm",
                  v(0, sgn * L[f"{side}_clavicle"], 0),
                  _ball(f"{side}_shoulder", flexion_axis=-AXIS_Y)),
            Joint(f"{side}_elbow", f"{side}_upper_arm", f"{side}_forearm",
                  v(0, 0, -L[f"{side}_upper_arm"]),
                  (Dof(f"{side}_elbow_flexion", -AXIS_Y, -2.7, 2.7),
                   Dof(f"{side}_elbow_pronation", AXIS_Z, -half_pi, half_pi))),
            Joint(f"{side}_wrist", f"{side}_forearm", f"{side}_hand",
                  v(0, 0, -L[f"{side}_forearm"]),
                  (Dof(f"{side}_wrist_flexion", -AXIS_Y, -half_pi, half_pi),
                   Dof(f"{side}_wrist_deviation", AXIS_X, -half_pi, half_pi))),
        ]
    hip_y = HIP_HALF_WIDTH_RATIO * L["pelvis"]
    for side, sgn in (("right", -1.0), ("left", 1.0)):
        joints += [
            Joint(f"{side}_hip", "pelvis", f"{side}_thigh", v(0, sgn * hip_y, 0),
                  _ball(f"{side}_hip", flexion_axis=-AXIS_Y)),
            Joint(f"{side}_knee", f"{side}_thigh", f"{side}_shank",
                  v(0, 0, -L[f"{side}_thigh"]),
                  (Dof(f"{side}_knee_flexion", AXIS_Y, -2.7, 2.7),)),
            Joint(f"{side}_ankle", f"{side}_shank", f"{side}_foot",
                  v(0, 0, -L[f"{side}_shank"]),
                  _ball(f"{side}_ankle", half_pi, half_pi)),
        ]

    return SkeletonModel(
        segments=segments.values(),
        joints=joints,
        base_segment="pelvis",
        frame_aliases=FRAME_ALIASES,
        reference_base_height=L["right_thigh"] + L["right_shank"],
    )


LUMBAR_FLEXION_DOF = "lumbar_flexion"


def lumbar_flexion_index(model: SkeletonModel) -> int:
    """Canonical DoF index of the sagittal L5/S1 rotation."""
    return model.dof_index[LUMBAR_FLEXION_DOF]
