import inspect
from dataclasses import fields

import numpy as np
import pytest

from helpers import (
    capture_from_configurations,
    default_model,
    moving_base_trajectory,
    reference_allocating_retarget,
    reference_frame_references,
    reference_retarget,
    reference_task_rows,
    reference_two_level_step,
    sinusoid_trajectory,
    tracked_dof_indices,
)

import exoload
import exoload.io as eio
from exoload import retarget
from exoload.errors import FrameError, ValidationError
from exoload.geometry import (
    IDENTITY_QUAT,
    quat_multiply,
    quat_normalize,
    quat_to_matrix,
    quat_to_rotvec,
)
from exoload.qp import solve_hierarchy, solve_ls_qp
from exoload.retarget import (
    CapturedTrajectory,
    FrameDiagnostics,
    Reference,
    SegmentTrack,
    TaskSpec,
    _Plan,
    _estimate_com_track,
    _frame_reference_arrays,
    _reference_tracks,
    _trajectory_references,
    default_task_stack,
    retarget_trajectory,
    solve_frame,
)
from exoload.skeleton import JointConfiguration, KinematicState


def current_pose_references(model, q, tasks):
    state = KinematicState(model, q)
    refs = {}
    for task in tasks:
        name = model.resolve_frame(task.frame)
        if name == "com":
            refs[task.frame] = Reference(position=state.com(), rotation=np.eye(3))
        else:
            pose = state.segment_pose(name)
            refs[task.frame] = Reference(position=pose.position, rotation=pose.rotation)
    return refs


def test_default_stack_shape():
    tasks = default_task_stack()
    level1 = [t for t in tasks if t.priority == 1]
    level2 = [t for t in tasks if t.priority == 2]
    assert len(level1) == 3
    assert len(level2) == 9
    model = default_model()
    for task in tasks:
        assert model.resolve_frame(task.frame) in set(s.name for s in model.segments) | {"com"}
    assert all([f.name for f in fields(t)] == ["frame", "kind", "priority"] for t in tasks)


def test_task_spec_validation():
    with pytest.raises(ValidationError):
        TaskSpec("thorax", "both", 3)
    with pytest.raises(ValidationError):
        TaskSpec("thorax", "pose", 1)


def test_fixed_point_of_feedback_law(model):
    q = model.upright_configuration()
    tasks = default_task_stack()
    sol = solve_frame(model, q, tasks, current_pose_references(model, q, tasks), 1.0 / 240.0)
    assert np.max(np.abs(sol.velocity)) <= 1e-8


def test_reachable_wrist_target_converges(model):
    """A level-2 wrist target generated by FK of a feasible configuration is
    reached to sub-micrometer residual when iterated to convergence."""
    target_angles = np.zeros(model.n_joint_dofs)
    target_angles[model.dof_index["right_shoulder_flexion"]] = 0.5
    target_angles[model.dof_index["right_elbow_flexion"]] = 0.4
    base = model.upright_configuration()
    q_target = JointConfiguration(base.base_position, base.base_orientation, target_angles)
    tasks = default_task_stack()
    refs = current_pose_references(model, q_target, tasks)

    q = base
    dt = 1.0 / 240.0
    for _ in range(2000):
        sol = solve_frame(model, q, tasks, refs, dt)
        q = sol.next_configuration
    wrist = KinematicState(model, q).segment_pose("right_hand").position
    target = KinematicState(model, q_target).segment_pose("right_hand").position
    assert np.linalg.norm(wrist - target) < 1e-6


def test_strict_priority_under_conflict(model):
    """A level-2 reference conflicting with the level-1 feet leaves the level-1
    residual identical (within solver tolerance) to a solve without any
    level-2 task."""
    q = model.upright_configuration()
    tasks = default_task_stack()
    refs = current_pose_references(model, q, tasks)
    # drag the pelvis reference far away: conflicts with feet + CoM
    refs["pelvis"] = Reference(
        position=refs["pelvis"].position + np.array([1.5, 0.0, 0.3]),
        rotation=refs["pelvis"].rotation,
    )
    refs["right_wrist"] = Reference(
        position=refs["right_wrist"].position + np.array([0.0, -2.0, 0.0]),
        rotation=np.eye(3),
    )
    level1_only = [t for t in tasks if t.priority == 1]
    sol_full = solve_frame(model, q, tasks, refs, 1.0 / 240.0)
    sol_l1 = solve_frame(model, q, level1_only, refs, 1.0 / 240.0)
    assert abs(sol_full.level1_residual - sol_l1.level1_residual) <= 1e-8


def test_velocity_bounds_respected_and_reported(model, monkeypatch):
    monkeypatch.setattr(retarget, "VELOCITY_BOUND", 0.05)
    q = model.upright_configuration()
    tasks = default_task_stack()
    refs = current_pose_references(model, q, tasks)
    refs["right_wrist"] = Reference(
        position=refs["right_wrist"].position + np.array([2.0, 0.0, 1.0]),
        rotation=np.eye(3),
    )
    sol = solve_frame(model, q, tasks, refs, 1.0 / 240.0)
    assert np.max(np.abs(sol.velocity)) <= 0.05 + 1e-12
    assert sol.diagnostics.active_constraints  # some coordinate saturates


def test_solver_gain_applies_to_an_explicit_stack(model, monkeypatch):
    """With zero feedforward and no active bound, the velocity is linear in
    the feedback gain: doubling ``GAIN`` doubles it."""
    q = model.upright_configuration()
    tasks = default_task_stack()
    refs = current_pose_references(model, q, tasks)
    offset = np.array([0.003, -0.002, 0.004])
    refs = {
        frame: Reference(position=ref.position + offset, rotation=ref.rotation)
        for frame, ref in refs.items()
    }
    slow = solve_frame(model, q, tasks, refs, 1 / 240).velocity
    monkeypatch.setattr(retarget, "GAIN", 2.0 * retarget.GAIN)
    fast = solve_frame(model, q, tasks, refs, 1 / 240).velocity
    assert np.max(np.abs(slow)) > 1e-3
    assert np.max(np.abs(fast - 2.0 * slow)) <= 1e-12 * np.max(np.abs(fast))


def test_retarget_stationary_input(model):
    """Constant input equal to the FK of the start configuration keeps the
    output configuration constant."""
    q0 = model.upright_configuration()
    captured = capture_from_configurations(model, [q0] * 100, 240.0)
    result = retarget_trajectory(model, captured)
    assert result.n_frames == 100
    for k in range(1, 100):
        drift = np.max(
            np.abs(result.configurations[k].joint_angles - result.configurations[k - 1].joint_angles)
        )
        assert drift <= 1e-6


def test_round_trip_short(model):
    truth = sinusoid_trajectory(model, 2.0)
    captured = capture_from_configurations(model, truth, 240.0)
    result = retarget_trajectory(model, captured)
    assert result.n_frames == len(truth)
    tracked = tracked_dof_indices(model)
    err = np.array(
        [
            result.configurations[k].joint_angles[tracked] - truth[k].joint_angles[tracked]
            for k in range(len(truth))
        ]
    )
    rms = float(np.degrees(np.sqrt(np.mean(err**2))))
    assert rms <= 2.0


def test_feet_follow_a_moving_capture(model):
    """The default stack tracks the captured feet: on a capture whose base
    translates and yaws, the feet stay within 2 mm of the captured ones, no
    joint leaves its limits and the joints stay within 2 degrees RMS of the
    generating trajectory."""
    truth = moving_base_trajectory(model, 1.0)
    captured = capture_from_configurations(model, truth, 240.0)
    result = retarget_trajectory(model, captured)
    for k, q in enumerate(result.configurations):
        state = KinematicState(model, q)
        for foot in ("left_foot", "right_foot"):
            gap = state.segment_pose(foot).position - captured.segments[foot].positions[k]
            assert np.linalg.norm(gap) <= 2e-3, (k, foot)
    angles = result.configurations.joint_angles
    assert np.all(angles >= model.dof_lower) and np.all(angles <= model.dof_upper)
    err = angles - truth.joint_angles
    assert float(np.degrees(np.sqrt(np.mean(err**2)))) < 2.0


def test_retarget_deterministic(model):
    truth = sinusoid_trajectory(model, 0.5)
    captured = capture_from_configurations(model, truth, 240.0)
    r1 = retarget_trajectory(model, captured)
    r2 = retarget_trajectory(model, captured)
    for a, b in zip(r1.configurations, r2.configurations):
        assert np.array_equal(a.joint_angles, b.joint_angles)
        assert np.array_equal(a.base_position, b.base_position)


def test_missing_reference_segment_is_an_error(model):
    q0 = model.upright_configuration()
    captured = capture_from_configurations(model, [q0] * 5, 240.0)
    del captured.segments["thorax"]
    with pytest.raises(ValidationError, match="thorax"):
        retarget_trajectory(model, captured)


def test_com_fallback_when_track_missing(model):
    q0 = model.upright_configuration()
    captured = capture_from_configurations(model, [q0] * 10, 240.0, include_com=False)
    result = retarget_trajectory(model, captured)
    assert result.n_frames == 10


def test_batched_com_fallback_matches_per_frame_loop(model):
    configurations = moving_base_trajectory(model, 0.5)
    captured = capture_from_configurations(model, configurations, 240.0, include_com=False)
    names = [s.name for s in model.segments if s.name in captured.segments]
    expected = np.zeros((captured.n_frames, 3))
    for name in names:
        segment, track = model.segment(name), captured.segments[name]
        for k in range(captured.n_frames):
            R = quat_to_matrix(track.quaternions[k])
            expected[k] += segment.mass * (track.positions[k] + R @ segment.com_offset)
    expected /= sum(model.segment(name).mass for name in names)
    track = _estimate_com_track(model, captured)
    assert np.max(np.abs(track.positions - expected)) <= 1e-12


def test_trajectory_references_match_per_frame_formulas(model):
    configurations = moving_base_trajectory(model, 0.5)
    captured = capture_from_configurations(model, configurations, 240.0)
    tasks = default_task_stack()
    tracks = _reference_tracks(model, captured, tasks)
    dt = 1.0 / 240.0
    n = captured.n_frames
    plan = _Plan(model, tasks)
    refs = _trajectory_references(plan, tracks, n, dt)
    assert refs.positions.shape == refs.linear_velocities.shape == (n, len(plan.position_tasks), 3)
    assert refs.rotations.shape == (n, len(plan.orientation_tasks), 3, 3)
    assert refs.angular_velocities.shape == (n, len(plan.orientation_tasks), 3)
    covered = set(plan.position_tasks) | set(plan.orientation_tasks)
    assert covered == set(tasks)
    for k in range(n):
        prev = max(k - 1, 0)
        for j, task in enumerate(plan.position_tasks):
            track = tracks[task.frame]
            assert np.array_equal(refs.positions[k, j], track.positions[k])
            velocity = (track.positions[k] - track.positions[prev]) / dt
            assert np.array_equal(refs.linear_velocities[k, j], velocity)
        for j, task in enumerate(plan.orientation_tasks):
            track = tracks[task.frame]
            qa, qb = track.quaternions[prev], track.quaternions[k]
            conj = qa * np.array([1.0, -1.0, -1.0, -1.0])
            angular = quat_to_rotvec(quat_normalize(quat_multiply(qb, conj))) / dt
            assert np.max(np.abs(refs.rotations[k, j] - quat_to_matrix(qb))) <= 1e-15
            assert np.max(np.abs(refs.angular_velocities[k, j] - angular)) <= 1e-12


# level-2 first, an orientation-only task, a position task on the base
# segment, a CoM task and a landmark alias
CUSTOM_STACK = [
    TaskSpec("head", "orientation", 2),
    TaskSpec("pelvis", "position", 1),
    TaskSpec("right_wrist", "position", 2),
    TaskSpec("com", "position", 1),
    TaskSpec("left_foot", "both", 1),
    TaskSpec("thorax", "both", 2),
    TaskSpec("left_hand", "orientation", 1),
]


@pytest.mark.parametrize("stack", ["default", "custom"])
def test_plan_rows_match_per_task_assembly(model, monkeypatch, stack):
    """The one-pass rows of a frame equal the per-task Jacobians and velocity
    references stacked per level, on a moving base with the references a
    few frames ahead of the configuration, at a gain other than the
    default."""
    tasks = default_task_stack() if stack == "default" else CUSTOM_STACK
    gain = 7.0
    configurations = moving_base_trajectory(model, 0.5)
    captured = capture_from_configurations(model, configurations, 240.0)
    monkeypatch.setattr(retarget, "GAIN", gain)
    plan = _Plan(model, tasks)
    tracks = _reference_tracks(model, captured, tasks)
    refs = _trajectory_references(plan, tracks, captured.n_frames, 1 / 240)
    per_frame = reference_frame_references(model, captured, tasks)
    for k in range(0, captured.n_frames - 5, 11):
        state = KinematicState(model, configurations[k])
        J, v = plan.rows(state.frames, refs, k + 5)
        J1, v1, J2, v2 = reference_task_rows(state, tasks, per_frame[k + 5], gain)
        m1 = plan.n_level1_rows
        assert J.shape == (len(v1) + len(v2), model.n_velocity) and m1 == len(v1)
        assert np.max(np.abs(J[:m1] - J1)) <= 1e-12 and np.max(np.abs(J[m1:] - J2)) <= 1e-12
        assert np.max(np.abs(v[:m1] - v1)) <= 1e-12 and np.max(np.abs(v[m1:] - v2)) <= 1e-12


def test_plan_orders_levels_and_rejects_bad_stacks(model):
    plan = _Plan(model, CUSTOM_STACK)
    # level 1 first, stack order within a level
    assert [task.frame for task in plan.position_tasks] == [
        "pelvis", "com", "left_foot", "right_wrist", "thorax"
    ]
    assert [task.frame for task in plan.orientation_tasks] == [
        "left_foot", "left_hand", "head", "thorax"
    ]
    assert plan.n_level1_rows == 15 and plan.n_rows == 27
    with pytest.raises(ValidationError, match="no level-1 tasks"):
        _Plan(model, [TaskSpec("thorax", "both", 2)])
    with pytest.raises(ValidationError, match="only supports position"):
        _Plan(model, [TaskSpec("com", "both", 1)])
    with pytest.raises(ValidationError, match="unknown frame"):
        _Plan(model, [TaskSpec("tail", "position", 1)])


def test_retarget_loop_matches_per_task_loop_when_saturating(model, monkeypatch):
    """A moving, yawing pelvis under a tight 0.6 rad/s velocity bound, which
    saturates: the one-pass loop takes the per-task loop's QP iterations
    and active sets, and lands on its joint angles."""
    configurations = moving_base_trajectory(model, 0.4)
    captured = capture_from_configurations(model, configurations, 240.0)
    monkeypatch.setattr(retarget, "VELOCITY_BOUND", 0.6)
    result = retarget_trajectory(model, captured)
    expected, diagnostics = reference_retarget(model, captured)
    assert sum(1 for d in diagnostics if d.active_constraints) >= 10
    assert max(d.iterations for d in diagnostics) > 2
    assert result.diagnostics == diagnostics
    angles = np.array([c.joint_angles for c in result.configurations])
    oracle = np.array([c.joint_angles for c in expected])
    assert np.max(np.abs(angles - oracle)) <= 1e-9


def level_rows(plan, q, refs, k):
    """Both level Jacobians and velocity references of frame ``k`` from
    configuration ``q``, views of the plan's rows."""
    plan.rows(KinematicState(plan.model, q).frames, refs, k)
    return plan.levels


@pytest.mark.parametrize("trajectory", [sinusoid_trajectory, moving_base_trajectory])
def test_fused_step_matches_two_call_oracle_on_every_frame(model, trajectory):
    """On every frame of a 1 s retargeting, the one-factorization step gives
    the two active-set calls' velocity within 1e-9, their iterations and
    active bounds, and the frame's diagnostics are the oracle's."""
    captured = capture_from_configurations(model, trajectory(model, 1.0), 240.0)
    tasks = default_task_stack()
    plan = _Plan(model, tasks)
    n, dt = captured.n_frames, captured.dt
    refs = _trajectory_references(plan, _reference_tracks(model, captured, tasks), n, dt)
    result = retarget_trajectory(model, captured)
    bound = np.full(model.n_velocity, retarget.VELOCITY_BOUND)
    q = model.upright_configuration()
    for k in range(n):
        rows = level_rows(plan, q, refs, k)
        got = solve_hierarchy(*rows, retarget.EPSILON, -bound, bound)
        want = reference_two_level_step(*rows)
        assert np.max(np.abs(got.x - want.x)) <= 1e-9, k
        assert (got.iterations, got.saturated) == (want.iterations, want.saturated), k
        assert result.diagnostics[k] == FrameDiagnostics(want.iterations, want.saturated), k
        q = result.configurations[k]


@pytest.mark.parametrize("case", ["duplicated-level-1-rows", "binding-velocity-bound"])
def test_fallback_frames_are_bit_identical_to_two_call_oracle(model, active_set_calls, monkeypatch, case):
    """A level 1 that lists a foot twice fails the rank test, and a 0.05
    rad/s bound binds on a wrist reach: both frames run the two active-set
    calls and give the oracle's bits and diagnostics."""
    q = model.upright_configuration()
    tasks = default_task_stack()
    refs = current_pose_references(model, q, tasks)
    refs["right_wrist"] = Reference(
        position=refs["right_wrist"].position + np.array([0.2, 0.0, 0.1]), rotation=np.eye(3)
    )
    if case == "duplicated-level-1-rows":
        tasks = tasks + [TaskSpec("left_foot", "both", 1)]
    else:
        monkeypatch.setattr(retarget, "VELOCITY_BOUND", 0.05)
    sol = solve_frame(model, q, tasks, refs, 1.0 / 240.0)
    plan = _Plan(model, tasks)
    want = reference_two_level_step(*level_rows(plan, q, _frame_reference_arrays(plan, refs), 0))
    assert active_set_calls == [False, True]
    assert np.array_equal(sol.velocity, want.x)
    assert sol.diagnostics == FrameDiagnostics(want.iterations, want.saturated)
    assert bool(want.saturated) == (case == "binding-velocity-bound")


def test_interior_frames_never_run_the_active_set(model, monkeypatch):
    """With the default stack and bounds, no frame of a 1 s sinusoid has a
    binding bound or dependent level-1 rows, so none may reach the
    active-set QP."""

    def refuse(*args, **kwargs):
        raise AssertionError("an interior frame ran the active-set QP")

    monkeypatch.setattr("exoload.qp.solve_ls_qp", refuse)
    captured = capture_from_configurations(model, sinusoid_trajectory(model, 1.0), 240.0)
    result = retarget_trajectory(model, captured)
    assert result.diagnostics == [FrameDiagnostics(2, [])] * captured.n_frames


def test_solve_frame_names_missing_references(model):
    q = model.upright_configuration()
    tasks = default_task_stack()
    refs = current_pose_references(model, q, tasks)
    del refs["thorax"]
    with pytest.raises(ValidationError, match="no reference supplied for task frame 'thorax'"):
        solve_frame(model, q, tasks, refs, 1 / 240)
    refs = current_pose_references(model, q, tasks)
    refs["head"] = Reference(position=np.zeros(3))
    with pytest.raises(ValidationError, match="'head': reference lacks an orientation"):
        solve_frame(model, q, tasks, refs, 1 / 240)


def test_trajectory_invariants():
    model = default_model()
    q0 = model.upright_configuration()
    good = capture_from_configurations(model, [q0] * 5, 240.0)
    with pytest.raises(ValidationError, match=r"strictly increase: frame 1 at 0\.0 s$"):
        CapturedTrajectory(np.array([0.0, 0.0, 0.01]), {})
    with pytest.raises(ValidationError, match="10%"):
        CapturedTrajectory(np.array([0.0, 1 / 240, 1 / 240 + 1.5 / 240]), {})
    track = good.segments["pelvis"]
    bad_quat = track.quaternions.copy()
    bad_quat[2] *= 1.5
    with pytest.raises(ValidationError, match="segment 'pelvis': quaternion norm 1.500000 at frame 2"):
        CapturedTrajectory(good.times, {"pelvis": SegmentTrack(track.positions, bad_quat)})


def test_capture_rate_comes_from_its_timestamps():
    times = np.arange(6) / 240.0
    assert CapturedTrajectory(times, {}).dt == (times[-1] - times[0]) / 5
    with pytest.raises(TypeError):
        CapturedTrajectory(times, {}, 1 / 250.0)  # a period is not an argument


def test_capture_renormalizes_quaternions_as_the_reader_does(tmp_path):
    """Norms within 1e-3 of unit come back renormalized, bit for bit as
    ``parse_motion_file`` renormalizes the same numbers read from a file."""
    n = 30
    rng = np.random.default_rng(8)
    quats = rng.standard_normal((n, 4))
    quats /= np.linalg.norm(quats, axis=1)[:, None]
    quats *= 1.0 + rng.choice([-5e-4, 5e-4], (n, 1))
    positions = rng.standard_normal((n, 3))
    times = np.arange(n) / 240.0
    captured = CapturedTrajectory(times, {"pelvis": SegmentTrack(positions, quats)})
    header = ["time_s"] + [f"pelvis_{s}" for s in eio.POSE_SUFFIXES]
    eio.write_csv(tmp_path / "m.csv", header, np.column_stack([times, positions, quats]))
    read = eio.parse_motion_file(tmp_path / "m.csv")
    assert np.array_equal(captured.segments["pelvis"].quaternions, read.segments["pelvis"].quaternions)
    assert np.abs(np.linalg.norm(read.segments["pelvis"].quaternions, axis=1) - 1.0).max() < 1e-15
    assert captured.dt == read.dt


def test_capture_rejects_quaternions_off_by_more_than_1e_3():
    n = 8
    quats = np.tile(IDENTITY_QUAT, (n, 1))
    quats[5] *= 1.002
    with pytest.raises(FrameError, match="segment 'thorax': quaternion norm 1.002000 at frame 5") as info:
        CapturedTrajectory(np.arange(n) / 240.0, {"thorax": SegmentTrack(np.zeros((n, 3)), quats)})
    assert info.value.frame == 5


def test_one_frame_capture_is_rejected():
    track = SegmentTrack(np.zeros((1, 3)), IDENTITY_QUAT[None].copy())
    with pytest.raises(ValidationError, match="need at least two samples, got 1"):
        CapturedTrajectory(np.zeros(1), {"pelvis": track})


@pytest.mark.parametrize(
    "field, where",
    [
        ("times", "trajectory timestamps"),
        ("positions", "segment 'pelvis': positions"),
        ("quaternions", "segment 'pelvis': quaternions"),
    ],
)
def test_trajectory_rejects_non_finite_values(field, where):
    model = default_model()
    good = capture_from_configurations(model, [model.upright_configuration()] * 5, 240.0)
    track = good.segments["pelvis"]
    arrays = {"times": good.times, "positions": track.positions, "quaternions": track.quaternions}
    arrays = {name: a.copy() for name, a in arrays.items()}
    arrays[field][3] = np.nan
    tracks = {"pelvis": SegmentTrack(arrays["positions"], arrays["quaternions"])}
    with pytest.raises(ValidationError, match=f"{where}: non-finite value at index 3"):
        CapturedTrajectory(arrays["times"], tracks)


def test_integration_consistency(model):
    """FK(q_next) - FK(q) tracks J qdot dt to second order on a smooth
    synthetic input."""
    truth = sinusoid_trajectory(model, 0.25)
    captured = capture_from_configurations(model, truth, 240.0)
    tasks = default_task_stack()
    dt = 1.0 / 240.0
    q = model.upright_configuration()
    refs_track = {}
    from exoload.retarget import _reference_tracks
    from exoload.skeleton import task_jacobian

    tracks = _reference_tracks(model, captured, tasks)
    for k in range(10, 20):
        frame_refs = {}
        for task in tasks:
            tr = tracks[task.frame]
            frame_refs[task.frame] = Reference(
                position=tr.positions[k],
                rotation=np.array(
                    KinematicState(model, truth[k]).segment_pose(model.resolve_frame(task.frame)).rotation
                    if model.resolve_frame(task.frame) != "com"
                    else np.eye(3)
                ),
            )
        sol = solve_frame(model, q, tasks, frame_refs, dt)
        J = task_jacobian(model, q, "left_hand", "position")
        p0 = KinematicState(model, q).segment_pose("left_hand").position
        p1 = KinematicState(model, sol.next_configuration).segment_pose("left_hand").position
        predicted = J @ sol.velocity * dt
        # second-order integration error bound: O(|qdot dt|^2)
        scale = float(np.linalg.norm(sol.velocity) * dt) ** 2
        assert np.linalg.norm((p1 - p0) - predicted) <= 10.0 * scale + 1e-12
        q = sol.next_configuration


@pytest.mark.parametrize("case", ["sinusoid", "moving-base", "shifted-start", "saturating"])
def test_retarget_matches_the_allocating_loop_bit_for_bit(model, monkeypatch, case):
    """The loop over one workspace gives the configurations and per-frame
    diagnostics of the loop that makes every per-frame object afresh, bit
    for bit: on the 1 s sinusoid, the moving base, the moving base starting
    away from the upright base pose, and the moving base saturating a
    0.6 rad/s bound."""

    def shifted(q: JointConfiguration) -> JointConfiguration:
        return JointConfiguration(q.base_position + [2.0, -1.0, 0.0], q.base_orientation, q.joint_angles)

    trajectory = {
        "sinusoid": lambda: sinusoid_trajectory(model, 1.0),
        "moving-base": lambda: moving_base_trajectory(model, 1.0),
        "shifted-start": lambda: shifted(moving_base_trajectory(model, 0.25)),
        "saturating": lambda: moving_base_trajectory(model, 0.4),
    }[case]()
    captured = capture_from_configurations(model, trajectory, 240.0)
    if case == "saturating":
        monkeypatch.setattr(retarget, "VELOCITY_BOUND", 0.6)
    result = retarget_trajectory(model, captured)
    expected, diagnostics = reference_allocating_retarget(model, captured)
    for name in ("base_position", "base_orientation", "joint_angles"):
        got, want = getattr(result.configurations, name), getattr(expected, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    assert result.diagnostics == diagnostics
    if case == "saturating":
        assert sum(1 for d in diagnostics if d.active_constraints) >= 10


def test_retarget_builds_its_per_frame_objects_once(model, monkeypatch):
    """No ``KinematicState`` or ``JointConfiguration`` is built per frame:
    their construction counts are the same for a 60-frame and a 240-frame
    capture."""
    captures = {
        n: capture_from_configurations(model, moving_base_trajectory(model, n / 240), 240.0)
        for n in (60, 240)
    }
    counts = {}
    for cls in (KinematicState, JointConfiguration):

        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    per_capture = {}
    for n, captured in captures.items():
        counts.clear()
        assert retarget_trajectory(model, captured).n_frames == n
        per_capture[n] = dict(counts)
    assert per_capture[60] == per_capture[240]
    assert per_capture[240].get("KinematicState", 0) == 0


def test_the_method_takes_no_settings():
    """The retargeting QP's regularization, gain and velocity bound, and the
    active-set loop's iteration cap and release tolerance, are the code's
    constants: no signature or settings object carries them."""
    assert list(inspect.signature(retarget_trajectory).parameters) == ["model", "captured"]
    assert list(inspect.signature(solve_frame).parameters) == [
        "model", "q_current", "tasks", "references", "dt"
    ]
    assert list(inspect.signature(solve_ls_qp).parameters) == ["A", "b", "eps", "lb", "ub", "C", "x0"]
    assert not hasattr(exoload, "SolverSettings") and not hasattr(retarget, "SolverSettings")
    assert (retarget.EPSILON, retarget.GAIN, retarget.VELOCITY_BOUND) == (1e-6, 10.0, 10.0)
