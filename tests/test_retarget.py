import numpy as np
import pytest

from helpers import (
    capture_from_configurations,
    default_model,
    moving_base_trajectory,
    sinusoid_trajectory,
    tracked_dof_indices,
)

from exoload.errors import ValidationError
from exoload.geometry import (
    IDENTITY_QUAT,
    quat_multiply,
    quat_normalize,
    quat_slerp,
    quat_to_matrix,
    quat_to_rotvec,
    rotvec_to_quat,
)
from exoload.retarget import (
    CapturedTrajectory,
    Reference,
    SegmentTrack,
    SolverSettings,
    TaskSpec,
    _estimate_com_track,
    _frame_references,
    _reference_tracks,
    default_task_stack,
    resample_uniform,
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
    assert all(t.hold_first for t in level1 if t.frame.endswith("foot"))


def test_task_spec_validation():
    with pytest.raises(ValidationError):
        TaskSpec("thorax", "both", 3)
    with pytest.raises(ValidationError):
        TaskSpec("thorax", "pose", 1)
    with pytest.raises(ValidationError):
        TaskSpec("thorax", "both", 1, feedback_gain=0.0)


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
    """A level-2 reference conflicting with the fixed feet leaves the level-1
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


def test_velocity_bounds_respected_and_reported(model):
    q = model.upright_configuration()
    tasks = default_task_stack()
    refs = current_pose_references(model, q, tasks)
    refs["right_wrist"] = Reference(
        position=refs["right_wrist"].position + np.array([2.0, 0.0, 1.0]),
        rotation=np.eye(3),
    )
    settings = SolverSettings(velocity_bound=0.05)
    sol = solve_frame(model, q, tasks, refs, 1.0 / 240.0, settings)
    assert np.max(np.abs(sol.velocity)) <= 0.05 + 1e-12
    assert sol.diagnostics.active_constraints  # some coordinate saturates


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
    references = list(_frame_references(tracks, captured.n_frames, dt))
    assert len(references) == captured.n_frames
    for k, frame_refs in enumerate(references):
        assert sorted(frame_refs) == sorted(t.frame for t in tasks)
        for frame, ref in frame_refs.items():
            track, prev = tracks[frame], max(k - 1, 0)
            qa, qb = track.quaternions[prev], track.quaternions[k]
            conj = qa * np.array([1.0, -1.0, -1.0, -1.0])
            angular = quat_to_rotvec(quat_normalize(quat_multiply(qb, conj))) / dt
            assert np.array_equal(ref.position, track.positions[k])
            assert np.array_equal(ref.linear_velocity, (track.positions[k] - track.positions[prev]) / dt)
            assert np.max(np.abs(ref.rotation - quat_to_matrix(qb))) <= 1e-15
            assert np.max(np.abs(ref.angular_velocity - angular)) <= 1e-12


def test_trajectory_invariants():
    model = default_model()
    q0 = model.upright_configuration()
    good = capture_from_configurations(model, [q0] * 5, 240.0)
    with pytest.raises(ValidationError, match="strictly increasing"):
        CapturedTrajectory(240.0, np.array([0.0, 0.0, 0.01]), {})
    with pytest.raises(ValidationError, match="10%"):
        CapturedTrajectory(240.0, np.array([0.0, 1 / 240, 1 / 240 + 1.5 / 240]), {})
    track = good.segments["pelvis"]
    bad_quat = track.quaternions.copy()
    bad_quat[2] *= 1.5
    with pytest.raises(ValidationError, match="non-unit quaternion"):
        CapturedTrajectory(240.0, good.times, {"pelvis": SegmentTrack(track.positions, bad_quat)})


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
        CapturedTrajectory(240.0, arrays["times"], tracks)


def test_resample_uniform_interpolates():
    model = default_model()
    q0 = model.upright_configuration()
    n = 9
    rng = np.random.default_rng(0)
    times = np.arange(n) / 240.0 + rng.uniform(-0.015 / 240, 0.015 / 240, n)
    times[0] = 0.0
    pos = (times / times[-1])[:, None] * np.array([1.0, 0.0, 0.0])
    quats = np.array(
        [quat_slerp(IDENTITY_QUAT, rotvec_to_quat(np.array([0, 0, 1.0])), k / (n - 1)) for k in range(n)]
    )
    captured = CapturedTrajectory(240.0, times, {"pelvis": SegmentTrack(pos, quats)})
    uniform = resample_uniform(captured)
    assert uniform.is_uniform()
    # linear track stays linear under linear resampling
    x = uniform.segments["pelvis"].positions[:, 0]
    assert np.max(np.abs(np.diff(x, 2))) < 1e-6


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


def test_infeasible_bounds_skip_frames(model):
    q0 = model.upright_configuration()
    captured = capture_from_configurations(model, [q0] * 4, 240.0)
    settings = SolverSettings(velocity_bound=-1.0)  # empty box: every frame skips
    result = retarget_trajectory(model, captured, settings=settings)
    assert result.n_frames == 4
    assert all(d.skipped for d in result.diagnostics)
    for conf in result.configurations:
        assert np.array_equal(conf.joint_angles, q0.joint_angles)


def test_solver_settings_file(tmp_path):
    import json

    from exoload.retarget import load_solver_settings

    path = tmp_path / "solver.json"
    path.write_text(json.dumps({"epsilon": 1e-7, "gain": 8.0, "velocity_bound": 5.0}))
    settings = load_solver_settings(path)
    assert settings.epsilon == 1e-7 and settings.gain == 8.0 and settings.velocity_bound == 5.0
    assert settings.max_iterations == 200  # unlisted fields keep defaults
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"epsilon": 1e-7, "unknown_knob": 1}))
    with pytest.raises(ValidationError):
        load_solver_settings(bad)


@pytest.mark.parametrize(
    "text",
    [
        '{"gain": "10"}',
        '{"velocity_bound": true}',
        '{"epsilon": NaN}',
        '{"max_iterations": 2.5}',
        "[1]",
        '{"gain": 0}',
        '{"tolerance": -1e-12}',
    ],
)
def test_malformed_solver_settings_name_the_file(tmp_path, text):
    from exoload.retarget import load_solver_settings

    path = tmp_path / "solver.json"
    path.write_text(text)
    with pytest.raises(ValidationError, match="solver.json"):
        load_solver_settings(path)
