import numpy as np
import pytest

from helpers import (
    moving_base_trajectory,
    reference_com_jacobian,
    reference_link_frames,
    reference_task_jacobian,
    sinusoid_trajectory,
)

from exoload.anthropometry import AnthropometricProfile
from exoload.errors import ValidationError
from exoload.geometry import matrix_to_rotvec, quat_normalize, quat_to_matrix, rotvec_to_quat
from exoload.skeleton import (
    FrameSweep,
    JointConfiguration,
    KinematicState,
    TaskRowLayout,
    build_model,
    forward_kinematics,
    integrate_configuration,
    lumbar_flexion_index,
    task_jacobian,
)

RNG = np.random.default_rng(42)


def random_configuration(model, rng=RNG, angle_range=0.8, random_base=True):
    angles = rng.uniform(-angle_range, angle_range, model.n_joint_dofs)
    if random_base:
        quat = quat_normalize(rng.normal(size=4))
        pos = rng.normal(size=3)
    else:
        quat = np.array([1.0, 0, 0, 0])
        pos = np.zeros(3)
    return JointConfiguration(pos, quat, angles)


def mirrored_configuration(model, q):
    """Reflection about the sagittal plane: swap sides, negate lateral/axial
    style DoFs, keep flexion."""
    angles = np.asarray(q.joint_angles).copy()
    out = np.zeros_like(angles)
    for i, name in enumerate(model.dof_names):
        if name.startswith("left_"):
            peer = model.dof_index["right_" + name[len("left_") :]]
        elif name.startswith("right_"):
            peer = model.dof_index["left_" + name[len("right_") :]]
        else:
            peer = i
        sign = 1.0
        for marker in ("lateral", "axial", "deviation", "pronation", "protraction", "elevation"):
            if marker in name:
                sign = -1.0
        out[peer] = sign * angles[i]
    pos = np.asarray(q.base_position) * np.array([1.0, -1.0, 1.0])
    w, x, y, z = q.base_orientation
    quat = np.array([w, -x, y, -z])  # conjugation by diag(1,-1,1)
    return JointConfiguration(pos, quat, out)


def test_model_counts(model):
    assert len(model.segments) == 19
    assert len(model.joints) == 18
    assert model.n_joint_dofs == 43
    assert model.n_velocity == 49

    def dofs(*names):
        return sum(len(joint.dofs) for joint in model.joints if joint.name in names)

    assert dofs("lumbar", "thoracic", "lower_neck", "upper_neck") == 11
    for side in ("left", "right"):
        assert dofs(*(f"{side}_{j}" for j in ("sternoclavicular", "shoulder", "elbow", "wrist"))) == 9
        assert dofs(*(f"{side}_{j}" for j in ("hip", "knee", "ankle"))) == 7


def test_inertia_tensors_symmetric_positive_definite(model):
    for seg in model.segments:
        assert np.allclose(seg.inertia, seg.inertia.T)
        assert np.all(np.linalg.eigvalsh(seg.inertia) > 0.0)


def test_upright_pose_is_canonical(model):
    q = model.upright_configuration()
    poses, com = forward_kinematics(model, q)
    assert len(poses) == 19
    # thorax sagittal inclination zero in the reference pose
    axis = poses["thorax"].rotation[:, 2]
    assert abs(np.degrees(np.arctan2(axis[0], axis[2]))) < 1e-12
    for name, pose in poses.items():
        assert np.allclose(pose.rotation, np.eye(3))
    assert abs(poses["left_foot"].position[2]) < 1e-12  # feet on the ground


def test_symmetric_configuration_centers_the_com(model):
    q = model.upright_configuration()
    angles = np.asarray(q.joint_angles).copy()
    angles[model.dof_index["lumbar_flexion"]] = 0.4
    for side in ("left", "right"):
        angles[model.dof_index[f"{side}_shoulder_flexion"]] = 0.7
        angles[model.dof_index[f"{side}_elbow_flexion"]] = 0.5
        angles[model.dof_index[f"{side}_hip_flexion"]] = 0.3
    sym = JointConfiguration(q.base_position, q.base_orientation, angles)
    _, com = forward_kinematics(model, sym)
    assert abs(com[1]) < 1e-12


def test_yaw_rotation_oracle(model):
    """Rotating the base by 90 degrees about Z must rotate every segment
    position exactly as the rotation applied to the unrotated output."""
    q0 = random_configuration(model, random_base=False)
    poses0, com0 = forward_kinematics(model, q0)
    yaw = rotvec_to_quat(np.array([0.0, 0.0, np.pi / 2]))
    q1 = JointConfiguration(q0.base_position, yaw, q0.joint_angles)
    poses1, com1 = forward_kinematics(model, q1)
    R = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    base = np.asarray(q0.base_position)
    for name in poses0:
        expected = base + R @ (poses0[name].position - base)
        assert np.max(np.abs(poses1[name].position - expected)) < 1e-12
    assert np.max(np.abs(com1 - (base + R @ (com0 - base)))) < 1e-12


def test_mirroring_mirrors_fk(model):
    q = random_configuration(model, random_base=False, angle_range=0.6)
    qm = mirrored_configuration(model, q)
    poses, _ = forward_kinematics(model, q)
    poses_m, _ = forward_kinematics(model, qm)
    flip = np.array([1.0, -1.0, 1.0])
    pairs = {"left_hand": "right_hand", "left_foot": "right_foot", "thorax": "thorax"}
    for a, b in pairs.items():
        assert np.allclose(poses_m[b].position, poses[a].position * flip, atol=1e-9)


def test_scaling_homogeneity():
    small = build_model(AnthropometricProfile(1.60, 70.0))
    large = build_model(AnthropometricProfile(3.20, 70.0))
    rng = np.random.default_rng(7)
    angles = rng.uniform(-0.5, 0.5, small.n_joint_dofs)
    qs = JointConfiguration(np.array([0, 0, small.reference_base_height]), [1, 0, 0, 0], angles)
    ql = JointConfiguration(np.array([0, 0, large.reference_base_height]), [1, 0, 0, 0], angles)
    ps, _ = forward_kinematics(small, qs)
    pl, _ = forward_kinematics(large, ql)
    for name in ps:
        assert np.allclose(pl[name].position, 2.0 * ps[name].position, atol=1e-12)


def test_jacobian_finite_difference_suite(model):
    """20 random configurations, central differences with a 1e-6 step."""
    rng = np.random.default_rng(2024)
    h = 1e-6
    worst = 0.0
    for trial in range(20):
        q = random_configuration(model, rng)
        frame = ("left_hand", "right_foot", "head", "thorax")[trial % 4]
        J = task_jacobian(model, q, frame, "both")
        Jfd = np.zeros_like(J)
        for i in range(model.n_velocity):
            u = np.zeros(model.n_velocity)
            u[i] = 1.0
            qp = integrate_configuration(model, q, u, h)
            qm = integrate_configuration(model, q, u, -h)
            sp = KinematicState(model, qp).segment_pose(model.resolve_frame(frame))
            sm = KinematicState(model, qm).segment_pose(model.resolve_frame(frame))
            Jfd[0:3, i] = (sp.position - sm.position) / (2 * h)
            Jfd[3:6, i] = matrix_to_rotvec(sp.rotation @ sm.rotation.T) / (2 * h)
        worst = max(worst, float(np.max(np.abs(J - Jfd))))
    assert worst <= 1e-5


def test_jacobian_base_blocks(model):
    q = random_configuration(model)
    J = task_jacobian(model, q, "left_wrist", "position")
    assert J.shape == (3, 49)
    assert np.array_equal(J[:, 0:3], np.eye(3))
    Jo = task_jacobian(model, q, "head", "orientation")
    assert np.array_equal(Jo[:, 3:6], np.eye(3))
    assert np.array_equal(Jo[:, 0:3], np.zeros((3, 3)))


def test_jacobian_off_path_columns_are_zero(model):
    q = random_configuration(model)
    J = task_jacobian(model, q, "left_hand", "both")
    for name in ("right_shoulder_flexion", "left_knee_flexion", "upper_neck_axial"):
        assert np.all(J[:, 6 + model.dof_index[name]] == 0.0)
    # the wrist DoFs spin the hand about its own origin: orientation rows only
    wrist = 6 + model.dof_index["left_wrist_flexion"]
    assert np.all(J[0:3, wrist] == 0.0)
    assert np.any(J[3:6, wrist] != 0.0)


def test_com_jacobian_matches_finite_differences(model):
    q = random_configuration(model)
    J = task_jacobian(model, q, "com", "position")
    h = 1e-6
    for i in range(0, model.n_velocity, 7):
        u = np.zeros(model.n_velocity)
        u[i] = 1.0
        cp = KinematicState(model, integrate_configuration(model, q, u, h)).com()
        cm = KinematicState(model, integrate_configuration(model, q, u, -h)).com()
        assert np.max(np.abs(J[:, i] - (cp - cm) / (2 * h))) < 1e-6
    with pytest.raises(ValidationError):
        task_jacobian(model, q, "com", "both")


def oracle_states(model):
    """Random configurations with a rotated, displaced base, plus frames of a
    translating, yawing and tilting base."""
    rng = np.random.default_rng(77)
    configurations = [random_configuration(model, rng) for _ in range(10)]
    configurations += moving_base_trajectory(model, 1.0)[::40]
    return [KinematicState(model, q) for q in configurations]


def test_subtree_com_jacobian_matches_per_segment_sum(model):
    for state in oracle_states(model):
        assert np.max(np.abs(state.jacobian("com", "position") - reference_com_jacobian(state))) <= 1e-12
        segment_sum = sum(
            seg.mass * (state.segment_pose(seg.name).position
                        + state.segment_pose(seg.name).rotation @ seg.com_offset)
            for seg in model.segments
        ) / model.total_mass
        assert np.max(np.abs(state.com() - segment_sum)) <= 1e-12


def test_jacobian_matches_cross_oracle(model):
    """Every segment, alias and the CoM, in every kind the frame supports,
    against the ``np.cross`` oracles on moving-base states."""
    frames = [seg.name for seg in model.segments] + list(model.frame_aliases)
    cases = [(frame, kind) for frame in frames for kind in ("position", "orientation", "both")]
    for state in oracle_states(model):
        for frame, kind in cases + [("com", "position")]:
            J = state.jacobian(frame, kind)
            oracle = reference_task_jacobian(state, frame, kind)
            assert J.shape == oracle.shape
            assert np.max(np.abs(J - oracle)) <= 1e-12, (frame, kind)
    with pytest.raises(ValidationError, match="unknown frame"):
        state.jacobian("scapula", "position")
    with pytest.raises(ValidationError, match="unknown task kind"):
        state.jacobian("left_hand", "velocity")
    for kind in ("orientation", "both"):
        with pytest.raises(ValidationError, match="only supports position"):
            state.jacobian("com", kind)


def test_jacobian_velocity_consistency(model):
    """Frame velocity from J times qdot matches central-difference
    differentiation of the FK poses along a smooth joint trajectory sampled at
    240 Hz."""
    dt = 1.0 / 240.0
    base = model.upright_configuration()
    moves = (
        ("lumbar_flexion", 0.4, 0.5),
        ("left_shoulder_flexion", 0.5, 0.5),
        ("right_elbow_flexion", 0.3, 0.6),
    )

    def config_at(t):
        angles = np.zeros(model.n_joint_dofs)
        rates = np.zeros(model.n_joint_dofs)
        for name, amp, f in moves:
            w = 2 * np.pi * f
            angles[model.dof_index[name]] = amp * np.sin(w * t)
            rates[model.dof_index[name]] = amp * w * np.cos(w * t)
        return JointConfiguration(base.base_position, base.base_orientation, angles), rates

    worst = 0.0
    for k in range(1, 40):
        t = k * dt
        q, rates = config_at(t)
        u = np.concatenate([np.zeros(6), rates])
        predicted = task_jacobian(model, q, "left_hand", "position") @ u
        qp, _ = config_at(t + dt)
        qm, _ = config_at(t - dt)
        pp = KinematicState(model, qp).segment_pose("left_hand").position
        pm = KinematicState(model, qm).segment_pose("left_hand").position
        worst = max(worst, float(np.max(np.abs(predicted - (pp - pm) / (2 * dt)))))
    assert worst < 1e-4


def test_unknown_frame_rejected(model):
    q = model.upright_configuration()
    with pytest.raises(ValidationError, match="unknown frame"):
        task_jacobian(model, q, "scapula", "position")


def test_quaternion_norm_validation(model):
    with pytest.raises(ValidationError, match="quaternion norm"):
        JointConfiguration(np.zeros(3), np.array([1.0, 0.0, 0.0, 1e-3]), np.zeros(43))
    with pytest.raises(ValidationError, match="quaternion norm"):
        JointConfiguration(np.zeros(3), np.array([1.0, np.nan, 0.0, 0.0]), np.zeros(43))


@pytest.mark.parametrize(
    "shapes",
    [((4, 3), (3, 4), (4, 43)), ((4, 3), (4, 4), (5, 43)), ((3,), (4, 4), (4, 43)), ((4, 3), (4,), (43,))],
    ids=["orientation-short", "angles-long", "single-position", "batched-position"],
)
def test_trajectory_shapes_must_agree(shapes):
    position, orientation, angles = (np.zeros(shape) for shape in shapes)
    orientation[..., 0] = 1.0
    with pytest.raises(ValidationError, match="configuration shapes disagree"):
        JointConfiguration(position, orientation, angles)


def test_trajectory_names_the_first_non_unit_quaternion(model):
    q = moving_base_trajectory(model, 0.1)
    orientation = q.base_orientation.copy()
    orientation[[7, 11], 0] *= 1.0 + 1e-6
    with pytest.raises(ValidationError, match="frame 7: base orientation quaternion norm"):
        JointConfiguration(q.base_position, orientation, q.joint_angles)
    orientation[7, 1] = np.nan
    with pytest.raises(ValidationError, match="frame 7: base orientation quaternion norm nan"):
        JointConfiguration(q.base_position, orientation, q.joint_angles)


def test_trajectory_frames_index_and_iterate(model):
    q = moving_base_trajectory(model, 0.1)
    assert len(q) == 24 and len(q[::5]) == 5 and len(q[3][None]) == 1
    for k, frame in enumerate(q):
        assert np.array_equal(frame.joint_angles, q.joint_angles[k])
        assert np.array_equal(frame.base_orientation, q.base_orientation[k])
    assert k == 23
    with pytest.raises(TypeError):
        len(q[0])
    assert KinematicState(model, q[0]).n_frames is None
    assert KinematicState(model, q[:1]).n_frames == 1
    with pytest.raises(ValidationError, match="and at least one frame"):
        KinematicState(model, q[:0])


def test_configurations_compare_by_shape_and_value(model):
    q = moving_base_trajectory(model, 0.1)[3]
    copy = JointConfiguration(q.base_position.copy(), q.base_orientation.copy(), q.joint_angles.copy())
    assert q == copy and not q != copy
    angles = q.joint_angles.copy()
    angles[5] += 1e-9
    assert q != JointConfiguration(q.base_position, q.base_orientation, angles)
    assert q != q[None] and q[None] == copy[None]


def test_trajectory_kinematics_equal_kinematic_state_bit_for_bit(model):
    configurations = moving_base_trajectory(model, 1.0)
    kinematics = KinematicState(model, configurations)
    assert kinematics.n_frames == 240 and kinematics.configuration is configurations
    assert kinematics.frames.shape == (1 + model.n_joint_dofs, 240, 3, 5)
    for k, q in enumerate(configurations):
        state = KinematicState(model, q)
        assert np.array_equal(kinematics.frames[:, k], state.frames)
        assert np.array_equal(
            kinematics.segment_rotation("thorax")[k], state.segment_pose("thorax").rotation
        )
        assert np.array_equal(state.segment_rotation("thorax"), state.segment_pose("thorax").rotation)


def test_kinematic_state_matches_per_link_oracle_bit_for_bit(model):
    """Random configurations (rotated, displaced base) and frames of a
    translating, yawing and tilting base; the base is row 0 of ``frames``."""
    rng = np.random.default_rng(79)
    configurations = [random_configuration(model, rng) for _ in range(10)]
    configurations += moving_base_trajectory(model, 1.0)[::40]
    for q in configurations:
        state = KinematicState(model, q)
        rotation, position, axis = reference_link_frames(model, q)
        assert np.array_equal(state.frames[1:, :, :3], rotation)
        assert np.array_equal(state.frames[1:, :, 3], position)
        assert np.array_equal(state.frames[1:, :, 4], axis)
        assert np.array_equal(state.frames[0, :, :3], quat_to_matrix(q.base_orientation))
        assert np.array_equal(state.frames[0, :, 3], q.base_position)


def test_trajectory_kinematics_match_per_link_oracle_bit_for_bit(model):
    configurations = moving_base_trajectory(model, 1.0)
    kinematics = KinematicState(model, configurations)
    assert kinematics.frames.shape == (1 + model.n_joint_dofs, 240, 3, 5)
    for k, q in enumerate(configurations):
        rotation, position, axis = reference_link_frames(model, q)
        assert np.array_equal(kinematics.frames[1:, k, :, :3], rotation)
        assert np.array_equal(kinematics.frames[1:, k, :, 3], position)
        assert np.array_equal(kinematics.frames[1:, k, :, 4], axis)
        assert np.array_equal(kinematics.frames[0, k, :, 3], q.base_position)


def test_a_reused_sweep_equals_fresh_sweeps_bit_for_bit(model):
    """One sweep's buffer, over consecutive different configurations, holds
    the frames of a fresh sweep and of the per-link oracle bit for bit: a
    column the sweep left from the configuration before would differ. A
    trajectory sweep reused on a second trajectory does the same."""
    rng = np.random.default_rng(5)
    configurations = [random_configuration(model, rng) for _ in range(6)]
    configurations += moving_base_trajectory(model, 0.5)[::20]
    sweep = FrameSweep(model)
    for q in configurations:
        args = (q.base_position, quat_to_matrix(q.base_orientation), q.joint_angles)
        frames = sweep(*args)
        assert frames is sweep.frames
        fresh = FrameSweep(model)(*args)
        assert frames.tobytes() == fresh.tobytes()
        rotation, position, axis = reference_link_frames(model, q)
        assert np.array_equal(frames[1:, :, :3], rotation)
        assert np.array_equal(frames[1:, :, 3], position)
        assert np.array_equal(frames[1:, :, 4], axis)
        assert np.array_equal(frames[0, :, 3], q.base_position) and not frames[0, :, 4].any()
    first, second = moving_base_trajectory(model, 0.1), sinusoid_trajectory(model, 0.1, sway=True)
    sweep = FrameSweep(model, (len(first),))
    for q in (first, second):
        args = (q.base_position, quat_to_matrix(q.base_orientation), q.joint_angles)
        assert sweep(*args).tobytes() == FrameSweep(model, (len(q),))(*args).tobytes()


def test_a_reused_jacobian_equals_a_fresh_fill_bit_for_bit(model):
    """``TaskRowLayout.fill`` into the same array, over consecutive
    configurations, gives the Jacobian and positions of a fill into a new
    array, CoM rows included."""
    tasks = [("com", "position"), ("left_foot", "both"), ("thorax", "orientation")]
    layout = TaskRowLayout(model, tasks + [("right_wrist", "position")])
    J = layout.new_jacobian()
    rng = np.random.default_rng(6)
    for q in [random_configuration(model, rng) for _ in range(5)]:
        frames = KinematicState(model, q).frames
        got, positions = layout.fill(frames, J)
        want, want_positions = layout.fill(frames)
        assert got is J and got.tobytes() == want.tobytes()
        assert positions.tobytes() == want_positions.tobytes()


def test_one_frame_queries_reject_a_trajectory_state(model):
    """Pose, CoM and Jacobian queries read one configuration's frames; on
    the state of a trajectory they raise instead of returning arrays whose
    shape mixes links and frames."""
    kinematics = KinematicState(model, moving_base_trajectory(model, 0.1))
    queries = (
        lambda: kinematics.segment_pose("thorax"),
        kinematics.segment_coms,
        kinematics.com,
        lambda: kinematics.jacobian("left_hand"),
        lambda: kinematics.jacobian("com", "position"),
    )
    for query in queries:
        with pytest.raises(ValidationError, match="not of a 24-frame trajectory"):
            query()


def test_lumbar_flexion_is_canonically_indexed(model):
    assert model.dof_names[lumbar_flexion_index(model)] == "lumbar_flexion"
