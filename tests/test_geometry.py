import numpy as np

from helpers import (
    default_model,
    reference_axis_angle_matrix,
    reference_matrix_to_quat,
    reference_matrix_to_rotvec,
    reference_quat_multiply,
)

from exoload.geometry import (
    axis_angle_matrix,
    matrix_to_quat,
    matrix_to_rotvec,
    orientation_error,
    quat_multiply,
    quat_rotvec_between,
    quat_to_matrix,
    quat_to_rotvec,
)


def shepperd_branch_rotations() -> np.ndarray:
    """Rotations that take every Shepperd branch: positive trace, each
    dominant diagonal entry, diagonal ties, and angles within 1e-6 of pi."""
    rng = np.random.default_rng(11)
    out = [np.eye(3)] + [quat_to_matrix(rng.normal(size=4)) for _ in range(40)]
    for axis in np.eye(3):  # a half turn about an axis makes that diagonal entry dominant
        for gap in (0.0, 1e-7, 5e-7, 1e-6):
            out.append(axis_angle_matrix(axis, np.pi - gap))
    for axis in ([1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0]):
        out.append(axis_angle_matrix(np.array(axis) / np.linalg.norm(axis), np.pi))  # ties
    out.append(axis_angle_matrix(np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0), np.pi - 1e-6))
    return np.array(out)


def branch(R: np.ndarray) -> int:
    if np.trace(R) > 0.0:
        return 0
    if R[0, 0] >= R[1, 1] and R[0, 0] >= R[2, 2]:
        return 1
    return 2 if R[1, 1] >= R[2, 2] else 3


def test_rotation_stack_covers_every_branch():
    R = shepperd_branch_rotations()
    assert {branch(r) for r in R} == {0, 1, 2, 3}
    diag = R[:, (0, 1, 2), (0, 1, 2)]
    ties = (diag[:, 0] == diag[:, 1]) | (diag[:, 1] == diag[:, 2]) | (diag[:, 0] == diag[:, 2])
    assert (ties & (np.trace(R, axis1=1, axis2=2) <= 0.0)).any()


def test_stacked_rotation_helpers_equal_single_calls():
    R = shepperd_branch_rotations()
    quats, rotvecs = matrix_to_quat(R), matrix_to_rotvec(R)
    assert quats.shape == (len(R), 4) and rotvecs.shape == (len(R), 3)
    for k, r in enumerate(R):
        assert np.array_equal(quats[k], matrix_to_quat(r))
        assert np.array_equal(rotvecs[k], matrix_to_rotvec(r))
    # extra leading axes keep their shape
    assert np.array_equal(matrix_to_quat(R[:6].reshape(2, 3, 3, 3)), quats[:6].reshape(2, 3, 4))
    # angle and axis are ratios of components, so a quaternion's norm drops
    # out, below the 1e-12 vector part of the first-order branch too
    tiny = np.array([[1.0, 1e-13, -2e-13, 3e-13]])
    for scale in (0.5, 2.0):
        assert np.max(np.abs(quat_to_rotvec(scale * quats) - rotvecs)) <= 1e-15
        assert np.max(np.abs(quat_to_rotvec(scale * tiny) - quat_to_rotvec(tiny))) <= 1e-15
    # consecutive pairs: every Shepperd branch on either side of a pair; a
    # one-pair product, which integrate_configuration takes every frame,
    # keeps the bits of the scalar component formula
    products = quat_multiply(quats[1:], quats[:-1])
    between = quat_rotvec_between(quats[:-1], quats[1:])
    assert products.shape == (len(R) - 1, 4) and between.shape == (len(R) - 1, 3)
    for k in range(len(R) - 1):
        single = quat_multiply(quats[k + 1], quats[k])
        assert np.array_equal(single, reference_quat_multiply(quats[k + 1], quats[k]))
        assert np.array_equal(products[k], single)
        assert np.array_equal(between[k], quat_rotvec_between(quats[k], quats[k + 1]))
    # a (4,) operand broadcasts over a stack with extra leading axes
    by_one = quat_multiply(quats[:6], quats[0])
    assert np.array_equal(quat_multiply(quats[:6].reshape(2, 3, 4), quats[0]), by_one.reshape(2, 3, 4))


def test_single_rotation_calls_keep_the_scalar_shepperd_bits():
    for r in shepperd_branch_rotations():
        assert np.array_equal(matrix_to_quat(r), reference_matrix_to_quat(r))
        assert np.array_equal(matrix_to_rotvec(r), reference_matrix_to_rotvec(r))


def test_stacked_orientation_errors_equal_pairwise_calls():
    R = shepperd_branch_rotations()
    errors = orientation_error(R[1:], R[:-1])
    for k in range(len(R) - 1):
        assert np.array_equal(errors[k], orientation_error(R[k + 1], R[k]))
    angles = np.linalg.norm(matrix_to_rotvec(R), axis=1)
    assert np.max(angles) <= np.pi + 1e-12 and np.max(angles) >= np.pi - 1e-6


def test_axis_angle_matrix_matches_entrywise_formula():
    """One axis and angle, one axis over ``(T,)`` angles, and ``(n, 3)``
    axes over ``(*batch, n)`` angles, against the entry-by-entry Rodrigues
    formula: equal on the model's coordinate axes and within 1e-15 on random
    unit axes, where the two formulas round their products in a different
    order. Written into a strided ``out``, the rotation block of a frames
    array, the matrices are the same bit for bit and the other columns stay
    untouched."""
    rng = np.random.default_rng(17)
    axes = rng.normal(size=(6, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = rng.uniform(-np.pi, np.pi, size=(2, 5, 6))
    got = axis_angle_matrix(axes, angles)
    assert got.shape == (2, 5, 6, 3, 3)
    for b in range(2):
        for t in range(5):
            for j in range(6):
                expected = reference_axis_angle_matrix(axes[j], angles[b, t, j])
                assert np.max(np.abs(got[b, t, j] - expected)) <= 1e-15
    series = axis_angle_matrix(axes[0], angles[0, :, 0])
    assert series.shape == (5, 3, 3)
    assert np.array_equal(series, got[0, :, 0])
    frames = np.full((6, 5, 3, 5), np.nan)
    out = axis_angle_matrix(axes[:, None], angles[0].T, out=frames[..., :3])
    assert np.shares_memory(out, frames)
    assert np.array_equal(frames[..., :3], got[0].swapaxes(0, 1))
    assert np.isnan(frames[..., 3:]).all()
    model = default_model()
    for axis, angle in zip(model._dof_axis, rng.uniform(-np.pi, np.pi, model.n_joint_dofs)):
        assert np.array_equal(axis_angle_matrix(axis, angle), reference_axis_angle_matrix(axis, angle))
