"""Rotation and quaternion helpers shared by the kinematics and dynamics code.

Conventions used throughout the package:

* world frame: X forward, Y left, Z up; gravity acts along -Z
* quaternions are scalar-first ``(w, x, y, z)`` and map body to world
* rotation matrices are world-from-body
* angular velocities are expressed in the world frame
"""

from __future__ import annotations

import numpy as np

IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0])


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of (..., 3) arrays without its axis handling, which
    dominates at the small sizes of the kinematics and dynamics sweeps."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def quat_normalize(q: np.ndarray) -> np.ndarray:
    n = float(np.linalg.norm(q))
    if n == 0.0:
        raise ValueError("cannot normalize zero quaternion")
    return np.asarray(q, dtype=float) / n


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
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


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a quaternion ``(4,)``, or the ``(T, 3, 3)`` stack
    of a ``(T, 4)`` stack; each quaternion is normalized first."""
    q = np.asarray(q, dtype=float)
    norm = np.linalg.norm(q, axis=-1, keepdims=True)
    if not norm.all():
        raise ValueError("cannot normalize zero quaternion")
    w, x, y, z = (q / norm).T
    R = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
    return R if R.ndim == 2 else np.ascontiguousarray(R.transpose(2, 0, 1))


def matrix_to_quat(R: np.ndarray) -> np.ndarray:
    """Shepperd's method; returns a unit quaternion with non-negative w."""
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


def axis_angle_matrix(axis: np.ndarray, angle: float | np.ndarray) -> np.ndarray:
    """Rodrigues rotation about a unit axis. An array of angles of shape
    ``(T,)`` gives the matrices stacked on the last axis, ``(3, 3, T)``."""
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


def rotvec_to_quat(rv: np.ndarray) -> np.ndarray:
    angle = float(np.linalg.norm(rv))
    if angle < 1e-12:
        # first-order expansion keeps integration smooth near zero
        return quat_normalize(np.array([1.0, 0.5 * rv[0], 0.5 * rv[1], 0.5 * rv[2]]))
    axis = np.asarray(rv, dtype=float) / angle
    half = 0.5 * angle
    s = np.sin(half)
    return np.array([np.cos(half), axis[0] * s, axis[1] * s, axis[2] * s])


def quat_to_rotvec(q: np.ndarray) -> np.ndarray:
    w, x, y, z = quat_normalize(q)
    if w < 0.0:
        w, x, y, z = -w, -x, -y, -z
    sin_half = np.sqrt(x * x + y * y + z * z)
    if sin_half < 1e-12:
        return 2.0 * np.array([x, y, z])
    angle = 2.0 * np.arctan2(sin_half, w)
    return np.array([x, y, z]) * (angle / sin_half)


def matrix_to_rotvec(R: np.ndarray) -> np.ndarray:
    return quat_to_rotvec(matrix_to_quat(R))


def orientation_error(R_ref: np.ndarray, R_cur: np.ndarray) -> np.ndarray:
    """Axis-angle of ``R_ref @ R_cur.T``, i.e. the world-frame rotation that
    carries the current orientation onto the reference. Singularity-free for
    errors below pi."""
    return matrix_to_rotvec(R_ref @ R_cur.T)


def quat_slerp(qa: np.ndarray, qb: np.ndarray, t: float) -> np.ndarray:
    qa = quat_normalize(qa)
    qb = quat_normalize(qb)
    dot = float(np.dot(qa, qb))
    if dot < 0.0:
        qb = -qb
        dot = -dot
    if dot > 1.0 - 1e-10:
        return quat_normalize(qa + t * (qb - qa))
    theta = np.arccos(np.clip(dot, -1.0, 1.0))
    s = np.sin(theta)
    return quat_normalize((np.sin((1.0 - t) * theta) / s) * qa + (np.sin(t * theta) / s) * qb)


def quat_rotvec_between(q_from: np.ndarray, q_to: np.ndarray) -> np.ndarray:
    """Rotation vectors ``(..., 3)`` of ``q_to * conj(q_from)`` for stacks of
    quaternions ``(..., 4)``: the world-frame rotation carrying each
    ``q_from`` onto ``q_to``, with the angle in [0, pi]."""
    aw, av = q_from[..., 0], q_from[..., 1:]
    bw, bv = q_to[..., 0], q_to[..., 1:]
    w = bw * aw + np.sum(bv * av, axis=-1)
    v = aw[..., None] * bv - bw[..., None] * av - cross(bv, av)
    # unit norm and w >= 0 in one scale, so the angle lies in [0, pi]
    norm = np.sqrt(w * w + np.sum(v * v, axis=-1))
    scale = np.where(w < 0.0, -1.0, 1.0) / norm
    w, v = w * scale, v * scale[..., None]
    sin_half = np.sqrt(np.sum(v * v, axis=-1))
    small = sin_half < 1e-12
    factor = np.where(small, 2.0, 2.0 * np.arctan2(sin_half, w) / np.where(small, 1.0, sin_half))
    return v * factor[..., None]
