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
_CONJUGATE = np.array([1.0, -1.0, -1.0, -1.0])


def cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of (..., 3) arrays without its axis handling, which
    dominates at the small sizes of the kinematics and dynamics sweeps."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def quat_normalize(q: np.ndarray) -> np.ndarray:
    """A quaternion ``(4,)``, or each of a ``(..., 4)`` stack, divided by its
    norm."""
    q = np.asarray(q, dtype=float)
    norm = vector_norms(q)
    if not norm.all():
        raise ValueError("cannot normalize zero quaternion")
    return q / norm[..., None]


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product ``a * b`` of quaternions ``(4,)``, or of each pair of
    broadcasting ``(..., 4)`` stacks."""
    # components first: a pair of (4,) quaternions unpacks into plain
    # floats, whose arithmetic rounds as numpy's does and costs less
    one = a.ndim == b.ndim == 1
    aw, ax, ay, az = a.tolist() if one else a.transpose(-1, *range(a.ndim - 1))
    bw, bx, by, bz = b.tolist() if one else b.transpose(-1, *range(b.ndim - 1))
    product = (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    )
    if one:
        return np.array(product)
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    for i, component in enumerate(product):
        out[..., i] = component
    return out


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a quaternion ``(4,)``, or the ``(T, 3, 3)`` stack
    of a ``(T, 4)`` stack; each quaternion is normalized first."""
    q = quat_normalize(q)
    # one quaternion: plain floats, whose arithmetic is cheaper than that of
    # numpy scalars and rounds the same
    w, x, y, z = q.tolist() if q.ndim == 1 else q.T
    R = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
    return R if R.ndim == 2 else np.ascontiguousarray(R.transpose(2, 0, 1))


def vector_norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of a ``(..., n)`` stack. Each row goes
    through the same BLAS dot as ``np.linalg.norm`` of that row alone, so
    the norms equal one-row calls bit for bit."""
    return np.sqrt(_row_dots(a, a))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # one row goes straight to the dot that each row of a stack goes through
    return a @ b if a.ndim == 1 else (a[..., None, :] @ b[..., :, None])[..., 0, 0]


# Shepperd branches after the positive-trace one: the dominant diagonal
# entry, then the other two in index order
_SHEPPERD_AXES = ((0, 1, 2), (1, 0, 2), (2, 0, 1))
# entries of a row-major flattened rotation: (R21, R02, R10) and (R12, R20, R01);
# its diagonal is every fourth entry
_SKEW_PLUS = np.array([7, 2, 3])
_SKEW_MINUS = np.array([5, 6, 1])


def matrix_to_quat(R: np.ndarray) -> np.ndarray:
    """Shepperd's method; returns a unit quaternion with non-negative w, for
    one rotation ``(3, 3)`` or each of a ``(..., 3, 3)`` stack. A matrix
    with positive trace takes the trace branch; otherwise the branch of its
    largest diagonal entry, ties going to the lower index."""
    R = np.asarray(R, dtype=float)
    M = R.reshape(-1, 3, 3)
    flat = M.reshape(-1, 9)
    # (R21 - R12, R02 - R20, R10 - R01): the w-row numerators
    # take and a slice: cheaper than fancy indexing at a few rotations
    d = flat.take(_SKEW_PLUS, axis=1) - flat.take(_SKEW_MINUS, axis=1)
    diag = flat[:, ::4]
    tr = diag[:, 0] + diag[:, 1] + diag[:, 2]
    q = np.empty((len(M), 4))
    trace = tr > 0.0
    # a slice while every trace is positive: views instead of gathers
    sel = slice(None) if trace.all() else trace
    s = np.sqrt(tr[sel] + 1.0) * 2.0
    q[sel, 0] = 0.25 * s
    q[sel, 1:] = d[sel] / s[:, None]
    if sel is trace:
        x_top = (diag[:, 0] >= diag[:, 1]) & (diag[:, 0] >= diag[:, 2])
        dominant = np.where(x_top, 0, np.where(diag[:, 1] >= diag[:, 2], 1, 2))
        for a, b, c in _SHEPPERD_AXES:
            sel = ~trace & (dominant == a)
            m = M[sel]
            s = np.sqrt(1.0 + m[:, a, a] - m[:, b, b] - m[:, c, c]) * 2.0
            q[sel, 0] = d[sel, a] / s
            q[sel, 1 + a] = 0.25 * s
            q[sel, 1 + b] = (m[:, a, b] + m[:, b, a]) / s
            q[sel, 1 + c] = (m[:, a, c] + m[:, c, a]) / s
        q[q[:, 0] < 0.0] *= -1.0  # the trace branch has w > 0
    return quat_normalize(q).reshape(R.shape[:-2] + (4,))


def axis_angle_matrix(
    axis: np.ndarray, angle: float | np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Rodrigues rotation ``c I + s [a]x + (1 - c) a a^T`` about a unit axis
    ``a``: axes ``(..., 3)`` and angles ``(...)`` broadcast to matrices
    ``(..., 3, 3)``, written into ``out`` when it is given (it may be a
    strided view, such as the rotation block of a frames array)."""
    a = np.asarray(axis, dtype=float)
    c, s = np.cos(angle), np.sin(angle)
    if out is None:
        out = np.empty(np.broadcast_shapes(a.shape[:-1], np.shape(c)) + (3, 3))
    np.multiply(((1.0 - c)[..., None] * a)[..., :, None], a[..., None, :], out=out)
    sa = s[..., None] * a
    # [a]x has -a_k at (i, j) and a_k at (j, i) for each cyclic (i, j, k)
    for i, j, k in ((1, 2, 0), (2, 0, 1), (0, 1, 2)):
        out[..., i, j] -= sa[..., k]
        out[..., j, i] += sa[..., k]
        out[..., k, k] += c
    return out


def rotvec_to_quat(rv: np.ndarray) -> np.ndarray:
    rv = np.asarray(rv, dtype=float)
    # the dot and square root of np.linalg.norm, without its dispatch
    angle = float(np.sqrt(rv.dot(rv)))
    if angle < 1e-12:
        # first-order expansion keeps integration smooth near zero
        return quat_normalize(np.array([1.0, 0.5 * rv[0], 0.5 * rv[1], 0.5 * rv[2]]))
    x, y, z = (rv / angle).tolist()
    half = 0.5 * angle
    s = float(np.sin(half))
    return np.array([float(np.cos(half)), x * s, y * s, z * s])


def quat_to_rotvec(q: np.ndarray) -> np.ndarray:
    """Rotation vector of a non-zero quaternion ``(4,)``, or of each of a
    ``(..., 4)`` stack, with the angle in [0, pi]. The angle and the axis
    factor are ratios of components, so a quaternion of any norm gives the
    rotation vector of its unit quaternion, and none is normalized."""
    w, v = q[..., 0], q[..., 1:]
    # each np.where only when some element takes its other branch
    negative = w < 0.0
    if negative.any():
        v = np.where(negative[..., None], -v, v)
    vv = v * v
    sin_half = np.sqrt(vv[..., 0] + vv[..., 1] + vv[..., 2])
    small = sin_half < 1e-12
    angle = 2.0 * np.arctan2(sin_half, np.abs(w))
    if small.any():
        # below a 1e-12 vector part, angle / sin_half is 2 / |w| to first order
        factor = np.where(small, 2.0 / np.abs(w), angle / np.where(small, 1.0, sin_half))
    else:
        factor = angle / sin_half
    return v * factor[..., None]


def matrix_to_rotvec(R: np.ndarray) -> np.ndarray:
    """Rotation vector of a rotation ``(3, 3)`` or of each of a
    ``(..., 3, 3)`` stack."""
    return quat_to_rotvec(matrix_to_quat(R))


def orientation_error(R_ref: np.ndarray, R_cur: np.ndarray) -> np.ndarray:
    """Axis-angle of ``R_ref @ R_cur.T``, i.e. the world-frame rotation that
    carries the current orientation onto the reference, for one pair of
    ``(3, 3)`` rotations or matching ``(..., 3, 3)`` stacks. Singularity-free
    for errors below pi."""
    return matrix_to_rotvec(R_ref @ np.swapaxes(R_cur, -1, -2))


def quat_rotvec_between(q_from: np.ndarray, q_to: np.ndarray) -> np.ndarray:
    """Rotation vectors ``(..., 3)`` of ``q_to * conj(q_from)`` for stacks of
    quaternions ``(..., 4)``: the world-frame rotation carrying each
    ``q_from`` onto ``q_to``, with the angle in [0, pi]."""
    return quat_to_rotvec(quat_multiply(q_to, q_from * _CONJUGATE))
