"""Inverse dynamics of the retargeted motion, the passive back-support
exoskeleton torque model, and the decomposition of the net lumbar torque into
human and exoskeleton shares.

Sign conventions: the reported L5/S1 sagittal torque is flexion-positive, i.e.
positive when the back counters gravity on a forward-flexed trunk. The raw
generalized force returned by ``inverse_dynamics`` is the actuation torque in
the joint-angle direction; for a forward bend that actuation is extensor, so
the reported load series negates the lumbar flexion coordinate. The assistive
exoskeleton torque shares the flexion-positive convention, which makes
``tau_net = tau_human + tau_exo`` an elementwise identity.

Exoskeleton mass and external loads (patient handling) are deliberately
excluded: the toolkit quantifies postural effort only.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import JsonFields, ValidationError, load_json_file, prefixed
from .filters import butter_sos, sosfiltfilt
from .geometry import cross, quat_rotvec_between
from .posture import DistributionSummary, TrialAnnotation, segment_series, summarize
from .skeleton import (
    JointConfiguration,
    KinematicState,
    SkeletonModel,
    lumbar_flexion_index,
)

GRAVITY_DEFAULT = 9.81  # m/s^2, downward
DERIVATIVE_SMOOTHING_HZ = 5.0  # Hz, Butterworth cutoff of the velocity smoothing

# Reported lumbar load is the gravity/dynamics-countering demand, positive in
# flexion; the raw actuation torque at the lumbar flexion DoF is its negative.
LUMBAR_LOAD_SIGN = -1.0


def inverse_dynamics(
    model: SkeletonModel,
    q: JointConfiguration,
    qd: np.ndarray,
    qdd: np.ndarray,
    gravity: float = GRAVITY_DEFAULT,
) -> np.ndarray:
    """Generalized forces of the free-floating model at one configuration:
    the single-frame case of :func:`inverse_dynamics_series`.

    ``qd``/``qdd`` follow the 49-coordinate velocity layout. The first six
    outputs are the base wrench (world force, world torque about the base
    origin); the remainder are joint actuation torques, one per DoF.
    """
    qd = np.asarray(qd, dtype=float)
    qdd = np.asarray(qdd, dtype=float)
    nv = model.n_velocity
    if qd.shape != (nv,) or qdd.shape != (nv,):
        raise ValidationError(f"expected velocity/acceleration of shape ({nv},)")
    kinematics = KinematicState(model, q[None])
    return inverse_dynamics_series(kinematics, qd[None], qdd[None], gravity)[0]


def inverse_dynamics_series(
    kinematics: KinematicState,
    qd: np.ndarray,
    qdd: np.ndarray,
    gravity: float = GRAVITY_DEFAULT,
) -> np.ndarray:
    """Generalized forces ``(T, n_velocity)`` of a whole trajectory via a
    recursive Newton-Euler sweep in world coordinates (Featherstone 2008,
    ch. 5), under ``gravity`` m/s^2 along -Z. The sweeps run once over the
    links; every link quantity is a ``(T, 3)`` array, so each cross product
    covers all frames at once.
    """
    model = kinematics.model
    T, nv = kinematics.n_frames, model.n_velocity
    if T is None:
        raise ValidationError("inverse dynamics takes the kinematic state of a (T,) trajectory")
    qd = np.asarray(qd, dtype=float)
    qdd = np.asarray(qdd, dtype=float)
    if qd.shape != (T, nv) or qdd.shape != (T, nv):
        raise ValidationError(f"expected velocity/acceleration of shape ({T}, {nv})")

    n = model.n_joint_dofs
    frames = kinematics.frames
    rotation, position, axes = frames[..., :3], frames[..., 3], frames[..., 4]

    # forward sweep: world kinematics of every frame origin, row 0 the base
    # and row 1 + i link i; the base linear acceleration is offset by -g so
    # gravity rides through the recursion
    w = np.empty((1 + n, T, 3))
    al = np.empty((1 + n, T, 3))
    acc = np.empty((1 + n, T, 3))
    w[0], al[0] = qd[:, 3:6], qdd[:, 3:6]
    acc[0] = qdd[:, 0:3] - (0.0, 0.0, -gravity)
    for i, p in enumerate(model._parent_row):
        row = 1 + i
        r = position[row] - position[p]
        s = axes[row]
        s_rate = s * qd[:, 6 + i, None]
        w[row] = w[p] + s_rate
        al[row] = al[p] + s * qdd[:, 6 + i, None] + cross(w[p], s_rate)
        acc[row] = acc[p] + cross(al[p], r) + cross(w[p], cross(w[p], r))

    def body_wrench(seg, R, wi, ali, acci):
        """Inertial force and moment about the frame origin of one segment."""
        rc = R @ seg.com_offset
        a_com = acci + cross(ali, rc) + cross(wi, cross(wi, rc))
        F = seg.mass * a_com
        I_w = R @ seg.inertia @ R.transpose(0, 2, 1)
        N = (I_w @ ali[..., None])[..., 0] + cross(wi, (I_w @ wi[..., None])[..., 0])
        return F, N + cross(rc, F)

    f = np.zeros((1 + n, T, 3))
    m = np.zeros((1 + n, T, 3))
    for row, seg_index in enumerate(model._row_segment):
        if seg_index >= 0 and model.segments[seg_index].mass != 0.0:
            f[row], m[row] = body_wrench(
                model.segments[seg_index], rotation[row], w[row], al[row], acc[row]
            )

    # backward sweep: accumulate subtree wrenches onto the parents, ending at
    # the base wrench about its origin
    tau = np.empty((T, nv))
    for i in range(n - 1, -1, -1):
        row, p = 1 + i, model._parent_row[i]
        tau[:, 6 + i] = np.einsum("tk,tk->t", axes[row], m[row])
        f[p] += f[row]
        m[p] += m[row] + cross(position[row] - position[p], f[row])
    tau[:, 0:3] = f[0]
    tau[:, 3:6] = m[0]
    return tau


STENCIL_FRAMES = 3  # the fewest samples the stencils of time_derivative take


def time_derivative(X: np.ndarray, dt: float, difference=lambda a, b: b - a) -> np.ndarray:
    """Derivative along axis 0 of a uniformly sampled series: central
    differences in the interior, second-order one-sided stencils at the ends
    (exact for quadratic profiles). Needs at least ``STENCIL_FRAMES``
    samples. The stencils take ``difference(a, b)``, the change from sample
    ``a`` to sample ``b``: ``b - a`` by default. With
    :func:`~exoload.geometry.quat_rotvec_between` a ``(T, 4)`` quaternion
    series gives its ``(T, 3)`` world-frame angular velocity."""
    first = 4.0 * difference(X[:1], X[1:2]) - difference(X[:1], X[2:3])
    last = 4.0 * difference(X[-2:-1], X[-1:]) - difference(X[-3:-2], X[-1:])
    return np.concatenate((first, difference(X[:-2], X[2:]), last)) / (2.0 * dt)


def check_sampling(n_frames: int, dt: float) -> None:
    """Raise unless :func:`estimate_derivatives` can take ``n_frames``
    samples ``dt`` apart: at least ``STENCIL_FRAMES`` of them, a positive
    ``dt`` and a rate ``1 / dt`` above twice ``DERIVATIVE_SMOOTHING_HZ``."""
    if n_frames < STENCIL_FRAMES:
        raise ValidationError(
            f"{n_frames} frames, but the derivative stencil needs at least {STENCIL_FRAMES}"
        )
    if dt <= 0.0:
        raise ValidationError("dt must be positive")
    fs = 1.0 / dt
    if DERIVATIVE_SMOOTHING_HZ >= fs / 2.0:
        raise ValidationError(
            f"sample rate {fs:g} Hz must exceed twice the {DERIVATIVE_SMOOTHING_HZ:g} Hz "
            "velocity smoothing cutoff"
        )


def estimate_derivatives(q: JointConfiguration, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Generalized velocities and accelerations ``(T, n_velocity)`` of a
    uniformly sampled joint trajectory ``q``, a ``(T,)``
    :class:`JointConfiguration`.

    Every channel, the base orientation included, goes through
    :func:`time_derivative`. Zero-phase low-pass smoothing at
    ``DERIVATIVE_SMOOTHING_HZ`` then acts on the whole velocity, which is
    differenced once more for the acceleration.
    """
    P, Q, A = q.base_position, q.base_orientation, q.joint_angles
    n = len(q)
    check_sampling(n, dt)

    U = np.column_stack(
        (time_derivative(P, dt), time_derivative(Q, dt, quat_rotvec_between), time_derivative(A, dt))
    )
    fs = 1.0 / dt
    pad = min(round(fs / DERIVATIVE_SMOOTHING_HZ), n - 1)  # one cutoff period: end transients settle in it
    U = sosfiltfilt(butter_sos(2, DERIVATIVE_SMOOTHING_HZ, fs), U, pad)
    return U, time_derivative(U, dt)


# -- passive exoskeleton torque model ---------------------------------------

RATE_TOLERANCE = 1e-6  # deg/s; a flexion rate within +/- this keeps the branch


@dataclass(frozen=True)
class LaevoModel:
    """Piecewise-linear spring with frictional hysteresis, held as the four
    values of an exoskeleton parameter file.

    The spring engages at ``theta_min`` (zero torque) and reaches ``tau_max``
    at ``theta_max`` while the trunk flexes; while extending, frictional
    losses lower the whole branch by ``k_loss``. Output torque is clamped to
    [0, tau_max] outside the engagement range. The model holds no state:
    each call of :func:`laevo_torque_series` starts its series on the
    ascending branch.
    """

    k_loss: float = 10.0  # Nm
    theta_min: float = 20.0  # deg
    theta_max: float = 50.0  # deg
    tau_max: float = 40.0  # Nm

    def __post_init__(self) -> None:
        if self.k_loss < 0.0:
            raise ValidationError("k_loss must be non-negative")
        if not self.tau_max > 0.0:
            raise ValidationError(f"tau_max must be positive, got {self.tau_max!r}")
        if not self.theta_min < self.theta_max:
            raise ValidationError("engagement range must be non-empty")

    def spring_torque(self, theta_deg: float, branch: str) -> float:
        """Unclamped torque on the ``ascending`` or ``descending`` branch.
        Evaluated in the endpoint-anchored form
        ``tau_max * (theta - theta_min) / (theta_max - theta_min)`` so the
        range endpoints are float-exact."""
        tau = self.tau_max * (theta_deg - self.theta_min) / (self.theta_max - self.theta_min)
        if branch == "descending":
            tau -= self.k_loss
        return tau

    def torque(self, theta_deg: float, theta_dot_deg_s: float) -> float:
        """Assistive torque of a one-sample series."""
        return float(laevo_torque_series(self, [theta_deg], [theta_dot_deg_s])[0])


def laevo_torque_series(
    model: LaevoModel, theta_deg: np.ndarray, theta_dot_deg_s: np.ndarray
) -> np.ndarray:
    """The assistive torque of every sample of one series, without stepping
    one sample at a time: a sample is on the descending branch when the last
    rate outside +/-``RATE_TOLERANCE`` up to it is negative, and on the
    ascending branch otherwise, so the series starts ascending."""
    theta_deg = np.asarray(theta_deg, dtype=float)
    rate = np.asarray(theta_dot_deg_s, dtype=float)
    if theta_deg.shape != rate.shape:
        raise ValidationError("angle and rate series must have equal length")
    if not np.isfinite(theta_deg).all():
        raise ValidationError("flexion angle must be finite")
    decisive = (rate > RATE_TOLERANCE) | (rate < -RATE_TOLERANCE)
    # index of the last decisive rate at or before each sample, -1 for none
    last = np.maximum.accumulate(np.where(decisive, np.arange(len(rate)), -1))
    descending = (last >= 0) & (rate[last] < -RATE_TOLERANCE)
    tau = np.where(
        descending, model.spring_torque(theta_deg, "descending"), model.spring_torque(theta_deg, "ascending")
    )
    return np.minimum(np.maximum(tau, 0.0), model.tau_max)


def load_exoskeleton_params(path: str | Path) -> LaevoModel:
    """A ``LaevoModel`` from a JSON object holding exactly its four fields."""
    payload = JsonFields(load_json_file(path), path)
    values = {f.name: payload.get(f.name, float) for f in fields(LaevoModel)}
    payload.reject_unread()
    with prefixed(path):  # the model's own range checks name no file
        return LaevoModel(**values)


# -- torque series and decomposition ----------------------------------------


@dataclass
class TorqueSeries:
    """Per-frame L5/S1 sagittal torques (flexion-positive) plus the back
    flexion angle driving the exoskeleton model."""

    times: np.ndarray  # s
    tau_net: np.ndarray  # Nm
    tau_exo: np.ndarray  # Nm
    theta_deg: np.ndarray
    theta_dot_deg_s: np.ndarray

    @property
    def tau_human(self) -> np.ndarray:
        """The human share in Nm, ``tau_net - tau_exo`` by definition."""
        return self.tau_net - self.tau_exo


def decompose_torque(
    times: np.ndarray,
    tau_net: np.ndarray,
    tau_exo: np.ndarray,
    theta_deg: np.ndarray,
    theta_dot_deg_s: np.ndarray,
) -> TorqueSeries:
    """Split the net lumbar torque into shares: ``tau_human = tau_net -
    tau_exo`` elementwise. The back flexion angle and rate ride along, and
    all five series must have one length."""
    series = TorqueSeries(
        *(np.asarray(a, dtype=float) for a in (times, tau_net, tau_exo, theta_deg, theta_dot_deg_s))
    )
    lengths = {f.name: len(getattr(series, f.name)) for f in fields(series)}
    if len(set(lengths.values())) > 1:
        raise ValidationError("series length mismatch: " + " ".join(f"{k}={n}" for k, n in lengths.items()))
    return series


def net_lumbar_series(kinematics: KinematicState, dt: float) -> np.ndarray:
    """Flexion-positive net L5/S1 sagittal torque of a joint trajectory, from
    the link frames and configurations of its kinematics, under
    ``GRAVITY_DEFAULT``."""
    U, dU = estimate_derivatives(kinematics.configuration, dt)
    tau = inverse_dynamics_series(kinematics, U, dU)
    return LUMBAR_LOAD_SIGN * tau[:, 6 + lumbar_flexion_index(kinematics.model)]


def lumbar_effort_report(
    series: TorqueSeries, annotation: TrialAnnotation
) -> tuple[list[tuple[str, str, DistributionSummary]], dict[str, float]]:
    """Per-label distribution summaries of the net, human and exoskeleton
    torques, as ``(label, channel, summary)`` with channel ``tau_net``,
    ``tau_human`` or ``tau_exo``, plus each label's median-reduction
    percentage ``100 * (median_net - median_human) / median_net``."""
    rows: list[tuple[str, str, DistributionSummary]] = []
    reductions: dict[str, float] = {}
    torques = np.column_stack([series.tau_net, series.tau_human, series.tau_exo])
    for label, values in segment_series(series.times, torques, annotation):
        net, human, exo = (summarize(values[:, j]) for j in range(3))
        rows += [(label, "tau_net", net), (label, "tau_human", human), (label, "tau_exo", exo)]
        if net.median != 0.0:
            reductions[label] = 100.0 * (net.median - human.median) / net.median
    return rows, reductions
