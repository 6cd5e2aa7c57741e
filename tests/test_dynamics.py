import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    bent_configuration,
    moving_base_trajectory,
    reference_inverse_dynamics,
    reference_laevo_torques,
    repeated,
    sinusoid_derivatives,
    sinusoid_trajectory,
)

from exoload import dynamics
from exoload.dynamics import (
    LUMBAR_LOAD_SIGN,
    RATE_TOLERANCE,
    LaevoModel,
    decompose_torque,
    estimate_derivatives,
    inverse_dynamics,
    inverse_dynamics_series,
    laevo_torque_series,
    lumbar_effort_report,
    net_lumbar_series,
    time_derivative,
)
from exoload.errors import ValidationError
from exoload.filters import butter_sos
from exoload.geometry import IDENTITY_QUAT, quat_rotvec_between
from exoload.posture import AnnotationSegment, TrialAnnotation
from exoload.skeleton import (
    Dof,
    Joint,
    JointConfiguration,
    KinematicState,
    Segment,
    SkeletonModel,
    lumbar_flexion_index,
)


def hinge_trajectory(angles, base_orientation=None):
    """A ``(T,)`` trajectory of a one-DoF model on a fixed base origin."""
    n = len(angles)
    if base_orientation is None:
        base_orientation = np.tile(IDENTITY_QUAT, (n, 1))
    return JointConfiguration(np.zeros((n, 3)), base_orientation, np.reshape(angles, (n, 1)))


def single_hinge_model(mass=10.0, com_distance=0.3, inertia_y=0.01):
    """Base plus one hanging link on a single Y hinge: the locked-chain
    pendulum reduction used as the inverse-dynamics oracle."""
    base = Segment("base", 0.1, 0.0, np.zeros(3), np.zeros((3, 3)))
    link = Segment(
        "link",
        2 * com_distance,
        mass,
        np.array([0.0, 0.0, -com_distance]),
        np.diag([inertia_y, inertia_y, inertia_y / 10]),
    )
    hinge = Joint("hinge", "base", "link", np.zeros(3), (Dof("hinge_flexion", np.array([0.0, 1.0, 0.0])),))
    return SkeletonModel([base, link], [hinge], base_segment="base")


def test_pendulum_oracle_static():
    m = single_hinge_model()
    q = JointConfiguration(np.zeros(3), IDENTITY_QUAT, [np.radians(30.0)])
    tau = inverse_dynamics(m, q, np.zeros(7), np.zeros(7))
    expected = 10.0 * 9.81 * 0.3 * np.sin(np.radians(30.0))  # 14.715
    assert tau[6] == pytest.approx(expected, rel=1e-6)
    assert expected == pytest.approx(14.715, abs=1e-12)


def test_zero_gravity_static_is_force_free(model):
    rng = np.random.default_rng(0)
    q = JointConfiguration(
        np.zeros(3), IDENTITY_QUAT, rng.uniform(-0.5, 0.5, model.n_joint_dofs)
    )
    tau = inverse_dynamics(model, q, np.zeros(49), np.zeros(49), gravity=0.0)
    assert np.max(np.abs(tau)) < 1e-10


def test_dynamic_pendulum_matches_equation_of_motion():
    inertia = 0.02
    m = single_hinge_model(mass=4.0, com_distance=0.25, inertia_y=inertia)
    theta, theta_dot, theta_ddot = 0.35, 1.1, -2.4
    u = np.zeros(7)
    u[6] = theta_dot
    du = np.zeros(7)
    du[6] = theta_ddot
    tau = inverse_dynamics(m, JointConfiguration(np.zeros(3), IDENTITY_QUAT, [theta]), u, du)
    expected = (inertia + 4.0 * 0.25**2) * theta_ddot + 4.0 * 9.81 * 0.25 * np.sin(theta)
    assert tau[6] == pytest.approx(expected, rel=1e-12)


def test_symmetric_posture_has_no_lateral_lumbar_torque(model):
    angles = np.zeros(model.n_joint_dofs)
    angles[model.dof_index["lumbar_flexion"]] = 0.5
    for side in ("left", "right"):
        angles[model.dof_index[f"{side}_shoulder_flexion"]] = 0.8
    q = JointConfiguration(np.zeros(3), IDENTITY_QUAT, angles)
    tau = inverse_dynamics(model, q, np.zeros(49), np.zeros(49))
    assert abs(tau[6 + model.dof_index["lumbar_lateral"]]) < 1e-9


def test_static_torques_equal_potential_gradient(model):
    """Gravity-only static generalized forces are the configuration gradient
    of the potential energy (checked by central differences)."""
    g = 9.81
    rng = np.random.default_rng(3)
    angles = rng.uniform(-0.5, 0.5, model.n_joint_dofs)
    q = JointConfiguration(np.array([0.0, 0.0, 1.0]), IDENTITY_QUAT, angles)
    tau = inverse_dynamics(model, q, np.zeros(49), np.zeros(49), g)

    def potential(a):
        state = KinematicState(model, JointConfiguration(q.base_position, q.base_orientation, a))
        coms = state.segment_coms()
        return sum(s.mass * g * coms[model.segment_index[s.name]][2] for s in model.segments)

    h = 1e-6
    for i in range(0, model.n_joint_dofs, 3):
        up, down = angles.copy(), angles.copy()
        up[i] += h
        down[i] -= h
        grad = (potential(up) - potential(down)) / (2 * h)
        assert tau[6 + i] == pytest.approx(grad, rel=1e-5, abs=1e-7)
    # base force carries the whole weight
    assert tau[2] == pytest.approx(model.total_mass * g, rel=1e-12)


@pytest.mark.parametrize("gravity", [9.81], ids=["scalar"])
def test_batched_sweep_matches_per_frame_reference(model, gravity):
    """All 49 generalized forces, base wrench included, on a translating,
    yawing and tilting base agree with the per-frame sweep."""
    configurations = moving_base_trajectory(model, 1.0)
    U, dU = estimate_derivatives(configurations, 1.0 / 240.0)
    tau = inverse_dynamics_series(KinematicState(model, configurations), U, dU, gravity)
    reference = np.array(
        [
            reference_inverse_dynamics(model, q, U[k], dU[k], gravity)
            for k, q in enumerate(configurations)
        ]
    )
    assert tau.shape == reference.shape == (240, 49)
    assert np.max(np.abs(tau - reference)) <= 1e-10
    with pytest.raises(ValidationError, match="state of a \\(T,\\) trajectory"):
        inverse_dynamics_series(KinematicState(model, configurations[0]), U[0], dU[0], gravity)


def test_derivatives_linear_ramp():
    U, dU = estimate_derivatives(hinge_trajectory(0.5 * np.arange(50) / 100.0), 0.01)
    assert np.max(np.abs(U[:, 6] - 0.5)) < 1e-9
    assert np.max(np.abs(dU[:, 6])) < 1e-9


def test_derivatives_quadratic_profile_exact():
    """The stencil, the interior and both one-sided ends, is exact on a
    quadratic profile, so differencing it twice gives the constant second
    derivative at every frame."""
    t = np.arange(50) / 100.0
    velocity = time_derivative(2.0 * t * t, 0.01)
    assert np.max(np.abs(velocity - 4.0 * t)) < 1e-9
    assert np.max(np.abs(time_derivative(velocity, 0.01) - 4.0)) < 1e-9


def test_derivatives_sinusoid_amplitude():
    """Away from the ends, a sinusoid's acceleration peak is the analytic
    one times the gains of the two central differences and of the
    two-pass smoothing filter at that frequency. The ends are left out: the
    filter's start-up transient still lifts the last peak by about 1e-3."""
    fs = 240.0
    t = np.arange(int(2 * fs)) / fs
    amp, freq = 0.3, 1.0
    _, dU = estimate_derivatives(hinge_trajectory(amp * np.sin(2 * np.pi * freq * t)), 1.0 / fs)
    measured = np.max(np.abs(dU[int(fs / 2) : -int(fs / 2), 6]))
    step = 2 * np.pi * freq / fs  # radians per sample
    z = np.exp(-1j * step)
    sos = butter_sos(2, dynamics.DERIVATIVE_SMOOTHING_HZ, fs)
    # |H|^2 of the cascade: one forward and one backward pass
    filter_gain = np.prod([abs(np.polyval(r[2::-1], z) / np.polyval(r[:2:-1], z)) ** 2 for r in sos])
    stencil_gain = (np.sin(step) / step) ** 2
    expected = amp * (2 * np.pi * freq) ** 2 * stencil_gain * filter_gain
    assert 1.0 - filter_gain > 1e-3  # the smoothing is visible at this bound
    assert measured == pytest.approx(expected, rel=1e-6)


def test_derivatives_base_rotation():
    fs = 240.0
    omega = np.array([0.0, 0.0, 1.3])
    from exoload.geometry import rotvec_to_quat

    quats = np.array([rotvec_to_quat(omega * (k / fs)) for k in range(60)])
    U, _ = estimate_derivatives(hinge_trajectory(np.zeros(60), quats), 1.0 / fs)
    assert np.max(np.abs(U[1:-1, 3:6] - omega)) < 1e-9


def test_derivatives_quadratic_yaw_exact_at_both_ends():
    """The orientation channel takes the same second-order stencil as the
    others, through ``quat_rotvec_between``, so a yaw of alpha t^2 / 2 gives
    omega = alpha t and a constant alpha at every frame, the end frames
    included."""
    fs, alpha = 240.0, 2.0
    t = np.arange(60) / fs
    yaw = 0.5 * alpha * t * t
    quats = np.column_stack([np.cos(yaw / 2), np.zeros(60), np.zeros(60), np.sin(yaw / 2)])
    omega = time_derivative(quats, 1.0 / fs, quat_rotvec_between)
    assert np.max(np.abs(omega[:, 2] - alpha * t)) <= 1e-9
    assert np.max(np.abs(time_derivative(omega, 1.0 / fs)[:, 2] - alpha)) <= 1e-9


def test_net_lumbar_series_matches_analytic_derivatives(model):
    """On a 3 s sinusoid whose base also sways and yaws, the lumbar load from
    the smoothed derivative estimate stays close to the load from the
    closed-form derivatives: at most 3 Nm RMS over each end's 48 frames
    (0.2 s, where the 5 Hz filter settles) and 0.05 Nm in between."""
    dt, edge = 1.0 / 240.0, 48
    truth = sinusoid_trajectory(model, 3.0, sway=True)
    qd, qdd = sinusoid_derivatives(model, 3.0, sway=True)
    kinematics = KinematicState(model, truth)
    estimate = net_lumbar_series(kinematics, dt)
    tau = inverse_dynamics_series(kinematics, qd, qdd)
    err = estimate - LUMBAR_LOAD_SIGN * tau[:, 6 + lumbar_flexion_index(model)]

    def rms(e):
        return float(np.sqrt(np.mean(e**2)))

    assert rms(err[:edge]) <= 3.0
    assert rms(err[-edge:]) <= 3.0
    assert rms(err[edge:-edge]) <= 0.05


def test_net_lumbar_series_holds_at_the_end_of_an_accelerating_base(model):
    """A 1 s sinusoid on a base that sways and yaws at 1.2 Hz, so the base is
    still accelerating at the last frame: the lumbar load of the last 24
    frames stays within 1 Nm RMS of the load from the closed-form
    derivatives. A pad shorter than one cutoff period leaves about 8 Nm there."""
    fs, hz = 240.0, 1.2
    q = sinusoid_trajectory(model, 1.0)
    qd, qdd = sinusoid_derivatives(model, 1.0)
    w, t = 2 * np.pi * hz, np.arange(len(q)) / fs
    position = q.base_position.copy()
    for column, amp in ((0, 0.04), (1, 0.03), (5, 0.2)):  # x and y in m, yaw in rad
        if column < 3:
            position[:, column] += amp * np.sin(w * t)
        qd[:, column], qdd[:, column] = amp * w * np.cos(w * t), -amp * w * w * np.sin(w * t)
    yaw, zeros = 0.2 * np.sin(w * t), np.zeros(len(t))
    orientation = np.column_stack([np.cos(yaw / 2), zeros, zeros, np.sin(yaw / 2)])
    kinematics = KinematicState(model, JointConfiguration(position, orientation, q.joint_angles))
    estimate = net_lumbar_series(kinematics, 1.0 / fs)
    tau = inverse_dynamics_series(kinematics, qd, qdd)
    err = estimate - LUMBAR_LOAD_SIGN * tau[:, 6 + lumbar_flexion_index(model)]
    assert float(np.sqrt(np.mean(err[-24:] ** 2))) <= 1.0


def test_derivatives_need_three_frames():
    with pytest.raises(ValidationError):
        estimate_derivatives(hinge_trajectory(np.zeros(2)), 0.01)


def test_derivatives_smooth_at_the_module_cutoff(monkeypatch):
    """The cutoff is read from ``DERIVATIVE_SMOOTHING_HZ`` at each call: a
    rate that passes at 5 Hz fails the sampling rule at 50 Hz, and a lower
    cutoff flattens a 3 Hz sinusoid's velocity further."""
    fs = 100.0
    t = np.arange(200) / fs
    q = hinge_trajectory(0.2 * np.sin(2 * np.pi * 3.0 * t))
    U, _ = estimate_derivatives(q, 1.0 / fs)
    monkeypatch.setattr(dynamics, "DERIVATIVE_SMOOTHING_HZ", 50.0)
    with pytest.raises(ValidationError, match="twice the 50 Hz"):
        estimate_derivatives(q, 1.0 / fs)
    monkeypatch.setattr(dynamics, "DERIVATIVE_SMOOTHING_HZ", 1.0)
    lower, _ = estimate_derivatives(q, 1.0 / fs)
    middle = slice(50, 150)
    assert np.max(np.abs(lower[middle, 6])) < np.max(np.abs(U[middle, 6]))


# -- exoskeleton spring -------------------------------------------------------


def test_laevo_range_endpoints_exact():
    lv = LaevoModel()
    assert lv.torque(50.0, 1.0) == 40.0
    lv = LaevoModel()
    assert lv.torque(20.0, 1.0) == 0.0


def test_laevo_branch_values():
    lv = LaevoModel()
    assert lv.torque(35.0, 1.0) == 20.0
    assert lv.torque(35.0, -1.0) == 10.0
    assert lv.torque(10.0, 1.0) == 0.0
    assert lv.torque(10.0, -1.0) == 0.0
    assert lv.torque(60.0, 1.0) == 40.0


def test_laevo_series_carries_no_state_between_calls():
    """A zero rate holds the branch within a series, but a call that ends
    descending does not carry its branch into the next call on one model."""
    lv = LaevoModel()
    first = laevo_torque_series(lv, [35.0], [0.0])
    assert np.array_equal(laevo_torque_series(lv, [35.0, 35.0], [-1.0, 0.0]), [10.0, 10.0])
    assert np.array_equal(laevo_torque_series(lv, [35.0], [0.0]), first)
    assert first[0] == lv.torque(35.0, 0.0) == 20.0


def test_laevo_reversal_jump_is_k_loss():
    lv = LaevoModel()
    up = lv.torque(35.0, 1.0)
    down = lv.torque(35.0, -1.0)
    assert up - down == 10.0


@given(theta=st.floats(min_value=20.0, max_value=50.0, exclude_min=True, exclude_max=True))
def test_laevo_hysteresis_gap_exact(theta):
    lv = LaevoModel()
    assert lv.spring_torque(theta, "ascending") - lv.spring_torque(theta, "descending") == 10.0


@given(
    a=st.floats(min_value=-30.0, max_value=80.0),
    b=st.floats(min_value=-30.0, max_value=80.0),
)
def test_laevo_monotone_and_clamped(a, b):
    lv = LaevoModel()
    lo, hi = min(a, b), max(a, b)
    t_lo = lv.torque(lo, 1.0)
    lv = LaevoModel()
    t_hi = lv.torque(hi, 1.0)
    assert t_lo <= t_hi
    assert 0.0 <= t_lo <= 40.0 and 0.0 <= t_hi <= 40.0


def test_laevo_invalid_parameters_rejected():
    with pytest.raises(ValidationError):
        LaevoModel(theta_min=50.0, theta_max=20.0)  # empty engagement range
    with pytest.raises(ValidationError):
        LaevoModel(k_loss=-1.0)


def test_laevo_series_is_sequential():
    lv = LaevoModel()
    theta = np.array([30.0, 40.0, 45.0, 42.0, 35.0, 30.0])
    rate = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    out = laevo_torque_series(lv, theta, rate)
    asc = [LaevoModel().spring_torque(t, "ascending") for t in theta[:3]]
    desc = [LaevoModel().spring_torque(t, "descending") for t in theta[3:]]
    assert np.allclose(out, np.clip(asc + desc, 0.0, 40.0))


def test_laevo_series_equals_per_sample_stepping():
    """Rates inside, on and outside the tolerance, a run that holds the
    ascending start, and NaN rates: the array pass gives the stepped torques
    bit for bit."""
    rng = np.random.default_rng(8)
    n = 400
    theta = rng.uniform(10.0, 60.0, n)
    tol = RATE_TOLERANCE
    rate = rng.choice([-30.0, -tol, -0.5 * tol, 0.0, 0.5 * tol, tol, 30.0, np.nan], n)
    rate[:25] = rng.choice([-tol, 0.0, tol], 25)  # the starting branch holds
    lv = LaevoModel()
    for tail in ([], [0.0, 0.0], [-5.0, np.nan]):
        angles, rates = np.append(theta, [30.0] * len(tail)), np.append(rate, tail)
        expected = reference_laevo_torques(lv, angles, rates)
        assert np.array_equal(laevo_torque_series(lv, angles, rates), expected)
    assert laevo_torque_series(lv, np.zeros(0), np.zeros(0)).shape == (0,)


def test_laevo_series_rejects_a_non_finite_angle_like_stepping():
    theta = np.array([30.0, 40.0, 45.0, np.inf, 35.0])
    rate = np.array([1.0, -1.0, -1.0, 1.0, 1.0])
    lv = LaevoModel()
    with pytest.raises(ValidationError, match="flexion angle must be finite"):
        laevo_torque_series(lv, theta, rate)
    with pytest.raises(ValidationError, match="flexion angle must be finite"):
        reference_laevo_torques(lv, theta, rate)


# -- decomposition ------------------------------------------------------------


def test_decompose_examples():
    t = np.arange(3.0)
    theta = np.zeros(3)
    ts = decompose_torque(t, np.full(3, 30.0), np.full(3, 10.0), theta, theta)
    assert np.all(ts.tau_human == 20.0)
    ts = decompose_torque(t, np.full(3, 30.0), np.zeros(3), theta, theta)
    assert np.array_equal(ts.tau_human, ts.tau_net)
    with pytest.raises(ValidationError, match="mismatch"):
        decompose_torque(t, np.zeros(3), np.zeros(4), theta, theta)
    with pytest.raises(ValidationError, match="theta_dot_deg_s=2"):
        decompose_torque(t, np.zeros(3), np.zeros(3), theta, np.zeros(2))


@given(
    net=st.lists(st.floats(-200, 200, allow_nan=False), min_size=1, max_size=30),
    exo=st.floats(0, 40, allow_nan=False),
)
def test_decomposition_identity_elementwise(net, exo):
    n = len(net)
    ts = decompose_torque(np.arange(float(n)), np.array(net), np.full(n, exo), np.zeros(n), np.zeros(n))
    assert np.array_equal(ts.tau_human, ts.tau_net - ts.tau_exo)


def test_static_hold_reduction_ratio(model):
    """Static 40 degree hold: the exoskeleton supplies the ascending-branch
    26.667 Nm and the reduction ratio is tau_exo over tau_net."""
    q = bent_configuration(model)
    tau_raw = inverse_dynamics(model, q, np.zeros(49), np.zeros(49))
    tau_net = LUMBAR_LOAD_SIGN * tau_raw[6 + model.dof_index["lumbar_flexion"]]
    lv = LaevoModel()
    tau_exo = lv.torque(40.0, 0.0)  # initial branch is ascending
    assert tau_exo == pytest.approx(80.0 / 3.0, abs=1e-12)
    # independent static-moment oracle about the lumbar anchor
    state = KinematicState(model, q)
    pelvis = state.segment_pose("pelvis")
    lumbar = next(j for j in model.joints if j.name == "lumbar")
    anchor = pelvis.position + pelvis.rotation @ lumbar.anchor
    above = [
        s.name
        for s in model.segments
        if s.name
        not in ("pelvis", "left_thigh", "right_thigh", "left_shank", "right_shank", "left_foot", "right_foot")
    ]
    coms = state.segment_coms()
    moment = sum(
        model.segment(name).mass * 9.81 * (coms[model.segment_index[name]][0] - anchor[0])
        for name in above
    )
    assert tau_net == pytest.approx(moment, rel=1e-9)
    assert 5.0 <= 100.0 * tau_exo / tau_net <= 30.0


def test_lumbar_effort_report_reduction():
    t = np.arange(10) / 10.0
    annotation = TrialAnnotation("x", (AnnotationSegment("PS", 0.0, 1.0),))
    net = np.full(10, 30.0)
    human = np.full(10, 26.61)
    series = decompose_torque(t, net, net - human, np.zeros(10), np.zeros(10))
    rows, median_reduction_pct = lumbar_effort_report(series, annotation)
    assert median_reduction_pct["PS"] == pytest.approx(11.3, abs=1e-9)
    channels = {(label, channel) for label, channel, _ in rows}
    assert ("PS", "tau_net") in channels and ("PS", "tau_human") in channels


def test_lumbar_effort_report_zero_reduction_and_degenerate():
    t = np.arange(4) / 4.0
    annotation = TrialAnnotation(
        "x", (AnnotationSegment("PS", 0.0, 0.25), AnnotationSegment("SP", 0.25, 1.0))
    )
    net = np.array([30.0, 25.0, 20.0, 22.0])
    series = decompose_torque(t, net, np.zeros(4), np.zeros(4), np.zeros(4))
    rows, median_reduction_pct = lumbar_effort_report(series, annotation)
    assert median_reduction_pct["PS"] == 0.0
    single = [s for label, channel, s in rows if label == "PS" and channel == "tau_net"][0]
    assert single.n == 1
    assert single.q1 == single.median == single.q3 == 30.0


def test_net_lumbar_series_static_hold(model):
    q = bent_configuration(model)
    kinematics = KinematicState(model, repeated(q, 16))
    series = net_lumbar_series(kinematics, 1.0 / 240.0)
    tau_raw = inverse_dynamics(model, q, np.zeros(49), np.zeros(49))
    expected = LUMBAR_LOAD_SIGN * tau_raw[6 + model.dof_index["lumbar_flexion"]]
    assert np.max(np.abs(series - expected)) < 1e-9


def test_bundled_exoskeleton_params_match_defaults(tmp_path):
    """A parameter file written from the ``LaevoModel`` defaults, the one
    source of them, loads back as the defaults."""
    import json as _json

    from exoload.dynamics import load_exoskeleton_params

    default = LaevoModel()
    path = tmp_path / "laevo.json"
    path.write_text(_json.dumps(dataclasses.asdict(default)))
    assert load_exoskeleton_params(path) == default


def test_exoskeleton_params_file_validation(tmp_path):
    import json as _json

    from exoload.dynamics import load_exoskeleton_params

    # the spring line through (theta_min, 0) and (theta_max, tau_max) is not
    # restated in the file
    stated = tmp_path / "exo.json"
    stated.write_text(_json.dumps(dict(GOOD_LAEVO, k0=-80.0 / 3.0, k1=4.0 / 3.0)))
    with pytest.raises(ValidationError, match=r"exo\.json: unknown field\(s\) k0, k1$"):
        load_exoskeleton_params(stated)
    missing = tmp_path / "missing.json"
    missing.write_text(_json.dumps({"k_loss": 10.0}))
    with pytest.raises(ValidationError, match="missing field theta_min"):
        load_exoskeleton_params(missing)


GOOD_LAEVO = {
    "k_loss": 10.0,
    "theta_min": 20.0,
    "theta_max": 50.0,
    "tau_max": 40.0,
}


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",
        json.dumps(dict(GOOD_LAEVO, k0="x")),
        json.dumps(dict(GOOD_LAEVO, k_loss=True)),
        json.dumps(dict(GOOD_LAEVO, tau_max="40")),
        json.dumps(dict(GOOD_LAEVO, theta_max=float("nan"))),
        json.dumps(dict(GOOD_LAEVO, theta_max=10**400)),
        json.dumps(dict(GOOD_LAEVO, k_loss=-1.0)),
        json.dumps(dict(GOOD_LAEVO, k1=4.0 / 3.0 + 1e-9)),  # the spring line is not a field
        json.dumps(dict(GOOD_LAEVO, k2=1.0)),
    ],
    ids=[
        "list",
        "k0-string",
        "bool",
        "tau-string",
        "nan",
        "huge-int",
        "negative-loss",
        "k1-off-line",
        "unknown-field",
    ],
)
def test_malformed_exoskeleton_params_name_the_file(tmp_path, text):
    from exoload.dynamics import load_exoskeleton_params

    path = tmp_path / "exo.json"
    path.write_text(text)
    with pytest.raises(ValidationError, match="exo.json"):
        load_exoskeleton_params(path)


def test_power_balance_under_motion(model):
    """tau^T u equals the total mechanical energy rate on a moving multi-joint
    state: validates the inertial and Coriolis terms of the whole tree."""
    from exoload.skeleton import integrate_configuration, task_jacobian

    rng = np.random.default_rng(12)
    g = 9.81

    def energy(q, u):
        state = KinematicState(model, q)
        total = 0.0
        for seg in model.segments:
            J = state.jacobian(seg.name, "both")
            v_origin, w = J[0:3] @ u, J[3:6] @ u
            pose = state.segment_pose(seg.name)
            com = state.segment_coms()[model.segment_index[seg.name]]
            v = v_origin + np.cross(w, com - pose.position)
            I_w = pose.rotation @ seg.inertia @ pose.rotation.T
            total += 0.5 * seg.mass * float(v @ v) + 0.5 * float(w @ I_w @ w)
            total += seg.mass * g * com[2]
        return total

    q = JointConfiguration(rng.normal(size=3), IDENTITY_QUAT, rng.uniform(-0.6, 0.6, 43))
    u = rng.normal(size=49) * 0.5
    du = rng.normal(size=49) * 2.0
    tau = inverse_dynamics(model, q, u, du, g)
    h = 1e-6
    e_plus = energy(integrate_configuration(model, q, u, h), u + du * h)
    e_minus = energy(integrate_configuration(model, q, u, -h), u - du * h)
    dedt = (e_plus - e_minus) / (2 * h)
    assert float(tau @ u) == pytest.approx(dedt, rel=1e-6)
