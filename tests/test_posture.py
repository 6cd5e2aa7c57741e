import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import moving_base_trajectory

from exoload.errors import ValidationError
from exoload.geometry import axis_angle_matrix
from exoload.posture import (
    AnnotationSegment,
    TrialAnnotation,
    posture_profile,
    segment_series,
    summarize,
    thorax_flexion_deg,
    time_fraction_above,
    tukey_whiskers,
)
from exoload.skeleton import KinematicState


def test_upright_thorax_is_zero():
    assert thorax_flexion_deg(np.eye(3)) == 0.0


def test_pitched_thorax_matches_constructed_rotation():
    R = axis_angle_matrix(np.array([0.0, 1.0, 0.0]), np.radians(30.0))
    assert thorax_flexion_deg(R) == pytest.approx(30.0, abs=1e-9)


def test_axial_rotation_leaves_angle_unchanged():
    pitch = axis_angle_matrix(np.array([0.0, 1.0, 0.0]), np.radians(25.0))
    # rotation about the thorax longitudinal axis (local Z) never moves it
    spun = pitch @ axis_angle_matrix(np.array([0.0, 0.0, 1.0]), np.radians(70.0))
    assert thorax_flexion_deg(spun) == pytest.approx(thorax_flexion_deg(pitch), abs=1e-9)
    yaw_only = axis_angle_matrix(np.array([0.0, 0.0, 1.0]), np.radians(45.0))
    assert thorax_flexion_deg(yaw_only) == 0.0


def test_stacked_thorax_flexion_equals_per_matrix_calls(model):
    """A (T, 3, 3) stack of thorax rotations, strided as the pipeline reads
    them from the link frames, and a (2, T, 3, 3) stack give the angles of
    one call per matrix bit for bit."""
    rotations = KinematicState(model, moving_base_trajectory(model, 1.0)).segment_rotation(
        "thorax"
    )
    angles = thorax_flexion_deg(rotations)
    assert angles.shape == (240,)
    assert np.array_equal(angles, [thorax_flexion_deg(R) for R in rotations])
    both = np.stack((rotations, rotations.transpose(0, 2, 1)))
    assert np.array_equal(
        thorax_flexion_deg(both), [[thorax_flexion_deg(R) for R in stack] for stack in both]
    )


def test_annotation_validation():
    with pytest.raises(ValidationError, match="unknown segment label"):
        AnnotationSegment("warmup", 0.0, 1.0)
    with pytest.raises(ValidationError, match="precede"):
        AnnotationSegment("PS", 1.0, 1.0)
    with pytest.raises(ValidationError, match="overlap"):
        TrialAnnotation(
            "t",
            (AnnotationSegment("PS", 0.0, 2.0), AnnotationSegment("SP", 1.5, 3.0)),
        )
    with pytest.raises(ValidationError, match="label 'PS' names more than one segment"):
        TrialAnnotation(
            "t",
            (AnnotationSegment("PS", 0.0, 0.5), AnnotationSegment("PS", 0.5, 1.0)),
        )


def test_segment_series_slices():
    times = np.arange(10) / 10.0
    values = np.arange(10.0)
    ann = TrialAnnotation(
        "t", (AnnotationSegment("PS", 0.0, 0.3), AnnotationSegment("SP", 0.5, 0.8))
    )
    slices = segment_series(times, values, ann)
    assert [label for label, _ in slices] == ["PS", "SP"]
    assert np.array_equal(slices[0][1], [0.0, 1.0, 2.0])  # [start, end) assignment
    assert np.array_equal(slices[1][1], [5.0, 6.0, 7.0])
    assert sum(len(v) for _, v in slices) <= len(values)


def test_segment_series_empty_annotation_and_out_of_range():
    times = np.arange(5) / 10.0
    values = np.zeros(5)
    assert segment_series(times, values, TrialAnnotation("t", ())) == []
    with pytest.raises(ValidationError, match="outside the recorded range"):
        segment_series(times, values, TrialAnnotation("t", (AnnotationSegment("PS", 0.0, 2.0),)))


@pytest.mark.parametrize("overrun, allowed", [(0.49, True), (0.51, False)])
def test_segment_series_allows_half_a_period_past_the_recorded_range(overrun, allowed):
    """The recorded range of samples 0.1 s apart is [0.0, 0.5]: a window may
    overrun it by under half a period at either end and selects the samples
    of the exact window; by over half a period it is an error."""
    times = np.arange(5) / 10.0
    values = np.arange(5.0)
    slack = overrun * 0.1
    for exact, wide in [((0.0, 0.3), (-slack, 0.3)), ((0.2, 0.5), (0.2, 0.5 + slack))]:
        annotation = TrialAnnotation("t", (AnnotationSegment("PS", *wide),))
        if allowed:
            expected = segment_series(times, values, TrialAnnotation("t", (AnnotationSegment("PS", *exact),)))
            assert np.array_equal(segment_series(times, values, annotation)[0][1], expected[0][1])
        else:
            with pytest.raises(ValidationError, match="outside the recorded range"):
                segment_series(times, values, annotation)


def test_time_fraction_examples():
    assert time_fraction_above(np.full(10, 25.0), 20.0) == 1.0
    assert time_fraction_above(np.full(10, 25.0), 30.0) == 0.0
    wave = np.concatenate([np.full(40, 30.0), np.full(60, 10.0)])
    assert time_fraction_above(wave, 20.0) == 0.4
    # strict comparison: samples exactly at the threshold do not count
    assert time_fraction_above(np.full(4, 20.0), 20.0) == 0.0
    with pytest.raises(ValidationError):
        time_fraction_above(np.array([]), 20.0)


def test_posture_profile_examples():
    series = np.full(100, 50.0)
    profile = posture_profile(series)
    assert profile[20.0] == 1.0 and profile[45.0] == 1.0 and profile[60.0] == 0.0
    zeros = posture_profile(np.zeros(10))
    assert all(v == 0.0 for v in zeros.values())


@given(st.lists(st.floats(-90, 90, allow_nan=False), min_size=1, max_size=200))
def test_posture_profile_monotone(series):
    profile = posture_profile(np.array(series))
    assert profile[20.0] >= profile[45.0] >= profile[60.0]


def test_summarize_small_order_statistics():
    s = summarize(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    assert (s.q1, s.median, s.q3) == (2.0, 3.0, 4.0)
    assert (s.minimum, s.maximum, s.n) == (1.0, 5.0, 5)
    assert s.mean == 3.0
    assert s.stdev == pytest.approx(np.std([1, 2, 3, 4, 5], ddof=1))


def test_summarize_constant_and_single():
    s = summarize(np.full(7, 4.2))
    assert s.stdev == 0.0
    single = summarize(np.array([3.3]))
    assert single.n == 1 and single.stdev == 0.0
    assert single.q1 == single.median == single.q3 == 3.3
    with pytest.raises(ValidationError):
        summarize(np.array([]))


def _quartile_series(rng: np.random.Generator, n: int) -> np.ndarray:
    """A series of length ``n`` in one of four shapes: spread floats, values
    rounded to a few digits, heavy ties, or signed zeros among ties."""
    kind = rng.integers(4)
    if kind == 0:
        return rng.normal(0.0, 10.0 ** rng.integers(-3, 4), n)
    if kind == 1:
        return np.round(rng.normal(0.0, 50.0, n), int(rng.integers(0, 3)))
    if kind == 2:
        return rng.choice(rng.normal(0.0, 5.0, 3), n)
    return rng.choice(np.array([-0.0, 0.0, -1.5, 2.25]), n)


def test_summarize_quartiles_match_np_percentile_bit_for_bit():
    rng = np.random.default_rng(20240117)
    lengths = [1, 2, 3, 4, 5] * 40 + list(rng.integers(6, 400, 300))
    for n in lengths:
        series = _quartile_series(rng, int(n))
        s = summarize(series)
        got = np.array([s.q1, s.median, s.q3])
        oracle = np.percentile(np.sort(series), [25.0, 50.0, 75.0])
        # np.percentile partitions, so a series holding both -0.0 and 0.0 may
        # put either first: only the sign of a zero quartile may differ there
        zero_signs = np.signbit(series[series == 0.0])
        if zero_signs.any() and not zero_signs.all():
            sign_free = (got == 0.0) & (oracle == 0.0)
            got, oracle = np.where(sign_free, 0.0, got), np.where(sign_free, 0.0, oracle)
        assert got.tobytes() == oracle.tobytes(), (n, series)


@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=100))
def test_summarize_permutation_invariant(values):
    rng = np.random.default_rng(0)
    a = np.array(values)
    b = a.copy()
    rng.shuffle(b)
    sa, sb = summarize(a), summarize(b)
    assert sa == sb


@given(
    st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=2, max_size=50),
    st.floats(-100, 100, allow_nan=False),
)
def test_summarize_translation_equivariant(values, shift):
    base = summarize(np.array(values))
    moved = summarize(np.array(values) + shift)
    for field in ("mean", "minimum", "q1", "median", "q3", "maximum"):
        assert getattr(moved, field) == pytest.approx(getattr(base, field) + shift, abs=1e-6)
    assert moved.stdev == pytest.approx(base.stdev, abs=1e-6)


def test_tukey_whiskers_clamped_to_range():
    s = summarize(np.array([1.0, 2.0, 3.0, 4.0, 100.0]))
    lo, hi = tukey_whiskers(s)
    assert lo >= s.minimum and hi <= s.maximum
    assert hi < 100.0  # the outlier sits beyond the 1.5 IQR whisker
