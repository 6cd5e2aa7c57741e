import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from helpers import synthetic_ecg

from exoload.biosignals import (
    EcgRecord,
    EmgRecord,
    detect_r_peaks,
    emg_change_pct,
    emg_envelope,
    heart_rate_stats,
    instantaneous_heart_rate,
    moving_mean_centered,
    settle_samples,
    signal_rms,
    validate_channel_code,
)
from exoload.errors import NumericalError, ValidationError
from exoload.filters import butter_sos, sosfilt

FS_EMG = 4370.0


def test_record_validation():
    with pytest.raises(ValidationError, match="muscle code"):
        EmgRecord(FS_EMG, {"XXX": np.zeros(10)})
    with pytest.raises(ValidationError, match="equal length"):
        EmgRecord(FS_EMG, {"ESL_L": np.zeros(10), "ESL_R": np.zeros(11)})
    with pytest.raises(ValidationError, match="sample rate"):
        EcgRecord(100.0, np.zeros(10))
    assert validate_channel_code("TAL") == "TAL"
    assert validate_channel_code("ESL_R") == "ESL"


def test_emg_record_rejects_non_finite_samples():
    bad = np.zeros(10)
    bad[7] = np.inf
    with pytest.raises(ValidationError, match="EMG channel 'ESL_R': non-finite value at index 7"):
        EmgRecord(FS_EMG, {"ESL_L": np.zeros(10), "ESL_R": bad})


def test_ecg_record_rejects_non_finite_samples():
    bad = np.zeros(10)
    bad[4] = np.nan
    with pytest.raises(ValidationError, match="ECG samples: non-finite value at index 4"):
        EcgRecord(1000.0, bad)


def test_zero_signal_gives_zero_envelope():
    env = emg_envelope(np.zeros(10000), FS_EMG)
    assert np.max(np.abs(env)) == 0.0


def test_sine_envelope_steady_state():
    t = np.arange(int(10 * FS_EMG)) / FS_EMG
    x = 100.0 * np.sin(2 * np.pi * 1.0 * t)
    env = emg_envelope(x, FS_EMG)
    steady = env[settle_samples(FS_EMG) :]
    assert signal_rms(steady) == pytest.approx(100.0 / np.sqrt(2.0), rel=0.02)


def test_envelope_positive_homogeneity():
    rng = np.random.default_rng(1)
    x = rng.normal(0, 30.0, 20000)
    env1 = emg_envelope(x, FS_EMG)
    env2 = emg_envelope(2.0 * x, FS_EMG)
    assert np.max(np.abs(env2 - 2.0 * env1)) < 1e-9


def test_envelope_non_negative_on_bursts():
    rng = np.random.default_rng(2)
    x = np.zeros(40000)
    x[10000:20000] = rng.normal(0, 80.0, 10000)  # hard onset/offset
    env = emg_envelope(x, FS_EMG)
    assert np.min(env) >= -1e-9


def test_envelope_window_must_fit():
    with pytest.raises(ValidationError, match="window"):
        emg_envelope(np.zeros(100), FS_EMG)


def test_lowpass_impulse_response_decays():
    """The 10 Hz low-pass stage must ring down below 1e-6 of its peak within
    one second at the EMG rate."""
    impulse = np.zeros(int(2 * FS_EMG))
    impulse[0] = 1.0
    h = sosfilt(butter_sos(4, 10.0, FS_EMG), impulse)
    peak = np.max(np.abs(h))
    assert np.max(np.abs(h[int(FS_EMG) :])) < 1e-6 * peak


def test_change_pct_examples():
    base = np.full(1000, 100.0)
    assert emg_change_pct(base, base) == 0.0
    assert emg_change_pct(np.full(1000, 80.0), base) == pytest.approx(-20.0, abs=1e-12)
    # common gain cancels
    assert emg_change_pct(3.7 * np.full(1000, 80.0), 3.7 * base) == pytest.approx(-20.0, rel=1e-12)
    with pytest.raises(ValidationError, match="zero RMS"):
        emg_change_pct(base, np.zeros(10))


@given(
    ra=st.floats(min_value=1e-3, max_value=1e4),
    rb=st.floats(min_value=1e-3, max_value=1e4),
)
@example(ra=6487.778657820397, rb=0.001)
def test_change_pct_antisymmetry(ra, rb):
    a, b = np.full(10, ra), np.full(10, rb)
    ab = emg_change_pct(a, b)
    ba = emg_change_pct(b, a)
    assume(abs(100.0 + ba) > 1e-9)
    # the oracle divides by 100 + ba, which cancels when rb << ra: a few ulps
    # of error in ba grow by |ba| / |100 + ba|
    eps = np.finfo(float).eps
    rel = 1e-9 + 4.0 * eps * abs(ba) / abs(100.0 + ba)
    assert ab == pytest.approx(-100.0 * ba / (100.0 + ba), rel=rel)


def test_r_peaks_on_noisy_train():
    fs = 1000.0
    sig, truth = synthetic_ecg(fs, 60.0, 60.0, snr_db=20.0)
    beats = detect_r_peaks(sig, fs)
    hr = instantaneous_heart_rate(beats)
    assert np.median(hr.bpm) == pytest.approx(60.0, abs=0.5)


def test_r_peaks_exact_count_on_clean_signal():
    fs = 1000.0
    sig, truth = synthetic_ecg(fs, 60.0, 72.0)
    beats = detect_r_peaks(sig, fs)
    assert len(beats) == len(truth)
    assert np.max(np.abs(beats - truth)) < 0.05


def test_r_peaks_amplitude_invariance():
    fs = 1000.0
    sig, _ = synthetic_ecg(fs, 30.0, 66.0, snr_db=25.0, seed=4)
    b1 = detect_r_peaks(sig, fs)
    b2 = detect_r_peaks(2.0 * sig, fs)
    assert np.array_equal(b1, b2)


def test_r_peaks_flat_signal_errors():
    with pytest.raises(NumericalError, match="no peaks"):
        detect_r_peaks(np.zeros(8000), 1000.0)


def test_r_peaks_need_five_seconds():
    with pytest.raises(ValidationError, match="5 s"):
        detect_r_peaks(np.zeros(1000), 1000.0)


def test_instantaneous_rate_rejects_artifacts():
    beats = np.array([0.0, 1.0, 1.05, 2.05])  # middle interval = 1200 bpm
    hr = instantaneous_heart_rate(beats)
    assert hr.bpm.tolist() == pytest.approx([60.0, 60.0], rel=1e-12)
    with pytest.raises(ValidationError):
        instantaneous_heart_rate(np.array([0.0]))


def test_heart_rate_stats_constant_rr():
    stats = heart_rate_stats(np.arange(0.0, 60.0, 1.0))
    assert stats.n == 59
    assert stats.median == 60.0


def test_heart_rate_stats_alternating_rr():
    beats = np.cumsum(np.concatenate([[0.0], np.tile([0.8, 1.2], 15)]))
    stats = heart_rate_stats(beats)
    assert stats.median == pytest.approx(62.5, abs=1e-9)


def test_heart_rate_stats_insufficient_beats():
    """Fewer than two beats, or beats whose every RR interval is rejected as
    an artifact, give no heart rate; the error names the valid range."""
    with pytest.raises(ValidationError, match="at least two beats"):
        heart_rate_stats(np.array([0.2]))
    with pytest.raises(ValidationError, match=r"no RR interval gives a heart rate inside \(20, 250\) bpm$"):
        heart_rate_stats(np.array([0.2, 0.3, 0.4]))  # 600 bpm each


def test_heart_rate_table_formatting_value():
    """Median formats to two decimals as in the summary tables."""
    target = 47.55
    rr = 60.0 / target
    beats = np.arange(0.0, 120.0, rr)
    stats = heart_rate_stats(beats)
    assert f"{stats.median:.2f}" == "47.55"


def gathered_moving_mean(x, window):
    """The whole-channel gather form: one clipped window per sample."""
    n = len(x)
    csum = np.concatenate(([0.0], np.cumsum(x)))
    idx = np.arange(n)
    left = np.clip(idx - (window - 1) // 2, 0, n)
    right = np.clip(idx + window // 2 + 1, 0, n)
    return (csum[right] - csum[left]) / (right - left)


@pytest.mark.parametrize("n, window", [(1000, 200), (1000, 201), (1000, 1), (1000, 2), (7, 7), (8, 8), (9, 3)])
def test_moving_mean_equals_gather_form_bit_for_bit(n, window):
    x = np.random.default_rng(n + window).normal(size=n) ** 2
    assert moving_mean_centered(x, window).tobytes() == gathered_moving_mean(x, window).tobytes()
