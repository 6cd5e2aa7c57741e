"""EMG envelope processing, EMG change tables, R-peak detection and heart-rate
statistics.

EMG pipeline: rectify, moving RMS over a 100 ms centered window, then a causal
4th-order Butterworth low-pass at 10 Hz, designed by the bilinear transform
with cutoff prewarping and run as a cascade of two second-order sections
(:mod:`exoload.filters`). RMS statistics downstream exclude the first 0.5 s of
settling.

The heart-rate path uses an integration-and-adaptive-threshold R-peak detector
(band-pass, derivative, squaring, moving integration, adaptive threshold with
a 250 ms refractory period). All thresholds derive from signal statistics, so
beat times are invariant to amplitude scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError, require_finite
from .filters import butter_sos, sosfilt
from .posture import DistributionSummary, summarize

MUSCLE_CODES = ("ESL", "ESI", "TA", "BF", "RA", "RF", "GM", "TAL")

EMG_RMS_WINDOW_S = 0.100
EMG_LOWPASS_HZ = 10.0
EMG_LOWPASS_ORDER = 4
EMG_SETTLE_S = 0.5

ECG_BAND_HZ = (5.0, 15.0)
ECG_INTEGRATION_S = 0.150
ECG_REFRACTORY_S = 0.250
HR_VALID_BPM = (20.0, 250.0)


def validate_channel_code(name: str) -> str:
    """Channel names are a muscle code with an optional _L/_R side suffix."""
    code = name.split("_")[0].upper()
    if code not in MUSCLE_CODES:
        raise ValidationError(f"unknown muscle code in channel {name!r}; known: {MUSCLE_CODES}")
    return code


@dataclass
class EmgRecord:
    """Equal-length, finite EMG channels sampled at one rate."""

    sample_rate: float  # Hz
    channels: dict[str, np.ndarray]  # microvolts

    def __post_init__(self) -> None:
        if self.sample_rate <= 2.0 * EMG_LOWPASS_HZ:
            raise ValidationError("EMG sample rate must exceed twice the filter cutoff")
        lengths = {len(v) for v in self.channels.values()}
        if len(lengths) > 1:
            raise ValidationError("EMG channels must have equal length")
        for name, samples in self.channels.items():
            validate_channel_code(name)
            require_finite(samples, f"EMG channel {name!r}")


@dataclass
class EcgRecord:
    """One finite ECG channel sampled at 250 Hz or more."""

    sample_rate: float  # Hz
    samples: np.ndarray  # millivolts

    def __post_init__(self) -> None:
        if self.sample_rate < 250.0:
            raise ValidationError("ECG sample rate must be at least 250 Hz")
        require_finite(self.samples, "ECG samples")


@dataclass
class HeartRateSeries:
    """Instantaneous heart rate, one sample per RR interval inside
    ``HR_VALID_BPM``, in beat order."""

    bpm: np.ndarray


def moving_mean_centered(x: np.ndarray, window: int) -> np.ndarray:
    """Centered moving mean with partial windows at the edges. Sample i
    averages ``x[i - (window - 1) // 2 : i + window // 2 + 1]``, clipped to
    the signal."""
    n = len(x)
    before, after = (window - 1) // 2, window // 2
    csum = np.concatenate(([0.0], np.cumsum(x)))
    out = np.empty(n)
    # full windows from slices of the cumulative sum
    full = max(n + 1 - window, 0)
    out[before : before + full] = (csum[window : window + full] - csum[:full]) / window
    # partial windows at the two edges
    edges = np.r_[0 : min(before, n), before + full : n]
    left = np.maximum(edges - before, 0)
    right = np.minimum(edges + after + 1, n)
    out[edges] = (csum[right] - csum[left]) / (right - left)
    return out


def emg_envelope(raw: np.ndarray, fs: float) -> np.ndarray:
    """Rectified, RMS-windowed, low-pass-filtered activity envelope.

    The output is floored at zero: the Butterworth stage can undershoot by a
    sliver on sharp onsets and an envelope is non-negative by definition.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.size == 0:
        raise ValidationError("empty EMG channel")
    window = int(round(EMG_RMS_WINDOW_S * fs))
    if window < 1 or window > raw.size:
        raise ValidationError(
            f"RMS window of {window} samples does not fit a signal of {raw.size} samples"
        )
    rms = np.sqrt(moving_mean_centered(raw * raw, window))
    return np.maximum(sosfilt(butter_sos(EMG_LOWPASS_ORDER, EMG_LOWPASS_HZ, fs), rms), 0.0)


def signal_rms(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValidationError("empty signal")
    return float(np.sqrt(np.mean(x * x)))


def emg_change_pct(trial_envelope: np.ndarray, baseline_envelope: np.ndarray) -> float:
    """Relative RMS change of a trial envelope against a baseline envelope, in
    percent; negative values mean a reduction."""
    rms_base = signal_rms(baseline_envelope)
    if rms_base == 0.0:
        raise ValidationError("baseline envelope has zero RMS")
    rms_trial = signal_rms(trial_envelope)
    return 100.0 * (rms_trial - rms_base) / rms_base


def settle_samples(fs: float) -> int:
    return int(round(EMG_SETTLE_S * fs))


def settled_envelope(raw: np.ndarray, fs: float) -> np.ndarray:
    """The envelope of a recording without its settle-in of
    ``settle_samples(fs)``; a recording that does not outlast it is an
    error."""
    settle = settle_samples(fs)
    env = emg_envelope(raw, fs)
    if env.size <= settle:
        raise ValidationError(
            f"empty signal: {env.size} samples do not outlast the {settle}-sample settle-in"
        )
    return env[settle:]


def detect_r_peaks(ecg: np.ndarray, fs: float) -> np.ndarray:
    """Beat times (s) via band-pass, derivative, squaring, moving integration
    and an adaptive threshold with a 250 ms refractory period."""
    ecg = np.asarray(ecg, dtype=float)
    if ecg.size / fs < 5.0:
        raise ValidationError("R-peak detection needs at least 5 s of signal")

    band = sosfilt(butter_sos(2, ECG_BAND_HZ, fs, "bandpass"), ecg - np.mean(ecg))
    deriv = np.gradient(band)
    squared = deriv * deriv
    window = max(1, int(round(ECG_INTEGRATION_S * fs)))
    integrated = moving_mean_centered(squared, window)

    # candidate peaks: strict rise, non-strict fall (deterministic tie-break)
    rising = integrated[1:-1] > integrated[:-2]
    falling = integrated[1:-1] >= integrated[2:]
    candidates = np.nonzero(rising & falling)[0] + 1
    if candidates.size == 0 or float(np.max(integrated)) <= 0.0:
        raise NumericalError("no peaks found in the ECG signal")

    # adaptive threshold seeded from the first two seconds (relative measures
    # only, so scaling the input leaves every decision unchanged)
    head = integrated[: max(window, int(round(2.0 * fs)))]
    spk = float(np.max(head)) * 0.5
    npk = float(np.mean(head)) * 0.5
    refractory = ECG_REFRACTORY_S * fs

    accepted: list[int] = []
    for c in candidates:
        level = float(integrated[c])
        threshold = npk + 0.25 * (spk - npk)
        if accepted and c - accepted[-1] < refractory:
            npk = 0.875 * npk + 0.125 * level
            continue
        if level > threshold:
            accepted.append(int(c))
            spk = 0.875 * spk + 0.125 * level
        else:
            npk = 0.875 * npk + 0.125 * level
    if not accepted:
        raise NumericalError("no peaks found above the adaptive threshold")

    # refine each beat to the dominant raw deflection near the integration
    # peak; searching the raw signal sidesteps the band-pass group delay
    beats = np.empty(len(accepted))
    magnitude = np.abs(ecg - np.mean(ecg))
    half = window
    for i, c in enumerate(accepted):
        lo = max(0, c - half)
        hi = min(len(magnitude), c + half + 1)
        beats[i] = (lo + int(np.argmax(magnitude[lo:hi]))) / fs
    return beats


def instantaneous_heart_rate(beat_times: np.ndarray) -> HeartRateSeries:
    """60/RR per consecutive beat pair, artifact-rejected to (20, 250) bpm."""
    beat_times = np.asarray(beat_times, dtype=float)
    if beat_times.size < 2:
        raise ValidationError("need at least two beats for a heart rate")
    rr = np.diff(beat_times)
    bpm = 60.0 / rr
    keep = (bpm > HR_VALID_BPM[0]) & (bpm < HR_VALID_BPM[1])
    return HeartRateSeries(bpm[keep])


def heart_rate_stats(beat_times: np.ndarray) -> DistributionSummary:
    """Distribution summary of the instantaneous heart rate of one recording."""
    bpm = instantaneous_heart_rate(beat_times).bpm
    if bpm.size == 0:
        low, high = HR_VALID_BPM
        raise ValidationError(f"no RR interval gives a heart rate inside ({low:g}, {high:g}) bpm")
    return summarize(bpm)
