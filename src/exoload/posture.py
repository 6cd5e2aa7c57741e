"""Back-flexion angle extraction, trial segmentation, postural exposure
metrics and distribution summaries.

The back flexion angle is the sagittal-plane inclination of the thorax
longitudinal axis from the gravity vertical, in degrees, upright = 0, forward
flexion positive. Pure axial rotation of the thorax leaves the longitudinal
axis unchanged and therefore the angle too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, sample_period

SEGMENT_LABELS = ("PS", "SP", "control", "head", "side")

POSTURE_THRESHOLDS_DEG = (20.0, 45.0, 60.0)


@dataclass(frozen=True)
class AnnotationSegment:
    """One labelled time window ``[start, end)`` of a trial."""

    label: str
    start: float  # s
    end: float  # s

    def __post_init__(self) -> None:
        if self.label not in SEGMENT_LABELS:
            raise ValidationError(
                f"unknown segment label {self.label!r}; expected one of {SEGMENT_LABELS}"
            )
        if not self.start < self.end:
            raise ValidationError(
                f"segment {self.label!r}: start {self.start} must precede end {self.end}"
            )


@dataclass(frozen=True)
class TrialAnnotation:
    """The non-overlapping labelled segments of one trial, each label once:
    the summaries and the torque reductions are keyed by label."""

    trial_id: str
    segments: tuple[AnnotationSegment, ...]

    def __post_init__(self) -> None:
        labels = [s.label for s in self.segments]
        for label in labels:
            if labels.count(label) > 1:
                raise ValidationError(f"trial {self.trial_id!r}: label {label!r} names more than one segment")
        ordered = sorted(self.segments, key=lambda s: s.start)
        for a, b in zip(ordered, ordered[1:]):
            if b.start < a.end:
                raise ValidationError(
                    f"trial {self.trial_id!r}: segments {a.label!r} and {b.label!r} overlap"
                )


@dataclass(frozen=True)
class DistributionSummary:
    """Count, mean, sample standard deviation and five-number summary of a series."""

    n: int
    mean: float
    stdev: float  # sample (n-1); 0.0 when n == 1
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float


def thorax_flexion_deg(rotation: np.ndarray) -> np.ndarray:
    """Sagittal inclination of a thorax rotation matrix, degrees; a
    ``(..., 3, 3)`` stack of rotations gives the ``(...)`` angles."""
    axis = np.asarray(rotation)[..., :, 2]
    return np.degrees(np.arctan2(axis[..., 0], axis[..., 2]))


def segment_series(
    times: np.ndarray, values: np.ndarray, annotation: TrialAnnotation
) -> list[tuple[str, np.ndarray]]:
    """Slice a time series by annotation segments. Samples are assigned by the
    closed-open interval [start, end); values are passed through bit-exactly.

    Each sample represents one sampling interval, so the recorded range runs
    from the first timestamp to one ``sample_period`` past the last. A window
    may overrun that range by up to half a period on either side: it selects
    the same samples, and rounded timestamps move the period far less. A
    window that selects no sample is an error: no summary can be made of it."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values)
    if times.shape[0] != values.shape[0]:
        raise ValidationError("times and values must have equal length")
    dt = sample_period(times) if times.size > 1 else 0.0
    out = []
    for seg in annotation.segments:
        if times.size and (seg.start < times[0] - dt / 2 or seg.end > times[-1] + dt + dt / 2):
            raise ValidationError(
                f"segment {seg.label!r} [{seg.start}, {seg.end}) lies outside the "
                f"recorded range [{times[0]}, {times[-1] + dt}]"
            )
        mask = (times >= seg.start) & (times < seg.end)
        if not mask.any():
            raise ValidationError(f"segment {seg.label!r} [{seg.start}, {seg.end}) selects no sample")
        out.append((seg.label, values[mask]))
    return out


def time_fraction_above(series: np.ndarray, threshold_deg: float) -> float:
    """Fraction of samples strictly above the threshold."""
    series = np.asarray(series, dtype=float)
    if series.size == 0:
        raise ValidationError("empty series")
    return float(np.count_nonzero(series > threshold_deg) / series.size)


def posture_profile(series: np.ndarray) -> dict[float, float]:
    """Exposure fractions above each of ``POSTURE_THRESHOLDS_DEG``;
    non-increasing in the threshold by construction."""
    return {float(t): time_fraction_above(series, t) for t in POSTURE_THRESHOLDS_DEG}


def _sorted_quantile(ascending: np.ndarray, q: float) -> float:
    """Quantile ``q`` of a non-empty ascending series by numpy's default
    (linear) method, with its float operations: virtual index
    ``(n - 1) q`` with fraction ``g`` over ``a`` and its successor ``b``,
    ``a + (b - a) g`` below ``g = 0.5`` and ``b - (b - a) (1 - g)`` from
    it. The last element when the index reaches it, or when it is NaN,
    which sorts last and makes every quantile NaN. (A series of one
    infinite value gives that value, where ``np.percentile`` gives NaN.)"""
    n = ascending.size
    index = (n - 1) * q
    last = float(ascending[-1])
    if index >= n - 1 or last != last:
        return last
    i = int(index)
    g = index - i
    a, b = float(ascending[i]), float(ascending[i + 1])
    return a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g)


def summarize(series: np.ndarray) -> DistributionSummary:
    """Five-number summary plus mean and sample standard deviation. Quartiles
    use linear interpolation between order statistics, as ``np.percentile``
    does. The input is sorted first, which makes every statistic bit-exactly
    permutation invariant."""
    series = np.sort(np.asarray(series, dtype=float).ravel())
    if series.size == 0:
        raise ValidationError("cannot summarize an empty series")
    n = int(series.size)
    q1, median, q3 = (_sorted_quantile(series, q) for q in (0.25, 0.5, 0.75))
    return DistributionSummary(
        n=n,
        mean=float(np.mean(series)),
        stdev=float(np.std(series, ddof=1)) if n > 1 else 0.0,
        minimum=float(np.min(series)),
        q1=q1,
        median=median,
        q3=q3,
        maximum=float(np.max(series)),
    )


def tukey_whiskers(summary: DistributionSummary) -> tuple[float, float]:
    """1.5 IQR whisker positions clamped to the data range (reported alongside
    min/max; the boxplot convention flag in the CSV output)."""
    iqr = summary.q3 - summary.q1
    low = max(summary.minimum, summary.q1 - 1.5 * iqr)
    high = min(summary.maximum, summary.q3 + 1.5 * iqr)
    return low, high
