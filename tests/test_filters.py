"""The numpy filters against scipy.signal, which the package no longer
imports at run time."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import signal

from helpers import synthetic_ecg

import exoload
from exoload.filters import butter_sos, sosfilt, sosfiltfilt

DESIGNS = [
    (4, 10.0, 2000.0, "lowpass"),
    (2, 5.0, 240.0, "lowpass"),
    (2, (5.0, 15.0), 1000.0, "bandpass"),
]


@pytest.mark.parametrize("order, cutoff, fs, btype", DESIGNS)
def test_butter_sos_equals_scipy_bit_for_bit(order, cutoff, fs, btype):
    expected = signal.butter(order, cutoff, btype=btype, fs=fs, output="sos")
    assert np.array_equal(butter_sos(order, cutoff, fs, btype), expected)


def test_butter_sos_rejects_unsupported_designs():
    with pytest.raises(ValueError, match="even"):
        butter_sos(3, 10.0, 2000.0)
    with pytest.raises(ValueError, match="fs/2"):
        butter_sos(2, 1000.0, 2000.0)
    with pytest.raises(ValueError, match="increasing"):
        butter_sos(2, (15.0, 5.0), 1000.0, "bandpass")
    with pytest.raises(ValueError, match="unknown filter type"):
        butter_sos(2, 10.0, 1000.0, "highpass")


def emg_like(n=40000, fs=2000.0):
    """Rectified, RMS-windowed noise bursts: the envelope filter's input."""
    rng = np.random.default_rng(3)
    gain = 1.0 + 0.8 * np.sin(2 * np.pi * 0.5 * np.arange(n) / fs)
    raw = gain * rng.normal(0.0, 50.0, n)
    window = int(0.1 * fs)
    return np.sqrt(np.convolve(raw * raw, np.ones(window) / window, mode="same"))


def ecg_like(n=60000, fs=1000.0):
    sig, _ = synthetic_ecg(fs, n / fs, 72.0, snr_db=20.0, seed=5)
    return sig - np.mean(sig)


@pytest.mark.parametrize(
    "sos, x",
    [
        (butter_sos(4, 10.0, 2000.0), emg_like()),
        (butter_sos(2, (5.0, 15.0), 1000.0, "bandpass"), ecg_like()),
    ],
    ids=["emg", "ecg"],
)
@pytest.mark.parametrize("with_zi", [False, True])
def test_sosfilt_matches_scipy(sos, x, with_zi):
    zi = np.random.default_rng(9).normal(0.0, 10.0, (len(sos), 2)) if with_zi else None
    expected = signal.sosfilt(sos, x) if zi is None else signal.sosfilt(sos, x, zi=zi)[0]
    got = sosfilt(sos, x, zi)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("n", [240, 130, 10, 2])
def test_sosfiltfilt_matches_scipy_filtfilt(n):
    walk = np.cumsum(np.random.default_rng(4).normal(size=(n, 43)), axis=0)
    b, a = signal.butter(2, 5.0, fs=240.0)
    pad = min(9, n - 1)
    expected = signal.filtfilt(b, a, walk, axis=0, padlen=pad)
    got = sosfiltfilt(butter_sos(2, 5.0, 240.0), walk, pad)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_cli_import_leaves_scipy_unloaded():
    code = "import sys, exoload.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=str(Path(exoload.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "[]"
